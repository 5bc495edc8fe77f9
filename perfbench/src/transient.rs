//! `transient`: new capacities every op, solved with the simulated
//! dynamics of the §5.1 evaluation (`SolveOptions::evaluation(10e9)`: the
//! op-amp substrate and the relaxation transient). Ops take turns over
//! fixed rmat128, rmat256 and grid10 topologies, planned during set-up.
//! This is the only workload that runs `circuit::transient` and the rank-1
//! flip loop of `FrozenDcSession`.
//!
//! A fraction of a percent of fresh capacity vectors never settle within
//! the automatic window limit (`AnalogError::NotConverged` after 7–50 s of
//! window doubling), and a few more settle only after several doublings.
//! As in `reprogram`, the capacity vectors therefore form a fixed corpus
//! drawn from [`CORPUS_SEED`], and `--seed` sets their order.

use ohmflow::SolveOptions;
use ohmflow_bench::fig10_instance;
use ohmflow_graph::generators;

use crate::staged::{self, Staged};
use crate::{Config, Outcome, Scale};

/// Seed of the fixed topologies.
const TOPOLOGY_SEED: u64 = 2;
/// Seed of the capacity-vector corpus: the first one whose vectors all
/// settle, so that no op fails.
const CORPUS_SEED: u64 = 3;
/// Op-amp gain-bandwidth product of the evaluation substrate, Hz.
const GBW_HZ: f64 = 10e9;
/// Op runs per nominal second.
const OPS_PER_S: f64 = 20.0;

pub(crate) fn run(cfg: &Config) -> Result<Outcome, String> {
    let (small, large, side) = match cfg.scale {
        Scale::Full => (128, 256, 10),
        Scale::Tiny => (24, 32, 4),
    };
    let grid = generators::grid(side, side, 100, TOPOLOGY_SEED).expect("invariant: grid side > 0");
    staged::run(
        cfg,
        Staged {
            topologies: vec![
                fig10_instance(small, false, TOPOLOGY_SEED),
                fig10_instance(large, false, TOPOLOGY_SEED),
                grid,
            ],
            opts: SolveOptions::evaluation(GBW_HZ),
            corpus_seed: CORPUS_SEED,
            ops_per_s: OPS_PER_S,
        },
    )
}
