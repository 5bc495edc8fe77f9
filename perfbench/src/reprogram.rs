//! `reprogram`: one fabric, many programs. One fixed rmat256 topology is
//! planned during set-up; every op programs a fresh capacity vector and
//! runs `MaxFlowSolver::plan` (a cache hit), `Plan::instance` and
//! `Instance::solve` under `SolveOptions::ideal()`, with one caller.
//!
//! A few percent of fresh capacity vectors make the complementarity state
//! iteration cycle until half its budget before it converges, at roughly
//! 200× the cost of a normal op. A seed-drawn stream of a hundred ops
//! would hold a Poisson-distributed handful of such ops, and its
//! throughput would swing with that count from run to run. The capacity
//! vectors therefore form a fixed corpus, drawn once from [`CORPUS_SEED`]
//! at the natural cycling rate (none is filtered, capped or re-drawn);
//! `--seed` sets the order in which the caller sends them.

use ohmflow::SolveOptions;
use ohmflow_bench::fig10_instance;

use crate::staged::{self, Staged};
use crate::{Config, Outcome, Scale};

/// Seed of the fixed rmat topology.
const TOPOLOGY_SEED: u64 = 1;
/// Seed of the capacity-vector corpus.
const CORPUS_SEED: u64 = 0x5EED_0001;
/// Op runs per nominal second.
const OPS_PER_S: f64 = 7.2;

pub(crate) fn run(cfg: &Config) -> Result<Outcome, String> {
    let vertices = match cfg.scale {
        Scale::Full => 256,
        Scale::Tiny => 32,
    };
    staged::run(
        cfg,
        Staged {
            topologies: vec![fig10_instance(vertices, false, TOPOLOGY_SEED)],
            opts: SolveOptions::ideal(),
            corpus_seed: CORPUS_SEED,
            ops_per_s: OPS_PER_S,
        },
    )
}
