//! Dense-core structure guard: the bench substrates must keep the dense
//! trailing cores that carry almost all of their numeric-replay work
//! (rmat1024: 349 steps, 99.7% of the replay FMAs; rmat2048: 677 steps,
//! 99.9%; the 40×40 DIMACS grid: 52 steps).
//!
//! An ordering or pivoting change that breaks the nesting of the last `L`
//! columns shrinks the core and silently sends the replay and the solves
//! back through the per-entry sparse kernels; no correctness test notices,
//! this one does. It reads the public [`SymbolicLu::largest_core`] stat and
//! runs in every profile. The timing half — the dense core kernel replays
//! no slower than the scalar oracle — is the release-only linalg unit test
//! `core_replay_not_slower_than_scalar_oracle`, which needs the
//! crate-private oracle.
//!
//! [`SymbolicLu::largest_core`]: ohmflow_linalg::SymbolicLu::largest_core

use ohmflow_bench::{bench_substrate, dimacs_grid_instance, fig10_instance};
use ohmflow_circuit::DcSolver;

#[test]
fn substrates_keep_their_dense_core() {
    for (name, g, floor) in [
        ("rmat2048", fig10_instance(2048, false, 1), 600),
        ("rmat1024", fig10_instance(1024, false, 1), 300),
        ("dimacs_grid40", dimacs_grid_instance(40, 64, 7), 32),
    ] {
        let sc = bench_substrate(&g);
        let (_, lu) = DcSolver::new().stamp(sc.circuit()).expect("dc system");
        let core = lu.symbolic().largest_core();
        assert!(
            core >= floor,
            "{name}: largest dense core {core} steps, expected at least {floor}"
        );
    }
}
