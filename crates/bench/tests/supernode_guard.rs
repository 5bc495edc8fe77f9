//! Supernodal-kernel regression guard: the blocked numeric replay on the
//! rmat1024 substrate fixture must never run slower than the scalar
//! per-column replay it accelerates, and the rmat2048 fixture must keep
//! detecting a non-trivial supernode structure.
//!
//! This is the cheap CI tripwire for the PR 7 blocked kernels: a change
//! that silently breaks supernode detection (the plan degenerates to
//! singletons and the dispatch falls back to scalar) or regresses the
//! panel kernels (the blocked path stops paying for its bookkeeping)
//! shows up here long before anyone reads `BENCH_PR7.json`. The bound is
//! deliberately generous — parity plus 15% jitter margin, not the
//! measured ~2× win — so timer noise on loaded CI machines cannot flake
//! it, while a real regression (blocked slower than scalar) still trips.
//! The timing half only runs under `--release`: the register-blocked
//! kernels need the optimizer (lane loops stay scalar calls in debug
//! builds, where blocked loses by design); the structure tripwire below
//! runs in every profile.

use std::sync::Mutex;

use ohmflow_bench::{bench_substrate, dimacs_grid_instance, fig10_instance, full_replay_ns};
use ohmflow_circuit::DcSolver;
use ohmflow_linalg::{LuWorkspace, SparseLu, SparseLuOptions};

/// The harness runs both tests as concurrent threads; on a small machine
/// the structure test's factorizations would pollute the timing loop, so
/// the tests serialize through this lock.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing guard: the blocked kernels only beat the scalar replay \
              in optimized builds — run with --release"
)]
fn supernodal_refactor_never_loses_to_scalar_on_rmat1024() {
    let _guard = SERIAL.lock().unwrap();
    let g = fig10_instance(1024, false, 1);
    let sc = bench_substrate(&g);
    // Default options are the production supernodal path.
    let (m, lu) = DcSolver::new().stamp(sc.circuit()).expect("dc system");
    let stats = lu
        .symbolic()
        .supernode_stats()
        .expect("default options detect supernodes");
    assert!(
        stats.multi >= 1,
        "rmat1024 lost its multi-column supernodes: {stats:?}"
    );

    let mut ws = LuWorkspace::new();
    let mut lu_sn = lu.clone();
    let t_sn = full_replay_ns(7, &mut lu_sn, &m, &mut ws);
    let scalar_opts = SparseLuOptions {
        supernodal: false,
        ..SparseLuOptions::default()
    };
    let mut lu_scalar = SparseLu::factor_with(&m, &scalar_opts).expect("scalar factor");
    let t_scalar = full_replay_ns(7, &mut lu_scalar, &m, &mut ws);
    assert!(
        t_sn <= 1.15 * t_scalar,
        "supernodal replay ({t_sn:.0} ns) slower than the scalar replay ({t_scalar:.0} ns) \
         it is supposed to accelerate"
    );
}

/// Structure tripwire, no timers: the substrates whose dense elimination
/// tails motivated the blocked kernels must keep producing multi-column
/// supernodes under the default detection (recorded: 23 on rmat2048, 89
/// on the 40×40 DIMACS grid). A detector change that stops amalgamating
/// turns the entire supernodal subsystem into dead code without failing
/// any correctness test — this is the test that fails.
#[test]
fn substrates_keep_their_multi_column_supernodes() {
    let _guard = SERIAL.lock().unwrap();
    for (name, g, floor) in [
        ("rmat2048", fig10_instance(2048, false, 1), 2),
        ("dimacs_grid40", dimacs_grid_instance(40, 64, 7), 2),
    ] {
        let sc = bench_substrate(&g);
        let (_, lu) = DcSolver::new().stamp(sc.circuit()).expect("dc system");
        let stats = lu
            .symbolic()
            .supernode_stats()
            .expect("default options detect supernodes");
        assert!(
            stats.multi > floor,
            "{name}: expected more than {floor} multi-column supernodes, got {stats:?}"
        );
        assert!(
            stats.max_width >= 2,
            "{name}: no supernode wider than one column: {stats:?}"
        );
    }
}
