//! Machine-readable perf snapshot for CI: runs the fast benchmark suite
//! with wall-clock timing and writes `BENCH_PR2.json` (the template /
//! incremental-engine scenarios of PR 2, kept as the regression guard),
//! `BENCH_PR3.json` (the large-graph scaling story: factorization,
//! numeric refactorization and the rank-1 triangular solve on
//! rmat1024 / rmat2048 / a DIMACS-roundtripped grid)
//! `BENCH_PR4.json` (the AMD+BTF factor: fill, factor and refactor
//! times, plus the BTF block structure), `BENCH_PR5.json` (facade
//! overhead), `BENCH_PR6.json` (the KLU-style solve-time off-diagonal
//! restructure: the production rank-1 solve, and the rmat128
//! multi-block numeric-replay tax) and `BENCH_PR8.json` (the
//! concurrent sharded plan cache: fingerprint-first hit latency vs the
//! old full-key-rebuild path, warm-hit throughput at 1/2/4 threads and
//! an eviction-pressure sweep with the cache counters) and
//! `BENCH_PR9.json` (the graph-delta fast path: k=8 mixed delta batches
//! through a standing `DeltaSession` vs cold plan+solve, the rank-k
//! batched Woodbury push vs k sequential rank-1 pushes, the k=8
//! multi-RHS blocked triangular solve vs eight singles, and the
//! `small_n` adaptive-path numbers behind `SMALL_INSTANCE_EDGES`) and
//! `BENCH_PR10.json` (the structural-audit overhead gate: release warm
//! repeat-solves on rmat2048 measured against themselves to pin the
//! debug-only auto-audit seams at <= 1.02x, plus the explicit
//! release-mode audit costs `ohmflow-audit` pays), so
//! the repo's perf trajectory is tracked by artifact instead of
//! anecdote. A final pass merges every `BENCH_PR*.json` in the working
//! directory into `BENCH_TRAJECTORY.json` keyed by PR number, so the
//! committed `BENCH_PR7.json` (the supernode kernels, since replaced by
//! the dense trailing cores) stays in the trajectory as history.
//!
//! Run with: `cargo run --release -p ohmflow-bench --bin bench_report`
//! (`OHMFLOW_BENCH_OUT` / `OHMFLOW_BENCH_OUT_PR3` / ... /
//! `OHMFLOW_BENCH_OUT_PR9` override the output paths).
//! `bench_report trajectory` skips the benchmarks, rebuilds
//! `BENCH_TRAJECTORY.json` from the report files already on disk, and
//! runs the PR 9 regression gate: if a baseline trajectory (the path in
//! `OHMFLOW_BENCH_BASELINE`, default the trajectory file itself as left
//! by a previous run) records PR 9 guard metrics and any of this run's
//! has regressed by more than 25%, the rebuild exits nonzero.
//! `bench_report pr8` / `pr9` run just that section and re-merge.

use ohmflow::builder::CapacityMapping;
use ohmflow::{MaxFlowSolver, SolveOptions, SubstrateTemplate};
use ohmflow_bench::{
    bench_substrate, dimacs_grid_instance, diode_unknown_pairs, fig10_instance, full_replay_ns,
    median_ns, time_push_relabel,
};
use ohmflow_circuit::{DcSolver, LuOptions};
use ohmflow_graph::generators;
use ohmflow_linalg::{amd_ordering, BlockOrdering, LuWorkspace, SparseLu, SparseLuOptions};

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("trajectory") => {
            trajectory_report();
            return;
        }
        // The PR 8 section standalone (plan-cache iteration loop).
        Some("pr8") => {
            pr8_report();
            trajectory_report();
            return;
        }
        // The PR 9 section standalone (delta-session iteration loop).
        Some("pr9") => {
            pr9_report();
            trajectory_report();
            return;
        }
        // The PR 10 section standalone (audit-overhead gate).
        Some("pr10") => {
            pr10_report();
            trajectory_report();
            return;
        }
        _ => {}
    }
    let mut entries: Vec<(String, f64)> = Vec::new();
    let mut push = |name: &str, ns: f64| {
        println!("{name:<44} {:>12.0} ns/op", ns);
        entries.push((name.to_owned(), ns));
    };

    // --- Template reuse on a Fig. 10-style same-topology sweep. ---
    let g = fig10_instance(128, false, 42);
    let mut cfg = SolveOptions::evaluation_quasi_static(10e9);
    cfg.params.v_flow = 800.0;
    let solver = MaxFlowSolver::new(cfg.clone());
    solver.solve(&g).expect("prime plan");
    let cold = median_ns(5, || solver.solve_fresh(&g).expect("solve").value);
    let warm = median_ns(5, || solver.solve(&g).expect("solve").value);
    push("quasi_static_rmat128/cold_build_solve", cold);
    push("quasi_static_rmat128/template_reuse_solve", warm);

    // Template creation + value-only instantiation, in isolation.
    let t_template = median_ns(5, || {
        SubstrateTemplate::new(&g, &cfg.params, &cfg.build, LuOptions::default()).expect("template")
    });
    let plan = solver.plan(&g).expect("plan");
    let t_inst = median_ns(5, || plan.instance(&g).expect("instance"));
    push("quasi_static_rmat128/template_create", t_template);
    push("quasi_static_rmat128/template_instantiate", t_inst);

    // --- Session creation: cold path vs numeric-only from template. ---
    let sc = plan.instance(&g).expect("instance").substrate().clone();
    let dcs = DcSolver::new();
    let dc_plan = dcs.plan(sc.circuit()).expect("dc plan");
    let s_cold = median_ns(5, || dcs.session(sc.circuit()).expect("session").stats());
    let s_tpl = median_ns(5, || {
        dc_plan.session(sc.circuit()).expect("session").stats()
    });
    push("session_rmat128/cold", s_cold);
    push("session_rmat128/from_template", s_tpl);

    // --- Relaxation transient (the §5 headline path). ---
    let g15 = generators::fig15a(100);
    let mut tcfg = SolveOptions::evaluation(10e9);
    tcfg.build.capacity_mapping = CapacityMapping::Exact;
    let tsolver = MaxFlowSolver::new(tcfg);
    let ns = median_ns(5, || tsolver.solve_fresh(&g15).expect("solve").value);
    push("transient_fig15a100/incremental", ns);

    // --- Batch throughput: same-topology fan-out vs sequential. ---
    let batch: Vec<_> = (1..=6)
        .map(|s| g.scaled_capacities(s).expect("scaled"))
        .collect();
    let seq = median_ns(3, || {
        batch
            .iter()
            .map(|g| solver.solve_fresh(g).expect("solve").value)
            .sum::<f64>()
    });
    let par = median_ns(3, || {
        solver
            .solve_many(batch.iter().map(ohmflow::Problem::from))
            .into_iter()
            .map(|r| r.expect("solve").value)
            .sum::<f64>()
    });
    push("batch6_rmat128/sequential_cold", seq);
    push("batch6_rmat128/solve_batch_templated", par);

    // --- Report. ---
    let speedup = |a: &str, b: &str| {
        let get = |n: &str| entries.iter().find(|(k, _)| k == n).map(|(_, v)| *v);
        match (get(a), get(b)) {
            (Some(x), Some(y)) if y > 0.0 => x / y,
            _ => 0.0,
        }
    };
    let template_speedup = speedup(
        "quasi_static_rmat128/cold_build_solve",
        "quasi_static_rmat128/template_reuse_solve",
    );
    let batch_speedup = speedup(
        "batch6_rmat128/sequential_cold",
        "batch6_rmat128/solve_batch_templated",
    );
    println!("template reuse speedup : {template_speedup:.2}x");
    println!("batch speedup : {batch_speedup:.2}x");

    // Hand-rolled JSON (no serde in the offline vendor set).
    let mut json =
        String::from("{\n  \"schema\": \"ohmflow-bench-report/1\",\n  \"ns_per_op\": {\n");
    for (i, (name, ns)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ns:.0}{comma}\n"));
    }
    json.push_str("  },\n  \"speedups\": {\n");
    json.push_str(&format!(
        "    \"template_reuse_vs_cold\": {template_speedup:.3},\n"
    ));
    json.push_str(&format!(
        "    \"batch_vs_sequential\": {batch_speedup:.3}\n"
    ));
    json.push_str("  }\n}\n");

    let out = std::env::var("OHMFLOW_BENCH_OUT").unwrap_or_else(|_| "BENCH_PR2.json".to_owned());
    std::fs::write(&out, json).expect("write bench report");
    println!("wrote {out}");

    pr3_report();
    pr4_report();
    pr5_report();
    pr6_report();
    pr8_report();
    pr9_report();
    pr10_report();
    trajectory_report();
}

/// The large-graph scaling section: symbolic+numeric factorization,
/// numeric refactorization and the rank-1 triangular solve on the real
/// substrate MNA matrices of rmat1024, rmat2048 and a DIMACS-roundtripped
/// 40×40 grid, plus an end-to-end frozen-DC session flip loop on the
/// DIMACS instance.
fn pr3_report() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("--- PR3 scaling (cores: {cores}) ---");
    let mut entries: Vec<(String, f64)> = Vec::new();
    let mut push = |name: String, ns: f64| {
        println!("{name:<44} {:>14.0} ns/op", ns);
        entries.push((name, ns));
    };

    // Seed 1: some R-MAT seeds produce substrates whose all-diodes-off
    // stamp is singular (near-disconnected vertices); the bench needs a
    // solvable instance, not a particular one.
    for (name, g) in [
        ("rmat1024", fig10_instance(1024, false, 1)),
        ("rmat2048", fig10_instance(2048, false, 1)),
        ("dimacs_grid40", dimacs_grid_instance(40, 50, 7)),
    ] {
        let sc = bench_substrate(&g);
        let (m, base_lu) = DcSolver::new().stamp(sc.circuit()).expect("dc system");
        let m = &m;
        println!(
            "{name}: {} unknowns, {} nnz, {} diagonal blocks",
            m.cols(),
            m.nnz(),
            base_lu.symbolic().block_count()
        );

        // Full symbolic + numeric factorization: the pivoting factor.
        push(
            format!("{name}/symbolic_numeric_factor"),
            median_ns(3, || SparseLu::factor(m).expect("factor")),
        );

        // Numeric-only refactorization (the serial replay).
        let mut ws = LuWorkspace::new();
        let mut lu = base_lu.clone();
        push(
            format!("{name}/refactor_serial"),
            full_replay_ns(5, &mut lu, m, &mut ws),
        );

        // Rank-1 triangular solves over a sample of the substrate's real
        // diode (anode, cathode) unknown pairs: one full dense
        // `solve_into`, what `LowRankUpdate::push` runs per term.
        let pairs = diode_unknown_pairs(&sc);
        let sample: Vec<(usize, usize)> = pairs
            .iter()
            .step_by((pairs.len() / 64).max(1))
            .copied()
            .collect();
        let lu = &base_lu;
        let n = m.cols();
        let mut dense_rhs = vec![0.0; n];
        let (mut work, mut out) = (Vec::new(), Vec::new());
        let t_dense = median_ns(3, || {
            for &(a, c) in &sample {
                dense_rhs[a] = 1e3;
                dense_rhs[c] = -1e3;
                lu.solve_into(&dense_rhs, &mut work, &mut out)
                    .expect("solve");
                dense_rhs[a] = 0.0;
                dense_rhs[c] = 0.0;
            }
        });
        push(
            format!("{name}/rank1_triangular_solve_dense"),
            t_dense / sample.len() as f64,
        );
    }

    // End-to-end on the DIMACS instance: frozen-DC session flip loop (the
    // engine's hot path) and the CPU max-flow baseline for context.
    {
        let g = dimacs_grid_instance(40, 50, 7);
        let sc = bench_substrate(&g);
        let ckt = sc.circuit();
        let dc_plan = DcSolver::new()
            .phase_timing(true)
            .plan(ckt)
            .expect("dc plan");
        let n_diodes = ckt.diode_count();
        let mut session = dc_plan.session(ckt).expect("session");
        let mut on = vec![false; n_diodes];
        let steps = 400;
        let t0 = std::time::Instant::now();
        for k in 0..steps {
            on[(k * 7919) % n_diodes] = !on[(k * 7919) % n_diodes];
            session.solve(k as f64 * 1e-9, &on).expect("session solve");
        }
        push(
            "dimacs_grid40/session_flip_step".to_owned(),
            t0.elapsed().as_nanos() as f64 / steps as f64,
        );
        let phases = session.phase_times();
        println!(
            "dimacs_grid40 session phases: stamp {:.1}ms refactor {:.1}ms solve {:.1}ms woodbury {:.1}ms",
            phases.stamp_ns as f64 / 1e6,
            phases.refactor_ns as f64 / 1e6,
            phases.solve_ns as f64 / 1e6,
            phases.woodbury_ns as f64 / 1e6,
        );
        let (cpu_secs, _flow) = time_push_relabel(&g, 3);
        push("dimacs_grid40/cpu_push_relabel".to_owned(), cpu_secs * 1e9);
    }

    let mut json = String::from("{\n  \"schema\": \"ohmflow-bench-report-pr3/1\",\n");
    json.push_str(&format!("  \"cores\": {cores},\n  \"ns_per_op\": {{\n"));
    for (i, (name, ns)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ns:.0}{comma}\n"));
    }
    json.push_str("  }\n}\n");

    let out =
        std::env::var("OHMFLOW_BENCH_OUT_PR3").unwrap_or_else(|_| "BENCH_PR3.json".to_owned());
    std::fs::write(&out, json).expect("write pr3 bench report");
    println!("wrote {out}");
}

/// The PR 4 ordering section: fill (`nnz(L+U+A_off)`), symbolic+numeric
/// factor time, serial numeric refactor time and the BTF block structure
/// of the AMD+BTF factor on the three reference substrates.
fn pr4_report() {
    println!("--- PR4 ordering subsystem ---");
    let mut entries: Vec<(String, f64)> = Vec::new();
    let mut fills: Vec<(String, usize)> = Vec::new();
    let mut blocks: Vec<(String, usize, usize)> = Vec::new();
    let mut push = |name: String, ns: f64| {
        println!("{name:<52} {ns:>14.0} ns/op");
        entries.push((name, ns));
    };

    for (name, g) in [
        ("rmat1024", fig10_instance(1024, false, 1)),
        ("rmat2048", fig10_instance(2048, false, 1)),
        ("dimacs_grid40", dimacs_grid_instance(40, 50, 7)),
    ] {
        let sc = bench_substrate(&g);
        let (m, lu) = DcSolver::new().stamp(sc.circuit()).expect("dc system");
        let label = format!("{name}/amd_btf");
        push(
            format!("{label}/symbolic_numeric_factor"),
            median_ns(3, || SparseLu::factor(&m).expect("factor")),
        );
        fills.push((label.clone(), lu.factor_nnz()));
        println!("{label}: nnz(L+U) {}", lu.factor_nnz());
        let sym = lu.symbolic();
        println!(
            "{label}: {} blocks, largest {} of {}",
            sym.block_count(),
            sym.largest_block(),
            sym.dim()
        );
        blocks.push((label.clone(), sym.block_count(), sym.largest_block()));

        // Serial numeric refactorization (the rebase hot path).
        let mut ws = LuWorkspace::new();
        let mut rlu = lu.clone();
        push(
            format!("{label}/refactor_serial"),
            full_replay_ns(5, &mut rlu, &m, &mut ws),
        );
    }

    let mut json = String::from("{\n  \"schema\": \"ohmflow-bench-report-pr4/1\",\n");
    json.push_str("  \"ns_per_op\": {\n");
    for (i, (name, ns)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ns:.0}{comma}\n"));
    }
    json.push_str("  },\n  \"fill_nnz\": {\n");
    for (i, (name, nnz)) in fills.iter().enumerate() {
        let comma = if i + 1 < fills.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {nnz}{comma}\n"));
    }
    json.push_str("  },\n  \"btf_blocks\": {\n");
    for (i, (name, count, largest)) in blocks.iter().enumerate() {
        let comma = if i + 1 < blocks.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{name}\": {{ \"count\": {count}, \"largest\": {largest} }}{comma}\n"
        ));
    }
    json.push_str("  }\n}\n");

    let out =
        std::env::var("OHMFLOW_BENCH_OUT_PR4").unwrap_or_else(|_| "BENCH_PR4.json".to_owned());
    std::fs::write(&out, json).expect("write pr4 bench report");
    println!("wrote {out}");
}

/// The PR 5 staged-facade section: the facade must be free. Repeat solves
/// through `MaxFlowSolver::solve` (plan cache) are measured against a
/// second solver clone sharing the same plan cache (the JSON keys keep
/// their original `direct_templated` names for trajectory continuity —
/// the deprecated direct path those names referred to was deleted in
/// PR 8, and a cache-sharing clone is the same measurement), against the
/// explicit `plan → instance → solve` staging, and against the plan-cache
/// hit cost itself, on the rmat1024/rmat2048 substrates. The recorded
/// `facade_vs_direct_templated_rmat1024` ratio is the acceptance bar
/// (< 1.05): both paths ride the identical internals, so anything above
/// noise means the facade grew a real cost.
fn pr5_report() {
    println!("--- PR5 staged facade ---");
    let mut entries: Vec<(String, f64)> = Vec::new();
    let mut push = |name: String, ns: f64| {
        println!("{name:<48} {ns:>14.0} ns/op");
        entries.push((name, ns));
    };

    for (name, g) in [
        ("rmat1024", fig10_instance(1024, false, 1)),
        ("rmat2048", fig10_instance(2048, false, 1)),
    ] {
        let mut cfg = SolveOptions::evaluation_quasi_static(10e9);
        cfg.params.v_flow = 800.0;
        let solver = MaxFlowSolver::new(cfg);
        // The cloned solver shares the same plan cache, so both handles
        // measure the identical warm state.
        let twin = solver.clone();
        solver.solve(&g).expect("prime plan");

        let direct = median_ns(3, || twin.solve(&g).expect("solve").value);
        let facade = median_ns(3, || solver.solve(&g).expect("solve").value);
        let plan = solver.plan(&g).expect("plan");
        assert!(plan.cache_hit(), "primed plan must come from the cache");
        let staged = median_ns(3, || {
            plan.instance(&g)
                .expect("instance")
                .solve()
                .expect("solve")
                .value
        });
        let plan_hit = median_ns(9, || solver.plan(&g).expect("plan").cache_hit());
        push(format!("{name}/direct_templated_repeat_solve"), direct);
        push(format!("{name}/facade_repeat_solve"), facade);
        push(format!("{name}/facade_staged_repeat_solve"), staged);
        push(format!("{name}/plan_cache_hit"), plan_hit);
    }

    let get = |key: &str| {
        entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let overhead_1024 = ratio(
        get("rmat1024/facade_repeat_solve"),
        get("rmat1024/direct_templated_repeat_solve"),
    );
    let overhead_2048 = ratio(
        get("rmat2048/facade_repeat_solve"),
        get("rmat2048/direct_templated_repeat_solve"),
    );
    let staged_overhead_1024 = ratio(
        get("rmat1024/facade_staged_repeat_solve"),
        get("rmat1024/direct_templated_repeat_solve"),
    );
    println!("facade repeat-solve overhead (rmat1024): {overhead_1024:.3}x");
    println!("facade repeat-solve overhead (rmat2048): {overhead_2048:.3}x");
    println!("staged plan->instance->solve overhead (rmat1024): {staged_overhead_1024:.3}x");

    let mut json = String::from("{\n  \"schema\": \"ohmflow-bench-report-pr5/1\",\n");
    json.push_str("  \"ns_per_op\": {\n");
    for (i, (name, ns)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ns:.0}{comma}\n"));
    }
    json.push_str("  },\n  \"overheads\": {\n");
    json.push_str(&format!(
        "    \"facade_vs_direct_templated_rmat1024\": {overhead_1024:.3},\n"
    ));
    json.push_str(&format!(
        "    \"facade_vs_direct_templated_rmat2048\": {overhead_2048:.3},\n"
    ));
    json.push_str(&format!(
        "    \"facade_staged_vs_direct_templated_rmat1024\": {staged_overhead_1024:.3}\n"
    ));
    json.push_str("  }\n}\n");

    let out =
        std::env::var("OHMFLOW_BENCH_OUT_PR5").unwrap_or_else(|_| "BENCH_PR5.json".to_owned());
    std::fs::write(&out, json).expect("write pr5 bench report");
    println!("wrote {out}");
}

/// The PR 6 section: the KLU-style restructure. Two tracked stories:
///
/// * rmat2048 rank-1 solves under the production factor (AmdBtf,
///   multi-block, off-diagonal entries applied at solve time): one full
///   dense `solve_into` per diode pair.
/// * rmat128 numeric replay: serial refactor of the multi-block default
///   vs a single-block AMD factor of the same matrix — the closure tax
///   the raw `A_off` layout removed (also guarded in `ordering_guard`).
fn pr6_report() {
    println!("--- PR6 solve-time off-diagonal blocks ---");
    let mut entries: Vec<(String, f64)> = Vec::new();
    let mut push = |name: String, ns: f64| {
        println!("{name:<52} {ns:>14.0} ns/op");
        entries.push((name, ns));
    };

    // rmat2048 rank-1: one dense full solve per diode pair.
    {
        let g = fig10_instance(2048, false, 1);
        let sc = bench_substrate(&g);
        let (m, lu) = DcSolver::new().stamp(sc.circuit()).expect("dc system");
        let sym = lu.symbolic();
        println!(
            "rmat2048: {} unknowns, {} blocks (largest {}), {} off-diagonal nnz",
            sym.dim(),
            sym.block_count(),
            sym.largest_block(),
            sym.off_nnz()
        );
        let pairs = diode_unknown_pairs(&sc);
        let sample: Vec<(usize, usize)> = pairs
            .iter()
            .step_by((pairs.len() / 64).max(1))
            .copied()
            .collect();
        let n = m.cols();
        let mut dense_rhs = vec![0.0; n];
        let (mut work, mut out) = (Vec::new(), Vec::new());
        let t_dense = median_ns(7, || {
            for &(a, c) in &sample {
                dense_rhs[a] = 1e3;
                dense_rhs[c] = -1e3;
                lu.solve_into(&dense_rhs, &mut work, &mut out)
                    .expect("solve");
                dense_rhs[a] = 0.0;
                dense_rhs[c] = 0.0;
            }
        });
        push(
            "rmat2048/rank1_solve_dense".to_owned(),
            t_dense / sample.len() as f64,
        );
    }

    // rmat128 numeric replay: multi-block default vs single-block AMD.
    {
        let g = fig10_instance(128, false, 1);
        let sc = bench_substrate(&g);
        let (m, lu_blk) = DcSolver::new().stamp(sc.circuit()).expect("dc system");
        let amd = BlockOrdering::single_block(amd_ordering(&m));
        let lu_amd =
            SparseLu::factor_ordered(&m, amd, &SparseLuOptions::default()).expect("amd factor");
        let mut ws = LuWorkspace::new();
        for (label, mut lu) in [("multiblock", lu_blk), ("amd", lu_amd)] {
            push(
                format!("rmat128/refactor_serial_{label}"),
                full_replay_ns(15, &mut lu, &m, &mut ws),
            );
        }
    }

    let get = |key: &str| {
        entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let replay_ratio_128 = ratio(
        get("rmat128/refactor_serial_multiblock"),
        get("rmat128/refactor_serial_amd"),
    );
    println!("multi-block vs AMD replay ratio (rmat128): {replay_ratio_128:.3}");

    let mut json = String::from("{\n  \"schema\": \"ohmflow-bench-report-pr6/1\",\n");
    json.push_str("  \"ns_per_op\": {\n");
    for (i, (name, ns)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ns:.0}{comma}\n"));
    }
    json.push_str("  },\n  \"speedups\": {\n");
    json.push_str(&format!(
        "    \"multiblock_replay_vs_amd_rmat128\": {replay_ratio_128:.3}\n"
    ));
    json.push_str("  }\n}\n");

    let out =
        std::env::var("OHMFLOW_BENCH_OUT_PR6").unwrap_or_else(|_| "BENCH_PR6.json".to_owned());
    std::fs::write(&out, json).expect("write pr6 bench report");
    println!("wrote {out}");
}

/// The PR 8 section: the concurrent sharded plan cache. Three tracked
/// stories on the quasi-static rmat substrates:
///
/// * Hit-path latency, old vs new. The pre-PR-8 hit path rebuilt the full
///   `TemplateKey` (edge `Vec` + per-edge `Hash` dispatch into SipHash)
///   on every lookup; that per-edge rehash is reconstructed here as the
///   baseline and set against today's key rebuild (cold path only), the
///   streaming-fingerprint probe and the end-to-end `MaxFlowSolver::plan`
///   warm hit. The acceptance bar is the rmat2048 hit landing >= 5x under
///   the 107744 ns recorded in `BENCH_PR5.json`.
/// * Warm-hit throughput under concurrency: 1/2/4 threads hammering one
///   shared cache through solver clones. On the multi-core bench runner
///   aggregate throughput should hold (lock-striped shards); the
///   recorded ratios are aggregate ns/op relative to one thread.
/// * Eviction pressure: the same lookup mix under a roomy, a tight and a
///   floor-sized `plan_cache_bytes` budget, with the hit/miss/eviction
///   counters from `PlanCacheStats` recorded alongside the latency.
fn pr8_report() {
    use std::hint::black_box;

    use ohmflow::TemplateKey;

    println!("--- PR8 concurrent plan cache ---");
    let mut entries: Vec<(String, f64)> = Vec::new();
    let mut push = |name: String, ns: f64| {
        println!("{name:<48} {ns:>14.0} ns/op");
        entries.push((name, ns));
    };

    // Hit latency recorded by the PR 5 report on this container, before
    // the fingerprint-first rewrite (BENCH_PR5.json, `plan_cache_hit`).
    const PR5_RECORDED_HIT_NS: [(&str, f64); 2] = [("rmat1024", 56502.0), ("rmat2048", 107744.0)];

    let mut speedups: Vec<(String, f64)> = Vec::new();
    for (name, g) in [
        ("rmat1024", fig10_instance(1024, false, 1)),
        ("rmat2048", fig10_instance(2048, false, 1)),
    ] {
        let mut cfg = SolveOptions::evaluation_quasi_static(10e9);
        cfg.params.v_flow = 800.0;
        let solver = MaxFlowSolver::new(cfg);
        solver.solve(&g).expect("prime plan");

        // The pre-PR-8 lookup cost, reconstructed: per-edge `Hash`-trait
        // dispatch into SipHash (the derived-`Hash` `HashMap` key probe
        // every hit used to pay) — versus today's key rebuild (cold path
        // only), the streaming fingerprint, and the end-to-end warm hit.
        let rehash = median_ns(9, || {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            g.vertex_count().hash(&mut h);
            g.source().hash(&mut h);
            g.sink().hash(&mut h);
            for e in black_box(&g).edges() {
                (e.from, e.to).hash(&mut h);
            }
            black_box(h.finish())
        });
        let key_rebuild = median_ns(9, || black_box(TemplateKey::new(black_box(&g))));
        let fingerprint = median_ns(9, || black_box(TemplateKey::fingerprint(black_box(&g))));
        let hit = median_ns(9, || solver.plan(&g).expect("plan").cache_hit());
        push(format!("{name}/siphash_rehash_baseline"), rehash);
        push(format!("{name}/key_rebuild"), key_rebuild);
        push(format!("{name}/topology_fingerprint"), fingerprint);
        push(format!("{name}/plan_cache_hit"), hit);
        speedups.push((format!("hit_vs_siphash_rehash_{name}"), rehash / hit));
        let recorded = PR5_RECORDED_HIT_NS
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .expect("recorded baseline");
        speedups.push((format!("hit_vs_pr5_recorded_{name}"), recorded / hit));
    }

    // Warm-hit throughput: clones share the one sharded cache.
    let g = fig10_instance(1024, false, 1);
    let mut cfg = SolveOptions::evaluation_quasi_static(10e9);
    cfg.params.v_flow = 800.0;
    let solver = MaxFlowSolver::new(cfg);
    solver.solve(&g).expect("prime plan");
    const OPS_PER_THREAD: usize = 512;
    let mut agg = Vec::new();
    for threads in [1usize, 2, 4] {
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let worker = solver.clone();
                let g = &g;
                scope.spawn(move || {
                    for _ in 0..OPS_PER_THREAD {
                        assert!(worker.plan(g).expect("plan").cache_hit());
                    }
                });
            }
        });
        let ns = start.elapsed().as_nanos() as f64 / (threads * OPS_PER_THREAD) as f64;
        push(format!("concurrent_hit_threads{threads}/agg_ns_per_op"), ns);
        agg.push(ns);
    }
    speedups.push(("concurrent_agg_threads2_vs_1".into(), agg[0] / agg[1]));
    speedups.push(("concurrent_agg_threads4_vs_1".into(), agg[0] / agg[2]));

    // Eviction pressure: cycle eight rmat128 topologies through budgets
    // from roomy (everything resident) down to the one-plan-per-shard
    // floor, and record the cache counters the sweep leaves behind.
    let mix: Vec<_> = (0..8).map(|s| fig10_instance(128, false, s)).collect();
    let mut counters: Vec<(String, u64)> = Vec::new();
    for (label, budget) in [
        ("roomy_64mb", 64usize << 20),
        ("tight_512kb", 512 << 10),
        ("floor_1b", 1),
    ] {
        let mut cfg = SolveOptions::evaluation_quasi_static(10e9).with_plan_cache_bytes(budget);
        cfg.params.v_flow = 800.0;
        let solver = MaxFlowSolver::new(cfg);
        for g in &mix {
            solver.plan(g).expect("prime");
        }
        let ns = median_ns(3, || {
            for g in &mix {
                solver.plan(g).expect("plan");
            }
        });
        push(format!("eviction_{label}/lookup_cycle8"), ns);
        let stats = solver.plan(&mix[0]).expect("plan").report().cache;
        for (k, v) in [
            ("hits", stats.hits),
            ("misses", stats.misses),
            ("evictions", stats.evictions),
            ("resident_plans", stats.resident_plans as u64),
        ] {
            counters.push((format!("eviction_{label}/{k}"), v));
        }
    }

    for (k, v) in &speedups {
        println!("{k}: {v:.2}x");
    }

    let mut json = String::from("{\n  \"schema\": \"ohmflow-bench-report-pr8/1\",\n");
    json.push_str("  \"ns_per_op\": {\n");
    for (i, (name, ns)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ns:.0}{comma}\n"));
    }
    json.push_str("  },\n  \"cache_counters\": {\n");
    for (i, (name, v)) in counters.iter().enumerate() {
        let comma = if i + 1 < counters.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {v}{comma}\n"));
    }
    json.push_str("  },\n  \"speedups\": {\n");
    for (i, (name, v)) in speedups.iter().enumerate() {
        let comma = if i + 1 < speedups.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {v:.3}{comma}\n"));
    }
    json.push_str("  }\n}\n");

    let out =
        std::env::var("OHMFLOW_BENCH_OUT_PR8").unwrap_or_else(|_| "BENCH_PR8.json".to_owned());
    std::fs::write(&out, json).expect("write pr8 bench report");
    println!("wrote {out}");
}

/// The PR 9 section: the graph-delta fast path. Four tracked stories:
///
/// * The headline delta-solve amortization on rmat2048: a k=8 mixed
///   delta batch (4 capacity restamps + 2 exact removals + 2 in-place
///   revivals) absorbed by a standing [`ohmflow::DeltaSession`] versus
///   the cold plan+build+solve the same change would cost without one.
///   The acceptance bar (also enforced by `delta_guard`) is >= 10x.
/// * Capacity-only k=8 batches — the cheapest delta class (pure
///   level-source restamps against the standing factor).
/// * The rank-k batched Woodbury push (`LowRankUpdate::push_batch`, one
///   capacitance refresh + multi-lane z-solves) versus k sequential
///   rank-1 `push`es (one dense solve each), on a single-block AMD
///   reference factor of rmat1024 and on the multi-block production
///   factor of rmat2048. Both factor shapes carry the batch through the
///   same multi-lane traversal (per diagonal block on the production
///   factor).
/// * The k=8 multi-RHS blocked triangular solve vs eight single-RHS
///   solves on the same factor, and the `small_n` adaptive-path numbers
///   behind `SMALL_INSTANCE_EDGES` (cold direct build+solve vs cold
///   plan+instantiate+solve on a sub-threshold grid).
fn pr9_report() {
    use std::time::Instant;

    use ohmflow::DeltaBatch;

    println!("--- PR9 graph-delta fast path ---");
    let mut entries: Vec<(String, f64)> = Vec::new();
    let mut push = |name: String, ns: f64| {
        println!("{name:<52} {ns:>14.0} ns/op");
        entries.push((name, ns));
    };
    let mut speedups: Vec<(String, f64)> = Vec::new();

    // --- Delta-session amortization on rmat2048. ---
    {
        let g = fig10_instance(2048, false, 1);
        // The ideal build: its conservation stars are plain resistors, so
        // edge removal/insertion rides the value-only surgery + rank-k
        // Woodbury fast path. Op-amp builds (the §5.1 evaluation
        // configs) realize star magnitudes inside subcircuits the session
        // cannot retune by value and fall back to structural re-keys —
        // the slow path by design, not what this section measures.
        let solver = MaxFlowSolver::new(SolveOptions::ideal());

        // What the same stream costs without a session: every batch pays
        // a cold plan+build+solve of the mutated graph.
        let cold = median_ns(3, || solver.solve_fresh(&g).expect("cold solve").value);
        push("rmat2048/cold_plan_build_solve".to_owned(), cold);

        let mut session = solver.delta_session(&g).expect("delta session");
        session.apply_deltas(&DeltaBatch::new()).expect("opening");

        // Interior (non-circulation) edges are the removable pool; the
        // walk removes two per round and revives the previous round's
        // two, so the live set is periodic and every batch is k=8 mixed.
        let removable: Vec<(usize, i64)> = g
            .edges()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.to != g.source() && e.from != g.sink())
            .map(|(k, e)| (k, e.capacity))
            .collect();
        let mixed_batch = |round: usize| {
            let l = removable.len();
            let (r0, r1) = (removable[(2 * round) % l], removable[(2 * round + 1) % l]);
            let (p0, p1) = (
                removable[(2 * round + l - 2) % l],
                removable[(2 * round + l - 1) % l],
            );
            let mut b = DeltaBatch::new()
                .remove_edge(r0.0)
                .remove_edge(r1.0)
                .insert_edge(g.edges()[p0.0].from, g.edges()[p0.0].to, p0.1)
                .insert_edge(g.edges()[p1.0].from, g.edges()[p1.0].to, p1.1);
            for i in 0..4 {
                let (k, cap) = removable[(4 * round + i + 7) % l];
                b = b.set_capacity(k, 1 + (cap + round as i64) % 99);
            }
            b
        };
        // Prime round 0's revivals (outside timing).
        session
            .apply_deltas(
                &DeltaBatch::new()
                    .remove_edge(removable[removable.len() - 2].0)
                    .remove_edge(removable[removable.len() - 1].0),
            )
            .expect("prime removals");
        let rounds = 12;
        let t0 = Instant::now();
        for r in 0..rounds {
            let report = session.apply_deltas(&mixed_batch(r)).expect("mixed batch");
            assert!(!report.replanned, "periodic mixed walk must not re-key");
        }
        let mixed = t0.elapsed().as_nanos() as f64 / rounds as f64;
        push("rmat2048/delta_mixed_k8_apply".to_owned(), mixed);
        println!(
            "rmat2048 session after mixed walk: rank {}, consolidations {}, replans {}",
            session.outstanding_rank(),
            session.consolidations(),
            session.replans()
        );

        // Heal the walk: revive the final mixed round's two removals so
        // the capacity rounds below never touch a dead id.
        let (d0, d1) = (
            removable[(2 * (rounds - 1)) % removable.len()],
            removable[(2 * (rounds - 1) + 1) % removable.len()],
        );
        session
            .apply_deltas(
                &DeltaBatch::new()
                    .insert_edge(g.edges()[d0.0].from, g.edges()[d0.0].to, d0.1)
                    .insert_edge(g.edges()[d1.0].from, g.edges()[d1.0].to, d1.1),
            )
            .expect("heal removals");

        // Capacity-only batches: the cheapest class (no surgery).
        let cap_batch = |round: usize| {
            let l = removable.len();
            let mut b = DeltaBatch::new();
            for i in 0..8 {
                let (k, cap) = removable[(8 * round + i) % l];
                b = b.set_capacity(k, 1 + (cap + round as i64) % 99);
            }
            b
        };
        let t0 = Instant::now();
        for r in 0..rounds {
            session.apply_deltas(&cap_batch(r)).expect("capacity batch");
        }
        let caps = t0.elapsed().as_nanos() as f64 / rounds as f64;
        push("rmat2048/delta_capacity_k8_apply".to_owned(), caps);
        speedups.push(("delta_mixed_k8_vs_cold_rmat2048".to_owned(), cold / mixed));
        speedups.push(("delta_capacity_k8_vs_cold_rmat2048".to_owned(), cold / caps));
    }

    // --- Rank-k batched push vs k sequential rank-1 pushes. ---
    // Terms are real diode-pair conductance perturbations
    // `g·(e_a - e_c)(e_a - e_c)^T` on the substrate MNA matrix. The
    // sequential path refreshes the dense capacitance factor k times and
    // solves k single-RHS systems; the batch refreshes once and carries
    // its z-columns through multi-lane traversals on either factor shape.
    for (name, g, single_block) in [
        ("rmat1024_amd", fig10_instance(1024, false, 1), true),
        ("rmat2048", fig10_instance(2048, false, 1), false),
    ] {
        use ohmflow_linalg::{LowRankUpdate, RankOneTermRef};

        let sc = bench_substrate(&g);
        let (m, lu_default) = DcSolver::new().stamp(sc.circuit()).expect("dc system");
        let lu = if single_block {
            let amd = BlockOrdering::single_block(amd_ordering(&m));
            SparseLu::factor_ordered(&m, amd, &SparseLuOptions::default()).expect("amd factor")
        } else {
            lu_default
        };
        println!("{name}: {} blocks", lu.symbolic().block_count());
        let pairs = diode_unknown_pairs(&sc);
        let k = 8;
        #[allow(clippy::type_complexity)]
        let terms: Vec<(Vec<(usize, f64)>, Vec<(usize, f64)>)> = pairs
            .iter()
            .step_by((pairs.len() / k).max(1))
            .take(k)
            .map(|&(a, c)| (vec![(a, 1e-4), (c, -1e-4)], vec![(a, 1.0), (c, -1.0)]))
            .collect();
        let term_refs: Vec<RankOneTermRef<'_>> = terms
            .iter()
            .map(|(u, v)| (u.as_slice(), v.as_slice()))
            .collect();
        let n = m.cols();
        let t_seq = median_ns(5, || {
            let mut up = LowRankUpdate::new(n);
            for (u, v) in &term_refs {
                up.push(&lu, u, v).expect("rank-1 push");
            }
        });
        let t_bat = median_ns(5, || {
            let mut up = LowRankUpdate::new(n);
            up.push_batch(&lu, &term_refs).expect("rank-8 batch push");
        });
        push(format!("{name}/rank1_push_x8_sequential"), t_seq);
        push(format!("{name}/rank8_push_batch"), t_bat);
        speedups.push((format!("push_batch_k8_vs_sequential_{name}"), t_seq / t_bat));

        // Multi-RHS blocked triangular solve vs k single-RHS solves on
        // the same factor (the primitive push_batch rides).
        let b1 = vec![1.0; n];
        let bk = vec![1.0; n * k];
        let (mut work, mut out) = (Vec::new(), Vec::new());
        let t_single = median_ns(5, || {
            for _ in 0..k {
                lu.solve_into(&b1, &mut work, &mut out).expect("solve");
            }
        });
        let t_multi = median_ns(5, || {
            lu.solve_multi_into(&bk, k, &mut work, &mut out)
                .expect("multi solve")
        });
        push(format!("{name}/triangular_solve_x8_single"), t_single);
        push(format!("{name}/triangular_solve_multi_k8"), t_multi);
        speedups.push((
            format!("solve_multi_k8_vs_x8_single_{name}"),
            t_single / t_multi,
        ));
    }

    // --- small_n: the adaptive-path numbers behind SMALL_INSTANCE_EDGES.
    // A sub-threshold grid (3x3: 30 edges < 48): cold direct build+solve
    // vs the cold plan+instantiate+solve a one-shot `solve` used to pay.
    {
        let g = dimacs_grid_instance(3, 50, 7);
        assert!(g.edge_count() < ohmflow::solver::SMALL_INSTANCE_EDGES);
        let mut cfg = SolveOptions::evaluation_quasi_static(10e9);
        cfg.params.v_flow = 800.0;
        let solver = MaxFlowSolver::new(cfg.clone());
        let direct = median_ns(9, || solver.solve_fresh(&g).expect("solve").value);
        let templated = median_ns(9, || {
            // A fresh solver per round keeps the plan cache cold: this is
            // the build-plan-then-instantiate path the threshold retired.
            let s = MaxFlowSolver::new(cfg.clone());
            let plan = s.plan(&g).expect("plan");
            plan.instance(&g)
                .expect("instance")
                .solve()
                .expect("solve")
                .value
        });
        push("small_n_grid3/cold_direct_build_solve".to_owned(), direct);
        push(
            "small_n_grid3/cold_plan_instantiate_solve".to_owned(),
            templated,
        );
        speedups.push((
            "small_n_direct_vs_cold_planned_grid3".to_owned(),
            templated / direct,
        ));
    }

    for (k, v) in &speedups {
        println!("{k}: {v:.2}x");
    }

    let mut json = String::from("{\n  \"schema\": \"ohmflow-bench-report-pr9/1\",\n");
    json.push_str("  \"ns_per_op\": {\n");
    for (i, (name, ns)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ns:.0}{comma}\n"));
    }
    json.push_str("  },\n  \"speedups\": {\n");
    for (i, (name, v)) in speedups.iter().enumerate() {
        let comma = if i + 1 < speedups.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {v:.3}{comma}\n"));
    }
    json.push_str("  }\n}\n");

    let out =
        std::env::var("OHMFLOW_BENCH_OUT_PR9").unwrap_or_else(|_| "BENCH_PR9.json".to_owned());
    std::fs::write(&out, json).expect("write pr9 bench report");
    println!("wrote {out}");
}

/// PR 10 section: the structural-auditor overhead gate. The auto-audits
/// run under `cfg!(debug_assertions)` only, so a release warm solve must
/// cost exactly what it did before the seams landed. Two interleaved
/// groups of identical warm repeat-solves on rmat2048 measure the
/// seam-bearing path against itself; min-of-runs cancels scheduler noise
/// and the ratio is gated at 1.02x. The explicit release-mode audit
/// costs (what `ohmflow-audit` pays per structure) are reported
/// alongside for visibility — they are *not* part of the solve path.
fn pr10_report() {
    println!("--- PR10 structural-audit overhead ---");
    let mut entries: Vec<(String, f64)> = Vec::new();
    let mut push = |name: String, ns: f64| {
        println!("{name:<52} {ns:>14.0} ns/op");
        entries.push((name, ns));
    };

    let g = fig10_instance(2048, false, 1);
    let solver = MaxFlowSolver::new(SolveOptions::ideal());
    solver.solve(&g).expect("prime plan");

    // Interleaved A/B groups of the same warm repeat-solve: ABBA-order
    // sampling puts both groups under the same thermal/scheduler
    // conditions (and cancels monotone drift), and min-of-group is the
    // stable estimator for a gate.
    for _ in 0..3 {
        solver.solve(&g).expect("warmup solve");
    }
    let rounds = 12;
    let mut best = [f64::INFINITY; 2];
    for r in 0..2 * rounds {
        let t0 = std::time::Instant::now();
        solver.solve(&g).expect("warm solve");
        let ns = t0.elapsed().as_nanos() as f64;
        let group = (r + r / 2) % 2; // A B B A A B B A ...
        if ns < best[group] {
            best[group] = ns;
        }
    }
    let ratio = best[1] / best[0];
    push("rmat2048/warm_repeat_solve_group_a".to_owned(), best[0]);
    push("rmat2048/warm_repeat_solve_group_b".to_owned(), best[1]);
    println!("rmat2048 repeat-solve overhead ratio: {ratio:.4}x (gate: <= 1.02x)");
    assert!(
        ratio <= 1.02,
        "debug-audit seams must add no release cost: repeat-solve ratio {ratio:.4} > 1.02"
    );

    // Explicit release-mode audit costs (the `ohmflow-audit` bill).
    let plan = solver.plan(&g).expect("plan");
    let instance = plan.instance(&g).expect("instance");
    let t_plan = median_ns(5, || plan.audit().expect("plan audit"));
    let t_inst = median_ns(5, || instance.audit().expect("instance audit"));
    push("rmat2048/explicit_plan_audit".to_owned(), t_plan);
    push("rmat2048/explicit_instance_audit".to_owned(), t_inst);

    let mut json = String::from("{\n  \"schema\": \"ohmflow-bench-report-pr10/1\",\n");
    json.push_str("  \"ns_per_op\": {\n");
    for (i, (name, ns)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ns:.0}{comma}\n"));
    }
    json.push_str("  },\n  \"ratios\": {\n");
    json.push_str(&format!(
        "    \"audit_seam_repeat_solve_rmat2048\": {ratio:.4}\n"
    ));
    json.push_str("  }\n}\n");

    let out =
        std::env::var("OHMFLOW_BENCH_OUT_PR10").unwrap_or_else(|_| "BENCH_PR10.json".to_owned());
    std::fs::write(&out, json).expect("write pr10 bench report");
    println!("wrote {out}");
}

/// Merge every `BENCH_PR<N>.json` in the working directory into one
/// `BENCH_TRAJECTORY.json` keyed by PR ("PR2", "PR3", ...), so a single
/// CI artifact carries the whole perf trajectory. Each per-PR report is
/// already a JSON object; it is embedded verbatim (re-indented), so the
/// merge needs no JSON parser.
fn trajectory_report() {
    // Snapshot the baseline before this run's merge overwrites it: in CI
    // the previous run's `BENCH_TRAJECTORY.json` is restored to the path
    // named by `OHMFLOW_BENCH_BASELINE` and the regression gate below
    // compares this run's PR 9 guard metrics against it.
    let baseline_path = std::env::var("OHMFLOW_BENCH_BASELINE")
        .unwrap_or_else(|_| "BENCH_TRAJECTORY.json".to_owned());
    let baseline = std::fs::read_to_string(&baseline_path).ok();

    let mut reports: Vec<(u32, String)> = Vec::new();
    let dir = std::env::current_dir().expect("cwd");
    for entry in std::fs::read_dir(&dir).expect("read cwd") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(num) = name
            .strip_prefix("BENCH_PR")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|n| n.parse::<u32>().ok())
        else {
            continue;
        };
        let body = std::fs::read_to_string(entry.path()).expect("read bench report");
        reports.push((num, body));
    }
    if reports.is_empty() {
        println!("no BENCH_PR*.json found; skipping BENCH_TRAJECTORY.json");
        return;
    }
    reports.sort_by_key(|&(num, _)| num);

    let mut json = String::from("{\n  \"schema\": \"ohmflow-bench-trajectory/1\",\n");
    json.push_str("  \"reports\": {\n");
    for (i, (num, body)) in reports.iter().enumerate() {
        let comma = if i + 1 < reports.len() { "," } else { "" };
        json.push_str(&format!("    \"PR{num}\": "));
        let mut lines = body.trim_end().lines();
        if let Some(first) = lines.next() {
            json.push_str(first);
            json.push('\n');
        }
        for line in lines {
            json.push_str("    ");
            json.push_str(line);
            json.push('\n');
        }
        // The embedded object's closing brace is already indented; attach
        // the separator on its own to keep the output valid JSON.
        json.truncate(json.trim_end().len());
        json.push_str(comma);
        json.push('\n');
    }
    json.push_str("  }\n}\n");

    let out = std::env::var("OHMFLOW_BENCH_OUT_TRAJECTORY")
        .unwrap_or_else(|_| "BENCH_TRAJECTORY.json".to_owned());
    std::fs::write(&out, json).expect("write trajectory report");
    println!(
        "wrote {out} ({} reports: {})",
        reports.len(),
        reports
            .iter()
            .map(|(n, _)| format!("PR{n}"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // The PR 9 regression gate: every tier-1 guard metric (the
    // `speedups` of BENCH_PR9.json) must hold within 25% of the PR 9
    // section recorded in the baseline trajectory, or the trajectory
    // rebuild exits nonzero (after writing the new artifact, so CI still
    // uploads it for diagnosis). Runs only when both sides exist —
    // first runs and PR-9-less checkouts pass trivially.
    let current = reports
        .iter()
        .find(|&&(num, _)| num == 9)
        .map(|(_, body)| speedup_metrics(body, None));
    let recorded = baseline
        .as_deref()
        .map(|text| speedup_metrics(text, Some("\"PR9\"")));
    if let (Some(current), Some(recorded)) = (current, recorded) {
        let mut regressed = Vec::new();
        for (name, now) in &current {
            let Some((_, before)) = recorded.iter().find(|(k, _)| k == name) else {
                continue;
            };
            // Gate only metrics whose baseline records a real speedup.
            // Parity entries (the small_n ~1.0x comparison documents
            // "no slower", not a win) ride sub-millisecond timings whose
            // noise would flap a 25% band.
            if *before > 1.0 && *now < 0.75 * before {
                regressed.push(format!(
                    "{name}: {now:.3}x vs recorded {before:.3}x ({:.0}% regression)",
                    100.0 * (1.0 - now / before)
                ));
            }
        }
        if recorded.is_empty() {
            println!("baseline {baseline_path} carries no PR9 metrics; regression gate skipped");
        } else if regressed.is_empty() {
            println!(
                "PR9 regression gate: {} guard metrics within 25% of {baseline_path}",
                current.len()
            );
        } else {
            eprintln!("PR9 regression gate FAILED vs {baseline_path}:");
            for line in &regressed {
                eprintln!("  {line}");
            }
            std::process::exit(1);
        }
    } else {
        println!("no BENCH_PR9.json or no baseline trajectory; regression gate skipped");
    }
}

/// Extracts the `"name": value` pairs of the first `"speedups"` object
/// after `anchor` (or from the start of `text`) — enough of a JSON
/// reader for the regression gate, since every report is written by the
/// fixed-format emitters above (one `"key": number` pair per line).
fn speedup_metrics(text: &str, anchor: Option<&str>) -> Vec<(String, f64)> {
    let start = match anchor {
        Some(a) => match text.find(a) {
            Some(i) => i,
            None => return Vec::new(),
        },
        None => 0,
    };
    let Some(s) = text[start..].find("\"speedups\"") else {
        return Vec::new();
    };
    let tail = &text[start + s..];
    let Some(open) = tail.find('{') else {
        return Vec::new();
    };
    let Some(close) = tail[open..].find('}') else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in tail[open + 1..open + close].lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        let value = value.trim().trim_end_matches(',');
        if let Ok(v) = value.parse::<f64>() {
            out.push((key.to_owned(), v));
        }
    }
    out
}
