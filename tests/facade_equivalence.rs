//! Solver self-consistency: the staged `MaxFlowSolver` / `DcSolver`
//! API is the one public solve surface (the deprecated shims it
//! replaced were pinned equivalent here at 1e-12 and then deleted), so
//! this suite pins its own paths against each other at the
//! same tolerance: convenience `solve` vs the explicit
//! plan → instance → solve stages vs the cache-bypassing cold path,
//! batch `solve_many` vs sequential solves, and plan-derived sessions vs
//! cold sessions. Also audits option precedence: a plan built under
//! AMD+BTF can never silently fall back to a differently-ordered fresh
//! factorization.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ohmflow::{MaxFlowSolver, Problem, SolveOptions};
use ohmflow_circuit::{DcSolver, LuOptions};
use ohmflow_graph::{generators, FlowNetwork};

/// A random small flow network with a guaranteed source→sink spine plus
/// random chords (same family as the template-agreement suite).
fn random_graph(rng: &mut StdRng) -> FlowNetwork {
    let n = rng.gen_range(4..9);
    let mut g = FlowNetwork::new(n, 0, n - 1).expect("endpoints");
    for v in 0..n - 1 {
        g.add_edge(v, v + 1, rng.gen_range(1..=20)).expect("spine");
    }
    for _ in 0..rng.gen_range(0..2 * n) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            let _ = g.add_edge(a, b, rng.gen_range(1..=20));
        }
    }
    g
}

fn assert_solutions_match(a: &ohmflow::AnalogSolution, b: &ohmflow::AnalogSolution, label: &str) {
    let tol = |r: f64| 1e-12 * r.abs().max(1.0);
    assert!(
        (a.value - b.value).abs() < tol(b.value),
        "{label}: value {} vs {}",
        a.value,
        b.value
    );
    for (e, (x, y)) in a.edge_flows.iter().zip(&b.edge_flows).enumerate() {
        assert!((x - y).abs() < tol(*y), "{label}: edge {e} flow {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The three single-instance paths agree: cache-bypassing
    /// `solve_fresh`, plan-cached `solve` (repeated, so the second round
    /// rides a warm plan) and the explicit plan → instance → solve
    /// stages.
    #[test]
    fn solve_paths_agree(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        let fresh = solver.solve_fresh(&g).expect("solve_fresh");
        for round in 0..3 {
            let cached = solver.solve(&g).expect("facade solve");
            assert_solutions_match(&cached, &fresh, &format!("solve round {round}"));
        }
        let plan = solver.plan(&g).expect("plan");
        prop_assert!(plan.cache_hit(), "the solve rounds must have planned this topology");
        let staged = plan.instance(&g).expect("instance").solve().expect("staged solve");
        assert_solutions_match(&staged, &fresh, "staged");
    }

    /// `MaxFlowSolver::solve_many` vs sequential `solve` on a mixed batch
    /// (repeated topology + a singleton) — the parallel batch fan-out
    /// must be value-identical to one-at-a-time solving.
    #[test]
    fn solve_many_matches_sequential_solve(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = random_graph(&mut rng);
        let mut graphs: Vec<FlowNetwork> = (1..=3)
            .map(|s| base.scaled_capacities(s).expect("scaled"))
            .collect();
        graphs.push(random_graph(&mut rng));
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        let batch = solver.solve_many(graphs.iter().map(Problem::from));
        prop_assert_eq!(batch.len(), graphs.len());
        let sequential_solver = MaxFlowSolver::new(SolveOptions::ideal());
        for (i, (b, g)) in batch.iter().zip(&graphs).enumerate() {
            let b = b.as_ref().expect("batch member");
            let s = sequential_solver.solve(g).expect("sequential member");
            assert_solutions_match(b, &s, &format!("batch member {i}"));
        }
    }

    /// Frozen-DC flip loop: a plan-derived `DcSolver::session` vs a cold
    /// `DcSolver::session` on the same circuit, over a deterministic
    /// pseudo-random clamp-toggle walk. The two paths factor the same
    /// matrix with genuinely different pivot sequences (numeric refactor
    /// against the plan's symbolic pattern vs a fresh pivoting
    /// factorization), so the gate is the iterative-refinement accuracy
    /// bound (1e-9), not bitwise path identity.
    #[test]
    fn plan_sessions_match_cold_sessions(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        let plan = solver.plan(&g).expect("plan");
        let instance = plan.instance(&g).expect("instance");
        let ckt = instance.substrate().circuit();
        let n_diodes = ckt.diode_count();
        assert!(n_diodes > 0, "substrate always carries clamp diodes");

        let mut cold = DcSolver::new().session(ckt).expect("cold session");
        let mut planned = DcSolver::new()
            .with_template(Arc::clone(plan.template().dc_template()))
            .session(ckt)
            .expect("plan session");
        prop_assert!(planned.report().templated, "plan session must ride the plan");

        let mut on = vec![false; n_diodes];
        let mut lcg = seed | 1;
        for step in 0..40 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let flip = (lcg >> 33) as usize % (n_diodes + 1);
            if flip < n_diodes {
                on[flip] = !on[flip];
            }
            let t = step as f64 * 1e-9;
            // Some random clamp configurations are legitimately singular;
            // both paths must then agree on failing.
            let r_cold = cold.solve(t, &on);
            let r_plan = planned.solve(t, &on);
            prop_assert_eq!(r_cold.is_ok(), r_plan.is_ok(), "step {}", step);
            if r_cold.is_ok() && r_plan.is_ok() {
                for (u, (a, b)) in planned.values().iter().zip(cold.values()).enumerate() {
                    prop_assert!(
                        (a - b).abs() < 1e-9 * b.abs().max(1.0),
                        "step {step} unknown {u}: {a} vs {b}"
                    );
                }
            }
        }
    }
}

/// Transient consistency on the paper's Fig. 5a: the plan-cached solve
/// must agree with the cache-bypassing cold solve in transient mode, and
/// the built-batch fan-out (`solve_many(Built…)`, shared symbolic plan)
/// must agree with singleton `solve_problem(Built…)` calls.
#[test]
fn transient_paths_are_self_consistent() {
    let g = generators::fig5a();
    let mut opts = SolveOptions::evaluation(10e9);
    opts.build.capacity_mapping = ohmflow::builder::CapacityMapping::Exact;
    let solver = MaxFlowSolver::new(opts.clone());

    let cached = solver.solve(&g).expect("cached transient");
    let fresh = solver.solve_fresh(&g).expect("fresh transient");
    assert!((cached.value - fresh.value).abs() < 1e-12 * fresh.value.abs().max(1.0));
    let (tc, tf) = (
        cached.convergence_time.expect("cached settles"),
        fresh.convergence_time.expect("fresh settles"),
    );
    assert!(((tc - tf) / tf).abs() < 1e-12, "settle {tc} vs {tf}");

    // Built-batch: `solve_many(Built…)` (shared symbolic plan) vs
    // member-at-a-time `solve_problem(Built…)` (independent cold paths).
    let build = ohmflow::builder::BuildOptions {
        drive: ohmflow::builder::Drive::Step,
        ..ohmflow::builder::BuildOptions::ideal()
    };
    let scs: Vec<_> = (0..3)
        .map(|_| ohmflow::builder::build(&g, &opts.params, &build).expect("build"))
        .collect();
    let singles: Vec<_> = scs
        .iter()
        .map(|sc| {
            solver
                .solve_problem(Problem::Built {
                    circuit: sc,
                    graph: &g,
                })
                .expect("single built")
        })
        .collect();
    let batch = solver.solve_many(scs.iter().map(|sc| Problem::Built {
        circuit: sc,
        graph: &g,
    }));
    for (i, (s, b)) in singles.iter().zip(&batch).enumerate() {
        let b = b.as_ref().expect("batch built");
        assert!(
            (s.value - b.value).abs() < 1e-12 * s.value.abs().max(1.0),
            "built member {i}: {} vs {}",
            b.value,
            s.value
        );
    }
}

/// Circuit-level consistency: `DcSolver::solve` (cold path inline) vs a
/// planned `DcSolver` solve (template fast path) on the substrate circuit
/// of a real instance.
#[test]
fn dc_plan_solve_matches_cold_solve() {
    let g = generators::fig15a(40);
    let solver = MaxFlowSolver::new(SolveOptions::ideal());
    let instance = solver
        .plan(&g)
        .expect("plan")
        .instance(&g)
        .expect("instance");
    let ckt = instance.substrate().circuit();
    let (cold, report) = DcSolver::new().solve(ckt).expect("cold dc");
    assert!(report.iterations >= 1);
    let dc_plan = DcSolver::new().plan(ckt).expect("dc plan");
    let (planned, preport) = dc_plan.solve(ckt).expect("planned dc");
    assert!(preport.templated, "matching plan must ride the template");
    for (u, (a, b)) in planned.values().iter().zip(cold.values()).enumerate() {
        assert!(
            (a - b).abs() < 1e-12 * b.abs().max(1.0),
            "unknown {u}: {a} vs {b}"
        );
    }
}

/// Option-precedence audit: a plan's factorization options reach its
/// symbolic work, and a plan can never silently fall back to a
/// differently-configured or single-block fresh factorization — neither
/// in the solver's plans, nor in sessions, nor in the cold fallback path
/// of a mismatched plan (extending the PR 4 "templates remember their
/// options" guarantee to the solver).
#[test]
fn amd_btf_plan_never_falls_back_to_another_ordering() {
    let g = generators::fig15a(40);

    let mut opts = SolveOptions::ideal();
    // The options must reach the plan's symbolic work: strict partial
    // pivoting is observable through `Plan::lu_options`.
    opts.lu.pivot_threshold = 1.0;
    let solver = MaxFlowSolver::new(opts);
    let plan = solver.plan(&g).expect("plan");
    assert_eq!(
        plan.lu_options().pivot_threshold,
        1.0,
        "pivoting thresholds must flow into the plan's factorization"
    );
    let report = plan.report();
    assert!(
        report.block_count > 1,
        "AMD+BTF on fig15a(40) must decompose into blocks, got {}",
        report.block_count
    );

    // Sessions derived from the plan inherit its ordering.
    let instance = plan.instance(&g).expect("instance");
    let session = DcSolver::new()
        .with_template(Arc::clone(plan.template().dc_template()))
        .session(instance.substrate().circuit())
        .expect("session");
    let sreport = session.report();
    assert!(sreport.templated, "plan-derived session must ride the plan");
    assert_eq!(sreport.block_count, report.block_count);

    // Circuit-level: a planned DcSolver whose template does NOT match the solved
    // circuit falls back to a fresh factorization — which must still run
    // under the plan's own options and the AMD+BTF ordering.
    let ckt = instance.substrate().circuit();
    // A genuinely different structure (fig15a only varies capacities on
    // the same diamond, so a layered graph is used for the mismatch).
    let g_other = generators::layered(3, 2, 5, 1).expect("layered");
    let other = solver
        .plan(&g_other)
        .expect("plan other")
        .instance(&g_other)
        .expect("instance other");
    let dc_plan = DcSolver::new()
        .lu_options(LuOptions {
            pivot_threshold: 1.0,
        })
        .plan(ckt)
        .expect("dc plan");
    let dc_template = dc_plan
        .template()
        .expect("planned solver carries a template");
    assert_eq!(dc_template.lu_options().pivot_threshold, 1.0);
    let mismatched = other.substrate().circuit();
    assert!(!dc_template.matches(mismatched));
    let (_, fallback) = dc_plan.solve(mismatched).expect("fallback solve");
    assert!(!fallback.templated, "mismatch must fall back cold");
    assert!(
        fallback.block_count > 1,
        "cold fallback kept the plan's AMD+BTF ordering (blocks {})",
        fallback.block_count
    );
    let fb_session = dc_plan.session(mismatched).expect("fallback session");
    let fb_report = fb_session.report();
    assert!(!fb_report.templated);
    assert!(
        fb_report.block_count > 1,
        "fallback session kept the plan's AMD+BTF ordering (blocks {})",
        fb_report.block_count
    );
}

#[test]
fn plan_report_splits_the_cold_path_only_when_timed() {
    let g = generators::fig15a(40);
    let untimed = MaxFlowSolver::new(SolveOptions::ideal())
        .plan(&g)
        .expect("plan");
    assert_eq!(untimed.report().phases, None);
    let timed = MaxFlowSolver::new(SolveOptions::ideal().with_phase_timing(true))
        .plan(&g)
        .expect("timed plan");
    let phases = timed
        .report()
        .phases
        .expect("timed plan reports its cold path");
    assert!(phases.ordering_ns > 0 && phases.factor_ns > 0, "{phases:?}");
    // Timing changes no numbers.
    assert_eq!(timed.report().factor_nnz, untimed.report().factor_nnz);
}
