//! `ohmflow-audit` — end-to-end structural invariant audit driver.
//!
//! Builds plans for the benchmark substrates (the same instances
//! `bench_report` measures), instantiates and solves each one, then runs
//! every structural audit the workspace defines: the symbolic
//! elimination plan with its dense cores and the numeric value arrays
//! (`SparseLu::audit`), the plan-cache shards, and the delta-surgery
//! metadata — followed by a delta-session walk (capacity retunes,
//! removals, revivals, novel insertions) auditing after every batch.
//!
//! Exit status is the contract: `0` only if every audit passes. CI runs
//! this in release mode, where the `debug_assertions` auto-audits are
//! compiled out — this binary is the release-mode coverage of the same
//! invariants.
//!
//! Usage: `ohmflow-audit [--substrates all|NAME[,NAME...]] [--skip-delta]`
//! with substrate names `rmat1024`, `rmat2048`, `dimacs_grid40`.

use std::process::ExitCode;

use ohmflow::solver::{DeltaBatch, DeltaSession};
use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow_bench::{dimacs_grid_instance, fig10_instance};
use ohmflow_graph::FlowNetwork;

/// The audited substrates, mirroring `bench_report`'s workload table.
fn substrate(name: &str) -> Option<FlowNetwork> {
    match name {
        "rmat1024" => Some(fig10_instance(1024, false, 1)),
        "rmat2048" => Some(fig10_instance(2048, false, 1)),
        "dimacs_grid40" => Some(dimacs_grid_instance(40, 50, 7)),
        _ => None,
    }
}

const ALL: [&str; 3] = ["rmat1024", "rmat2048", "dimacs_grid40"];

/// Plans, instantiates and solves `g`, auditing at every stage.
fn audit_substrate(name: &str, g: &FlowNetwork) -> Result<(), String> {
    let solver = MaxFlowSolver::new(SolveOptions::ideal());
    let plan = solver
        .plan(g)
        .map_err(|e| format!("{name}: plan failed: {e}"))?;
    plan.audit()
        .map_err(|e| format!("{name}: plan audit: {e}"))?;

    let instance = plan
        .instance(g)
        .map_err(|e| format!("{name}: instantiation failed: {e}"))?;
    instance
        .audit()
        .map_err(|e| format!("{name}: instance audit: {e}"))?;

    // Solve and re-audit: the solve path refactors and warm-starts, so a
    // seam that corrupts values or dense cores shows up in the second pass.
    let solution = instance
        .solve()
        .map_err(|e| format!("{name}: solve failed: {e}"))?;
    instance
        .audit()
        .map_err(|e| format!("{name}: post-solve audit: {e}"))?;
    solver
        .audit_plan_cache()
        .map_err(|e| format!("{name}: plan-cache audit: {e}"))?;

    println!(
        "  {name}: ok ({} vertices, {} edges, flow {:.3})",
        g.vertex_count(),
        g.edge_count(),
        solution.value
    );
    Ok(())
}

/// One audited batch step of the delta walk.
fn step(session: &mut DeltaSession, what: &str, batch: DeltaBatch) -> Result<(), String> {
    session
        .apply_deltas(&batch)
        .map_err(|e| format!("delta walk: {what} failed: {e}"))?;
    session
        .audit()
        .map_err(|e| format!("delta walk: audit after {what}: {e}"))?;
    Ok(())
}

/// A delta-session walk over the dimacs grid: retune, remove, revive,
/// insert novel structure (forcing a re-key), auditing after every batch.
fn audit_delta_walk() -> Result<(), String> {
    let g = dimacs_grid_instance(40, 50, 7);
    let solver = MaxFlowSolver::new(SolveOptions::ideal());
    let mut session = solver
        .delta_session(&g)
        .map_err(|e| format!("delta walk: open failed: {e}"))?;
    session
        .audit()
        .map_err(|e| format!("delta walk: audit at open: {e}"))?;

    let m = session.edge_count();
    step(
        &mut session,
        "capacity retune",
        DeltaBatch::new()
            .set_capacity(0, 13)
            .set_capacity(m / 2, 29),
    )?;
    step(
        &mut session,
        "edge removal",
        DeltaBatch::new().remove_edge(m / 3).remove_edge(m / 5),
    )?;
    // Session edge ids start as the graph's edge order, so the removed
    // edge's endpoints come straight from the source graph; re-inserting
    // them revives the still-stamped widgets in place.
    let revived = &g.edges()[m / 3];
    step(
        &mut session,
        "in-place revival",
        DeltaBatch::new().insert_edge(revived.from, revived.to, 17),
    )?;
    // A brand-new endpoint pair forces a structural re-key against the
    // plan cache — the heaviest seam the walk can cross.
    let (nf, nt) = (1usize, g.vertex_count() - 2);
    step(
        &mut session,
        "novel insertion (re-key)",
        DeltaBatch::new().insert_edge(nf, nt, 21),
    )?;
    step(
        &mut session,
        "post-re-key retune",
        DeltaBatch::new().set_capacity(1, 7),
    )?;

    println!(
        "  delta walk: ok ({} session edges, {} live, flow {:.3})",
        session.edge_count(),
        session.live_edge_count(),
        session.flow_value()
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut names: Vec<String> = ALL.iter().map(|s| (*s).to_owned()).collect();
    let mut run_delta = true;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--substrates" => match args.next().as_deref() {
                Some("all") | None => {}
                Some(list) => names = list.split(',').map(str::to_owned).collect(),
            },
            "--skip-delta" => run_delta = false,
            other => {
                eprintln!("ohmflow-audit: unknown argument `{other}`");
                eprintln!("usage: ohmflow-audit [--substrates all|NAME[,NAME...]] [--skip-delta]");
                return ExitCode::FAILURE;
            }
        }
    }

    println!("ohmflow-audit: auditing {} substrates", names.len());
    let mut failures = 0u32;
    for name in &names {
        let result = match substrate(name) {
            Some(g) => audit_substrate(name, &g),
            None => Err(format!(
                "unknown substrate `{name}` (known: {})",
                ALL.join(", ")
            )),
        };
        if let Err(msg) = result {
            eprintln!("  FAIL {msg}");
            failures += 1;
        }
    }
    if run_delta {
        if let Err(msg) = audit_delta_walk() {
            eprintln!("  FAIL {msg}");
            failures += 1;
        }
    }

    if failures == 0 {
        println!("ohmflow-audit: all audits passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("ohmflow-audit: {failures} audit group(s) failed");
        ExitCode::FAILURE
    }
}
