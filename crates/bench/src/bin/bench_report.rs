//! Machine-readable perf snapshot for CI: writes `BENCH_PR9.json` (the
//! graph-delta fast path: k=8 mixed delta batches through a standing
//! `DeltaSession` vs cold plan+solve, the rank-k batched Woodbury push vs
//! k sequential rank-1 pushes, and the k=8 multi-RHS blocked triangular
//! solve vs eight singles) and `BENCH_PR10.json` (the structural-audit
//! overhead gate: release warm repeat-solves on rmat2048 measured against
//! themselves to pin the debug-only auto-audit seams at <= 1.02x, plus
//! the explicit release-mode audit costs `ohmflow-audit` pays). A final
//! pass merges every `BENCH_PR*.json` in the working directory into
//! `BENCH_TRAJECTORY.json` keyed by PR number, so the committed reports
//! no section writes any more (`BENCH_PR2.json`…`BENCH_PR8.json`) stay
//! in the trajectory as history.
//!
//! Run with: `cargo run --release -p ohmflow-bench --bin bench_report`
//! (`OHMFLOW_BENCH_OUT_PR9` / `OHMFLOW_BENCH_OUT_PR10` override the
//! output paths). `bench_report trajectory` skips the benchmarks,
//! rebuilds `BENCH_TRAJECTORY.json` from the report files already on
//! disk, and runs the PR 9 regression gate: if a baseline trajectory (the
//! path in `OHMFLOW_BENCH_BASELINE`, default the trajectory file itself
//! as left by a previous run) records PR 9 guard metrics and any of this
//! run's has regressed by more than 25%, the rebuild exits nonzero.
//! `bench_report pr9` / `pr10` run just that section and re-merge.

use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow_bench::{bench_substrate, diode_unknown_pairs, fig10_instance, median_ns};
use ohmflow_circuit::DcSolver;
use ohmflow_linalg::{amd_ordering, BlockOrdering, SparseLu, SparseLuOptions};

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("trajectory") => {}
        // The PR 9 section standalone (delta-session iteration loop).
        Some("pr9") => pr9_report(),
        // The PR 10 section standalone (audit-overhead gate).
        Some("pr10") => pr10_report(),
        _ => {
            pr9_report();
            pr10_report();
        }
    }
    trajectory_report();
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
///   solves on the same factor.
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
        // Woodbury fast path.
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
