//! Command-line entry point of the ohmflow benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload reprogram --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints one line per metric (name, value, unit, sample count), then a
//! JSON record of the run (cores, seed, commit, op counts), and as the last
//! line the result object `{"correct", "attempted", "failed", "metrics"}`.
//! A traced run also writes its spans to
//! `.bench_trace/<workload>-seed<seed>.jsonl`.

use std::path::Path;
use std::process::ExitCode;

use ohmflow_perfbench::{run, Config, Report, Scale, Workload};

const USAGE: &str =
    "usage: ohmflow-perfbench --workload <reprogram|cold_ingest|delta_stream|transient> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
        scale: Scale::Full,
    })
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without running git ("unknown" outside a git checkout).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let resolved = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_owned()),
        Some(r) => read(r).map(|s| s.trim().to_owned()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        }),
    });
    resolved.unwrap_or_else(|| "unknown".to_owned())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn print(cfg: &Config, report: &Report) {
    let kind = if cfg.trace { "per-layer" } else { "end-to-end" };
    for m in &report.metrics {
        println!(
            "{kind} {:<28} {:>18} {:<6} n={}",
            m.name,
            json_number(m.value),
            m.unit,
            m.samples
        );
    }
    println!(
        "ops attempted={} failed={} failed_frac={} skipped={}",
        report.attempted,
        report.failed,
        json_number(report.failed as f64 / report.attempted.max(1) as f64),
        report.skipped
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"record\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"passes\":{},\
         \"cores\":{cores},\"commit\":\"{}\",\"ops\":{},\"failed\":{},\"skipped\":{}}}}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.passes(),
        commit(),
        report.attempted,
        report.failed,
        report.skipped
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{} set-up failed: {msg}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for e in &report.errors {
        eprintln!("failed op: {e}");
    }
    if cfg.trace {
        let path = format!(
            ".bench_trace/{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        );
        if let Err(e) = ohmflow_perfbench::trace::write_jsonl(&report.spans, Path::new(&path)) {
            eprintln!("writing {path}: {e}");
        }
    }
    print(&cfg, &report);
    ExitCode::SUCCESS
}
