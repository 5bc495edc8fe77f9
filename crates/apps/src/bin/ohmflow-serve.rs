//! `ohmflow-serve` — the analog max-flow substrate as a network service.
//!
//! ```text
//! ohmflow-serve [--addr HOST:PORT] [--workers N] [--cache-mb MB]
//! ```
//!
//! Accepts length-prefixed solve requests (DIMACS text or `OFG1` binary
//! graphs) over TCP and answers with the flow value, per-edge flows and
//! solver telemetry; see `ohmflow_apps::serve` for the wire protocol.
//! Every request is solved through the plan cache, which all workers
//! share, so repeat topologies across tenants pay the symbolic cold path
//! once.

use ohmflow::SolveOptions;
use ohmflow_apps::serve::{spawn, ServeConfig};

fn usage() -> ! {
    eprintln!("usage: ohmflow-serve [--addr HOST:PORT] [--workers N] [--cache-mb MB]");
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut config = ServeConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => addr = value("HOST:PORT"),
            "--workers" => match value("count").parse() {
                Ok(n) if n > 0 => config.workers = n,
                _ => usage(),
            },
            "--cache-mb" => match value("megabyte count").parse::<usize>() {
                Ok(mb) if mb > 0 => {
                    config.options = SolveOptions::ideal().with_plan_cache_bytes(mb << 20);
                }
                _ => usage(),
            },
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let workers = config.workers;
    match spawn(&addr, config) {
        Ok(handle) => {
            println!(
                "ohmflow-serve listening on {} ({workers} workers)",
                handle.addr()
            );
            // Serve for the life of the process: park the main thread
            // (the acceptor and workers own the actual work).
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("failed to bind {addr}: {e}");
            std::process::exit(1);
        }
    }
}
