//! `cold_ingest`: every op is a topology the server has never seen. An
//! in-process `ohmflow-serve` server on loopback runs one worker per core
//! under `SolveOptions::ideal()`, and one closed-loop client connection per
//! core sends the requests:
//!
//! * DIMACS text: grids of side 12–16, layered graphs, bipartite graphs;
//! * `OFG1` binary: R-MAT graphs of 128–256 vertices.
//!
//! As in `reprogram`, a few percent of cold solves cycle in the state
//! iteration at 100–300× the cost of a normal op, so the graphs form a
//! fixed corpus drawn once from [`CORPUS_SEED`] (none filtered or
//! re-drawn) and `--seed` sets the order in which the clients send them.
//! Each pass sends the corpus to a server of its own.
//!
//! A traced op is replayed in-process after its answer arrives: parse,
//! plan on a cold cache, instantiate, solve; then a plan-cache hit, a
//! substrate build and the linear-algebra probe on the same graph.

use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ohmflow::builder;
use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow_apps::serve::{self, ServeConfig, SolveResponse, TAG_BINARY, TAG_DIMACS};
use ohmflow_bench::fig10_instance;
use ohmflow_graph::{binfmt, dimacs, generators, FlowNetwork};

use crate::common::{
    self, err, exact_flow, pass_set_up, probe_linalg, state_iter_budget, traced_op, Iters,
};
use crate::rng::Rng;
use crate::trace::{self, Span, Tracer};
use crate::{stats, Config, Layers, OpLog, Outcome, Scale};

/// Seed of the graph corpus: the first one whose graphs all solve (about
/// 1.5% of graphs drawn this way make the cold path report a singular
/// MNA system).
const CORPUS_SEED: u64 = 9;
/// Op runs per nominal second.
const OPS_PER_S: f64 = 7.0;
/// Plan-cache capacity of the server and of the replay solver, small
/// enough that a stream of new topologies evicts.
const PLAN_CACHE_BYTES: usize = 8 << 20;

/// One request of the corpus.
struct Request {
    tag: u8,
    payload: Vec<u8>,
    exact: i64,
    budget: usize,
}

/// Graph `j` of the corpus: the families take turns.
fn corpus_graph(scale: Scale, j: u64) -> (u8, FlowNetwork) {
    let mut rng = Rng::keyed(CORPUS_SEED, j);
    let tiny = scale == Scale::Tiny;
    let mut pick = |full: (u64, u64), small: (u64, u64)| {
        let (lo, hi) = if tiny { small } else { full };
        rng.range(lo, hi) as usize
    };
    let (tag, g) = match j % 4 {
        0 => {
            let side = pick((12, 16), (3, 5));
            (TAG_DIMACS, generators::grid(side, side, 100, j))
        }
        1 => {
            let (layers, width) = (pick((4, 8), (2, 3)), pick((4, 8), (2, 3)));
            (TAG_DIMACS, generators::layered(layers, width, 100, j))
        }
        2 => {
            let (left, right) = (pick((32, 96), (4, 8)), pick((32, 96), (4, 8)));
            (TAG_DIMACS, generators::bipartite(left, right, 3, j))
        }
        _ => {
            let vertices = pick((128, 256), (16, 32));
            (TAG_BINARY, Ok(fig10_instance(vertices, false, j)))
        }
    };
    let mut g = g.expect("invariant: corpus shapes are non-degenerate");
    if j % 4 < 2 {
        // A grid's or a layered graph's topology is fixed by its shape; two
        // random extra edges make every request a topology of its own.
        let n = g.vertex_count();
        for _ in 0..2 {
            let (u, v) = (rng.index(n), rng.index(n));
            if u != v {
                g.add_edge(u, v, rng.range(1, 100) as i64)
                    .expect("invariant: endpoints are in range");
            }
        }
    }
    (tag, g)
}

fn encode(tag: u8, g: &FlowNetwork) -> Vec<u8> {
    if tag == TAG_BINARY {
        binfmt::write_binary(g)
    } else {
        dimacs::write(g).into_bytes()
    }
}

fn parse(tag: u8, payload: &[u8]) -> Result<FlowNetwork, String> {
    if tag == TAG_BINARY {
        binfmt::parse_binary(payload).map_err(err)
    } else {
        dimacs::parse(std::str::from_utf8(payload).map_err(err)?).map_err(err)
    }
}

/// One answered op as a client saw it.
struct Answer {
    op: usize,
    latency_ns: u64,
    traced: bool,
    response: Result<SolveResponse, String>,
}

/// What one client thread measured.
#[derive(Default)]
struct ClientLog {
    answers: Vec<Answer>,
    spans: Vec<Span>,
    shapes: Vec<(usize, usize)>,
    /// Plan-cache hits the lookup probe itself caused.
    probe_hits: u64,
}

/// The shared inputs of the client threads.
struct Shared<'a> {
    cfg: &'a Config,
    corpus: &'a [Request],
    order: &'a [usize],
    next: &'a AtomicUsize,
    epoch: Instant,
    replay: &'a MaxFlowSolver,
}

/// One request over the wire, with encode, round trip and decode in
/// spans of their own.
fn send(stream: &mut TcpStream, req: &Request, tr: &mut Tracer) -> Result<SolveResponse, String> {
    let frame = tr.time("serve.encode", || {
        serve::encode_request(req.tag, &req.payload)
    });
    let reply = tr.time("serve.round_trip", || {
        serve::write_frame(stream, &frame)?;
        serve::read_frame(stream)
    });
    match reply {
        Ok(Some(payload)) => tr.time("serve.decode", || serve::decode_response(&payload)),
        Ok(None) => Err("server closed the connection".to_owned()),
        Err(e) => Err(e.to_string()),
    }
}

/// The in-process replay of a traced op, then the per-layer probes on the
/// same graph.
fn replay(
    req: &Request,
    sh: &Shared<'_>,
    tr: &mut Tracer,
    log: &mut ClientLog,
) -> Result<(), String> {
    let open = tr.enter("serve.replay");
    let replayed = (|| {
        let g = tr.time("graph.parse", || parse(req.tag, &req.payload))?;
        let plan = tr.time("replay.plan", || sh.replay.plan(&g)).map_err(err)?;
        let instance = tr
            .time("template.instantiate", || plan.instance(&g))
            .map_err(err)?;
        tr.time("solver.solve", || instance.solve()).map_err(err)?;
        Ok::<_, String>((g, plan))
    })();
    tr.exit(open);
    let (g, plan) = replayed?;
    // Under the small cache budget the probe can miss: another client's
    // replay may have evicted the plan in between.
    let probe = tr
        .time("plan_cache.lookup", || sh.replay.plan(&g))
        .map_err(err)?;
    log.probe_hits += u64::from(probe.cache_hit());
    let opts = sh.replay.options();
    let sc = tr
        .time("builder.build", || {
            builder::build(&g, &opts.params, plan.template().build_options())
        })
        .map_err(err)?;
    log.shapes.push(probe_linalg(tr, sc.circuit(), &opts.lu)?);
    Ok(())
}

fn client(mut stream: TcpStream, sh: &Shared<'_>) -> ClientLog {
    let mut tr = Tracer::new(sh.epoch);
    let mut log = ClientLog::default();
    loop {
        let i = sh.next.fetch_add(1, Ordering::Relaxed);
        if i >= sh.order.len() || sh.epoch.elapsed() > sh.cfg.give_up_after() {
            break;
        }
        let req = &sh.corpus[sh.order[i]];
        let traced = traced_op(sh.cfg, i, 1);
        tr.begin_op(i as u64, traced);
        let t0 = Instant::now();
        let root = tr.enter(trace::OP);
        let response = send(&mut stream, req, &mut tr);
        tr.exit(root);
        let latency_ns = t0.elapsed().as_nanos() as u64;
        if traced && response.is_ok() {
            // A failed replay only loses this op's layer samples.
            let _ = replay(req, sh, &mut tr, &mut log);
        }
        log.answers.push(Answer {
            op: i,
            latency_ns,
            traced,
            response,
        });
    }
    log.spans = tr.into_spans();
    log
}

/// A server with one connected, warmed-up client per core.
fn set_up(
    opts: &SolveOptions,
    cores: usize,
    warm: &[u8],
) -> Result<(serve::ServerHandle, Vec<TcpStream>), String> {
    let server = serve::spawn(
        "127.0.0.1:0",
        ServeConfig {
            workers: cores,
            options: opts.clone(),
        },
    )
    .map_err(err)?;
    let mut clients = Vec::with_capacity(cores);
    for _ in 0..cores {
        let mut stream = TcpStream::connect(server.addr()).map_err(err)?;
        stream.set_nodelay(true).map_err(err)?;
        serve::request(&mut stream, TAG_BINARY, warm)?;
        clients.push(stream);
    }
    Ok((server, clients))
}

pub(crate) fn run(cfg: &Config) -> Result<Outcome, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = SolveOptions::ideal().with_plan_cache_bytes(PLAN_CACHE_BYTES);
    let n = cfg.ops(OPS_PER_S);
    let corpus: Vec<Request> = (0..n as u64)
        .map(|j| {
            let (tag, g) = corpus_graph(cfg.scale, j);
            let budget = builder::build(&g, &opts.params, &opts.build)
                .map(|sc| state_iter_budget(sc.circuit()))
                .map_err(err)?;
            Ok(Request {
                tag,
                payload: encode(tag, &g),
                exact: exact_flow(&g),
                budget,
            })
        })
        .collect::<Result<_, String>>()?;
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(cfg.seed).shuffle(&mut order);
    let warm =
        binfmt::write_binary(&generators::grid(8, 8, 100, 1).expect("invariant: grid side > 0"));

    let mut setup_s = Vec::new();
    let replay_solver = MaxFlowSolver::new(opts.clone());
    let epoch = Instant::now();
    let mut logs = Vec::new();
    for _ in 0..cfg.passes() {
        // Every pass meets a server of its own, so that every request of
        // every pass misses the plan cache.
        let (server, clients) = pass_set_up(
            cfg,
            &mut setup_s,
            || set_up(&opts, cores, &warm),
            |(server, clients)| {
                drop(clients);
                server.shutdown();
            },
        )?;
        let next = AtomicUsize::new(0);
        let shared = Shared {
            cfg,
            corpus: &corpus,
            order: &order,
            next: &next,
            epoch,
            replay: &replay_solver,
        };
        logs.extend(std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .map(|stream| {
                    let shared = &shared;
                    s.spawn(move || client(stream, shared))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("invariant: client threads do not panic"))
                .collect::<Vec<ClientLog>>()
        }));
        server.shutdown();
    }

    let mut answers: Vec<Answer> = Vec::new();
    let (mut span_parts, mut shapes, mut probe_hits) = (Vec::new(), Vec::new(), 0);
    for l in logs {
        answers.extend(l.answers);
        span_parts.push(l.spans);
        shapes.extend(l.shapes);
        probe_hits += l.probe_hits;
    }
    answers.sort_by_key(|a| a.op);
    let spans = trace::merge(span_parts);

    let (mut log, mut iters) = (OpLog::default(), Iters::default());
    for a in &answers {
        let req = &corpus[order[a.op]];
        if let Ok(r) = &a.response {
            iters.record(a.op as u64, r.iterations as usize, Some(req.budget), 0);
        }
        let value = a.response.as_ref().map(|r| r.value).map_err(Clone::clone);
        log.record(a.op, a.latency_ns, a.traced, value, req.exact);
    }

    let mut layers = Layers::default();
    common::span_medians(
        &spans,
        &mut layers,
        &[
            ("graph.parse", "graph.parse_ns"),
            ("plan_cache.lookup", "plan_cache.lookup_ns"),
            ("template.instantiate", "template.instantiate_ns"),
            ("builder.build", "builder.build_ns"),
            ("solver.solve", "solver.solve_ns"),
            ("linalg.factor", "linalg.factor_ns"),
            ("linalg.refactor", "linalg.refactor_ns"),
            ("linalg.solve", "linalg.solve_ns"),
        ],
    );
    common::circuit_self_ns(&spans, &iters, &mut layers);
    common::factor_shape(&mut layers, &shapes);
    iters.report(&mut layers);
    let per_op = trace::per_op(&spans);
    let empty = Default::default();
    let of = |name: &str| per_op.get(name).unwrap_or(&empty);
    let (ops, replays, encode, decode) = (
        of(trace::OP),
        of("serve.replay"),
        of("serve.encode"),
        of("serve.decode"),
    );
    let overhead: Vec<f64> = replays
        .iter()
        .filter_map(|(op, r)| Some(ops.get(op)? - r))
        .collect();
    layers.set(
        "serve.overhead_ns",
        stats::median(&overhead),
        overhead.len(),
    );
    let codec: Vec<f64> = encode
        .iter()
        .filter_map(|(op, e)| Some(e + decode.get(op)?))
        .collect();
    layers.set("serve.codec_ns", stats::median(&codec), codec.len());
    let mut cache = replay_solver.engine().plan_cache_stats();
    cache.hits -= probe_hits;
    common::plan_cache_layers(&mut layers, Default::default(), cache);
    Ok(Outcome {
        setup_s,
        callers: cores,
        skipped: n * cfg.passes() - log.attempted(),
        log,
        layers,
        spans,
    })
}
