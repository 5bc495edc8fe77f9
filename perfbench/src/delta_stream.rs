//! `delta_stream`: a graph edited in place through `DeltaSession`s
//! (`SolveOptions::ideal()`, one caller). The workload is a fixed corpus of
//! episodes on one rmat256 topology: episode `j` opens a session on the
//! topology with capacity vector `j` (outside the timed ops), then applies
//! [`EPISODE_BATCHES`] batches in the pattern cut, slack, cut:
//!
//! * a *cut* batch raises the capacity of up to [`RAISES`] edges the
//!   session currently saturates, removes [`REMOVALS`] saturated edges, and
//!   revives the previous cut batch's removals (k = 8–10);
//! * a *slack* batch re-draws the capacity of [`SLACK_EDITS`] edges that
//!   carry less than half their capacity, never below twice their flow.
//!
//! Cut batches move the minimum cut and cost ~10 ms; slack batches leave it
//! alone and cost 0.15–0.5 ms, in two modes, and their times swing by a
//! third between runs. With two cut batches in three, the latency median
//! and 90th percentile both sit among cut batches (their 25th and 85th
//! percentiles); slack batches show in throughput and in
//! `delta.slack.apply_ns`.
//!
//! Edits are drawn from the episode's own stream and the flows its session
//! reports, so an episode is the same whatever runs before it; `--seed`
//! sets the order of the episodes. Each pass opens its sessions on a solver
//! of its own. A few percent of batches cycle in the state iteration, and a
//! cycling session keeps cycling on the slack batches after it until a cut
//! batch moves it (about 4 s per batch on rmat256, budget 8184). On rmat1024 (budget 32672) one such batch costs
//! minutes, which no bounded run can hold, hence rmat256.

use std::time::Instant;

use ohmflow::{DeltaBatch, DeltaReport, DeltaSession, MaxFlowSolver, SolveOptions};
use ohmflow_bench::fig10_instance;
use ohmflow_circuit::{FrozenDcPhases, FrozenDcStats};
use ohmflow_graph::FlowNetwork;

use crate::common::{
    self, err, exact_flow, pass_set_up, probe_linalg, recapacitate, state_iter_budget, traced_op,
    Iters, MAX_CAPACITY,
};
use crate::rng::Rng;
use crate::trace::{self, Tracer};
use crate::{stats, Config, Layers, OpLog, Outcome, Scale};

/// Seed of the fixed rmat topology.
const TOPOLOGY_SEED: u64 = 1;
/// Seed of the episode corpus.
const CORPUS_SEED: u64 = 0x5EED_0003;
/// Saturated edges whose capacity a cut batch raises.
const RAISES: usize = 6;
/// Saturated edges a cut batch removes (and the next cut batch revives).
const REMOVALS: usize = 2;
/// Capacity edits in one slack batch.
const SLACK_EDITS: usize = 8;
/// Batch kinds, repeated.
const PATTERN: [Kind; 3] = [Kind::Cut, Kind::Slack, Kind::Cut];
/// Batches per episode.
const EPISODE_BATCHES: usize = 30;
/// Episodes per nominal second.
const EPISODES_PER_S: f64 = 0.5;
/// Linear-algebra probes of the traced run, on the topology.
const LINALG_PROBES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cut,
    Slack,
}

/// The benchmark's view of the session's graph, in session edge ids.
struct Stream {
    rng: Rng,
    ends: Vec<(usize, usize)>,
    caps: Vec<i64>,
    live: Vec<bool>,
    flows: Vec<f64>,
    /// The last cut batch's removals, revived by the next cut batch.
    removed: Vec<usize>,
    /// The edges the last batch revived, in insertion order.
    revived: Vec<usize>,
}

impl Stream {
    fn new(g: &FlowNetwork, seed: u64, flows: Vec<f64>) -> Self {
        Stream {
            rng: Rng::new(seed),
            ends: g.edges().iter().map(|e| (e.from, e.to)).collect(),
            caps: g.edges().iter().map(|e| e.capacity).collect(),
            live: vec![true; g.edge_count()],
            flows,
            removed: Vec::new(),
            revived: Vec::new(),
        }
    }

    /// Takes in the session's answer to the last batch: its flows, and the
    /// ids it gave the revived edges (a new id when the session had
    /// compacted the removed edge away).
    fn absorb(&mut self, report: &DeltaReport) {
        for (&old, &new) in self.revived.iter().zip(&report.new_edge_ids) {
            if new != old {
                if new >= self.caps.len() {
                    self.ends.resize(new + 1, self.ends[old]);
                    self.caps.resize(new + 1, self.caps[old]);
                    self.live.resize(new + 1, false);
                }
                self.ends[new] = self.ends[old];
                self.caps[new] = self.caps[old];
                self.live[new] = true;
                self.live[old] = false;
            }
        }
        self.flows.clone_from(&report.edge_flows);
        self.flows.resize(self.caps.len(), 0.0);
    }

    /// Live edges matching `keep`, in random order.
    fn pick(&mut self, keep: impl Fn(f64, i64) -> bool) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.caps.len())
            .filter(|&e| self.live[e] && keep(self.flows[e], self.caps[e]))
            .collect();
        self.rng.shuffle(&mut ids);
        ids
    }

    /// The next batch of `kind`, applied to the benchmark's view.
    fn next(&mut self, kind: Kind) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        self.revived.clear();
        match kind {
            Kind::Cut => {
                let saturated = self.pick(|f, c| f >= 0.999 * c as f64);
                let (remove, rest) = saturated.split_at(REMOVALS.min(saturated.len()));
                let ceiling = MAX_CAPACITY as i64;
                let raise: Vec<usize> = rest
                    .iter()
                    .copied()
                    .filter(|&e| self.caps[e] < ceiling)
                    .take(RAISES)
                    .collect();
                for e in raise {
                    let cap = (self.caps[e] + self.rng.range(1, 20) as i64).min(ceiling);
                    self.caps[e] = cap;
                    batch = batch.set_capacity(e, cap);
                }
                for &e in remove {
                    self.live[e] = false;
                    batch = batch.remove_edge(e);
                }
                for e in std::mem::replace(&mut self.removed, remove.to_vec()) {
                    let (from, to) = self.ends[e];
                    self.live[e] = true;
                    self.revived.push(e);
                    batch = batch.insert_edge(from, to, self.caps[e]);
                }
            }
            Kind::Slack => {
                let slack = self.pick(|f, c| f < 0.5 * c as f64);
                for e in slack.into_iter().take(SLACK_EDITS) {
                    let low = (2.0 * self.flows[e]).ceil() as u64 + 1;
                    if low <= MAX_CAPACITY {
                        let cap = self.rng.range(low, MAX_CAPACITY) as i64;
                        self.caps[e] = cap;
                        batch = batch.set_capacity(e, cap);
                    }
                }
            }
        }
        batch
    }
}

/// Adds what one session's counters moved between two snapshots.
fn accumulate(total: &mut FrozenDcStats, before: FrozenDcStats, after: FrozenDcStats) {
    total.solves += after.solves - before.solves;
    total.reused_solutions += after.reused_solutions - before.reused_solutions;
    total.rank1_updates += after.rank1_updates - before.rank1_updates;
    total.refactorizations += after.refactorizations - before.refactorizations;
    total.full_factorizations += after.full_factorizations - before.full_factorizations;
}

fn open(solver: &MaxFlowSolver, g: &FlowNetwork) -> Result<(DeltaSession, Vec<f64>), String> {
    let mut session = solver.delta_session(g).map_err(err)?;
    let first = session.apply_deltas(&DeltaBatch::new()).map_err(err)?;
    Ok((session, first.edge_flows))
}

pub(crate) fn run(cfg: &Config) -> Result<Outcome, String> {
    let vertices = match cfg.scale {
        Scale::Full => 256,
        Scale::Tiny => 48,
    };
    let topology = fig10_instance(vertices, false, TOPOLOGY_SEED);
    let episodes: Vec<FlowNetwork> = (0..cfg.ops(EPISODES_PER_S) as u64)
        .map(|j| recapacitate(&topology, &mut Rng::keyed(CORPUS_SEED, j)))
        .collect();
    let mut order: Vec<usize> = (0..episodes.len()).collect();
    Rng::new(cfg.seed).shuffle(&mut order);
    let n = episodes.len() * EPISODE_BATCHES;
    // The traced run keeps the sessions' phase clocks on throughout.
    let opts = SolveOptions::ideal().with_phase_timing(cfg.trace);

    let mut setup_s = Vec::new();
    let set_up = || {
        let s = MaxFlowSolver::new(opts.clone());
        open(&s, &topology)?;
        Ok(s)
    };
    let mut solver = pass_set_up(cfg, &mut setup_s, set_up, drop)?;
    let opening = solver
        .plan(&topology)
        .and_then(|p| p.instance(&topology))
        .map_err(err)?;
    let budget = state_iter_budget(opening.substrate().circuit());

    let mut tr = Tracer::new(Instant::now());
    let (mut log, mut iters) = (OpLog::default(), Iters::default());
    let (mut kind_iters, mut phases, mut own) = ([0usize; 2], Vec::new(), Vec::new());
    let (mut applied, mut replans, mut consolidations) = (FrozenDcStats::default(), 0, 0);
    let mut skipped = 0;
    let started = Instant::now();
    'passes: for pass in 0..cfg.passes() {
        if pass > 0 {
            solver = pass_set_up(cfg, &mut setup_s, set_up, drop)?;
        }
        for (e, &j) in order.iter().enumerate() {
            if started.elapsed() > cfg.give_up_after() {
                skipped = (cfg.passes() - pass) * n - e * EPISODE_BATCHES;
                break 'passes;
            }
            let (mut session, flows) = open(&solver, &episodes[j])?;
            let mut stream = Stream::new(&episodes[j], CORPUS_SEED ^ j as u64, flows);
            let stats_before = session.stats();
            for b in 0..EPISODE_BATCHES {
                let i = e * EPISODE_BATCHES + b;
                let kind = PATTERN[b % PATTERN.len()];
                let batch = stream.next(kind);
                let traced = traced_op(cfg, i, PATTERN.len());
                let phases_before = session.report().phases.unwrap_or_default();
                tr.begin_op(i as u64, traced);
                let t0 = Instant::now();
                let root = tr.enter(trace::OP);
                let name = match kind {
                    Kind::Cut => "delta.apply.cut",
                    Kind::Slack => "delta.apply.slack",
                };
                let result = tr.time(name, || session.apply_deltas(&batch));
                tr.exit(root);
                let dt = t0.elapsed();
                if let Ok(r) = &result {
                    iters.record(i as u64, r.state_iterations, Some(budget), 0);
                    if pass == 0 {
                        kind_iters[usize::from(kind == Kind::Slack)] += r.state_iterations;
                    }
                    stream.absorb(r);
                    if traced {
                        let p = session.report().phases.unwrap_or_default();
                        let spent = FrozenDcPhases {
                            stamp_ns: p.stamp_ns - phases_before.stamp_ns,
                            refactor_ns: p.refactor_ns - phases_before.refactor_ns,
                            solve_ns: p.solve_ns - phases_before.solve_ns,
                            woodbury_ns: p.woodbury_ns - phases_before.woodbury_ns,
                        };
                        own.push(dt.as_nanos() as f64 - spent.total_ns() as f64);
                        phases.push((i as u64, spent));
                    }
                }
                let exact = session.live_graph().map(|g| exact_flow(&g)).map_err(err)?;
                let answer = result.map(|r| r.value).map_err(err);
                log.record(i, dt.as_nanos() as u64, traced, answer, exact);
            }
            if pass == 0 {
                accumulate(&mut applied, stats_before, session.stats());
                replans += session.replans();
                consolidations += session.consolidations();
            }
        }
    }
    // The per-layer counters cover the first pass (a traced run's only one).
    let attempted = log.attempted().min(n);

    let mut shapes = Vec::new();
    if cfg.trace {
        for k in 0..LINALG_PROBES {
            tr.begin_op((n + k) as u64, true);
            shapes.extend(probe_linalg(&mut tr, opening.substrate().circuit(), &opts.lu).ok());
        }
    }
    let spans = tr.into_spans();
    let mut layers = Layers::default();
    common::span_medians(
        &spans,
        &mut layers,
        &[
            ("delta.apply.cut", "delta.cut.apply_ns"),
            ("delta.apply.slack", "delta.slack.apply_ns"),
            ("linalg.factor", "linalg.factor_ns"),
            ("linalg.refactor", "linalg.refactor_ns"),
            ("linalg.solve", "linalg.solve_ns"),
        ],
    );
    common::factor_shape(&mut layers, &shapes);
    iters.report(&mut layers);
    let cuts = (0..attempted)
        .filter(|i| PATTERN[i % EPISODE_BATCHES % PATTERN.len()] == Kind::Cut)
        .count();
    layers.set("delta.cut.state_iters", kind_iters[0] as f64, cuts);
    layers.set(
        "delta.slack.state_iters",
        kind_iters[1] as f64,
        attempted - cuts,
    );
    layers.set("delta.applies", attempted as f64, attempted);
    layers.set("delta.consolidations", consolidations as f64, attempted);
    layers.set(
        "delta.consolidated_ratio",
        consolidations as f64 / attempted.max(1) as f64,
        attempted,
    );
    layers.set("delta.replans", replans as f64, attempted);
    common::session_phase_layers(&mut layers, &phases);
    // What the session's phase clocks leave unexplained of an apply.
    layers.set("circuit.self_ns", stats::median(&own), own.len());
    layers.set("session.solves", applied.solves as f64, attempted);
    layers.set(
        "session.reused_solutions",
        applied.reused_solutions as f64,
        attempted,
    );
    layers.set(
        "session.reuse_ratio",
        applied.reused_solutions as f64 / applied.solves.max(1) as f64,
        applied.solves,
    );
    layers.set(
        "session.rank1_updates",
        applied.rank1_updates as f64,
        attempted,
    );
    layers.set(
        "session.refactorizations",
        applied.refactorizations as f64,
        attempted,
    );
    layers.set(
        "session.full_factorizations",
        applied.full_factorizations as f64,
        attempted,
    );
    Ok(Outcome {
        setup_s,
        callers: 1,
        log,
        layers,
        spans,
        skipped,
    })
}
