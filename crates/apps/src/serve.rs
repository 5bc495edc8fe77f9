//! The `ohmflow-serve` multi-tenant serving tier: a length-prefixed TCP
//! protocol over the staged [`MaxFlowSolver`].
//!
//! # Wire protocol
//!
//! Every message (both directions) is one *frame*: a `u32` little-endian
//! payload length followed by that many payload bytes. Frames above
//! [`MAX_FRAME_BYTES`] are rejected (a corrupt length prefix must not
//! make the server allocate gigabytes).
//!
//! **Request payload** — one graph to solve:
//!
//! ```text
//! tag     u8    0 = DIMACS max-flow text, 1 = OFG1 binary (ohmflow_graph::binfmt)
//! graph   …     the encoded graph
//! ```
//!
//! **Response payload** — flow value, per-edge flows and solver telemetry:
//!
//! ```text
//! status  u8    0 = ok, 1 = error
//! -- status 0 --
//! value       f64 le    flow value |f| (flow units)
//! m           u32 le    edge count
//! flows       m × f64   per-edge flows, edge-id order
//! iterations  u32 le    state iterations of the DC engine
//! factor_nnz  u64 le    nnz(L)+nnz(U) behind the answer
//! block_count u32 le    BTF diagonal blocks
//! templated   u8        1 when the solve rode a cached plan
//! -- status 1 --
//! message     …         UTF-8 human-readable error
//! ```
//!
//! A connection carries any number of request/response round trips in
//! order; the server answers every request and closes when the client
//! half-closes.
//!
//! # Delta sessions
//!
//! Three further tags expose streaming [`DeltaSession`]s — one live
//! analog substrate absorbing graph deltas across requests:
//!
//! ```text
//! tag 2 (open)   sub-tag u8 (0/1 as above) + encoded graph
//! tag 3 (apply)  session u64 le, count u32 le, then per delta:
//!                  kind 0: edge u64, capacity i64   (set capacity)
//!                  kind 1: edge u64                 (remove edge)
//!                  kind 2: from u64, to u64, capacity i64 (insert edge)
//! tag 4 (close)  session u64 le
//! ```
//!
//! Open and apply answer with a **delta response** (status `0`, session
//! id, flow value, per-session-edge flows, ids assigned to the batch's
//! inserts, replanned/consolidated flags, state iterations); close echoes
//! the session id. Session ids are process-global: a session opened on
//! one connection may be driven from another. Requests for the same
//! session are serialized by checking the session out of the registry for
//! the duration of its solve — a concurrent request for a checked-out id
//! reports `session … unknown or busy` rather than blocking the
//! connection.
//!
//! # Architecture
//!
//! One acceptor thread hands each connection to its own reader thread;
//! readers decode graphs and enqueue jobs on one shared queue. A pool of
//! worker threads takes the jobs one at a time and solves each through
//! [`MaxFlowSolver::solve`], so every request rides the workers' shared
//! plan cache: a burst of same-topology requests (the multi-tenant steady
//! state) runs the symbolic cold path once behind the cache's
//! single-flight gate, and every other request of the burst is a cache
//! hit. Per-request errors travel back on the job's reply channel — one
//! bad graph never poisons a worker.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use ohmflow::{
    AnalogSolution, DeltaBatch, DeltaReport, DeltaSession, GraphDelta, MaxFlowSolver, SolveOptions,
};
use ohmflow_graph::{binfmt, dimacs, FlowNetwork};

/// Request tag: DIMACS max-flow text.
pub const TAG_DIMACS: u8 = 0;
/// Request tag: `OFG1` binary graph ([`ohmflow_graph::binfmt`]).
pub const TAG_BINARY: u8 = 1;
/// Request tag: open a [`DeltaSession`] on the carried graph.
pub const TAG_OPEN_SESSION: u8 = 2;
/// Request tag: apply a delta batch to an open session.
pub const TAG_APPLY_DELTAS: u8 = 3;
/// Request tag: close a session.
pub const TAG_CLOSE_SESSION: u8 = 4;

/// Hard ceiling on one frame's payload (64 MiB) — large enough for
/// million-edge instances, small enough that a corrupt length prefix
/// cannot drive allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// One solved answer as carried by the wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResponse {
    /// Flow value `|f|` (flow units).
    pub value: f64,
    /// Per-edge flows, edge-id order.
    pub edge_flows: Vec<f64>,
    /// State iterations of the DC engine.
    pub iterations: u32,
    /// `nnz(L) + nnz(U)` of the factorization behind the answer.
    pub factor_nnz: u64,
    /// Diagonal blocks of the block-triangular form.
    pub block_count: u32,
    /// Whether the solve rode a cached plan's shared symbolic work.
    pub templated: bool,
}

/// One delta-session answer (open or apply) as carried by the wire
/// protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaResponse {
    /// Process-global session id.
    pub session_id: u64,
    /// Flow value `|f|` (flow units) after the batch.
    pub value: f64,
    /// Per-edge flows in **session id** order (removed edges report 0).
    pub edge_flows: Vec<f64>,
    /// Session ids assigned to the batch's inserts, batch order.
    pub new_edge_ids: Vec<u64>,
    /// Whether the batch re-keyed against the plan cache.
    pub replanned: bool,
    /// Whether the numeric consolidation budget refactored afterwards.
    pub consolidated: bool,
    /// Complementarity iterations the solve took.
    pub state_iterations: u32,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the solve queue.
    pub workers: usize,
    /// Solver options every request is served under (the plan cache's
    /// byte capacity rides in here — see
    /// [`SolveOptions::with_plan_cache_bytes`]).
    pub options: SolveOptions,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            options: SolveOptions::ideal(),
        }
    }
}

/// Process-global registry of open [`DeltaSession`]s. Sessions are
/// checked *out* of the map for the duration of a solve, so the registry
/// lock is only ever held for map operations.
struct Sessions {
    next_id: std::sync::atomic::AtomicU64,
    open: Mutex<std::collections::HashMap<u64, DeltaSession>>,
}

impl Sessions {
    fn new() -> Self {
        Sessions {
            next_id: std::sync::atomic::AtomicU64::new(1),
            open: Mutex::new(std::collections::HashMap::new()),
        }
    }

    fn insert_new(&self, session: DeltaSession) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.open
            .lock()
            .expect("invariant: session-registry lock is never poisoned")
            .insert(id, session);
        id
    }

    fn check_out(&self, id: u64) -> Option<DeltaSession> {
        self.open
            .lock()
            .expect("invariant: session-registry lock is never poisoned")
            .remove(&id)
    }

    fn check_in(&self, id: u64, session: DeltaSession) {
        self.open
            .lock()
            .expect("invariant: session-registry lock is never poisoned")
            .insert(id, session);
    }
}

/// One queued solve: the decoded graph and where its answer goes.
struct Job {
    graph: FlowNetwork,
    reply: mpsc::Sender<Result<AnalogSolution, String>>,
}

/// The shared work queue: jobs in, popped one at a time by workers,
/// condvar wake-ups, sticky shutdown flag.
struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
    shutdown: AtomicBool,
}

impl Queue {
    fn new() -> Self {
        Queue {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    fn push(&self, job: Job) {
        self.jobs
            .lock()
            .expect("invariant: serve-queue lock is never poisoned")
            .push_back(job);
        self.ready.notify_one();
    }

    /// Blocks until work or shutdown; returns the oldest queued job
    /// (queued jobs are still handed out after shutdown).
    fn pop(&self) -> Option<Job> {
        let mut jobs = self
            .jobs
            .lock()
            .expect("invariant: serve-queue lock is never poisoned");
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            jobs = self
                .ready
                .wait(jobs)
                .expect("invariant: serve-queue lock is never poisoned");
        }
    }

    fn close(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.ready.notify_all();
    }
}

/// A running server: bound address plus shutdown/join control. Dropping
/// the handle without calling [`ServerHandle::shutdown`] leaves the
/// server running for the life of the process (the binary's mode).
pub struct ServerHandle {
    addr: SocketAddr,
    queue: Arc<Queue>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ServerHandle {
    /// The address the server accepts connections on (useful with an
    /// ephemeral `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains in-flight work and joins every thread.
    pub fn shutdown(mut self) {
        self.queue.close();
        // Unblock the acceptor's blocking `accept` with one throwaway
        // connection; it observes the shutdown flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Binds `addr` (use port 0 for an ephemeral port) and spawns the
/// acceptor and worker threads.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn(addr: &str, config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let queue = Arc::new(Queue::new());
    let sessions = Arc::new(Sessions::new());
    let solver = MaxFlowSolver::new(config.options);

    let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|_| {
            let queue = Arc::clone(&queue);
            // Clones share the sharded plan cache: every worker amortizes
            // every other worker's cold paths.
            let solver = solver.clone();
            std::thread::spawn(move || worker_loop(&queue, &solver))
        })
        .collect();

    let acceptor = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if queue.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Frames are small request/response pairs: Nagle would
                // hold each answer for the client's delayed ACK.
                let _ = stream.set_nodelay(true);
                let queue = Arc::clone(&queue);
                let sessions = Arc::clone(&sessions);
                // Session frames solve on the connection thread (they are
                // stateful and per-session serialized); stateless solves
                // still funnel through the shared worker queue.
                let solver = solver.clone();
                std::thread::spawn(move || {
                    let _ = serve_connection(stream, &queue, &sessions, &solver);
                });
            }
        })
    };

    Ok(ServerHandle {
        addr: local,
        queue,
        acceptor: Some(acceptor),
        workers,
    })
}

/// One worker: pop a job, solve it through the plan cache, answer it.
fn worker_loop(queue: &Queue, solver: &MaxFlowSolver) {
    while let Some(job) = queue.pop() {
        let result = solver.solve(&job.graph).map_err(|e| e.to_string());
        let _ = job.reply.send(result);
    }
}

/// One connection: frames in, frames out, in order, until EOF.
fn serve_connection(
    mut stream: TcpStream,
    queue: &Queue,
    sessions: &Sessions,
    solver: &MaxFlowSolver,
) -> std::io::Result<()> {
    loop {
        let Some(payload) = read_frame(&mut stream)? else {
            return Ok(()); // clean EOF between frames
        };
        let response = match payload.first() {
            Some(&TAG_OPEN_SESSION) | Some(&TAG_APPLY_DELTAS) | Some(&TAG_CLOSE_SESSION) => {
                handle_session_frame(&payload, sessions, solver)
            }
            _ => match decode_request(&payload) {
                Ok(graph) => {
                    let (tx, rx) = mpsc::channel();
                    queue.push(Job { graph, reply: tx });
                    match rx.recv() {
                        Ok(Ok(sol)) => encode_ok(&sol),
                        Ok(Err(msg)) => encode_err(&msg),
                        Err(_) => encode_err("server shutting down"),
                    }
                }
                Err(msg) => encode_err(&msg),
            },
        };
        write_frame(&mut stream, &response)?;
    }
}

/// Serves one delta-session frame (open / apply / close) and encodes the
/// answer. Errors come back as status-1 payloads; an invalid batch leaves
/// its session open and untouched (the session's own atomicity).
fn handle_session_frame(payload: &[u8], sessions: &Sessions, solver: &MaxFlowSolver) -> Vec<u8> {
    let (&tag, body) = payload
        .split_first()
        .expect("invariant: framed payloads carry a tag byte");
    match tag {
        TAG_OPEN_SESSION => {
            let graph = match decode_request(body) {
                Ok(g) => g,
                Err(msg) => return encode_err(&msg),
            };
            let mut session = match solver.delta_session(&graph) {
                Ok(s) => s,
                Err(e) => return encode_err(&e.to_string()),
            };
            // The opening answer is the empty batch's solve.
            match session.apply_deltas(&DeltaBatch::new()) {
                Ok(report) => {
                    let id = sessions.insert_new(session);
                    encode_delta_ok(id, &report)
                }
                Err(e) => encode_err(&e.to_string()),
            }
        }
        TAG_APPLY_DELTAS => {
            let (id, batch) = match decode_delta_request(body) {
                Ok(parts) => parts,
                Err(msg) => return encode_err(&msg),
            };
            let Some(mut session) = sessions.check_out(id) else {
                return encode_err(&format!("session {id} unknown or busy"));
            };
            let result = session.apply_deltas(&batch);
            sessions.check_in(id, session);
            match result {
                Ok(report) => encode_delta_ok(id, &report),
                Err(e) => encode_err(&e.to_string()),
            }
        }
        TAG_CLOSE_SESSION => match body.try_into().map(u64::from_le_bytes) {
            Ok(id) => match sessions.check_out(id) {
                Some(session) => {
                    drop(session);
                    let mut payload = Vec::with_capacity(9);
                    payload.push(0);
                    payload.extend_from_slice(&id.to_le_bytes());
                    payload
                }
                None => encode_err(&format!("session {id} unknown or busy")),
            },
            Err(_) => encode_err("close payload must be one u64 session id"),
        },
        other => encode_err(&format!("unknown session tag {other}")),
    }
}

/// Decodes an apply-deltas body: session id + the delta batch.
fn decode_delta_request(body: &[u8]) -> Result<(u64, DeltaBatch), String> {
    let truncated = || "truncated delta request".to_owned();
    let u64_at = |at: usize| -> Result<u64, String> {
        body.get(at..at + 8)
            .map(|b| {
                u64::from_le_bytes(
                    b.try_into()
                        .expect("invariant: chunks_exact(8) yields 8-byte slices"),
                )
            })
            .ok_or_else(truncated)
    };
    let id = u64_at(0)?;
    let count = body
        .get(8..12)
        .map(|b| {
            u32::from_le_bytes(
                b.try_into()
                    .expect("invariant: chunks_exact(4) yields 4-byte slices"),
            )
        })
        .ok_or_else(truncated)? as usize;
    let mut batch = DeltaBatch::new();
    let mut at = 12;
    for _ in 0..count {
        let &kind = body.get(at).ok_or_else(truncated)?;
        at += 1;
        match kind {
            0 => {
                let edge = u64_at(at)? as usize;
                let capacity = u64_at(at + 8)? as i64;
                at += 16;
                batch.push(GraphDelta::SetCapacity { edge, capacity });
            }
            1 => {
                let edge = u64_at(at)? as usize;
                at += 8;
                batch.push(GraphDelta::RemoveEdge { edge });
            }
            2 => {
                let from = u64_at(at)? as usize;
                let to = u64_at(at + 8)? as usize;
                let capacity = u64_at(at + 16)? as i64;
                at += 24;
                batch.push(GraphDelta::InsertEdge { from, to, capacity });
            }
            other => return Err(format!("unknown delta kind {other}")),
        }
    }
    if at != body.len() {
        return Err(format!(
            "{} trailing bytes after delta batch",
            body.len() - at
        ));
    }
    Ok((id, batch))
}

fn encode_delta_ok(id: u64, report: &DeltaReport) -> Vec<u8> {
    let m = report.edge_flows.len();
    let k = report.new_edge_ids.len();
    let mut payload = Vec::with_capacity(1 + 8 + 8 + 4 + m * 8 + 4 + k * 8 + 2 + 4);
    payload.push(0);
    payload.extend_from_slice(&id.to_le_bytes());
    payload.extend_from_slice(&report.value.to_le_bytes());
    payload.extend_from_slice(&(m as u32).to_le_bytes());
    for f in &report.edge_flows {
        payload.extend_from_slice(&f.to_le_bytes());
    }
    payload.extend_from_slice(&(k as u32).to_le_bytes());
    for &e in &report.new_edge_ids {
        payload.extend_from_slice(&(e as u64).to_le_bytes());
    }
    payload.push(u8::from(report.replanned));
    payload.push(u8::from(report.consolidated));
    payload.extend_from_slice(&(report.state_iterations as u32).to_le_bytes());
    payload
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary.
///
/// # Errors
///
/// I/O failures, truncation inside a frame, oversized length prefixes.
pub fn read_frame(stream: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes one length-prefixed frame as a single write: a separate length
/// write would leave the payload waiting on the peer's delayed ACK under
/// Nagle's algorithm.
///
/// # Errors
///
/// I/O failures; payloads above [`MAX_FRAME_BYTES`].
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame exceeds the payload limit",
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame)?;
    stream.flush()
}

/// One client round trip: disables Nagle on `stream` (idempotent), sends
/// `payload` as a frame and reads the answer frame.
fn round_trip(stream: &mut TcpStream, payload: &[u8]) -> Result<Vec<u8>, String> {
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    write_frame(stream, payload).map_err(|e| e.to_string())?;
    read_frame(stream)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "connection closed before response".to_owned())
}

/// Builds a request payload from an already-encoded graph body.
pub fn encode_request(tag: u8, graph_bytes: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + graph_bytes.len());
    payload.push(tag);
    payload.extend_from_slice(graph_bytes);
    payload
}

/// Decodes a request payload into the graph it carries.
fn decode_request(payload: &[u8]) -> Result<FlowNetwork, String> {
    let (&tag, body) = payload
        .split_first()
        .ok_or_else(|| "empty request payload".to_owned())?;
    match tag {
        TAG_DIMACS => {
            let text =
                std::str::from_utf8(body).map_err(|e| format!("DIMACS body is not UTF-8: {e}"))?;
            dimacs::parse(text).map_err(|e| e.to_string())
        }
        TAG_BINARY => binfmt::parse_binary(body).map_err(|e| e.to_string()),
        other => Err(format!("unknown request tag {other}")),
    }
}

fn encode_ok(sol: &AnalogSolution) -> Vec<u8> {
    let m = sol.edge_flows.len();
    let mut payload = Vec::with_capacity(1 + 8 + 4 + m * 8 + 4 + 8 + 4 + 1);
    payload.push(0);
    payload.extend_from_slice(&sol.value.to_le_bytes());
    payload.extend_from_slice(&(m as u32).to_le_bytes());
    for f in &sol.edge_flows {
        payload.extend_from_slice(&f.to_le_bytes());
    }
    payload.extend_from_slice(&(sol.report.iterations as u32).to_le_bytes());
    payload.extend_from_slice(&(sol.report.factor_nnz as u64).to_le_bytes());
    payload.extend_from_slice(&(sol.report.block_count as u32).to_le_bytes());
    payload.push(u8::from(sol.report.templated));
    payload
}

fn encode_err(message: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + message.len());
    payload.push(1);
    payload.extend_from_slice(message.as_bytes());
    payload
}

/// Decodes a response payload: `Ok` carries the solved answer, `Err` the
/// server-reported message.
///
/// # Errors
///
/// `Err(String)` both for server-reported errors (status 1) and for
/// malformed payloads.
pub fn decode_response(payload: &[u8]) -> Result<SolveResponse, String> {
    let (&status, body) = payload
        .split_first()
        .ok_or_else(|| "empty response payload".to_owned())?;
    if status == 1 {
        return Err(String::from_utf8_lossy(body).into_owned());
    }
    if status != 0 {
        return Err(format!("unknown response status {status}"));
    }
    let take = |body: &[u8], at: usize, n: usize| -> Result<Vec<u8>, String> {
        body.get(at..at + n)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| "truncated response".to_owned())
    };
    let f64_at = |at: usize| -> Result<f64, String> {
        Ok(f64::from_le_bytes(
            take(body, at, 8)?
                .try_into()
                .expect("invariant: take(8) yields 8-byte slices"),
        ))
    };
    let u32_at = |at: usize| -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            take(body, at, 4)?
                .try_into()
                .expect("invariant: take(4) yields 4-byte slices"),
        ))
    };
    let value = f64_at(0)?;
    let m = u32_at(8)? as usize;
    let mut edge_flows = Vec::with_capacity(m);
    for i in 0..m {
        edge_flows.push(f64_at(12 + i * 8)?);
    }
    let tail = 12 + m * 8;
    let iterations = u32_at(tail)?;
    let factor_nnz = u64::from_le_bytes(
        take(body, tail + 4, 8)?
            .try_into()
            .expect("invariant: take(8) yields 8-byte slices"),
    );
    let block_count = u32_at(tail + 12)?;
    let templated = *body
        .get(tail + 16)
        .ok_or_else(|| "truncated response".to_owned())?
        != 0;
    Ok(SolveResponse {
        value,
        edge_flows,
        iterations,
        factor_nnz,
        block_count,
        templated,
    })
}

/// Builds an open-session request payload from an already-encoded graph
/// body (`graph_tag` is [`TAG_DIMACS`] or [`TAG_BINARY`]).
pub fn encode_open_session(graph_tag: u8, graph_bytes: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(2 + graph_bytes.len());
    payload.push(TAG_OPEN_SESSION);
    payload.push(graph_tag);
    payload.extend_from_slice(graph_bytes);
    payload
}

/// Builds an apply-deltas request payload.
pub fn encode_apply_deltas(session_id: u64, deltas: &[GraphDelta]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(13 + deltas.len() * 25);
    payload.push(TAG_APPLY_DELTAS);
    payload.extend_from_slice(&session_id.to_le_bytes());
    payload.extend_from_slice(&(deltas.len() as u32).to_le_bytes());
    for &delta in deltas {
        match delta {
            GraphDelta::SetCapacity { edge, capacity } => {
                payload.push(0);
                payload.extend_from_slice(&(edge as u64).to_le_bytes());
                payload.extend_from_slice(&capacity.to_le_bytes());
            }
            GraphDelta::RemoveEdge { edge } => {
                payload.push(1);
                payload.extend_from_slice(&(edge as u64).to_le_bytes());
            }
            GraphDelta::InsertEdge { from, to, capacity } => {
                payload.push(2);
                payload.extend_from_slice(&(from as u64).to_le_bytes());
                payload.extend_from_slice(&(to as u64).to_le_bytes());
                payload.extend_from_slice(&capacity.to_le_bytes());
            }
        }
    }
    payload
}

/// Builds a close-session request payload.
pub fn encode_close_session(session_id: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(9);
    payload.push(TAG_CLOSE_SESSION);
    payload.extend_from_slice(&session_id.to_le_bytes());
    payload
}

/// Decodes a delta response (open/apply answers).
///
/// # Errors
///
/// `Err(String)` both for server-reported errors (status 1) and for
/// malformed payloads.
pub fn decode_delta_response(payload: &[u8]) -> Result<DeltaResponse, String> {
    let (&status, body) = payload
        .split_first()
        .ok_or_else(|| "empty response payload".to_owned())?;
    if status == 1 {
        return Err(String::from_utf8_lossy(body).into_owned());
    }
    if status != 0 {
        return Err(format!("unknown response status {status}"));
    }
    let truncated = || "truncated delta response".to_owned();
    let u64_at = |at: usize| -> Result<u64, String> {
        body.get(at..at + 8)
            .map(|b| {
                u64::from_le_bytes(
                    b.try_into()
                        .expect("invariant: chunks_exact(8) yields 8-byte slices"),
                )
            })
            .ok_or_else(truncated)
    };
    let u32_at = |at: usize| -> Result<u32, String> {
        body.get(at..at + 4)
            .map(|b| {
                u32::from_le_bytes(
                    b.try_into()
                        .expect("invariant: chunks_exact(4) yields 4-byte slices"),
                )
            })
            .ok_or_else(truncated)
    };
    let session_id = u64_at(0)?;
    let value = f64::from_bits(u64_at(8)?);
    let m = u32_at(16)? as usize;
    let mut edge_flows = Vec::with_capacity(m);
    for i in 0..m {
        edge_flows.push(f64::from_bits(u64_at(20 + i * 8)?));
    }
    let mut at = 20 + m * 8;
    let k = u32_at(at)? as usize;
    at += 4;
    let mut new_edge_ids = Vec::with_capacity(k);
    for i in 0..k {
        new_edge_ids.push(u64_at(at + i * 8)?);
    }
    at += k * 8;
    let flags = body.get(at..at + 2).ok_or_else(truncated)?;
    let state_iterations = u32_at(at + 2)?;
    Ok(DeltaResponse {
        session_id,
        value,
        edge_flows,
        new_edge_ids,
        replanned: flags[0] != 0,
        consolidated: flags[1] != 0,
        state_iterations,
    })
}

/// Client convenience: opens a delta session on an open connection and
/// returns the opening answer (its `session_id` names the session in
/// later [`apply_deltas`]/[`close_session`] calls).
///
/// # Errors
///
/// `Err(String)` for transport failures, server-reported errors and
/// malformed responses.
pub fn open_session(
    stream: &mut TcpStream,
    graph_tag: u8,
    graph_bytes: &[u8],
) -> Result<DeltaResponse, String> {
    let payload = round_trip(stream, &encode_open_session(graph_tag, graph_bytes))?;
    decode_delta_response(&payload)
}

/// Client convenience: applies one delta batch to an open session.
///
/// # Errors
///
/// `Err(String)` for transport failures, server-reported errors
/// (including invalid batches, which leave the session untouched) and
/// malformed responses.
pub fn apply_deltas(
    stream: &mut TcpStream,
    session_id: u64,
    deltas: &[GraphDelta],
) -> Result<DeltaResponse, String> {
    let payload = round_trip(stream, &encode_apply_deltas(session_id, deltas))?;
    decode_delta_response(&payload)
}

/// Client convenience: closes a session, returning its echoed id.
///
/// # Errors
///
/// `Err(String)` for transport failures and unknown session ids.
pub fn close_session(stream: &mut TcpStream, session_id: u64) -> Result<u64, String> {
    let payload = round_trip(stream, &encode_close_session(session_id))?;
    let (&status, body) = payload
        .split_first()
        .ok_or_else(|| "empty response payload".to_owned())?;
    if status == 1 {
        return Err(String::from_utf8_lossy(body).into_owned());
    }
    body.try_into()
        .map(u64::from_le_bytes)
        .map_err(|_| "malformed close response".to_owned())
}

/// Client convenience: one request/response round trip on an open
/// connection.
///
/// # Errors
///
/// `Err(String)` for transport failures, server-reported errors and
/// malformed responses.
pub fn request(
    stream: &mut TcpStream,
    tag: u8,
    graph_bytes: &[u8],
) -> Result<SolveResponse, String> {
    let payload = round_trip(stream, &encode_request(tag, graph_bytes))?;
    decode_response(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` that counts the calls it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_issues_one_write_per_frame() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, b"hello").unwrap();
        assert_eq!(w.writes, 1);
        write_frame(&mut w, b"").unwrap();
        assert_eq!(w.writes, 2);
        let mut r = w.bytes.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }
}
