//! Streaming graph-delta sessions: reconfiguration as the common case.
//!
//! The paper's substrate is *reconfigurable by design* — one physical
//! fabric, many programmed instances — and real workloads evolve under
//! load: capacities drift, edges appear and vanish. A [`DeltaSession`]
//! holds one live analog substrate across a stream of
//! [`DeltaBatch`]es and maps every delta onto the cheapest mechanism the
//! stack supports:
//!
//! | delta                          | mechanism                         |
//! |--------------------------------|-----------------------------------|
//! | capacity update                | value-only level-source restamp (RHS-only: no symbolic, no numeric factor work) |
//! | edge removal                   | exact excision by value-only resistor surgery, pushed as one rank-k [`LowRankUpdate`](ohmflow_linalg::LowRankUpdate) batch: couplings stamp to open (`1/∞` is exactly zero conductance), a ghost anchor closes so the dangling widget cluster stays nonsingular, and the endpoint stars retune to their live-degree values |
//! | re-insert of a removed edge    | the inverse surgery: couplings back to `r`, anchor reopened, stars retuned |
//! | novel edge insertion           | structural: re-key against the plan cache |
//! | induced clamp-state flips      | batched rank-k Woodbury update ([`LowRankUpdate::push_batch`](ohmflow_linalg::LowRankUpdate::push_batch)) against the standing factorization |
//!
//! The surgery is *exact*: every edited value is bit-for-bit the value a
//! fresh build of the live graph would stamp (the star magnitudes reuse
//! the builder's own margin formula), so session results agree with
//! fresh solves to solver precision — not to a soft-clamp tolerance.
//! Builds whose negative resistors are op-amp subcircuits
//! ([`NegativeResistorImpl::Dynamic`](crate::builder::NegativeResistorImpl)/`OpAmp`)
//! cannot retune star magnitudes by value; topology deltas on them fall
//! back to structural re-keys (capacity updates stay value-only).
//!
//! Two consolidation budgets keep the incremental state healthy:
//!
//! * **numeric**: Woodbury terms are absorbed until the per-solve
//!   correction cost (outstanding rank × dense reach bound) exceeds a
//!   multiple of the factorization fill, then the session consolidates
//!   via a numeric-only refactorization
//!   ([`FrozenDcSession::consolidate`](ohmflow_circuit::FrozenDcSession));
//! * **structural**: removed edges stay stamped (excised but ready to
//!   revive for free) until they outnumber a quarter of the live edges,
//!   then the next re-key compacts them out of the universe.
//!
//! Re-keying goes through the solver's sharded plan cache, so a session
//! that oscillates between a handful of topologies re-plans each of them
//! exactly once.

use std::sync::Arc;

use ohmflow_circuit::{ElementId, FrozenDcSession, FrozenDcStats, SolveReport, SourceValue};
use ohmflow_graph::FlowNetwork;

use crate::builder::{CapacityMapping, SubstrateCircuit};
use crate::quantize::{ExactScaling, Quantizer};
use crate::template::SubstrateTemplate;
use crate::AnalogError;

use super::MaxFlowSolver;

/// One streaming change to the session's graph. Edge ids are **session
/// ids**: stable for the lifetime of the session (they survive re-keys
/// and compactions), assigned densely — the edges of the opening graph
/// get `0..edge_count`, every [`GraphDelta::InsertEdge`] appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphDelta {
    /// Changes the capacity of a live edge (value-only restamp).
    SetCapacity {
        /// Session edge id.
        edge: usize,
        /// New positive capacity.
        capacity: i64,
    },
    /// Removes a live edge (exact value-only excision; revivable in
    /// place for free).
    RemoveEdge {
        /// Session edge id.
        edge: usize,
    },
    /// Inserts an edge. Re-inserting where a removed edge's widgets are
    /// still stamped is a value restamp; a novel endpoint pair re-keys
    /// the session against the plan cache.
    InsertEdge {
        /// Tail vertex.
        from: usize,
        /// Head vertex.
        to: usize,
        /// Positive capacity.
        capacity: i64,
    },
}

/// An ordered batch of [`GraphDelta`]s applied (and solved) atomically by
/// [`DeltaSession::apply_deltas`].
#[derive(Debug, Clone, Default)]
pub struct DeltaBatch {
    deltas: Vec<GraphDelta>,
}

impl DeltaBatch {
    /// An empty batch (applying it just re-solves the current graph).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a capacity update.
    pub fn set_capacity(mut self, edge: usize, capacity: i64) -> Self {
        self.deltas.push(GraphDelta::SetCapacity { edge, capacity });
        self
    }

    /// Appends an edge removal.
    pub fn remove_edge(mut self, edge: usize) -> Self {
        self.deltas.push(GraphDelta::RemoveEdge { edge });
        self
    }

    /// Appends an edge insertion.
    pub fn insert_edge(mut self, from: usize, to: usize, capacity: i64) -> Self {
        self.deltas
            .push(GraphDelta::InsertEdge { from, to, capacity });
        self
    }

    /// Appends an already-constructed delta.
    pub fn push(&mut self, delta: GraphDelta) {
        self.deltas.push(delta);
    }

    /// Number of deltas in the batch.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// `true` if the batch carries no deltas.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// The deltas, application order.
    pub fn deltas(&self) -> &[GraphDelta] {
        &self.deltas
    }
}

/// What one [`DeltaSession::apply_deltas`] call did and found.
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// Flow value `|f|` (flow units) after the batch.
    pub value: f64,
    /// Per-edge flows in **session id** order (removed edges report 0).
    pub edge_flows: Vec<f64>,
    /// Session ids assigned to the batch's [`GraphDelta::InsertEdge`]s,
    /// batch order (revived edges report their original id).
    pub new_edge_ids: Vec<usize>,
    /// Whether the batch forced a re-key against the plan cache (novel
    /// structure or a blown structural-debt budget).
    pub replanned: bool,
    /// Whether the numeric consolidation budget triggered a
    /// refactorization after the solve.
    pub consolidated: bool,
    /// Complementarity (clamp-state) iterations the solve took.
    pub state_iterations: usize,
    /// Operating-point solves of the batch whose state iteration broke a
    /// cycle (revisited an assignment; see
    /// [`SolveReport::cycle_break`]). A batch runs one such solve, so this
    /// is 0 or 1; summed over batches it counts the cycling solves of a
    /// stream.
    pub cycle_breaks: usize,
}

/// One session edge: endpoints, last-set capacity, liveness, and where
/// (if anywhere) it is stamped in the current universe circuit.
#[derive(Debug, Clone, Copy)]
struct SessionEdge {
    from: usize,
    to: usize,
    capacity: i64,
    live: bool,
    /// Index into the current universe (circuit) edge order; `None` once
    /// a compaction dropped a removed edge's widgets.
    slot: Option<usize>,
}

/// A live analog substrate absorbing streaming graph deltas — see the
/// module docs for the delta taxonomy and consolidation policy. Opened
/// through [`MaxFlowSolver::delta_session`].
#[derive(Debug)]
pub struct DeltaSession {
    solver: MaxFlowSolver,
    vertices: usize,
    source: usize,
    sink: usize,
    edges: Vec<SessionEdge>,
    /// The live graph's maximum capacity. The flow readout is *not*
    /// invariant under the voltage scale `V_dd / c_max` (the `V_flow`
    /// drive is fixed), so the scale must always be exactly what a fresh
    /// build of the live graph would use: it is recomputed every batch,
    /// and every level source restamps when it moves (still value-only).
    c_max: f64,
    /// The owning incremental session over the universe substrate.
    dc: FrozenDcSession<SubstrateCircuit>,
    /// Per-universe-edge level-source ids (`None` for grounded
    /// circulation edges).
    level_sources: Vec<Option<ElementId>>,
    /// Per-universe-edge clamp voltages (readout metadata mirror).
    clamp_volts: Vec<f64>,
    tpl: Arc<SubstrateTemplate>,
    /// Monotone pseudo-time fed to the DC solves.
    clock: f64,
    replans: u64,
    consolidations: u64,
}

/// Numeric consolidation budget: consolidate once the outstanding
/// Woodbury correction (rank × dense reach bound per solve) exceeds this
/// multiple of the factorization fill — past that point a numeric-only
/// refactorization pays for itself within a few solves.
const CONSOLIDATION_FILL_FACTOR: f64 = 4.0;

/// Rank headroom handed to the underlying session so the delta-session
/// budget (not the session's flip-oriented default of 12) governs
/// consolidation.
const SESSION_MAX_RANK: usize = 64;

impl DeltaSession {
    /// Opens a session on `g` (used by [`MaxFlowSolver::delta_session`]).
    pub(crate) fn open(solver: MaxFlowSolver, g: &FlowNetwork) -> Result<Self, AnalogError> {
        let c_max = (g.max_capacity() as f64).max(1.0);
        let edges: Vec<SessionEdge> = g
            .edges()
            .iter()
            .map(|e| SessionEdge {
                from: e.from,
                to: e.to,
                capacity: e.capacity,
                live: true,
                slot: None,
            })
            .collect();
        let parts = rekey(
            &solver,
            c_max,
            g.vertex_count(),
            g.source(),
            g.sink(),
            &edges,
            true,
        )?;
        Ok(DeltaSession {
            vertices: g.vertex_count(),
            source: g.source(),
            sink: g.sink(),
            edges: parts.edges,
            c_max,
            dc: parts.dc,
            level_sources: parts.level_sources,
            clamp_volts: parts.clamp_volts,
            tpl: parts.tpl,
            clock: 0.0,
            replans: 0,
            consolidations: 0,
            solver,
        })
    }

    /// Applies one batch of deltas, solves the resulting graph's
    /// operating point, and reports the new flow assignment.
    ///
    /// Atomicity: the batch is validated delta-by-delta *before* any
    /// electrical work; an invalid delta
    /// ([`AnalogError::InvalidConfig`]) leaves the session exactly as it
    /// was. A solve failure after a valid batch poisons only the cached
    /// operating point (the session recovers on the next solvable
    /// batch), matching the underlying session's recovery semantics.
    ///
    /// # Errors
    ///
    /// [`AnalogError::InvalidConfig`] for out-of-range or dead edge ids,
    /// non-positive capacities, or degenerate insertions; circuit errors
    /// propagate from the solve.
    pub fn apply_deltas(&mut self, batch: &DeltaBatch) -> Result<DeltaReport, AnalogError> {
        self.validate(batch)?;

        let retunable = self.dc.host().delta_meta().retunable;

        // Stage the batch into the session edge table.
        let mut new_edge_ids = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        let mut flipped: Vec<usize> = Vec::new();
        let mut structural = false;
        let mut force_compact = false;
        for &delta in batch.deltas() {
            match delta {
                GraphDelta::SetCapacity { edge, capacity } => {
                    self.edges[edge].capacity = capacity;
                    touched.push(edge);
                }
                GraphDelta::RemoveEdge { edge } => {
                    self.edges[edge].live = false;
                    // `touched` zeroes the level source (see
                    // [`clamp_volts_for`]); `flipped` runs the surgery.
                    touched.push(edge);
                    if retunable {
                        flipped.push(edge);
                    } else {
                        // Op-amp star magnitudes live inside subcircuits the
                        // session cannot retune by value: excise structurally.
                        force_compact = true;
                    }
                }
                GraphDelta::InsertEdge { from, to, capacity } => {
                    let revivable = self
                        .edges
                        .iter()
                        .position(|e| !e.live && e.slot.is_some() && e.from == from && e.to == to);
                    match revivable {
                        Some(id) => {
                            self.edges[id].live = true;
                            self.edges[id].capacity = capacity;
                            touched.push(id);
                            flipped.push(id);
                            new_edge_ids.push(id);
                        }
                        None => {
                            let id = self.edges.len();
                            self.edges.push(SessionEdge {
                                from,
                                to,
                                capacity,
                                live: true,
                                slot: None,
                            });
                            new_edge_ids.push(id);
                            structural = true;
                        }
                    }
                }
            }
        }

        // The readout scale must track the *live* graph's maximum exactly
        // (see the `c_max` field docs), whichever way it moved.
        let new_c_max = self
            .edges
            .iter()
            .filter(|e| e.live)
            .map(|e| e.capacity)
            .max()
            .unwrap_or(1)
            .max(1) as f64;
        let scale_changed = new_c_max != self.c_max;
        self.c_max = new_c_max;

        // Route the staged state onto the cheapest mechanism. The
        // structural debt is the removed edges whose widgets are still
        // stamped in the universe.
        let live = self.edges.iter().filter(|e| e.live).count();
        let debt = self
            .edges
            .iter()
            .filter(|e| !e.live && e.slot.is_some())
            .count();
        let compact = force_compact || debt > 16.max(live / 4);
        let replanned = structural || compact;
        if replanned {
            self.rebuild(!compact)?;
            self.replans += 1;
        } else {
            // Liveness flips first (excision/revival surgery), then the
            // level-source restamps — both value-only.
            flipped.sort_unstable();
            flipped.dedup();
            if !flipped.is_empty() {
                self.apply_surgeries(&flipped)?;
            }
            if scale_changed {
                // The voltage scale moved: every stamped level source gets
                // the new mapping — still value-only against the standing
                // factor.
                for id in 0..self.edges.len() {
                    self.restamp(id)?;
                }
                self.sync_metadata();
            } else if !touched.is_empty() {
                for &id in &touched {
                    self.restamp(id)?;
                }
                self.sync_metadata();
            }
        }

        // Solve the new operating point through the incremental machinery
        // (induced clamp flips ride the batched rank-k Woodbury path).
        self.clock += 1.0;
        let state_iterations = self.dc.solve_operating_point(self.clock)?;

        // Numeric consolidation budget: rank × reach vs. factor fill.
        let rank = self.dc.outstanding_rank();
        let consolidated = if rank > 0 {
            let n = self.dc.host().circuit().node_count() as f64;
            let fill = self.dc.report().factor_nnz as f64;
            if rank as f64 * n > CONSOLIDATION_FILL_FACTOR * fill {
                self.dc.consolidate()?;
                self.consolidations += 1;
                true
            } else {
                false
            }
        } else {
            false
        };

        // Delta-apply seam auto-audit: surgery just rewired handles, so a
        // metadata desync would first become visible here.
        if cfg!(debug_assertions) {
            if let Err(err) = self.audit_metadata() {
                panic!("{err}");
            }
        }

        Ok(DeltaReport {
            value: self.flow_value(),
            edge_flows: self.edge_flows(),
            new_edge_ids,
            replanned,
            consolidated,
            state_iterations,
            cycle_breaks: usize::from(self.dc.report().cycle_break.is_some()),
        })
    }

    /// Audits the session's structural invariants: the shared
    /// factorization behind the universe substrate (see
    /// [`ohmflow_linalg::SparseLu::audit`]), the plan-cache shards, and
    /// the universe circuit's delta-surgery metadata checked against the
    /// stamped edge set (element-id uniqueness, edge/star membership
    /// closure). Debug builds also run the metadata audit automatically
    /// after every [`DeltaSession::apply_deltas`] batch.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a structured
    /// [`ohmflow_linalg::AuditError`].
    pub fn audit(&self) -> Result<(), ohmflow_linalg::AuditError> {
        self.tpl.dc_template().factor().audit()?;
        self.solver.audit_plan_cache()?;
        self.audit_metadata()
    }

    /// The delta-metadata half of [`DeltaSession::audit`]: reconstructs
    /// the universe build graph (every stamped session edge, slot order)
    /// and audits the universe circuit's surgery handles against it.
    fn audit_metadata(&self) -> Result<(), ohmflow_linalg::AuditError> {
        let meta = self.dc.host().delta_meta();
        let mut universe: Vec<Option<(usize, usize)>> = vec![None; meta.edges.len()];
        for e in &self.edges {
            if let Some(slot) = e.slot {
                if slot >= universe.len() || universe[slot].is_some() {
                    return Err(ohmflow_linalg::AuditError::new(
                        "DeltaMetadata",
                        "star-membership-closure",
                        format!("session edge slot {slot} out of range or claimed twice"),
                    ));
                }
                universe[slot] = Some((e.from, e.to));
            }
        }
        let mut edges = Vec::with_capacity(universe.len());
        for (slot, e) in universe.into_iter().enumerate() {
            match e {
                Some(pair) => edges.push(pair),
                None => {
                    return Err(ohmflow_linalg::AuditError::new(
                        "DeltaMetadata",
                        "star-membership-closure",
                        format!("universe edge {slot} has no owning session edge"),
                    ));
                }
            }
        }
        super::verify::audit_delta_metadata(meta, &edges, self.vertices, self.source, self.sink)
    }

    /// Flow value `|f|` (flow units) of the last applied batch.
    pub fn flow_value(&self) -> f64 {
        let sc = self.dc.host();
        sc.flow_value(|n| self.dc.voltage(n))
    }

    /// Per-edge flows in session id order (removed edges report 0).
    pub fn edge_flows(&self) -> Vec<f64> {
        let sc = self.dc.host();
        let universe = sc.edge_flows(|n| self.dc.voltage(n));
        self.edges
            .iter()
            .map(|e| match (e.live, e.slot) {
                (true, Some(u)) => universe[u],
                _ => 0.0,
            })
            .collect()
    }

    /// Total session edge ids assigned so far (live + removed).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Live edges.
    pub fn live_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.live).count()
    }

    /// The current live graph (session capacities, live edges only) — a
    /// fresh solver on this graph must agree with the session's flow
    /// value, which the proptest suite checks at 1e-9.
    ///
    /// # Errors
    ///
    /// Graph-construction errors (cannot occur for a validly-evolved
    /// session).
    pub fn live_graph(&self) -> Result<FlowNetwork, AnalogError> {
        let mut g = FlowNetwork::new(self.vertices, self.source, self.sink)?;
        for e in self.edges.iter().filter(|e| e.live) {
            g.add_edge(e.from, e.to, e.capacity)?;
        }
        Ok(g)
    }

    /// Re-keys the session against the plan cache (times the batch calls
    /// it when structure changed or structural debt blew its budget).
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// Budget-driven numeric consolidations so far.
    pub fn consolidations(&self) -> u64 {
        self.consolidations
    }

    /// Outstanding Woodbury rank carried by the underlying session.
    pub fn outstanding_rank(&self) -> usize {
        self.dc.outstanding_rank()
    }

    /// Linear-algebra effort counters of the underlying session.
    pub fn stats(&self) -> FrozenDcStats {
        self.dc.stats()
    }

    /// Structured accounting of the underlying session.
    pub fn report(&self) -> SolveReport {
        self.dc.report()
    }

    /// Rejects any delta the staged state cannot absorb, before anything
    /// is mutated.
    fn validate(&self, batch: &DeltaBatch) -> Result<(), AnalogError> {
        // Liveness/insert checks must track the batch's own effects
        // (remove then re-insert then set-capacity is legal in one
        // batch), so run the staging logic against a shadow liveness map.
        let mut live: Vec<bool> = self.edges.iter().map(|e| e.live).collect();
        let mut revived: Vec<usize> = Vec::new();
        let invalid = |what: String| AnalogError::InvalidConfig { what };
        let mut pending = 0usize;
        for &delta in batch.deltas() {
            match delta {
                GraphDelta::SetCapacity { edge, capacity } => {
                    if edge >= live.len() + pending {
                        return Err(invalid(format!("SetCapacity on unknown edge {edge}")));
                    }
                    let is_live = live.get(edge).copied().unwrap_or(true);
                    if !is_live {
                        return Err(invalid(format!("SetCapacity on removed edge {edge}")));
                    }
                    if capacity <= 0 {
                        return Err(invalid(format!("capacity {capacity} must be positive")));
                    }
                }
                GraphDelta::RemoveEdge { edge } => {
                    if edge >= live.len() + pending {
                        return Err(invalid(format!("RemoveEdge on unknown edge {edge}")));
                    }
                    match live.get_mut(edge) {
                        Some(l) if *l => *l = false,
                        Some(_) => {
                            return Err(invalid(format!("RemoveEdge on removed edge {edge}")))
                        }
                        // An edge inserted earlier in this batch: the
                        // staging pass handles it as remove-after-insert.
                        None => {
                            return Err(invalid(format!(
                                "RemoveEdge on edge {edge} inserted in the same batch"
                            )))
                        }
                    }
                }
                GraphDelta::InsertEdge { from, to, capacity } => {
                    if from >= self.vertices || to >= self.vertices {
                        return Err(invalid(format!(
                            "InsertEdge {from}->{to} exceeds {} vertices",
                            self.vertices
                        )));
                    }
                    if from == to {
                        return Err(invalid(format!("InsertEdge self-loop at {from}")));
                    }
                    if capacity <= 0 {
                        return Err(invalid(format!("capacity {capacity} must be positive")));
                    }
                    // Mirror the staging pass's revive-or-append choice so
                    // later ids validate consistently.
                    let revivable = self.edges.iter().enumerate().position(|(i, e)| {
                        !live[i]
                            && e.slot.is_some()
                            && e.from == from
                            && e.to == to
                            && !revived.contains(&i)
                    });
                    match revivable {
                        Some(i) => {
                            live[i] = true;
                            revived.push(i);
                        }
                        None => pending += 1,
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies exact excision/revival surgery for the given session edges
    /// (whose liveness just flipped): couplings cut to open (or restored
    /// to `r`), ghost anchors closed (or reopened), and every affected
    /// interior endpoint's star retuned to its live incident degree — all
    /// landing as one batched rank-k Woodbury push against the standing
    /// factorization ([`FrozenDcSession::set_resistances`]).
    fn apply_surgeries(&mut self, edges: &[usize]) -> Result<(), AnalogError> {
        let mut changes: Vec<(ElementId, f64)> = Vec::new();
        let mut endpoints: Vec<usize> = Vec::new();
        {
            let meta = self.dc.host().delta_meta();
            for &id in edges {
                let e = self.edges[id];
                let Some(slot) = e.slot else { continue };
                // Circulation edges stamp nothing: liveness is bookkeeping.
                let Some(s) = meta.edges[slot] else { continue };
                let (coupling, anchor) = if e.live {
                    (meta.r, f64::INFINITY)
                } else {
                    (f64::INFINITY, meta.r)
                };
                changes.push((s.u_coupling, coupling));
                if let Some(vc) = s.v_coupling {
                    changes.push((vc, coupling));
                }
                changes.push((s.anchor, anchor));
                for w in [e.from, e.to] {
                    if w != self.source && w != self.sink {
                        endpoints.push(w);
                    }
                }
            }
            endpoints.sort_unstable();
            endpoints.dedup();
            for &w in &endpoints {
                let Some(star) = meta.stars[w] else { continue };
                let n_live = self.live_widget_degree(w);
                // A fully-orphaned widget is electrically isolated; its
                // star keeps its last value (any nonzero value is fine).
                if n_live > 0 {
                    changes.push((star.element, meta.star_resistance(n_live)));
                }
            }
        }
        self.dc.set_resistances(&changes)?;
        Ok(())
    }

    /// Live non-circulation edges incident to `w` — the `n` a fresh build
    /// of the live graph would size `w`'s star negative resistor for.
    fn live_widget_degree(&self, w: usize) -> usize {
        self.edges
            .iter()
            .filter(|e| {
                e.live && e.to != self.source && e.from != self.sink && (e.from == w || e.to == w)
            })
            .count()
    }

    /// Restamps one session edge's level source for its current
    /// capacity/liveness (no-op for circulation edges and compacted-away
    /// slots).
    fn restamp(&mut self, id: usize) -> Result<(), AnalogError> {
        let edge = self.edges[id];
        let Some(slot) = edge.slot else {
            return Ok(());
        };
        let volts = clamp_volts_for(&self.solver, self.c_max, &edge);
        self.clamp_volts[slot] = volts;
        if let Some(src) = self.level_sources[slot] {
            let v_on = self.solver.options().params.diode.v_on;
            self.dc
                .set_source_value(src, SourceValue::dc(volts - v_on))?;
        }
        Ok(())
    }

    /// Pushes the mirrored clamp voltages and readout scale into the
    /// substrate metadata after value-only restamps.
    fn sync_metadata(&mut self) {
        let volts = self.clamp_volts.clone();
        let scale = self.solver.options().params.v_dd / self.c_max;
        self.dc.host_mut().set_capacity_values(volts, scale);
    }

    /// Re-keys the session: builds the universe graph (live edges, plus
    /// still-stamped removed edges unless compacting), fetches its plan
    /// through the sharded cache, restamps every level source under the
    /// session scale, and swaps in a fresh owning session. All state is
    /// constructed before anything is committed, so a failure leaves the
    /// session serving its previous universe.
    fn rebuild(&mut self, keep_removed: bool) -> Result<(), AnalogError> {
        let parts = rekey(
            &self.solver,
            self.c_max,
            self.vertices,
            self.source,
            self.sink,
            &self.edges,
            keep_removed,
        )?;

        // Commit.
        self.edges = parts.edges;
        self.dc = parts.dc;
        self.level_sources = parts.level_sources;
        self.clamp_volts = parts.clamp_volts;
        self.tpl = parts.tpl;
        Ok(())
    }
}

/// Freshly-built universe state handed back by [`rekey`].
struct Parts {
    edges: Vec<SessionEdge>,
    dc: FrozenDcSession<SubstrateCircuit>,
    level_sources: Vec<Option<ElementId>>,
    clamp_volts: Vec<f64>,
    tpl: Arc<SubstrateTemplate>,
}

/// The clamp voltage an edge's widgets should hold under the session
/// scale `c_max`: the solver's capacity mapping for live edges, `v_on`
/// for removed ones.
/// `v_on` puts the removed edge's level source at exactly **zero volts**:
/// its excised widget cluster then contains no source at all, so the
/// off-state diode leakage (`1/r_off`) that couples the cluster to the
/// level source and ground carries exactly zero current and the
/// cluster's operating point is identically zero — fresh solves of the
/// live graph (where the widgets do not exist) see the same electrical
/// network to machine precision. Both clamp diodes sit at `v_ak = 0`,
/// solidly off.
fn clamp_volts_for(solver: &MaxFlowSolver, c_max: f64, edge: &SessionEdge) -> f64 {
    let params = &solver.options().params;
    let v_dd = params.v_dd;
    if !edge.live {
        return params.diode.v_on;
    }
    match solver.options().build.capacity_mapping {
        CapacityMapping::Exact => ExactScaling::new(v_dd, c_max).to_volts(edge.capacity as f64),
        CapacityMapping::Quantized { levels } => {
            Quantizer::new(levels, v_dd, c_max).quantize(edge.capacity as f64)
        }
    }
}

/// Builds the universe graph (live edges, plus still-stamped removed
/// edges unless compacting), plans it through the solver's sharded
/// cache, restamps every level source under the **session** scale
/// (overriding the instantiation's own graph-derived scale), and opens
/// an owning incremental session on the result.
fn rekey(
    solver: &MaxFlowSolver,
    c_max: f64,
    vertices: usize,
    source: usize,
    sink: usize,
    edges: &[SessionEdge],
    keep_removed: bool,
) -> Result<Parts, AnalogError> {
    let mut shadow = edges.to_vec();
    let mut g = FlowNetwork::new(vertices, source, sink)?;
    for e in shadow.iter_mut() {
        e.slot = if e.live || (keep_removed && e.slot.is_some()) {
            let u = g.edge_count();
            g.add_edge(e.from, e.to, e.capacity)?;
            Some(u)
        } else {
            None
        };
    }

    let mut clamp_volts = vec![0.0f64; g.edge_count()];
    for e in &shadow {
        if let Some(u) = e.slot {
            clamp_volts[u] = clamp_volts_for(solver, c_max, e);
        }
    }

    let (tpl, _) = solver.template_for(&g)?;
    let mut sc = tpl.instantiate(&g)?;
    let v_on = solver.options().params.diode.v_on;
    for (u, src) in tpl.level_sources().iter().enumerate() {
        if let Some(id) = src {
            sc.circuit_mut()
                .set_source_value(*id, SourceValue::dc(clamp_volts[u] - v_on))?;
        }
    }
    sc.set_capacity_values(clamp_volts.clone(), solver.options().params.v_dd / c_max);

    // The template instantiation stamps every widget live: re-apply the
    // excision surgery for removed-but-kept edges (and the matching star
    // retunes) directly on the circuit before it is factored.
    let meta = sc.delta_meta().clone();
    if meta.retunable {
        for e in &shadow {
            if e.live {
                continue;
            }
            let Some(u) = e.slot else { continue };
            let Some(s) = meta.edges[u] else { continue };
            sc.circuit_mut()
                .set_resistance(s.u_coupling, f64::INFINITY)?;
            if let Some(vc) = s.v_coupling {
                sc.circuit_mut().set_resistance(vc, f64::INFINITY)?;
            }
            sc.circuit_mut().set_resistance(s.anchor, meta.r)?;
        }
        for (w, star) in meta.stars.iter().enumerate() {
            let Some(star) = star else { continue };
            let n_live = shadow
                .iter()
                .filter(|e| {
                    e.live && e.to != source && e.from != sink && (e.from == w || e.to == w)
                })
                .count();
            if n_live > 0 && n_live != star.n_base {
                sc.circuit_mut()
                    .set_resistance(star.element, meta.star_resistance(n_live))?;
            }
        }
    }

    let dc = solver
        .dc_solver(Some(tpl.dc_template()))
        .session(sc)?
        .with_max_rank(SESSION_MAX_RANK)
        .with_deferred_consolidation();
    let level_sources = tpl.level_sources().to_vec();
    Ok(Parts {
        edges: shadow,
        dc,
        level_sources,
        clamp_volts,
        tpl,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveOptions;
    use ohmflow_graph::generators;

    fn agree(session: &DeltaSession, solver: &MaxFlowSolver, tag: &str) {
        let g = session.live_graph().unwrap();
        let fresh = solver.solve_fresh(&g).unwrap();
        let v = session.flow_value();
        assert!(
            (v - fresh.value).abs() < 1e-9,
            "{tag}: session {v} vs fresh {}",
            fresh.value
        );
        // Analog solutions overshoot capacity by the clamp knee (~1e-4
        // relative) — physics, not surgery error. The repo-wide
        // feasibility tolerance is 0.05; value agreement is the tight
        // check above.
        assert!(
            g.validate_flow(&session.edge_flows_live(), 0.05).is_some(),
            "{tag}: session flows infeasible"
        );
    }

    impl DeltaSession {
        /// Live-edge flows in live-graph edge order (test readout helper).
        fn edge_flows_live(&self) -> Vec<f64> {
            let all = self.edge_flows();
            self.edges
                .iter()
                .enumerate()
                .filter(|(_, e)| e.live)
                .map(|(i, _)| all[i])
                .collect()
        }
    }

    #[test]
    fn capacity_drift_stays_value_only() {
        let g = generators::fig5a();
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        let mut session = solver.delta_session(&g).unwrap();
        let opening = session.apply_deltas(&DeltaBatch::new()).unwrap();
        assert!(!opening.replanned);
        agree(&session, &solver, "opening");
        for (round, cap) in [(0usize, 5i64), (1, 1), (2, 9), (3, 2)] {
            let edge = round % g.edge_count();
            let report = session
                .apply_deltas(&DeltaBatch::new().set_capacity(edge, cap))
                .unwrap();
            assert!(!report.replanned, "round {round}: capacity must not re-key");
            agree(&session, &solver, &format!("capacity round {round}"));
        }
        assert_eq!(session.replans(), 0, "value-only stream must never re-key");
    }

    #[test]
    fn remove_revive_and_novel_insert() {
        let g = generators::fig5a();
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        let mut session = solver.delta_session(&g).unwrap();

        // Removal: exact excision surgery, no re-key.
        let report = session
            .apply_deltas(&DeltaBatch::new().remove_edge(0))
            .unwrap();
        assert!(!report.replanned, "removal must stay value-only");
        assert_eq!(report.edge_flows[0], 0.0, "removed edge carries no flow");
        agree(&session, &solver, "after removal");

        // Revive of the still-stamped edge: value restamp, same id back.
        let (from, to, _) = {
            let e = &g.edges()[0];
            (e.from, e.to, e.capacity)
        };
        let report = session
            .apply_deltas(&DeltaBatch::new().insert_edge(from, to, 7))
            .unwrap();
        assert!(!report.replanned, "revive must stay value-only");
        assert_eq!(report.new_edge_ids, vec![0], "revive reuses the id");
        agree(&session, &solver, "after revive");
        assert_eq!(session.replans(), 0);

        // A novel endpoint pair re-keys against the plan cache.
        let report = session
            .apply_deltas(&DeltaBatch::new().insert_edge(1, 3, 3))
            .unwrap();
        assert!(report.replanned, "novel structure must re-key");
        assert_eq!(report.new_edge_ids, vec![g.edge_count()]);
        agree(&session, &solver, "after novel insert");
        assert_eq!(session.replans(), 1);
    }

    #[test]
    fn structural_debt_triggers_compaction() {
        let g = generators::parallel_paths(25, 4).unwrap();
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        let mut session = solver.delta_session(&g).unwrap();

        // Remove 16 source legs (edge 2i is source->v_i): at debt 16 the
        // budget (> max(16, live/4)) has not blown yet.
        let mut batch = DeltaBatch::new();
        for path in 0..16 {
            batch = batch.remove_edge(2 * path);
        }
        let report = session.apply_deltas(&batch).unwrap();
        assert!(!report.replanned, "16 removals fit the debt budget");
        agree(&session, &solver, "debt at budget");

        // The 17th removal blows the budget: the re-key compacts the
        // removed widgets out of the universe.
        let report = session
            .apply_deltas(&DeltaBatch::new().remove_edge(32))
            .unwrap();
        assert!(report.replanned, "17th removal must compact");
        assert_eq!(session.replans(), 1);
        agree(&session, &solver, "after compaction");

        // A compacted edge's widgets are gone: re-inserting those
        // endpoints is novel structure now, under a fresh session id.
        let report = session
            .apply_deltas(&DeltaBatch::new().insert_edge(0, 1, 4))
            .unwrap();
        assert!(report.replanned, "post-compaction insert is novel");
        assert_eq!(report.new_edge_ids, vec![session.edge_count() - 1]);
        agree(&session, &solver, "after post-compaction insert");
    }

    #[test]
    fn remove_then_revive_on_an_op_amp_build() {
        // Op-amp negative resistors are not retunable, so the removal
        // compacts structurally; the revive in the same batch must not
        // drive the structural debt below zero.
        let g = generators::fig5a();
        let solver = MaxFlowSolver::new(SolveOptions::evaluation_quasi_static(10e9));
        let mut session = solver.delta_session(&g).unwrap();
        let (from, to) = (g.edges()[0].from, g.edges()[0].to);
        let report = session
            .apply_deltas(&DeltaBatch::new().remove_edge(0).insert_edge(from, to, 3))
            .unwrap();
        assert!(report.replanned, "op-amp removals re-key");
        assert_eq!(report.new_edge_ids, vec![0], "revive reuses the id");
        let fresh = solver.solve_fresh(&session.live_graph().unwrap()).unwrap();
        assert!(
            (report.value - fresh.value).abs() < 1e-9,
            "session {} vs fresh {}",
            report.value,
            fresh.value
        );
    }

    #[test]
    fn invalid_batches_are_rejected_atomically() {
        let g = generators::fig5a();
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        let mut session = solver.delta_session(&g).unwrap();
        let before = session.apply_deltas(&DeltaBatch::new()).unwrap().value;

        let bad: Vec<DeltaBatch> = vec![
            DeltaBatch::new().set_capacity(99, 5),
            DeltaBatch::new().set_capacity(0, 0),
            DeltaBatch::new().remove_edge(99),
            DeltaBatch::new().remove_edge(0).remove_edge(0),
            DeltaBatch::new().insert_edge(0, 0, 5),
            DeltaBatch::new().insert_edge(0, 99, 5),
            DeltaBatch::new().insert_edge(1, 2, -3),
            // Valid prefix, invalid tail: nothing may stick.
            DeltaBatch::new().set_capacity(0, 8).remove_edge(77),
        ];
        for (i, batch) in bad.iter().enumerate() {
            let err = session.apply_deltas(batch);
            assert!(
                matches!(err, Err(AnalogError::InvalidConfig { .. })),
                "batch {i} must be rejected, got {err:?}"
            );
        }
        let after = session.apply_deltas(&DeltaBatch::new()).unwrap().value;
        assert!(
            (before - after).abs() < 1e-12,
            "rejected batches must leave the session untouched"
        );
        assert_eq!(session.replans(), 0);
    }

    #[test]
    fn capacity_growth_rescales_every_level_source() {
        let g = generators::fig5a();
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        let mut session = solver.delta_session(&g).unwrap();
        // Blow far past the opening c_max: the scale change restamps all
        // stamped level sources but must stay value-only.
        let report = session
            .apply_deltas(&DeltaBatch::new().set_capacity(0, 1000))
            .unwrap();
        assert!(!report.replanned, "scale growth must stay value-only");
        agree(&session, &solver, "after scale growth");
        // Shrinking back moves the live maximum (and thus the scale)
        // down again — another full restamp, still value-only.
        let report = session
            .apply_deltas(&DeltaBatch::new().set_capacity(0, 2))
            .unwrap();
        assert!(!report.replanned);
        agree(&session, &solver, "after shrink under grown scale");
    }

    #[test]
    fn delta_walk_consolidates_and_stays_exact() {
        let g = generators::layered(4, 4, 9, 7).unwrap();
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        let mut session = solver.delta_session(&g).unwrap();
        // A long drift walk whose capacity swings force clamp-state flips
        // (Woodbury rank) on most batches; the numeric budget must
        // eventually consolidate and correctness must never degrade.
        let edges = g.edge_count();
        for step in 0..40usize {
            let edge = (step * 7 + 3) % edges;
            let cap = 1 + ((step * 11) % 9) as i64;
            session
                .apply_deltas(&DeltaBatch::new().set_capacity(edge, cap))
                .unwrap();
            if step % 8 == 0 {
                agree(&session, &solver, &format!("walk step {step}"));
            }
        }
        agree(&session, &solver, "walk end");
        assert_eq!(session.replans(), 0, "capacity walk must never re-key");
    }
}
