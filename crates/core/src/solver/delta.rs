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
//! fresh build of the live graph would stamp (stars retune to the
//! builder's own [`SubstrateParams::star_resistance`](crate::SubstrateParams::star_resistance)),
//! so session results agree with fresh solves to solver precision — not
//! to a soft-clamp tolerance.
//!
//! Two budgets keep the incremental state healthy:
//!
//! * **numeric — push or replay**: one cost model, counted once per
//!   factor from its symbolic structure, prices a triangular solve, a
//!   full numeric replay (`c³/3` per dense core plus the pre-core
//!   updates), a pushed Woodbury term (one solve) and the tax outstanding
//!   terms levy on every later solve (the refinement solve plus two dense
//!   axpys per term). The session's rank budget
//!   ([`DeltaSession::rank_budget`]) is the largest rank whose lifetime,
//!   grown one term per solve, costs no more than one replay: a batch's
//!   surgery or flip cascade that would exceed it replays the factor
//!   instead of pushing. After each batch the session consolidates — a
//!   numeric-only refactorization
//!   ([`FrozenDcSession::consolidate`](ohmflow_circuit::FrozenDcSession))
//!   — when the outstanding terms' tax on that batch's solves exceeded
//!   one replay. No clock enters either decision. The budget reads 3 on
//!   rmat256, where a replay costs ~12 solves, and 36 on rmat2048, where
//!   it costs ~50; measured on a 2-core host, rmat256 cut batches run
//!   fastest at budgets 0–8 and rmat2048 mixed batches at 32–64
//!   (`DESIGN.md` has the sweep);
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
use ohmflow_linalg::SymbolicLu;

use crate::builder::{capacity_volts, DeltaMetadata, SubstrateCircuit};
use crate::params::SubstrateParams;
use crate::template::SubstrateTemplate;
use crate::AnalogError;

use super::{MaxFlowSolver, SolveOptions};

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
    /// The owning incremental session over the universe substrate; its
    /// host holds the clamp voltages and readout scale.
    dc: FrozenDcSession<SubstrateCircuit>,
    /// The universe's plan; its per-edge level-source ids are what
    /// capacity restamps write.
    tpl: Arc<SubstrateTemplate>,
    /// The universe factor's push-or-replay costs.
    costs: FactorCosts,
    /// Monotone pseudo-time fed to the DC solves.
    clock: f64,
    replans: u64,
    consolidations: u64,
}

/// The push-or-replay cost model of one factor, in multiply-adds counted
/// from its symbolic structure once per factor. No clock enters it, so
/// the decisions it drives — the rank budget and the end-of-batch
/// consolidation — are the same on every run and every machine.
#[derive(Debug, Clone, Copy)]
struct FactorCosts {
    /// Unknowns: one outstanding term's dense axpy per correction.
    n: u64,
    /// One triangular solve: every stored factor entry once, plus a pass
    /// over the unknowns. A pushed term pays one (its column of
    /// `Z = A⁻¹U`), and so does the refinement each solve makes while any
    /// term is outstanding.
    solve: u64,
    /// One full numeric replay: each step's updates by the `L` columns
    /// its `U` column names (`Σₖ Σ_{j∈U(k)} |L(j)|`, which is `c³/3` for
    /// a dense core of `c` steps, plus the pre-core updates), and a write
    /// of every stored entry.
    replay: u64,
}

impl FactorCosts {
    fn of(sym: &SymbolicLu) -> Self {
        let n = sym.dim();
        let updates: usize = (0..n)
            .flat_map(|k| sym.u_column_steps(k))
            .map(|j| sym.l_column_rows(j).len())
            .sum();
        let stored = sym.pattern_nnz() as u64;
        FactorCosts {
            n: n as u64,
            solve: stored + n as u64,
            replay: stored + updates as u64,
        }
    }

    /// What every solve pays while `rank` terms are outstanding: the
    /// refinement solve, plus `rank` dense axpys in each of the two
    /// corrections (solution and refinement step).
    fn solve_tax(&self, rank: usize) -> u64 {
        self.solve + 2 * rank as u64 * self.n
    }

    /// The rank budget handed to the session: the largest `B` whose
    /// lifetime costs no more than one replay, when the rank grows one
    /// term per solve — each term pays its push solve, and the solve at
    /// rank `r` pays [`FactorCosts::solve_tax`]`(r)`:
    /// `Σ_{r=1..B} (solve + tax(r)) = 2B·solve + n·B(B+1) ≤ replay`.
    /// Beyond it a replay absorbs the same flips for less. On the ideal
    /// universes of `fig10_instance(v, false, 1)` this gives 3 at
    /// `v = 256` (`delta_stream`'s fabric), 17 at 1024 and 36 at 2048; 1
    /// on grid40.
    fn rank_budget(&self) -> usize {
        let mut lifetime = 0;
        (1..)
            .take_while(|&r| {
                lifetime += self.solve + self.solve_tax(r);
                lifetime <= self.replay
            })
            .count()
    }

    /// End-of-batch consolidation: fold the outstanding `rank` terms into
    /// the factor when the tax they levied on the batch's `solves` would
    /// have paid for a replay — the next batch, solving as often, would
    /// pay it again.
    fn consolidate(&self, rank: usize, solves: usize) -> bool {
        rank > 0 && solves as u64 * self.solve_tax(rank) > self.replay
    }
}

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
            tpl: parts.tpl,
            costs: parts.costs,
            clock: 0.0,
            replans: 0,
            consolidations: 0,
            solver,
        })
    }

    /// Applies one batch of deltas, solves the resulting graph's
    /// operating point, and reports the new flow assignment.
    ///
    /// Atomicity: the batch is staged delta-by-delta on a copy of the
    /// edge table, and nothing is committed before the whole batch has
    /// staged; an invalid delta ([`AnalogError::InvalidConfig`]) or a
    /// failed re-key leaves the session exactly as it was. A solve failure
    /// after a valid batch poisons only the cached operating point (the
    /// session recovers on the next solvable batch), matching the
    /// underlying session's recovery semantics.
    ///
    /// # Errors
    ///
    /// [`AnalogError::InvalidConfig`] for out-of-range or dead edge ids,
    /// non-positive capacities, or degenerate insertions; circuit errors
    /// propagate from the solve.
    pub fn apply_deltas(&mut self, batch: &DeltaBatch) -> Result<DeltaReport, AnalogError> {
        let invalid = |what: String| Err(AnalogError::InvalidConfig { what });

        // Stage the batch on a copy of the edge table. Ids at or past
        // `opened` are this batch's novel inserts.
        let mut edges = self.edges.clone();
        let opened = edges.len();
        let mut new_edge_ids = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        let mut flipped: Vec<usize> = Vec::new();
        let mut structural = false;
        for &delta in batch.deltas() {
            match delta {
                GraphDelta::SetCapacity { edge, capacity } => {
                    match edges.get(edge) {
                        None => return invalid(format!("SetCapacity on unknown edge {edge}")),
                        Some(e) if !e.live => {
                            return invalid(format!("SetCapacity on removed edge {edge}"))
                        }
                        Some(_) => {}
                    }
                    if capacity <= 0 {
                        return invalid(format!("capacity {capacity} must be positive"));
                    }
                    edges[edge].capacity = capacity;
                    touched.push(edge);
                }
                GraphDelta::RemoveEdge { edge } => {
                    match edges.get(edge) {
                        None => return invalid(format!("RemoveEdge on unknown edge {edge}")),
                        Some(_) if edge >= opened => {
                            return invalid(format!(
                                "RemoveEdge on edge {edge} inserted in the same batch"
                            ))
                        }
                        Some(e) if !e.live => {
                            return invalid(format!("RemoveEdge on removed edge {edge}"))
                        }
                        Some(_) => {}
                    }
                    edges[edge].live = false;
                    // `touched` zeroes the level source (see
                    // [`clamp_volts_for`]); `flipped` runs the surgery.
                    touched.push(edge);
                    flipped.push(edge);
                }
                GraphDelta::InsertEdge { from, to, capacity } => {
                    if from >= self.vertices || to >= self.vertices {
                        return invalid(format!(
                            "InsertEdge {from}->{to} exceeds {} vertices",
                            self.vertices
                        ));
                    }
                    if from == to {
                        return invalid(format!("InsertEdge self-loop at {from}"));
                    }
                    if capacity <= 0 {
                        return invalid(format!("capacity {capacity} must be positive"));
                    }
                    let revivable = edges
                        .iter()
                        .position(|e| !e.live && e.slot.is_some() && e.from == from && e.to == to);
                    match revivable {
                        Some(id) => {
                            edges[id].live = true;
                            edges[id].capacity = capacity;
                            touched.push(id);
                            flipped.push(id);
                            new_edge_ids.push(id);
                        }
                        None => {
                            new_edge_ids.push(edges.len());
                            edges.push(SessionEdge {
                                from,
                                to,
                                capacity,
                                live: true,
                                slot: None,
                            });
                            structural = true;
                        }
                    }
                }
            }
        }

        // The readout scale must track the *live* graph's maximum exactly
        // (see the `c_max` field docs), whichever way it moved.
        let c_max = edges
            .iter()
            .filter(|e| e.live)
            .map(|e| e.capacity)
            .max()
            .unwrap_or(1)
            .max(1) as f64;

        // Route the staged state onto the cheapest mechanism. The
        // structural debt is the removed edges whose widgets are still
        // stamped in the universe.
        let live = edges.iter().filter(|e| e.live).count();
        let debt = edges.iter().filter(|e| !e.live && e.slot.is_some()).count();
        let compact = debt > 16.max(live / 4);
        let replanned = structural || compact;
        if replanned {
            let parts = rekey(
                &self.solver,
                c_max,
                self.vertices,
                self.source,
                self.sink,
                &edges,
                !compact,
            )?;
            self.edges = parts.edges;
            self.dc = parts.dc;
            self.tpl = parts.tpl;
            self.costs = parts.costs;
            self.c_max = c_max;
            self.replans += 1;
        } else {
            // Liveness flips first (excision/revival surgery), then the
            // level-source restamps — both value-only.
            let scale_changed = c_max != self.c_max;
            self.edges = edges;
            self.c_max = c_max;
            flipped.sort_unstable();
            flipped.dedup();
            if !flipped.is_empty() {
                let changes = excision(
                    self.dc.host().delta_meta(),
                    &self.solver.options().params,
                    (self.source, self.sink),
                    &self.edges,
                    &flipped,
                );
                self.dc.set_resistances(&changes)?;
            }
            if scale_changed {
                // The voltage scale moved: the readout scale and every
                // stamped level source get the new mapping — still
                // value-only against the standing factor.
                let volts_per_flow = self.solver.options().params.v_dd / c_max;
                self.dc.host_mut().set_volts_per_flow(volts_per_flow);
                for id in 0..self.edges.len() {
                    self.restamp(id)?;
                }
            } else {
                for &id in &touched {
                    self.restamp(id)?;
                }
            }
        }

        // Solve the new operating point through the incremental machinery
        // (induced clamp flips ride the batched rank-k Woodbury path).
        self.clock += 1.0;
        let state_iterations = self.dc.solve_operating_point(self.clock)?;

        // Numeric consolidation: the outstanding terms' tax on this
        // batch's solves against one replay.
        let consolidated = self
            .costs
            .consolidate(self.dc.outstanding_rank(), state_iterations);
        if consolidated {
            self.dc.consolidate()?;
            self.consolidations += 1;
        }

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

    /// The most outstanding Woodbury terms the session carries before a
    /// batch's surgery or flip cascade replays the factor instead of
    /// pushing — derived from the universe factor's structure (see the
    /// module docs).
    pub fn rank_budget(&self) -> usize {
        self.costs.rank_budget()
    }

    /// Linear-algebra effort counters of the underlying session.
    pub fn stats(&self) -> FrozenDcStats {
        self.dc.stats()
    }

    /// Structured accounting of the underlying session.
    pub fn report(&self) -> SolveReport {
        self.dc.report()
    }

    /// Restamps one session edge's clamp voltage (host metadata and, for
    /// clamped edges, the level source) for its current capacity and
    /// liveness under the session scale; compacted-away edges have
    /// nothing to restamp.
    fn restamp(&mut self, id: usize) -> Result<(), AnalogError> {
        let edge = self.edges[id];
        let Some(slot) = edge.slot else {
            return Ok(());
        };
        let opts = self.solver.options();
        let volts = clamp_volts_for(opts, self.c_max, &edge);
        self.dc.host_mut().set_clamp_volts(slot, volts);
        if let Some(src) = self.tpl.level_sources()[slot] {
            self.dc
                .set_source_value(src, SourceValue::dc(volts - opts.params.diode.v_on))?;
        }
        Ok(())
    }
}

/// Freshly-built universe state handed back by [`rekey`].
struct Parts {
    edges: Vec<SessionEdge>,
    dc: FrozenDcSession<SubstrateCircuit>,
    tpl: Arc<SubstrateTemplate>,
    costs: FactorCosts,
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
fn clamp_volts_for(opts: &SolveOptions, c_max: f64, edge: &SessionEdge) -> f64 {
    if !edge.live {
        return opts.params.diode.v_on;
    }
    capacity_volts(opts.build.capacity_mapping, opts.params.v_dd, c_max)(edge.capacity)
}

/// Live non-circulation edges incident to `w` — the `n` a fresh build of
/// the live graph sizes `w`'s star negative resistor for.
fn live_degree(edges: &[SessionEdge], (source, sink): (usize, usize), w: usize) -> usize {
    edges
        .iter()
        .filter(|e| e.live && e.to != source && e.from != sink && (e.from == w || e.to == w))
        .count()
}

/// The excision surgery for session edges `ids` as resistor values: each
/// stamped edge's couplings at `r` and ghost anchor open when it is live,
/// couplings open and anchor at `r` when it is removed, and every
/// interior endpoint's star at `star_resistance(live degree)` — the
/// values a fresh build of the live graph stamps. Edges without widgets
/// (circulation edges, compacted-away slots) contribute nothing, and a
/// fully-orphaned widget's star keeps its last value (it is electrically
/// isolated; any nonzero value is fine). Delta batches push the result
/// as one rank-k update; re-keys stamp it before factoring.
fn excision(
    meta: &DeltaMetadata,
    params: &SubstrateParams,
    terminals: (usize, usize),
    edges: &[SessionEdge],
    ids: &[usize],
) -> Vec<(ElementId, f64)> {
    let mut changes: Vec<(ElementId, f64)> = Vec::new();
    let mut endpoints: Vec<usize> = Vec::new();
    for &id in ids {
        let e = edges[id];
        let Some(slot) = e.slot else { continue };
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
        endpoints.extend(
            [e.from, e.to]
                .into_iter()
                .filter(|&w| w != terminals.0 && w != terminals.1),
        );
    }
    endpoints.sort_unstable();
    endpoints.dedup();
    for w in endpoints {
        let Some(star) = meta.stars[w] else { continue };
        let n_live = live_degree(edges, terminals, w);
        if n_live > 0 {
            changes.push((star.element, params.star_resistance(n_live)));
        }
    }
    changes
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

    let opts = solver.options();
    let mut clamp_volts = vec![0.0f64; g.edge_count()];
    for e in &shadow {
        if let Some(u) = e.slot {
            clamp_volts[u] = clamp_volts_for(opts, c_max, e);
        }
    }

    let (tpl, _) = solver.template_for(&g)?;
    let mut sc = tpl.instantiate(&g)?;
    let v_on = opts.params.diode.v_on;
    for (u, src) in tpl.level_sources().iter().enumerate() {
        if let Some(id) = src {
            sc.circuit_mut()
                .set_source_value(*id, SourceValue::dc(clamp_volts[u] - v_on))?;
        }
    }
    sc.set_capacity_values(clamp_volts, opts.params.v_dd / c_max);

    // The template instantiation stamps every widget live: excise the
    // removed-but-kept edges (and retune their endpoint stars) on the
    // circuit before it is factored.
    let removed: Vec<usize> = (0..shadow.len())
        .filter(|&i| !shadow[i].live && shadow[i].slot.is_some())
        .collect();
    let changes = excision(
        sc.delta_meta(),
        &opts.params,
        (source, sink),
        &shadow,
        &removed,
    );
    for (id, ohms) in changes {
        sc.circuit_mut().set_resistance(id, ohms)?;
    }

    let costs = FactorCosts::of(tpl.dc_template().factor().symbolic());
    let dc = solver
        .dc_solver(Some(tpl.dc_template()))
        .session(sc)?
        .with_max_rank(costs.rank_budget())
        .with_deferred_consolidation();
    Ok(Parts {
        edges: shadow,
        dc,
        tpl,
        costs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveOptions;
    use ohmflow_circuit::Element;
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
        // Every star with live edges, retuned or not, holds the bits a
        // fresh build of the live graph stamps.
        let opts = solver.options();
        let built = crate::builder::build(&g, &opts.params, &opts.build).unwrap();
        let bits = |sc: &SubstrateCircuit, id| match *sc.circuit().element(id) {
            Element::Resistor { resistance, .. } => resistance.to_bits(),
            _ => unreachable!("star handles name resistors"),
        };
        let host = session.dc.host();
        for (w, star) in host.delta_meta().stars.iter().enumerate() {
            let Some(star) = star else { continue };
            if live_degree(&session.edges, (session.source, session.sink), w) > 0 {
                let fresh = built.delta_meta().stars[w].unwrap().element;
                assert_eq!(
                    bits(host, star.element),
                    bits(&built, fresh),
                    "{tag}: star {w}"
                );
            }
        }
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
    fn remove_then_revive_in_one_batch() {
        // The removal and the revive of the same edge stage in one batch:
        // the revive reuses the id and the surgery stays value-only.
        let g = generators::path(&[5, 2, 9]).unwrap();
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        let mut session = solver.delta_session(&g).unwrap();
        let (from, to) = (g.edges()[0].from, g.edges()[0].to);
        let report = session
            .apply_deltas(&DeltaBatch::new().remove_edge(0).insert_edge(from, to, 3))
            .unwrap();
        assert!(!report.replanned, "remove + revive is value-only surgery");
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
            // An edge inserted earlier in the same batch cannot be removed.
            DeltaBatch::new()
                .insert_edge(1, 3, 3)
                .remove_edge(g.edge_count()),
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
    fn batches_stage_against_their_own_earlier_deltas() {
        let g = generators::fig5a();
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        let mut session = solver.delta_session(&g).unwrap();
        let (from, to) = (g.edges()[0].from, g.edges()[0].to);

        // A capacity update on an edge inserted earlier in the batch.
        let novel = session.edge_count();
        let report = session
            .apply_deltas(
                &DeltaBatch::new()
                    .insert_edge(1, 3, 3)
                    .set_capacity(novel, 6),
            )
            .unwrap();
        assert_eq!(report.new_edge_ids, vec![novel]);
        assert_eq!(session.edges[novel].capacity, 6);
        agree(&session, &solver, "insert then set capacity");

        // A revival followed by a removal of the same edge leaves it
        // removed.
        session
            .apply_deltas(&DeltaBatch::new().remove_edge(0))
            .unwrap();
        let live = session.live_edge_count();
        let report = session
            .apply_deltas(&DeltaBatch::new().insert_edge(from, to, 7).remove_edge(0))
            .unwrap();
        assert_eq!(report.new_edge_ids, vec![0], "the insert revives edge 0");
        assert!(!report.replanned, "revive and removal stay value-only");
        assert_eq!(session.live_edge_count(), live);
        assert_eq!(report.edge_flows[0], 0.0, "edge 0 stays removed");
        agree(&session, &solver, "revive then remove");

        // Two inserts of the removed pair: one revival, one novel id.
        let novel = session.edge_count();
        let report = session
            .apply_deltas(
                &DeltaBatch::new()
                    .insert_edge(from, to, 4)
                    .insert_edge(from, to, 5),
            )
            .unwrap();
        assert_eq!(report.new_edge_ids, vec![0, novel]);
        assert!(report.replanned, "the second insert is novel structure");
        agree(&session, &solver, "two inserts of one removed pair");
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
