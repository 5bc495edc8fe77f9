//! The staged public API of the analog max-flow stack: **one
//! configuration, four stages.**
//!
//! ```text
//!  SolveOptions ──> MaxFlowSolver ──plan──> Plan ──instance──> Instance ──session──> Session
//!                        │                   │                    │
//!                        │                   │ (topology-keyed    │ solve() → AnalogSolution
//!                        │                   │  symbolic work,    │ (quasi-static or
//!                        │                   │  cached)           │  relaxation transient)
//!                        └── solve / solve_fresh / solve_many (conveniences over the stages)
//! ```
//!
//! The substrate of the paper is reconfigurable by design — one physical
//! fabric, many programmed instances — and the API mirrors that split:
//!
//! * [`MaxFlowSolver::plan`] runs the **topology-dependent cold path**
//!   once per graph shape (substrate build, MNA structure, AMD+BTF
//!   ordering, symbolic LU) and caches it by [`TemplateKey`];
//! * [`Plan::instance`] is a **value-only re-instantiation** — any
//!   capacity assignment on the planned topology is a source restamp away;
//! * [`Instance::solve`] runs the configured simulation mode and
//!   [`Instance::session`] opens an **incremental frozen-DC session** for
//!   clamp-flip / transient work that pays only numeric updates per step.
//!
//! This is the one public solve surface: the legacy entry points
//! (`AnalogMaxFlow::solve*`, the circuit crate's `DcAnalysis` /
//! `FrozenDcSession` constructors) were pinned equivalent at 1e-12 by the
//! `facade_equivalence` suite and then removed. The plan cache behind
//! [`MaxFlowSolver::plan`] is sharded and concurrent (fingerprint-first
//! lookups, single-flight cold paths, LRU eviction under
//! [`SolveOptions::plan_cache_bytes`]); the `ohmflow-serve` binary wraps
//! this facade as a multi-tenant network service.

use std::collections::HashMap;
use std::sync::Arc;

use ohmflow_circuit::{
    Circuit, ColumnOrdering, DcTemplate, ElementId, FrozenDcPhases, FrozenDcSession, FrozenDcStats,
    LuOptions, NodeId, SolveReport,
};
use ohmflow_graph::FlowNetwork;
use rayon::prelude::*;

use crate::builder::{BuildOptions, CapacityMapping, SubstrateCircuit};
use crate::params::SubstrateParams;
use crate::template::{self, SubstrateTemplate, TemplateKey};
use crate::AnalogError;

use super::delta::DeltaSession;
use super::{
    AnalogConfig, AnalogMaxFlow, AnalogSolution, PlanCacheStats, RelaxationEngine, SolveMode,
    SolverTuning, DEFAULT_CAPACITY_BYTES,
};

/// The one consolidated configuration of the staged solver, absorbing what
/// used to be spread over `AnalogConfig`, `BuildOptions::lu_ordering`,
/// `LuOptions`, `RelaxationEngine` and the session phase-timing toggle.
///
/// **Option precedence:** [`SolveOptions::lu`] is the single source of
/// truth for factorization options. On [`MaxFlowSolver::new`] the options
/// are normalized — `build.lu_ordering` is overwritten with `lu.ordering`
/// — so the topology cache key, every template's symbolic plan and every
/// fallback fresh factorization agree on one ordering by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Substrate design parameters (Table 1).
    pub params: SubstrateParams,
    /// Circuit construction options. `build.lu_ordering` is kept in sync
    /// with [`SolveOptions::lu`] (see the precedence note above).
    pub build: BuildOptions,
    /// Simulation mode.
    pub mode: SolveMode,
    /// Convergence band for the §5.1 settle-time measurement.
    pub settle_fraction: f64,
    /// Relaxation-transient solve backend.
    pub engine: RelaxationEngine,
    /// Factorization options (column ordering, pivoting thresholds) for
    /// every LU in the stack — plans, sessions, cold fallbacks.
    pub lu: LuOptions,
    /// Per-phase wall-clock attribution on sessions (off by default:
    /// clock reads tax small systems).
    pub phase_timing: bool,
    /// Byte capacity of the sharded plan cache (LRU eviction engages
    /// above it; each resident plan is costed from its factorization
    /// fill). The default is generous — eviction only matters for
    /// long-running multi-tenant servers cycling through many topologies.
    pub plan_cache_bytes: usize,
}

impl SolveOptions {
    /// Ideal configuration: exact capacities, ideal negative resistors,
    /// quasi-static solve (see [`AnalogConfig::ideal`]).
    pub fn ideal() -> Self {
        Self::from_config(AnalogConfig::ideal())
    }

    /// The §5.1 evaluation configuration (see [`AnalogConfig::evaluation`]).
    pub fn evaluation(gbw_hz: f64) -> Self {
        Self::from_config(AnalogConfig::evaluation(gbw_hz))
    }

    /// Like [`SolveOptions::evaluation`] but solved quasi-statically (see
    /// [`AnalogConfig::evaluation_quasi_static`]).
    pub fn evaluation_quasi_static(gbw_hz: f64) -> Self {
        Self::from_config(AnalogConfig::evaluation_quasi_static(gbw_hz))
    }

    /// Lifts a legacy [`AnalogConfig`] into the consolidated options
    /// (factorization options derived from the build's ordering, phase
    /// timing off).
    pub fn from_config(config: AnalogConfig) -> Self {
        SolveOptions {
            lu: config.build.lu_options(),
            params: config.params,
            build: config.build,
            mode: config.mode,
            settle_fraction: config.settle_fraction,
            engine: config.engine,
            phase_timing: false,
            plan_cache_bytes: DEFAULT_CAPACITY_BYTES,
        }
    }

    /// Sets the LU column ordering (through [`SolveOptions::lu`], the
    /// single source of truth).
    pub fn with_ordering(mut self, ordering: ColumnOrdering) -> Self {
        self.lu.ordering = ordering;
        self
    }

    /// Sets the simulation mode.
    pub fn with_mode(mut self, mode: SolveMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the relaxation-transient backend.
    pub fn with_engine(mut self, engine: RelaxationEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Enables per-phase wall-clock attribution on sessions.
    pub fn with_phase_timing(mut self, on: bool) -> Self {
        self.phase_timing = on;
        self
    }

    /// Sets the plan cache's byte capacity (LRU eviction engages above
    /// it). Long-running servers cycling through many topologies set this
    /// to bound resident symbolic state; short-lived solvers keep the
    /// generous default.
    pub fn with_plan_cache_bytes(mut self, bytes: usize) -> Self {
        self.plan_cache_bytes = bytes;
        self
    }

    /// The options with the precedence rule applied: `build.lu_ordering`
    /// is overwritten with `lu.ordering`, so the build/template layer can
    /// never disagree with the factorization layer about the ordering.
    pub fn normalized(&self) -> Self {
        let mut n = self.clone();
        n.build.lu_ordering = n.lu.ordering;
        n
    }

    /// Splits the options into the engine's legacy configuration plus the
    /// tuning it never expressed. Callers normalize first
    /// ([`SolveOptions::normalized`]).
    fn into_parts(self) -> (AnalogConfig, SolverTuning) {
        (
            AnalogConfig {
                params: self.params,
                build: self.build,
                mode: self.mode,
                settle_fraction: self.settle_fraction,
                engine: self.engine,
            },
            SolverTuning {
                lu: Some(self.lu),
                phase_timing: self.phase_timing,
                plan_cache_bytes: Some(self.plan_cache_bytes),
            },
        )
    }
}

/// Stage one: the configured solver. Cheap to clone; clones share the
/// topology-keyed plan cache (and therefore amortize cold paths across
/// threads).
///
/// # Example
///
/// ```
/// use ohmflow::solver::facade::{MaxFlowSolver, SolveOptions};
/// use ohmflow_graph::generators::fig5a;
///
/// # fn main() -> Result<(), ohmflow::AnalogError> {
/// let g = fig5a();
/// let solver = MaxFlowSolver::new(SolveOptions::ideal());
/// let plan = solver.plan(&g)?;          // cold path, cached by topology
/// let solution = plan.instance(&g)?.solve()?;   // value-only + numeric work
/// assert!((solution.value - 2.0).abs() < 0.05); // exact max flow is 2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MaxFlowSolver {
    engine: AnalogMaxFlow,
    opts: SolveOptions,
}

/// One unit of work for [`MaxFlowSolver::solve_problem`] /
/// [`MaxFlowSolver::solve_many`]: either a graph to map onto the substrate
/// or an already-built (typically perturbed) substrate realization.
#[derive(Debug, Clone, Copy)]
pub enum Problem<'a> {
    /// A max-flow instance; solved in the configured mode, sharing plans
    /// across same-topology batch members.
    Graph(&'a FlowNetwork),
    /// An already-built substrate realization of `graph` (the variation /
    /// tuning-sweep shape); solved with the **relaxation transient**, the
    /// way the physical circuit settles — same-structure members share one
    /// symbolic factorization.
    Built {
        /// The built (possibly perturbed) substrate circuit.
        circuit: &'a SubstrateCircuit,
        /// The graph the circuit realizes (readout scale + window sizing).
        graph: &'a FlowNetwork,
    },
}

impl<'a> From<&'a FlowNetwork> for Problem<'a> {
    fn from(g: &'a FlowNetwork) -> Self {
        Problem::Graph(g)
    }
}

impl MaxFlowSolver {
    /// Creates a staged solver from consolidated options (normalizing them
    /// first — see [`SolveOptions::normalized`]).
    pub fn new(opts: SolveOptions) -> Self {
        let opts = opts.normalized();
        let (config, tuning) = opts.clone().into_parts();
        MaxFlowSolver {
            engine: AnalogMaxFlow::with_tuning(config, tuning),
            opts,
        }
    }

    /// A staged solver over a legacy [`AnalogConfig`] — shorthand for
    /// `MaxFlowSolver::new(SolveOptions::from_config(config))`.
    pub fn from_config(config: AnalogConfig) -> Self {
        Self::new(SolveOptions::from_config(config))
    }

    /// The normalized options this solver runs under.
    pub fn options(&self) -> &SolveOptions {
        &self.opts
    }

    /// The underlying engine (legacy interop: its template cache is this
    /// solver's plan cache).
    pub fn engine(&self) -> &AnalogMaxFlow {
        &self.engine
    }

    /// Stage two: the topology-dependent cold path for `g`'s shape
    /// (substrate skeleton, MNA structure, fill-reducing ordering,
    /// symbolic + one numeric LU), served from the topology-keyed cache
    /// when the shape was planned before (see [`Plan::cache_hit`]).
    ///
    /// # Errors
    ///
    /// Propagates substrate-construction and factorization failures.
    pub fn plan(&self, g: &FlowNetwork) -> Result<Plan, AnalogError> {
        let (tpl, cache_hit) = self.engine.template_for_inner(g)?;
        Ok(Plan {
            engine: self.engine.clone(),
            tpl,
            cache_hit,
        })
    }

    /// Convenience over the stages: plan (cached) → instance → solve.
    /// Exactly the legacy `solve_templated` semantics, including the
    /// fall-back to the cold path for the full-MNA ablation mode (which
    /// has no templated fast path).
    ///
    /// # Errors
    ///
    /// Same as [`Instance::solve`].
    pub fn solve(&self, g: &FlowNetwork) -> Result<AnalogSolution, AnalogError> {
        self.engine.solve_templated_inner(g)
    }

    /// Solves `g` from scratch, bypassing the plan cache — the legacy
    /// `AnalogMaxFlow::solve` cold path, kept for solution-quality studies
    /// that must not share state across solves.
    ///
    /// # Errors
    ///
    /// Same as [`Instance::solve`].
    pub fn solve_fresh(&self, g: &FlowNetwork) -> Result<AnalogSolution, AnalogError> {
        self.engine.solve_cold(g)
    }

    /// Quasi-static operating point of an already-built substrate circuit
    /// (the non-ideality studies' entry point: perturb first, then solve).
    ///
    /// # Errors
    ///
    /// Same as [`Instance::solve`].
    pub fn solve_built(&self, sc: &SubstrateCircuit) -> Result<AnalogSolution, AnalogError> {
        self.engine.solve_quasi_static(sc, None)
    }

    /// Opens a streaming [`DeltaSession`] on `g`: one live analog
    /// substrate absorbing capacity and topology deltas batch by batch,
    /// with capacity updates as value-only restamps, clamp flips as
    /// batched rank-k Woodbury updates, and re-keys against this
    /// solver's plan cache only when the structure actually changes —
    /// see the [`delta`](super::delta) module docs for the full
    /// taxonomy and consolidation policy.
    ///
    /// # Errors
    ///
    /// Propagates substrate-construction and factorization failures of
    /// the opening solve.
    pub fn delta_session(&self, g: &FlowNetwork) -> Result<DeltaSession, AnalogError> {
        DeltaSession::open(self.engine.clone(), g)
    }

    /// Solves one [`Problem`]: graphs ride the plan cache, built circuits
    /// run the relaxation transient.
    ///
    /// # Errors
    ///
    /// Same as [`Instance::solve`].
    pub fn solve_problem(&self, problem: Problem<'_>) -> Result<AnalogSolution, AnalogError> {
        match problem {
            Problem::Graph(g) => self.solve(g),
            Problem::Built { circuit, graph } => {
                self.engine
                    .solve_built_transient_shared(circuit, graph.vertex_count(), None)
            }
        }
    }

    /// Solves many independent problems in parallel on all cores (rayon),
    /// preserving input order — the one batch entry point subsuming both
    /// legacy batch paths.
    ///
    /// Same-topology [`Problem::Graph`] members are detected by the
    /// streaming topology fingerprint (see [`TemplateKey::fingerprint`])
    /// and fanned out through one shared plan per
    /// topology: the cold path runs once per repeated topology and every
    /// member pays only a value-only instantiation plus numeric-only
    /// linear algebra (each rayon worker derives its own numeric factor —
    /// thread-local values, pointer-shared symbolic plan). Members whose
    /// topology appears once keep the independent cold path.
    /// [`Problem::Built`] members with one common circuit structure share
    /// one symbolic factorization the same way.
    pub fn solve_many<'a>(
        &self,
        problems: impl IntoIterator<Item = Problem<'a>>,
    ) -> Vec<Result<AnalogSolution, AnalogError>> {
        let problems: Vec<Problem<'a>> = problems.into_iter().collect();
        let engine = &self.engine;
        // The full-MNA ablation has no templated path at all.
        let full_mna = matches!(engine.config().mode, SolveMode::TransientFullMna { .. });
        let build_opts = engine.effective_build_options();
        let ordering = build_opts.lu_ordering;

        // Graph grouping: fingerprint every graph member in one streaming
        // pass each (no intermediate edge Vec), count topologies, then
        // warm the plan cache — one cold path per repeated topology, all
        // distinct topologies planned in parallel (the sharded cache's
        // single-flight gates make concurrent template_for calls safe,
        // and distinct fingerprints never contend on one gate). The
        // par_iter below then hits the cache on every member, and a
        // topology whose plan construction failed falls back to the plain
        // path without every member re-attempting the expensive failed
        // build (batch error reporting stays per-member).
        let fps: Vec<Option<u64>> = problems
            .iter()
            .map(|p| match p {
                Problem::Graph(g) if !full_mna => Some(TemplateKey::fingerprint(g, ordering)),
                _ => None,
            })
            .collect();
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for fp in fps.iter().flatten() {
            *counts.entry(*fp).or_insert(0) += 1;
        }
        let mut warm: HashMap<u64, &FlowNetwork> = HashMap::new();
        for (i, fp) in fps.iter().enumerate() {
            if let (Some(fp), Problem::Graph(g)) = (fp, problems[i]) {
                if counts[fp] >= 2 {
                    warm.entry(*fp).or_insert(g);
                }
            }
        }
        let warm: Vec<(u64, &FlowNetwork)> = warm.into_iter().collect();
        let planned: HashMap<u64, bool> = warm
            .par_iter()
            .map(|&(fp, g)| (fp, engine.template_for(g).is_ok()))
            .collect::<Vec<(u64, bool)>>()
            .into_iter()
            .collect();

        // Built grouping: when every built member has the same circuit
        // structure (they almost always do: perturbed clones of one
        // build), the cold path runs once here and every session starts
        // from a numeric-only refactorization against the shared symbolic
        // plan.
        let built: Vec<&SubstrateCircuit> = problems
            .iter()
            .filter_map(|p| match p {
                Problem::Built { circuit, .. } => Some(*circuit),
                _ => None,
            })
            .collect();
        let shared: Option<Arc<DcTemplate>> = (built.len() >= 2
            && template::uniform_structure(&built))
        .then(|| DcTemplate::with_options(built[0].circuit(), engine.effective_lu_options()).ok())
        .flatten()
        .map(Arc::new);

        let indices: Vec<usize> = (0..problems.len()).collect();
        indices
            .par_iter()
            .map(|&i| match problems[i] {
                Problem::Graph(g) => {
                    let use_plan = fps[i]
                        .as_ref()
                        .is_some_and(|fp| planned.get(fp).copied().unwrap_or(false));
                    if use_plan {
                        engine.solve_templated_inner(g)
                    } else {
                        engine.solve_cold(g)
                    }
                }
                Problem::Built { circuit, graph } => engine.solve_built_transient_shared(
                    circuit,
                    graph.vertex_count(),
                    shared.as_deref(),
                ),
            })
            .collect()
    }
}

/// What one [`Plan`] captured — the cold-path observables the old ad-hoc
/// stats never exposed in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanReport {
    /// `nnz(L) + nnz(U)` of the plan's symbolic factorization.
    pub factor_nnz: usize,
    /// Diagonal blocks of the block-triangular form.
    pub block_count: usize,
    /// The LU column ordering the plan was built under.
    pub ordering: ColumnOrdering,
    /// Whether this plan came out of the topology cache rather than
    /// running the cold path.
    pub cache_hit: bool,
    /// Lifetime counters of the sharded plan cache behind this solver
    /// (hits/misses/evictions and resident footprint at report time).
    pub cache: PlanCacheStats,
}

/// Stage two: the captured cold path of one graph topology. Cheap to
/// clone (the template is behind an [`Arc`]); derived instances pay only
/// value restamps and numeric linear algebra.
#[derive(Debug, Clone)]
pub struct Plan {
    engine: AnalogMaxFlow,
    tpl: Arc<SubstrateTemplate>,
    cache_hit: bool,
}

impl Plan {
    /// The topology key this plan serves.
    pub fn key(&self) -> &TemplateKey {
        self.tpl.key()
    }

    /// The shared substrate template behind this plan (legacy interop).
    pub fn template(&self) -> &Arc<SubstrateTemplate> {
        &self.tpl
    }

    /// Whether this plan was served from the topology cache.
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// The factorization options the plan's symbolic work was built under
    /// — always the normalized [`SolveOptions::lu`], never a divergent
    /// copy (the option-precedence guarantee).
    pub fn lu_options(&self) -> &LuOptions {
        self.tpl.dc_template().lu_options()
    }

    /// Cold-path observables: fill, block structure, ordering, cache
    /// provenance.
    pub fn report(&self) -> PlanReport {
        let dc = self.tpl.dc_template();
        PlanReport {
            factor_nnz: dc.factor().factor_nnz(),
            block_count: dc.symbolic().block_count(),
            ordering: dc.lu_options().ordering,
            cache_hit: self.cache_hit,
            cache: self.engine.plan_cache_stats(),
        }
    }

    /// Audits the plan's structural invariants end-to-end: the symbolic
    /// elimination plan, the supernode plan and the numeric value arrays
    /// of the shared factorization (see
    /// [`ohmflow_linalg::SparseLu::audit`]), plus the solver's plan-cache
    /// shards. The `ohmflow-audit` binary drives this across the bench
    /// substrates; debug builds also run the factor audit automatically
    /// at construction.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a structured
    /// [`ohmflow_linalg::AuditError`].
    pub fn audit(&self) -> Result<(), ohmflow_linalg::AuditError> {
        self.tpl.dc_template().factor().audit()?;
        self.engine.audit_plan_cache()
    }

    /// Stage three: instantiates the plan for `g`'s capacity values (the
    /// plan's own capacity mapping) — value-only work, no structure
    /// derivation, no ordering, no symbolic analysis.
    ///
    /// # Errors
    ///
    /// [`AnalogError::InvalidConfig`] if `g`'s topology differs from the
    /// planned one.
    pub fn instance(&self, g: &FlowNetwork) -> Result<Instance, AnalogError> {
        self.instance_mapped(g, self.tpl.build_options().capacity_mapping)
    }

    /// [`Plan::instance`] with an explicit capacity→voltage mapping
    /// override — the Fig. 10 `N`-sweep: the same plan re-instantiated per
    /// quantization level count.
    ///
    /// # Errors
    ///
    /// Same as [`Plan::instance`].
    pub fn instance_mapped(
        &self,
        g: &FlowNetwork,
        mapping: CapacityMapping,
    ) -> Result<Instance, AnalogError> {
        let sc = self.tpl.instantiate_mapped(g, mapping)?;
        Ok(Instance {
            engine: self.engine.clone(),
            tpl: Arc::clone(&self.tpl),
            sc,
            n_vertices: g.vertex_count(),
        })
    }
}

/// Stage three: one programmed substrate instance — the planned topology
/// with a concrete capacity assignment stamped in.
#[derive(Debug, Clone)]
pub struct Instance {
    engine: AnalogMaxFlow,
    tpl: Arc<SubstrateTemplate>,
    sc: SubstrateCircuit,
    n_vertices: usize,
}

impl Instance {
    /// The instantiated substrate circuit (perturb it through
    /// [`SubstrateCircuit::circuit_mut`] for non-ideality studies before
    /// solving).
    pub fn substrate(&self) -> &SubstrateCircuit {
        &self.sc
    }

    /// Mutable access to the instantiated substrate circuit.
    pub fn substrate_mut(&mut self) -> &mut SubstrateCircuit {
        &mut self.sc
    }

    /// Audits the instance's structures: the shared factorization (as
    /// [`Plan::audit`]) plus the substrate's delta-surgery metadata
    /// checked against the planned topology — element-id uniqueness and
    /// the edge-handle/star-handle membership closure.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a structured
    /// [`ohmflow_linalg::AuditError`].
    pub fn audit(&self) -> Result<(), ohmflow_linalg::AuditError> {
        self.tpl.dc_template().factor().audit()?;
        let (vertices, source, sink, packed) = self.tpl.key().topology();
        let edges: Vec<(usize, usize)> = packed
            .iter()
            .map(|&p| ((p >> 32) as usize, (p & 0xffff_ffff) as usize))
            .collect();
        super::verify::audit_delta_metadata(self.sc.delta_meta(), &edges, vertices, source, sink)
    }

    /// Solves the instance in the configured mode: one DC solve
    /// (quasi-static), the relaxation transient, or the full-MNA ablation.
    /// Warm-start state flows through the plan: repeat solves of the same
    /// values skip most of the clamp-engagement cascade.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; [`AnalogError::NotConverged`] if a
    /// transient never settles within the automatic window limit.
    pub fn solve(&self) -> Result<AnalogSolution, AnalogError> {
        self.engine
            .solve_instance_parts(&self.sc, &self.tpl, self.n_vertices)
    }

    /// Stage four: opens an incremental frozen-DC session on this
    /// instance (structure, ordering and symbolic analysis reused from the
    /// plan — the session start pays only a numeric refactorization).
    ///
    /// # Errors
    ///
    /// [`AnalogError::Circuit`]-wrapped [`SingularSystem`] if the base
    /// configuration is unsolvable.
    ///
    /// [`SingularSystem`]: ohmflow_circuit::CircuitError::SingularSystem
    pub fn session(&self) -> Result<Session<'_>, AnalogError> {
        let inner = self
            .engine
            .dc_solver()
            .session_from(self.sc.circuit(), self.tpl.dc_template())
            .map_err(AnalogError::from)?;
        Ok(Session {
            inner,
            sc: &self.sc,
        })
    }
}

/// Stage four: a persistent incremental frozen-DC session over one
/// instance, wrapping [`FrozenDcSession`] with the substrate readout.
///
/// Between consecutive [`Session::solve`] calls only the clamp-diode
/// states and the source evaluation time may change; flips are absorbed as
/// Woodbury rank-1 updates with periodic numeric-only refactorizations —
/// the engine the relaxation transient runs on, exposed for callers that
/// drive their own switching schedules.
#[derive(Debug)]
pub struct Session<'i> {
    inner: FrozenDcSession<&'i Circuit>,
    sc: &'i SubstrateCircuit,
}

impl<'i> Session<'i> {
    /// Solves the operating point at `time` with the given frozen clamp
    /// states (indexed by [`ohmflow_circuit::Circuit::diode_ids`] order).
    ///
    /// # Errors
    ///
    /// [`SingularSystem`] if the frozen configuration is unsolvable (the
    /// session recovers on the next solvable call).
    ///
    /// [`SingularSystem`]: ohmflow_circuit::CircuitError::SingularSystem
    pub fn solve(&mut self, time: f64, clamps_on: &[bool]) -> Result<(), AnalogError> {
        self.inner.solve(time, clamps_on).map_err(AnalogError::from)
    }

    /// Flow value `|f|` (flow units) of the last solved operating point.
    pub fn flow_value(&self) -> f64 {
        self.sc.flow_value(|n| self.inner.voltage(n))
    }

    /// Per-edge flows (edge-id order, flow units) of the last solved
    /// operating point.
    pub fn edge_flows(&self) -> Vec<f64> {
        self.sc.edge_flows(|n| self.inner.voltage(n))
    }

    /// Voltage of `node` in the last solved operating point.
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.inner.voltage(node)
    }

    /// Raw branch current of `id` in the last solved operating point.
    pub fn branch_current(&self, id: ElementId) -> Option<f64> {
        self.inner.branch_current(id)
    }

    /// The last solved unknown vector (node voltages then branch
    /// currents).
    pub fn values(&self) -> &[f64] {
        self.inner.values()
    }

    /// Linear-algebra effort counters for this session.
    pub fn stats(&self) -> FrozenDcStats {
        self.inner.stats()
    }

    /// Per-phase wall-clock attribution (meaningful when the options
    /// enabled [`SolveOptions::phase_timing`]).
    pub fn phase_times(&self) -> FrozenDcPhases {
        self.inner.phase_times()
    }

    /// Structured accounting of the session so far.
    pub fn report(&self) -> SolveReport {
        self.inner.report()
    }

    /// The wrapped circuit-level session (escape hatch).
    pub fn as_frozen_dc(&mut self) -> &mut FrozenDcSession<&'i Circuit> {
        &mut self.inner
    }
}
