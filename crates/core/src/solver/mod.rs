//! The analog max-flow solver engine and its staged public facade.
//!
//! This module holds the **engine**: [`AnalogMaxFlow`] carries the
//! configuration, the topology-keyed template cache and the simulation
//! machinery (quasi-static complementarity solve, relaxation transient,
//! full-MNA ablation) — the §3.2 "computing max-flow on the crossbar"
//! procedure. The **public staged API** lives in [`facade`]:
//! [`MaxFlowSolver`](facade::MaxFlowSolver) →
//! [`Plan`](facade::Plan) → [`Instance`](facade::Instance) →
//! [`Session`](facade::Session) — the one public solve surface (the
//! deprecated `AnalogMaxFlow` solve shims were removed after the facade
//! was pinned equivalent by the `facade_equivalence` suite).
//!
//! The engine's plan cache (`plan_cache`) is sharded and concurrent:
//! fingerprint-first lookups, single-flight cold paths, per-shard LRU
//! eviction — the serving tier (`ohmflow-serve`) drives it from many
//! threads at once.

use std::sync::Arc;

use ohmflow_circuit::{
    solve_frozen_dc, Circuit, CircuitError, DcSolver, DcTemplate, ElementId, FrozenDcCache,
    FrozenDcSession, LuOptions, NodeId, SolveReport, TransientAnalysis, TransientOptions, Waveform,
    WaveformSet,
};
use ohmflow_graph::FlowNetwork;

use crate::builder::{
    self, BuildOptions, BuildStats, Drive, NegativeResistorImpl, SubstrateCircuit,
};
use crate::params::SubstrateParams;
use crate::template::{self, SubstrateTemplate, TemplateKey};
use crate::AnalogError;

pub mod delta;
pub mod facade;
mod plan_cache;
pub(crate) mod verify;

pub use delta::{DeltaBatch, DeltaReport, DeltaSession, GraphDelta};
pub use plan_cache::PlanCacheStats;
pub(crate) use plan_cache::{PlanCache, DEFAULT_CAPACITY_BYTES};

/// Edge-count threshold of the adaptive solve-path choice: below it, a
/// graph whose topology is not already planned solves from scratch
/// instead of paying the per-edge template instantiation (measured ~1.7×
/// slower than a direct build on Fig. 10-sweep-sized instances —
/// BENCH_PR9.json, `small_n`). A *cached* plan is still used (its cold
/// path is sunk), and explicit [`facade::MaxFlowSolver::plan`] /
/// `solve_many` grouping still plan small topologies on purpose — the
/// threshold only stops one-shot `solve` calls from building plans they
/// will never amortize.
pub const SMALL_INSTANCE_EDGES: usize = 48;

/// How the substrate is simulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolveMode {
    /// One DC solve at the final `V_flow` — the exact steady state,
    /// without convergence-time information. Fast path for large graphs
    /// and for solution-quality studies.
    QuasiStatic,
    /// Transient from the rising edge of `V_flow` (§5.1), simulated with
    /// the **quasi-static relaxation model**: edge-node voltages follow the
    /// instantaneous constrained equilibrium through the op-amp dominant-
    /// pole lag `τ = A/(2π·GBW)`, and clamp diodes switch when the *lagged*
    /// voltages cross their thresholds — reproducing the paper's cascaded
    /// switching narrative (§2.4, Fig. 5c) with GBW- and graph-dependent
    /// convergence times. Yields the convergence time (settling to within
    /// `settle_fraction` of the final flow value). `window`/`dt` of `None`
    /// are chosen automatically (the window doubles until the circuit has
    /// visibly settled, mirroring the paper's worst-case profiling).
    ///
    /// Why not integrate the raw MNA dynamics? A reproduction finding of
    /// this crate (see `DESIGN.md` and the full-MNA ablation mode): the
    /// literal Fig. 2 network with parasitic capacitance is dynamically
    /// unstable — every constraint widget is a *pure integrator* of
    /// constraint violation, and the cascaded integrators ring without
    /// bound under the op-amp lag.
    Transient {
        /// Simulation window in seconds (`None` = auto).
        window: Option<f64>,
        /// Time step in seconds (`None` = auto).
        dt: Option<f64>,
    },
    /// The raw full-MNA transient of the literal circuit — retained as the
    /// instability ablation (expect divergence or clamp-pinned spurious
    /// states; see [`SolveMode::Transient`]).
    TransientFullMna {
        /// Simulation window in seconds.
        window: f64,
        /// Time step in seconds.
        dt: f64,
    },
}

/// Linear-algebra backend of the relaxation transient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RelaxationEngine {
    /// The incremental frozen-DC engine (default): one persistent
    /// [`FrozenDcSession`] carries the MNA structure, factorization and
    /// buffers across every time step; clamp-diode switches are absorbed
    /// as Woodbury rank-1 updates (built through reach-based sparse
    /// triangular half-solves) with a periodic refactorization for
    /// numerical hygiene — numeric-only, level-scheduled across rayon
    /// workers on large systems unless the solve is already running inside
    /// a batch worker. See `DESIGN.md`.
    #[default]
    Incremental,
    /// The historical reference path: every step calls
    /// [`solve_frozen_dc`], which rebuilds the MNA structure and
    /// refactors from scratch whenever the clamp configuration changed.
    /// Retained for regression testing and benchmarking the incremental
    /// engine against.
    FullRefactor,
}

/// Full configuration of an [`AnalogMaxFlow`] solver.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogConfig {
    /// Substrate design parameters (Table 1).
    pub params: SubstrateParams,
    /// Circuit construction options.
    pub build: BuildOptions,
    /// Simulation mode.
    pub mode: SolveMode,
    /// Convergence band for the §5.1 settle-time measurement (0.001 =
    /// "within 0.1 % of the final value").
    pub settle_fraction: f64,
    /// Relaxation-transient solve backend.
    pub engine: RelaxationEngine,
}

impl AnalogConfig {
    /// Ideal configuration: exact capacities, ideal negative resistors,
    /// quasi-static solve. Under these assumptions the substrate solves
    /// max-flow *optimally* (§2.3's proof), which the test-suite checks.
    ///
    /// Note on `V_flow`: §2.3 proves the solution increases monotonically
    /// with `V_flow` and saturates at the max-flow optimum once every
    /// binding constraint is clamped. Table 1's 3 V assumes the paper's
    /// unnormalized voltage scale; with capacities normalized into
    /// `[0, V_dd]` more headroom is needed, so the solver configurations
    /// drive at `50 × V_dd` (documented deviation, see `DESIGN.md`).
    pub fn ideal() -> Self {
        let mut params = SubstrateParams::table1();
        params.v_flow = 50.0 * params.v_dd;
        AnalogConfig {
            params,
            build: BuildOptions::ideal(),
            mode: SolveMode::QuasiStatic,
            settle_fraction: 1e-3,
            engine: RelaxationEngine::default(),
        }
    }

    /// The §5.1 evaluation configuration: Table 1 parameters with the given
    /// GBW, quantized capacities, op-amp NICs, parasitics, transient solve.
    pub fn evaluation(gbw_hz: f64) -> Self {
        let mut params = SubstrateParams::with_gbw(gbw_hz);
        params.v_flow = 50.0 * params.v_dd; // see `ideal()` on drive headroom
        let build = BuildOptions::evaluation(&params);
        AnalogConfig {
            params,
            build,
            mode: SolveMode::Transient {
                window: None,
                dt: None,
            },
            settle_fraction: 1e-3,
            engine: RelaxationEngine::default(),
        }
    }

    /// Like [`AnalogConfig::evaluation`] but solved quasi-statically — same
    /// solution quality (quantization + finite gain), no transient cost.
    /// Used by error sweeps over many instances.
    pub fn evaluation_quasi_static(gbw_hz: f64) -> Self {
        let mut cfg = Self::evaluation(gbw_hz);
        cfg.mode = SolveMode::QuasiStatic;
        cfg.build.parasitics = false;
        cfg
    }
}

/// Facade-level linear-algebra tuning carried by the engine: the pieces of
/// [`facade::SolveOptions`] that [`AnalogConfig`] never expressed. The
/// legacy constructors leave it at the defaults, so shim and facade paths
/// share one code path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct SolverTuning {
    /// Full factorization-options override. `None` derives the options
    /// from the build's `lu_ordering` (the legacy behavior); the facade
    /// sets `Some` so [`facade::SolveOptions::lu`] is the single source of
    /// truth.
    pub lu: Option<LuOptions>,
    /// Per-phase wall-clock attribution on engine-created sessions.
    pub phase_timing: bool,
    /// Plan-cache byte capacity (`None` = [`DEFAULT_CAPACITY_BYTES`]).
    pub plan_cache_bytes: Option<usize>,
}

/// Result of an analog max-flow solve.
#[derive(Debug, Clone)]
pub struct AnalogSolution {
    /// Flow value `|f|` in flow units, from the steady-state node voltages.
    pub value: f64,
    /// Flow value recovered from `I_flow` via Eq. (7a) — the measurement a
    /// physical substrate actually performs.
    pub value_from_current: f64,
    /// Per-edge flows (edge-id order, flow units).
    pub edge_flows: Vec<f64>,
    /// §5.1 convergence time in seconds (transient mode only): the time
    /// from the rising edge of `V_flow` until the flow value stays within
    /// `settle_fraction` of its final value.
    pub convergence_time: Option<f64>,
    /// Structural statistics of the built circuit.
    pub stats: BuildStats,
    /// Recorded waveforms (transient mode only).
    pub waveforms: Option<WaveformSet>,
    /// Structured linear-algebra accounting of the solve (state/step
    /// iterations, `nnz(L+U)`, BTF block count, optional phase times).
    /// Zeroed for paths with no DC engine behind them (the full-MNA
    /// ablation and the legacy full-refactor reference engine).
    pub report: SolveReport,
}

/// The analog max-flow solver.
///
/// Carries a topology-keyed cache of [`SubstrateTemplate`]s: solving many
/// instances of the same graph topology (capacity sweeps, variation seeds,
/// quantization studies) pays the cold path — substrate build, MNA
/// structure, ordering, symbolic factorization — once, and every further
/// solve on that topology is a value-only instantiation plus numeric-only
/// linear algebra. The cache is sharded and concurrent (`PlanCache`):
/// fingerprint-first lookups, single-flight cold paths, LRU eviction
/// under a byte budget. Clones share the cache.
///
/// See the crate-level quickstart for typical use (through the
/// [`facade::MaxFlowSolver`] staged API).
#[derive(Debug, Clone)]
pub struct AnalogMaxFlow {
    config: AnalogConfig,
    /// The sharded topology-keyed plan cache, shared across clones (and
    /// therefore across threads; shard locks are held only for probes and
    /// inserts, never across a symbolic build or a solve).
    cache: Arc<PlanCache>,
    /// Facade-injected linear-algebra tuning (defaults for the legacy
    /// constructors).
    tuning: SolverTuning,
}

impl AnalogMaxFlow {
    /// Creates a solver with the given configuration.
    pub fn new(config: AnalogConfig) -> Self {
        Self::with_tuning(config, SolverTuning::default())
    }

    /// [`AnalogMaxFlow::new`] with facade-level tuning — how
    /// [`facade::MaxFlowSolver`] threads the [`facade::SolveOptions`]
    /// pieces `AnalogConfig` cannot express.
    pub(crate) fn with_tuning(config: AnalogConfig, tuning: SolverTuning) -> Self {
        AnalogMaxFlow {
            config,
            cache: Arc::new(PlanCache::new(
                tuning.plan_cache_bytes.unwrap_or(DEFAULT_CAPACITY_BYTES),
            )),
            tuning,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalogConfig {
        &self.config
    }

    /// Audits the plan cache's shard invariants (LRU byte accounting,
    /// fingerprint→shard placement). Cheap — takes each shard lock once;
    /// safe to call from a serving health check.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a structured
    /// [`ohmflow_linalg::AuditError`].
    pub fn audit_plan_cache(&self) -> Result<(), ohmflow_linalg::AuditError> {
        self.cache.audit()
    }

    /// The factorization options every LU in this solver runs under: the
    /// facade's override when present, otherwise derived from the build
    /// options' ordering. One accessor so no path can pick a divergent
    /// copy.
    pub(crate) fn effective_lu_options(&self) -> LuOptions {
        self.tuning
            .lu
            .unwrap_or_else(|| self.effective_build_options().lu_options())
    }

    /// The circuit-level staged solver configured exactly as this engine:
    /// same factorization options and phase timing.
    fn dc_solver(&self) -> DcSolver {
        DcSolver::new()
            .lu_options(self.effective_lu_options())
            .phase_timing(self.tuning.phase_timing)
    }

    /// The build options [`AnalogMaxFlow::solve`] actually uses: the solve
    /// mode constrains the drive shape (quasi-static needs DC; transient
    /// keeps a user-chosen step or soft-start ramp and only replaces an
    /// incompatible DC drive with the default step), and the relaxation
    /// model solves frozen-state DC points along the way, so it uses ideal
    /// negative resistors internally (exact in DC).
    fn effective_build_options(&self) -> BuildOptions {
        let mut build = self.config.build;
        build.drive = match (self.config.mode, build.drive) {
            (SolveMode::QuasiStatic, _) => Drive::Dc,
            (SolveMode::Transient { .. } | SolveMode::TransientFullMna { .. }, Drive::Dc) => {
                Drive::Step
            }
            (_, d) => d,
        };
        if matches!(self.config.mode, SolveMode::Transient { .. }) {
            build.negative_resistor = NegativeResistorImpl::Ideal;
            build.parasitics = false;
        }
        build
    }

    /// Returns the cached [`SubstrateTemplate`] for `g`'s topology,
    /// building (and caching) it on first use. The template is constructed
    /// with this solver's effective build options, so plan-path solves
    /// agree with cold-path solves by construction.
    ///
    /// # Errors
    ///
    /// Propagates template-construction failures.
    pub fn template_for(&self, g: &FlowNetwork) -> Result<Arc<SubstrateTemplate>, AnalogError> {
        self.template_for_inner(g).map(|(tpl, _)| tpl)
    }

    /// [`AnalogMaxFlow::template_for`] plus whether the template came out
    /// of the cache — the observable behind [`facade::Plan::cache_hit`].
    pub(crate) fn template_for_inner(
        &self,
        g: &FlowNetwork,
    ) -> Result<(Arc<SubstrateTemplate>, bool), AnalogError> {
        let build_opts = self.effective_build_options();
        let ordering = build_opts.lu_ordering;
        // The hot path: one streaming fingerprint pass over the graph, one
        // sharded probe verified against the full stored key. Cold paths
        // run single-flight outside the shard lock; the full effective
        // factorization options (pivoting thresholds included) flow into
        // the template so the plan path can never factor under different
        // options than the cold path.
        let fingerprint = TemplateKey::fingerprint(g, ordering);
        self.cache.get_or_build(fingerprint, g, ordering, || {
            SubstrateTemplate::with_lu_options(
                g,
                &self.config.params,
                &build_opts,
                self.effective_lu_options(),
            )
            .map(Arc::new)
        })
    }

    /// Aggregate plan-cache counters (hits/misses/evictions + residency) —
    /// the observability behind [`facade::PlanReport`] and the serving
    /// tier's telemetry.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.cache.stats()
    }

    /// Number of cached templates (test observability).
    #[cfg(test)]
    pub(crate) fn cached_template_count(&self) -> usize {
        self.cache.len()
    }

    /// The cold solve path: build the substrate for `g` and simulate it in
    /// the configured mode — the body of
    /// [`facade::MaxFlowSolver::solve_fresh`].
    pub(crate) fn solve_cold(&self, g: &FlowNetwork) -> Result<AnalogSolution, AnalogError> {
        let build = self.effective_build_options();
        let sc = builder::build(g, &self.config.params, &build)?;
        match self.config.mode {
            SolveMode::QuasiStatic => self.solve_quasi_static(&sc, None),
            SolveMode::Transient { window, dt } => {
                self.solve_transient_relaxation(&sc, g.vertex_count(), window, dt)
            }
            SolveMode::TransientFullMna { window, dt } => {
                self.solve_transient_full_mna(&sc, window, dt)
            }
        }
    }

    /// The template-cached solve path behind
    /// [`facade::MaxFlowSolver::solve`]: the first call on a topology pays
    /// the cold path, every further call is a value-only instantiation +
    /// numeric-only solve (with the previous solve's converged clamp
    /// states as a warm start). [`SolveMode::TransientFullMna`] has no
    /// templated fast path and falls back to the cold path.
    pub(crate) fn solve_templated_inner(
        &self,
        g: &FlowNetwork,
    ) -> Result<AnalogSolution, AnalogError> {
        if matches!(self.config.mode, SolveMode::TransientFullMna { .. }) {
            return self.solve_cold(g);
        }
        // Adaptive path choice: small instances only ride a plan that
        // already exists (see `SMALL_INSTANCE_EDGES`).
        if g.edge_count() < SMALL_INSTANCE_EDGES {
            return match self.cached_template_for(g) {
                Some(tpl) => {
                    let sc = tpl.instantiate(g)?;
                    self.solve_instance_parts(&sc, &tpl, g.vertex_count())
                }
                None => self.solve_cold(g),
            };
        }
        let tpl = self.template_for(g)?;
        let sc = tpl.instantiate(g)?;
        self.solve_instance_parts(&sc, &tpl, g.vertex_count())
    }

    /// The cached template for `g`'s topology if one is resident — a pure
    /// probe: never builds, never waits on an in-flight cold path.
    pub(crate) fn cached_template_for(&self, g: &FlowNetwork) -> Option<Arc<SubstrateTemplate>> {
        let build_opts = self.effective_build_options();
        let ordering = build_opts.lu_ordering;
        let fingerprint = TemplateKey::fingerprint(g, ordering);
        self.cache.peek(fingerprint, g, ordering)
    }

    /// Simulates one template instantiation in the configured mode — the
    /// body of [`facade::Instance::solve`].
    pub(crate) fn solve_instance_parts(
        &self,
        sc: &SubstrateCircuit,
        tpl: &SubstrateTemplate,
        n_vertices: usize,
    ) -> Result<AnalogSolution, AnalogError> {
        match self.config.mode {
            SolveMode::QuasiStatic => self.solve_quasi_static(sc, Some(tpl)),
            SolveMode::Transient { window, dt } => {
                self.solve_transient_relaxation(sc, n_vertices, window, dt)
            }
            SolveMode::TransientFullMna { window, dt } => {
                self.solve_transient_full_mna(sc, window, dt)
            }
        }
    }

    /// Runs the relaxation transient on an already-built (and possibly
    /// perturbed) substrate circuit — the body behind
    /// [`facade::Problem::Built`] members — with an optional shared
    /// [`DcTemplate`] override (the batch fan-out path: one template, many
    /// same-structure members). The circuit must have been built with a
    /// step or ramp drive.
    pub(crate) fn solve_built_transient_shared(
        &self,
        sc: &SubstrateCircuit,
        n_vertices: usize,
        shared: Option<&DcTemplate>,
    ) -> Result<AnalogSolution, AnalogError> {
        let (window, dt) = match self.config.mode {
            SolveMode::Transient { window, dt } => (window, dt),
            _ => (None, None),
        };
        self.solve_transient_relaxation_shared(sc, n_vertices, window, dt, shared)
    }

    /// The quasi-static solve. When the circuit carries shared cold-path
    /// artifacts (template instantiations), the operating-point analysis is
    /// primed with them; with a [`SubstrateTemplate`] at hand, the clamp
    /// states converged last time seed the complementarity iteration and
    /// the converged states flow back as the next warm start.
    fn solve_quasi_static(
        &self,
        sc: &SubstrateCircuit,
        tpl: Option<&SubstrateTemplate>,
    ) -> Result<AnalogSolution, AnalogError> {
        let dcs = self.dc_solver();
        // Warm starts are value-keyed: only a solve of the *same* value
        // assignment may seed the complementarity iteration (see
        // `template::value_fingerprint`).
        let fingerprint = tpl.map(|_| template::value_fingerprint(sc));
        let warm = tpl.and_then(|t| {
            t.warm_states_for(
                fingerprint.expect("invariant: cached templates always come with a fingerprint"),
            )
        });
        let (sol, report) = match (sc.dc_template(), warm) {
            (Some(dc), warm) => {
                let plan = dcs.plan_from(Arc::clone(dc));
                match warm {
                    Some(w) => plan.solve_warm(sc.circuit(), &w),
                    None => plan.solve(sc.circuit()),
                }
            }
            (None, Some(w)) => dcs.solve_warm(sc.circuit(), &w),
            (None, None) => dcs.solve(sc.circuit()),
        }
        .map_err(AnalogError::from)?;
        if let (Some(t), Some(fp)) = (tpl, fingerprint) {
            t.store_warm_states(fp, sol.device_states());
        }
        let value = sc.flow_value(|n| sol.voltage(n));
        let i_flow = sol
            .source_current(sc.vflow_source())
            .expect("invariant: the flow-readout vsource has a branch current");
        Ok(AnalogSolution {
            value,
            value_from_current: sc.flow_value_from_current(i_flow, self.config.params.r_unit),
            edge_flows: sc.edge_flows(|n| sol.voltage(n)),
            convergence_time: None,
            stats: sc.stats(),
            waveforms: None,
            report,
        })
    }

    fn solve_transient_relaxation(
        &self,
        sc: &SubstrateCircuit,
        n_vertices: usize,
        window: Option<f64>,
        dt: Option<f64>,
    ) -> Result<AnalogSolution, AnalogError> {
        self.solve_transient_relaxation_shared(sc, n_vertices, window, dt, None)
    }

    fn solve_transient_relaxation_shared(
        &self,
        sc: &SubstrateCircuit,
        n_vertices: usize,
        window: Option<f64>,
        dt: Option<f64>,
        shared: Option<&DcTemplate>,
    ) -> Result<AnalogSolution, AnalogError> {
        let tau = self.config.params.opamp.time_constant();
        let mut t_stop = window.unwrap_or(tau * (20.0 + 0.05 * n_vertices as f64));
        let max_window = window.unwrap_or(t_stop * 64.0);

        loop {
            let step = dt.unwrap_or(tau / 25.0).min(t_stop / 50.0);
            let result = self.relaxation_run(sc, t_stop, step, shared)?;
            let settled_early = matches!(result.convergence_time, Some(ts) if ts < 0.8 * t_stop);
            if settled_early || t_stop >= max_window {
                if !settled_early && window.is_none() && t_stop >= max_window {
                    return Err(AnalogError::NotConverged { t_stop });
                }
                return Ok(result);
            }
            t_stop *= 4.0;
        }
    }

    /// One relaxation run: lagged edge voltages, lag-governed diode
    /// switching, frozen-state DC solves through the configured engine.
    fn relaxation_run(
        &self,
        sc: &SubstrateCircuit,
        t_stop: f64,
        dt: f64,
        shared: Option<&DcTemplate>,
    ) -> Result<AnalogSolution, AnalogError> {
        match self.config.engine {
            RelaxationEngine::Incremental => {
                // The session starts from shared cold-path artifacts when
                // available — an explicitly shared batch template first,
                // else whatever the instantiation attached to the circuit —
                // paying only a numeric-only refactorization instead of
                // structure + ordering + symbolic analysis. The staged
                // circuit facade threads the configured factorization
                // options and phase timing through.
                let dcs = self.dc_solver();
                let session = match shared.or(sc.dc_template().map(|t| &**t)) {
                    Some(tpl) => dcs.session_from(sc.circuit(), tpl),
                    None => dcs.session(sc.circuit()),
                };
                let mut eq = SessionEquilibrium {
                    session: session.map_err(AnalogError::from)?,
                };
                self.relaxation_run_with(sc, t_stop, dt, &mut eq)
            }
            RelaxationEngine::FullRefactor => {
                let mut eq = LegacyEquilibrium {
                    ckt: sc.circuit(),
                    cache: None,
                    last: None,
                };
                self.relaxation_run_with(sc, t_stop, dt, &mut eq)
            }
        }
    }

    /// The physics of the relaxation transient, generic (monomorphized —
    /// the equilibrium accessors sit in the per-step hot loop) over the
    /// backend so both engines run the *same* switching logic.
    fn relaxation_run_with<E: EquilibriumSolver>(
        &self,
        sc: &SubstrateCircuit,
        t_stop: f64,
        dt: f64,
        eq: &mut E,
    ) -> Result<AnalogSolution, AnalogError> {
        let ckt = sc.circuit();
        let tau = self.config.params.opamp.time_constant();
        let n_edges = sc.edge_nodes().len();
        let diode_ids = ckt.diode_ids();
        // Dense element-id → diode-position map (the hot loop below indexes
        // it twice per edge per step).
        let mut diode_pos = vec![usize::MAX; ckt.element_count()];
        for (i, d) in diode_ids.iter().enumerate() {
            diode_pos[d.index()] = i;
        }

        // Relaxed (observable) edge voltages start at 0 (V_flow low).
        let mut relaxed = vec![0.0f64; n_edges];
        let mut diode_on = vec![false; diode_ids.len()];
        // After a clamp releases, the node voltage needs ~1 τ to swing back
        // before the diode can physically conduct again; the cooldown
        // prevents unphysical per-step engage/release limit cycles on
        // perturbed circuits.
        let cooldown_steps = (tau / dt).ceil() as usize;
        let mut cooldown = vec![0usize; diode_ids.len()];
        let alpha = 1.0 - (-dt / tau).exp();

        let mut waves = WaveformSet::new(sc.edge_nodes(), &[sc.vflow_source()]);
        let steps = (t_stop / dt).round().max(1.0) as usize;
        waves.reserve(steps + 1);
        // Preallocated sample row: edge-node voltages then the V_flow
        // branch current (no per-step allocation).
        let mut sample: Vec<f64> = Vec::with_capacity(n_edges + 1);
        let edge_nodes = sc.edge_nodes();
        let r_on = self.config.params.diode.r_on;

        // Per-edge switching context, resolved once: diode positions,
        // clamp level, hysteresis band and the circuit node. Grounded
        // circulation edges (flow pinned at 0) carry no entry.
        struct EdgeClamp {
            edge: usize,
            lo_i: usize,
            hi_i: usize,
            clamp: f64,
            band: f64,
            node: NodeId,
        }
        let edge_clamps: Vec<EdgeClamp> = sc
            .clamp_diodes()
            .iter()
            .enumerate()
            .filter(|(_, (lo, _))| lo.is_valid())
            .map(|(e, &(lo, hi))| {
                let clamp = sc.clamp_volts(e);
                EdgeClamp {
                    edge: e,
                    lo_i: diode_pos[lo.index()],
                    hi_i: diode_pos[hi.index()],
                    clamp,
                    band: 1e-9 + 1e-6 * clamp.abs(),
                    node: edge_nodes[e],
                }
            })
            .collect();

        for k in 0..=steps {
            let t = k as f64 * dt;
            // Instantaneous constrained equilibrium for the present clamp
            // configuration.
            eq.solve(t, &diode_on).map_err(AnalogError::from)?;

            // One pass over the live edges: relax the physical voltage
            // toward the equilibrium with the op-amp dominant-pole lag
            // (raw, unclamped — the crossing of a clamp threshold is what
            // *engages* the diode), then update the clamp states. Grounded
            // circulation edges are skipped outright: their target voltage
            // is identically 0 and `relaxed` starts (and thus stays) at 0.
            //
            // Diode switching: clamps *engage* when the lagged voltage
            // crosses the threshold (§2.4's cascade) and *release* the
            // moment the constraint network reverses the clamp current in
            // the equilibrium — a diode stops conducting instantly when its
            // current would go negative.
            for ec in &edge_clamps {
                let e = ec.edge;
                let clamp = ec.clamp;
                let lo_i = ec.lo_i;
                let hi_i = ec.hi_i;
                let band = ec.band;
                let node = ec.node;
                let target = eq.voltage(node);
                relaxed[e] += alpha * (target - relaxed[e]);
                let v = relaxed[e];
                cooldown[lo_i] = cooldown[lo_i].saturating_sub(1);
                cooldown[hi_i] = cooldown[hi_i].saturating_sub(1);
                if diode_on[lo_i] {
                    // Lower clamp (gnd → x): conducting current −V(x)/r_on.
                    if -eq.voltage(node) / r_on < -1e-9 {
                        diode_on[lo_i] = false;
                        cooldown[lo_i] = cooldown_steps;
                    }
                } else if v < -band && cooldown[lo_i] == 0 {
                    diode_on[lo_i] = true;
                }
                if diode_on[hi_i] {
                    // Upper clamp (x → level): current (V(x) − clamp)/r_on.
                    if (eq.voltage(node) - clamp) / r_on < -1e-9 {
                        diode_on[hi_i] = false;
                        cooldown[hi_i] = cooldown_steps;
                    }
                } else if v > clamp + band && cooldown[hi_i] == 0 {
                    diode_on[hi_i] = true;
                }
                // An engaged diode holds the physical node at the clamp.
                if diode_on[hi_i] && relaxed[e] > clamp {
                    relaxed[e] = clamp;
                }
                if diode_on[lo_i] && relaxed[e] < 0.0 {
                    relaxed[e] = 0.0;
                }
            }

            sample.clear();
            sample.extend_from_slice(&relaxed);
            sample.push(eq.branch_current(sc.vflow_source()).unwrap_or(0.0));
            waves.push_sample(t, &sample);
        }

        // Flow-value series from the relaxed edge voltages.
        let times = waves.times().to_vec();
        let flow_series = flow_value_series(sc, &waves);
        let wf = Waveform::from_slices(&times, &flow_series);
        let settle = wf.settle_time(self.config.settle_fraction);

        let value = *flow_series
            .last()
            .expect("invariant: transient runs record at least one sample");
        let i_flow = eq
            .source_current(sc.vflow_source())
            .expect("invariant: the flow-readout vsource has a branch current");
        Ok(AnalogSolution {
            value,
            value_from_current: sc.flow_value_from_current(i_flow, self.config.params.r_unit),
            edge_flows: relaxed_to_flows(sc, &waves),
            convergence_time: settle,
            stats: sc.stats(),
            waveforms: Some(waves),
            report: eq.report(),
        })
    }

    /// The instability ablation: integrate the literal MNA dynamics.
    fn solve_transient_full_mna(
        &self,
        sc: &SubstrateCircuit,
        window: f64,
        dt: f64,
    ) -> Result<AnalogSolution, AnalogError> {
        let opts = TransientOptions::to_time(window)
            .with_step(dt)
            .probe_nodes(sc.edge_nodes().to_vec())
            .probe_current(sc.vflow_source());
        let waves = TransientAnalysis::new(sc.circuit(), opts)
            .map_err(AnalogError::from)?
            .run()
            .map_err(AnalogError::from)?;
        let times = waves.times().to_vec();
        let flow_series = flow_value_series(sc, &waves);
        let wf = Waveform::from_slices(&times, &flow_series);
        let settle = wf.settle_time(self.config.settle_fraction);
        let last = |n| waves.voltage(n).map(|w| w.last_value()).unwrap_or(0.0);
        let i_flow = waves
            .source_current_values(sc.vflow_source())
            .and_then(|v| v.last().copied())
            .unwrap_or(0.0);
        Ok(AnalogSolution {
            value: sc.flow_value(last),
            value_from_current: sc.flow_value_from_current(i_flow, self.config.params.r_unit),
            edge_flows: sc.edge_flows(last),
            convergence_time: settle,
            stats: sc.stats(),
            waveforms: Some(waves),
            report: SolveReport::default(),
        })
    }
}

/// One frozen-clamp equilibrium solve per relaxation step, abstracted so
/// the incremental and reference engines share the switching logic above.
trait EquilibriumSolver {
    /// Solves the operating point at `time` for the frozen `diode_on`
    /// assignment.
    fn solve(&mut self, time: f64, diode_on: &[bool]) -> Result<(), CircuitError>;
    /// Node voltage in the last solved point.
    fn voltage(&self, node: NodeId) -> f64;
    /// Branch current in the last solved point.
    fn branch_current(&self, id: ElementId) -> Option<f64>;
    /// Source current (negated branch current) in the last solved point.
    fn source_current(&self, id: ElementId) -> Option<f64> {
        self.branch_current(id).map(|i| -i)
    }
    /// Structured linear-algebra accounting of the run so far. The legacy
    /// reference engine has no session to report on and returns zeros.
    fn report(&self) -> SolveReport {
        SolveReport::default()
    }
}

/// The incremental engine: a persistent [`FrozenDcSession`].
struct SessionEquilibrium<'c> {
    session: FrozenDcSession<&'c Circuit>,
}

impl EquilibriumSolver for SessionEquilibrium<'_> {
    fn solve(&mut self, time: f64, diode_on: &[bool]) -> Result<(), CircuitError> {
        self.session.solve(time, diode_on)
    }

    fn voltage(&self, node: NodeId) -> f64 {
        self.session.voltage(node)
    }

    fn branch_current(&self, id: ElementId) -> Option<f64> {
        self.session.branch_current(id)
    }

    fn report(&self) -> SolveReport {
        self.session.report()
    }
}

/// The reference engine: the historical per-step [`solve_frozen_dc`] path
/// (rebuilds the MNA structure each call, refactors on every clamp
/// change).
struct LegacyEquilibrium<'c> {
    ckt: &'c ohmflow_circuit::Circuit,
    cache: Option<FrozenDcCache>,
    last: Option<ohmflow_circuit::DcSolution>,
}

impl EquilibriumSolver for LegacyEquilibrium<'_> {
    fn solve(&mut self, time: f64, diode_on: &[bool]) -> Result<(), CircuitError> {
        self.last = Some(solve_frozen_dc(self.ckt, time, diode_on, &mut self.cache)?);
        Ok(())
    }

    fn voltage(&self, node: NodeId) -> f64 {
        self.last.as_ref().map_or(0.0, |s| s.voltage(node))
    }

    fn branch_current(&self, id: ElementId) -> Option<f64> {
        self.last.as_ref().and_then(|s| s.branch_current(id))
    }
}

/// Converts the final recorded edge-node voltages of `waves` to flow units.
fn relaxed_to_flows(sc: &SubstrateCircuit, waves: &WaveformSet) -> Vec<f64> {
    sc.edge_nodes()
        .iter()
        .map(|&n| {
            waves
                .voltage(n)
                .map(|w| w.last_value() / sc.volts_per_flow())
                .unwrap_or(0.0)
        })
        .collect()
}

/// Computes the flow-value time series (flow units) from recorded edge-node
/// waveforms: net flow out of the source, sum over source-out edges minus
/// source-in edges.
///
/// The waveform column of each source-adjacent edge node is resolved
/// **once** and the samples are then summed column-wise — not one hash
/// lookup per `(sample, edge)` pair. Grounded circulation edges have no
/// recorded waveform and contribute zero.
pub fn flow_value_series(sc: &SubstrateCircuit, waves: &WaveformSet) -> Vec<f64> {
    let column = |&k: &usize| waves.voltage(sc.edge_node(k)).map(|w| w.values());
    let out_cols: Vec<&[f64]> = sc.source_out_edges().iter().filter_map(column).collect();
    let in_cols: Vec<&[f64]> = sc.source_in_edges().iter().filter_map(column).collect();
    let scale = 1.0 / sc.volts_per_flow();
    let mut series = vec![0.0f64; waves.len()];
    for col in &out_cols {
        for (s, v) in series.iter_mut().zip(*col) {
            *s += v;
        }
    }
    for col in &in_cols {
        for (s, v) in series.iter_mut().zip(*col) {
            *s -= v;
        }
    }
    for s in &mut series {
        *s *= scale;
    }
    series
}

#[cfg(test)]
mod tests {
    use super::facade::{MaxFlowSolver, Problem, SolveOptions};
    use crate::builder::CapacityMapping;
    use ohmflow_graph::generators;
    use ohmflow_maxflow::edmonds_karp;

    #[test]
    fn ideal_solver_is_optimal_on_fig5a() {
        let g = generators::fig5a();
        let sol = MaxFlowSolver::new(SolveOptions::ideal())
            .solve_fresh(&g)
            .unwrap();
        assert!(
            (sol.value - 2.0).abs() < 0.02,
            "analog value {} vs exact 2",
            sol.value
        );
        // The per-edge solution must be (nearly) feasible.
        assert!(g.validate_flow(&sol.edge_flows, 0.05).is_some());
        // Eq. (7a) readout agrees with the node-voltage readout.
        assert!(
            (sol.value_from_current - sol.value).abs() < 0.05,
            "current readout {} vs node readout {}",
            sol.value_from_current,
            sol.value
        );
    }

    #[test]
    fn ideal_solver_is_optimal_on_small_suite() {
        for (g, name) in [
            (generators::path(&[5, 2, 9]).unwrap(), "path"),
            (generators::parallel_paths(3, 4).unwrap(), "parallel"),
            (generators::fig15a(100), "fig15a"),
            (generators::layered(3, 2, 5, 1).unwrap(), "layered"),
        ] {
            let exact = edmonds_karp(&g).value as f64;
            let sol = MaxFlowSolver::new(SolveOptions::ideal())
                .solve_fresh(&g)
                .unwrap();
            let rel = (sol.value - exact).abs() / exact.max(1.0);
            assert!(rel < 0.02, "{name}: analog {} vs exact {exact}", sol.value);
        }
    }

    #[test]
    fn quantized_fig8_matches_paper() {
        // Fig. 8: N = 20, Vdd = 1 V → circuit solution 0.7 V, |f| ≈ 2.1,
        // a 5 % deviation from the exact value 2.
        let g = generators::fig5a();
        let mut opts = SolveOptions::ideal();
        opts.build.capacity_mapping = CapacityMapping::Quantized { levels: 20 };
        let sol = MaxFlowSolver::new(opts).solve_fresh(&g).unwrap();
        assert!(
            (sol.value - 2.1).abs() < 0.03,
            "quantized value {} vs paper's 2.1",
            sol.value
        );
    }

    #[test]
    fn transient_solver_converges_on_fig5a() {
        let g = generators::fig5a();
        let mut opts = SolveOptions::evaluation(10e9);
        opts.build.capacity_mapping = CapacityMapping::Exact;
        let sol = MaxFlowSolver::new(opts).solve_fresh(&g).unwrap();
        assert!(
            (sol.value - 2.0).abs() < 0.06,
            "transient value {}",
            sol.value
        );
        let tc = sol.convergence_time.expect("transient reports settle time");
        assert!(tc > 0.0 && tc < 1e-3, "convergence time {tc}");
        assert!(sol.waveforms.is_some());
    }

    #[test]
    fn templated_quasi_static_matches_cold_path() {
        let g = generators::fig5a();
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        let cold = solver.solve_fresh(&g).unwrap();
        // fig5a sits under the small-instance threshold, where `solve`
        // only peeks the cache — plan explicitly so the warm path runs.
        solver.plan(&g).unwrap();
        // First plan-cached solve pays the cold path and caches; repeat
        // solves ride the warm path (primed factorization + warm states).
        for round in 0..3 {
            let warm = solver.solve(&g).unwrap();
            assert!(
                (warm.value - cold.value).abs() < 1e-9,
                "round {round}: templated {} vs cold {}",
                warm.value,
                cold.value
            );
            for (a, b) in warm.edge_flows.iter().zip(&cold.edge_flows) {
                assert!((a - b).abs() < 1e-9, "round {round}: {a} vs {b}");
            }
        }
        // Different capacities on the same topology reuse the plan.
        let g2 = g.scaled_capacities(2).unwrap();
        let cold2 = solver.solve_fresh(&g2).unwrap();
        let warm2 = solver.solve(&g2).unwrap();
        assert!((warm2.value - cold2.value).abs() < 1e-9);
        assert_eq!(
            solver.engine().cached_template_count(),
            1,
            "one topology, one plan"
        );
        // The staged path is the same code path as `solve`.
        let plan = solver.plan(&g2).unwrap();
        assert!(plan.cache_hit(), "second plan must hit the cache");
        let staged = plan.instance(&g2).unwrap().solve().unwrap();
        assert!((staged.value - warm2.value).abs() < 1e-12);
    }

    #[test]
    fn templated_transient_matches_cold_path() {
        let g = generators::fig5a();
        let mut opts = SolveOptions::evaluation(10e9);
        opts.build.capacity_mapping = CapacityMapping::Exact;
        let solver = MaxFlowSolver::new(opts);
        let cold = solver.solve_fresh(&g).unwrap();
        let warm = solver.solve(&g).unwrap();
        assert!(
            (warm.value - cold.value).abs() < 1e-9,
            "templated {} vs cold {}",
            warm.value,
            cold.value
        );
        let (tc, tw) = (
            cold.convergence_time.unwrap(),
            warm.convergence_time.unwrap(),
        );
        assert!(
            ((tc - tw) / tc).abs() < 1e-9,
            "settle time {tw} vs {tc} must match"
        );
    }

    #[test]
    fn batch_detects_same_topology_and_matches_sequential() {
        // Mixed batch: four capacity variants of one topology plus one
        // distinct topology (stays on the independent path).
        let base = generators::fig5a();
        let mut graphs: Vec<_> = (1..=4)
            .map(|s| base.scaled_capacities(s).unwrap())
            .collect();
        graphs.push(generators::path(&[5, 2, 9]).unwrap());
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        let batch = solver.solve_many(graphs.iter().map(Problem::from));
        for (g, r) in graphs.iter().zip(&batch) {
            let seq = solver.solve_fresh(g).unwrap();
            let b = r.as_ref().expect("batch member solves");
            assert!(
                (b.value - seq.value).abs() < 1e-9,
                "batch {} vs sequential {}",
                b.value,
                seq.value
            );
        }
        // Only the repeated topology got a cached plan.
        assert_eq!(solver.engine().cached_template_count(), 1);
    }

    #[test]
    fn faster_gbw_converges_faster() {
        let g = generators::fig5a();
        let run = |gbw: f64| {
            let mut opts = SolveOptions::evaluation(gbw);
            opts.build.capacity_mapping = CapacityMapping::Exact;
            MaxFlowSolver::new(opts)
                .solve_fresh(&g)
                .unwrap()
                .convergence_time
                .unwrap()
        };
        let t10 = run(10e9);
        let t50 = run(50e9);
        assert!(
            t50 < t10,
            "50 GHz ({t50:.3e}s) should beat 10 GHz ({t10:.3e}s)"
        );
    }
}
