//! The analog max-flow solver: **one options type, one solver type,
//! three stages.**
//!
//! ```text
//!  SolveOptions ──> MaxFlowSolver ──plan──> Plan ──instance──> Instance ──solve──> AnalogSolution
//!                        │                   │ (topology-keyed     (quasi-static or
//!                        │                   │  symbolic work,      relaxation transient)
//!                        │                   │  cached)
//!                        ├── solve / solve_many (every graph: plan cache → instance → solve)
//!                        ├── solve_fresh (no cache: studies that must not share state)
//!                        └── delta_session (one live substrate absorbing graph deltas)
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
//! * [`Instance::solve`] runs the configured simulation mode — the §3.2
//!   "computing max-flow on the crossbar" procedure. Callers that drive
//!   their own clamp-switching schedules open a circuit-level session on
//!   the instance with `DcSolver::new().with_template(Arc::clone(
//!   plan.template().dc_template())).session(instance.substrate().circuit())`.
//!
//! The plan cache behind [`MaxFlowSolver::plan`] is sharded and
//! concurrent (fingerprint-first lookups, single-flight cold paths, LRU
//! eviction under [`SolveOptions::plan_cache_bytes`]); the
//! `ohmflow-serve` binary wraps this solver as a multi-tenant network
//! service.

use std::sync::Arc;

use ohmflow_circuit::{
    DcSolver, DcTemplate, LuOptions, NodeId, PlanPhases, SolveReport, Waveform, WaveformSet,
};
use ohmflow_graph::FlowNetwork;
use rayon::prelude::*;

use crate::builder::{self, BuildOptions, BuildStats, CapacityMapping, Drive, SubstrateCircuit};
use crate::params::SubstrateParams;
use crate::template::{self, SubstrateTemplate, TemplateKey};
use crate::AnalogError;

pub mod delta;
mod plan_cache;
pub(crate) mod verify;

pub use delta::{DeltaBatch, DeltaReport, DeltaSession, GraphDelta};
pub use plan_cache::PlanCacheStats;
use plan_cache::{PlanCache, DEFAULT_CAPACITY_BYTES};

/// How the substrate is simulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolveMode {
    /// One DC solve at the final `V_flow` — the exact steady state,
    /// without convergence-time information. Fast path for large graphs
    /// and for solution-quality studies. The complementarity iteration
    /// behind it can stall in a spurious all-clamped state on the odd
    /// random or mismatch-perturbed instance (the solve then errors); the
    /// relaxation transient does not.
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
    /// Why not integrate the raw circuit dynamics? A reproduction finding
    /// recorded in `DESIGN.md`: the literal Fig. 2 network with parasitic
    /// capacitance is dynamically unstable — every constraint widget is a
    /// *pure integrator* of constraint violation, and the cascaded
    /// integrators ring without bound under the op-amp lag.
    Transient {
        /// Simulation window in seconds (`None` = auto).
        window: Option<f64>,
        /// Time step in seconds (`None` = auto).
        dt: Option<f64>,
    },
}

/// The one configuration of the solver.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Substrate design parameters (Table 1).
    pub params: SubstrateParams,
    /// Circuit construction options.
    pub build: BuildOptions,
    /// Simulation mode.
    pub mode: SolveMode,
    /// Convergence band for the §5.1 settle-time measurement (0.001 =
    /// "within 0.1 % of the final value").
    pub settle_fraction: f64,
    /// Factorization options (the pivoting threshold) for
    /// every LU in the stack — plans, sessions, cold paths. The column
    /// ordering is not among them: every factor is ordered by AMD on the
    /// diagonal blocks of the block-triangular form, so a plan's
    /// [`TemplateKey`] is its topology alone.
    pub lu: LuOptions,
    /// Per-phase wall-clock attribution on sessions and on the cold path
    /// of plans ([`PlanReport::phases`]); off by default: clock reads tax
    /// small systems.
    pub phase_timing: bool,
    /// Byte capacity of the sharded plan cache (LRU eviction engages
    /// above it; each resident plan is costed from its factorization
    /// fill). The default is generous — eviction only matters for
    /// long-running multi-tenant servers cycling through many topologies.
    pub plan_cache_bytes: usize,
}

impl SolveOptions {
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
        Self::with_parts(params, BuildOptions::ideal(), SolveMode::QuasiStatic)
    }

    /// The §5.1 evaluation configuration: Table 1 parameters with the given
    /// GBW, quantized capacities, ideal negative resistors, relaxation
    /// transient solve (the op-amp enters as the dominant-pole lag).
    pub fn evaluation(gbw_hz: f64) -> Self {
        let mut params = SubstrateParams::with_gbw(gbw_hz);
        params.v_flow = 50.0 * params.v_dd; // see `ideal()` on drive headroom
        let build = BuildOptions::evaluation(&params);
        let mode = SolveMode::Transient {
            window: None,
            dt: None,
        };
        Self::with_parts(params, build, mode)
    }

    /// Like [`SolveOptions::evaluation`] but solved quasi-statically — same
    /// solution quality (quantization), no transient cost. Used by error
    /// sweeps over many instances.
    pub fn evaluation_quasi_static(gbw_hz: f64) -> Self {
        let mut opts = Self::evaluation(gbw_hz);
        opts.mode = SolveMode::QuasiStatic;
        opts
    }

    /// The shared tail of the constructors: default factorization
    /// options, settle band, phase timing and plan-cache capacity.
    fn with_parts(params: SubstrateParams, build: BuildOptions, mode: SolveMode) -> Self {
        SolveOptions {
            params,
            build,
            mode,
            settle_fraction: 1e-3,
            lu: LuOptions::default(),
            phase_timing: false,
            plan_cache_bytes: DEFAULT_CAPACITY_BYTES,
        }
    }

    /// Enables per-phase wall-clock attribution on sessions and on the
    /// cold path of plans.
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
    pub report: SolveReport,
}

/// The configured solver. Cheap to clone; clones share the
/// topology-keyed plan cache (and therefore amortize cold paths across
/// threads — shard locks are held only for probes and inserts, never
/// across a symbolic build or a solve).
///
/// # Example
///
/// ```
/// use ohmflow::{MaxFlowSolver, SolveOptions};
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
    opts: SolveOptions,
    cache: Arc<PlanCache>,
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
    /// Creates a solver with an empty plan cache of
    /// [`SolveOptions::plan_cache_bytes`] capacity.
    pub fn new(opts: SolveOptions) -> Self {
        MaxFlowSolver {
            cache: Arc::new(PlanCache::new(opts.plan_cache_bytes)),
            opts,
        }
    }

    /// The options this solver runs under.
    pub fn options(&self) -> &SolveOptions {
        &self.opts
    }

    /// The solver itself: an alias kept for the `perfbench` benchmark
    /// package, which still calls `solver.engine().plan_cache_stats()`.
    /// New code calls [`MaxFlowSolver::plan_cache_stats`] directly.
    pub fn engine(&self) -> &Self {
        self
    }

    /// Aggregate plan-cache counters (hits/misses/evictions + residency) —
    /// the observability behind [`PlanReport`] and the serving tier's
    /// telemetry.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.cache.stats()
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

    /// Stage two: the topology-dependent cold path for `g`'s shape
    /// (substrate skeleton, MNA structure, fill-reducing ordering,
    /// symbolic + one numeric LU), served from the topology-keyed cache
    /// when the shape was planned before (see [`Plan::cache_hit`]).
    ///
    /// # Errors
    ///
    /// Propagates substrate-construction and factorization failures.
    pub fn plan(&self, g: &FlowNetwork) -> Result<Plan, AnalogError> {
        let (tpl, cache_hit) = self.template_for(g)?;
        Ok(Plan {
            solver: self.clone(),
            tpl,
            cache_hit,
        })
    }

    /// Convenience over the stages: plan (cached) → instance → solve. The
    /// first call on a topology pays the cold path, every further call is
    /// a value-only instantiation + numeric-only solve (with the previous
    /// solve's converged clamp states as a warm start).
    ///
    /// # Errors
    ///
    /// Same as [`Instance::solve`].
    pub fn solve(&self, g: &FlowNetwork) -> Result<AnalogSolution, AnalogError> {
        let (tpl, _) = self.template_for(g)?;
        let sc = tpl.instantiate(g)?;
        self.solve_instance(&sc, &tpl, g.vertex_count())
    }

    /// Solves `g` from scratch, bypassing the plan cache: build the
    /// substrate and simulate it in the configured mode. Kept for
    /// solution-quality studies that must not share state across solves.
    ///
    /// # Errors
    ///
    /// Same as [`Instance::solve`].
    pub fn solve_fresh(&self, g: &FlowNetwork) -> Result<AnalogSolution, AnalogError> {
        let sc = builder::build(g, &self.opts.params, &self.build_options())?;
        match self.opts.mode {
            SolveMode::QuasiStatic => self.solve_quasi_static(&sc, None),
            SolveMode::Transient { .. } => self.solve_relaxation(&sc, g.vertex_count(), None),
        }
    }

    /// Opens a streaming [`DeltaSession`] on `g`: one live analog
    /// substrate absorbing capacity and topology deltas batch by batch,
    /// with capacity updates as value-only restamps, clamp flips as
    /// batched rank-k Woodbury updates, and re-keys against this
    /// solver's plan cache only when the structure actually changes —
    /// see the [`delta`] module docs for the full taxonomy and
    /// consolidation policy.
    ///
    /// # Errors
    ///
    /// Propagates substrate-construction and factorization failures of
    /// the opening solve.
    pub fn delta_session(&self, g: &FlowNetwork) -> Result<DeltaSession, AnalogError> {
        DeltaSession::open(self.clone(), g)
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
                self.solve_relaxation(circuit, graph.vertex_count(), None)
            }
        }
    }

    /// Solves many independent problems in parallel on all cores (rayon),
    /// preserving input order.
    ///
    /// Every [`Problem::Graph`] member goes through
    /// [`MaxFlowSolver::solve`], so same-topology members share one cached
    /// plan: the plan cache's single-flight gate runs each topology's cold
    /// path once while the other members wait for it, and every member
    /// pays only a value-only instantiation plus numeric-only linear
    /// algebra. [`Problem::Built`] members, which no cache serves, share
    /// one symbolic factorization when they have one common circuit
    /// structure.
    pub fn solve_many<'a>(
        &self,
        problems: impl IntoIterator<Item = Problem<'a>>,
    ) -> Vec<Result<AnalogSolution, AnalogError>> {
        let problems: Vec<Problem<'a>> = problems.into_iter().collect();

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
        .then(|| self.dc_solver(None).plan(built[0].circuit()).ok())
        .flatten()
        .and_then(|planned| planned.template().cloned());

        problems
            .par_iter()
            .map(|p| match *p {
                Problem::Graph(g) => self.solve(g),
                Problem::Built { circuit, graph } => {
                    self.solve_relaxation(circuit, graph.vertex_count(), shared.as_ref())
                }
            })
            .collect()
    }

    /// The circuit-level solver configured exactly as this solver (same
    /// factorization options and phase timing), carrying `tpl` — a
    /// circuit's [`SubstrateCircuit::dc_template`] — when there is one.
    fn dc_solver(&self, tpl: Option<&Arc<DcTemplate>>) -> DcSolver {
        let dcs = DcSolver::new()
            .lu_options(self.opts.lu)
            .phase_timing(self.opts.phase_timing);
        match tpl {
            Some(tpl) => dcs.with_template(Arc::clone(tpl)),
            None => dcs,
        }
    }

    /// The build options every path actually uses: the solve mode
    /// constrains the drive shape (quasi-static needs DC; transient keeps a
    /// user-chosen step or soft-start ramp and only replaces an
    /// incompatible DC drive with the default step).
    fn build_options(&self) -> BuildOptions {
        let mut build = self.opts.build;
        build.drive = match (self.opts.mode, build.drive) {
            (SolveMode::QuasiStatic, _) => Drive::Dc,
            (SolveMode::Transient { .. }, Drive::Dc) => Drive::Step,
            (_, d) => d,
        };
        build
    }

    /// The cached [`SubstrateTemplate`] for `g`'s topology, building (and
    /// caching) it on first use, plus whether it came out of the cache.
    /// The template is constructed with this solver's build and
    /// factorization options, so plan-path solves agree with cold-path
    /// solves by construction.
    fn template_for(&self, g: &FlowNetwork) -> Result<(Arc<SubstrateTemplate>, bool), AnalogError> {
        // The hot path: one streaming fingerprint pass over the graph, one
        // sharded probe verified against the full stored key. Cold paths
        // run single-flight outside the shard lock.
        let fingerprint = TemplateKey::fingerprint(g);
        self.cache.get_or_build(fingerprint, g, || {
            SubstrateTemplate::planned(
                g,
                &self.opts.params,
                &self.build_options(),
                &self.dc_solver(None),
            )
            .map(Arc::new)
        })
    }

    /// Number of cached templates (test observability).
    #[cfg(test)]
    fn cached_template_count(&self) -> usize {
        self.cache.len()
    }

    /// Simulates one template instantiation in the configured mode — the
    /// body of [`Instance::solve`].
    fn solve_instance(
        &self,
        sc: &SubstrateCircuit,
        tpl: &SubstrateTemplate,
        n_vertices: usize,
    ) -> Result<AnalogSolution, AnalogError> {
        match self.opts.mode {
            SolveMode::QuasiStatic => self.solve_quasi_static(sc, Some(tpl)),
            SolveMode::Transient { .. } => self.solve_relaxation(sc, n_vertices, None),
        }
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
        let dcs = self.dc_solver(sc.dc_template());
        // Warm starts are value-keyed: only a solve of the *same* value
        // assignment may seed the complementarity iteration (see
        // `template::value_fingerprint`).
        let fingerprint = tpl.map(|_| template::value_fingerprint(sc));
        let warm = tpl.and_then(|t| {
            t.warm_states_for(
                fingerprint.expect("invariant: cached templates always come with a fingerprint"),
            )
        });
        let (sol, report) = match warm {
            Some(w) => dcs.solve_warm(sc.circuit(), &w),
            None => dcs.solve(sc.circuit()),
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
            value_from_current: sc.flow_value_from_current(i_flow, self.opts.params.r_unit),
            edge_flows: sc.edge_flows(|n| sol.voltage(n)),
            convergence_time: None,
            stats: sc.stats(),
            waveforms: None,
            report,
        })
    }

    /// The relaxation transient on a substrate circuit built with a step
    /// or ramp drive, with an optional shared [`DcTemplate`] override (the
    /// batch fan-out path: one template, many same-structure members).
    /// The window and step come from [`SolveMode::Transient`] (automatic
    /// under any other mode); an automatic window grows until the flow
    /// settles early in it.
    fn solve_relaxation(
        &self,
        sc: &SubstrateCircuit,
        n_vertices: usize,
        shared: Option<&Arc<DcTemplate>>,
    ) -> Result<AnalogSolution, AnalogError> {
        let (window, dt) = match self.opts.mode {
            SolveMode::Transient { window, dt } => (window, dt),
            _ => (None, None),
        };
        let tau = self.opts.params.opamp.time_constant();
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
    /// switching, frozen-state DC solves through one incremental
    /// [`FrozenDcSession`](ohmflow_circuit::FrozenDcSession) that carries
    /// the MNA structure, factorization and buffers across every time
    /// step (clamp switches land as Woodbury rank-1 updates with a
    /// periodic numeric-only refactorization; see `DESIGN.md`).
    fn relaxation_run(
        &self,
        sc: &SubstrateCircuit,
        t_stop: f64,
        dt: f64,
        shared: Option<&Arc<DcTemplate>>,
    ) -> Result<AnalogSolution, AnalogError> {
        // The session starts from shared cold-path artifacts when
        // available — an explicitly shared batch template first, else
        // whatever the instantiation attached to the circuit — paying only
        // a numeric-only refactorization instead of structure + ordering +
        // symbolic analysis.
        let mut eq = self
            .dc_solver(shared.or(sc.dc_template()))
            .session(sc.circuit())
            .map_err(AnalogError::from)?;

        let ckt = sc.circuit();
        let tau = self.opts.params.opamp.time_constant();
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
        let r_on = self.opts.params.diode.r_on;

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
        let flow_series = flow_value_series(sc, &waves);
        let wf = Waveform::from_slices(waves.times(), &flow_series);
        let settle = wf.settle_time(self.opts.settle_fraction);

        let value = *flow_series
            .last()
            .expect("invariant: transient runs record at least one sample");
        let i_flow = eq
            .source_current(sc.vflow_source())
            .expect("invariant: the flow-readout vsource has a branch current");
        Ok(AnalogSolution {
            value,
            value_from_current: sc.flow_value_from_current(i_flow, self.opts.params.r_unit),
            edge_flows: relaxed_to_flows(sc, &waves),
            convergence_time: settle,
            stats: sc.stats(),
            waveforms: Some(waves),
            report: eq.report(),
        })
    }
}

/// What one [`Plan`] captured — the cold-path observables in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanReport {
    /// `nnz(L) + nnz(U)` of the plan's symbolic factorization.
    pub factor_nnz: usize,
    /// Diagonal blocks of the block-triangular form.
    pub block_count: usize,
    /// Whether this plan came out of the topology cache rather than
    /// running the cold path.
    pub cache_hit: bool,
    /// Lifetime counters of the sharded plan cache behind this solver
    /// (hits/misses/evictions and resident footprint at report time).
    pub cache: PlanCacheStats,
    /// The cold path that built the plan's template, split into ordering
    /// and pivoting factorization; `None` unless it ran with
    /// [`SolveOptions::phase_timing`] on.
    pub phases: Option<PlanPhases>,
}

/// Stage two: the captured cold path of one graph topology. Cheap to
/// clone (the template is behind an [`Arc`]); derived instances pay only
/// value restamps and numeric linear algebra.
#[derive(Debug, Clone)]
pub struct Plan {
    solver: MaxFlowSolver,
    tpl: Arc<SubstrateTemplate>,
    cache_hit: bool,
}

impl Plan {
    /// The topology key this plan serves.
    pub fn key(&self) -> &TemplateKey {
        self.tpl.key()
    }

    /// The shared substrate template behind this plan.
    pub fn template(&self) -> &Arc<SubstrateTemplate> {
        &self.tpl
    }

    /// Whether this plan was served from the topology cache.
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// The factorization options the plan's symbolic work was built under
    /// — always the solver's [`SolveOptions::lu`].
    pub fn lu_options(&self) -> &LuOptions {
        self.tpl.dc_template().lu_options()
    }

    /// Cold-path observables: fill, block structure, cache provenance.
    pub fn report(&self) -> PlanReport {
        let dc = self.tpl.dc_template();
        PlanReport {
            factor_nnz: dc.factor().factor_nnz(),
            block_count: dc.symbolic().block_count(),
            cache_hit: self.cache_hit,
            cache: self.solver.plan_cache_stats(),
            phases: dc.phases(),
        }
    }

    /// Audits the plan's structural invariants end-to-end: the symbolic
    /// elimination plan with its dense cores and the numeric value arrays
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
        self.solver.audit_plan_cache()
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
            solver: self.solver.clone(),
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
    solver: MaxFlowSolver,
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
        verify::audit_delta_metadata(self.sc.delta_meta(), &edges, vertices, source, sink)
    }

    /// Solves the instance in the configured mode: one DC solve
    /// (quasi-static) or the relaxation transient.
    /// Warm-start state flows through the plan: repeat solves of the same
    /// values skip most of the clamp-engagement cascade.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; [`AnalogError::NotConverged`] if a
    /// transient never settles within the automatic window limit.
    pub fn solve(&self) -> Result<AnalogSolution, AnalogError> {
        self.solver
            .solve_instance(&self.sc, &self.tpl, self.n_vertices)
    }
}

/// Converts the final recorded edge-node voltages of `waves` (its last
/// sample row) to flow units.
fn relaxed_to_flows(sc: &SubstrateCircuit, waves: &WaveformSet) -> Vec<f64> {
    let last = waves.row(waves.len() - 1);
    sc.edge_nodes()
        .iter()
        .map(|&n| {
            waves
                .voltage_column(n)
                .map_or(0.0, |c| last[c] / sc.volts_per_flow())
        })
        .collect()
}

/// Computes the flow-value time series (flow units) from recorded edge-node
/// waveforms: net flow out of the source, sum over source-out edges minus
/// source-in edges.
///
/// The row column of each source-adjacent edge node is resolved **once**,
/// then each sample row is summed in one pass — not one hash lookup per
/// `(sample, edge)` pair. Edges whose node was not probed contribute
/// zero.
pub fn flow_value_series(sc: &SubstrateCircuit, waves: &WaveformSet) -> Vec<f64> {
    let column = |&k: &usize| waves.voltage_column(sc.edge_node(k));
    let out_cols: Vec<usize> = sc.source_out_edges().iter().filter_map(column).collect();
    let in_cols: Vec<usize> = sc.source_in_edges().iter().filter_map(column).collect();
    let scale = 1.0 / sc.volts_per_flow();
    (0..waves.len())
        .map(|i| {
            let row = waves.row(i);
            let mut s = 0.0f64;
            for &c in &out_cols {
                s += row[c];
            }
            for &c in &in_cols {
                s -= row[c];
            }
            s * scale
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::{MaxFlowSolver, Problem, SolveOptions};
    use crate::builder::CapacityMapping;
    use ohmflow_graph::generators;
    use ohmflow_graph::rmat::RmatConfig;
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

    /// `evaluation_quasi_static` answers recorded when its negative
    /// resistors were still the behavioural NIC element (a branch-current
    /// unknown per resistor): the ideal resistors that replaced it must
    /// reproduce them within 1e-12 relative on both solve paths.
    #[test]
    fn evaluation_quasi_static_values_are_pinned() {
        let mut rmat = RmatConfig::sparse(256, 1);
        rmat.max_capacity = 100;
        for (name, g, pinned) in [
            ("fig5a", generators::fig5a(), 2.100272696406902),
            ("rmat256", rmat.generate().unwrap(), 625.1047096605776),
            (
                "grid12",
                generators::grid(12, 12, 64, 7).unwrap(),
                249.65690517964202,
            ),
        ] {
            let solver = MaxFlowSolver::new(SolveOptions::evaluation_quasi_static(10e9));
            for (path, sol) in [
                ("planned", solver.solve(&g)),
                ("fresh", solver.solve_fresh(&g)),
            ] {
                let value = sol.unwrap().value;
                assert!(
                    ((value - pinned) / pinned).abs() <= 1e-12,
                    "{name} {path}: {value} vs pinned {pinned}"
                );
            }
        }
    }

    #[test]
    fn templated_quasi_static_matches_cold_path() {
        let g = generators::fig5a();
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        let cold = solver.solve_fresh(&g).unwrap();
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
        assert_eq!(solver.cached_template_count(), 1, "one topology, one plan");
        // The staged path is the same code path as `solve`.
        let plan = solver.plan(&g2).unwrap();
        assert!(plan.cache_hit(), "second plan must hit the cache");
        let staged = plan.instance(&g2).unwrap().solve().unwrap();
        assert!((staged.value - warm2.value).abs() < 1e-12);
    }

    #[test]
    fn one_shot_solve_plans_small_graphs() {
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        solver.solve(&generators::fig5a()).unwrap();
        assert_eq!(solver.cached_template_count(), 1);
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
    fn batch_plans_each_topology_once_and_matches_sequential() {
        // Mixed batch: four capacity variants of one topology plus one
        // distinct topology.
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
            assert!(b.report.templated, "every member rides a cached plan");
        }
        // One cached plan per distinct topology.
        assert_eq!(solver.cached_template_count(), 2);
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
