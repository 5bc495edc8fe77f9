use std::borrow::{Borrow, BorrowMut};
use std::sync::Arc;
use std::time::Instant;

use ohmflow_linalg::{
    amd_btf_ordering, CscMatrix, LowRankUpdate, LuWorkspace, RankOneTermRef, SparseLu, SymbolicLu,
};

use crate::LuOptions;

use crate::circuit::Circuit;
use crate::element::Element;
use crate::error::CircuitError;
use crate::ids::{ElementId, NodeId};
use crate::mna::{self, DeviceState, MnaStructure, Solution, StampedMatrix, StateIteration};

/// One owned rank-1 term `(u, v)` staged for a batched Woodbury push
/// (the borrowed shape is [`RankOneTermRef`]).
type RankOneTerm = (Vec<(usize, f64)>, Vec<(usize, f64)>);
use crate::source::SourceValue;

/// A reusable, shareable cold-path artifact for one circuit *topology*: the
/// MNA unknown map, the base (all-states-initial) matrix sparsity, and its
/// factorization — symbolic ordering/pattern plus one numeric factor.
///
/// Building a template performs the entire topology-dependent cold path
/// once: unknown indexing, stamping, fill-reducing ordering, symbolic
/// analysis, numeric factorization. Every subsequent analysis of a circuit
/// with the **same structure** (same element list shape and terminals —
/// element *values* are free to differ) can then start from the template:
/// a planned [`DcSolver`] opens each solve's and session's
/// [`FrozenDcSession`] with a numeric replay of the template's factor for
/// the circuit's values, without redoing the structure, ordering or
/// symbolic work, and falls back to the cold path transparently when the
/// template does not match the circuit. Only [`DcSolver::plan`] builds
/// one. A template owns no borrow of the circuit it was derived from, is
/// `Send + Sync`, and is typically held behind an [`Arc`] and shared
/// across batch workers; each worker's numeric refactorization clones only
/// the value arrays while the symbolic plan ([`DcTemplate::symbolic`]) is
/// shared by pointer.
#[derive(Debug)]
pub struct DcTemplate {
    st: MnaStructure,
    /// Whether each element carries a branch-current unknown, element
    /// order: the structural fingerprint a candidate circuit must match.
    branch_shape: Vec<bool>,
    lu: SparseLu,
    /// The initial-state matrix with its slot map: every solve and
    /// session seeded from the template restamps a clone of it, sharing
    /// the map.
    base: StampedMatrix,
    /// The factorization options (the pivoting threshold)
    /// the template's symbolic plan was built under — reused by every
    /// fallback fresh factorization so a template never silently mixes
    /// options.
    lu_opts: LuOptions,
    n_nodes: usize,
    /// The cold path's split, when it ran with phase timing on.
    phases: Option<PlanPhases>,
}

/// Wall-clock nanoseconds of a [`DcTemplate`]'s cold path per phase,
/// recorded when it is built with phase timing on
/// ([`DcSolver::phase_timing`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanPhases {
    /// The fill-reducing ordering: AMD + block-triangular form.
    pub ordering_ns: u64,
    /// The pivoting numeric factorization under that ordering.
    pub factor_ns: u64,
}

impl DcTemplate {
    /// Runs the cold path on `ckt` under `lu_opts` (the ordering is
    /// always AMD + block-triangular) and captures the reusable artifacts,
    /// recording the [`PlanPhases`] when `timed` — the body of
    /// [`DcSolver::plan`].
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularSystem`] if the initial-state configuration
    /// is unsolvable (floating nodes, inconsistent source loops).
    fn build(ckt: &Circuit, lu_opts: LuOptions, timed: bool) -> Result<Self, CircuitError> {
        let st = MnaStructure::new(ckt);
        let states = mna::initial_states(ckt);
        let branch_shape = ckt
            .elements()
            .iter()
            .map(Element::has_branch_current)
            .collect();
        let mut base = StampedMatrix::mapped(ckt, &st, &states);
        base.forget_pushes();
        // The factor records the matrix it factored, so opening a session
        // on a circuit replays only the columns whose values differ from
        // the base (none, when capacities move only source values).
        let t0 = phase_clock(timed);
        let ordering = amd_btf_ordering(base.matrix());
        let ordering_ns = elapsed_ns(t0);
        let t0 = phase_clock(timed);
        let lu = SparseLu::factor_ordered(base.matrix(), ordering, &lu_opts)?;
        let phases = timed.then(|| PlanPhases {
            ordering_ns,
            factor_ns: elapsed_ns(t0),
        });
        Ok(DcTemplate {
            st,
            branch_shape,
            lu,
            base,
            lu_opts,
            n_nodes: ckt.node_count(),
            phases,
        })
    }

    /// The cold path's split into ordering and pivoting factorization,
    /// when this template was built with phase timing on.
    pub fn phases(&self) -> Option<PlanPhases> {
        self.phases
    }

    /// The factorization options this template was built under.
    pub fn lu_options(&self) -> &LuOptions {
        &self.lu_opts
    }

    /// The unknown map shared by every circuit this template matches.
    pub fn structure(&self) -> &MnaStructure {
        &self.st
    }

    /// The shared symbolic factorization (ordering + pattern + pivot plan).
    pub fn symbolic(&self) -> &Arc<SymbolicLu> {
        self.lu.symbolic()
    }

    /// The template's numeric factor over [`DcTemplate::symbolic`].
    pub fn factor(&self) -> &SparseLu {
        &self.lu
    }

    /// `true` if `ckt` has the structure this template was built from:
    /// same node count and the same element-by-element branch-current
    /// shape. Values (resistances, source waveforms, device models) may
    /// differ — that is the point. A terminal rewiring that survives this
    /// check is still caught downstream: it changes the stamp pattern and
    /// the numeric refactorization rejects it ([`PatternChanged`]), which
    /// the consumers answer with a fresh factorization.
    ///
    /// [`PatternChanged`]: ohmflow_linalg::LinalgError::PatternChanged
    pub fn matches(&self, ckt: &Circuit) -> bool {
        ckt.node_count() == self.n_nodes
            && ckt.element_count() == self.branch_shape.len()
            && ckt
                .elements()
                .iter()
                .zip(&self.branch_shape)
                .all(|(e, &b)| e.has_branch_current() == b)
    }
}

/// Structured accounting of one DC solve — what the staged facade returns
/// instead of the historical scatter of ad-hoc stats structs.
///
/// `iterations` is the device-state (complementarity) iteration count for
/// an operating-point solve, or the number of frozen-state solves for a
/// session; `factor_nnz`/`block_count` describe the factorization that
/// produced the answer (`nnz(L+U)` and the number of BTF diagonal blocks);
/// `templated` records whether the symbolic-reuse fast path was taken;
/// `refactorizations` counts the numeric factors computed; and `phases`
/// carries the per-phase wall-clock attribution when the caller opted into
/// [`DcSolver::phase_timing`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveReport {
    /// State iterations (operating-point solve) or frozen-state solves
    /// performed (session).
    pub iterations: usize,
    /// The state iteration at which the complementarity iteration first
    /// revisited an assignment, which starts its anti-cycling regime
    /// early; `None` when no assignment repeated. A session reports its
    /// last [`FrozenDcSession::solve_operating_point`].
    pub cycle_break: Option<usize>,
    /// `nnz(L) + nnz(U)` of the factorization behind the answer.
    pub factor_nnz: usize,
    /// Diagonal blocks of the block-triangular form (1 for an irreducible
    /// or structurally singular system).
    pub block_count: usize,
    /// Whether the solve rode a template's shared symbolic plan.
    pub templated: bool,
    /// Iterative-refinement steps applied after the linear solves: 1 for
    /// the post-solve polish of an operating-point solve, 0 when its
    /// correction solve failed; a session counts one per Woodbury-corrected
    /// solve.
    pub refinements: usize,
    /// Numeric factors computed: numeric replays plus fresh pivoting
    /// factorizations (one per state iteration that changed the matrix,
    /// plus the one that opened the session). A session counts its whole
    /// life.
    pub refactorizations: usize,
    /// Per-phase wall-clock attribution, present when
    /// [`DcSolver::phase_timing`] is enabled. An operating-point solve
    /// fills `stamp_ns`, `refactor_ns` and `solve_ns`.
    pub phases: Option<FrozenDcPhases>,
}

/// The circuit-level DC solver: **configure once, plan per structure,
/// solve/session many times.**
///
/// ```text
/// DcSolver --plan(&ckt)--> DcSolver + template --solve(&ckt)-->   (DcSolution, SolveReport)
///    |                                        \--session(host)-->  FrozenDcSession
///    \--solve/solve_at/session/stamp (no template: cold path inline)
/// ```
///
/// A planned solver carries the topology-dependent cold path (MNA
/// structure, fill-reducing ordering, symbolic + one numeric LU) behind an
/// [`Arc<DcTemplate>`]: every solve or session it runs on a circuit the
/// template matches pays only numeric work, and one it does not match
/// falls back to the cold path transparently. A solver without a template
/// runs the cold path inline — use it for one-shot analyses. Cheap to
/// clone and `Send + Sync`: batch workers share one template by pointer.
///
/// # Example
///
/// ```
/// use ohmflow_circuit::{Circuit, DcSolver, SourceValue};
///
/// # fn main() -> Result<(), ohmflow_circuit::CircuitError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// let mid = ckt.node("mid");
/// ckt.voltage_source(a, Circuit::GROUND, SourceValue::dc(2.0));
/// ckt.resistor(a, mid, 1e3);
/// ckt.resistor(mid, Circuit::GROUND, 1e3);
/// let (sol, report) = DcSolver::new().solve(&ckt)?;
/// assert!((sol.voltage(mid) - 1.0).abs() < 1e-9);
/// assert!(report.iterations >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DcSolver {
    lu: LuOptions,
    phase_timing: bool,
    /// The captured cold path every solve and session starts from, when
    /// the solver was planned.
    tpl: Option<Arc<DcTemplate>>,
}

impl DcSolver {
    /// A solver with the default factorization options (AMD + BTF
    /// ordering, phase timing off) and no template.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the factorization options (the pivoting threshold).
    /// Set them before [`DcSolver::plan`]: every plan built by this
    /// solver factors under them, and planning (or
    /// [`DcSolver::with_template`]) replaces them with the template's own
    /// options, which the planned solver's fallback fresh factorizations
    /// then reuse.
    pub fn lu_options(mut self, opts: LuOptions) -> Self {
        self.lu = opts;
        self
    }

    /// Enables per-phase wall-clock attribution on sessions created by
    /// this solver (see [`FrozenDcSession::report`]), on its
    /// operating-point solves ([`SolveReport::phases`]) and on the cold
    /// path of its plans ([`DcTemplate::phases`]). Off by default: clock
    /// reads tax every step of small systems.
    pub fn phase_timing(mut self, on: bool) -> Self {
        self.phase_timing = on;
        self
    }

    /// Runs the topology-dependent cold path on `ckt` once and returns
    /// this solver carrying it as a fresh [`DcTemplate`]: unknown
    /// indexing, stamping, fill-reducing ordering, symbolic analysis, one
    /// numeric factorization.
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularSystem`] if the initial-state configuration
    /// is unsolvable.
    pub fn plan(&self, ckt: &Circuit) -> Result<DcSolver, CircuitError> {
        let tpl = DcTemplate::build(ckt, self.lu, self.phase_timing)?;
        Ok(self.clone().with_template(Arc::new(tpl)))
    }

    /// This solver carrying an already-built [`DcTemplate`], without
    /// redoing any cold-path work. The solver adopts the **template's**
    /// factorization options (a symbolic plan is only reusable under the
    /// options that produced it), so cold fallbacks factor under them too.
    pub fn with_template(mut self, tpl: Arc<DcTemplate>) -> Self {
        self.lu = *tpl.lu_options();
        self.tpl = Some(tpl);
        self
    }

    /// The captured cold path this solver starts from, if it was planned.
    pub fn template(&self) -> Option<&Arc<DcTemplate>> {
        self.tpl.as_ref()
    }

    /// Operating-point solve of `ckt` — numeric-only through the template
    /// when it matches `ckt`, the cold path otherwise.
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularSystem`] /
    /// [`CircuitError::StateIterationDiverged`].
    pub fn solve(&self, ckt: &Circuit) -> Result<(DcSolution, SolveReport), CircuitError> {
        self.run(ckt, None, None)
    }

    /// Quasi-static solve with time-varying sources evaluated at `t` (the
    /// §6.5 slow-ramp analysis shape).
    ///
    /// # Errors
    ///
    /// Same as [`DcSolver::solve`].
    pub fn solve_at(
        &self,
        ckt: &Circuit,
        t: f64,
    ) -> Result<(DcSolution, SolveReport), CircuitError> {
        self.run(ckt, Some(t), None)
    }

    /// [`DcSolver::solve`] with the device-state iteration warm-started
    /// from `warm` — typically [`DcSolution::device_states`] of a previous
    /// solve on the same structure. A shape-incompatible assignment is
    /// ignored; a warm start that fails to converge retries from the
    /// default initial states, so warm starts never change which systems
    /// are solvable.
    ///
    /// # Errors
    ///
    /// Same as [`DcSolver::solve`].
    pub fn solve_warm(
        &self,
        ckt: &Circuit,
        warm: &[DeviceState],
    ) -> Result<(DcSolution, SolveReport), CircuitError> {
        self.run(ckt, None, Some(warm))
    }

    /// An incremental frozen-state session on `host`, opened from the
    /// template when it matches (a numeric-only refactorization against
    /// the shared symbolic plan — the batch fan-out shape), cold
    /// otherwise. `host` is anything that [`Borrow`]s a [`Circuit`]: a
    /// borrowed `&Circuit` for batch workers sharing a template, or an
    /// owning wrapper moved in to build a self-contained session (the core
    /// crate's graph-delta sessions hand their whole substrate over, then
    /// restamp source values in place through
    /// [`FrozenDcSession::set_source_value`]).
    ///
    /// # Errors
    ///
    /// Same as [`DcSolver::solve`].
    pub fn session<C: Borrow<Circuit>>(&self, host: C) -> Result<FrozenDcSession<C>, CircuitError> {
        FrozenDcSession::construct(
            host,
            self.tpl.as_deref(),
            self.lu,
            None,
            false,
            self.phase_timing,
        )
    }

    /// Stamps `ckt`'s initial-state DC MNA matrix and factors it under
    /// this solver's options, returning both — the bench/diagnostic entry
    /// point for working with the raw linear system of a real circuit.
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularSystem`] if the initial-state configuration
    /// is unsolvable.
    pub fn stamp(&self, ckt: &Circuit) -> Result<(CscMatrix, SparseLu), CircuitError> {
        let st = MnaStructure::new(ckt);
        let states = mna::initial_states(ckt);
        let m = mna::stamp_matrix(ckt, &st, &states).to_csc();
        let lu = SparseLu::factor_with(&m, &self.lu)?;
        Ok((m, lu))
    }

    /// The one DC operating-point solve body every [`DcSolver`] entry
    /// point funnels into: a [`FrozenDcSession`] opened at the
    /// iteration's start states (`warm` when it is shape-compatible, the
    /// initial assignment otherwise) — from the template when it matches,
    /// a numeric replay of the template's factor — runs
    /// [`FrozenDcSession::solve_operating_point`] with a rank budget of 0,
    /// so every state iteration restamps the devices that moved and
    /// replays once, and finishes with one step of iterative refinement
    /// against its own stamped matrix and RHS. Sources are evaluated at
    /// `at_time`, or at `0⁻` (`Step` sources at their pre-step value) when
    /// it is `None`.
    fn run(
        &self,
        ckt: &Circuit,
        at_time: Option<f64>,
        warm: Option<&[DeviceState]>,
    ) -> Result<(DcSolution, SolveReport), CircuitError> {
        let initial = mna::initial_states(ckt);
        // Warm-started states must be shape-compatible: one entry per
        // element, stateless exactly where the initial assignment is.
        let warm = warm.filter(|w| {
            w.len() == initial.len()
                && w.iter()
                    .zip(&initial)
                    .all(|(a, b)| (*a == DeviceState::Stateless) == (*b == DeviceState::Stateless))
        });
        let t = at_time.unwrap_or(0.0);
        // What a failed attempt's session spent.
        let mut spent = SolveReport::default();
        let mut attempt = |tpl: Option<&DcTemplate>, states: Vec<DeviceState>| {
            let mut s = FrozenDcSession::construct(
                ckt,
                tpl,
                self.lu,
                Some(states.clone()),
                at_time.is_none(),
                self.phase_timing,
            )?
            .with_max_rank(0);
            match s.operating_point(t, states) {
                Ok(done) => Ok((s, done)),
                Err(e) => {
                    spent = s.report();
                    Err(e)
                }
            }
        };
        let start = warm.map_or_else(|| initial.clone(), <[DeviceState]>::to_vec);
        let (mut session, (iterations, states)) = match attempt(self.tpl.as_deref(), start) {
            // A bad warm start must not make a solvable system fail —
            // neither by cycling (divergence) nor by producing a singular
            // frozen stamp (e.g. a state set that floats a node). Retry
            // cold from the initial states.
            Err(
                CircuitError::StateIterationDiverged { .. } | CircuitError::SingularSystem { .. },
            ) if warm.is_some() => attempt(None, initial)?,
            done => done?,
        };
        // Besides tightening every DC result, the refinement is what makes
        // the template and cold paths — which factor *different but
        // electrically equivalent* systems — agree to the conditioning
        // floor instead of the (much looser) raw-factorization error.
        session.refine();
        let mut report = session.report();
        report.iterations = iterations;
        report.refactorizations += spent.refactorizations;
        if let (Some(p), Some(q)) = (report.phases.as_mut(), spent.phases) {
            p.stamp_ns += q.stamp_ns;
            p.refactor_ns += q.refactor_ns;
            p.solve_ns += q.solve_ns;
            p.woodbury_ns += q.woodbury_ns;
        }
        let solution = DcSolution {
            inner: Solution::new(session.x, session.st),
            states,
        };
        Ok((solution, report))
    }
}

/// Counters describing how a [`FrozenDcSession`] spent its linear-algebra
/// budget — the observable behind the incremental engine's speedup claims.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrozenDcStats {
    /// Frozen-state solves performed (including reused ones).
    pub solves: usize,
    /// Solves answered from the previous operating point because neither
    /// the clamp configuration nor any source value changed.
    pub reused_solutions: usize,
    /// Clamp-diode toggles absorbed as Woodbury rank-1 updates.
    pub rank1_updates: usize,
    /// Numeric-only refactorizations (pattern and pivots reused).
    pub refactorizations: usize,
    /// Full pivoting factorizations (session start + fallbacks).
    pub full_factorizations: usize,
}

/// Wall-clock nanoseconds a [`FrozenDcSession`] spent per linear-algebra
/// phase of its solve loop — the attribution that makes a transient
/// regression diagnosable: a slower `stamp` points at element iteration, a
/// slower `refactor` at the numeric replay, `solve` at
/// the triangular solves, `woodbury` at the rank-1 update bookkeeping.
/// Read through [`SolveReport::phases`] (a session's
/// [`FrozenDcSession::report`] carries it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrozenDcPhases {
    /// Re-stamping the MNA matrix and the per-step right-hand sides.
    pub stamp_ns: u64,
    /// Numeric refactorizations (and fallback fresh factorizations) during
    /// rebases.
    pub refactor_ns: u64,
    /// Triangular solves against the base factorization.
    pub solve_ns: u64,
    /// Woodbury bookkeeping: the pushes' column solves, capacitance
    /// refreshes, corrections and the refinement residual matvecs.
    pub woodbury_ns: u64,
}

/// The one clock read of the DC engine (sessions and operating-point
/// solves alike): `Some(now)` only when phase timing is on, so untimed runs
/// never touch the clock.
#[inline]
fn phase_clock(on: bool) -> Option<Instant> {
    on.then(Instant::now)
}

/// Nanoseconds since a [`phase_clock`] read; 0 when timing is off.
#[inline]
fn elapsed_ns(t0: Option<Instant>) -> u64 {
    t0.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

impl FrozenDcPhases {
    /// Total accounted nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.stamp_ns + self.refactor_ns + self.solve_ns + self.woodbury_ns
    }
}

/// A persistent frozen-state DC solve engine: the incremental
/// alternative to restamping and refactoring on every state change.
///
/// The session owns the MNA structure, the base stamp's factorization and
/// preallocated RHS/solution buffers. Between consecutive
/// [`FrozenDcSession::solve`] calls only the diode conduction states and
/// the source evaluation time may change, and the session exploits that:
///
/// * **no flips** — the existing factorization solves the new RHS directly;
/// * **a few flips** — each toggle is a symmetric 1–2 entry conductance
///   change, absorbed as a Sherman–Morrison–Woodbury rank-1 update
///   ([`LowRankUpdate`]) against the existing factorization;
/// * **accumulated rank exceeds the budget, or the periodic hygiene
///   counter fires** — the matrix is re-stamped and *numerically*
///   refactored ([`SparseLu::refactor`]), reusing the column ordering,
///   symbolic pattern and pivot sequence; a fresh pivoting factorization
///   is the last resort (singular refactor or changed pattern). Such a
///   rebase pays for what changed since the last one: unless an element
///   value was edited ([`FrozenDcSession::host_mut`],
///   [`FrozenDcSession::set_resistances`]), only the devices whose state
///   moved are restamped, and the numeric replay rewrites only the pivot
///   steps their columns reach ([`SparseLu::refactor_with`]).
///
/// The quasi-static relaxation engine of the `ohmflow` core crate runs its
/// entire transient on one session; see `DESIGN.md` for the lifecycle.
///
/// # Example
///
/// ```
/// use ohmflow_circuit::{Circuit, DcSolver, DiodeModel, SourceValue};
///
/// # fn main() -> Result<(), ohmflow_circuit::CircuitError> {
/// let mut ckt = Circuit::new();
/// let top = ckt.node("top");
/// let x = ckt.node("x");
/// ckt.voltage_source(top, Circuit::GROUND, SourceValue::dc(5.0));
/// ckt.resistor(top, x, 1e3);
/// ckt.diode(x, Circuit::GROUND, DiodeModel::ideal());
/// let mut session = DcSolver::new().session(&ckt)?;
/// session.solve(0.0, &[false])?; // diode frozen off: x floats at 5 V
/// assert!((session.voltage(x) - 5.0).abs() < 1e-3);
/// session.solve(0.0, &[true])?; // diode frozen on: x clamps near 0 V
/// assert!(session.voltage(x).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
/// The session is generic over how it holds its circuit: `C` is any
/// [`Borrow<Circuit>`]. The historical form `FrozenDcSession<&Circuit>`
/// borrows the caller's circuit (batch workers sharing one structure);
/// `FrozenDcSession<Circuit>` — the default parameter — **owns** it, which
/// is what long-lived streaming sessions (the core crate's graph-delta
/// sessions) need: an owning session can restamp its own source values
/// through [`FrozenDcSession::set_source_value`] without fighting the
/// borrow checker over a self-referential pair.
#[derive(Debug)]
pub struct FrozenDcSession<C = Circuit> {
    ckt: C,
    st: MnaStructure,
    /// Element index of each diode, in [`Circuit::diode_ids`] order.
    diode_elems: Vec<usize>,
    /// Current logical device states (diodes track the last `solve`).
    states: Vec<DeviceState>,
    lu: SparseLu,
    /// The matrix `lu` factors (kept for iterative-refinement residuals),
    /// restamped in place by rebases.
    base: StampedMatrix,
    update: LowRankUpdate,
    /// Rank budget: the most outstanding Woodbury terms the session
    /// carries; a flip cascade or a resistor batch that would exceed it
    /// rebases onto a refactorization instead of pushing.
    max_rank: usize,
    /// Solves since the last rebase; a rebase is forced every
    /// `rebase_period` solves while updates are outstanding (numerical
    /// hygiene: bounds Woodbury round-off accumulation).
    solves_since_rebase: usize,
    rebase_period: usize,
    /// Instant after which every independent source is constant
    /// ([`SourceValue::constant_after`]): past it, a step with no diode
    /// flips provably has the same operating point as the previous one and
    /// the solve is skipped outright.
    ///
    /// [`SourceValue::constant_after`]: crate::SourceValue::constant_after
    rhs_const_after: f64,
    /// Time of the last materialized solve (`None` before the first).
    last_solve_time: Option<f64>,
    /// The `diode_on` assignment of the previous call; an equal slice
    /// short-circuits the per-diode flip scan.
    last_diode_on: Vec<bool>,
    /// Set when a solve fails partway: state, factorization and cached
    /// solution may disagree, so the next call rebuilds before solving.
    poisoned: bool,
    /// Factorization options for fallback fresh factorizations (rebases
    /// whose pattern moved or whose frozen pivots died).
    lu_opts: LuOptions,
    /// Whether this session started from a template's shared symbolic plan
    /// — a numeric replay, not a fallback pivoting factorization
    /// (surfaced through [`FrozenDcSession::report`]).
    templated: bool,
    /// When set, a paused flip cascade does NOT auto-consolidate
    /// outstanding Woodbury terms: the owner (a delta session) runs its
    /// own consolidation budget and calls
    /// [`FrozenDcSession::consolidate`] itself. The hygiene period still
    /// bounds round-off accumulation.
    defer_consolidation: bool,
    rhs: Vec<f64>,
    work: Vec<f64>,
    x: Vec<f64>,
    resid: Vec<f64>,
    dx: Vec<f64>,
    /// Scratch for numeric refactorizations (rebases stay allocation-free).
    lu_ws: LuWorkspace,
    /// Set when an element value may have changed since `base` was
    /// stamped ([`FrozenDcSession::host_mut`],
    /// [`FrozenDcSession::set_resistances`]): the next rebase walks every
    /// element. Otherwise only device states moved, and a rebase restamps
    /// just the changed devices.
    values_edited: bool,
    /// Iterative-refinement steps applied so far (surfaced through
    /// [`FrozenDcSession::report`]).
    refinements: usize,
    /// First-repeat iteration of the last operating-point solve.
    cycle_break: Option<usize>,
    /// Whether `Step` sources take their pre-step value (a `0⁻`
    /// operating point); fixed when the session opens.
    pre_step: bool,
    stats: FrozenDcStats,
    /// Phase timing is opt-in ([`DcSolver::phase_timing`]): clock reads
    /// cost tens of nanoseconds, which is real money on small systems
    /// whose whole flip step is a few microseconds.
    phase_timing: bool,
    phases: FrozenDcPhases,
}

impl<C: Borrow<Circuit>> FrozenDcSession<C> {
    /// Default rank budget before rebase (the relaxation transient's
    /// flip-by-flip sessions). Each accumulated rank-1 term adds one dense
    /// axpy per solve, so a handful of outstanding terms stays well below
    /// the cost of a refactorization. Delta sessions derive their own
    /// budget from their factor's costs and set it through
    /// [`FrozenDcSession::with_max_rank`].
    const DEFAULT_MAX_RANK: usize = 12;

    /// Default hygiene period (solves between forced rebases while
    /// updates are outstanding).
    const DEFAULT_REBASE_PERIOD: usize = 256;

    /// The one session constructor every entry point funnels into: a
    /// DC stamp at `start` (the initial assignment when `None`), with
    /// `Step` sources at their `0⁻` value when `pre_step`. With a
    /// matching template the circuit's base matrix is restamped through
    /// the template's slot map with its *current* values and the
    /// template's factor is numerically replayed (shared symbolic plan,
    /// fresh per-session values) — the batch fan-out fast path, with a
    /// fresh pivoting factorization as fallback; otherwise (or when the
    /// template does not [match](DcTemplate::matches)) the full cold path
    /// runs under `lu_opts`, which every rebase-path fallback
    /// factorization reuses. `phase_timing` turns on the phase times of
    /// [`FrozenDcSession::report`], which then include this open.
    pub(crate) fn construct(
        ckt: C,
        tpl: Option<&DcTemplate>,
        lu_opts: LuOptions,
        start: Option<Vec<DeviceState>>,
        pre_step: bool,
        phase_timing: bool,
    ) -> Result<Self, CircuitError> {
        let c = ckt.borrow();
        let states = start.unwrap_or_else(|| mna::initial_states(c));
        let tpl = tpl.filter(|t| t.matches(c));
        let mut phases = FrozenDcPhases::default();
        let mut lu_ws = LuWorkspace::new();
        let t0 = phase_clock(phase_timing);
        let (st, base, lu_opts) = match tpl {
            Some(tpl) => {
                let mut m = tpl.base.clone();
                m.restamp(c, &tpl.st, &states);
                (tpl.st.clone(), m, tpl.lu_opts)
            }
            None => {
                let st = MnaStructure::new(c);
                let m = StampedMatrix::new(c, &st, &states);
                (st, m, lu_opts)
            }
        };
        phases.stamp_ns += elapsed_ns(t0);
        let t0 = phase_clock(phase_timing);
        let replayed = tpl.and_then(|tpl| {
            let mut lu = tpl.lu.clone();
            lu.refactor_with(base.matrix(), &mut lu_ws)
                .is_ok()
                .then_some(lu)
        });
        let templated = replayed.is_some();
        let lu = match replayed {
            Some(lu) => lu,
            None => SparseLu::factor_with(base.matrix(), &lu_opts)?,
        };
        phases.refactor_ns += elapsed_ns(t0);
        let diode_elems = c
            .elements()
            .iter()
            .enumerate()
            .filter_map(|(i, e)| matches!(e, Element::Diode { .. }).then_some(i))
            .collect();
        let n = st.n_unknowns();
        let rhs_const_after = c
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::VoltageSource { value, .. } => Some(value.constant_after()),
                _ => None,
            })
            .fold(f64::NEG_INFINITY, f64::max);
        Ok(FrozenDcSession {
            ckt,
            st,
            diode_elems,
            states,
            lu,
            base,
            update: LowRankUpdate::new(n),
            max_rank: Self::DEFAULT_MAX_RANK,
            solves_since_rebase: 0,
            rebase_period: Self::DEFAULT_REBASE_PERIOD,
            rhs_const_after,
            last_solve_time: None,
            last_diode_on: Vec::new(),
            poisoned: false,
            lu_opts,
            templated,
            defer_consolidation: false,
            rhs: Vec::with_capacity(n),
            work: Vec::with_capacity(n),
            x: vec![0.0; n],
            resid: Vec::with_capacity(n),
            dx: Vec::with_capacity(n),
            lu_ws,
            values_edited: false,
            refinements: 0,
            cycle_break: None,
            pre_step,
            stats: FrozenDcStats {
                refactorizations: usize::from(templated),
                full_factorizations: usize::from(!templated),
                ..FrozenDcStats::default()
            },
            phase_timing,
            phases,
        })
    }

    /// Reads the clock only when phase timing is enabled.
    #[inline]
    fn clock(&self) -> Option<Instant> {
        phase_clock(self.phase_timing)
    }

    /// Overrides the rank budget: the most outstanding Woodbury terms the
    /// session carries before a diode cascade or a
    /// [`set_resistances`](FrozenDcSession::set_resistances) batch rebases
    /// instead of pushing. `0` forces a rebase on every flip and every
    /// resistor edit, which degenerates to the pure-refactorization
    /// engine ([`DcSolver`] solves run there); delta sessions pass the
    /// budget their factor's push/replay costs derive.
    pub fn with_max_rank(mut self, max_rank: usize) -> Self {
        self.max_rank = max_rank;
        self
    }

    /// Defers cascade-pause consolidation to the caller: outstanding
    /// rank-1 terms survive quiescent solves until the owner's own
    /// budget triggers [`FrozenDcSession::consolidate`] (or the hygiene
    /// period forces a rebase). Delta sessions use this so absorbed
    /// graph deltas are not folded away after every batch.
    pub fn with_deferred_consolidation(mut self) -> Self {
        self.defer_consolidation = true;
        self
    }

    /// Solves the operating point at `time` with the given frozen diode
    /// conduction states (indexed by [`Circuit::diode_ids`] order; missing
    /// entries default to off). Results are read back through
    /// [`FrozenDcSession::voltage`] / [`FrozenDcSession::branch_current`] /
    /// [`FrozenDcSession::values`] without allocating.
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularSystem`] if the frozen configuration is
    /// unsolvable. A failed call leaves the session *poisoned*: the cached
    /// operating point is discarded (never served from the quiescent fast
    /// path) and the next call re-stamps and refactors from scratch before
    /// solving, so an error followed by a solvable configuration recovers
    /// cleanly.
    pub fn solve(&mut self, time: f64, diode_on: &[bool]) -> Result<(), CircuitError> {
        self.solve_frozen(time, diode_on, false)
    }

    /// [`FrozenDcSession::solve`], reusing the last RHS when `keep_rhs`
    /// (the caller knows it to be current).
    fn solve_frozen(
        &mut self,
        time: f64,
        diode_on: &[bool],
        keep_rhs: bool,
    ) -> Result<(), CircuitError> {
        if self.poisoned {
            // A previous call failed mid-flight: states/factorization/
            // solution may be mutually inconsistent (a failed refactor
            // partially overwrites factor values). Apply the requested
            // states directly and rebuild the factorization from the
            // stamp, which regenerates every value.
            for (di, &idx) in self.diode_elems.iter().enumerate() {
                self.states[idx] = if *diode_on.get(di).unwrap_or(&false) {
                    DeviceState::On
                } else {
                    DeviceState::Off
                };
            }
            self.last_diode_on.clear();
            self.last_diode_on.extend_from_slice(diode_on);
            self.rebase()?; // still poisoned if this fails
            self.poisoned = false;
        }
        let solved = self.solve_impl(time, diode_on, keep_rhs);
        if solved.is_err() {
            self.poisoned = true;
            self.last_solve_time = None;
        }
        solved
    }

    fn solve_impl(
        &mut self,
        time: f64,
        diode_on: &[bool],
        keep_rhs: bool,
    ) -> Result<(), CircuitError> {
        // Absorb diode flips as rank-1 conductance updates. An unchanged
        // `diode_on` slice (the common quiescent case) skips the scan.
        // Flips are collected first and pushed as ONE rank-k batch: the
        // batched push drives all k columns of Z = A⁻¹U through shared
        // multi-RHS factor traversals and refreshes the capacitance matrix
        // once, where per-flip pushes re-stream the factor per flip.
        let mut any_flips = false;
        let unchanged = self.last_solve_time.is_some() && self.last_diode_on == diode_on;
        // Flipped diodes with a terminal off ground (a diode between two
        // grounded nodes stamps nothing).
        let mut flipped: Vec<usize> = Vec::new();
        for (di, &idx) in self.diode_elems.iter().enumerate() {
            if unchanged {
                break;
            }
            let want = if *diode_on.get(di).unwrap_or(&false) {
                DeviceState::On
            } else {
                DeviceState::Off
            };
            if self.states[idx] == want {
                continue;
            }
            any_flips = true;
            self.states[idx] = want;
            let (anode, cathode) = self.ckt.borrow().elements()[idx].terminals();
            if anode.unknown().is_some() || cathode.unknown().is_some() {
                flipped.push(idx);
            }
        }
        // A cascade too wide for the rank budget would cost k column
        // solves plus an O(k²) capacitance refresh only to be folded away
        // by the over-budget rebase right after: states already hold the
        // target assignment, so restamp and refactor once instead (exactly
        // a cold iteration's cost) and build no terms. Virgin-state
        // convergence, where the first iteration flips a large fraction of
        // all diodes, lands here; at a rank budget of 0 every flip does.
        let mut rebase_needed = self.update.rank() + flipped.len() > self.max_rank;
        if !rebase_needed && !flipped.is_empty() {
            let batch: Vec<RankOneTerm> = flipped.iter().map(|&idx| self.flip_term(idx)).collect();
            let terms: Vec<RankOneTermRef<'_>> = batch
                .iter()
                .map(|(u, v)| (u.as_slice(), v.as_slice()))
                .collect();
            let t0 = self.clock();
            let pushed = self.update.push_batch(&self.lu, &terms);
            self.phases.woodbury_ns += elapsed_ns(t0);
            if pushed.is_err() {
                // Updated matrix not solvable through this base (or the
                // capacitance matrix went singular): the batch rolled
                // itself back, states already hold the target assignment —
                // fall back to a rebase, which restamps from states.
                rebase_needed = true;
            } else {
                self.stats.rank1_updates += terms.len();
            }
        }

        if !unchanged {
            self.last_diode_on.clear();
            self.last_diode_on.extend_from_slice(diode_on);
        }
        if !any_flips {
            // The switching cascade paused: consolidate outstanding
            // rank-1 terms into the factorization once (refactorization
            // cost), so quiescent stretches run the plain cached-LU path.
            // Sessions under an external consolidation budget skip this
            // and fold terms when their owner says so.
            if !self.update.is_empty() && !self.defer_consolidation {
                self.rebase()?;
            }
            // Nothing changed at all? Past `rhs_const_after` every source
            // is constant, so with an unchanged clamp configuration the
            // operating point is the previous one verbatim — skip the
            // solve. This is the quiescent-tail fast path a per-call
            // rebuild can never take.
            let settled = time >= self.rhs_const_after
                && self
                    .last_solve_time
                    .is_some_and(|tp| tp >= self.rhs_const_after);
            if settled {
                self.last_solve_time = Some(time);
                self.stats.solves += 1;
                self.stats.reused_solutions += 1;
                return Ok(());
            }
        }

        // The hygiene counter only accrues while rank-1 terms are
        // outstanding; a long quiescent stretch must not trigger a rebase
        // on the first flip that follows it.
        if self.update.is_empty() {
            self.solves_since_rebase = 0;
        } else {
            self.solves_since_rebase += 1;
        }
        if rebase_needed
            || self.update.rank() > self.max_rank
            || (!self.update.is_empty() && self.solves_since_rebase >= self.rebase_period)
        {
            self.rebase()?;
        }

        if !keep_rhs {
            let t0 = self.clock();
            mna::stamp_rhs_into(
                &mut self.rhs,
                self.ckt.borrow(),
                &self.st,
                &self.states,
                time,
                self.pre_step,
            );
            self.phases.stamp_ns += elapsed_ns(t0);
        }
        if self.solve_linear().is_err() {
            // Numerical hygiene fallback: rebase and retry once.
            self.rebase()?;
            self.solve_linear()?;
        }
        self.last_solve_time = Some(time);
        self.stats.solves += 1;
        Ok(())
    }

    /// The rank-1 term `(u, v)` of diode `idx`'s flip to its current
    /// state: the conductance swing `±(g_on − g_off)` across its
    /// terminals.
    fn flip_term(&self, idx: usize) -> RankOneTerm {
        let Element::Diode {
            anode,
            cathode,
            model,
        } = &self.ckt.borrow().elements()[idx]
        else {
            unreachable!("diode_elems holds diode indices");
        };
        let (g_on, g_off) = (1.0 / model.r_on, 1.0 / model.r_off);
        let dg = match self.states[idx] {
            DeviceState::On => g_on - g_off,
            _ => g_off - g_on,
        };
        let mut d: Vec<(usize, f64)> = Vec::with_capacity(2);
        if let Some(u) = anode.unknown() {
            d.push((u, 1.0));
        }
        if let Some(u) = cathode.unknown() {
            d.push((u, -1.0));
        }
        let u = d.iter().map(|&(i, s)| (i, dg * s)).collect();
        (u, d)
    }

    /// Solves the stamped system through the Woodbury update, plus one step
    /// of iterative refinement while rank-1 terms are outstanding: a large
    /// conductance swing (ideal diodes toggle by ~10 orders of magnitude)
    /// costs the bare Woodbury formula several digits to cancellation, and
    /// the refinement buys them back for one extra solve + matvec.
    ///
    /// Base triangular solves and Woodbury corrections run (and are timed)
    /// separately so [`FrozenDcPhases`] can attribute them.
    fn solve_linear(&mut self) -> Result<(), CircuitError> {
        let t0 = self.clock();
        self.lu.solve_into(&self.rhs, &mut self.work, &mut self.x)?;
        self.phases.solve_ns += elapsed_ns(t0);
        if self.update.is_empty() {
            // No Woodbury terms outstanding: the bare solve is already at
            // the conditioning floor.
            return Ok(());
        }
        let t0 = self.clock();
        self.update.correct(&self.lu, &mut self.x)?;
        self.base.matrix().mul_vec_into(&self.x, &mut self.resid);
        self.update.accumulate_matvec(&self.x, &mut self.resid);
        for (r, b) in self.resid.iter_mut().zip(&self.rhs) {
            *r = b - *r;
        }
        self.phases.woodbury_ns += elapsed_ns(t0);
        let t0 = self.clock();
        self.lu
            .solve_into(&self.resid, &mut self.work, &mut self.dx)?;
        self.phases.solve_ns += elapsed_ns(t0);
        let t0 = self.clock();
        self.update.correct(&self.lu, &mut self.dx)?;
        for (x, d) in self.x.iter_mut().zip(&self.dx) {
            *x += d;
        }
        self.refinements += 1;
        self.phases.woodbury_ns += elapsed_ns(t0);
        Ok(())
    }

    /// One step of iterative refinement of the last solution against the
    /// stamped matrix and the last RHS, with no Woodbury terms outstanding
    /// (a rank budget of 0): recompute the residual, solve the correction
    /// through the factor and apply it. A failed correction solve leaves
    /// the solution untouched.
    pub(crate) fn refine(&mut self) {
        debug_assert!(self.update.is_empty(), "refine runs against the base");
        let t0 = self.clock();
        self.base.matrix().mul_vec_into(&self.x, &mut self.resid);
        for (r, b) in self.resid.iter_mut().zip(&self.rhs) {
            *r = b - *r;
        }
        if self
            .lu
            .solve_into(&self.resid, &mut self.work, &mut self.dx)
            .is_ok()
        {
            for (x, d) in self.x.iter_mut().zip(&self.dx) {
                *x += d;
            }
            self.refinements += 1;
        }
        self.phases.solve_ns += elapsed_ns(t0);
    }

    /// Re-stamps the matrix for the current states (in place while the
    /// pattern holds; only the changed devices when no element value was
    /// edited since the last stamp) and replaces the base factorization:
    /// numeric-only refactorization when the pattern still fits — which
    /// replays only the steps the restamped columns reach — and a fresh
    /// pivoting factorization otherwise.
    fn rebase(&mut self) -> Result<(), CircuitError> {
        let t0 = self.clock();
        let ckt = self.ckt.borrow();
        if std::mem::take(&mut self.values_edited) {
            self.base.restamp(ckt, &self.st, &self.states);
        } else {
            self.base.restamp_states(ckt, &self.st, &self.states);
        }
        self.phases.stamp_ns += elapsed_ns(t0);
        let t0 = self.clock();
        if self
            .lu
            .refactor_with(self.base.matrix(), &mut self.lu_ws)
            .is_ok()
        {
            self.stats.refactorizations += 1;
        } else {
            self.lu = SparseLu::factor_with(self.base.matrix(), &self.lu_opts)?;
            self.stats.full_factorizations += 1;
        }
        self.phases.refactor_ns += elapsed_ns(t0);
        self.update.clear();
        self.solves_since_rebase = 0;
        Ok(())
    }

    /// The circuit host this session was built over (the `&Circuit` of a
    /// borrowed session, or the owning wrapper of an owned one).
    pub fn host(&self) -> &C {
        &self.ckt
    }

    /// Rank of the outstanding Woodbury update — how many rank-1 terms
    /// have been absorbed since the last rebase. Consolidation policies
    /// (the core crate's delta sessions) read this to decide when the
    /// per-solve correction overhead has outgrown a refactorization.
    pub fn outstanding_rank(&self) -> usize {
        self.update.rank()
    }

    /// Re-stamps and refactors the base for the current device states,
    /// folding every outstanding Woodbury term into the factorization
    /// (numeric-only refactorization when the pattern still fits, fresh
    /// pivoting factorization otherwise). The budget-driven consolidation
    /// entry point for streaming delta sessions; a no-op-cost caller
    /// guard is `outstanding_rank() > 0`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularSystem`] if the current configuration is
    /// unsolvable.
    pub fn consolidate(&mut self) -> Result<(), CircuitError> {
        self.rebase()
    }

    /// Runs the full complementarity (PWL state) iteration at `time`,
    /// driving diode conduction states to a consistent operating point —
    /// the state iteration's one caller: the facade's
    /// [`DcSolver::solve`] runs it on a session with a rank budget of 0,
    /// and delta sessions run it on their live session. Diode toggles are
    /// absorbed as batched Woodbury rank-k updates against the standing
    /// factorization while the rank budget holds. Returns the number of
    /// state iterations; the first-repeat iteration is
    /// [`SolveReport::cycle_break`] of [`FrozenDcSession::report`].
    ///
    /// The switching band escalates (1e-9 → 1e-6 → 1e-3) from the first
    /// repeated assignment or half the budget, late iterations flip only
    /// the single most-violated device, and a final widest-band
    /// consistency check accepts physically-negligible boundary
    /// violations.
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularSystem`] if a frozen configuration along
    /// the way is unsolvable;
    /// [`CircuitError::StateIterationDiverged`] if no consistent state
    /// assignment is found within the iteration budget.
    pub fn solve_operating_point(&mut self, time: f64) -> Result<usize, CircuitError> {
        let start = self.states.clone();
        self.operating_point(time, start)
            .map(|(iterations, _)| iterations)
    }

    /// [`FrozenDcSession::solve_operating_point`] from the assignment
    /// `start`. Also returns the accepted assignment, whose solution the
    /// session holds (see [`StateIteration`]).
    pub(crate) fn operating_point(
        &mut self,
        time: f64,
        start: Vec<DeviceState>,
    ) -> Result<(usize, Vec<DeviceState>), CircuitError> {
        let mut states = start;
        let mut it = StateIteration::new(self.ckt.borrow(), &states, time);
        let mut diode_on = Vec::with_capacity(self.diode_elems.len());
        self.cycle_break = None;
        // The time holds for the whole iteration:
        // after the first solve the RHS moves only when a diode with a
        // forward drop changes state.
        let mut stamped = false;
        loop {
            let elements = self.ckt.borrow().elements();
            let rhs_moved = !stamped
                || self
                    .states
                    .iter()
                    .zip(&states)
                    .enumerate()
                    .any(|(i, (cur, want))| cur != want && mna::rhs_depends_on_state(&elements[i]));
            diode_on.clear();
            diode_on.extend(
                self.diode_elems
                    .iter()
                    .map(|&i| states[i] == DeviceState::On),
            );
            self.solve_frozen(time, &diode_on, !rhs_moved)?;
            stamped = true;
            let done = it.advance(self.ckt.borrow(), &mut states, &self.x)?;
            self.cycle_break = it.cycle_break;
            if done {
                return Ok((it.solves, states));
            }
        }
    }

    /// Voltage of `node` (0 for ground) in the last solved operating point.
    pub fn voltage(&self, node: NodeId) -> f64 {
        match node.unknown() {
            Some(u) => self.x[u],
            None => 0.0,
        }
    }

    /// Raw branch current of `id` in the last solved operating point, if
    /// the element has one.
    pub fn branch_current(&self, id: ElementId) -> Option<f64> {
        self.st.branch_unknown(id).map(|u| self.x[u])
    }

    /// Current delivered by a source-like element out of its positive
    /// terminal (the negative of [`FrozenDcSession::branch_current`]).
    pub fn source_current(&self, id: ElementId) -> Option<f64> {
        self.branch_current(id).map(|i| -i)
    }

    /// The last solved unknown vector (node voltages then branch currents).
    pub fn values(&self) -> &[f64] {
        &self.x
    }

    /// Copies the last solved operating point into an owned [`DcSolution`].
    pub fn solution(&self) -> DcSolution {
        DcSolution {
            inner: Solution::new(self.x.clone(), self.st.clone()),
            states: self.states.clone(),
        }
    }

    /// Linear-algebra effort counters for this session.
    pub fn stats(&self) -> FrozenDcStats {
        self.stats
    }

    /// Structured accounting of the session so far, in the facade's
    /// [`SolveReport`] shape: `iterations` counts the frozen-state solves,
    /// `phases` is present when phase timing was enabled.
    pub fn report(&self) -> SolveReport {
        SolveReport {
            iterations: self.stats.solves,
            factor_nnz: self.lu.factor_nnz(),
            block_count: self.lu.symbolic().block_count(),
            templated: self.templated,
            refinements: self.refinements,
            refactorizations: self.stats.refactorizations + self.stats.full_factorizations,
            cycle_break: self.cycle_break,
            phases: self.phase_timing.then_some(self.phases),
        }
    }
}

impl<C: BorrowMut<Circuit>> FrozenDcSession<C> {
    /// Mutable access to the owned circuit host. Only available on owning
    /// sessions (`C: BorrowMut<Circuit>`) — borrowed sessions share their
    /// circuit with other readers.
    ///
    /// Handing out `&mut` drops the cached operating point (the next
    /// [`solve`](FrozenDcSession::solve) will not take the quiescent
    /// shortcut), since the caller may change source values the cached
    /// solution was computed against. The session's *structure* (unknown
    /// map, sparsity, factorization) is still frozen: callers must not
    /// add or remove elements, only adjust values — source-value edits
    /// are RHS-only and safe; conductance edits additionally require a
    /// [`consolidate`](FrozenDcSession::consolidate) to restamp the
    /// matrix.
    pub fn host_mut(&mut self) -> &mut C {
        self.last_solve_time = None;
        self.values_edited = true;
        &mut self.ckt
    }

    /// Changes resistor values in the owned circuit and absorbs all the
    /// matrix deltas as **one batched rank-k Woodbury update** against
    /// the standing factorization — the delta sessions' edge
    /// insert/delete surgery (couplings toggled between a finite value
    /// and `f64::INFINITY`, conservation stars retuned) rides this. The
    /// new values are persisted in the circuit, so later rebases restamp
    /// them. The push honours the rank budget
    /// ([`FrozenDcSession::with_max_rank`]): when the outstanding rank
    /// plus the batch's k terms would exceed it, or the batched push
    /// cannot hold the updated matrix, the session rebases at once,
    /// which is exact — the circuit already holds the new values, so the
    /// next solve must not run on the pre-surgery factor.
    ///
    /// # Errors
    ///
    /// [`CircuitError::WrongElementKind`] if an id is not a resistor;
    /// [`CircuitError::InvalidParameter`] for zero/NaN values (the batch
    /// stops at the first invalid entry — earlier entries are applied);
    /// factorization errors from a fallback rebase.
    pub fn set_resistances(&mut self, changes: &[(ElementId, f64)]) -> Result<(), CircuitError> {
        let mut batch: Vec<RankOneTerm> = Vec::new();
        for &(id, ohms) in changes {
            let old = match self.ckt.borrow().elements().get(id.index()) {
                Some(Element::Resistor { resistance, .. }) => *resistance,
                _ => {
                    return Err(CircuitError::WrongElementKind {
                        expected: "resistor",
                    })
                }
            };
            self.ckt.borrow_mut().set_resistance(id, ohms)?;
            self.values_edited = true;
            // 1/INFINITY == 0.0 exactly: an open branch stamps nothing.
            let dg = 1.0 / ohms - 1.0 / old;
            if dg == 0.0 {
                continue;
            }
            let Some(Element::Resistor { a, b, .. }) = self.ckt.borrow().elements().get(id.index())
            else {
                unreachable!("checked above");
            };
            let mut d: Vec<(usize, f64)> = Vec::with_capacity(2);
            if let Some(u) = a.unknown() {
                d.push((u, 1.0));
            }
            if let Some(u) = b.unknown() {
                d.push((u, -1.0));
            }
            if d.is_empty() {
                continue; // both terminals grounded: no matrix change
            }
            let u: Vec<(usize, f64)> = d.iter().map(|&(i, s)| (i, dg * s)).collect();
            batch.push((u, d));
        }
        self.last_solve_time = None;
        if batch.is_empty() {
            return Ok(());
        }
        if self.update.rank() + batch.len() > self.max_rank {
            return self.rebase();
        }
        let terms: Vec<RankOneTermRef<'_>> = batch
            .iter()
            .map(|(u, v)| (u.as_slice(), v.as_slice()))
            .collect();
        let t0 = self.clock();
        let pushed = self.update.push_batch(&self.lu, &terms);
        self.phases.woodbury_ns += elapsed_ns(t0);
        match pushed {
            Ok(()) => {
                self.stats.rank1_updates += terms.len();
                Ok(())
            }
            // The batch rolled itself back; the circuit already holds the
            // target values, so a rebase restamps them exactly.
            Err(_) => self.rebase(),
        }
    }

    /// Updates one source's value in the owned circuit — the
    /// capacity-restamp fast path for streaming delta sessions. Source
    /// values are never stamped into the matrix (they only shape the RHS
    /// assembled fresh each solve), so this requires **no** numeric or
    /// symbolic work: the very next solve sees the new value at full
    /// accuracy against the standing factorization.
    ///
    /// The session's quiescent horizon ([`DcTemplate`] docs) is extended
    /// conservatively to cover the new value's settling time, and the
    /// cached operating point is dropped.
    ///
    /// # Errors
    ///
    /// [`CircuitError::WrongElementKind`] if `id` is not a voltage or
    /// current source (as [`Circuit::set_source_value`]).
    pub fn set_source_value(
        &mut self,
        id: ElementId,
        value: SourceValue,
    ) -> Result<(), CircuitError> {
        let settles = value.constant_after();
        self.ckt.borrow_mut().set_source_value(id, value)?;
        self.rhs_const_after = self.rhs_const_after.max(settles);
        self.last_solve_time = None;
        Ok(())
    }
}

/// Result of a DC operating-point solve ([`DcSolver`]).
#[derive(Debug, Clone)]
pub struct DcSolution {
    inner: Solution,
    /// Converged device states (element-indexed).
    states: Vec<DeviceState>,
}

impl DcSolution {
    /// The converged device-state assignment (element-indexed): the fixed
    /// point of the complementarity iteration. Feed it to [`DcSolver::solve_warm`] to
    /// short-circuit the clamp cascade on the next same-topology solve.
    pub fn device_states(&self) -> &[DeviceState] {
        &self.states
    }

    /// Voltage of `node` (0 for ground).
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.inner.voltage(node)
    }

    /// Current delivered by a source-like element out of its positive
    /// terminal (see [`Solution::source_current`]).
    ///
    /// [`Solution::source_current`]: crate::mna::Solution::source_current
    pub fn source_current(&self, id: ElementId) -> Option<f64> {
        self.inner.source_current(id)
    }

    /// Raw branch current of `id`, if the element has one.
    pub fn branch_current(&self, id: ElementId) -> Option<f64> {
        self.inner.branch_current(id)
    }

    /// The full unknown vector (node voltages then branch currents).
    pub fn values(&self) -> &[f64] {
        self.inner.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::DiodeModel;
    use crate::source::SourceValue;

    #[test]
    fn voltage_divider() {
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        let mid = ckt.node("mid");
        ckt.voltage_source(top, Circuit::GROUND, SourceValue::dc(10.0));
        ckt.resistor(top, mid, 3e3);
        ckt.resistor(mid, Circuit::GROUND, 7e3);
        let (sol, _) = DcSolver::new().solve(&ckt).unwrap();
        assert!((sol.voltage(mid) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn source_current_sign() {
        // 1 V across 1 kΩ: source delivers +1 mA out of its + terminal.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let v = ckt.voltage_source(a, Circuit::GROUND, SourceValue::dc(1.0));
        ckt.resistor(a, Circuit::GROUND, 1e3);
        let (sol, _) = DcSolver::new().solve(&ckt).unwrap();
        assert!((sol.source_current(v).unwrap() - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn diode_forward_conducts() {
        // V --R--> a --diode--> gnd : diode on pulls a near 0.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let top = ckt.node("top");
        ckt.voltage_source(top, Circuit::GROUND, SourceValue::dc(5.0));
        ckt.resistor(top, a, 1e3);
        ckt.diode(a, Circuit::GROUND, DiodeModel::ideal());
        let (sol, _) = DcSolver::new().solve(&ckt).unwrap();
        assert!(sol.voltage(a).abs() < 1e-2, "v(a)={}", sol.voltage(a));
    }

    #[test]
    fn diode_reverse_blocks() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let top = ckt.node("top");
        ckt.voltage_source(top, Circuit::GROUND, SourceValue::dc(5.0));
        ckt.resistor(top, a, 1e3);
        // Reversed: cathode at a.
        ckt.diode(Circuit::GROUND, a, DiodeModel::ideal());
        let (sol, _) = DcSolver::new().solve(&ckt).unwrap();
        assert!((sol.voltage(a) - 5.0).abs() < 1e-2);
    }

    #[test]
    fn diode_with_forward_drop() {
        // Ideal source straight into silicon diode + resistor: V(a) ≈ 0.7.
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        let a = ckt.node("a");
        ckt.voltage_source(top, Circuit::GROUND, SourceValue::dc(5.0));
        ckt.resistor(top, a, 1e3);
        ckt.diode(a, Circuit::GROUND, DiodeModel::silicon());
        let (sol, _) = DcSolver::new().solve(&ckt).unwrap();
        let v = sol.voltage(a);
        assert!((v - 0.7).abs() < 0.05, "v(a)={v}");
    }

    #[test]
    fn clamp_pair_limits_node_voltage() {
        // The paper's Fig. 1 edge-capacity widget: clamp 0 <= V <= c.
        let mut ckt = Circuit::new();
        let x = ckt.node("x");
        let drive = ckt.node("drive");
        let cap = ckt.node("cap");
        // Try to drive x to 5 V through a resistor; clamp at c = 2 V.
        ckt.voltage_source(drive, Circuit::GROUND, SourceValue::dc(5.0));
        ckt.resistor(drive, x, 1e3);
        ckt.voltage_source(cap, Circuit::GROUND, SourceValue::dc(2.0));
        ckt.diode(x, cap, DiodeModel::ideal()); // clamps x <= 2
        ckt.diode(Circuit::GROUND, x, DiodeModel::ideal()); // clamps x >= 0
        let (sol, _) = DcSolver::new().solve(&ckt).unwrap();
        assert!(
            (sol.voltage(x) - 2.0).abs() < 1e-2,
            "v(x)={}",
            sol.voltage(x)
        );
    }

    #[test]
    fn diode_moves_take_one_refactorization_per_iteration() {
        // A drive above the clamp: the first iteration turns the upper
        // clamp on, and at rank 0 each iteration that moved states pays
        // exactly one replay.
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        let x = ckt.node("x");
        let cap = ckt.node("cap");
        ckt.voltage_source(out, Circuit::GROUND, SourceValue::dc(10.0));
        ckt.resistor(out, x, 1e3);
        ckt.voltage_source(cap, Circuit::GROUND, SourceValue::dc(2.0));
        ckt.diode(x, cap, DiodeModel::ideal());
        ckt.diode(Circuit::GROUND, x, DiodeModel::ideal());

        let (sol, report) = DcSolver::new().solve(&ckt).unwrap();
        assert!(report.iterations >= 2, "{report:?}");
        assert!(
            (sol.voltage(x) - 2.0).abs() < 1e-2,
            "v(x) = {}",
            sol.voltage(x)
        );
        // One factor to open, one replay per iteration that moved states.
        assert_eq!(report.refactorizations, report.iterations, "{report:?}");
        let mut session = DcSolver::new().session(&ckt).unwrap().with_max_rank(0);
        let iterations = session.solve_operating_point(0.0).unwrap();
        let stats = session.stats();
        assert_eq!(
            stats.refactorizations + stats.full_factorizations,
            iterations,
            "{stats:?}"
        );
    }

    #[test]
    fn negative_resistor_network() {
        // Voltage negation circuit from Fig. 2: node P with two r to x and
        // x⁻, plus -r/2 to ground, forces V(x⁻) = -V(x).
        let mut ckt = Circuit::new();
        let x = ckt.node("x");
        let xneg = ckt.node("xneg");
        let p = ckt.node("p");
        let r = 10e3;
        ckt.voltage_source(x, Circuit::GROUND, SourceValue::dc(1.2));
        ckt.resistor(x, p, r);
        ckt.resistor(xneg, p, r);
        ckt.resistor(p, Circuit::GROUND, -r / 2.0);
        // x⁻ must be driven by something to fix its level: a load resistor
        // models the downstream conservation network.
        ckt.resistor(xneg, Circuit::GROUND, 10.0 * r);
        let (sol, _) = DcSolver::new().solve(&ckt).unwrap();
        // With a finite load the negation is approximate; the exact
        // relation from KCL at p is V(x) = -V(x⁻) when no current flows
        // into x⁻ externally. Verify the KCL-derived relation instead:
        let vp = sol.voltage(p);
        let vx = sol.voltage(x);
        let vxn = sol.voltage(xneg);
        let lhs = (vx - vp) / r + (vxn - vp) / r;
        let rhs = vp / (-r / 2.0);
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn floating_node_is_singular() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.resistor(a, b, 1e3); // entire pair floats
        assert!(matches!(
            DcSolver::new().solve(&ckt),
            Err(CircuitError::SingularSystem { .. })
        ));
    }

    #[test]
    fn session_matches_cold_session_over_toggle_sequence() {
        // A clamp ladder: drive → r → x_k with upper and lower clamp diodes
        // per node, the substrate's capacity-widget shape.
        let mut ckt = Circuit::new();
        let drive = ckt.node("drive");
        ckt.voltage_source(
            drive,
            Circuit::GROUND,
            SourceValue::ramp(0.0, 0.0, 1.0, 6.0),
        );
        let mut prev = drive;
        for k in 0..6 {
            let x = ckt.node(format!("x{k}"));
            let cap = ckt.node(format!("cap{k}"));
            ckt.resistor(prev, x, 1e3);
            ckt.voltage_source(cap, Circuit::GROUND, SourceValue::dc(1.0 + k as f64 * 0.3));
            ckt.diode(x, cap, DiodeModel::ideal());
            ckt.diode(Circuit::GROUND, x, DiodeModel::ideal());
            prev = x;
        }
        let n_diodes = ckt.diode_count();

        let mut session = DcSolver::new().session(&ckt).unwrap();
        // Deterministic pseudo-random toggle walk with a time-varying RHS.
        let mut on = vec![false; n_diodes];
        let mut lcg = 12345u64;
        for step in 0..200 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let flip = (lcg >> 33) as usize % (n_diodes + 2);
            if flip < n_diodes {
                on[flip] = !on[flip];
            }
            let t = step as f64 / 200.0;
            // The reference factors this step's matrix from scratch: a
            // fresh session with no rank budget refactors on any flip.
            let mut reference = DcSolver::new().session(&ckt).unwrap().with_max_rank(0);
            reference.solve(t, &on).unwrap();
            session.solve(t, &on).unwrap();
            for (u, rv) in reference.values().iter().enumerate() {
                let sv = session.values()[u];
                assert!(
                    (sv - rv).abs() < 1e-9 * rv.abs().max(1.0),
                    "step {step} unknown {u}: session {sv} vs reference {rv}"
                );
            }
        }
        let stats = session.stats();
        assert_eq!(stats.solves, 200);
        assert!(stats.rank1_updates > 0, "no flips exercised: {stats:?}");
        // The pattern never changes, so (almost) everything beyond the
        // initial factorization must ride the refactor/update fast paths.
        assert!(
            stats.full_factorizations < 10,
            "fresh factorizations dominate: {stats:?}"
        );
    }

    #[test]
    fn session_skips_solves_once_sources_settle() {
        // Step drive settles at t = 0: identical follow-up calls must be
        // answered from the cached operating point.
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        let x = ckt.node("x");
        ckt.voltage_source(top, Circuit::GROUND, SourceValue::step(0.0, 5.0, 0.0));
        ckt.resistor(top, x, 1e3);
        ckt.diode(x, Circuit::GROUND, DiodeModel::ideal());
        let mut session = DcSolver::new().session(&ckt).unwrap();
        for k in 0..50 {
            session.solve(k as f64 * 1e-9, &[false]).unwrap();
            assert!((session.voltage(x) - 5.0).abs() < 1e-3);
        }
        let stats = session.stats();
        assert_eq!(stats.solves, 50);
        assert!(stats.reused_solutions >= 48, "skip path unused: {stats:?}");

        // A flip invalidates the cache exactly once.
        session.solve(60e-9, &[true]).unwrap();
        assert!(session.voltage(x).abs() < 1e-3);
        session.solve(61e-9, &[true]).unwrap();
        let stats = session.stats();
        assert_eq!(stats.solves, 52);
        assert!(stats.rank1_updates >= 1);
    }

    #[test]
    fn session_recovers_after_failed_solve() {
        // The negative resistor exactly cancels the conductance at `x`
        // once the diode conducts, making the on-configuration singular;
        // the off-configuration is fine.
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        let x = ckt.node("x");
        ckt.voltage_source(top, Circuit::GROUND, SourceValue::dc(1.0));
        let g_top = 1e-3;
        ckt.resistor(top, x, 1.0 / g_top);
        let model = DiodeModel::ideal();
        ckt.resistor(x, Circuit::GROUND, -1.0 / (1.0 / model.r_on + g_top));
        ckt.diode(x, Circuit::GROUND, model);

        let mut session = DcSolver::new().session(&ckt).unwrap();
        session.solve(0.0, &[false]).unwrap();
        let v_off = session.voltage(x);
        assert!(
            session.solve(1.0, &[true]).is_err(),
            "on-config is singular"
        );
        // After the failure the session must not serve the stale point for
        // the failed configuration, and must recover once asked for a
        // solvable one again.
        session.solve(2.0, &[false]).unwrap();
        assert!(
            (session.voltage(x) - v_off).abs() < 1e-9,
            "recovered solve differs: {} vs {v_off}",
            session.voltage(x)
        );
        let stats = session.stats();
        assert_eq!(
            stats.reused_solutions, 0,
            "stale reuse after error: {stats:?}"
        );
    }

    #[test]
    fn session_zero_rank_budget_still_correct() {
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        let x = ckt.node("x");
        ckt.voltage_source(top, Circuit::GROUND, SourceValue::dc(5.0));
        ckt.resistor(top, x, 1e3);
        ckt.diode(x, Circuit::GROUND, DiodeModel::ideal());
        let mut session = DcSolver::new().session(&ckt).unwrap().with_max_rank(0);
        session.solve(0.0, &[true]).unwrap();
        assert!(session.voltage(x).abs() < 1e-3);
        session.solve(0.0, &[false]).unwrap();
        assert!((session.voltage(x) - 5.0).abs() < 1e-3);
    }

    #[test]
    fn owned_session_operating_point_tracks_source_edits() {
        // An owning session: the circuit moves in, source values are
        // edited in place, and solve_operating_point re-runs the full
        // complementarity iteration against the standing factorization.
        let mut ckt = Circuit::new();
        let x = ckt.node("x");
        let drive = ckt.node("drive");
        let cap = ckt.node("cap");
        ckt.voltage_source(drive, Circuit::GROUND, SourceValue::dc(5.0));
        ckt.resistor(drive, x, 1e3);
        let cap_src = ckt.voltage_source(cap, Circuit::GROUND, SourceValue::dc(2.0));
        ckt.diode(x, cap, DiodeModel::ideal());
        ckt.diode(Circuit::GROUND, x, DiodeModel::ideal());

        let planned = DcSolver::new().plan(&ckt).unwrap();
        let reference = ckt.clone();
        let mut session = planned.session(ckt).unwrap();
        session.solve_operating_point(0.0).unwrap();
        assert!((session.voltage(x) - 2.0).abs() < 1e-2);

        // Move the clamp around — above the drive (diode off, x floats to
        // 5 V), well below, between — comparing against fresh solves.
        for (k, c) in [(1usize, 7.0f64), (2, 0.5), (3, 3.25)] {
            session
                .set_source_value(cap_src, SourceValue::dc(c))
                .unwrap();
            session.solve_operating_point(k as f64).unwrap();
            let mut fresh = reference.clone();
            fresh.set_source_value(cap_src, SourceValue::dc(c)).unwrap();
            let (sol, _) = DcSolver::new().solve(&fresh).unwrap();
            assert!(
                (session.voltage(x) - sol.voltage(x)).abs() < 1e-9 * sol.voltage(x).abs().max(1.0),
                "cap={c}: session {} vs fresh {}",
                session.voltage(x),
                sol.voltage(x)
            );
        }
        let stats = session.stats();
        assert!(
            stats.rank1_updates > 0,
            "flips not absorbed incrementally: {stats:?}"
        );
    }

    #[test]
    fn consolidate_folds_outstanding_updates() {
        let mut ckt = Circuit::new();
        let x = ckt.node("x");
        let top = ckt.node("top");
        ckt.voltage_source(top, Circuit::GROUND, SourceValue::dc(5.0));
        ckt.resistor(top, x, 1e3);
        ckt.diode(x, Circuit::GROUND, DiodeModel::ideal());
        let mut session = DcSolver::new().session(&ckt).unwrap();
        session.solve(0.0, &[true]).unwrap();
        assert!(session.outstanding_rank() > 0);
        let v = session.voltage(x);
        session.consolidate().unwrap();
        assert_eq!(session.outstanding_rank(), 0);
        // Consolidation must not perturb the operating point.
        session.solve(1.0, &[true]).unwrap();
        assert!((session.voltage(x) - v).abs() < 1e-12);
    }

    #[test]
    fn over_budget_resistor_surgery_rebases_at_once() {
        // A substrate-shaped ring: couplings between neighbours, a
        // negative star resistor and a clamp pair per node.
        let mut ckt = Circuit::new();
        let drive = ckt.node("drive");
        ckt.voltage_source(drive, Circuit::GROUND, SourceValue::dc(3.0));
        let xs: Vec<NodeId> = (0..5).map(|k| ckt.node(format!("x{k}"))).collect();
        ckt.resistor(drive, xs[0], 1e3);
        let (mut couplings, mut stars) = (Vec::new(), Vec::new());
        for (k, &x) in xs.iter().enumerate() {
            let cap = ckt.node(format!("cap{k}"));
            ckt.voltage_source(cap, Circuit::GROUND, SourceValue::dc(0.5 + 0.3 * k as f64));
            ckt.diode(x, cap, DiodeModel::ideal());
            ckt.diode(Circuit::GROUND, x, DiodeModel::ideal());
            couplings.push(ckt.resistor(x, xs[(k + 1) % xs.len()], 2e3 + 100.0 * k as f64));
            stars.push(ckt.resistor(x, Circuit::GROUND, -2e4));
        }
        // Only x0's upper clamp conducts: the rest of the ring floats, so
        // the surgery moves every other voltage.
        let diode_on: Vec<bool> = (0..10).map(|d| d == 0).collect();
        let mut session = DcSolver::new()
            .session(ckt.clone())
            .unwrap()
            .with_max_rank(0);
        session.solve(0.0, &diode_on).unwrap();
        let before = session.stats().refactorizations;

        // Open one coupling and retune a star: two terms over a budget
        // of 0, so the circuit's new values must reach the factor now.
        let surgery = [(couplings[1], f64::INFINITY), (stars[2], -3e4)];
        session.set_resistances(&surgery).unwrap();
        assert_eq!(session.outstanding_rank(), 0, "no terms over budget");
        assert_eq!(session.stats().refactorizations, before + 1);
        session.solve(0.0, &diode_on).unwrap();

        for &(id, ohms) in &surgery {
            ckt.set_resistance(id, ohms).unwrap();
        }
        let mut fresh = DcSolver::new().session(&ckt).unwrap().with_max_rank(0);
        fresh.solve(0.0, &diode_on).unwrap();
        let scale = fresh.values().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (i, (a, b)) in session.values().iter().zip(fresh.values()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12 * scale,
                "unknown {i}: session {a} vs fresh {b}"
            );
        }
    }

    /// The clamp-ladder circuit used by the template tests: `stages`
    /// clamp widgets in series, with per-stage resistor and clamp values
    /// taken from the closures (so two structurally identical circuits
    /// with different values are easy to produce).
    fn clamp_ladder(
        stages: usize,
        r_of: impl Fn(usize) -> f64,
        cap_of: impl Fn(usize) -> f64,
        drive: f64,
    ) -> Circuit {
        let mut ckt = Circuit::new();
        let top = ckt.node("drive");
        ckt.voltage_source(top, Circuit::GROUND, SourceValue::dc(drive));
        let mut prev = top;
        for k in 0..stages {
            let x = ckt.node(format!("x{k}"));
            let cap = ckt.node(format!("cap{k}"));
            ckt.resistor(prev, x, r_of(k));
            ckt.voltage_source(cap, Circuit::GROUND, SourceValue::dc(cap_of(k)));
            ckt.diode(x, cap, DiodeModel::ideal());
            ckt.diode(Circuit::GROUND, x, DiodeModel::ideal());
            prev = x;
        }
        ckt
    }

    #[test]
    fn template_primed_dc_matches_cold_solve() {
        let base = clamp_ladder(5, |_| 1e3, |k| 1.0 + 0.3 * k as f64, 6.0);
        let planned = DcSolver::new().plan(&base).unwrap();
        // Same topology, different resistor and clamp values: the template
        // path must agree with the cold path to machine precision (both
        // solve the same final factored system).
        let other = clamp_ladder(
            5,
            |k| 800.0 + 150.0 * k as f64,
            |k| 0.8 + 0.4 * k as f64,
            5.0,
        );
        let cold = DcSolver::new().solve(&other).unwrap().0;
        let (warm, report) = planned.solve(&other).unwrap();
        assert!(report.templated, "plan fast path unused");
        assert!(report.factor_nnz > 0 && report.block_count >= 1);
        for (a, b) in warm.values().iter().zip(cold.values()) {
            assert!((a - b).abs() < 1e-12 * b.abs().max(1.0), "{a} vs {b}");
        }
        assert_eq!(warm.device_states(), cold.device_states());
    }

    #[test]
    fn warm_started_solve_matches_and_mismatched_template_falls_back() {
        let base = clamp_ladder(4, |_| 1e3, |k| 1.0 + 0.2 * k as f64, 5.0);
        let plan = DcSolver::new().plan(&base).unwrap();
        let cold = DcSolver::new().solve(&base).unwrap().0;
        let warm = plan.solve_warm(&base, cold.device_states()).unwrap().0;
        for (a, b) in warm.values().iter().zip(cold.values()) {
            assert!((a - b).abs() < 1e-12 * b.abs().max(1.0));
        }
        // A template for a different topology must be ignored, not crash.
        let other = clamp_ladder(6, |_| 1e3, |_| 1.0, 5.0);
        assert!(!plan.template().unwrap().matches(&other));
        let (sol, report) = plan.solve(&other).unwrap();
        assert!(!report.templated, "mismatched template must fall back cold");
        let re = DcSolver::new().solve(&other).unwrap().0;
        for (a, b) in sol.values().iter().zip(re.values()) {
            assert!((a - b).abs() < 1e-12 * b.abs().max(1.0));
        }
    }

    #[test]
    fn singular_warm_start_retries_from_initial_states() {
        // The negative resistor exactly cancels the node conductance when
        // the diode conducts, so the warm-started (diode-on) stamp is
        // singular — but the true operating point keeps `x` slightly
        // positive, the (gnd → x) diode off, and is perfectly solvable.
        // The warm start must fall back to the initial states instead of
        // reporting SingularSystem.
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        let x = ckt.node("x");
        ckt.voltage_source(top, Circuit::GROUND, SourceValue::dc(-1.0));
        let g_top = 1e-3;
        ckt.resistor(top, x, 1.0 / g_top);
        let model = DiodeModel::ideal();
        ckt.resistor(x, Circuit::GROUND, -1.0 / (1.0 / model.r_on + g_top));
        ckt.diode(Circuit::GROUND, x, model);

        let cold = DcSolver::new().solve(&ckt).unwrap().0;
        let mut warm_states = cold.device_states().to_vec();
        for s in warm_states.iter_mut() {
            if *s == DeviceState::Off {
                *s = DeviceState::On;
            }
        }
        let plan = DcSolver::new().plan(&ckt).unwrap();
        let warm = plan.solve_warm(&ckt, &warm_states).unwrap().0;
        assert!(
            (warm.voltage(x) - cold.voltage(x)).abs() < 1e-9,
            "recovered {} vs cold {}",
            warm.voltage(x),
            cold.voltage(x)
        );
    }

    #[test]
    fn session_with_template_matches_session_cold() {
        let base = clamp_ladder(6, |_| 1e3, |k| 1.0 + 0.3 * k as f64, 6.0);
        // Perturbed values on the same topology (the variation-batch shape).
        let inst = clamp_ladder(
            6,
            |k| 1e3 * (1.0 + 0.01 * k as f64),
            |k| 1.0 + 0.3 * k as f64,
            6.0,
        );
        let planned = DcSolver::new().plan(&base).unwrap();
        let n_diodes = inst.diode_count();
        let mut cold = DcSolver::new().session(&inst).unwrap();
        let mut warm = planned.session(&inst).unwrap();
        assert_eq!(warm.stats().refactorizations, 1, "numeric fast path unused");
        assert_eq!(warm.stats().full_factorizations, 0);
        let mut on = vec![false; n_diodes];
        let mut lcg = 7u64;
        for step in 0..100 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let flip = (lcg >> 33) as usize % (n_diodes + 1);
            if flip < n_diodes {
                on[flip] = !on[flip];
            }
            let t = step as f64 * 1e-9;
            cold.solve(t, &on).unwrap();
            warm.solve(t, &on).unwrap();
            for (a, b) in warm.values().iter().zip(cold.values()) {
                assert!(
                    (a - b).abs() < 1e-9 * b.abs().max(1.0),
                    "step {step}: {a} vs {b}"
                );
            }
        }
    }

    /// Divider chain `top → x → y → gnd` with grounded resistors `rx` at
    /// `x` and `ry` at `y`. Negative `rx = -1/(g_top,x + g_xy)` and
    /// `ry = -r_xy` cancel both node diagonals: whichever the frozen plan
    /// pivots on first collapses, while the system stays solvable under a
    /// fresh (off-diagonal) pivot order.
    fn pivot_divider(rx: f64, ry: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        let x = ckt.node("x");
        let y = ckt.node("y");
        ckt.voltage_source(top, Circuit::GROUND, SourceValue::dc(1.0));
        ckt.resistor(top, x, 1e3);
        ckt.resistor(x, y, 2e3);
        ckt.resistor(x, Circuit::GROUND, rx);
        ckt.resistor(y, Circuit::GROUND, ry);
        ckt
    }

    #[test]
    fn collapsed_template_pivot_is_not_reported_templated() {
        let plan = DcSolver::new().plan(&pivot_divider(5e3, 3e3)).unwrap();
        let inst = pivot_divider(-1.0 / (1.0 / 1e3 + 1.0 / 2e3), -2e3);
        let (m, _) = DcSolver::new().stamp(&inst).unwrap();
        assert!(
            plan.template()
                .unwrap()
                .factor()
                .clone()
                .refactor(&m)
                .is_err(),
            "fixture must collapse a frozen template pivot"
        );
        let cold = DcSolver::new().solve(&inst).unwrap().0;
        let (sol, report) = plan.solve(&inst).unwrap();
        assert!(
            !report.templated,
            "fallback factorization reported as templated"
        );
        assert_eq!(report.refactorizations, 1);
        for (a, b) in sol.values().iter().zip(cold.values()) {
            assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{a} vs {b}");
        }
        let session = plan.session(&inst).unwrap();
        assert!(!session.report().templated);
        assert_eq!(session.stats().full_factorizations, 1);
    }

    #[test]
    fn warm_repeat_solve_pays_one_refactorization() {
        let ckt = clamp_ladder(6, |k| 1e3 + 100.0 * k as f64, |k| 0.5 + 0.4 * k as f64, 6.0);
        let plan = DcSolver::new().plan(&ckt).unwrap();
        let (cold, cold_report) = plan.solve(&ckt).unwrap();
        assert!(cold_report.iterations > 1 && cold_report.templated);
        // The replay that opens the session plus one per iteration that
        // changed states.
        assert_eq!(cold_report.refactorizations, cold_report.iterations);
        let (warm, report) = plan.solve_warm(&ckt, cold.device_states()).unwrap();
        assert_eq!(report.iterations, 1);
        assert_eq!(
            report.refactorizations, 1,
            "a warm repeat solve replays once"
        );
        assert!(report.templated);
        // Both end on a replay at the same states and refine once against
        // the same stamp, so the answers agree bit for bit.
        let bits = |s: &DcSolution| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&warm), bits(&cold));
        assert_eq!(warm.device_states(), cold.device_states());
    }

    #[test]
    fn timed_operating_point_solve_reports_phases() {
        let ckt = clamp_ladder(5, |_| 1e3, |k| 1.0 + 0.3 * k as f64, 6.0);
        let (_, untimed) = DcSolver::new().plan(&ckt).unwrap().solve(&ckt).unwrap();
        assert_eq!(untimed.phases, None, "phase timing is off by default");
        let plan = DcSolver::new().phase_timing(true).plan(&ckt).unwrap();
        let (_, report) = plan.solve(&ckt).unwrap();
        let phases = report.phases.expect("timed solve reports phases");
        assert!(phases.refactor_ns > 0, "{phases:?}");
        assert!(phases.solve_ns > 0 && phases.stamp_ns > 0, "{phases:?}");
        assert_eq!(phases.woodbury_ns, 0);
        let (_, cold) = DcSolver::new().phase_timing(true).solve(&ckt).unwrap();
        assert!(cold.phases.is_some_and(|p| p.refactor_ns > 0));
    }

    /// A small substrate-shaped circuit: a ring of nodes coupled by
    /// resistors, each clamped between ground and a level source by ideal
    /// diodes, with negative resistors to ground and one silicon diode.
    fn mini_substrate() -> Circuit {
        let mut ckt = Circuit::new();
        let drive = ckt.node("drive");
        ckt.voltage_source(drive, Circuit::GROUND, SourceValue::dc(3.0));
        let xs: Vec<NodeId> = (0..5).map(|k| ckt.node(format!("x{k}"))).collect();
        ckt.resistor(drive, xs[0], 1e3);
        for (k, &x) in xs.iter().enumerate() {
            let cap = ckt.node(format!("cap{k}"));
            ckt.voltage_source(cap, Circuit::GROUND, SourceValue::dc(0.5 + 0.3 * k as f64));
            ckt.diode(x, cap, DiodeModel::ideal());
            ckt.diode(Circuit::GROUND, x, DiodeModel::ideal());
            ckt.resistor(x, xs[(k + 1) % xs.len()], 2e3 + 100.0 * k as f64);
            ckt.resistor(x, Circuit::GROUND, -2e4);
        }
        ckt.diode(xs[1], xs[3], DiodeModel::silicon());
        ckt
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Random diode flip sets: the state-only restamp must take the
        /// state-only path and equal the full stamp bit for bit.
        #[test]
        fn state_only_restamp_matches_full_stamp(
            masks in proptest::collection::vec(proptest::prelude::any::<u64>(), 4..5),
        ) {
            for ckt in [clamp_ladder(6, |k| 1e3 + 10.0 * k as f64, |k| 1.0 + 0.3 * k as f64, 6.0), mini_substrate()] {
                let st = MnaStructure::new(&ckt);
                let mut states = mna::initial_states(&ckt);
                let diodes: Vec<usize> = ckt.diode_ids().iter().map(|d| d.index()).collect();
                let mut m = StampedMatrix::mapped(&ckt, &st, &states);
                let full = |states: &[DeviceState]| {
                    mna::stamp_matrix(&ckt, &st, states).to_csc()
                };
                let bits = |a: &CscMatrix| {
                    (a.col_ptr().to_vec(), a.row_idx().to_vec(),
                     a.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                };
                for &mask in &masks {
                    for (j, &d) in diodes.iter().enumerate() {
                        if mask >> (j % 64) & 1 == 1 {
                            states[d] = match states[d] {
                                DeviceState::On => DeviceState::Off,
                                _ => DeviceState::On,
                            };
                        }
                    }
                    proptest::prop_assert!(m.restamp_states(&ckt, &st, &states));
                    proptest::prop_assert_eq!(bits(m.matrix()), bits(&full(&states)));
                }
            }
        }
    }

    #[test]
    fn quasi_static_at_time_tracks_ramp() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.voltage_source(a, Circuit::GROUND, SourceValue::ramp(0.0, 0.0, 1.0, 10.0));
        ckt.resistor(a, Circuit::GROUND, 1e3);
        let sol = DcSolver::new().solve_at(&ckt, 0.35).unwrap().0;
        assert!((sol.voltage(a) - 3.5).abs() < 1e-9);
    }
}
