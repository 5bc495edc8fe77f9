//! Modified nodal analysis: unknown indexing, matrix/RHS stamping, and the
//! piecewise-linear device-state (complementarity) iteration shared by DC
//! and transient analyses.
//!
//! Unknowns are ordered as `[node voltages (ground excluded) | branch
//! currents]`, with one branch current per voltage source, VCVS and op-amp.
//! All devices are linear *given* a conduction-state assignment for diodes
//! and a saturation-state assignment for op-amps; analyses iterate those
//! states to a consistent fixed point, which is exact for PWL models (no
//! Newton damping heuristics required).

use ohmflow_linalg::{CscMatrix, SparseLu, TripletMatrix};

use crate::circuit::Circuit;
use crate::element::Element;
use crate::error::CircuitError;
use crate::ids::{ElementId, NodeId};

/// Conduction/saturation state of one element.
///
/// Diodes use [`DeviceState::Off`] / [`DeviceState::On`]; op-amps use
/// [`DeviceState::Linear`] / [`DeviceState::SatHigh`] / [`DeviceState::SatLow`];
/// all other elements stay [`DeviceState::Stateless`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceState {
    /// Element has no switching state.
    Stateless,
    /// Diode blocking.
    Off,
    /// Diode conducting.
    On,
    /// Op-amp in its linear region.
    Linear,
    /// Op-amp clamped at the high rail.
    SatHigh,
    /// Op-amp clamped at the low rail.
    SatLow,
}

/// How reactive elements are treated during stamping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum StampMode {
    /// DC operating point: capacitors open, op-amp poles ignored.
    Dc,
    /// Backward-Euler companion models with step `h`.
    BackwardEuler {
        /// Time step (seconds).
        h: f64,
    },
    /// Trapezoidal companion models with step `h`.
    Trapezoidal {
        /// Time step (seconds).
        h: f64,
    },
}

/// Dynamic history carried between transient steps.
#[derive(Debug, Clone, Default)]
pub(crate) struct History {
    /// Previous solution vector (unknown-indexed).
    pub solution: Vec<f64>,
    /// Previous current through each capacitor, element-indexed
    /// (trapezoidal integration needs it; backward Euler ignores it).
    pub cap_currents: Vec<f64>,
}

/// Unknown indexing for a circuit.
#[derive(Debug, Clone)]
pub struct MnaStructure {
    n_node_unknowns: usize,
    /// Branch-current unknown per element (element-indexed).
    branch: Vec<Option<usize>>,
    n_unknowns: usize,
}

impl MnaStructure {
    /// Builds the unknown map for `ckt`.
    pub fn new(ckt: &Circuit) -> Self {
        let n_node_unknowns = ckt.node_count().saturating_sub(1);
        let mut branch = Vec::with_capacity(ckt.element_count());
        let mut next = n_node_unknowns;
        for e in ckt.elements() {
            if e.has_branch_current() {
                branch.push(Some(next));
                next += 1;
            } else {
                branch.push(None);
            }
        }
        MnaStructure {
            n_node_unknowns,
            branch,
            n_unknowns: next,
        }
    }

    /// Total number of unknowns (node voltages + branch currents).
    pub fn n_unknowns(&self) -> usize {
        self.n_unknowns
    }

    /// Number of node-voltage unknowns.
    pub fn n_node_unknowns(&self) -> usize {
        self.n_node_unknowns
    }

    /// Branch-current unknown of an element, if it has one.
    pub fn branch_unknown(&self, id: ElementId) -> Option<usize> {
        self.branch.get(id.0).copied().flatten()
    }
}

/// A solved operating point (node voltages and branch currents).
#[derive(Debug, Clone)]
pub struct Solution {
    values: Vec<f64>,
    structure: MnaStructure,
}

impl Solution {
    pub(crate) fn new(values: Vec<f64>, structure: MnaStructure) -> Self {
        Solution { values, structure }
    }

    /// Voltage of `node` (0 for ground).
    pub fn voltage(&self, node: NodeId) -> f64 {
        match node.unknown() {
            Some(u) => self.values[u],
            None => 0.0,
        }
    }

    /// Raw branch current unknown of `id` (the current flowing from the
    /// positive terminal *into* the element), if the element has one.
    pub fn branch_current(&self, id: ElementId) -> Option<f64> {
        self.structure.branch_unknown(id).map(|u| self.values[u])
    }

    /// Current delivered by a source-like element *out of* its positive
    /// terminal into the circuit (the negative of [`Solution::branch_current`]).
    ///
    /// This is the `I_flow` readout of Eq. (7a) when applied to `V_flow`.
    pub fn source_current(&self, id: ElementId) -> Option<f64> {
        self.branch_current(id).map(|i| -i)
    }

    /// The raw unknown vector.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Initial state assignment: diodes off, op-amps linear.
pub(crate) fn initial_states(ckt: &Circuit) -> Vec<DeviceState> {
    ckt.elements()
        .iter()
        .map(|e| match e {
            Element::Diode { .. } => DeviceState::Off,
            Element::OpAmp { .. } => DeviceState::Linear,
            _ => DeviceState::Stateless,
        })
        .collect()
}

/// Stamps the MNA matrix for the given states and mode.
pub(crate) fn stamp_matrix(
    ckt: &Circuit,
    st: &MnaStructure,
    states: &[DeviceState],
    mode: StampMode,
) -> TripletMatrix {
    let n = st.n_unknowns;
    let mut m = TripletMatrix::with_capacity(n, n, 4 * ckt.element_count() + n);

    let add = |m: &mut TripletMatrix, r: Option<usize>, c: Option<usize>, v: f64| {
        if let (Some(r), Some(c)) = (r, c) {
            m.push(r, c, v);
        }
    };
    let conductance_stamp = |m: &mut TripletMatrix, a: NodeId, b: NodeId, g: f64| {
        let (ua, ub) = (a.unknown(), b.unknown());
        if let Some(ua) = ua {
            m.push(ua, ua, g);
        }
        if let Some(ub) = ub {
            m.push(ub, ub, g);
        }
        if let (Some(ua), Some(ub)) = (ua, ub) {
            m.push(ua, ub, -g);
            m.push(ub, ua, -g);
        }
    };

    for (idx, e) in ckt.elements().iter().enumerate() {
        let ib = st.branch[idx];
        match e {
            Element::Resistor { a, b, resistance } => {
                conductance_stamp(&mut m, *a, *b, 1.0 / resistance);
            }
            Element::Memristor { a, b, .. } => {
                let r = e
                    .memristance()
                    .expect("invariant: memristor elements carry a memristance");
                conductance_stamp(&mut m, *a, *b, 1.0 / r);
            }
            Element::Capacitor { a, b, capacitance } => match mode {
                StampMode::Dc => {
                    // Open in DC; a tiny conductance keeps otherwise
                    // capacitor-only nodes from floating.
                    conductance_stamp(&mut m, *a, *b, 1e-15);
                }
                StampMode::BackwardEuler { h } => {
                    conductance_stamp(&mut m, *a, *b, capacitance / h);
                }
                StampMode::Trapezoidal { h } => {
                    conductance_stamp(&mut m, *a, *b, 2.0 * capacitance / h);
                }
            },
            Element::VoltageSource { pos, neg, .. } => {
                let ib = ib.expect("invariant: vsource rows were assigned a branch");
                add(&mut m, pos.unknown(), Some(ib), 1.0);
                add(&mut m, neg.unknown(), Some(ib), -1.0);
                add(&mut m, Some(ib), pos.unknown(), 1.0);
                add(&mut m, Some(ib), neg.unknown(), -1.0);
            }
            Element::CurrentSource { .. } => {
                // RHS only.
            }
            Element::Vcvs {
                out_pos,
                out_neg,
                ctrl_pos,
                ctrl_neg,
                gain,
            } => {
                let ib = ib.expect("invariant: vcvs rows were assigned a branch");
                add(&mut m, out_pos.unknown(), Some(ib), 1.0);
                add(&mut m, out_neg.unknown(), Some(ib), -1.0);
                add(&mut m, Some(ib), out_pos.unknown(), 1.0);
                add(&mut m, Some(ib), out_neg.unknown(), -1.0);
                add(&mut m, Some(ib), ctrl_pos.unknown(), -gain);
                add(&mut m, Some(ib), ctrl_neg.unknown(), *gain);
            }
            Element::Diode {
                anode,
                cathode,
                model,
            } => {
                let g = match states[idx] {
                    DeviceState::On => 1.0 / model.r_on,
                    _ => 1.0 / model.r_off,
                };
                conductance_stamp(&mut m, *anode, *cathode, g);
            }
            Element::NegativeResistorDyn { a, magnitude, tau } => {
                let ib = ib.expect("invariant: dynamic negative resistors were assigned a branch");
                // KCL: branch current leaves node a.
                add(&mut m, a.unknown(), Some(ib), 1.0);
                // Branch equation: DC  i + V/Rm = 0;
                // BE  (1 + τ/h) i + V/Rm = (τ/h) i_prev;
                // TRAP (0.5 + τ/h) i + 0.5 V/Rm = (τ/h − 0.5) i_prev − 0.5 V_prev/Rm.
                let g = 1.0 / magnitude;
                match mode {
                    StampMode::Dc => {
                        add(&mut m, Some(ib), Some(ib), 1.0);
                        add(&mut m, Some(ib), a.unknown(), g);
                    }
                    StampMode::BackwardEuler { h } => {
                        add(&mut m, Some(ib), Some(ib), 1.0 + tau / h);
                        add(&mut m, Some(ib), a.unknown(), g);
                    }
                    StampMode::Trapezoidal { h } => {
                        add(&mut m, Some(ib), Some(ib), 0.5 + tau / h);
                        add(&mut m, Some(ib), a.unknown(), 0.5 * g);
                    }
                }
            }
            Element::OpAmp {
                inp,
                inn,
                out,
                model,
            } => {
                let ib = ib.expect("invariant: opamp rows were assigned a branch");
                // Output behaves as a grounded voltage source carrying ib.
                add(&mut m, out.unknown(), Some(ib), 1.0);
                match states[idx] {
                    DeviceState::SatHigh | DeviceState::SatLow => {
                        // v_out = rail (RHS carries the rail value).
                        add(&mut m, Some(ib), out.unknown(), 1.0);
                    }
                    _ => {
                        // Linear region.
                        let (c_out, c_vd) = match mode {
                            StampMode::Dc => (1.0, model.gain),
                            StampMode::BackwardEuler { h } => {
                                let toh = model.time_constant() / h;
                                (1.0 + toh, model.gain)
                            }
                            StampMode::Trapezoidal { h } => {
                                let toh = model.time_constant() / h;
                                (0.5 + toh, 0.5 * model.gain)
                            }
                        };
                        add(&mut m, Some(ib), out.unknown(), c_out);
                        add(&mut m, Some(ib), inp.unknown(), -c_vd);
                        add(&mut m, Some(ib), inn.unknown(), c_vd);
                        if model.r_out > 0.0 {
                            add(&mut m, Some(ib), Some(ib), model.r_out);
                        }
                    }
                }
            }
        }
    }
    m
}

/// Stamps the RHS vector for the given states, time and mode.
pub(crate) fn stamp_rhs(
    ckt: &Circuit,
    st: &MnaStructure,
    states: &[DeviceState],
    time: f64,
    mode: StampMode,
    history: Option<&History>,
    dc_pre_step: bool,
) -> Vec<f64> {
    let mut b = Vec::new();
    stamp_rhs_into(&mut b, ckt, st, states, time, mode, history, dc_pre_step);
    b
}

/// [`stamp_rhs`] into a caller-provided buffer, reusing its allocation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stamp_rhs_into(
    b: &mut Vec<f64>,
    ckt: &Circuit,
    st: &MnaStructure,
    states: &[DeviceState],
    time: f64,
    mode: StampMode,
    history: Option<&History>,
    dc_pre_step: bool,
) {
    b.clear();
    b.resize(st.n_unknowns, 0.0);
    let prev_v = |node: NodeId, h: &History| match node.unknown() {
        Some(u) => h.solution[u],
        None => 0.0,
    };

    for (idx, e) in ckt.elements().iter().enumerate() {
        let ib = st.branch[idx];
        match e {
            Element::VoltageSource { value, .. } => {
                let v = if dc_pre_step {
                    value.dc_value()
                } else {
                    value.value_at(time)
                };
                b[ib.expect("invariant: vsource rows were assigned a branch")] += v;
            }
            Element::CurrentSource { pos, neg, value } => {
                let j = if dc_pre_step {
                    value.dc_value()
                } else {
                    value.value_at(time)
                };
                if let Some(u) = pos.unknown() {
                    b[u] += j;
                }
                if let Some(u) = neg.unknown() {
                    b[u] -= j;
                }
            }
            Element::Capacitor {
                a,
                b: nb,
                capacitance,
            } => {
                if let Some(h) = history {
                    match mode {
                        StampMode::BackwardEuler { h: dt } => {
                            let g = capacitance / dt;
                            let vprev = prev_v(*a, h) - prev_v(*nb, h);
                            if let Some(u) = a.unknown() {
                                b[u] += g * vprev;
                            }
                            if let Some(u) = nb.unknown() {
                                b[u] -= g * vprev;
                            }
                        }
                        StampMode::Trapezoidal { h: dt } => {
                            let g = 2.0 * capacitance / dt;
                            let vprev = prev_v(*a, h) - prev_v(*nb, h);
                            let iprev = h.cap_currents[idx];
                            let inj = g * vprev + iprev;
                            if let Some(u) = a.unknown() {
                                b[u] += inj;
                            }
                            if let Some(u) = nb.unknown() {
                                b[u] -= inj;
                            }
                        }
                        StampMode::Dc => {}
                    }
                }
            }
            Element::Diode { model, .. } if states[idx] == DeviceState::On && model.v_on != 0.0 => {
                let g = 1.0 / model.r_on;
                let (anode, cathode) = e.terminals();
                if let Some(u) = anode.unknown() {
                    b[u] += g * model.v_on;
                }
                if let Some(u) = cathode.unknown() {
                    b[u] -= g * model.v_on;
                }
            }
            Element::NegativeResistorDyn { a, magnitude, tau } => {
                if let Some(hist) = history {
                    let row =
                        ib.expect("invariant: dynamic negative resistors were assigned a branch");
                    let i_prev = hist.solution[row];
                    let v_prev = match a.unknown() {
                        Some(u) => hist.solution[u],
                        None => 0.0,
                    };
                    match mode {
                        StampMode::BackwardEuler { h } => {
                            b[row] += tau / h * i_prev;
                        }
                        StampMode::Trapezoidal { h } => {
                            b[row] += (tau / h - 0.5) * i_prev - 0.5 * v_prev / magnitude;
                        }
                        StampMode::Dc => {}
                    }
                }
            }
            Element::OpAmp {
                inp,
                inn,
                out,
                model,
            } => {
                let row = ib.expect("invariant: opamp rows were assigned a branch");
                match states[idx] {
                    DeviceState::SatHigh => b[row] += model.rails.1,
                    DeviceState::SatLow => b[row] += model.rails.0,
                    _ => {
                        if let Some(h) = history {
                            match mode {
                                StampMode::BackwardEuler { h: dt } => {
                                    let toh = model.time_constant() / dt;
                                    b[row] += toh * prev_v(*out, h);
                                }
                                StampMode::Trapezoidal { h: dt } => {
                                    let toh = model.time_constant() / dt;
                                    let vd_prev = prev_v(*inp, h) - prev_v(*inn, h);
                                    b[row] +=
                                        (toh - 0.5) * prev_v(*out, h) + 0.5 * model.gain * vd_prev;
                                }
                                StampMode::Dc => {}
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Computes the consistent next state of every stateful device from a
/// candidate solution. Returns `(new_states, n_changes)`.
/// Computes consistent next states with an explicit switching band:
/// candidate flips whose
/// boundary violation is within `band` volts are suppressed. Late in a
/// cycling complementarity iteration the band is escalated — near the
/// boundary both states are physically equivalent (zero diode current).
pub(crate) fn next_states_banded(
    ckt: &Circuit,
    st: &MnaStructure,
    states: &[DeviceState],
    x: &[f64],
    band: f64,
) -> (Vec<DeviceState>, usize) {
    let volt = |node: NodeId| match node.unknown() {
        Some(u) => x[u],
        None => 0.0,
    };
    let mut result = states.to_vec();
    let mut changes = 0;
    for (idx, e) in ckt.elements().iter().enumerate() {
        match e {
            Element::Diode {
                anode,
                cathode,
                model,
            } => {
                let vak = volt(*anode) - volt(*cathode);
                // Hysteresis avoids chattering at complementarity
                // boundaries (where the exact solution has zero diode
                // current and both states are physically equivalent).
                let want = match states[idx] {
                    DeviceState::On => vak > model.v_on - band,
                    _ => vak > model.v_on + band,
                };
                let new = if want {
                    DeviceState::On
                } else {
                    DeviceState::Off
                };
                if new != result[idx] {
                    result[idx] = new;
                    changes += 1;
                }
            }
            Element::OpAmp {
                inp,
                inn,
                out,
                model,
                ..
            } => {
                // While linear, saturation is judged on the *actual* output
                // (the pole keeps it small during transients even when the
                // input difference is large); while saturated, the desired
                // open-loop value decides when to re-enter the linear region.
                let desired = model.gain * (volt(*inp) - volt(*inn));
                let vo = volt(*out);
                let new = match states[idx] {
                    DeviceState::SatHigh => {
                        if desired < model.rails.1 {
                            DeviceState::Linear
                        } else {
                            DeviceState::SatHigh
                        }
                    }
                    DeviceState::SatLow => {
                        if desired > model.rails.0 {
                            DeviceState::Linear
                        } else {
                            DeviceState::SatLow
                        }
                    }
                    _ => {
                        if vo > model.rails.1 + 1e-9 {
                            DeviceState::SatHigh
                        } else if vo < model.rails.0 - 1e-9 {
                            DeviceState::SatLow
                        } else {
                            DeviceState::Linear
                        }
                    }
                };
                if new != result[idx] {
                    result[idx] = new;
                    changes += 1;
                }
            }
            _ => {}
        }
        let _ = st;
    }
    (result, changes)
}

/// Maximum state-iteration count before declaring divergence. Scales with
/// the number of switching devices because the substrate's diodes can turn
/// on in long causal chains.
pub(crate) fn max_state_iters(ckt: &Circuit) -> usize {
    200 + 4 * ckt.diode_count()
}

/// One step of iterative refinement of `x` against the stamped system
/// `m x = b`: recompute the residual, solve the correction through `lu` and
/// apply it. Returns whether the correction was applied; a failed
/// correction solve leaves `x` untouched.
pub(crate) fn refine_once(lu: &SparseLu, m: &CscMatrix, b: &[f64], x: &mut [f64]) -> bool {
    let mut r = Vec::new();
    m.mul_vec_into(x, &mut r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let (mut work, mut dx) = (Vec::new(), Vec::new());
    if lu.solve_into(&r, &mut work, &mut dx).is_err() {
        return false;
    }
    ohmflow_linalg::vecops::axpy(1.0, &dx, x);
    true
}

/// Solves the PWL system at one instant: iterate (factor, solve, restate)
/// until the state assignment is a fixed point. Returns the solution
/// vector together with the number of state iterations it took — the
/// `iterations` field of the facade's `SolveReport`.
///
/// `factor_cache` carries `(states, matrix-lu, stamped matrix)` between
/// calls so an unchanged state assignment reuses the previous
/// factorization, and callers can compute residuals (iterative refinement)
/// against the already-stamped matrix instead of re-stamping it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_pwl(
    ckt: &Circuit,
    st: &MnaStructure,
    states: &mut Vec<DeviceState>,
    time: f64,
    mode: StampMode,
    history: Option<&History>,
    dc_pre_step: bool,
    lu_opts: &crate::LuOptions,
    factor_cache: &mut Option<(Vec<DeviceState>, SparseLu, CscMatrix)>,
) -> Result<(Vec<f64>, usize), CircuitError> {
    let max_iters = max_state_iters(ckt);
    let mut x = Vec::new();
    // RHS and triangular-solve scratch reused across state iterations (and,
    // via the caller's buffers, across transient time steps): the fixed
    // point loop allocates only when a state flip forces a re-stamp.
    let mut b = Vec::new();
    let mut work = Vec::new();
    let mut lu_ws = ohmflow_linalg::LuWorkspace::new();
    for iter in 0..max_iters {
        // Escalate the switching band late in the iteration: flips that
        // only fight over nanovolt boundaries are physically meaningless.
        let band = if iter < max_iters / 2 {
            1e-9
        } else if iter < 3 * max_iters / 4 {
            1e-6
        } else {
            1e-3
        };
        let lu_ok = matches!(factor_cache, Some((s, _, _)) if s == states);
        if !lu_ok {
            let m = stamp_matrix(ckt, st, states, mode).to_csc();
            // A state flip only changes matrix *values* (a diode swaps
            // conductance, an op-amp rail swaps a couple of coefficients),
            // so try the numeric-only refactorization against the cached
            // symbolic pattern first and fall back to a fresh pivoting
            // factorization when the pattern moved or a frozen pivot died.
            let reused = factor_cache
                .take()
                .and_then(|(_, mut lu, _)| lu.refactor_with(&m, &mut lu_ws).is_ok().then_some(lu));
            let lu = match reused {
                Some(lu) => lu,
                None => SparseLu::factor_with(&m, lu_opts)?,
            };
            *factor_cache = Some((states.clone(), lu, m));
        }
        let (_, lu, _) = factor_cache
            .as_ref()
            .expect("invariant: factor cache is populated before reuse");
        stamp_rhs_into(&mut b, ckt, st, states, time, mode, history, dc_pre_step);
        lu.solve_into(&b, &mut work, &mut x)?;
        let (new_states, changes) = next_states_banded(ckt, st, states, &x, band);
        if changes == 0 {
            return Ok((x, iter + 1));
        }
        // Late in the iteration, flip only the single most-violated device
        // to break multi-device cycles.
        if iter > max_iters / 2 {
            let volt = |node: crate::ids::NodeId| match node.unknown() {
                Some(u) => x[u],
                None => 0.0,
            };
            let mut best: Option<(usize, f64)> = None;
            for (i, (old, new)) in states.iter().zip(&new_states).enumerate() {
                if old != new {
                    let violation = match &ckt.elements()[i] {
                        Element::Diode {
                            anode,
                            cathode,
                            model,
                        } => (volt(*anode) - volt(*cathode) - model.v_on).abs(),
                        _ => f64::MAX, // op-amp saturation flips take priority
                    };
                    if best.is_none_or(|(_, v)| violation > v) {
                        best = Some((i, violation));
                    }
                }
            }
            if let Some((i, _)) = best {
                states[i] = new_states[i];
            }
        } else {
            *states = new_states;
        }
    }
    // One final consistency check with the widest band: accept if the last
    // solve was consistent up to physically-negligible boundary violations.
    let (_, changes) = next_states_banded(ckt, st, states, &x, 1e-3);
    if changes == 0 {
        Ok((x, max_iters))
    } else {
        Err(CircuitError::StateIterationDiverged {
            time,
            iterations: max_iters,
        })
    }
}
