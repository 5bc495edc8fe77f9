//! Modified nodal analysis: unknown indexing, matrix/RHS stamping, and the
//! piecewise-linear device-state (complementarity) iteration behind every
//! operating-point solve.
//!
//! Unknowns are ordered as `[node voltages (ground excluded) | branch
//! currents]`, with one branch current per voltage source and VCVS. All
//! devices are linear *given* a conduction-state assignment for diodes;
//! analyses iterate those states to a consistent fixed point, which is
//! exact for PWL models (no Newton damping heuristics required).

use std::collections::hash_map::Entry;
use std::sync::Arc;

use ohmflow_linalg::{CscMatrix, TripletMatrix};

use crate::circuit::Circuit;
use crate::element::Element;
use crate::error::CircuitError;
use crate::ids::{ElementId, NodeId};

/// Conduction state of one element.
///
/// Diodes use [`DeviceState::Off`] / [`DeviceState::On`]; all other
/// elements stay [`DeviceState::Stateless`]. The discriminants (0, 1, 2)
/// enter the state-assignment fingerprint, so the declaration order is
/// part of every cycle break's bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceState {
    /// Element has no switching state.
    Stateless,
    /// Diode blocking.
    Off,
    /// Diode conducting.
    On,
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

/// Initial state assignment: diodes off.
pub(crate) fn initial_states(ckt: &Circuit) -> Vec<DeviceState> {
    ckt.elements()
        .iter()
        .map(|e| match e {
            Element::Diode { .. } => DeviceState::Off,
            _ => DeviceState::Stateless,
        })
        .collect()
}

/// Receives the contributions of one stamping walk: `add(row, col, v)`
/// for every matrix entry whose row and column are both unknowns.
struct Sink<F: FnMut(usize, usize, f64)>(F);

impl<F: FnMut(usize, usize, f64)> Sink<F> {
    fn add(&mut self, r: Option<usize>, c: Option<usize>, v: f64) {
        if let (Some(r), Some(c)) = (r, c) {
            (self.0)(r, c, v);
        }
    }

    fn conductance(&mut self, a: NodeId, b: NodeId, g: f64) {
        let (ua, ub) = (a.unknown(), b.unknown());
        self.add(ua, ua, g);
        self.add(ub, ub, g);
        self.add(ua, ub, -g);
        self.add(ub, ua, -g);
    }
}

/// The one stamping walk: calls `push(row, col, value)` for every matrix
/// contribution of `ckt` under `states`, in element order.
/// [`stamp_matrix`] collects the calls into triplets; [`StampedMatrix`]
/// maps them onto a compressed pattern and replays them in place.
fn for_each_stamp(
    ckt: &Circuit,
    st: &MnaStructure,
    states: &[DeviceState],
    push: impl FnMut(usize, usize, f64),
) {
    let mut m = Sink(push);
    for idx in 0..ckt.element_count() {
        stamp_element(ckt, st, idx, states, &mut m);
    }
}

/// Element `idx`'s share of [`for_each_stamp`]: its contributions, in
/// push order.
fn stamp_element<F: FnMut(usize, usize, f64)>(
    ckt: &Circuit,
    st: &MnaStructure,
    idx: usize,
    states: &[DeviceState],
    m: &mut Sink<F>,
) {
    let ib = st.branch[idx];
    let e = &ckt.elements()[idx];
    match e {
        Element::Resistor { a, b, resistance } => {
            m.conductance(*a, *b, 1.0 / resistance);
        }
        Element::VoltageSource { pos, neg, .. } => {
            let ib = ib.expect("invariant: vsource rows were assigned a branch");
            m.add(pos.unknown(), Some(ib), 1.0);
            m.add(neg.unknown(), Some(ib), -1.0);
            m.add(Some(ib), pos.unknown(), 1.0);
            m.add(Some(ib), neg.unknown(), -1.0);
        }
        Element::Vcvs {
            out_pos,
            out_neg,
            ctrl_pos,
            ctrl_neg,
            gain,
        } => {
            let ib = ib.expect("invariant: vcvs rows were assigned a branch");
            m.add(out_pos.unknown(), Some(ib), 1.0);
            m.add(out_neg.unknown(), Some(ib), -1.0);
            m.add(Some(ib), out_pos.unknown(), 1.0);
            m.add(Some(ib), out_neg.unknown(), -1.0);
            m.add(Some(ib), ctrl_pos.unknown(), -gain);
            m.add(Some(ib), ctrl_neg.unknown(), *gain);
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
            m.conductance(*anode, *cathode, g);
        }
    }
}

/// Stamps the MNA matrix for the given states (the full path: triplets,
/// compressed by the caller).
pub fn stamp_matrix(ckt: &Circuit, st: &MnaStructure, states: &[DeviceState]) -> TripletMatrix {
    let n = st.n_unknowns;
    let mut m = TripletMatrix::with_capacity(n, n, 4 * ckt.element_count() + n);
    for_each_stamp(ckt, st, states, |r, c, v| m.push(r, c, v));
    m
}

/// Where the pushes of one stamping walk land, shared by the clones of a
/// [`StampedMatrix`]. Indices are 32-bit: a plan cache keeps one map per
/// resident template.
#[derive(Debug)]
struct StampMap {
    /// The value slot of each push, in push order.
    slots: Vec<u32>,
    /// Element `e` made pushes `elem_ptr[e]..elem_ptr[e + 1]`.
    elem_ptr: Vec<u32>,
    /// The pushes into slot `s`, in push order:
    /// `slot_pushes[slot_ptr[s]..slot_ptr[s + 1]]`.
    slot_ptr: Vec<u32>,
    slot_pushes: Vec<u32>,
}

impl StampMap {
    /// Maps every push of the stamping walk onto `matrix`, its compressed
    /// result, recording each push's value in `pushes`. `None` when an
    /// index would not fit in 32 bits.
    fn build(
        ckt: &Circuit,
        st: &MnaStructure,
        states: &[DeviceState],
        matrix: &CscMatrix,
        pushes: &mut Vec<f64>,
    ) -> Option<Self> {
        let (cp, ri) = (matrix.col_ptr(), matrix.row_idx());
        let nnz = u32::try_from(ri.len()).ok()?;
        pushes.clear();
        let mut slots = Vec::new();
        let mut elem_ptr = Vec::with_capacity(ckt.element_count() + 1);
        elem_ptr.push(0);
        for idx in 0..ckt.element_count() {
            let mut sink = Sink(|r, c, v| {
                let at = ri[cp[c]..cp[c + 1]]
                    .binary_search(&r)
                    .expect("invariant: every stamped entry is in its own compressed pattern");
                // A slot is below `nnz`, which fits.
                slots.push((cp[c] + at) as u32);
                pushes.push(v);
            });
            stamp_element(ckt, st, idx, states, &mut sink);
            elem_ptr.push(slots.len() as u32);
        }
        // Every push index and count fits once the last one does.
        u32::try_from(slots.len()).ok()?;
        slots.shrink_to_fit();
        pushes.shrink_to_fit();
        // Counting sort of the pushes by slot; ascending push order within
        // each slot falls out of the ascending scan.
        let mut slot_ptr = vec![0u32; nnz as usize + 1];
        for &s in &slots {
            slot_ptr[s as usize + 1] += 1;
        }
        for s in 0..nnz as usize {
            slot_ptr[s + 1] += slot_ptr[s];
        }
        let mut next = slot_ptr.clone();
        let mut slot_pushes = vec![0u32; slots.len()];
        for (k, &s) in slots.iter().enumerate() {
            slot_pushes[next[s as usize] as usize] = k as u32;
            next[s as usize] += 1;
        }
        Some(StampMap {
            slots,
            elem_ptr,
            slot_ptr,
            slot_pushes,
        })
    }

    /// Whether push `k` (at `(r, c)`) matches its recorded slot. A slot
    /// names one (row, col) position, so matching every push against its
    /// slot proves two push sequences equal.
    fn lands(&self, k: usize, r: usize, c: usize, cp: &[usize], ri: &[usize]) -> Option<usize> {
        let s = *self.slots.get(k)? as usize;
        ((cp[c]..cp[c + 1]).contains(&s) && ri[s] == r).then_some(s)
    }
}

/// A stamped MNA matrix, plus (once built) its slot map: the value slot of
/// each contribution of the stamping walk, in push order, and the value of
/// each contribution. Diode flips and value edits keep the push sequence,
/// so [`StampedMatrix::restamp`] can rewrite the values in place; a
/// circuit whose push sequence differs falls back to a full stamp that
/// maps the new pattern. Clones share the map.
#[derive(Debug, Clone)]
pub struct StampedMatrix {
    matrix: CscMatrix,
    map: Option<Arc<StampMap>>,
    /// Each push's value at the last stamp; empty without a map, or
    /// until the next full walk once dropped (`forget_pushes`).
    pushes: Vec<f64>,
    /// The assignment of the last stamp.
    states: Vec<DeviceState>,
}

impl StampedMatrix {
    /// A full stamp with no slot map: one-shot solves never restamp, so
    /// the map is built lazily by the first [`StampedMatrix::restamp`].
    pub fn new(ckt: &Circuit, st: &MnaStructure, states: &[DeviceState]) -> Self {
        StampedMatrix {
            matrix: stamp_matrix(ckt, st, states).to_csc(),
            map: None,
            pushes: Vec::new(),
            states: states.to_vec(),
        }
    }

    /// A full stamp with its slot map.
    pub(crate) fn mapped(ckt: &Circuit, st: &MnaStructure, states: &[DeviceState]) -> Self {
        let matrix = stamp_matrix(ckt, st, states).to_csc();
        let mut pushes = Vec::new();
        let map = StampMap::build(ckt, st, states, &matrix, &mut pushes).map(Arc::new);
        StampedMatrix {
            matrix,
            map,
            pushes,
            states: states.to_vec(),
        }
    }

    /// Drops the per-push values. For a template's base, which is only
    /// ever cloned and restamped in full: the full walk records them
    /// again.
    pub(crate) fn forget_pushes(&mut self) {
        self.pushes = Vec::new();
    }

    /// Re-stamps for `states`, walking every element: the path for value
    /// edits (resistances, capacities, models). With a map, the same
    /// unknown count and an unchanged push sequence the values are
    /// rewritten in place (no
    /// triplets, no sort, no allocation) and this returns `true`. The
    /// result is bitwise equal to `stamp_matrix(..).to_csc()`: every slot
    /// starts at `-0.0`, the additive identity that keeps the first
    /// contribution's bits, and contributions accumulate in push order,
    /// the order in which `to_csc` merges duplicates. Otherwise it stamps
    /// the full way, maps the new pattern for the next call and returns
    /// `false`. Either way it records each contribution's value and the
    /// states, so a following change of states alone can take
    /// the state-only restamp (`restamp_states`), which re-sums only the
    /// slots of the devices that changed.
    pub fn restamp(&mut self, ckt: &Circuit, st: &MnaStructure, states: &[DeviceState]) -> bool {
        let same_size = self.matrix.cols() == st.n_unknowns;
        let in_place = self.map.as_ref().filter(|_| same_size).is_some_and(|map| {
            let (cp, ri, values) = self.matrix.pattern_values_mut();
            let pushes = &mut self.pushes;
            pushes.resize(map.slots.len(), 0.0);
            values.fill(-0.0);
            let (mut k, mut same) = (0, true);
            for_each_stamp(ckt, st, states, |r, c, v| {
                match map.lands(k, r, c, cp, ri) {
                    Some(s) if same => {
                        values[s] += v;
                        pushes[k] = v;
                    }
                    _ => same = false,
                }
                k += 1;
            });
            same && k == map.slots.len()
        });
        if in_place {
            self.states.clear();
            self.states.extend_from_slice(states);
        } else {
            *self = Self::mapped(ckt, st, states);
        }
        in_place
    }

    /// [`StampedMatrix::restamp`] for a change of device states alone:
    /// only the elements whose state differs from the last stamp are
    /// re-stamped, and only their slots are re-summed, each from `-0.0`
    /// over all its pushes in push order — the same sums as the full walk,
    /// so the result is still bitwise equal to `stamp_matrix(..).to_csc()`.
    /// Returns `true` on that path. Without a map, or when a changed
    /// element's pushes no longer match its slots, it runs
    /// [`StampedMatrix::restamp`] and returns `false`.
    ///
    /// The caller guarantees that every element *value* (resistances,
    /// models, gains) is the one of the last stamp; value edits take
    /// [`StampedMatrix::restamp`].
    pub(crate) fn restamp_states(
        &mut self,
        ckt: &Circuit,
        st: &MnaStructure,
        states: &[DeviceState],
    ) -> bool {
        let state_only = match &self.map {
            Some(map)
                if states.len() == self.states.len() && self.pushes.len() == map.slots.len() =>
            {
                let (cp, ri, values) = self.matrix.pattern_values_mut();
                let pushes = &mut self.pushes;
                let mut changed = (0..states.len()).filter(|&i| states[i] != self.states[i]);
                changed.all(|i| {
                    let (lo, hi) = (map.elem_ptr[i] as usize, map.elem_ptr[i + 1] as usize);
                    let (mut k, mut same) = (lo, true);
                    let mut sink = Sink(|r, c, v| {
                        match map.lands(k, r, c, cp, ri) {
                            Some(_) if same && k < hi => pushes[k] = v,
                            _ => same = false,
                        }
                        k += 1;
                    });
                    stamp_element(ckt, st, i, states, &mut sink);
                    if !same || k != hi {
                        return false;
                    }
                    for &s in &map.slots[lo..hi] {
                        let s = s as usize;
                        let span = map.slot_ptr[s] as usize..map.slot_ptr[s + 1] as usize;
                        let into = &map.slot_pushes[span];
                        values[s] = into.iter().fold(-0.0, |acc, &p| acc + pushes[p as usize]);
                    }
                    true
                })
            }
            _ => false,
        };
        if state_only {
            self.states.copy_from_slice(states);
        } else {
            self.restamp(ckt, st, states);
        }
        state_only
    }

    /// The stamped matrix.
    pub fn matrix(&self) -> &CscMatrix {
        &self.matrix
    }
}

/// Stamps the RHS vector for the given states and time into a
/// caller-provided buffer, reusing its allocation. With `dc_pre_step`,
/// sources take their `0⁻` value ([`SourceValue::dc_value`]).
///
/// [`SourceValue::dc_value`]: crate::SourceValue::dc_value
pub(crate) fn stamp_rhs_into(
    b: &mut Vec<f64>,
    ckt: &Circuit,
    st: &MnaStructure,
    states: &[DeviceState],
    time: f64,
    dc_pre_step: bool,
) {
    b.clear();
    b.resize(st.n_unknowns, 0.0);
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
            _ => {}
        }
    }
}

/// Whether `e`'s term in [`stamp_rhs_into`] depends on its device state: a
/// diode with a forward drop. Ideal diodes (`v_on = 0`) flip without
/// touching the RHS.
pub(crate) fn rhs_depends_on_state(e: &Element) -> bool {
    matches!(e, Element::Diode { model, .. } if model.v_on != 0.0)
}

/// Writes into `flips`, in element order, every diode whose consistent
/// state under the candidate solution `x` differs from
/// `states`, with that state. Candidate diode flips whose boundary
/// violation is within `band` volts are suppressed; [`StateIteration`]
/// widens the band in its anti-cycling regime, since near the boundary
/// both states are physically equivalent (zero diode current).
fn wanted_flips(
    ckt: &Circuit,
    states: &[DeviceState],
    x: &[f64],
    band: f64,
    flips: &mut Vec<(usize, DeviceState)>,
) {
    let volt = |node: NodeId| match node.unknown() {
        Some(u) => x[u],
        None => 0.0,
    };
    flips.clear();
    for (idx, e) in ckt.elements().iter().enumerate() {
        let Element::Diode {
            anode,
            cathode,
            model,
        } = e
        else {
            continue;
        };
        let vak = volt(*anode) - volt(*cathode);
        // Hysteresis avoids chattering at complementarity boundaries
        // (where the exact solution has zero diode current and both
        // states are physically equivalent).
        let want = match states[idx] {
            DeviceState::On => vak > model.v_on - band,
            _ => vak > model.v_on + band,
        };
        let new = if want {
            DeviceState::On
        } else {
            DeviceState::Off
        };
        if new != states[idx] {
            flips.push((idx, new));
        }
    }
}

/// Element `i`'s term of a state assignment's 64-bit fingerprint (a
/// splitmix64 hash of `(i, s)`). The fingerprint XORs every stateful
/// element's term, so a flip updates it in O(1); a collision only starts
/// the anti-cycling regime early.
fn state_key(i: usize, s: DeviceState) -> u64 {
    let mut z = (i as u64 * 8 + s as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The flip with the largest boundary violation under solution `x`, the
/// first on ties. Every flip names a diode ([`wanted_flips`]).
fn most_violated(
    ckt: &Circuit,
    flips: &[(usize, DeviceState)],
    x: &[f64],
) -> Option<(usize, DeviceState)> {
    let volt = |node: NodeId| match node.unknown() {
        Some(u) => x[u],
        None => 0.0,
    };
    let mut best: Option<((usize, DeviceState), f64)> = None;
    for &(i, s) in flips {
        let Element::Diode {
            anode,
            cathode,
            model,
        } = &ckt.elements()[i]
        else {
            continue;
        };
        let violation = (volt(*anode) - volt(*cathode) - model.v_on).abs();
        if best.is_none_or(|(_, v)| violation > v) {
            best = Some(((i, s), violation));
        }
    }
    best.map(|(flip, _)| flip)
}

/// The one complementarity (PWL state) iteration policy. Its one caller,
/// the frozen-state session's operating-point solve
/// ([`FrozenDcSession::solve_operating_point`]), solves the assignment it
/// holds with every device frozen and hands the solution to
/// [`StateIteration::advance`], which moves the devices to the states the
/// solution asks for, until nothing moves. DC operating points and delta
/// sessions both run through it.
///
/// [`FrozenDcSession::solve_operating_point`]: crate::FrozenDcSession::solve_operating_point
///
/// The budget is [`max_state_iters`]. Until half of it, flips within
/// 1e-9 V of a boundary are suppressed and every wanted flip is applied.
/// From half the budget the anti-cycling regime runs: the band widens to
/// 1e-6 V, only the single most-violated device flips per iteration, and
/// a quarter-budget later the band widens to 1e-3 V. If the budget runs
/// out, the final assignment (the last solved one plus its last flip) is
/// accepted when it is consistent with the last solution within the
/// widest band; it is then solved once more, so the answer is always the
/// solution of its own assignment.
///
/// Before half the budget each assignment is fingerprinted before it is
/// solved. Those iterations are a deterministic map of the assignment, so
/// the first repeat means the iteration has entered a cycle it cannot
/// leave until half the budget. It then skips ahead: it takes the cycle
/// member it would hold at half the budget (replaying the recorded flips)
/// and starts the anti-cycling regime from it at once. A repeat therefore
/// saves the cycling solves without changing the assignments the regime
/// sees, or which answers are accepted.
#[derive(Debug)]
pub(crate) struct StateIteration {
    /// Frozen-state solves so far.
    pub solves: usize,
    /// The iteration at which an assignment first repeated, if one has.
    pub cycle_break: Option<usize>,
    max_iters: usize,
    iter: usize,
    time: f64,
    /// Fingerprint of the assignment to solve next.
    hash: u64,
    /// First iteration of each fingerprint.
    seen: std::collections::HashMap<u64, usize>,
    /// The flips each iteration before the regime applied.
    trail: Vec<Vec<(usize, DeviceState)>>,
    flips: Vec<(usize, DeviceState)>,
    /// The budget ran out on an acceptable assignment, which is being
    /// solved one last time.
    accepted: bool,
}

impl StateIteration {
    /// Starts the iteration from `states` (solve them first).
    pub(crate) fn new(ckt: &Circuit, states: &[DeviceState], time: f64) -> Self {
        let hash = states
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != DeviceState::Stateless)
            .fold(0, |h, (i, &s)| h ^ state_key(i, s));
        StateIteration {
            solves: 0,
            cycle_break: None,
            max_iters: max_state_iters(ckt),
            iter: 0,
            time,
            hash,
            seen: [(hash, 0)].into(),
            trail: Vec::new(),
            flips: Vec::new(),
            accepted: false,
        }
    }

    /// Takes the solution `x` of `states`. Returns `Ok(true)` when the
    /// iteration is done (`states` is the answer), or `Ok(false)` after
    /// moving `states` to the next assignment to solve.
    ///
    /// # Errors
    ///
    /// [`CircuitError::StateIterationDiverged`] when the budget runs out
    /// without an acceptable assignment.
    pub(crate) fn advance(
        &mut self,
        ckt: &Circuit,
        states: &mut [DeviceState],
        x: &[f64],
    ) -> Result<bool, CircuitError> {
        let half = self.max_iters / 2;
        let band = if self.iter < half {
            1e-9
        } else if self.iter < 3 * self.max_iters / 4 {
            1e-6
        } else {
            1e-3
        };
        self.solves += 1;
        if self.accepted {
            return Ok(true);
        }
        wanted_flips(ckt, states, x, band, &mut self.flips);
        if self.flips.is_empty() {
            return Ok(true);
        }
        if self.iter > half {
            if let Some((i, s)) = most_violated(ckt, &self.flips, x) {
                states[i] = s;
            }
        } else {
            for &(i, s) in &self.flips {
                self.hash ^= state_key(i, states[i]) ^ state_key(i, s);
                states[i] = s;
            }
            if self.cycle_break.is_none() {
                self.trail.push(self.flips.clone());
            }
        }
        self.iter += 1;
        if self.iter == self.max_iters {
            wanted_flips(ckt, states, x, 1e-3, &mut self.flips);
            self.accepted = self.flips.is_empty();
            return if self.accepted {
                Ok(false)
            } else {
                Err(CircuitError::StateIterationDiverged {
                    time: self.time,
                    iterations: self.max_iters,
                })
            };
        }
        if self.iter < half && self.cycle_break.is_none() {
            match self.seen.entry(self.hash) {
                Entry::Vacant(v) => {
                    v.insert(self.iter);
                }
                Entry::Occupied(o) => {
                    let first = *o.get();
                    let ahead = (half - first) % (self.iter - first);
                    for &(i, s) in self.trail[first..first + ahead].iter().flatten() {
                        states[i] = s;
                    }
                    self.cycle_break = Some(self.iter);
                    self.iter = half;
                }
            }
        }
        Ok(false)
    }
}

/// Maximum state-iteration count before declaring divergence. Scales with
/// the number of switching devices because the substrate's diodes can turn
/// on in long causal chains.
pub(crate) fn max_state_iters(ckt: &Circuit) -> usize {
    200 + 4 * ckt.diode_count()
}
