use crate::ids::NodeId;
use crate::source::SourceValue;

/// Piecewise-linear diode model.
///
/// The substrate's clamping diodes are treated as ideal switches with a
/// small on-resistance and a large off-resistance; the optional forward
/// drop `v_on` models the real turn-on voltage which, per §2.1 of the
/// paper, is compensated by adjusting the clamp voltage sources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiodeModel {
    /// Series resistance when conducting (Ω).
    pub r_on: f64,
    /// Leakage resistance when blocking (Ω).
    pub r_off: f64,
    /// Forward voltage drop (V); `0.0` for an ideal diode.
    pub v_on: f64,
}

impl DiodeModel {
    /// Ideal switch diode: 10 mΩ on, 1 GΩ off, no forward drop. (A literal
    /// 0 Ω switch makes the PWL complementarity iteration chatter at clamp
    /// boundaries; 10 mΩ keeps the clamp voltage error below 10⁻⁴ of the
    /// substrate's signal levels.)
    pub fn ideal() -> Self {
        DiodeModel {
            r_on: 1e-2,
            r_off: 1e9,
            v_on: 0.0,
        }
    }

    /// Silicon-like diode with a 0.7 V drop (used in non-ideality studies).
    pub fn silicon() -> Self {
        DiodeModel {
            r_on: 1.0,
            r_off: 1e9,
            v_on: 0.7,
        }
    }
}

impl Default for DiodeModel {
    fn default() -> Self {
        DiodeModel::ideal()
    }
}

/// Single-pole operational-amplifier parameters.
///
/// No element stamps it: the substrate's negative resistors are ideal, and
/// the op-amp NICs that realize them in hardware enter only through the
/// dominant pole `τ = A / (2π · GBW)` ([`OpAmpModel::time_constant`]),
/// which sets how fast the substrate settles. The core crate's relaxation
/// transient lags the edge voltages by it, matching Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpAmpModel {
    /// Open-loop DC gain `A` (dimensionless). Table 1 uses `1e4`.
    pub gain: f64,
    /// Gain–bandwidth product in Hz. Table 1 sweeps 10–50 GHz.
    pub gbw_hz: f64,
}

impl OpAmpModel {
    /// The paper's Table 1 op-amp: gain 1e4, GBW 10 GHz.
    pub fn table1() -> Self {
        OpAmpModel {
            gain: 1e4,
            gbw_hz: 10e9,
        }
    }

    /// Same as [`OpAmpModel::table1`] but with the given GBW in Hz.
    pub fn with_gbw(gbw_hz: f64) -> Self {
        OpAmpModel {
            gbw_hz,
            ..OpAmpModel::table1()
        }
    }

    /// Dominant-pole time constant `τ = A / (2π · GBW)` in seconds.
    pub fn time_constant(&self) -> f64 {
        self.gain / (2.0 * std::f64::consts::PI * self.gbw_hz)
    }
}

impl Default for OpAmpModel {
    fn default() -> Self {
        OpAmpModel::table1()
    }
}

/// Resistance states of a behavioural memristor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemristorState {
    /// High-resistance state: the crossbar switch is *open*.
    #[default]
    Hrs,
    /// Low-resistance state: the switch is *closed* and acts as the
    /// resistor `r` of the substrate.
    Lrs,
}

/// Behavioural memristor model (threshold-switching, per §3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemristorModel {
    /// LRS memristance (Ω). Table 1: 10 kΩ.
    pub r_lrs: f64,
    /// HRS memristance (Ω). Table 1: 1 MΩ.
    pub r_hrs: f64,
    /// Programming threshold voltage (V): pulses with magnitude at or above
    /// this switch the state; anything below leaves it untouched.
    pub v_threshold: f64,
}

impl MemristorModel {
    /// Table 1 memristor: LRS 10 kΩ, HRS 1 MΩ, 1.5 V threshold (typical of
    /// the cited literature).
    pub fn table1() -> Self {
        MemristorModel {
            r_lrs: 10e3,
            r_hrs: 1e6,
            v_threshold: 1.5,
        }
    }

    /// Resistance in a given state.
    pub fn resistance(&self, state: MemristorState) -> f64 {
        match state {
            MemristorState::Hrs => self.r_hrs,
            MemristorState::Lrs => self.r_lrs,
        }
    }
}

impl Default for MemristorModel {
    fn default() -> Self {
        MemristorModel::table1()
    }
}

/// A device instance in a [`crate::Circuit`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Element {
    /// Linear resistor between `a` and `b`; `resistance` may be *negative*
    /// (the substrate's constraint circuits rely on negative resistors).
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in Ω (nonzero, possibly negative).
        resistance: f64,
    },
    /// Independent voltage source: `V(pos) − V(neg) = value(t)`.
    VoltageSource {
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Source waveform.
        value: SourceValue,
    },
    /// Voltage-controlled voltage source:
    /// `V(out_pos) − V(out_neg) = gain · (V(ctrl_pos) − V(ctrl_neg))`.
    Vcvs {
        /// Output positive terminal.
        out_pos: NodeId,
        /// Output negative terminal.
        out_neg: NodeId,
        /// Control positive terminal.
        ctrl_pos: NodeId,
        /// Control negative terminal.
        ctrl_neg: NodeId,
        /// Voltage gain.
        gain: f64,
    },
    /// Piecewise-linear diode conducting from `anode` to `cathode`.
    Diode {
        /// Anode.
        anode: NodeId,
        /// Cathode.
        cathode: NodeId,
        /// PWL model parameters.
        model: DiodeModel,
    },
}

impl Element {
    /// The two "primary" terminals of the element (output terminals for
    /// controlled sources). Useful for connectivity checks.
    pub fn terminals(&self) -> (NodeId, NodeId) {
        match self {
            Element::Resistor { a, b, .. } => (*a, *b),
            Element::VoltageSource { pos, neg, .. } => (*pos, *neg),
            Element::Vcvs {
                out_pos, out_neg, ..
            } => (*out_pos, *out_neg),
            Element::Diode { anode, cathode, .. } => (*anode, *cathode),
        }
    }

    /// `true` if the element introduces a branch-current unknown in MNA.
    pub fn has_branch_current(&self) -> bool {
        matches!(self, Element::VoltageSource { .. } | Element::Vcvs { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opamp_time_constant() {
        let m = OpAmpModel::table1();
        // tau = 1e4 / (2*pi*1e10) ≈ 1.59e-7
        assert!((m.time_constant() - 1.5915e-7).abs() < 1e-10);
        let fast = OpAmpModel::with_gbw(50e9);
        assert!(fast.time_constant() < m.time_constant());
    }

    #[test]
    fn memristor_state_resistance() {
        let m = MemristorModel::table1();
        assert_eq!(m.resistance(MemristorState::Lrs), 10e3);
        assert_eq!(m.resistance(MemristorState::Hrs), 1e6);
    }

    #[test]
    fn branch_current_classification() {
        let r = Element::Resistor {
            a: NodeId(1),
            b: NodeId(0),
            resistance: 1.0,
        };
        assert!(!r.has_branch_current());
        let v = Element::VoltageSource {
            pos: NodeId(1),
            neg: NodeId(0),
            value: SourceValue::dc(1.0),
        };
        assert!(v.has_branch_current());
    }
}
