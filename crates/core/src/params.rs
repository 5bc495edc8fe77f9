//! Table 1 design parameters of the max-flow computing substrate.

use ohmflow_circuit::{DiodeModel, MemristorModel, OpAmpModel};

/// Design parameters of the substrate (Table 1 of the paper).
///
/// | Parameter | Table 1 value |
/// |---|---|
/// | Memristor LRS resistance | 10 kΩ |
/// | Memristor HRS resistance | 1 MΩ |
/// | Objective voltage `V_flow` | 3 V |
/// | Op-amp open-loop gain | 1×10⁴ |
/// | Op-amp gain–bandwidth product | 10–50 GHz |
/// | Crossbar rows × columns | 1000 × 1000 |
/// | Voltage levels `N` | 20 |
///
/// # Example
///
/// ```
/// use ohmflow::SubstrateParams;
///
/// let p = SubstrateParams::table1();
/// assert_eq!(p.r_unit, 10e3);       // LRS memristance doubles as the unit resistor
/// assert_eq!(p.v_flow, 3.0);
/// assert_eq!(p.voltage_levels, 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SubstrateParams {
    /// The unit resistance `r` (Ω): every positive resistor in the
    /// substrate is an LRS memristor of this value.
    pub r_unit: f64,
    /// Memristor model (LRS/HRS/threshold).
    pub memristor: MemristorModel,
    /// Objective drive voltage `V_flow` (V).
    pub v_flow: f64,
    /// Supply voltage `V_dd` (V): quantized capacity levels span `[0, V_dd]`.
    pub v_dd: f64,
    /// Number of quantization voltage levels `N`.
    pub voltage_levels: u32,
    /// Op-amp parameters (gain, GBW); [`OpAmpModel::time_constant`] sets
    /// the relaxation transient's τ.
    pub opamp: OpAmpModel,
    /// Clamp-diode model.
    pub diode: DiodeModel,
    /// Crossbar side length (rows = columns).
    pub crossbar_dim: usize,
}

impl SubstrateParams {
    /// The paper's Table 1 configuration with GBW = 10 GHz.
    pub fn table1() -> Self {
        SubstrateParams {
            r_unit: 10e3,
            memristor: MemristorModel::table1(),
            v_flow: 3.0,
            v_dd: 1.0,
            voltage_levels: 20,
            opamp: OpAmpModel::table1(),
            diode: DiodeModel::ideal(),
            crossbar_dim: 1000,
        }
    }

    /// Table 1 with the op-amp GBW overridden (the paper sweeps 10–50 GHz).
    pub fn with_gbw(gbw_hz: f64) -> Self {
        let mut p = Self::table1();
        p.opamp.gbw_hz = gbw_hz;
        p
    }

    /// The conservation widget's negation resistance `−r/2` (Ω).
    pub fn negation_resistance(&self) -> f64 {
        -self.r_unit / 2.0
    }

    /// The conservation widget's star resistance `−R = −r/N` for a vertex
    /// with `n_incident` incident edges (Ω). The builder stamps it and delta
    /// sessions retune stars to it, so a retuned star holds a fresh build's
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `n_incident == 0` (such a vertex needs no widget).
    pub fn star_resistance(&self, n_incident: usize) -> f64 {
        assert!(n_incident > 0, "conservation widget needs incident edges");
        -self.r_unit / n_incident as f64
    }
}

impl Default for SubstrateParams {
    fn default() -> Self {
        Self::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let p = SubstrateParams::table1();
        assert_eq!(p.memristor.r_lrs, 10e3);
        assert_eq!(p.memristor.r_hrs, 1e6);
        assert_eq!(p.opamp.gain, 1e4);
        assert_eq!(p.opamp.gbw_hz, 10e9);
        assert_eq!(p.crossbar_dim, 1000);
    }

    #[test]
    fn derived_resistances() {
        let p = SubstrateParams::table1();
        assert_eq!(p.negation_resistance(), -5e3);
        assert_eq!(p.star_resistance(4), -2.5e3);
        assert_eq!(p.star_resistance(1), -10e3);
    }

    #[test]
    fn gbw_override() {
        let p = SubstrateParams::with_gbw(50e9);
        assert_eq!(p.opamp.gbw_hz, 50e9);
        assert_eq!(p.opamp.gain, 1e4, "gain untouched");
    }

    #[test]
    #[should_panic(expected = "incident")]
    fn star_resistance_zero_incident_panics() {
        let _ = SubstrateParams::table1().star_resistance(0);
    }
}
