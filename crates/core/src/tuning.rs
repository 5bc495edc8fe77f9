//! §4.3.2 post-fabrication resistance tuning.
//!
//! The substrate is reconfigured into the Fig. 9b tuning circuit (a simple
//! negation widget that should enforce `V(x⁻) = −V(x)`), then:
//!
//! 1. with `V(x) = 0`, the negative resistor `R3` is modulated until
//!    `V(x⁻) = 0` (this enforces `1/R3 = 1/r1 + 1/r2`),
//! 2. with `V(x) = 1 V`, `r1` and `r2` are scaled together until
//!    `V(x⁻) = −1 V`,
//!
//! iterating the two steps until the negation error is below a target.
//! Memristive resistors make the fine-grained modulation possible (§3).

use ohmflow_circuit::{Circuit, DcSolver, ElementId, NodeId, SourceValue};

use crate::AnalogError;

/// Result of a tuning run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningResult {
    /// Final `r1` (Ω).
    pub r1: f64,
    /// Final `r2` (Ω).
    pub r2: f64,
    /// Final `R3` magnitude (Ω, the realized negative resistance).
    pub r3: f64,
    /// Residual negation error `|V(x⁻) + V(x)|` at `V(x) = 1 V`.
    pub residual: f64,
    /// Outer iterations used.
    pub iterations: usize,
}

/// The Fig. 9b tuning circuit with (possibly parasitic-laden) component
/// values that the §4.3.2 procedure will correct.
#[derive(Debug)]
pub struct TuningCircuit {
    ckt: Circuit,
    xneg: NodeId,
    src: ElementId,
    r1_id: ElementId,
    r3_id: ElementId,
    r1: f64,
    r2: f64,
    r3: f64,
    /// Planned once (a solver without a template if planning fails): the
    /// tuning loop re-solves this tiny circuit ~100 times per outer
    /// iteration (bisection on `r1`) with only resistor/source *values*
    /// changing, which is exactly the template's value-only fast path.
    solver: DcSolver,
}

impl TuningCircuit {
    /// Builds the tuning circuit with the given *actual* (perturbed)
    /// resistor values: `r1`, `r2` around node `P`, and the negative
    /// resistor magnitude `r3`.
    ///
    /// # Panics
    ///
    /// Panics if any value is not positive.
    pub fn new(r1: f64, r2: f64, r3: f64) -> Self {
        assert!(
            r1 > 0.0 && r2 > 0.0 && r3 > 0.0,
            "resistances must be positive"
        );
        let mut ckt = Circuit::new();
        let x = ckt.node("x");
        let p = ckt.node("p");
        let xneg = ckt.node("xneg");
        let _ = x;
        let src = ckt.voltage_source(x, Circuit::GROUND, SourceValue::dc(0.0));
        let r1_id = ckt.resistor(x, p, r1);
        ckt.resistor(xneg, p, r2);
        let r3_id = ckt.resistor(p, Circuit::GROUND, -r3);
        // A light load fixes x⁻'s level as in the real widget.
        ckt.resistor(xneg, Circuit::GROUND, 100.0 * r1);
        let solver = DcSolver::new().plan(&ckt).unwrap_or_default();
        TuningCircuit {
            ckt,
            xneg,
            src,
            r1_id,
            r3_id,
            r1,
            r2,
            r3,
            solver,
        }
    }

    fn measure_xneg(&mut self, vx: f64) -> Result<f64, AnalogError> {
        self.ckt
            .set_source_value(self.src, SourceValue::dc(vx))
            .expect("invariant: tuner ids are recorded at build time");
        let sol = self.solver.solve(&self.ckt).map_err(AnalogError::from)?.0;
        Ok(sol.voltage(self.xneg))
    }

    /// Runs the two-step §4.3.2 procedure until the negation residual is
    /// below `target` or `max_iters` outer iterations elapse.
    ///
    /// # Errors
    ///
    /// [`AnalogError::TuningFailed`] when the residual target is not met;
    /// circuit failures propagate.
    pub fn tune(&mut self, target: f64, max_iters: usize) -> Result<TuningResult, AnalogError> {
        let mut residual = f64::INFINITY;
        for iter in 0..max_iters {
            // Step 1: enforce 1/R3 = 1/r1 + 1/r2. On hardware this is the
            // "V(x) = 0, null V(x⁻)" measurement (any offset excitation
            // makes V(x⁻) sensitive to the conductance mismatch); in an
            // ideal noise-free simulation the homogeneous system is zero
            // for *any* R3, so we apply the calibration equation directly —
            // the memristive modulation the measurement would converge to.
            self.r3 = 1.0 / (1.0 / self.r1 + 1.0 / self.r2);
            self.ckt
                .set_resistance(self.r3_id, -self.r3)
                .expect("invariant: tuner ids are recorded at build time");

            // Step 2: V(x) = 1 V; scale r1 (keeping r2) until V(x⁻) = −1.
            // V(x⁻) is monotone in the r2/r1 ratio; bisection on r1.
            let mut lo = self.r1 * 0.25;
            let mut hi = self.r1 * 4.0;
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                self.ckt
                    .set_resistance(self.r1_id, mid)
                    .expect("invariant: tuner ids are recorded at build time");
                self.r1 = mid;
                let v = self.measure_xneg(1.0)?;
                // Larger r1 ⇒ weaker pull from x ⇒ |V(x⁻)| smaller.
                if v < -1.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
                if (hi - lo) / self.r1 < 1e-12 {
                    break;
                }
            }

            residual = (self.measure_xneg(1.0)? + 1.0).abs();
            if residual < target {
                return Ok(TuningResult {
                    r1: self.r1,
                    r2: self.r2,
                    r3: self.r3,
                    residual,
                    iterations: iter + 1,
                });
            }
        }
        Err(AnalogError::TuningFailed { residual })
    }

    /// Current `(r1, r2, r3)` values.
    pub fn values(&self) -> (f64, f64, f64) {
        (self.r1, self.r2, self.r3)
    }

    /// Measured negation error `|V(x⁻) + V(x)|` at `V(x) = 1 V` without
    /// changing anything — the figure of merit before/after tuning.
    ///
    /// # Errors
    ///
    /// Propagates circuit failures.
    pub fn negation_error(&mut self) -> Result<f64, AnalogError> {
        Ok((self.measure_xneg(1.0)? + 1.0).abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn already_ideal_circuit_tunes_immediately() {
        // r1 = r2 = r, r3 = r/2: the exact Fig. 9b values.
        let mut tc = TuningCircuit::new(10e3, 10e3, 5e3);
        let before = tc.negation_error().unwrap();
        assert!(before < 1e-6, "ideal circuit error {before}");
        let result = tc.tune(1e-6, 4).unwrap();
        assert!(result.residual < 1e-6);
    }

    #[test]
    fn tuning_repairs_parasitic_resistance() {
        // 3 % parasitic skew on r1 and a mis-set R3.
        let mut tc = TuningCircuit::new(10.3e3, 10e3, 5.4e3);
        let before = tc.negation_error().unwrap();
        assert!(
            before > 1e-3,
            "perturbed circuit should start bad: {before}"
        );
        let result = tc.tune(1e-3, 16).unwrap();
        assert!(result.residual < 1e-3, "after tuning: {}", result.residual);
        // R3 should approach r1∥r2 of the *tuned* values.
        let (r1, r2, r3) = tc.values();
        let parallel = 1.0 / (1.0 / r1 + 1.0 / r2);
        assert!(
            (r3 - parallel).abs() / parallel < 0.05,
            "R3 {r3} vs r1||r2 {parallel}"
        );
    }

    #[test]
    fn severe_mismatch_reported_as_failure() {
        // r2 wildly off and outside the adjustment range of r1/R3 search.
        let mut tc = TuningCircuit::new(10e3, 47e3, 5e3);
        match tc.tune(1e-9, 1) {
            Err(AnalogError::TuningFailed { residual }) => assert!(residual > 0.0),
            Ok(r) => {
                // If the search does manage it, the residual must honor the
                // target.
                assert!(r.residual < 1e-9);
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_resistance_panics() {
        let _ = TuningCircuit::new(0.0, 1.0, 1.0);
    }
}
