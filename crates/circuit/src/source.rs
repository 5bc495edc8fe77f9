/// Time-dependent value of an independent source.
///
/// # Example
///
/// ```
/// use ohmflow_circuit::SourceValue;
///
/// let step = SourceValue::step(0.0, 3.0, 1e-9);
/// assert_eq!(step.value_at(0.0), 0.0);
/// assert_eq!(step.value_at(2e-9), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum SourceValue {
    /// Constant value.
    Dc(f64),
    /// Step from `before` to `after` at time `at`.
    Step {
        /// Value for `t < at`.
        before: f64,
        /// Value for `t >= at`.
        after: f64,
        /// Switching time in seconds.
        at: f64,
    },
    /// Linear ramp from `(t0, v0)` to `(t1, v1)`, clamped outside.
    Ramp {
        /// Ramp start time.
        t0: f64,
        /// Value at and before `t0`.
        v0: f64,
        /// Ramp end time.
        t1: f64,
        /// Value at and after `t1`.
        v1: f64,
    },
}

impl SourceValue {
    /// Constant source.
    pub fn dc(v: f64) -> Self {
        SourceValue::Dc(v)
    }

    /// Step source (`before` → `after` at time `at`).
    pub fn step(before: f64, after: f64, at: f64) -> Self {
        SourceValue::Step { before, after, at }
    }

    /// Linear ramp between two time/value points.
    ///
    /// # Panics
    ///
    /// Panics if `t1 <= t0`.
    pub fn ramp(t0: f64, v0: f64, t1: f64, v1: f64) -> Self {
        assert!(t1 > t0, "ramp requires t1 > t0");
        SourceValue::Ramp { t0, v0, t1, v1 }
    }

    /// Value at time `t` (seconds).
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            SourceValue::Dc(v) => *v,
            SourceValue::Step { before, after, at } => {
                if t < *at {
                    *before
                } else {
                    *after
                }
            }
            SourceValue::Ramp { t0, v0, t1, v1 } => {
                if t <= *t0 {
                    *v0
                } else if t >= *t1 {
                    *v1
                } else {
                    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                }
            }
        }
    }

    /// The instant after which [`SourceValue::value_at`] is constant:
    /// `value_at(a) == value_at(b)` for any `constant_after() <= a <= b`.
    /// Incremental solvers use this to prove an operating point unchanged
    /// between time steps without re-evaluating every source.
    pub fn constant_after(&self) -> f64 {
        match self {
            SourceValue::Dc(_) => f64::NEG_INFINITY,
            SourceValue::Step { at, .. } => *at,
            SourceValue::Ramp { t1, .. } => *t1,
        }
    }

    /// Value used for DC operating-point analysis (t = 0⁻, i.e. the value
    /// *before* any step scheduled at `t = 0`).
    pub fn dc_value(&self) -> f64 {
        match self {
            SourceValue::Step { before, .. } => *before,
            other => other.value_at(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let s = SourceValue::dc(2.5);
        assert_eq!(s.value_at(0.0), 2.5);
        assert_eq!(s.value_at(1e9), 2.5);
        assert_eq!(s.dc_value(), 2.5);
    }

    #[test]
    fn step_switches_exactly_at_threshold() {
        let s = SourceValue::step(1.0, 2.0, 5.0);
        assert_eq!(s.value_at(4.999), 1.0);
        assert_eq!(s.value_at(5.0), 2.0);
        assert_eq!(s.dc_value(), 1.0, "DC uses the pre-step value");
    }

    #[test]
    fn ramp_interpolates_and_clamps() {
        let s = SourceValue::ramp(1.0, 0.0, 3.0, 4.0);
        assert_eq!(s.value_at(0.0), 0.0);
        assert_eq!(s.value_at(2.0), 2.0);
        assert_eq!(s.value_at(10.0), 4.0);
    }

    #[test]
    #[should_panic(expected = "t1 > t0")]
    fn degenerate_ramp_panics() {
        let _ = SourceValue::ramp(1.0, 0.0, 1.0, 4.0);
    }
}
