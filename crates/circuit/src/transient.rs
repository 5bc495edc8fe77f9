use crate::circuit::Circuit;
use crate::dc::FrozenDcSession;
use crate::element::Element;
use crate::error::CircuitError;
use crate::ids::{ElementId, NodeId};
use crate::mna::{self, History, MnaStructure, StampMode};
use crate::waveform::WaveformSet;
use crate::LuOptions;

/// Time-integration scheme for [`TransientAnalysis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrationMethod {
    /// Backward Euler: L-stable, first order. Robust default for the
    /// stiff switched networks of the substrate.
    #[default]
    BackwardEuler,
    /// Trapezoidal rule: A-stable, second order. The first step is taken
    /// with backward Euler to bootstrap the capacitor-current history.
    Trapezoidal,
}

/// Options for a transient run.
///
/// # Example
///
/// ```
/// use ohmflow_circuit::{IntegrationMethod, TransientOptions};
///
/// let opts = TransientOptions::to_time(1e-6)
///     .with_step(1e-9)
///     .with_method(IntegrationMethod::Trapezoidal);
/// assert_eq!(opts.steps(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct TransientOptions {
    /// Stop time in seconds (exclusive of rounding).
    pub t_stop: f64,
    /// Fixed time step in seconds.
    pub dt: f64,
    /// Integration scheme.
    pub method: IntegrationMethod,
    /// Record one sample every `record_every` steps (1 = every step).
    pub record_every: usize,
    /// Nodes to record. `None` records every node in the circuit.
    pub probes: Option<Vec<NodeId>>,
    /// Elements whose branch current to record (voltage sources, VCVS,
    /// op-amps).
    pub current_probes: Vec<ElementId>,
}

impl TransientOptions {
    /// Simulates until `t_stop` with a default step of `t_stop / 1000`.
    pub fn to_time(t_stop: f64) -> Self {
        TransientOptions {
            t_stop,
            dt: t_stop / 1000.0,
            method: IntegrationMethod::default(),
            record_every: 1,
            probes: None,
            current_probes: Vec::new(),
        }
    }

    /// Sets the fixed time step.
    pub fn with_step(mut self, dt: f64) -> Self {
        self.dt = dt;
        self
    }

    /// Sets the integration method.
    pub fn with_method(mut self, method: IntegrationMethod) -> Self {
        self.method = method;
        self
    }

    /// Restricts voltage recording to the given nodes (saves memory on
    /// substrate-scale circuits with tens of thousands of nodes).
    pub fn probe_nodes(mut self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.probes = Some(nodes.into_iter().collect());
        self
    }

    /// Also records the branch current of `element`.
    pub fn probe_current(mut self, element: ElementId) -> Self {
        self.current_probes.push(element);
        self
    }

    /// Record every `n`-th step only.
    pub fn decimate(mut self, n: usize) -> Self {
        self.record_every = n.max(1);
        self
    }

    /// Number of integration steps implied by `t_stop` and `dt`.
    pub fn steps(&self) -> usize {
        (self.t_stop / self.dt).round() as usize
    }
}

/// Fixed-step transient analysis with PWL device-state iteration per step
/// on one [`FrozenDcSession`]: the factorization is reused while states
/// are unchanged, and a state or integration-mode change restamps and
/// replays it.
///
/// See the crate-level example for typical use.
#[derive(Debug)]
pub struct TransientAnalysis<'c> {
    ckt: &'c Circuit,
    opts: TransientOptions,
}

impl<'c> TransientAnalysis<'c> {
    /// Prepares a transient run.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidParameter`] if `t_stop` or `dt` is not
    /// positive and finite, or if `dt > t_stop`.
    pub fn new(ckt: &'c Circuit, opts: TransientOptions) -> Result<Self, CircuitError> {
        if !(opts.t_stop > 0.0 && opts.t_stop.is_finite()) {
            return Err(CircuitError::InvalidParameter {
                what: format!("t_stop {}", opts.t_stop),
            });
        }
        if !(opts.dt > 0.0 && opts.dt.is_finite()) || opts.dt > opts.t_stop {
            return Err(CircuitError::InvalidParameter {
                what: format!("dt {}", opts.dt),
            });
        }
        Ok(TransientAnalysis { ckt, opts })
    }

    /// Runs the analysis and returns the recorded waveforms.
    ///
    /// The initial condition is the DC operating point with every source at
    /// its `t = 0⁻` value; a source stepping at `t = 0` therefore produces
    /// the paper's "rising edge of `V_flow`" experiment directly.
    ///
    /// # Errors
    ///
    /// Propagates singular-system and state-iteration failures from the
    /// per-step solves.
    pub fn run(&self) -> Result<WaveformSet, CircuitError> {
        let ckt = self.ckt;
        let st = MnaStructure::new(ckt);
        // One session at a rank budget of 0: every state change restamps
        // the devices that moved and replays the factor. Each step's
        // state iteration starts from the assignment the previous step
        // accepted.
        let mut session = FrozenDcSession::construct(ckt, None, LuOptions::default(), None, false)?
            .with_max_rank(0);

        // t = 0⁻ operating point.
        session.set_stamp(StampMode::Dc, true)?;
        let (_, mut states) = session.operating_point(0.0, None, mna::initial_states(ckt))?;

        let probe_nodes: Vec<NodeId> = match &self.opts.probes {
            Some(p) => p.clone(),
            None => (1..ckt.node_count()).map(NodeId).collect(),
        };
        let mut waves = WaveformSet::new(&probe_nodes, &self.opts.current_probes);
        let mut sample = Vec::with_capacity(waves.stride());

        let mut history = History {
            solution: session.values().to_vec(),
            cap_currents: vec![0.0; ckt.element_count()],
        };
        let mut record = |waves: &mut WaveformSet, t: f64, x: &[f64]| {
            sample.clear();
            sample.extend(
                probe_nodes
                    .iter()
                    .map(|n| n.unknown().map_or(0.0, |u| x[u])),
            );
            let currents = self.opts.current_probes.iter();
            sample.extend(currents.map(|&e| st.branch_unknown(e).map_or(0.0, |u| x[u])));
            waves.push_sample(t, &sample);
        };
        record(&mut waves, 0.0, &history.solution);

        let steps = self.opts.steps();
        let dt = self.opts.dt;
        for k in 1..=steps {
            let t = k as f64 * dt;
            // Bootstrap trapezoidal with one BE step.
            let mode = match self.opts.method {
                IntegrationMethod::BackwardEuler => StampMode::BackwardEuler { h: dt },
                IntegrationMethod::Trapezoidal if k == 1 => StampMode::BackwardEuler { h: dt },
                IntegrationMethod::Trapezoidal => StampMode::Trapezoidal { h: dt },
            };
            session.set_stamp(mode, false)?;
            (_, states) = session.operating_point(t, Some(&history), states)?;
            let x = session.values();

            // Update capacitor-current history (needed by trapezoidal).
            for (idx, e) in ckt.elements().iter().enumerate() {
                if let Element::Capacitor { a, b, capacitance } = e {
                    let v = |n: NodeId, vec: &[f64]| n.unknown().map_or(0.0, |u| vec[u]);
                    let vab_now = v(*a, x) - v(*b, x);
                    let vab_prev = v(*a, &history.solution) - v(*b, &history.solution);
                    history.cap_currents[idx] = match mode {
                        StampMode::BackwardEuler { h } => capacitance / h * (vab_now - vab_prev),
                        StampMode::Trapezoidal { h } => {
                            2.0 * capacitance / h * (vab_now - vab_prev) - history.cap_currents[idx]
                        }
                        StampMode::Dc => 0.0,
                    };
                }
            }
            history.solution.copy_from_slice(x);

            if k % self.opts.record_every == 0 || k == steps {
                record(&mut waves, t, &history.solution);
            }
        }
        Ok(waves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{DiodeModel, OpAmpModel};
    use crate::source::SourceValue;

    #[test]
    fn rc_step_response_time_constant() {
        // R = 1k, C = 1n → tau = 1 µs; v(tau) = 1 - 1/e ≈ 0.632.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.voltage_source(vin, Circuit::GROUND, SourceValue::step(0.0, 1.0, 0.0));
        ckt.resistor(vin, out, 1e3);
        ckt.capacitor(out, Circuit::GROUND, 1e-9);
        let opts = TransientOptions::to_time(5e-6).with_step(5e-9);
        let waves = TransientAnalysis::new(&ckt, opts).unwrap().run().unwrap();
        let w = waves.voltage(out).unwrap();
        let v_tau = w.value_at(1e-6);
        assert!((v_tau - 0.6321).abs() < 5e-3, "v(tau)={v_tau}");
        let exact_end = 1.0 - (-5.0_f64).exp();
        assert!((w.last_value() - exact_end).abs() < 1e-3);
    }

    #[test]
    fn trapezoidal_is_more_accurate_than_be() {
        let build = || {
            let mut ckt = Circuit::new();
            let vin = ckt.node("in");
            let out = ckt.node("out");
            ckt.voltage_source(vin, Circuit::GROUND, SourceValue::step(0.0, 1.0, 0.0));
            ckt.resistor(vin, out, 1e3);
            ckt.capacitor(out, Circuit::GROUND, 1e-9);
            (ckt, out)
        };
        let exact = 1.0 - (-1.0_f64).exp(); // v at t = tau

        let (ckt, out) = build();
        let be = TransientAnalysis::new(&ckt, TransientOptions::to_time(1e-6).with_step(2.5e-8))
            .unwrap()
            .run()
            .unwrap();
        let (ckt2, out2) = build();
        let tr = TransientAnalysis::new(
            &ckt2,
            TransientOptions::to_time(1e-6)
                .with_step(2.5e-8)
                .with_method(IntegrationMethod::Trapezoidal),
        )
        .unwrap()
        .run()
        .unwrap();
        let err_be = (be.voltage(out).unwrap().last_value() - exact).abs();
        let err_tr = (tr.voltage(out2).unwrap().last_value() - exact).abs();
        assert!(err_tr < err_be, "trap {err_tr} vs be {err_be}");
    }

    #[test]
    fn opamp_follower_settles_with_gbw_time_constant() {
        // Unity-gain follower driven by a step: closed-loop pole ≈ 2π·GBW.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.voltage_source(vin, Circuit::GROUND, SourceValue::step(0.0, 1.0, 0.0));
        ckt.opamp(vin, out, out, OpAmpModel::with_gbw(10e9));
        ckt.resistor(out, Circuit::GROUND, 1e4);
        // Closed-loop tau ≈ 1/(2π·10G) ≈ 15.9 ps.
        let opts = TransientOptions::to_time(200e-12).with_step(0.5e-12);
        let waves = TransientAnalysis::new(&ckt, opts).unwrap().run().unwrap();
        let w = waves.voltage(out).unwrap();
        let v_tau = w.value_at(15.9e-12);
        assert!((v_tau - 0.632).abs() < 0.05, "v(tau)={v_tau}");
        assert!((w.last_value() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn faster_gbw_settles_faster() {
        let run = |gbw: f64| {
            let mut ckt = Circuit::new();
            let vin = ckt.node("in");
            let out = ckt.node("out");
            ckt.voltage_source(vin, Circuit::GROUND, SourceValue::step(0.0, 1.0, 0.0));
            ckt.opamp(vin, out, out, OpAmpModel::with_gbw(gbw));
            ckt.resistor(out, Circuit::GROUND, 1e4);
            let opts = TransientOptions::to_time(500e-12).with_step(1e-12);
            let waves = TransientAnalysis::new(&ckt, opts).unwrap().run().unwrap();
            waves.voltage(out).unwrap().settle_time(0.001).unwrap()
        };
        let t10 = run(10e9);
        let t50 = run(50e9);
        assert!(
            t50 < t10 / 3.0,
            "50 GHz ({t50}) should settle ~5x faster than 10 GHz ({t10})"
        );
    }

    #[test]
    fn diode_clamp_transient() {
        // Ramp into a clamp: node follows the ramp, then clamps at 1 V.
        let mut ckt = Circuit::new();
        let drive = ckt.node("drive");
        let x = ckt.node("x");
        let clamp = ckt.node("clamp");
        ckt.voltage_source(
            drive,
            Circuit::GROUND,
            SourceValue::ramp(0.0, 0.0, 1e-6, 3.0),
        );
        ckt.resistor(drive, x, 1e3);
        ckt.voltage_source(clamp, Circuit::GROUND, SourceValue::dc(1.0));
        ckt.diode(x, clamp, DiodeModel::ideal());
        let opts = TransientOptions::to_time(1e-6).with_step(2e-9);
        let waves = TransientAnalysis::new(&ckt, opts).unwrap().run().unwrap();
        let w = waves.voltage(x).unwrap();
        // Before the clamp engages (t = 0.2 µs → drive 0.6 V): follows drive.
        assert!((w.value_at(0.2e-6) - 0.6).abs() < 0.01);
        // At the end (drive 3 V): clamped to ~1 V.
        assert!((w.last_value() - 1.0).abs() < 0.01);
    }

    #[test]
    fn current_probe_records_source_current() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let v = ckt.voltage_source(a, Circuit::GROUND, SourceValue::dc(2.0));
        ckt.resistor(a, Circuit::GROUND, 1e3);
        ckt.capacitor(a, Circuit::GROUND, 1e-12);
        let opts = TransientOptions::to_time(1e-9)
            .with_step(1e-11)
            .probe_current(v);
        let waves = TransientAnalysis::new(&ckt, opts).unwrap().run().unwrap();
        let i = waves.source_current_values(v).unwrap();
        assert!((i.last().unwrap() - 2e-3).abs() < 1e-6);
    }

    #[test]
    fn invalid_options_rejected() {
        let ckt = Circuit::new();
        assert!(TransientAnalysis::new(&ckt, TransientOptions::to_time(0.0)).is_err());
        let bad_dt = TransientOptions {
            dt: -1.0,
            ..TransientOptions::to_time(1.0)
        };
        assert!(TransientAnalysis::new(&ckt, bad_dt).is_err());
        let dt_too_big = TransientOptions::to_time(1.0).with_step(2.0);
        assert!(TransientAnalysis::new(&ckt, dt_too_big).is_err());
    }

    #[test]
    fn decimation_reduces_samples() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.voltage_source(a, Circuit::GROUND, SourceValue::dc(1.0));
        ckt.resistor(a, Circuit::GROUND, 1.0);
        let opts = TransientOptions::to_time(1e-6).with_step(1e-8).decimate(10);
        let waves = TransientAnalysis::new(&ckt, opts).unwrap().run().unwrap();
        // 100 steps / 10 + initial sample = 11.
        assert_eq!(waves.len(), 11);
    }
}
