//! An analog circuit simulator purpose-built for the `ohmflow` reproduction
//! of *"A Reconfigurable Analog Substrate for Highly Efficient Maximum Flow
//! Computation"* (Liu & Zhang, DAC 2015).
//!
//! The paper evaluates its substrate in SPICE; this crate is the SPICE
//! substitute. It provides:
//!
//! * a [`Circuit`] netlist builder with the device set the substrate needs —
//!   resistors (positive **and negative**), capacitors, independent sources,
//!   VCVS, piecewise-linear diodes, single-pole op-amp macromodels, and
//!   behavioural memristors ([`MemristorModel`]) with threshold programming,
//! * modified nodal analysis assembly ([`mna`]),
//! * staged DC solving through one [`DcSolver`] — plan the cold path once
//!   per circuit structure (a [`DcTemplate`] it carries), then operating-point
//!   solves with diode/op-amp state (complementarity) iteration, all run
//!   by one frozen-state engine ([`FrozenDcSession`]) that pays only
//!   numeric work,
//! * transient analysis with backward-Euler and trapezoidal integration on
//!   that engine, reusing the factorization across time steps
//!   ([`TransientAnalysis`]) — the integrator is hand-written because no
//!   suitable ODE crate is available,
//! * waveform recording and settle-time detection ([`Waveform`],
//!   [`WaveformSet`]).
//!
//! # Example: an RC step response
//!
//! ```
//! use ohmflow_circuit::{Circuit, SourceValue, TransientAnalysis, TransientOptions};
//!
//! # fn main() -> Result<(), ohmflow_circuit::CircuitError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! ckt.voltage_source(vin, Circuit::GROUND, SourceValue::step(0.0, 1.0, 0.0));
//! ckt.resistor(vin, vout, 1e3);
//! ckt.capacitor(vout, Circuit::GROUND, 1e-9);
//! let opts = TransientOptions::to_time(5e-6).with_step(1e-8);
//! let waves = TransientAnalysis::new(&ckt, opts)?.run()?;
//! let final_v = waves.voltage(vout).expect("probed").last_value();
//! assert!((final_v - 1.0).abs() < 1e-2);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod circuit;
mod dc;
mod element;
mod error;
mod ids;
pub mod mna;
mod source;
mod transient;
mod waveform;

pub use circuit::Circuit;
pub use dc::{
    DcSolution, DcSolver, DcTemplate, FrozenDcPhases, FrozenDcSession, FrozenDcStats, PlanPhases,
    SolveReport,
};
pub use element::{DiodeModel, Element, MemristorModel, MemristorState, OpAmpModel};
pub use error::CircuitError;
pub use ids::{ElementId, NodeId};
pub use mna::DeviceState;
pub use ohmflow_linalg::SparseLuOptions as LuOptions;
pub use source::SourceValue;
pub use transient::{IntegrationMethod, TransientAnalysis, TransientOptions};
pub use waveform::{Waveform, WaveformSet};
