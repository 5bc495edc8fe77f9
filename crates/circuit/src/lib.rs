//! An analog circuit simulator purpose-built for the `ohmflow` reproduction
//! of *"A Reconfigurable Analog Substrate for Highly Efficient Maximum Flow
//! Computation"* (Liu & Zhang, DAC 2015).
//!
//! The paper evaluates its substrate in SPICE; this crate is the SPICE
//! substitute. It provides:
//!
//! * a [`Circuit`] netlist builder with the device set the substrate needs —
//!   resistors (positive **and negative**), independent voltage sources,
//!   VCVS and piecewise-linear diodes, the single-pole op-amp parameters
//!   ([`OpAmpModel`]) that set the relaxation transient's lag, plus the
//!   behavioural memristor model ([`MemristorModel`]) whose
//!   states the core crate's crossbar programs,
//! * modified nodal analysis assembly ([`mna`]),
//! * staged DC solving through one [`DcSolver`] — plan the cold path once
//!   per circuit structure (a [`DcTemplate`] it carries), then operating-point
//!   solves with diode state (complementarity) iteration, all run
//!   by one frozen-state engine ([`FrozenDcSession`]) that pays only
//!   numeric work,
//! * waveform recording and settle-time detection ([`Waveform`],
//!   [`WaveformSet`]) for the relaxation transient the `ohmflow` core
//!   crate runs as a sequence of frozen-state DC solves.
//!
//! The substrate is a piecewise-linear resistive network, and its DC
//! operating point is the object of study; its dynamics are modelled one
//! level up, so this crate has no time integrator.
//!
//! # Example: a diode clamp
//!
//! ```
//! use ohmflow_circuit::{Circuit, DcSolver, DiodeModel, SourceValue};
//!
//! # fn main() -> Result<(), ohmflow_circuit::CircuitError> {
//! // 3 V through 1 kΩ into a node clamped by a diode to a 1 V level.
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let x = ckt.node("x");
//! let level = ckt.node("level");
//! ckt.voltage_source(vin, Circuit::GROUND, SourceValue::dc(3.0));
//! ckt.resistor(vin, x, 1e3);
//! ckt.voltage_source(level, Circuit::GROUND, SourceValue::dc(1.0));
//! ckt.diode(x, level, DiodeModel::ideal());
//! let (sol, _) = DcSolver::new().solve(&ckt)?;
//! assert!((sol.voltage(x) - 1.0).abs() < 1e-3);
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
pub use waveform::{Waveform, WaveformSet};
