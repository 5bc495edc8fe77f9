//! `ohmflow` — a reproduction of *"A Reconfigurable Analog Substrate for
//! Highly Efficient Maximum Flow Computation"* (Gai Liu & Zhiru Zhang,
//! DAC 2015, extended report).
//!
//! The paper maps max-flow instances onto an analog circuit whose
//! steady-state node voltages *are* the optimal flow assignment: diode
//! clamps enforce edge capacities (§2.1), negative-resistor star networks
//! enforce flow conservation by KCL (§2.2), and a drive source `V_flow`
//! pushes the flow value to its maximum (§2.3). A memristor crossbar makes
//! the substrate reconfigurable (§3).
//!
//! This crate is the top of the workspace:
//!
//! * [`params`] — Table 1 design parameters,
//! * [`quantize`] — §4.1 voltage-level quantization,
//! * [`builder`] — direct-mapped graph → circuit construction (§2),
//! * [`solver`] — one solver type built from one options type:
//!   [`SolveOptions`] → [`MaxFlowSolver`] → [`Plan`] (topology-keyed
//!   symbolic work, cached) → [`Instance`] (value-only re-instantiation)
//!   → solve; `solve` and `solve_many` take that path for every graph,
//!   and [`DeltaSession`] absorbs streaming graph edits,
//! * [`template`] — topology-keyed [`SubstrateTemplate`]s: the cold path
//!   (build, MNA structure, ordering, symbolic LU) amortized across every
//!   same-topology solve, with value-only instantiation,
//! * [`crossbar`] — the reconfigurable memristor crossbar with the §3.1
//!   row-by-row programming protocol,
//! * [`nonideal`] — §4.2/§4.3 non-ideality injection (finite op-amp gain,
//!   resistor tolerance vs. matched-ratio tolerance, parasitic series
//!   resistance),
//! * [`tuning`] — §4.3.2 post-fabrication memristance tuning,
//! * [`power`] — §5.2 analytical power/energy model,
//! * [`mincut`] — §6.3 dual (min-cut) formulation,
//! * [`decompose`] — §6.4 dual decomposition for large graphs,
//! * [`clustered`] — §6.2 clustered island-style architectures,
//! * [`dynamics`] — §6.5 quasi-static trajectory studies.
//!
//! # Quickstart
//!
//! ```
//! use ohmflow::{MaxFlowSolver, SolveOptions};
//! use ohmflow_graph::generators::fig5a;
//!
//! # fn main() -> Result<(), ohmflow::AnalogError> {
//! let g = fig5a();
//! let solver = MaxFlowSolver::new(SolveOptions::ideal());
//! // Stage it explicitly (plan → instance → solve) …
//! let solution = solver.plan(&g)?.instance(&g)?.solve()?;
//! assert!((solution.value - 2.0).abs() < 0.05); // exact max flow is 2
//! // … or let `solve` ride the plan cache in one call.
//! let again = solver.solve(&g)?;
//! assert!((again.value - solution.value).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod clustered;
pub mod crossbar;
pub mod decompose;
pub mod dynamics;
mod error;
pub mod mincut;
pub mod nonideal;
pub mod params;
pub mod power;
pub mod quantize;
pub mod solver;
pub mod template;
pub mod tuning;

pub use error::AnalogError;
pub use params::SubstrateParams;
pub use solver::{
    AnalogSolution, DeltaBatch, DeltaReport, DeltaSession, GraphDelta, Instance, MaxFlowSolver,
    Plan, PlanCacheStats, PlanReport, Problem, SolveMode, SolveOptions,
};
pub use template::{SubstrateTemplate, TemplateKey};
