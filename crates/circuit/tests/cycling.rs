//! A complementarity cycle: two diodes whose simultaneous flips ping-pong
//! between two inconsistent assignments. Both state-iteration entry points
//! (the cold `DcSolver::solve` and `FrozenDcSession::solve_operating_point`)
//! must break it at the first repeat.

use ohmflow_circuit::mna::DeviceState;
use ohmflow_circuit::{Circuit, DcSolver, DiodeModel, ElementId, SourceValue};

/// Two diodes that ping-pong under simultaneous flips. `a` is held at
/// 2 V, `d1` clamps `c` to ground, `d2` clamps `b` to `a`, and a VCVS
/// drives `b` through 1 kΩ with `2·(v_b − v_c)`. Both off: `v_c ≈
/// −0.77`, `v_b ≈ −3.8`, so both want on. Both on: both currents are
/// negative, so both want off. The only consistent assignment is `d1`
/// off, `d2` on (`v_c ≈ 1.67`, `i_d2 ≈ 1.9 mA`).
fn ping_pong_pair() -> (Circuit, ElementId, ElementId) {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    let c = ckt.node("c");
    let m = ckt.node("m");
    ckt.voltage_source(a, Circuit::GROUND, SourceValue::dc(2.0));
    ckt.resistor(b, Circuit::GROUND, 5e3);
    ckt.resistor(c, Circuit::GROUND, 5e3);
    ckt.resistor(b, c, 2e3);
    ckt.resistor(a, c, 2e3);
    let d1 = ckt.diode(Circuit::GROUND, c, DiodeModel::ideal());
    let d2 = ckt.diode(a, b, DiodeModel::ideal());
    ckt.vcvs(m, Circuit::GROUND, c, b, -2.0);
    ckt.resistor(m, b, 1e3);
    (ckt, d1, d2)
}

#[test]
fn simultaneous_flip_cycle_breaks_at_first_repeat() {
    // Off/off -> on/on -> off/off repeats at iteration 2; the single
    // most-violated flip (d2) then lands on the fixed point. Without
    // repeat detection the cycle ran to half the budget (107 solves).
    let (ckt, d1, d2) = ping_pong_pair();
    let (sol, report) = DcSolver::new().solve(&ckt).unwrap();
    assert_eq!(report.cycle_break, Some(2));
    assert!(report.iterations < 50, "{} iterations", report.iterations);
    let states = sol.device_states();
    assert_eq!(states[d1.index()], DeviceState::Off);
    assert_eq!(states[d2.index()], DeviceState::On);
    assert!((sol.voltage(ckt.find_node("c").unwrap()) - 5.0 / 3.0).abs() < 1e-3);

    let mut session = DcSolver::new().session(&ckt).unwrap();
    let iterations = session.solve_operating_point(0.0).unwrap();
    assert!(iterations < 50, "{iterations} session iterations");
    assert_eq!(session.report().cycle_break, Some(2));
    assert_eq!(session.solution().device_states(), states);
}
