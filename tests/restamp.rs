//! The in-place restamp of the complementarity iteration against the full
//! stamp, over builder substrates: for any diode and op-amp assignment it
//! must reproduce `stamp_matrix(..).to_csc()` bit for bit, and a changed
//! stamp pattern (op-amp rail moves) must fall back to the full stamp.

use proptest::prelude::*;

use ohmflow::builder::{self, BuildOptions, NegativeResistorImpl};
use ohmflow::SolveOptions;
use ohmflow_circuit::mna::{self, DeviceState, MnaStructure, StampedMatrix};
use ohmflow_circuit::{Circuit, Element};
use ohmflow_graph::rmat::RmatConfig;
use ohmflow_linalg::CscMatrix;

/// The ideal substrate and the op-amp NIC evaluation substrate of one
/// small rmat graph.
fn substrates(seed: u64) -> Vec<Circuit> {
    let g = RmatConfig::sparse(12, seed).generate().unwrap();
    let ideal = SolveOptions::ideal();
    let eval = SolveOptions::evaluation(10e9);
    let opamp = BuildOptions {
        negative_resistor: NegativeResistorImpl::OpAmp,
        ..eval.build
    };
    let with_opamps = builder::build(&g, &eval.params, &opamp)
        .unwrap()
        .circuit()
        .clone();
    assert!(with_opamps
        .elements()
        .iter()
        .any(|e| matches!(e, Element::OpAmp { .. })));
    vec![
        builder::build(&g, &ideal.params, &ideal.build)
            .unwrap()
            .circuit()
            .clone(),
        with_opamps,
    ]
}

/// A random assignment: diodes on/off, op-amps linear/high/low.
fn random_states(ckt: &Circuit, seed: u64) -> Vec<DeviceState> {
    let mut x = seed | 1;
    let mut next = move |k: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % k
    };
    ckt.elements()
        .iter()
        .map(|e| match e {
            Element::Diode { .. } if next(2) == 0 => DeviceState::On,
            Element::Diode { .. } => DeviceState::Off,
            Element::OpAmp { .. } => [
                DeviceState::Linear,
                DeviceState::SatHigh,
                DeviceState::SatLow,
            ][next(3) as usize],
            _ => DeviceState::Stateless,
        })
        .collect()
}

/// Whether each op-amp is saturated: the only state that moves the
/// stamp pattern.
fn rails(states: &[DeviceState]) -> Vec<bool> {
    states
        .iter()
        .map(|s| matches!(s, DeviceState::SatHigh | DeviceState::SatLow))
        .collect()
}

fn assert_bitwise_eq(a: &CscMatrix, b: &CscMatrix) {
    assert_eq!(a.col_ptr(), b.col_ptr());
    assert_eq!(a.row_idx(), b.row_idx());
    let bits = |m: &CscMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(b));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn restamp_matches_full_stamp(graph in 0u64..64, s0 in any::<u64>(), s1 in any::<u64>()) {
        for ckt in substrates(graph) {
            let st = MnaStructure::new(&ckt);
            let (a, b) = (random_states(&ckt, s0), random_states(&ckt, s1));
            // The first restamp has no map yet: it stamps in full and maps.
            let mut m = StampedMatrix::new(&ckt, &st, &a);
            prop_assert!(!m.restamp(&ckt, &st, &a));
            // Then it rewrites in place exactly while the pattern holds.
            let mut prev = &a;
            for states in [&b, &a, &a] {
                let same_pattern = rails(states) == rails(prev);
                prop_assert_eq!(m.restamp(&ckt, &st, states), same_pattern);
                let full = mna::stamp_matrix(&ckt, &st, states).to_csc();
                assert_bitwise_eq(m.matrix(), &full);
                prev = states;
            }
        }
    }
}
