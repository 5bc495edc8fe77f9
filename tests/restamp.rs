//! The in-place restamp of the complementarity iteration against the full
//! stamp, over builder substrates: for any diode assignment it must
//! reproduce `stamp_matrix(..).to_csc()` bit for bit, and a changed stamp
//! pattern (a structurally different circuit) must fall back to the full
//! stamp. The stamped matrix of a diode-only substrate is exactly
//! symmetric.

use proptest::prelude::*;

use ohmflow::builder;
use ohmflow::SolveOptions;
use ohmflow_circuit::mna::{self, DeviceState, MnaStructure, StampedMatrix};
use ohmflow_circuit::{Circuit, Element};
use ohmflow_graph::rmat::RmatConfig;
use ohmflow_linalg::{CscMatrix, TripletMatrix};

/// The ideal and the evaluation substrate of one small rmat graph.
fn substrates(seed: u64) -> Vec<Circuit> {
    let g = RmatConfig::sparse(12, seed).generate().unwrap();
    [SolveOptions::ideal(), SolveOptions::evaluation(10e9)]
        .iter()
        .map(|opts| {
            builder::build(&g, &opts.params, &opts.build)
                .unwrap()
                .circuit()
                .clone()
        })
        .collect()
}

/// `ckt` plus one resistor from `vflow` to the last element's node (the
/// same unknowns, a different stamp pattern) or, with `new_node`, to a
/// node of its own (one more unknown).
fn with_extra_resistor(ckt: &Circuit, new_node: bool) -> Circuit {
    let mut wider = ckt.clone();
    let vflow = wider.find_node("vflow").unwrap();
    let far = if new_node {
        wider.anon_node()
    } else {
        wider.elements().last().unwrap().terminals().0
    };
    wider.resistor(vflow, far, 7e3);
    wider
}

/// A random assignment: diodes on/off.
fn random_states(ckt: &Circuit, seed: u64) -> Vec<DeviceState> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x & 1
    };
    ckt.elements()
        .iter()
        .map(|e| match e {
            Element::Diode { .. } if next() == 0 => DeviceState::On,
            Element::Diode { .. } => DeviceState::Off,
            _ => DeviceState::Stateless,
        })
        .collect()
}

fn full(ckt: &Circuit, states: &[DeviceState]) -> CscMatrix {
    mna::stamp_matrix(ckt, &MnaStructure::new(ckt), states).to_csc()
}

fn transpose(a: &CscMatrix) -> CscMatrix {
    let mut t = TripletMatrix::with_capacity(a.cols(), a.rows(), a.nnz());
    for c in 0..a.cols() {
        for (r, v) in a.col(c) {
            t.push(c, r, v);
        }
    }
    t.to_csc()
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
            for states in [&a, &b] {
                let m = full(&ckt, states);
                assert_bitwise_eq(&m, &transpose(&m));
            }
            // The first restamp has no map yet: it stamps in full and maps.
            let mut m = StampedMatrix::new(&ckt, &st, &a);
            prop_assert!(!m.restamp(&ckt, &st, &a));
            // Then every diode assignment rewrites in place.
            for states in [&b, &a, &a] {
                prop_assert!(m.restamp(&ckt, &st, states));
                assert_bitwise_eq(m.matrix(), &full(&ckt, states));
            }
            // A structurally different circuit falls back to the full
            // stamp and maps its pattern; returning does the same.
            for new_node in [false, true] {
                let wider = with_extra_resistor(&ckt, new_node);
                let wider_st = MnaStructure::new(&wider);
                let widen = |s: &[DeviceState]| [s, &[DeviceState::Stateless]].concat();
                let (wa, wb) = (widen(&a), widen(&b));
                prop_assert!(!m.restamp(&wider, &wider_st, &wb));
                assert_bitwise_eq(m.matrix(), &full(&wider, &wb));
                prop_assert!(m.restamp(&wider, &wider_st, &wa));
                assert_bitwise_eq(m.matrix(), &full(&wider, &wa));
                prop_assert!(!m.restamp(&ckt, &st, &a));
                assert_bitwise_eq(m.matrix(), &full(&ckt, &a));
            }
        }
    }
}
