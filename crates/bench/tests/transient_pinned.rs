//! Pins the relaxation transient bit for bit: the flow value, the
//! convergence time, the edge flows and every recorded waveform sample of
//! four fixed instances solved under `SolveOptions::evaluation(10e9)` —
//! the Fig. 5a example and the rmat128, rmat256 and 10×10 grid topologies
//! of the `transient` benchmark workload, with their generated capacities.
//!
//! Speed work on the solve path (factor layout, solve kernels, waveform
//! storage) must leave every one of these bits alone. A change that moves
//! the answers on purpose re-records the hashes and says why.

use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow_bench::fig10_instance;
use ohmflow_graph::{generators, FlowNetwork};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

/// The hash of one transient solve of `g`: value, convergence time and
/// edge flows, then every sample of each edge-node column (edge order) and
/// of the `V_flow` branch current.
fn transient_hash(g: &FlowNetwork) -> u64 {
    let solver = MaxFlowSolver::new(SolveOptions::evaluation(10e9));
    let instance = solver.plan(g).and_then(|p| p.instance(g)).expect("plan");
    let sol = instance.solve().expect("transient solve");
    let sc = instance.substrate();
    let waves = sol.waveforms.as_ref().expect("transient records waveforms");

    let mut h = Fnv::new();
    h.f64(sol.value);
    h.word(sol.convergence_time.map_or(u64::MAX, f64::to_bits));
    h.word(sol.edge_flows.len() as u64);
    for &f in &sol.edge_flows {
        h.f64(f);
    }
    h.word(waves.len() as u64);
    for &t in waves.times() {
        h.f64(t);
    }
    let columns = sc
        .edge_nodes()
        .iter()
        .map(|&n| waves.voltage(n))
        .chain([waves.branch_current(sc.vflow_source())]);
    for column in columns {
        let w = column.expect("every edge node and V_flow is probed");
        for (t, v) in w.iter() {
            h.f64(t);
            h.f64(v);
        }
    }
    h.0
}

#[test]
fn relaxation_transient_is_pinned_bitwise() {
    let grid = generators::grid(10, 10, 100, 2).expect("grid");
    let cases = [
        ("fig5a", generators::fig5a(), 0x3a23_1958_c655_73e8_u64),
        (
            "rmat128",
            fig10_instance(128, false, 2),
            0x43ca_6ec3_507e_6715,
        ),
        (
            "rmat256",
            fig10_instance(256, false, 2),
            0xc201_f984_75a1_d909,
        ),
        ("grid10", grid, 0x19b9_e3bb_2f53_3f3c),
    ];
    let mut failures = Vec::new();
    for (name, g, want) in &cases {
        let got = transient_hash(g);
        println!("{name}: {got:#018x}");
        if got != *want {
            failures.push(format!("{name}: {got:#018x} != pinned {want:#018x}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("; "));
}
