//! Topology-keyed substrate templates: amortizing the cold path across
//! same-graph solves.
//!
//! The paper's evaluation workloads — the Fig. 10 quantization/`N` sweeps,
//! the §4.3 variation-seed ablations, the §4.3.2 tuning iterations — solve
//! the **same graph topology** dozens to thousands of times with only
//! capacity or source *values* changed. Every solve used to repay the full
//! topology-dependent cold path: substrate construction, MNA structure
//! derivation, fill-reducing ordering and symbolic factorization.
//!
//! A [`SubstrateTemplate`] runs that cold path **once** per topology and
//! splits every later solve into a cheap value-only *instantiation*:
//!
//! * the circuit skeleton is built with one capacity-level source **per
//!   edge** (the `PerEdge` level layout) so the netlist *structure* is a
//!   pure function of the graph topology — any capacity assignment is a
//!   [`set_source_value`](ohmflow_circuit::Circuit::set_source_value)
//!   restamp away,
//! * the MNA structure, base-matrix sparsity and the symbolic + one
//!   numeric LU live in a shared [`DcTemplate`]; instances carry it by
//!   [`Arc`], and batch workers derive per-thread numeric factors from the
//!   shared symbolic plan. Those numeric refactorizations run under the
//!   linalg crate's `Auto` strategy: a single large instantiation replays
//!   its elimination levels across rayon workers, while instantiations
//!   issued *from inside* a batch worker stay serial (the batch already
//!   owns the cores — the nested-worker guard prevents oversubscription),
//! * the converged device states of previous solves are cached as a
//!   warm-start hint, which collapses the clamp-engagement cascade on
//!   sweep-shaped workloads (warm starts that fail to converge retry cold,
//!   so solvability is unchanged).
//!
//! [`MaxFlowSolver`](crate::MaxFlowSolver) keeps a topology-keyed
//! cache of these templates and routes same-topology batches through them;
//! see `DESIGN.md` for the invalidation rules.

use std::sync::{Arc, Mutex};

use ohmflow_circuit::mna::DeviceState;
use ohmflow_circuit::{DcSolver, DcTemplate, SourceValue};
use ohmflow_graph::FlowNetwork;

use crate::builder::{
    build_with_layout, BuildOptions, CapacityMapping, LevelLayout, SubstrateCircuit,
};
use crate::params::SubstrateParams;
use crate::quantize::{ExactScaling, Quantizer};
use crate::AnalogError;

/// Seeded streaming hasher for topology and value fingerprints: an
/// FxHash-style multiply–rotate mixer over `u64` words with a
/// splitmix64-style finalizer. One inlined `mix` per word replaces the
/// per-edge `Hash`-trait dispatch into SipHash that used to dominate the
/// plan-cache hit path (BENCH_PR5.json, `plan_cache_hit`); the bulk edge
/// loop in [`TemplateKey::fingerprint`] additionally interleaves the mix
/// across four independent lanes (folded back into this state at the
/// end), because a single mixer chain is latency-bound at ~5 cycles per
/// edge while the multiplier unit could retire one mix per cycle. Not
/// collision-resistant against adversaries — every cache probe that
/// matches on the fingerprint is verified against the full
/// [`TemplateKey`], so collisions cost a failed comparison, never a wrong
/// plan.
#[derive(Debug, Clone)]
pub(crate) struct StreamHasher(u64);

impl StreamHasher {
    /// Fixed seed: fingerprints are only ever compared within one
    /// process, but seeding keeps short inputs away from the weak
    /// low-entropy states of the bare mixer.
    const SEED: u64 = 0x51ab_7e1e_0a5c_93d5;
    const MULT: u64 = 0x9e37_79b9_7f4a_7c15;

    pub(crate) fn new() -> Self {
        StreamHasher(Self::SEED)
    }

    /// Folds one word into the state.
    #[inline(always)]
    pub(crate) fn mix(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(23) ^ x).wrapping_mul(Self::MULT);
    }

    /// The finalized fingerprint (splitmix64 finalizer: every input bit
    /// reaches every output bit, so shard selection can use the high bits
    /// while the probe table uses the value whole).
    pub(crate) fn finish(&self) -> u64 {
        let mut z = self.0;
        z ^= z >> 30;
        z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One edge packed as `(from << 32) | to`: the word the fingerprint mixes
/// and the stored-key verify path compares. Vertex ids fit u32 by far —
/// [`FlowNetwork`] construction bounds them by the vertex count.
#[inline(always)]
fn pack_edge(e: &ohmflow_graph::Edge) -> u64 {
    ((e.from as u64) << 32) | e.to as u64
}

/// Structural identity of a max-flow instance: everything the substrate's
/// netlist *structure* depends on, and nothing it does not (capacities and
/// source values are excluded). Two graphs with equal keys can share one
/// [`SubstrateTemplate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateKey {
    /// Fingerprint of the fields below, computed once at construction.
    /// First field on purpose: the derived `PartialEq` compares it before
    /// the edge list, so cache probes against a *different* topology
    /// reject on one `u64` instead of walking the edges, and `Hash`
    /// (manual, below) writes only this — plan-cache hits stop re-hashing
    /// the whole edge list on every lookup.
    hash: u64,
    vertices: usize,
    source: usize,
    sink: usize,
    /// Edge list in id order, each edge packed as `(from << 32) | to` —
    /// parallel edges are distinct widgets, so the full list (not a set)
    /// is the identity. Packed so the verify path behind every
    /// fingerprint-probed cache hit is a straight `u64` word compare.
    edges: Vec<u64>,
}

impl TemplateKey {
    /// The key of `g`'s topology.
    pub fn new(g: &FlowNetwork) -> Self {
        let edges: Vec<u64> = g.edges().iter().map(pack_edge).collect();
        TemplateKey {
            hash: Self::fingerprint(g),
            vertices: g.vertex_count(),
            source: g.source(),
            sink: g.sink(),
            edges,
        }
    }

    /// The topology fingerprint of `g`, computed in **one streaming
    /// pass** over the graph: no intermediate edge `Vec`, no per-edge
    /// `Hash` dispatch — one multiply–rotate mix per edge (see
    /// `StreamHasher`). Equal to the cached hash of [`TemplateKey::new`]
    /// on the same inputs by construction, so a cache can probe on the
    /// fingerprint alone and fall back to the full key only on a match.
    ///
    /// Collisions between *different* topologies are possible (64-bit
    /// hash) and harmless: every consumer verifies a fingerprint match
    /// against the stored [`TemplateKey`] before serving a plan.
    pub fn fingerprint(g: &FlowNetwork) -> u64 {
        let mut h = StreamHasher::new();
        h.mix(g.vertex_count() as u64);
        h.mix(g.source() as u64);
        h.mix(g.sink() as u64);
        // Bulk edge loop: four interleaved mixer lanes (distinctly seeded,
        // position still matters — edge i always lands in lane i % 4), so
        // the serial rotate–xor–multiply dependency chain runs four-wide.
        let edges = g.edges();
        let mut lanes = [
            StreamHasher::SEED ^ 0x243f_6a88_85a3_08d3,
            StreamHasher::SEED ^ 0x1319_8a2e_0370_7344,
            StreamHasher::SEED ^ 0xa409_3822_299f_31d0,
            StreamHasher::SEED ^ 0x082e_fa98_ec4e_6c89,
        ];
        let mut chunks = edges.chunks_exact(4);
        for c in chunks.by_ref() {
            for (k, e) in c.iter().enumerate() {
                lanes[k] =
                    (lanes[k].rotate_left(23) ^ pack_edge(e)).wrapping_mul(StreamHasher::MULT);
            }
        }
        for (k, e) in chunks.remainder().iter().enumerate() {
            lanes[k] = (lanes[k].rotate_left(23) ^ pack_edge(e)).wrapping_mul(StreamHasher::MULT);
        }
        h.mix(edges.len() as u64);
        for lane in lanes {
            h.mix(lane);
        }
        h.finish()
    }

    /// The cached fingerprint (what [`TemplateKey::fingerprint`] returns
    /// for the key's own inputs).
    pub fn fingerprint_value(&self) -> u64 {
        self.hash
    }

    /// Number of edges in the keyed topology.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The keyed topology for the structural audits: vertex count, source,
    /// sink, and the id-ordered packed edge list (`(from << 32) | to`).
    pub(crate) fn topology(&self) -> (usize, usize, usize, &[u64]) {
        (self.vertices, self.source, self.sink, &self.edges)
    }

    /// Allocation-free check that `g` has exactly this key's topology:
    /// vertex count, source, sink and the full id-ordered edge list. This
    /// is the verification step behind every fingerprint-probed cache hit
    /// — it rules out fingerprint collisions between topologies, walks
    /// `g`'s edges once against the stored list and never hashes or
    /// allocates.
    pub fn verifies(&self, g: &FlowNetwork) -> bool {
        if self.vertices != g.vertex_count()
            || self.source != g.source()
            || self.sink != g.sink()
            || self.edges.len() != g.edge_count()
        {
            return false;
        }
        // Word-compare the packed edge lists four at a time: one branch
        // per chunk instead of one per edge.
        let live = g.edges();
        let mut stored = self.edges.chunks_exact(4);
        let mut fresh = live.chunks_exact(4);
        for (s, l) in stored.by_ref().zip(fresh.by_ref()) {
            let mut same = true;
            for (w, e) in s.iter().zip(l) {
                same &= *w == pack_edge(e);
            }
            if !same {
                return false;
            }
        }
        stored
            .remainder()
            .iter()
            .zip(fresh.remainder())
            .all(|(w, e)| *w == pack_edge(e))
    }
}

/// Hashes only the cached fingerprint: the expensive edge-list traversal
/// happened once in [`TemplateKey::new`]. Consistent with the
/// derived `PartialEq` — equal keys have equal cached hashes because the
/// fingerprint is a pure function of the compared fields.
impl std::hash::Hash for TemplateKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A reusable substrate for one graph topology: circuit skeleton, shared
/// cold-path artifacts and warm-start state. See the module docs.
#[derive(Debug)]
pub struct SubstrateTemplate {
    key: TemplateKey,
    params: SubstrateParams,
    opts: BuildOptions,
    /// Skeleton with per-edge level sources; instances are value-restamped
    /// clones of it.
    skeleton: SubstrateCircuit,
    /// Per-edge level-source ids (`None` for grounded circulation edges).
    level_sources: Vec<Option<ohmflow_circuit::ElementId>>,
    /// Shared MNA structure + base sparsity + symbolic/numeric LU.
    dc: Arc<DcTemplate>,
    /// Converged device states of the most recent solve, keyed by a
    /// fingerprint of the instance *values* (clamp voltages + drive). A
    /// warm start is only sound when the instance is value-identical: the
    /// complementarity fixed point reached from the all-off start is the
    /// physical one, and warm-starting a *different* value assignment can
    /// converge to a different (spurious) equilibrium — so the hint is
    /// never applied across value changes.
    warm: Mutex<Option<(u64, Vec<DeviceState>)>>,
}

/// Fingerprint of everything the warm-start fixed point depends on beyond
/// topology: the values actually stamped into the quasi-static solve — the
/// DC value of every independent source (capacity levels, the drive, and
/// any source a caller restamped through `circuit_mut`) and every
/// resistive element value (so a variation-perturbed instance never
/// inherits an unperturbed instance's clamp states). Pure readout scales
/// (`volts_per_flow`) are deliberately excluded — capacity vectors that map
/// to the same voltages share their fixed point.
pub(crate) fn value_fingerprint(sc: &SubstrateCircuit) -> u64 {
    use ohmflow_circuit::Element;
    // Same seeded streaming hasher as the topology fingerprint (one mix
    // per value instead of an unseeded SipHash construction per call) —
    // the warm-start lookup rides the same machinery as the plan cache.
    let mut h = StreamHasher::new();
    for e in sc.circuit().elements() {
        match e {
            Element::VoltageSource { value, .. } | Element::CurrentSource { value, .. } => {
                h.mix(value.dc_value().to_bits());
            }
            Element::Resistor { resistance, .. } => h.mix(resistance.to_bits()),
            Element::NegativeResistorDyn { magnitude, .. } => h.mix(magnitude.to_bits()),
            Element::Memristor { .. } => {
                if let Some(r) = e.memristance() {
                    h.mix(r.to_bits());
                }
            }
            _ => {}
        }
    }
    h.finish()
}

impl SubstrateTemplate {
    /// Runs the full cold path for `g`'s topology: builds the per-edge
    /// skeleton (using `g`'s capacities as the initial values) and derives
    /// the shared structure and factorization under `lu`.
    ///
    /// # Errors
    ///
    /// Build failures propagate; circuit-level failures if the base
    /// operating-point matrix cannot be factored.
    pub fn new(
        g: &FlowNetwork,
        params: &SubstrateParams,
        opts: &BuildOptions,
        lu: ohmflow_circuit::LuOptions,
    ) -> Result<Self, AnalogError> {
        Self::planned(g, params, opts, &DcSolver::new().lu_options(lu))
    }

    /// [`SubstrateTemplate::new`] with the circuit-level cold path run by
    /// `dc` (its factorization options and phase timing).
    pub(crate) fn planned(
        g: &FlowNetwork,
        params: &SubstrateParams,
        opts: &BuildOptions,
        dc: &DcSolver,
    ) -> Result<Self, AnalogError> {
        let (skeleton, level_sources) = build_with_layout(g, params, opts, LevelLayout::PerEdge)?;
        let dc = dc
            .plan(skeleton.circuit())?
            .template()
            .cloned()
            .expect("invariant: a planned solver carries its template");
        Ok(SubstrateTemplate {
            key: TemplateKey::new(g),
            params: params.clone(),
            opts: *opts,
            skeleton,
            level_sources,
            dc,
            warm: Mutex::new(None),
        })
    }

    /// The topology key this template serves.
    pub fn key(&self) -> &TemplateKey {
        &self.key
    }

    /// The shared circuit-level cold-path artifacts.
    pub fn dc_template(&self) -> &Arc<DcTemplate> {
        &self.dc
    }

    /// The build options the skeleton was constructed with.
    pub fn build_options(&self) -> &BuildOptions {
        &self.opts
    }

    /// Per-edge capacity-level source ids, edge-id order (`None` for
    /// grounded circulation edges) — what a delta session restamps to
    /// apply capacity updates and clamp-to-zero removals without touching
    /// structure.
    pub(crate) fn level_sources(&self) -> &[Option<ohmflow_circuit::ElementId>] {
        &self.level_sources
    }

    /// Instantiates the template for `g`'s capacities (the template's own
    /// capacity mapping). `g` must have the same topology as the template
    /// was built from; capacities are free.
    ///
    /// # Errors
    ///
    /// [`AnalogError::InvalidConfig`] on a topology mismatch.
    pub fn instantiate(&self, g: &FlowNetwork) -> Result<SubstrateCircuit, AnalogError> {
        self.instantiate_mapped(g, self.opts.capacity_mapping)
    }

    /// [`SubstrateTemplate::instantiate`] with an explicit capacity→voltage
    /// mapping override — the Fig. 10 `N`-sweep: the same topology is
    /// re-instantiated per quantization level count, all value-only.
    ///
    /// # Errors
    ///
    /// [`AnalogError::InvalidConfig`] on a topology mismatch.
    pub fn instantiate_mapped(
        &self,
        g: &FlowNetwork,
        mapping: CapacityMapping,
    ) -> Result<SubstrateCircuit, AnalogError> {
        // Allocation-free topology verification.
        if !self.key.verifies(g) {
            return Err(AnalogError::InvalidConfig {
                what: "template instantiated with a different graph topology".to_owned(),
            });
        }
        // Value-only work: map capacities to clamp voltages and restamp the
        // per-edge level sources of a skeleton clone.
        let c_max = g.max_capacity() as f64;
        let exact = ExactScaling::new(self.params.v_dd, c_max);
        let quantizer = match mapping {
            CapacityMapping::Exact => None,
            CapacityMapping::Quantized { levels } => {
                Some(Quantizer::new(levels, self.params.v_dd, c_max))
            }
        };
        let clamp_volts: Vec<f64> = g
            .edges()
            .iter()
            .map(|e| match &quantizer {
                None => exact.to_volts(e.capacity as f64),
                Some(q) => q.quantize(e.capacity as f64),
            })
            .collect();

        let mut sc = self.skeleton.clone();
        let v_on = self.params.diode.v_on;
        for (k, src) in self.level_sources.iter().enumerate() {
            if let Some(id) = src {
                sc.circuit_mut()
                    .set_source_value(*id, SourceValue::dc(clamp_volts[k] - v_on))
                    .expect("invariant: per-level source ids are recorded at build time");
            }
        }
        sc.set_capacity_values(clamp_volts, self.params.v_dd / c_max);
        sc.attach_dc_template(Arc::clone(&self.dc));
        Ok(sc)
    }

    /// The warm-start hint: converged device states of the last solve with
    /// the **same instance values** (fingerprint match), if any.
    pub(crate) fn warm_states_for(&self, fingerprint: u64) -> Option<Vec<DeviceState>> {
        self.warm
            .lock()
            .expect("invariant: warm-state lock is never poisoned")
            .as_ref()
            .filter(|(fp, _)| *fp == fingerprint)
            .map(|(_, s)| s.clone())
    }

    /// Records converged device states as the warm start for future solves
    /// of the same value assignment.
    pub(crate) fn store_warm_states(&self, fingerprint: u64, states: &[DeviceState]) {
        *self
            .warm
            .lock()
            .expect("invariant: warm-state lock is never poisoned") =
            Some((fingerprint, states.to_vec()));
    }
}

/// `true` if the circuit of every member has the same structure, so one
/// [`DcTemplate`] derived from the first member serves the whole batch
/// (the solver's `solve_many` grouping check for built members).
pub(crate) fn uniform_structure(scs: &[&SubstrateCircuit]) -> bool {
    let Some(first) = scs.first() else {
        return false;
    };
    let c0 = first.circuit();
    scs[1..].iter().all(|sc| {
        let c = sc.circuit();
        c.node_count() == c0.node_count() && c.element_count() == c0.element_count()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build;
    use ohmflow_circuit::LuOptions;
    use ohmflow_graph::generators;

    fn params_and_opts() -> (SubstrateParams, BuildOptions) {
        let mut params = SubstrateParams::table1();
        params.v_flow = 50.0 * params.v_dd;
        (params, BuildOptions::ideal())
    }

    #[test]
    fn template_key_distinguishes_topologies() {
        let a = generators::fig5a();
        // fig5a and fig15a share a 5-vertex diamond topology (they differ
        // only in capacities) — the key treats them as the same substrate,
        // while a genuinely different shape must differ.
        assert_eq!(
            TemplateKey::new(&a),
            TemplateKey::new(&generators::fig15a(10))
        );
        let b = generators::path(&[5, 2, 9]).unwrap();
        assert_ne!(TemplateKey::new(&a), TemplateKey::new(&b));
        // Same topology, different capacities: same key.
        let c = a.scaled_capacities(2).unwrap();
        assert_eq!(TemplateKey::new(&a), TemplateKey::new(&c));
    }

    #[test]
    fn fingerprint_agrees_with_key_hash() {
        // The streaming one-pass fingerprint must equal the cached hash of
        // the full key on the same inputs — the property that lets the
        // plan cache probe on the fingerprint alone.
        for g in [
            generators::fig5a(),
            generators::path(&[5, 2, 9]).unwrap(),
            generators::layered(3, 2, 5, 1).unwrap(),
        ] {
            let key = TemplateKey::new(&g);
            assert_eq!(key.fingerprint_value(), TemplateKey::fingerprint(&g));
        }
    }

    #[test]
    fn key_verification_discriminates_topology_and_lu_identity() {
        let g = generators::fig5a();
        let key = TemplateKey::new(&g);
        assert!(key.verifies(&g));
        // Capacities are free; topology is not.
        assert!(key.verifies(&g.scaled_capacities(3).unwrap()));
        assert!(!key.verifies(&generators::path(&[5, 2, 9]).unwrap()));
        // One edge reversed: same counts, different identity.
        let mut rev = ohmflow_graph::FlowNetwork::new(5, 0, 4).unwrap();
        for (i, e) in g.edges().iter().enumerate() {
            if i == 1 {
                rev.add_edge(e.to, e.from, e.capacity).unwrap();
            } else {
                rev.add_edge(e.from, e.to, e.capacity).unwrap();
            }
        }
        assert!(!key.verifies(&rev));
    }

    #[test]
    fn instantiate_rejects_topology_mismatch() {
        let (params, opts) = params_and_opts();
        let tpl =
            SubstrateTemplate::new(&generators::fig5a(), &params, &opts, LuOptions::default())
                .unwrap();
        let other = generators::path(&[5, 2, 9]).unwrap();
        assert!(matches!(
            tpl.instantiate(&other),
            Err(AnalogError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn instantiate_restamps_clamp_values() {
        let (params, opts) = params_and_opts();
        let g = generators::fig5a();
        let tpl = SubstrateTemplate::new(&g, &params, &opts, LuOptions::default()).unwrap();
        let g2 = g.scaled_capacities(3).unwrap();
        let inst = tpl.instantiate(&g2).unwrap();
        let fresh = build(&g2, &params, &opts).unwrap();
        // Clamp voltages and readout scale must match a fresh build exactly
        // (identical value pipeline, only the source layout differs).
        assert_eq!(inst.volts_per_flow(), fresh.volts_per_flow());
        for k in 0..g2.edge_count() {
            assert_eq!(inst.clamp_volts(k), fresh.clamp_volts(k), "edge {k}");
        }
        assert!(inst.dc_template().is_some());
    }
}
