//! Direct-mapped construction of the max-flow circuit (§2 of the paper).
//!
//! For every edge there is a circuit node whose steady-state voltage is the
//! flow on that edge:
//!
//! * **capacity widget** (Fig. 1): two clamp diodes and a (shared,
//!   quantized) voltage source enforce `0 ≤ V(x) ≤ Q(c)`,
//! * **conservation widget** (Fig. 2): per interior vertex, each incoming
//!   edge gets a voltage-negation sub-circuit (two `r` resistors into a
//!   node `P` terminated by `−r/2`), all incident edges connect through `r`
//!   resistors to the vertex node `n_v`, which is terminated by
//!   `−R = −r/(j+k)` — KCL then forces `Σ V(in) = Σ V(out)`,
//! * **objective widget** (Fig. 3): `V_flow` drives every source-adjacent
//!   edge node through an `r` resistor; Eq. (7a) recovers the flow value
//!   from the source current.
//!
//! Negative resistors are ideal negative-conductance elements. The op-amp
//! negative-impedance converters that realize them in hardware (Fig. 9a)
//! enter only through the relaxation transient's dominant-pole lag
//! `τ = A/(2π·GBW)`, which gives the substrate its §5.1 convergence
//! dynamics.

use std::sync::Arc;

use ohmflow_circuit::{Circuit, DcTemplate, ElementId, NodeId, SourceValue};

use ohmflow_graph::FlowNetwork;

use crate::params::SubstrateParams;
use crate::quantize::{ExactScaling, Quantizer};
use crate::AnalogError;

/// How edge capacities become clamp voltages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityMapping {
    /// One (deduplicated) exact voltage per capacity value — the §2
    /// idealization.
    Exact,
    /// §4.1 quantization onto `levels` shared levels spanning `[0, V_dd]`.
    Quantized {
        /// Number of voltage levels `N`.
        levels: u32,
    },
}

/// Shape of the `V_flow` drive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// Step from 0 to `V_flow` at `t = 0` (the §5.1 experiment).
    Step,
    /// Constant `V_flow` (DC / quasi-static studies).
    Dc,
    /// Linear ramp from 0 to `V_flow` over the given duration (the §6.5
    /// slow-varying analysis).
    Ramp {
        /// Ramp duration in seconds.
        duration: f64,
    },
}

/// Build options for [`build`].
///
/// Every negative resistor is an ideal element stamped at its exact Fig. 2
/// value, `−r/2` or `−r/n`. The §4.2 finite-gain over-sizing is studied by
/// injection only ([`finite_gain_reff`](crate::nonideal::finite_gain_reff),
/// Ablation 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildOptions {
    /// Capacity→voltage mapping.
    pub capacity_mapping: CapacityMapping,
    /// `V_flow` drive shape.
    pub drive: Drive,
}

impl BuildOptions {
    /// Ideal steady-state configuration: exact capacities, DC drive.
    pub fn ideal() -> Self {
        BuildOptions {
            capacity_mapping: CapacityMapping::Exact,
            drive: Drive::Dc,
        }
    }

    /// The §5.1 evaluation configuration: quantized levels (Table 1's
    /// `N = 20` comes from `params` at build time), step drive.
    pub fn evaluation(params: &SubstrateParams) -> Self {
        BuildOptions {
            capacity_mapping: CapacityMapping::Quantized {
                levels: params.voltage_levels,
            },
            drive: Drive::Step,
        }
    }
}

/// Structural statistics of a built substrate circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuildStats {
    /// Circuit nodes (including ground).
    pub nodes: usize,
    /// Total elements.
    pub elements: usize,
    /// Clamp diodes.
    pub diodes: usize,
    /// Negative resistors, `= |E'| + |V'|` where the primes
    /// count negation widgets and conservation stars actually built.
    pub negative_resistors: usize,
    /// Independent voltage sources (V_flow + capacity levels).
    pub sources: usize,
}

/// How capacity-level voltage sources are laid out in the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LevelLayout {
    /// One source per *distinct* clamp voltage (the §4.1 hardware layout;
    /// the default for [`build`]). Compact, but the number of sources —
    /// and therefore the MNA structure — depends on the capacity values.
    Shared,
    /// One source per clamped edge. Slightly larger netlist whose
    /// *structure* is a pure function of the graph topology, so a
    /// [`SubstrateTemplate`](crate::template::SubstrateTemplate) can
    /// restamp any capacity assignment as a value-only update.
    PerEdge,
}

/// Value-only surgery handles for one non-circulation edge: the element
/// ids a delta session toggles to excise the edge from (or re-admit it
/// to) the network without touching structure. See
/// [`build_with_layout`]'s widget construction for which resistor each
/// id names.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EdgeSurgery {
    /// The tail-side coupling: `vflow -> x` for source-out edges, else
    /// `x -> nv_u` (the out-edge leg of `u`'s conservation widget).
    pub u_coupling: ElementId,
    /// The head-side coupling `xneg -> nv_v` (the in-edge negation leg of
    /// `v`'s conservation widget); `None` when the head is the sink.
    pub v_coupling: Option<ElementId>,
    /// Ghost anchor `x -> GND`, stamped open (zero conductance) at build:
    /// removal closes it so the excised widget cluster stays anchored and
    /// nonsingular regardless of its clamp-diode states.
    pub anchor: ElementId,
}

/// Handles for retuning a conservation widget's star negative resistor
/// when the vertex's live incident-edge count changes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StarSurgery {
    /// The `-r/n` star element at the widget's summing node (a plain
    /// resistor).
    pub element: ElementId,
    /// Incident (non-circulation) edge count the build stamped for.
    pub n_base: usize,
}

/// Everything a delta session needs to do exact edge insert/delete
/// surgery by value-only resistor edits.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaMetadata {
    /// Per-edge handles (`None` for circulation edges, which stamp
    /// nothing).
    pub edges: Vec<Option<EdgeSurgery>>,
    /// Per-vertex star handles (`None` for source/sink and widget-less
    /// vertices).
    pub stars: Vec<Option<StarSurgery>>,
    /// Unit resistance the couplings were stamped with.
    pub r: f64,
}

/// A max-flow instance mapped onto the analog substrate.
#[derive(Debug, Clone)]
pub struct SubstrateCircuit {
    circuit: Circuit,
    edge_nodes: Vec<NodeId>,
    /// Per edge: (lower clamp diode, upper clamp diode) element ids.
    clamp_diodes: Vec<(ElementId, ElementId)>,
    vflow: ElementId,
    vflow_value: f64,
    /// Volts per unit flow: `V_dd / C`.
    volts_per_flow: f64,
    /// Clamp voltage per edge after capacity mapping.
    clamp_volts: Vec<f64>,
    /// Edge ids leaving the source.
    source_out: Vec<usize>,
    /// Edge ids entering the source (counted negatively in the value).
    source_in: Vec<usize>,
    stats: BuildStats,
    /// Shared cold-path artifacts (structure + symbolic/numeric LU) when
    /// this circuit came out of a template instantiation; the solve paths
    /// pick it up transparently.
    dc_template: Option<Arc<DcTemplate>>,
    /// Edge insert/delete surgery handles for delta sessions.
    delta_meta: DeltaMetadata,
}

/// The capacity→clamp-voltage map of `mapping` for capacities up to
/// `c_max`: exact scaling onto `[0, V_dd]` or the §4.1 quantization. The
/// one definition behind fresh builds, template instantiations and
/// delta-session restamps.
pub(crate) fn capacity_volts(
    mapping: CapacityMapping,
    v_dd: f64,
    c_max: f64,
) -> impl Fn(i64) -> f64 {
    let exact = ExactScaling::new(v_dd, c_max);
    let quantizer = match mapping {
        CapacityMapping::Exact => None,
        CapacityMapping::Quantized { levels } => Some(Quantizer::new(levels, v_dd, c_max)),
    };
    move |capacity| match &quantizer {
        None => exact.to_volts(capacity as f64),
        Some(q) => q.quantize(capacity as f64),
    }
}

/// Builds the direct-mapped circuit of `g` (Figs. 1–3).
///
/// # Errors
///
/// [`AnalogError::InvalidConfig`] for degenerate options (e.g. a ramp of
/// non-positive duration) and [`AnalogError::Graph`] style issues coming
/// from an edge-less graph.
pub fn build(
    g: &FlowNetwork,
    params: &SubstrateParams,
    opts: &BuildOptions,
) -> Result<SubstrateCircuit, AnalogError> {
    build_with_layout(g, params, opts, LevelLayout::Shared).map(|(sc, _)| sc)
}

/// [`build`] with an explicit capacity-level source layout; also returns
/// the per-edge level-source element ids ([`LevelLayout::PerEdge`] only —
/// `None` entries mark grounded circulation edges, and every entry is
/// `None` under [`LevelLayout::Shared`]). The template machinery uses the
/// ids to restamp capacities as a value-only update.
pub(crate) fn build_with_layout(
    g: &FlowNetwork,
    params: &SubstrateParams,
    opts: &BuildOptions,
    layout: LevelLayout,
) -> Result<(SubstrateCircuit, Vec<Option<ElementId>>), AnalogError> {
    if g.edge_count() == 0 {
        return Err(AnalogError::InvalidConfig {
            what: "graph has no edges".to_owned(),
        });
    }
    if let Drive::Ramp { duration } = opts.drive {
        if duration <= 0.0 || duration.is_nan() {
            return Err(AnalogError::InvalidConfig {
                what: format!("ramp duration {duration}"),
            });
        }
    }

    let c_max = g.max_capacity() as f64;
    let to_volts = capacity_volts(opts.capacity_mapping, params.v_dd, c_max);
    let clamp_volts: Vec<f64> = g.edges().iter().map(|e| to_volts(e.capacity)).collect();

    let mut ckt = Circuit::new();
    let r = params.r_unit;
    let mut stats = BuildStats::default();

    // V_flow drive.
    let vflow_node = ckt.node("vflow");
    let drive_wave = match opts.drive {
        Drive::Step => SourceValue::step(0.0, params.v_flow, 0.0),
        Drive::Dc => SourceValue::dc(params.v_flow),
        Drive::Ramp { duration } => SourceValue::ramp(0.0, 0.0, duration, params.v_flow),
    };
    let vflow = ckt.voltage_source(vflow_node, Circuit::GROUND, drive_wave);
    stats.sources += 1;

    // Shared capacity-level sources (one per distinct clamp voltage).
    let mut level_nodes: Vec<(u64, NodeId)> = Vec::new();
    let mut level_node = |ckt: &mut Circuit, stats: &mut BuildStats, volts: f64| -> NodeId {
        let key = volts.to_bits();
        if let Some(&(_, node)) = level_nodes.iter().find(|&&(k, _)| k == key) {
            return node;
        }
        let node = ckt.anon_node();
        ckt.voltage_source(node, Circuit::GROUND, SourceValue::dc(volts));
        stats.sources += 1;
        level_nodes.push((key, node));
        node
    };

    // Edge nodes + capacity widgets (Fig. 1).
    //
    // Edges *into the source* or *out of the sink* can only carry
    // circulation: they never contribute to the net flow, but the drive
    // (which maximizes the *gross* outflow of `s`) would happily route
    // flow in circles through them. The classical reduction deletes them;
    // in circuit terms their edge node is tied to ground (flow 0), which
    // keeps edge-id indexing and the incident conservation widgets
    // consistent.
    let mut edge_nodes = Vec::with_capacity(g.edge_count());
    let mut clamp_diodes = Vec::with_capacity(g.edge_count());
    let mut level_sources: Vec<Option<ElementId>> = Vec::with_capacity(g.edge_count());
    let mut edge_u_coupling: Vec<Option<ElementId>> = vec![None; g.edge_count()];
    let mut edge_v_coupling: Vec<Option<ElementId>> = vec![None; g.edge_count()];
    let mut edge_anchor: Vec<Option<ElementId>> = vec![None; g.edge_count()];
    for (k, e) in g.edges().iter().enumerate() {
        if e.to == g.source() || e.from == g.sink() {
            edge_nodes.push(Circuit::GROUND);
            clamp_diodes.push((ElementId::invalid(), ElementId::invalid()));
            level_sources.push(None);
            continue;
        }
        let x = ckt.anon_node();
        edge_nodes.push(x);
        // Ghost anchor for delta-session removal surgery: open (zero
        // conductance, stamps exact 0 into the already-present diagonal)
        // while the edge is live, closed to `r` when the edge is excised
        // so the dangling widget cluster stays nonsingular.
        edge_anchor[k] = Some(ckt.resistor(x, Circuit::GROUND, f64::INFINITY));
        // Lower clamp: diode from ground to x turns on when V(x) < 0.
        let lo = ckt.diode(Circuit::GROUND, x, params.diode);
        // Upper clamp: diode from x to the level source turns on when
        // V(x) > Q(c). The §2.1 footnote's turn-on compensation: *lower*
        // the clamp source by v_on so the conducting drop pins the node at
        // exactly Q(c).
        let lvl_volts = clamp_volts[k] - params.diode.v_on;
        let lvl = match layout {
            LevelLayout::Shared => {
                level_sources.push(None);
                level_node(&mut ckt, &mut stats, lvl_volts)
            }
            LevelLayout::PerEdge => {
                let node = ckt.anon_node();
                let src = ckt.voltage_source(node, Circuit::GROUND, SourceValue::dc(lvl_volts));
                stats.sources += 1;
                level_sources.push(Some(src));
                node
            }
        };
        let hi = ckt.diode(x, lvl, params.diode);
        clamp_diodes.push((lo, hi));
        stats.diodes += 2;
    }

    // Negative-resistor factory: a grounded `resistance` (< 0) at `node`.
    let neg_resistor =
        |ckt: &mut Circuit, stats: &mut BuildStats, node: NodeId, resistance: f64| -> ElementId {
            stats.negative_resistors += 1;
            ckt.resistor(node, Circuit::GROUND, resistance)
        };

    // Objective widget (Fig. 3): V_flow through r to each source-out edge.
    let source_out: Vec<usize> = g.out_edges(g.source()).map(|e| e.0).collect();
    let source_in: Vec<usize> = g.in_edges(g.source()).map(|e| e.0).collect();
    for &k in &source_out {
        edge_u_coupling[k] = Some(ckt.resistor(vflow_node, edge_nodes[k], r));
    }

    // Conservation widgets (Fig. 2) for interior vertices. Edges whose
    // node was grounded (circulation edges, see above) carry exactly zero
    // flow and are excluded: including them would build negation/star
    // sub-circuits entirely anchored at ground, which are singular.
    let mut stars: Vec<Option<StarSurgery>> = vec![None; g.vertex_count()];
    for (v, star) in stars.iter_mut().enumerate() {
        if v == g.source() || v == g.sink() {
            continue;
        }
        let out_live: Vec<usize> = g
            .out_edges(v)
            .map(|e| e.0)
            .filter(|&k| !edge_nodes[k].is_ground())
            .collect();
        let in_live: Vec<usize> = g
            .in_edges(v)
            .map(|e| e.0)
            .filter(|&k| !edge_nodes[k].is_ground())
            .collect();
        let n_incident = out_live.len() + in_live.len();
        if n_incident == 0 {
            continue;
        }
        let nv = ckt.anon_node();
        for &k in &out_live {
            edge_u_coupling[k] = Some(ckt.resistor(edge_nodes[k], nv, r));
        }
        for &k in &in_live {
            // Negation sub-circuit: x → P ← x⁻, with −r/2 at P.
            let p = ckt.anon_node();
            let xneg = ckt.anon_node();
            ckt.resistor(edge_nodes[k], p, r);
            ckt.resistor(xneg, p, r);
            neg_resistor(&mut ckt, &mut stats, p, params.negation_resistance());
            edge_v_coupling[k] = Some(ckt.resistor(xneg, nv, r));
        }
        *star = Some(StarSurgery {
            element: neg_resistor(&mut ckt, &mut stats, nv, params.star_resistance(n_incident)),
            n_base: n_incident,
        });
    }

    stats.nodes = ckt.node_count();
    stats.elements = ckt.element_count();

    let delta_meta = DeltaMetadata {
        edges: edge_anchor
            .iter()
            .zip(&edge_u_coupling)
            .zip(&edge_v_coupling)
            .map(|((anchor, u), v)| {
                anchor.map(|anchor| EdgeSurgery {
                    u_coupling: u.expect("invariant: non-circulation edges carry a tail coupling"),
                    v_coupling: *v,
                    anchor,
                })
            })
            .collect(),
        stars,
        r,
    };

    Ok((
        SubstrateCircuit {
            circuit: ckt,
            edge_nodes,
            clamp_diodes,
            vflow,
            vflow_value: params.v_flow,
            volts_per_flow: params.v_dd / c_max,
            clamp_volts,
            source_out,
            source_in,
            stats,
            dc_template: None,
            delta_meta,
        },
        level_sources,
    ))
}

/// A [`SubstrateCircuit`] *is* a circuit plus readout metadata, and the
/// circuit layer's session machinery is generic over anything that
/// borrows a [`Circuit`]
/// ([`FrozenDcSession<C>`](ohmflow_circuit::FrozenDcSession)) — these
/// impls let a delta session move a whole substrate into an owning
/// session and keep restamping its sources in place.
impl std::borrow::Borrow<Circuit> for SubstrateCircuit {
    fn borrow(&self) -> &Circuit {
        &self.circuit
    }
}

impl std::borrow::BorrowMut<Circuit> for SubstrateCircuit {
    fn borrow_mut(&mut self) -> &mut Circuit {
        &mut self.circuit
    }
}

impl SubstrateCircuit {
    /// The underlying netlist.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The shared cold-path artifacts this circuit was instantiated with
    /// (template instantiations only): MNA structure, base sparsity and a
    /// symbolic + numeric factorization to start solves from. The solve
    /// paths use it when present and validate it against the circuit, so a
    /// perturbed or hand-edited instance degrades to the cold path instead
    /// of computing with stale artifacts.
    pub fn dc_template(&self) -> Option<&Arc<DcTemplate>> {
        self.dc_template.as_ref()
    }

    /// Attaches shared cold-path artifacts (template instantiation).
    pub(crate) fn attach_dc_template(&mut self, tpl: Arc<DcTemplate>) {
        self.dc_template = Some(tpl);
    }

    /// Overwrites the capacity-derived values (template instantiation):
    /// per-edge clamp voltages and the flow-readout scale.
    pub(crate) fn set_capacity_values(&mut self, clamp_volts: Vec<f64>, volts_per_flow: f64) {
        self.clamp_volts = clamp_volts;
        self.volts_per_flow = volts_per_flow;
    }

    /// Overwrites edge `k`'s clamp voltage (a delta session's value-only
    /// restamp).
    pub(crate) fn set_clamp_volts(&mut self, k: usize, clamp_volts: f64) {
        self.clamp_volts[k] = clamp_volts;
    }

    /// Overwrites the flow-readout scale (a delta batch that moved the
    /// session's capacity scale).
    pub(crate) fn set_volts_per_flow(&mut self, volts_per_flow: f64) {
        self.volts_per_flow = volts_per_flow;
    }

    /// Mutable access (used by non-ideality injection and tuning).
    pub fn circuit_mut(&mut self) -> &mut Circuit {
        &mut self.circuit
    }

    /// Value-only surgery handles for delta sessions.
    pub(crate) fn delta_meta(&self) -> &DeltaMetadata {
        &self.delta_meta
    }

    /// Circuit node carrying the flow of edge `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn edge_node(&self, k: usize) -> NodeId {
        self.edge_nodes[k]
    }

    /// All edge nodes, edge-id order.
    pub fn edge_nodes(&self) -> &[NodeId] {
        &self.edge_nodes
    }

    /// Per-edge clamp diodes `(lower, upper)`, edge-id order.
    pub fn clamp_diodes(&self) -> &[(ElementId, ElementId)] {
        &self.clamp_diodes
    }

    /// The `V_flow` source element (probe its current for Eq. 7a).
    pub fn vflow_source(&self) -> ElementId {
        self.vflow
    }

    /// The configured `V_flow` drive level (volts).
    pub fn vflow_value(&self) -> f64 {
        self.vflow_value
    }

    /// Volts per unit of flow (`V_dd / C`).
    pub fn volts_per_flow(&self) -> f64 {
        self.volts_per_flow
    }

    /// Clamp voltage of edge `k` after capacity mapping.
    pub fn clamp_volts(&self, k: usize) -> f64 {
        self.clamp_volts[k]
    }

    /// Edge ids leaving the source vertex (the edges [`flow_value`]
    /// sums positively).
    ///
    /// [`flow_value`]: SubstrateCircuit::flow_value
    pub fn source_out_edges(&self) -> &[usize] {
        &self.source_out
    }

    /// Edge ids entering the source vertex (counted negatively in the
    /// flow value).
    pub fn source_in_edges(&self) -> &[usize] {
        &self.source_in
    }

    /// Build statistics.
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// Converts per-edge node voltages into flow units.
    pub fn edge_flows(&self, voltage_of: impl Fn(NodeId) -> f64) -> Vec<f64> {
        self.edge_nodes
            .iter()
            .map(|&n| voltage_of(n) / self.volts_per_flow)
            .collect()
    }

    /// Flow value `|f|` (flow units) from node voltages: net flow out of
    /// the source vertex.
    pub fn flow_value(&self, voltage_of: impl Fn(NodeId) -> f64) -> f64 {
        let volts: f64 = self
            .source_out
            .iter()
            .map(|&k| voltage_of(self.edge_nodes[k]))
            .sum::<f64>()
            - self
                .source_in
                .iter()
                .map(|&k| voltage_of(self.edge_nodes[k]))
                .sum::<f64>();
        volts / self.volts_per_flow
    }

    /// Eq. (7a) readout: recovers `Σ V(x_i)` over the source-adjacent edges
    /// from the measured `I_flow`, then converts to flow units. This is the
    /// measurement the physical substrate performs (§3.2): it only needs
    /// the current through `V_flow`, not the internal node voltages.
    pub fn flow_value_from_current(&self, i_flow: f64, r_unit: f64) -> f64 {
        let t = self.source_out.len() as f64;
        let sum_v = t * self.vflow_value - r_unit * i_flow;
        let inflow: f64 = 0.0; // the physical readout cannot see s-inbound edges
        (sum_v - inflow) / self.volts_per_flow
    }
}
