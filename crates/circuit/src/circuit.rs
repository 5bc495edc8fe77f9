use std::collections::HashMap;

use crate::element::{DiodeModel, Element};
use crate::error::CircuitError;
use crate::ids::{ElementId, NodeId};
use crate::source::SourceValue;

/// A circuit netlist under construction.
///
/// Nodes are created with [`Circuit::node`] (optionally named); devices are
/// added with the typed constructors, each returning an [`ElementId`] handle
/// that can later be used to retune the device (resistance tuning, source
/// values) or probe its branch current.
///
/// # Example
///
/// ```
/// use ohmflow_circuit::{Circuit, SourceValue};
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.voltage_source(a, Circuit::GROUND, SourceValue::dc(1.0));
/// ckt.resistor(a, Circuit::GROUND, 1e3);
/// assert_eq!(ckt.node_count(), 2); // ground + a
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    /// Node count including ground (node ids are `0..nodes`).
    nodes: usize,
    name_index: HashMap<String, NodeId>,
    elements: Vec<Element>,
}

impl Circuit {
    /// The ground (reference) node, implicitly present in every circuit.
    pub const GROUND: NodeId = NodeId::GROUND;

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Circuit {
            nodes: 1,
            name_index: HashMap::new(),
            elements: Vec::new(),
        }
    }

    /// Creates or retrieves a named node.
    ///
    /// Calling `node` twice with the same name returns the same [`NodeId`],
    /// which makes incremental netlist construction convenient.
    pub fn node(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        if let Some(&id) = self.name_index.get(&name) {
            return id;
        }
        let id = self.anon_node();
        self.name_index.insert(name, id);
        id
    }

    /// Creates an anonymous node. Anonymous nodes carry no lookup entry,
    /// so bulk circuit construction (a substrate builder emitting
    /// thousands of internal nets) pays no allocation per node.
    pub fn anon_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes);
        self.nodes += 1;
        id
    }

    /// Looks a node up by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        if name == "gnd" {
            return Some(Self::GROUND);
        }
        self.name_index.get(name).copied()
    }

    /// Total number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of elements.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Iterator over every element id, insertion order.
    pub fn element_ids(&self) -> impl Iterator<Item = ElementId> + '_ {
        (0..self.elements.len()).map(ElementId)
    }

    /// Read-only element list.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Element by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this circuit.
    pub fn element(&self, id: ElementId) -> &Element {
        &self.elements[id.0]
    }

    fn push(&mut self, e: Element) -> ElementId {
        let id = ElementId(self.elements.len());
        self.elements.push(e);
        id
    }

    /// Adds a resistor. Negative resistance is allowed (the substrate's
    /// conservation circuits use ideal negative resistors); zero is not.
    /// `f64::INFINITY` stamps an exact open branch (zero conductance) —
    /// the delta-session machinery toggles couplings between a finite
    /// value and open without touching the matrix structure.
    ///
    /// # Panics
    ///
    /// Panics if `resistance == 0.0` or is NaN.
    pub fn resistor(&mut self, a: NodeId, b: NodeId, resistance: f64) -> ElementId {
        assert!(
            resistance != 0.0 && !resistance.is_nan(),
            "resistance must be nonzero and not NaN, got {resistance}"
        );
        self.push(Element::Resistor { a, b, resistance })
    }

    /// Adds an independent voltage source (`V(pos) − V(neg) = value(t)`).
    pub fn voltage_source(&mut self, pos: NodeId, neg: NodeId, value: SourceValue) -> ElementId {
        self.push(Element::VoltageSource { pos, neg, value })
    }

    /// Adds a voltage-controlled voltage source.
    pub fn vcvs(
        &mut self,
        out_pos: NodeId,
        out_neg: NodeId,
        ctrl_pos: NodeId,
        ctrl_neg: NodeId,
        gain: f64,
    ) -> ElementId {
        self.push(Element::Vcvs {
            out_pos,
            out_neg,
            ctrl_pos,
            ctrl_neg,
            gain,
        })
    }

    /// Adds a PWL diode conducting from `anode` to `cathode`.
    pub fn diode(&mut self, anode: NodeId, cathode: NodeId, model: DiodeModel) -> ElementId {
        self.push(Element::Diode {
            anode,
            cathode,
            model,
        })
    }

    /// Changes a resistor's resistance in place (used by tuning studies
    /// and the delta-session branch surgery). `f64::INFINITY` opens the
    /// branch exactly (zero conductance).
    ///
    /// # Errors
    ///
    /// [`CircuitError::WrongElementKind`] if `id` is not a resistor;
    /// [`CircuitError::InvalidParameter`] for zero/NaN values.
    pub fn set_resistance(&mut self, id: ElementId, resistance: f64) -> Result<(), CircuitError> {
        if resistance == 0.0 || resistance.is_nan() {
            return Err(CircuitError::InvalidParameter {
                what: format!("resistance {resistance}"),
            });
        }
        match self.elements.get_mut(id.0) {
            Some(Element::Resistor { resistance: r, .. }) => {
                *r = resistance;
                Ok(())
            }
            _ => Err(CircuitError::WrongElementKind {
                expected: "resistor",
            }),
        }
    }

    /// Changes a voltage source's waveform in place.
    ///
    /// # Errors
    ///
    /// [`CircuitError::WrongElementKind`] if `id` is not a voltage source.
    pub fn set_source_value(
        &mut self,
        id: ElementId,
        value: SourceValue,
    ) -> Result<(), CircuitError> {
        match self.elements.get_mut(id.0) {
            Some(Element::VoltageSource { value: v, .. }) => {
                *v = value;
                Ok(())
            }
            _ => Err(CircuitError::WrongElementKind { expected: "source" }),
        }
    }

    /// Element ids of all diodes, in element order.
    pub fn diode_ids(&self) -> Vec<ElementId> {
        self.elements
            .iter()
            .enumerate()
            .filter_map(|(i, e)| matches!(e, Element::Diode { .. }).then_some(ElementId(i)))
            .collect()
    }

    /// Number of diodes (each contributes one binary conduction state).
    pub fn diode_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::Diode { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_nodes_are_deduplicated() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let a2 = ckt.node("a");
        let b = ckt.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(ckt.node_count(), 3);
        assert_eq!(ckt.find_node("a"), Some(a));
        assert_eq!(ckt.find_node("gnd"), Some(Circuit::GROUND));
        assert_eq!(ckt.find_node("zzz"), None);
    }

    #[test]
    fn wrong_element_kind_errors() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let r = ckt.resistor(a, Circuit::GROUND, 1.0);
        assert!(matches!(
            ckt.set_source_value(r, SourceValue::dc(2.0)),
            Err(CircuitError::WrongElementKind { .. })
        ));
        assert!(ckt.set_resistance(r, 2.0).is_ok());
        assert!(ckt.set_resistance(r, 0.0).is_err());
    }

    #[test]
    #[should_panic(expected = "resistance must be nonzero")]
    fn zero_resistor_panics() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor(a, Circuit::GROUND, 0.0);
    }

    #[test]
    fn negative_resistance_is_allowed() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.resistor(a, Circuit::GROUND, -5e3);
        assert_eq!(ckt.element_count(), 1);
    }
}
