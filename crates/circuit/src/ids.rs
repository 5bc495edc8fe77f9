use std::fmt;

/// Identifier of a circuit node.
///
/// `NodeId(0)` is the ground (reference) node, available as
/// [`crate::Circuit::GROUND`]; every other node is created through
/// [`crate::Circuit::node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The ground node.
    pub(crate) const GROUND: NodeId = NodeId(0);

    /// `true` for the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }

    /// Raw index (0 = ground). Useful for dense bookkeeping by callers.
    pub fn index(self) -> usize {
        self.0
    }

    /// Index into the MNA unknown vector, `None` for ground.
    pub(crate) fn unknown(self) -> Option<usize> {
        self.0.checked_sub(1)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ground() {
            write!(f, "gnd")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// Identifier of an element (device instance) in a [`crate::Circuit`].
///
/// Returned by every device constructor; used to update device parameters
/// (e.g. resistance tuning, source values) and to probe branch currents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ElementId(pub(crate) usize);

impl ElementId {
    /// Raw index into the circuit's element list.
    pub fn index(self) -> usize {
        self.0
    }

    /// A sentinel id referring to no element (used by callers that keep
    /// element-aligned tables with gaps).
    pub fn invalid() -> Self {
        ElementId(usize::MAX)
    }

    /// `false` for the [`ElementId::invalid`] sentinel.
    pub fn is_valid(self) -> bool {
        self.0 != usize::MAX
    }
}

impl fmt::Display for ElementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_properties() {
        assert!(NodeId::GROUND.is_ground());
        assert_eq!(NodeId::GROUND.unknown(), None);
        assert_eq!(NodeId(3).unknown(), Some(2));
        assert_eq!(NodeId::GROUND.to_string(), "gnd");
        assert_eq!(NodeId(2).to_string(), "n2");
    }

    #[test]
    fn element_display() {
        assert_eq!(ElementId(7).to_string(), "e7");
        assert_eq!(ElementId(7).index(), 7);
    }
}
