//! An arena ("DOM") representation of a tree, with stable node identities.
//!
//! Composition-free XQuery variables range exclusively over nodes of the
//! input tree (Prop 7.3); the nested-loop evaluator therefore only ever
//! stores [`NodeId`]s — each a single machine word, giving the paper's
//! `O(|Q| · log |t|)` space bound.

use crate::{Axis, Label, NodeTest, Tree};

/// Identifier of a node within a [`Document`]. Ids are assigned in preorder
/// (document order), so comparing ids compares document order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

struct NodeData {
    label: Label,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// Preorder index of the first node *after* this subtree; the subtree of
    /// node `v` is exactly the id range `v.0 .. subtree_end`.
    subtree_end: u32,
}

/// An immutable node arena built from a [`Tree`].
pub struct Document {
    nodes: Vec<NodeData>,
}

impl Document {
    /// Builds the arena for `tree`; the root receives id 0.
    pub fn new(tree: &Tree) -> Document {
        let mut doc = Document { nodes: Vec::new() };
        doc.add(tree, None);
        doc
    }

    fn add(&mut self, t: &Tree, parent: Option<NodeId>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            label: t.label().clone(),
            parent,
            children: Vec::with_capacity(t.children().len()),
            subtree_end: 0,
        });
        for c in t.children() {
            let cid = self.add(c, Some(id));
            self.nodes[id.0 as usize].children.push(cid);
        }
        self.nodes[id.0 as usize].subtree_end = self.nodes.len() as u32;
        id
    }

    /// The root node (always id 0).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the document has no nodes (never the case for `Document::new`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn data(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.0 as usize]
    }

    /// The label of `id`.
    pub fn label(&self, id: NodeId) -> &Label {
        &self.data(id).label
    }

    /// The parent of `id`, if any.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).parent
    }

    /// The children of `id` in document order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.data(id).children
    }

    /// Whether `id` is a leaf.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.data(id).children.is_empty()
    }

    /// Proper descendants of `id` in document order.
    pub fn descendants(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let end = self.data(id).subtree_end;
        (id.0 + 1..end).map(NodeId)
    }

    /// Whether `desc` lies in the subtree rooted at `anc` (inclusive).
    pub fn is_in_subtree(&self, anc: NodeId, desc: NodeId) -> bool {
        anc.0 <= desc.0 && desc.0 < self.data(anc).subtree_end
    }

    /// The nodes reached from `id` via `axis` whose labels pass `test`,
    /// in document order.
    pub fn axis(&self, id: NodeId, axis: Axis, test: &NodeTest) -> Vec<NodeId> {
        let mut out = Vec::new();
        match axis {
            Axis::Child => {
                out.extend(
                    self.children(id)
                        .iter()
                        .copied()
                        .filter(|&c| test.matches(self.label(c))),
                );
            }
            Axis::Descendant => {
                out.extend(
                    self.descendants(id)
                        .filter(|&c| test.matches(self.label(c))),
                );
            }
            Axis::SelfAxis => {
                if test.matches(self.label(id)) {
                    out.push(id);
                }
            }
            Axis::DescendantOrSelf => {
                if test.matches(self.label(id)) {
                    out.push(id);
                }
                out.extend(
                    self.descendants(id)
                        .filter(|&c| test.matches(self.label(c))),
                );
            }
        }
        out
    }

    /// Materializes the subtree rooted at `id` as a [`Tree`].
    pub fn subtree(&self, id: NodeId) -> Tree {
        Tree::node(
            self.label(id).clone(),
            self.children(id).iter().map(|&c| self.subtree(c)),
        )
    }

    /// Deep (value) equality of the subtrees rooted at `a` and `b` —
    /// label-and-structure equality, without materializing.
    pub fn deep_eq(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        if self.label(a) != self.label(b) {
            return false;
        }
        let (ca, cb) = (self.children(a), self.children(b));
        ca.len() == cb.len() && ca.iter().zip(cb).all(|(&x, &y)| self.deep_eq(x, y))
    }

    /// Equality of atoms: both nodes must be leaves; compares labels.
    /// Returns `None` when either node is not a leaf. This is the
    /// atoms-only notion, not Core XQuery's `=atomic`, which Figure 1
    /// defines on any two trees as equality of their root labels.
    pub fn atomic_eq(&self, a: NodeId, b: NodeId) -> Option<bool> {
        if self.is_leaf(a) && self.is_leaf(b) {
            Some(self.label(a) == self.label(b))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        // <r><a><b/><b/></a><a/><c><a><b/></a></c></r>
        Tree::node(
            "r",
            [
                Tree::node("a", [Tree::leaf("b"), Tree::leaf("b")]),
                Tree::leaf("a"),
                Tree::node("c", [Tree::node("a", [Tree::leaf("b")])]),
            ],
        )
    }

    #[test]
    fn ids_are_preorder() {
        let t = sample();
        let d = Document::new(&t);
        assert_eq!(d.len(), 8);
        assert_eq!(d.label(NodeId(0)).as_str(), "r");
        assert_eq!(d.label(NodeId(1)).as_str(), "a");
        assert_eq!(d.label(NodeId(2)).as_str(), "b");
        assert_eq!(d.label(NodeId(3)).as_str(), "b");
        assert_eq!(d.label(NodeId(4)).as_str(), "a");
        assert_eq!(d.label(NodeId(5)).as_str(), "c");
        assert_eq!(d.label(NodeId(6)).as_str(), "a");
        assert_eq!(d.label(NodeId(7)).as_str(), "b");
    }

    #[test]
    fn parent_child_links() {
        let d = Document::new(&sample());
        assert_eq!(d.parent(d.root()), None);
        assert_eq!(d.children(d.root()), &[NodeId(1), NodeId(4), NodeId(5)]);
        assert_eq!(d.parent(NodeId(7)), Some(NodeId(6)));
        assert!(d.is_leaf(NodeId(4)));
        assert!(!d.is_leaf(NodeId(1)));
    }

    #[test]
    fn descendant_ranges() {
        let d = Document::new(&sample());
        let desc: Vec<u32> = d.descendants(NodeId(1)).map(|n| n.0).collect();
        assert_eq!(desc, vec![2, 3]);
        assert!(d.is_in_subtree(NodeId(5), NodeId(7)));
        assert!(!d.is_in_subtree(NodeId(1), NodeId(4)));
        assert!(d.is_in_subtree(NodeId(0), NodeId(7)));
    }

    #[test]
    fn axis_with_node_tests() {
        let d = Document::new(&sample());
        let a = NodeTest::tag("a");
        assert_eq!(
            d.axis(d.root(), Axis::Child, &a),
            vec![NodeId(1), NodeId(4)]
        );
        assert_eq!(
            d.axis(d.root(), Axis::Descendant, &a),
            vec![NodeId(1), NodeId(4), NodeId(6)]
        );
        assert_eq!(d.axis(NodeId(1), Axis::SelfAxis, &a), vec![NodeId(1)]);
        assert_eq!(
            d.axis(NodeId(1), Axis::SelfAxis, &NodeTest::tag("z")),
            vec![]
        );
        assert_eq!(
            d.axis(NodeId(5), Axis::DescendantOrSelf, &NodeTest::Wildcard),
            vec![NodeId(5), NodeId(6), NodeId(7)]
        );
    }

    #[test]
    fn subtree_round_trip() {
        let t = sample();
        let d = Document::new(&t);
        assert_eq!(d.subtree(d.root()), t);
        assert_eq!(d.subtree(NodeId(6)), Tree::node("a", [Tree::leaf("b")]));
    }

    #[test]
    fn equalities() {
        let d = Document::new(&sample());
        // Two <b/> leaves under node 1 are deep- and atomically equal.
        assert!(d.deep_eq(NodeId(2), NodeId(3)));
        assert_eq!(d.atomic_eq(NodeId(2), NodeId(3)), Some(true));
        // <a><b/><b/></a> vs <a/> differ deeply; atomic eq undefined.
        assert!(!d.deep_eq(NodeId(1), NodeId(4)));
        assert_eq!(d.atomic_eq(NodeId(1), NodeId(4)), None);
        // <a><b/></a> under c vs <a><b/><b/></a>: unequal child counts.
        assert!(!d.deep_eq(NodeId(1), NodeId(6)));
    }
}
