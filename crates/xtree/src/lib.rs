//! Unranked ordered node-labeled trees — the XML data model of Core XQuery
//! (Koch, PODS 2005, §3).
//!
//! The paper works with *pure node-labeled unranked ordered trees*: no
//! attributes, no text nodes; atomic values are leaves (equivalently, their
//! labels). An XML document is the tag string of such a tree, written with
//! opening and closing tags only (`<a>...</a>`, abbreviated `<a/>` for
//! leaves).
//!
//! Three representations are provided, with conversions between them:
//!
//! * [`Tree`] — a recursive, immutable, cheaply clonable tree (used by the
//!   Figure 1 denotational semantics, which passes whole subtrees around);
//! * [`ArenaDoc`] — the document store every other engine reads: parallel
//!   preorder [`NodeId`]-indexed vectors with parent links, contiguous
//!   child spans and interned [`LabelId`] labels (O(1) label equality, no
//!   per-node allocation). Composition-free variables range over its
//!   nodes — *input-tree nodes*, Prop 7.3;
//! * token streams of [`Token`]s (used by the streaming evaluator of
//!   Theorem 4.5 and the string-positional semantics of Theorem 6.6).

mod arena;
mod generate;
mod parse;
mod tree;

pub use arena::{interned_labels, ArenaBuilder, ArenaDoc, LabelId, LabelInterner, NodeId};
pub use generate::{random_arena_document, random_forest, random_tree, DoublingFamily, TreeGen};
pub use parse::{parse_forest, parse_tree, XmlError};
pub use tree::{Label, Token, Tree};

/// The XPath axes considered in the paper: `child` and `descendant` are the
/// core ones (§3, footnote 7); `self` and `descendant-or-self` ("dos")
/// appear in the composition-elimination rewriting of §7.2.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Axis {
    /// Children of the context node, in document order.
    Child,
    /// Proper descendants of the context node, in document order.
    Descendant,
    /// The context node itself.
    SelfAxis,
    /// The context node followed by its proper descendants ("dos").
    DescendantOrSelf,
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::SelfAxis => "self",
            Axis::DescendantOrSelf => "dos",
        })
    }
}

/// A node test: either a specific tag name or the wildcard `*`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum NodeTest {
    /// Matches nodes with exactly this label.
    Tag(Label),
    /// `*`: matches every node.
    Wildcard,
}

impl NodeTest {
    /// Builds a tag node test.
    pub fn tag(s: impl Into<Label>) -> NodeTest {
        NodeTest::Tag(s.into())
    }

    /// Whether this test accepts a node labeled `label`.
    pub fn matches(&self, label: &Label) -> bool {
        match self {
            NodeTest::Tag(t) => t == label,
            NodeTest::Wildcard => true,
        }
    }
}

impl std::fmt::Display for NodeTest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeTest::Tag(t) => write!(f, "{t}"),
            NodeTest::Wildcard => f.write_str("*"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_test_matching() {
        let a = Label::from("a");
        let b = Label::from("b");
        assert!(NodeTest::tag("a").matches(&a));
        assert!(!NodeTest::tag("a").matches(&b));
        assert!(NodeTest::Wildcard.matches(&a));
        assert_eq!(NodeTest::Wildcard.to_string(), "*");
        assert_eq!(NodeTest::tag("x").to_string(), "x");
    }

    #[test]
    fn axis_display() {
        assert_eq!(Axis::Child.to_string(), "child");
        assert_eq!(Axis::DescendantOrSelf.to_string(), "dos");
    }
}
