//! The recursive tree representation and its tag-string form.

use std::fmt;
use std::sync::Arc;

/// A node label (XML tag name). Cheap to clone; compared by symbol.
/// `Arc`-backed so labels (and the tokens/query plans holding them) can
/// cross threads.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(Arc<str>);

impl Label {
    /// Creates a label for the given tag name.
    pub fn new(s: impl AsRef<str>) -> Label {
        Label(Arc::from(s.as_ref()))
    }

    /// The tag name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Label {
        Label::new(s)
    }
}

impl From<String> for Label {
    fn from(s: String) -> Label {
        Label(Arc::from(s))
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({:?})", self.as_str())
    }
}

impl std::borrow::Borrow<str> for Label {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

/// One symbol of a tag string: an opening or closing tag (§4.2's `Symbol`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Token {
    /// `<a>`
    Open(Label),
    /// `</a>`
    Close(Label),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Open(l) => write!(f, "<{l}>"),
            Token::Close(l) => write!(f, "</{l}>"),
        }
    }
}

struct TreeNode {
    label: Label,
    children: Vec<Tree>,
}

/// An immutable unranked ordered labeled tree with refcount-cheap clones.
///
/// Equality is deep value equality of trees, which per §3 is the same as
/// equality of the corresponding tag strings.
///
/// Nodes are `Arc`-backed, so a `Tree` is `Send + Sync`: the data-parallel
/// evaluators build shared values (notably the `$root` tree) **once** and
/// hand each worker a pointer-bump clone, instead of materializing one
/// copy per worker. Clones stay O(1), but each clone and drop is an
/// atomic refcount operation, and in a hot loop those add up: on the
/// serving benchmark's `heavy-eval` cross-join they were about half of
/// the bytecode VM's evaluation time before the VM switched to borrowing
/// document subtrees. Code that only reads a tree should borrow it.
#[derive(Clone)]
pub struct Tree(Arc<TreeNode>);

impl Tree {
    /// A leaf node (an atomic value in the paper's sense).
    pub fn leaf(label: impl Into<Label>) -> Tree {
        Tree::node(label, Vec::new())
    }

    /// An inner node with the given children, in order.
    pub fn node(label: impl Into<Label>, children: impl IntoIterator<Item = Tree>) -> Tree {
        Tree(Arc::new(TreeNode {
            label: label.into(),
            children: children.into_iter().collect(),
        }))
    }

    /// The label of the root node.
    pub fn label(&self) -> &Label {
        &self.0.label
    }

    /// The child subtrees, in document order.
    pub fn children(&self) -> &[Tree] {
        &self.0.children
    }

    /// True iff the node has no children (is an atomic value).
    pub fn is_leaf(&self) -> bool {
        self.0.children.is_empty()
    }

    /// All proper descendant subtrees in document (preorder) order.
    pub fn descendants(&self) -> Vec<Tree> {
        let mut out = Vec::new();
        fn walk(t: &Tree, out: &mut Vec<Tree>) {
            for c in t.children() {
                out.push(c.clone());
                walk(c, out);
            }
        }
        walk(self, &mut out);
        out
    }

    /// The subtrees selected from this node by `axis`, in document order.
    pub fn axis(&self, axis: crate::Axis) -> Vec<Tree> {
        match axis {
            crate::Axis::Child => self.children().to_vec(),
            crate::Axis::Descendant => self.descendants(),
            crate::Axis::SelfAxis => vec![self.clone()],
            crate::Axis::DescendantOrSelf => {
                let mut out = vec![self.clone()];
                out.extend(self.descendants());
                out
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> u64 {
        1 + self.children().iter().map(Tree::size).sum::<u64>()
    }

    /// Height of the tree (a leaf has height 1).
    pub fn height(&self) -> u64 {
        1 + self.children().iter().map(Tree::height).max().unwrap_or(0)
    }

    /// The tag string of the tree, e.g. `<a><b></b></a>`.
    pub fn tokens(&self) -> Vec<Token> {
        let mut out = Vec::with_capacity(2 * self.size() as usize);
        self.push_tokens(&mut out);
        out
    }

    fn push_tokens(&self, out: &mut Vec<Token>) {
        out.push(Token::Open(self.label().clone()));
        for c in self.children() {
            c.push_tokens(out);
        }
        out.push(Token::Close(self.label().clone()));
    }

    /// Serializes to XML text. Leaves print as `<a/>`.
    pub fn to_xml(&self) -> String {
        let mut s = String::new();
        self.write_xml(&mut s);
        s
    }

    /// Appends the XML text of [`Tree::to_xml`] to `out`, so a forest
    /// serializes into one buffer.
    pub fn write_xml(&self, out: &mut String) {
        if self.is_leaf() {
            out.push('<');
            out.push_str(self.label().as_str());
            out.push_str("/>");
        } else {
            out.push('<');
            out.push_str(self.label().as_str());
            out.push('>');
            for c in self.children() {
                c.write_xml(out);
            }
            out.push_str("</");
            out.push_str(self.label().as_str());
            out.push('>');
        }
    }

    /// Rebuilds a forest (list of trees) from a well-formed token stream.
    pub fn forest_from_tokens(tokens: &[Token]) -> Result<Vec<Tree>, crate::XmlError> {
        #[derive(Debug)]
        struct Frame {
            label: Label,
            children: Vec<Tree>,
        }
        let mut stack: Vec<Frame> = Vec::new();
        let mut roots: Vec<Tree> = Vec::new();
        for (i, tok) in tokens.iter().enumerate() {
            match tok {
                Token::Open(l) => stack.push(Frame {
                    label: l.clone(),
                    children: Vec::new(),
                }),
                Token::Close(l) => {
                    let frame = stack.pop().ok_or_else(|| crate::XmlError {
                        offset: i,
                        message: format!("unmatched closing tag </{l}>"),
                    })?;
                    if &frame.label != l {
                        return Err(crate::XmlError {
                            offset: i,
                            message: format!("mismatched tags: <{}> closed by </{l}>", frame.label),
                        });
                    }
                    let t = Tree::node(frame.label, frame.children);
                    match stack.last_mut() {
                        Some(parent) => parent.children.push(t),
                        None => roots.push(t),
                    }
                }
            }
        }
        if let Some(f) = stack.last() {
            return Err(crate::XmlError {
                offset: tokens.len(),
                message: format!("unclosed tag <{}>", f.label),
            });
        }
        Ok(roots)
    }
}

impl PartialEq for Tree {
    fn eq(&self, other: &Tree) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.label() == other.label() && self.children() == other.children())
    }
}

impl Eq for Tree {}

impl PartialOrd for Tree {
    fn partial_cmp(&self, other: &Tree) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tree {
    fn cmp(&self, other: &Tree) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return std::cmp::Ordering::Equal;
        }
        self.label()
            .cmp(other.label())
            .then_with(|| self.children().cmp(other.children()))
    }
}

impl std::hash::Hash for Tree {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.label().hash(state);
        self.children().hash(state);
    }
}

impl fmt::Display for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_xml())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Axis;

    fn sample() -> Tree {
        // <c><d/><a/><a><c/></a></c> — the Remark 6.7 example document.
        Tree::node(
            "c",
            [
                Tree::leaf("d"),
                Tree::leaf("a"),
                Tree::node("a", [Tree::leaf("c")]),
            ],
        )
    }

    #[test]
    fn xml_serialization_matches_paper_example() {
        assert_eq!(sample().to_xml(), "<c><d/><a/><a><c/></a></c>");
    }

    #[test]
    fn tokens_round_trip() {
        let t = sample();
        let toks = t.tokens();
        assert_eq!(toks.len(), 2 * t.size() as usize);
        let forest = Tree::forest_from_tokens(&toks).unwrap();
        assert_eq!(forest, vec![t]);
    }

    #[test]
    fn forest_from_tokens_accepts_multiple_roots() {
        let t1 = Tree::leaf("a");
        let t2 = Tree::node("b", [Tree::leaf("c")]);
        let mut toks = t1.tokens();
        toks.extend(t2.tokens());
        assert_eq!(Tree::forest_from_tokens(&toks).unwrap(), vec![t1, t2]);
    }

    #[test]
    fn forest_from_tokens_rejects_ill_formed() {
        use Token::*;
        let l = |s: &str| Label::from(s);
        assert!(Tree::forest_from_tokens(&[Close(l("a"))]).is_err());
        assert!(Tree::forest_from_tokens(&[Open(l("a"))]).is_err());
        assert!(Tree::forest_from_tokens(&[Open(l("a")), Close(l("b"))]).is_err());
    }

    #[test]
    fn axes() {
        let t = sample();
        assert_eq!(t.axis(Axis::Child).len(), 3);
        assert_eq!(t.axis(Axis::SelfAxis), vec![t.clone()]);
        // Descendants in document order: d, a, a, c
        let d: Vec<String> = t
            .axis(Axis::Descendant)
            .iter()
            .map(|x| x.label().to_string())
            .collect();
        assert_eq!(d, vec!["d", "a", "a", "c"]);
        assert_eq!(t.axis(Axis::DescendantOrSelf).len(), 5);
    }

    #[test]
    fn deep_equality_is_structural() {
        let t1 = Tree::node("a", [Tree::leaf("b"), Tree::leaf("c")]);
        let t2 = Tree::node("a", [Tree::leaf("b"), Tree::leaf("c")]);
        let t3 = Tree::node("a", [Tree::leaf("c"), Tree::leaf("b")]);
        assert_eq!(t1, t2);
        assert_ne!(t1, t3, "trees are ordered");
    }

    #[test]
    fn metrics() {
        let t = sample();
        assert_eq!(t.size(), 5);
        assert_eq!(t.height(), 3);
        assert!(Tree::leaf("x").is_leaf());
        assert!(!t.is_leaf());
    }

    #[test]
    fn token_display() {
        assert_eq!(Token::Open(Label::from("a")).to_string(), "<a>");
        assert_eq!(Token::Close(Label::from("a")).to_string(), "</a>");
    }
}
