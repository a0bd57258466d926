//! The arena-backed, label-interned document store.
//!
//! Koch's complexity bounds (PODS 2005) are stated over data trees whose
//! *size* dominates everything; the [`Tree`] representation spends that
//! budget on one `Arc<TreeNode>` allocation per node and one `Arc<str>` per
//! label. This module provides the flat alternative suggested by the §5.1
//! path-set encoding (and the flat-value encoding of Prop 6.1): all node
//! data lives in contiguous, [`NodeId`]-indexed parallel vectors, and
//! labels are interned process-wide into `u32` [`LabelId`]s, making
//! label equality a single integer compare.
//!
//! Layout of an [`ArenaDoc`] (ids are assigned in preorder, so comparing
//! ids compares document order):
//!
//! ```text
//! labels:       Vec<LabelId>     one per node, resolved via the interner
//! parents:      Vec<u32>         parent id (root stores NO_PARENT)
//! child_spans:  Vec<Range<u32>>  per-node contiguous span into child_ids
//! child_ids:    Vec<NodeId>      all child lists, concatenated
//! subtree_ends: Vec<u32>         preorder end of each node's subtree
//! ```
//!
//! The descendants of `v` are exactly the id range
//! `v+1 .. subtree_ends[v]`, so a descendant axis scan is a linear walk
//! over a `u32` range with no pointer chasing and no refcount
//! traffic — the core of the T15 speedup over [`Tree::axis`].
//!
//! **Sharing across threads.** Labels are interned into one *global*,
//! lock-striped [`LabelInterner`]: the label hash selects one of
//! [`LabelInterner::SHARDS`] shards, each an independent
//! `RwLock<Vec<Arc<str>>> + reverse map`, so concurrent interning from
//! many threads contends only when two threads hit the same shard at the
//! same instant, and the common case (the label is already interned) takes
//! a read lock only. A [`LabelId`] therefore means the same label on
//! *every* thread, which makes `ArenaDoc: Send + Sync` — a document can be
//! built on one thread and scanned from many (the basis of
//! `xq_core::par`'s data-parallel evaluation). Hot resolution
//! ([`LabelId::label`]) goes through a per-thread cache of already-resolved
//! [`Label`]s, so repeated serialization never touches the shard locks.

use crate::{Axis, Label, NodeTest, Token, Tree, XmlError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, OnceLock, PoisonError, RwLock};

/// An interned label: a `u32` handle into the global sharded
/// [`LabelInterner`]. Equality and hashing are O(1) integer operations;
/// *ordering* is intentionally not derived, because ids are assigned in
/// interning order, not lexicographic order — compare via [`LabelId::label`].
///
/// The interner is process-global, so a `LabelId` is meaningful on every
/// thread: the same string interns to the same id everywhere, and ids are
/// freely `Send`/`Sync` (they are what makes [`ArenaDoc`] shareable).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelId(u32);

impl LabelId {
    /// Packs a (shard, slot-within-shard) pair into the `u32` handle: the
    /// low [`SHARD_BITS`](LabelInterner::SHARD_BITS) bits address the
    /// shard, so resolution never searches.
    fn from_parts(shard: usize, slot: u32) -> LabelId {
        debug_assert!(shard < LabelInterner::SHARDS);
        LabelId((slot << LabelInterner::SHARD_BITS) | shard as u32)
    }

    fn shard(self) -> usize {
        (self.0 & (LabelInterner::SHARDS as u32 - 1)) as usize
    }

    fn slot(self) -> usize {
        (self.0 >> LabelInterner::SHARD_BITS) as usize
    }

    /// Interns `s` in the global interner and returns its id. The same
    /// string always receives the same id, on every thread.
    pub fn intern(s: impl AsRef<str>) -> LabelId {
        interner().intern(s.as_ref())
    }

    /// Resolves the id back to its [`Label`]. The first resolution on a
    /// thread takes a shard read lock; later ones hit the thread's resolve
    /// cache (an `Arc` clone: one atomic increment).
    pub fn label(self) -> Label {
        RESOLVE_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            let i = self.0 as usize;
            if i >= cache.len() {
                cache.resize(i + 1, None);
            }
            if let Some(l) = &cache[i] {
                return l.clone();
            }
            let label = Label::new(interner().resolve(self));
            cache[i] = Some(label.clone());
            label
        })
    }

    /// The id `s` was interned under, if any — a lookup that, unlike
    /// [`LabelId::intern`], never grows the table. Queries use this: a
    /// never-interned label cannot occur in any document in this process.
    ///
    /// Found ids are cached per thread (ids are immutable once assigned,
    /// so positive entries can never go stale), keeping hot repeated
    /// lookups — e.g. a `ConstEq` condition in an innermost nested loop —
    /// off the shard locks. Misses are *not* cached: another thread may
    /// intern the label later, so a negative answer is only valid at the
    /// moment it is given.
    pub fn lookup(s: &str) -> Option<LabelId> {
        LOOKUP_CACHE.with(|cache| {
            if let Some(&id) = cache.borrow().get(s) {
                return Some(id);
            }
            let found = interner().lookup(s)?;
            cache.borrow_mut().insert(s.to_owned().into(), found);
            Some(found)
        })
    }

    /// The raw handle (useful for dense per-label side tables).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

impl fmt::Debug for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LabelId({} = {:?})", self.0, self.label().as_str())
    }
}

impl From<&str> for LabelId {
    fn from(s: &str) -> LabelId {
        LabelId::intern(s)
    }
}

impl From<&Label> for LabelId {
    fn from(l: &Label) -> LabelId {
        LabelId::intern(l.as_str())
    }
}

/// A compact, thread-portable token: one symbol of a tag string with its
/// label interned. An `IToken` is `Copy` and 4 bytes + discriminant (no
/// refcount traffic at all), so the parallel streaming engine uses it to
/// ship per-chunk token runs back to the merging thread, where
/// [`IToken::resolve`] reconstitutes ordinary tokens.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IToken {
    /// `<a>`
    Open(LabelId),
    /// `</a>`
    Close(LabelId),
}

impl IToken {
    /// Interns the token's label.
    pub fn intern(t: &Token) -> IToken {
        match t {
            Token::Open(l) => IToken::Open(LabelId::intern(l.as_str())),
            Token::Close(l) => IToken::Close(LabelId::intern(l.as_str())),
        }
    }

    /// Resolves back to an ordinary [`Token`].
    pub fn resolve(self) -> Token {
        match self {
            IToken::Open(id) => Token::Open(id.label()),
            IToken::Close(id) => Token::Close(id.label()),
        }
    }
}

/// One lock stripe of the global interner: the labels owned by this shard
/// (slot-indexed) plus the reverse map, as `Arc<str>` so the table is
/// shareable across threads.
#[derive(Default)]
struct Shard {
    labels: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
}

/// The global string ⇄ id table behind [`LabelId`]: an array of
/// [`SHARDS`](LabelInterner::SHARDS) independently locked stripes, selected
/// by label hash. Use the [`LabelId`] associated functions rather than
/// holding an interner directly.
pub struct LabelInterner {
    shards: Vec<RwLock<Shard>>,
}

impl LabelInterner {
    /// log2 of the shard count; the low bits of a [`LabelId`] name the
    /// shard, the high bits the slot within it.
    const SHARD_BITS: u32 = 4;
    /// Number of lock stripes. Interning threads contend only within a
    /// stripe, and each stripe still addresses `2^28` distinct labels.
    pub const SHARDS: usize = 1 << Self::SHARD_BITS;

    fn new() -> LabelInterner {
        LabelInterner {
            shards: (0..Self::SHARDS).map(|_| RwLock::default()).collect(),
        }
    }

    /// FNV-1a over the label bytes — a fixed (per-process-stable) hash, so
    /// shard selection is deterministic and never consults `RandomState`.
    fn shard_of(s: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h & (Self::SHARDS as u64 - 1)) as usize
    }

    fn intern(&self, s: &str) -> LabelId {
        let idx = Self::shard_of(s);
        let shard = &self.shards[idx];
        // Shard locks recover from poisoning rather than propagating it:
        // the table is append-only (push a label, insert its id), so a
        // panic between the two at worst strands one unreachable slot —
        // every id already handed out stays resolvable, which is what a
        // serving pool that *contains* panics needs from process-global
        // state.
        // Fast path: already interned — read lock only.
        if let Some(&slot) = shard
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .ids
            .get(s)
        {
            return LabelId::from_parts(idx, slot);
        }
        let mut shard = shard.write().unwrap_or_else(PoisonError::into_inner);
        // Double-check: another thread may have interned `s` between the
        // read unlock and the write lock.
        if let Some(&slot) = shard.ids.get(s) {
            return LabelId::from_parts(idx, slot);
        }
        let slot = u32::try_from(shard.labels.len())
            .ok()
            .filter(|&n| n < 1 << (32 - Self::SHARD_BITS))
            .expect("too many distinct labels in one interner shard");
        let label: Arc<str> = Arc::from(s);
        shard.labels.push(label.clone());
        shard.ids.insert(label, slot);
        LabelId::from_parts(idx, slot)
    }

    fn lookup(&self, s: &str) -> Option<LabelId> {
        let idx = Self::shard_of(s);
        let shard = self.shards[idx]
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        shard.ids.get(s).map(|&slot| LabelId::from_parts(idx, slot))
    }

    fn resolve(&self, id: LabelId) -> Arc<str> {
        self.shards[id.shard()]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .labels[id.slot()]
        .clone()
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .labels
                    .len()
            })
            .sum()
    }
}

static INTERNER: LazyLock<LabelInterner> = LazyLock::new(LabelInterner::new);

fn interner() -> &'static LabelInterner {
    &INTERNER
}

thread_local! {
    /// Per-thread resolve cache: raw id → already-materialized [`Label`].
    /// Keeps the hot serialization paths (`tokens_of`, `xml_of`) off the
    /// shard locks entirely after the first resolution per label.
    static RESOLVE_CACHE: RefCell<Vec<Option<Label>>> = const { RefCell::new(Vec::new()) };
    /// Per-thread *positive* lookup cache: name → id for labels this
    /// thread has already looked up successfully (see [`LabelId::lookup`]).
    static LOOKUP_CACHE: RefCell<HashMap<Box<str>, LabelId>> = RefCell::new(HashMap::new());
}

/// Number of distinct labels interned process-wide so far (test aid; under
/// concurrent tests this can grow at any time — assert on
/// [`LabelId::lookup`] of specific strings rather than on counts).
pub fn interned_labels() -> usize {
    interner().len()
}

const NO_PARENT: u32 = u32::MAX;

/// Identifier of a node within an [`ArenaDoc`]. Ids are assigned in
/// preorder (document order), so comparing ids compares document order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// An arena-backed document: one tree stored as [`NodeId`]-indexed
/// parallel vectors with interned labels. See the module docs for the
/// layout.
pub struct ArenaDoc {
    labels: Vec<LabelId>,
    parents: Vec<u32>,
    child_spans: Vec<Range<u32>>,
    child_ids: Vec<NodeId>,
    subtree_ends: Vec<u32>,
    /// The node table: entry `i` is node `i`'s subtree as a [`Tree`],
    /// a handle into one shared materialization of the document (entry 0
    /// is the whole document). Built on first use by
    /// [`ArenaDoc::shared_node`] and shared by every thread after that,
    /// so turning a node into a `Tree` is an `Arc` clone. 8 bytes per
    /// node on top of the tree itself.
    nodes: OnceLock<Vec<Tree>>,
    /// Process-unique identity, assigned when construction finishes; see
    /// [`ArenaDoc::id`].
    id: u64,
    // Every field is plain data (`LabelId`s resolve through the global
    // interner) or `Arc`-backed `Tree`s behind a `OnceLock`, so
    // `ArenaDoc` is automatically `Send + Sync` — asserted at compile
    // time in the test suite.
}

/// Incremental preorder construction of an [`ArenaDoc`]: call
/// [`open`](ArenaBuilder::open)/[`close`](ArenaBuilder::close) in tag-string
/// order (or [`leaf`](ArenaBuilder::leaf)), then [`finish`](ArenaBuilder::finish).
/// Generators use this to build documents arena-natively, with no
/// [`Tree`] ever materialized.
pub struct ArenaBuilder {
    doc: ArenaDoc,
    /// Open nodes: (node, offset into `scratch` where its child list
    /// starts). Completed-but-unflushed sibling ids accumulate in the one
    /// shared `scratch` stack, so building performs no per-node
    /// allocation (a fresh `Vec` per open node would).
    stack: Vec<(u32, usize)>,
    scratch: Vec<NodeId>,
    roots: usize,
}

impl Default for ArenaBuilder {
    fn default() -> ArenaBuilder {
        ArenaBuilder::new()
    }
}

impl ArenaBuilder {
    /// An empty builder.
    pub fn new() -> ArenaBuilder {
        ArenaBuilder::with_capacity(0)
    }

    /// An empty builder with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> ArenaBuilder {
        ArenaBuilder {
            doc: ArenaDoc {
                labels: Vec::with_capacity(nodes),
                parents: Vec::with_capacity(nodes),
                child_spans: Vec::with_capacity(nodes),
                child_ids: Vec::with_capacity(nodes.saturating_sub(1)),
                subtree_ends: Vec::with_capacity(nodes),
                nodes: OnceLock::new(),
                id: 0,
            },
            stack: Vec::new(),
            scratch: Vec::new(),
            roots: 0,
        }
    }

    /// Opens a node (`<a>`): assigns the next preorder id.
    pub fn open(&mut self, label: impl Into<LabelId>) -> NodeId {
        let id = u32::try_from(self.doc.labels.len()).expect("more than u32::MAX nodes");
        self.doc.labels.push(label.into());
        self.doc
            .parents
            .push(self.stack.last().map_or(NO_PARENT, |(p, _)| *p));
        self.doc.child_spans.push(0..0);
        self.doc.subtree_ends.push(0);
        if self.stack.is_empty() {
            self.roots += 1;
        }
        self.stack.push((id, self.scratch.len()));
        NodeId(id)
    }

    /// Closes the innermost open node (`</a>`), flushing its child list —
    /// the top `scratch` segment — into the contiguous `child_ids` vector.
    pub fn close(&mut self) {
        let (id, kids_from) = self.stack.pop().expect("close without a matching open");
        let start = self.doc.child_ids.len() as u32;
        self.doc
            .child_ids
            .extend_from_slice(&self.scratch[kids_from..]);
        self.scratch.truncate(kids_from);
        self.doc.child_spans[id as usize] = start..self.doc.child_ids.len() as u32;
        self.doc.subtree_ends[id as usize] = self.doc.labels.len() as u32;
        // Register as a completed sibling for the enclosing node (if any).
        self.scratch.push(NodeId(id));
    }

    /// `open` + `close`: a leaf node (`<a/>`).
    pub fn leaf(&mut self, label: impl Into<LabelId>) -> NodeId {
        let id = self.open(label);
        self.close();
        id
    }

    /// Finishes construction. Panics unless exactly one root was built and
    /// every `open` was closed (malformed input should be rejected earlier,
    /// by [`ArenaDoc::parse`]).
    pub fn finish(mut self) -> ArenaDoc {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        assert!(self.stack.is_empty(), "unclosed node in ArenaBuilder");
        assert_eq!(self.roots, 1, "ArenaDoc holds exactly one root");
        self.doc.id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        self.doc
    }
}

impl ArenaDoc {
    /// This document's process-unique identity: no two documents built in
    /// one process share an id, even documents with equal contents, and
    /// an id is never reused. A document is immutable once built, so a
    /// fact measured on one (say, what a query cost on it) stays true
    /// for as long as its id is seen.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Builds the arena for `tree` (lossless; see [`ArenaDoc::to_tree`]).
    pub fn from_tree(tree: &Tree) -> ArenaDoc {
        let mut b = ArenaBuilder::with_capacity(tree.size() as usize);
        // Explicit stack: (subtree, next-child index); avoids deep recursion
        // on comb-shaped documents.
        let mut stack: Vec<(&Tree, usize)> = Vec::new();
        b.open(tree.label());
        stack.push((tree, 0));
        while let Some((t, next)) = stack.last_mut() {
            if let Some(c) = t.children().get(*next) {
                *next += 1;
                b.open(c.label());
                stack.push((c, 0));
            } else {
                b.close();
                stack.pop();
            }
        }
        b.finish()
    }

    /// Parses an XML document (the paper's tag-string dialect) directly
    /// into the arena — no intermediate [`Tree`] is built. Error messages
    /// are identical to [`parse_tree`](crate::parse_tree)'s on the same
    /// input, so the two representations are interchangeable in error
    /// paths too.
    pub fn parse(src: &str) -> Result<ArenaDoc, XmlError> {
        let tokens = crate::parse::tokenize(src)?;
        ArenaDoc::from_tokens(&tokens)
    }

    /// Rebuilds a single-rooted document from a token stream, with the
    /// same error messages as [`Tree::forest_from_tokens`] plus the
    /// [`parse_tree`](crate::parse_tree) single-root check.
    pub fn from_tokens(tokens: &[Token]) -> Result<ArenaDoc, XmlError> {
        let mut b = ArenaBuilder::with_capacity(tokens.len() / 2);
        // Open labels, for the mismatch/unclosed diagnostics.
        let mut open: Vec<Label> = Vec::new();
        for (i, tok) in tokens.iter().enumerate() {
            match tok {
                Token::Open(l) => {
                    b.open(l);
                    open.push(l.clone());
                }
                Token::Close(l) => {
                    let top = open.pop().ok_or_else(|| XmlError {
                        offset: i,
                        message: format!("unmatched closing tag </{l}>"),
                    })?;
                    if &top != l {
                        return Err(XmlError {
                            offset: i,
                            message: format!("mismatched tags: <{top}> closed by </{l}>"),
                        });
                    }
                    b.close();
                }
            }
        }
        if let Some(l) = open.last() {
            return Err(XmlError {
                offset: tokens.len(),
                message: format!("unclosed tag <{l}>"),
            });
        }
        if b.roots != 1 {
            return Err(XmlError {
                offset: 0,
                message: format!("expected exactly one root element, found {}", b.roots),
            });
        }
        Ok(b.finish())
    }

    /// The root node (always id 0).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True iff the document has no nodes (never after a successful build).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The interned label of `id` — O(1) to compare against another node's.
    pub fn label_id(&self, id: NodeId) -> LabelId {
        self.labels[id.0 as usize]
    }

    /// The resolved label of `id`.
    pub fn label(&self, id: NodeId) -> Label {
        self.label_id(id).label()
    }

    /// The parent of `id`, if any.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        match self.parents[id.0 as usize] {
            NO_PARENT => None,
            p => Some(NodeId(p)),
        }
    }

    /// The children of `id` in document order, as a contiguous slice.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let span = self.child_spans[id.0 as usize].clone();
        &self.child_ids[span.start as usize..span.end as usize]
    }

    /// Whether `id` is a leaf.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        let span = &self.child_spans[id.0 as usize];
        span.start == span.end
    }

    /// Proper descendants of `id` in document order — a pure id-range scan.
    pub fn descendants(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        (id.0 + 1..self.subtree_ends[id.0 as usize]).map(NodeId)
    }

    /// Whether `desc` lies in the subtree rooted at `anc` (inclusive).
    pub fn is_in_subtree(&self, anc: NodeId, desc: NodeId) -> bool {
        anc.0 <= desc.0 && desc.0 < self.subtree_ends[anc.0 as usize]
    }

    /// Number of nodes in the subtree of `id` (inclusive).
    pub fn subtree_len(&self, id: NodeId) -> usize {
        (self.subtree_ends[id.0 as usize] - id.0) as usize
    }

    /// Height of the subtree of `id` (a leaf has height 1). Iterative:
    /// height(v) = 1 + max(height(children)), computed in reverse preorder.
    pub fn height(&self, id: NodeId) -> u64 {
        let start = id.0 as usize;
        let end = self.subtree_ends[start] as usize;
        let mut h = vec![1u64; end - start];
        for v in (start..end).rev() {
            for c in self.children(NodeId(v as u32)) {
                h[v - start] = h[v - start].max(1 + h[c.0 as usize - start]);
            }
        }
        h[0]
    }

    /// The nodes reached from `id` via `axis` whose labels pass `test`, in
    /// document order — the node ids of [`Tree::axis`]'s matches.
    pub fn axis(&self, id: NodeId, axis: Axis, test: &NodeTest) -> Vec<NodeId> {
        // Node tests resolve to one interned-id compare (or none for `*`).
        // Lookup only — querying a foreign tag must not grow the interner,
        // and a never-interned tag matches nothing.
        let want: Option<LabelId> = match test {
            NodeTest::Tag(l) => match LabelId::lookup(l.as_str()) {
                Some(w) => Some(w),
                None => return Vec::new(),
            },
            NodeTest::Wildcard => None,
        };
        let pass = |n: NodeId| want.is_none_or(|w| self.label_id(n) == w);
        let mut out = Vec::new();
        match axis {
            Axis::Child => out.extend(self.children(id).iter().copied().filter(|&c| pass(c))),
            Axis::Descendant => out.extend(self.descendants(id).filter(|&c| pass(c))),
            Axis::SelfAxis => {
                if pass(id) {
                    out.push(id);
                }
            }
            Axis::DescendantOrSelf => {
                if pass(id) {
                    out.push(id);
                }
                out.extend(self.descendants(id).filter(|&c| pass(c)));
            }
        }
        out
    }

    /// Deep (value) equality of the subtrees at `a` and `b`. Interning
    /// makes the per-node label compare O(1); the shape compare walks the
    /// two preorder ranges in lockstep.
    pub fn deep_eq(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return true;
        }
        let n = self.subtree_len(a);
        if n != self.subtree_len(b) {
            return false;
        }
        // Equal-size preorder ranges are equal trees iff labels and child
        // counts agree position-wise.
        (0..n as u32).all(|i| {
            let (x, y) = (NodeId(a.0 + i), NodeId(b.0 + i));
            self.label_id(x) == self.label_id(y) && self.children(x).len() == self.children(y).len()
        })
    }

    /// Equality of atoms: both nodes must be leaves; compares labels.
    /// `None` when either node is not a leaf. This is the atoms-only
    /// notion, not Core XQuery's `=atomic`, which Figure 1 defines on any
    /// two trees as equality of their root labels.
    pub fn atomic_eq(&self, a: NodeId, b: NodeId) -> Option<bool> {
        if self.is_leaf(a) && self.is_leaf(b) {
            Some(self.label_id(a) == self.label_id(b))
        } else {
            None
        }
    }

    /// The tag string of the subtree at `id` (cf. [`Tree::tokens`]).
    pub fn tokens_of(&self, id: NodeId) -> Vec<Token> {
        let mut out = Vec::with_capacity(2 * self.subtree_len(id));
        self.walk(id, |_, label, open| {
            out.push(if open {
                Token::Open(label)
            } else {
                Token::Close(label)
            })
        });
        out
    }

    /// The tag string of the whole document.
    pub fn tokens(&self) -> Vec<Token> {
        self.tokens_of(self.root())
    }

    /// Serializes the subtree at `id` to XML text, byte-identical to
    /// [`Tree::to_xml`] on the converted tree (leaves print as `<a/>`).
    pub fn xml_of(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.walk(id, |leaf, label, open| {
            if open {
                out.push('<');
                out.push_str(label.as_str());
                out.push_str(if leaf { "/>" } else { ">" });
            } else if !leaf {
                out.push_str("</");
                out.push_str(label.as_str());
                out.push('>');
            }
        });
        out
    }

    /// Serializes the whole document to XML text.
    pub fn to_xml(&self) -> String {
        self.xml_of(self.root())
    }

    /// Materializes the subtree at `id` as a [`Tree`]. Iterative, in
    /// reverse preorder: by the time `v` is visited every child tree is
    /// already built.
    pub fn subtree(&self, id: NodeId) -> Tree {
        let start = id.0 as usize;
        let end = self.subtree_ends[start] as usize;
        let mut built: Vec<Option<Tree>> = vec![None; end - start];
        for v in (start..end).rev() {
            let children: Vec<Tree> = self
                .children(NodeId(v as u32))
                .iter()
                .map(|c| built[c.0 as usize - start].take().expect("child built"))
                .collect();
            built[v - start] = Some(Tree::node(self.label(NodeId(v as u32)), children));
        }
        built[0].take().expect("root built")
    }

    /// Converts the whole document back to a [`Tree`]
    /// (`ArenaDoc::from_tree` ∘ `to_tree` is the identity — tested).
    /// Builds a fresh tree on every call; evaluators that only need the
    /// document as a tree use [`ArenaDoc::shared_tree`] instead.
    pub fn to_tree(&self) -> Tree {
        self.subtree(self.root())
    }

    /// The whole document as a [`Tree`], materialized once per document:
    /// entry 0 of the node table (see [`ArenaDoc::shared_node`]).
    pub fn shared_tree(&self) -> &Tree {
        self.shared_node(self.root())
    }

    /// The subtree at `id` as a [`Tree`], from the node table built once
    /// per document: the first call materializes every node's subtree
    /// (one shared tree, plus a handle per node), and every later call —
    /// from any thread — borrows from it, so equal ids give pointer-equal
    /// trees and a clone is one `Arc` increment. Racing first calls build
    /// the table once; the others wait for that build. Equal to
    /// [`ArenaDoc::subtree`], which builds a fresh copy instead.
    pub fn shared_node(&self, id: NodeId) -> &Tree {
        &self.nodes.get_or_init(|| self.node_table())[id.0 as usize]
    }

    /// Builds the node table in reverse preorder: by the time `v` is
    /// visited every child's entry exists, and `v`'s tree shares them.
    fn node_table(&self) -> Vec<Tree> {
        let mut built: Vec<Option<Tree>> = vec![None; self.len()];
        for v in (0..self.len()).rev() {
            let id = NodeId(v as u32);
            let children: Vec<Tree> = self
                .children(id)
                .iter()
                .map(|c| built[c.0 as usize].clone().expect("child built"))
                .collect();
            built[v] = Some(Tree::node(self.label(id), children));
        }
        built
            .into_iter()
            .map(|t| t.expect("every node built"))
            .collect()
    }

    /// Iterative preorder tag-string walk — the one traversal behind
    /// [`ArenaDoc::tokens_of`] and [`ArenaDoc::xml_of`]: calls
    /// `f(leaf, label, true)` at each opening tag and `f(leaf, label,
    /// false)` at the matching closing tag (leaves get both calls
    /// back-to-back; serializers may collapse them). Each node's label is
    /// resolved once, at its opening tag, and carried to its closing tag.
    fn walk(&self, id: NodeId, mut f: impl FnMut(bool, Label, bool)) {
        // `None` closes the innermost open element, whose label is on top
        // of `open`.
        let mut stack = vec![Some(id)];
        let mut open = Vec::new();
        while let Some(ev) = stack.pop() {
            let Some(v) = ev else {
                f(false, open.pop().expect("open element"), false);
                continue;
            };
            let (label, children) = (self.label(v), self.children(v));
            if children.is_empty() {
                f(true, label.clone(), true);
                f(true, label, false);
            } else {
                f(false, label.clone(), true);
                open.push(label);
                stack.push(None);
                stack.extend(children.iter().rev().map(|&c| Some(c)));
            }
        }
    }
}

impl fmt::Display for ArenaDoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

impl fmt::Debug for ArenaDoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ArenaDoc[{} nodes] {}", self.len(), self.to_xml())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_tree;

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
    fn interning_is_idempotent_and_o1_equal() {
        // The interner is global and other tests intern concurrently, so
        // assert on specific ids, never on table counts.
        let a1 = LabelId::intern("a");
        let a2 = LabelId::intern("a");
        let b = LabelId::intern("b");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(a1.label().as_str(), "a");
        assert_eq!(b.label(), Label::from("b"));
        assert_eq!(LabelId::lookup("a"), Some(a1));
        assert!(interned_labels() >= 2);
    }

    #[test]
    fn axis_queries_do_not_grow_the_interner() {
        // This tag string appears nowhere else in the workspace, so the
        // only way it could enter the (global) interner is a bug in the
        // lookup-only query path below.
        let foreign = "never-interned-tag-axis-query";
        let doc = ArenaDoc::from_tree(&sample());
        let hits = doc.axis(doc.root(), Axis::Descendant, &NodeTest::tag(foreign));
        assert!(hits.is_empty());
        assert_eq!(
            LabelId::lookup(foreign),
            None,
            "querying a foreign tag must not intern it"
        );
    }

    #[test]
    fn arena_and_label_ids_are_send_and_sync() {
        // Compile-time proof obligations for the data-parallel layer: the
        // arena store and everything workers ship across threads, plus
        // `Tree` itself (the planner builds shared values — the `$root`
        // tree, hoisted `let` bindings — once and clones per worker).
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LabelId>();
        assert_send_sync::<ArenaDoc>();
        assert_send_sync::<IToken>();
        assert_send_sync::<LabelInterner>();
        assert_send_sync::<Tree>();
    }

    #[test]
    fn node_table_is_built_once_across_racing_threads() {
        let doc = ArenaDoc::from_tree(&sample());
        let barrier = std::sync::Barrier::new(8);
        // Each thread records the address of every node's handle.
        let addrs: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        (0..doc.len() as u32)
                            .map(|i| doc.shared_node(NodeId(i)) as *const Tree as usize)
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(addrs.iter().all(|a| *a == addrs[0]), "{addrs:?}");
        assert!(std::ptr::eq(doc.shared_tree(), doc.shared_node(doc.root())));
        assert_eq!(doc.shared_tree() as *const Tree as usize, addrs[0][0]);
        assert_eq!(*doc.shared_tree(), doc.to_tree());
        assert_eq!(*doc.shared_tree(), sample());
    }

    #[test]
    fn node_table_entries_equal_fresh_subtrees() {
        let mut g = crate::TreeGen::new(7);
        for size in [1, 2, 5, 40, 200] {
            let doc = ArenaDoc::from_tree(&crate::random_tree(&mut g, size, &["a", "b", "k"]));
            for i in 0..doc.len() as u32 {
                let id = NodeId(i);
                assert_eq!(*doc.shared_node(id), doc.subtree(id), "node {i} of {doc}");
                // A child's entry is the very handle its parent holds.
                for (c, t) in doc.children(id).iter().zip(doc.shared_node(id).children()) {
                    assert!(std::ptr::eq(
                        doc.shared_node(*c).children().as_ptr(),
                        t.children().as_ptr()
                    ));
                }
            }
        }
    }

    /// The subtrees of `t` in preorder: entry `i` is node `i`.
    fn preorder(t: &Tree) -> Vec<Tree> {
        t.axis(Axis::DescendantOrSelf)
    }

    #[test]
    fn ids_are_preorder_and_links_match_the_tree() {
        let t = sample();
        let a = ArenaDoc::from_tree(&t);
        let nodes = preorder(&t);
        assert_eq!(a.len(), nodes.len());
        assert_eq!(a.parent(a.root()), None);
        for (i, node) in nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            assert_eq!(a.subtree(id), *node, "subtree of {i}");
            assert_eq!(a.label(id), *node.label(), "label of {i}");
            assert_eq!(a.is_leaf(id), node.is_leaf(), "leafness of {i}");
            let children: Vec<Tree> = a.children(id).iter().map(|&c| a.subtree(c)).collect();
            assert_eq!(children, node.children(), "children of {i}");
            assert!(a.children(id).iter().all(|&c| a.parent(c) == Some(id)));
            let desc: Vec<Tree> = a.descendants(id).map(|d| a.subtree(d)).collect();
            assert_eq!(desc, node.descendants(), "descendants of {i}");
        }
    }

    #[test]
    fn axes_match_the_tree_on_every_node_and_test() {
        let t = sample();
        let a = ArenaDoc::from_tree(&t);
        let tests = [
            NodeTest::Wildcard,
            NodeTest::tag("a"),
            NodeTest::tag("b"),
            NodeTest::tag("zzz"),
        ];
        for (i, node) in preorder(&t).iter().enumerate() {
            for axis in [
                Axis::Child,
                Axis::Descendant,
                Axis::SelfAxis,
                Axis::DescendantOrSelf,
            ] {
                for test in &tests {
                    let got: Vec<Tree> = a
                        .axis(NodeId(i as u32), axis, test)
                        .into_iter()
                        .map(|n| a.subtree(n))
                        .collect();
                    let mut want = node.axis(axis);
                    want.retain(|s| test.matches(s.label()));
                    assert_eq!(got, want, "axis {axis} test {test} at node {i}");
                }
            }
        }
    }

    #[test]
    fn tree_round_trip_is_identity() {
        let t = sample();
        let a = ArenaDoc::from_tree(&t);
        assert_eq!(a.to_tree(), t);
        assert_eq!(a.subtree(NodeId(6)), Tree::node("a", [Tree::leaf("b")]));
    }

    #[test]
    fn parse_and_serialize_directly() {
        let src = "<c><d/><a/><a><c/></a></c>";
        let a = ArenaDoc::parse(src).unwrap();
        assert_eq!(a.to_xml(), src);
        assert_eq!(a.tokens(), parse_tree(src).unwrap().tokens());
        assert_eq!(a.to_tree(), parse_tree(src).unwrap());
    }

    #[test]
    fn parse_rejects_with_tree_identical_messages() {
        for bad in ["<a>", "</a>", "<a></b>", "<a>text</a>", "<a/><b/>", "<a"] {
            let via_tree = parse_tree(bad).unwrap_err();
            let via_arena = ArenaDoc::parse(bad).unwrap_err();
            assert_eq!(via_arena, via_tree, "error for {bad:?}");
        }
    }

    #[test]
    fn equalities_match_the_tree() {
        let t = sample();
        let a = ArenaDoc::from_tree(&t);
        let nodes = preorder(&t);
        for (x, s) in nodes.iter().enumerate() {
            for (y, u) in nodes.iter().enumerate() {
                let (x, y) = (NodeId(x as u32), NodeId(y as u32));
                assert_eq!(a.deep_eq(x, y), s == u, "deep_eq {x:?} {y:?}");
                let atoms = (s.is_leaf() && u.is_leaf()).then(|| s.label() == u.label());
                assert_eq!(a.atomic_eq(x, y), atoms, "atomic_eq {x:?} {y:?}");
            }
        }
    }

    #[test]
    fn metrics() {
        let a = ArenaDoc::from_tree(&sample());
        assert_eq!(a.len(), 8);
        assert_eq!(a.subtree_len(a.root()), 8);
        assert_eq!(a.subtree_len(NodeId(5)), 3);
        assert_eq!(a.height(a.root()), 4);
        assert_eq!(a.height(NodeId(4)), 1);
        assert!(a.is_in_subtree(NodeId(5), NodeId(7)));
        assert!(!a.is_in_subtree(NodeId(1), NodeId(4)));
    }

    #[test]
    fn builder_builds_the_remark_6_7_document() {
        // <c><d/><a/><a><c/></a></c>, built by hand.
        let mut b = ArenaBuilder::new();
        b.open("c");
        b.leaf("d");
        b.leaf("a");
        b.open("a");
        b.leaf("c");
        b.close();
        b.close();
        let a = b.finish();
        assert_eq!(a.to_xml(), "<c><d/><a/><a><c/></a></c>");
    }
}
