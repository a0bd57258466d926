//! Deterministic pseudo-random tree generation for tests and benchmarks.
//!
//! Uses a small embedded linear-congruential generator rather than an
//! external RNG so that generated workloads are reproducible across crates
//! without dependency coupling; the bench crate seeds it per experiment.

use crate::{ArenaBuilder, ArenaDoc, Document, Label, LabelId, Tree};

/// A tiny splitmix64-based generator for reproducible workloads.
#[derive(Clone, Debug)]
pub struct TreeGen {
    state: u64,
}

impl TreeGen {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> TreeGen {
        TreeGen {
            state: seed.wrapping_add(0x9E3779B97F4A7C15),
        }
    }

    /// Next raw 64-bit value (splitmix64 step).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` must be nonzero).
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0) is meaningless");
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform choice from a slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Bernoulli trial with probability `num/denom`.
    pub fn chance(&mut self, num: usize, denom: usize) -> bool {
        self.below(denom) < num
    }
}

/// The shared random structure behind [`random_tree`] and
/// [`random_arena_document`]: parent pointers and per-node label strings,
/// drawn in a fixed RNG order so both representations of the same seed
/// describe the *same* document. The shape is a random recursive tree:
/// each new node attaches to a random recent node (biased so depth grows),
/// yielding realistic document-ish shapes.
fn random_structure<'a>(
    gen: &mut TreeGen,
    size: usize,
    labels: &[&'a str],
) -> (Vec<Vec<usize>>, Vec<&'a str>) {
    assert!(size >= 1, "a tree has at least one node");
    assert!(!labels.is_empty(), "need at least one label");
    let mut parents: Vec<usize> = vec![0; size];
    for (i, p) in parents.iter_mut().enumerate().skip(1) {
        // Attach to one of the last ~8 nodes to keep depth interesting.
        let window = 8.min(i);
        *p = i - 1 - gen.below(window);
    }
    let node_labels: Vec<&str> = (0..size).map(|_| *gen.choose(labels)).collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); size];
    for (i, &p) in parents.iter().enumerate().skip(1) {
        children[p].push(i);
    }
    (children, node_labels)
}

/// Generates a random tree with exactly `size` nodes and labels drawn
/// from `labels`. Deterministic per seed; [`random_arena_document`] with
/// the same generator state produces the identical document arena-natively.
pub fn random_tree(gen: &mut TreeGen, size: usize, labels: &[&str]) -> Tree {
    let (children, node_labels) = random_structure(gen, size, labels);
    fn build(i: usize, labels: &[&str], children: &[Vec<usize>]) -> Tree {
        Tree::node(
            Label::from(labels[i]),
            children[i].iter().map(|&c| build(c, labels, children)),
        )
    }
    build(0, &node_labels, &children)
}

/// Generates a forest of `count` random trees of `size` nodes each.
pub fn random_forest(gen: &mut TreeGen, count: usize, size: usize, labels: &[&str]) -> Vec<Tree> {
    (0..count).map(|_| random_tree(gen, size, labels)).collect()
}

/// Generates a random document (arena form).
pub fn random_document(gen: &mut TreeGen, size: usize, labels: &[&str]) -> Document {
    Document::new(&random_tree(gen, size, labels))
}

/// [`random_tree`], but built directly into an [`ArenaDoc`]: no `Rc` tree
/// is ever materialized. Consumes the generator exactly like
/// [`random_tree`], so for equal seeds
/// `random_arena_document(g, …).to_tree() == random_tree(g, …)`.
pub fn random_arena_document(gen: &mut TreeGen, size: usize, labels: &[&str]) -> ArenaDoc {
    let (children, node_labels) = random_structure(gen, size, labels);
    let mut b = ArenaBuilder::with_capacity(size);
    let ids: Vec<LabelId> = node_labels.iter().map(LabelId::intern).collect();
    // Iterative preorder over the child lists.
    let mut stack: Vec<(usize, usize)> = Vec::new(); // (node, next child idx)
    b.open(ids[0]);
    stack.push((0, 0));
    while let Some((v, next)) = stack.last_mut() {
        if let Some(&c) = children[*v].get(*next) {
            *next += 1;
            b.open(ids[c]);
            stack.push((c, 0));
        } else {
            b.close();
            stack.pop();
        }
    }
    b.finish()
}

/// The document-side doubling families: three generator shapes whose node
/// count is `Θ(2^n)`, used to scale the T15 arena-vs-`Rc` experiments the
/// way `doubling_query` scales the streaming ones. Each family builds both
/// representations — [`tree`](DoublingFamily::tree) via `Rc` nodes,
/// [`arena`](DoublingFamily::arena) natively into the parallel vectors —
/// and the two are equal for every `n` (tested).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DoublingFamily {
    /// A perfect binary tree of depth `n`: `2^(n+1) − 1` nodes, labels
    /// alternating `a`/`b` by depth under an `r` root.
    Binary,
    /// A root with `2^n` leaf children, labels cycling `a`/`b`/`c` — the
    /// flattest shape (one huge child span).
    Wide,
    /// A spine of `2^n` `s` nodes, each inner one carrying a `t` leaf —
    /// the deepest shape (`2^(n+1) − 1` nodes). Deep recursion hazard for
    /// `Rc` trees; both builders here are iterative.
    Comb,
}

impl DoublingFamily {
    /// All three families, for suites that sweep them.
    pub const ALL: [DoublingFamily; 3] = [
        DoublingFamily::Binary,
        DoublingFamily::Wide,
        DoublingFamily::Comb,
    ];

    /// Number of nodes of the instance at doubling parameter `n`.
    pub fn size(self, n: u32) -> u64 {
        match self {
            DoublingFamily::Binary | DoublingFamily::Comb => (1 << (n + 1)) - 1,
            DoublingFamily::Wide => (1 << n) + 1,
        }
    }

    /// The `Rc`-tree instance at parameter `n`.
    pub fn tree(self, n: u32) -> Tree {
        match self {
            DoublingFamily::Binary => {
                // Perfect binary tree of depth n; recursion depth is n.
                fn bin(d: u32, n: u32) -> Tree {
                    let label = if d == 0 { "r" } else { binary_label(d) };
                    if d == n {
                        Tree::leaf(label)
                    } else {
                        Tree::node(label, [bin(d + 1, n), bin(d + 1, n)])
                    }
                }
                bin(0, n)
            }
            DoublingFamily::Wide => {
                Tree::node("r", (0..1u64 << n).map(|i| Tree::leaf(wide_label(i))))
            }
            DoublingFamily::Comb => {
                // Built from the deepest spine node up, so construction is
                // iterative (destruction of the Rc chain still recurses —
                // keep n moderate for the tree form).
                let mut t = Tree::leaf("s");
                for _ in 1..1u64 << n {
                    t = Tree::node("s", [Tree::leaf("t"), t]);
                }
                t
            }
        }
    }

    /// The arena-native instance at parameter `n` — identical to
    /// `ArenaDoc::from_tree(&self.tree(n))` but with no `Rc` churn.
    pub fn arena(self, n: u32) -> ArenaDoc {
        let mut b = ArenaBuilder::with_capacity(self.size(n) as usize);
        match self {
            DoublingFamily::Binary => {
                let labels: Vec<LabelId> = (0..=n)
                    .map(|d| LabelId::intern(if d == 0 { "r" } else { binary_label(d) }))
                    .collect();
                // Recursion depth is n, same as the tree builder.
                fn grow(b: &mut ArenaBuilder, labels: &[LabelId], d: u32, n: u32) {
                    if d == n {
                        b.leaf(labels[d as usize]);
                        return;
                    }
                    b.open(labels[d as usize]);
                    grow(b, labels, d + 1, n);
                    grow(b, labels, d + 1, n);
                    b.close();
                }
                grow(&mut b, &labels, 0, n);
            }
            DoublingFamily::Wide => {
                let cycle = [
                    LabelId::intern("a"),
                    LabelId::intern("b"),
                    LabelId::intern("c"),
                ];
                b.open("r");
                for i in 0..1u64 << n {
                    b.leaf(cycle[(i % 3) as usize]);
                }
                b.close();
            }
            DoublingFamily::Comb => {
                let (s, t) = (LabelId::intern("s"), LabelId::intern("t"));
                let spine = 1u64 << n;
                for _ in 1..spine {
                    b.open(s);
                    b.leaf(t);
                }
                b.leaf(s);
                for _ in 1..spine {
                    b.close();
                }
            }
        }
        b.finish()
    }
}

impl std::fmt::Display for DoublingFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DoublingFamily::Binary => "binary",
            DoublingFamily::Wide => "wide",
            DoublingFamily::Comb => "comb",
        })
    }
}

fn binary_label(depth: u32) -> &'static str {
    if depth.is_multiple_of(2) {
        "a"
    } else {
        "b"
    }
}

fn wide_label(i: u64) -> &'static str {
    ["a", "b", "c"][(i % 3) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_tree_has_requested_size() {
        let mut g = TreeGen::new(7);
        for size in [1, 2, 10, 257] {
            let t = random_tree(&mut g, size, &["a", "b", "c"]);
            assert_eq!(t.size(), size as u64);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let t1 = random_tree(&mut TreeGen::new(42), 50, &["a", "b"]);
        let t2 = random_tree(&mut TreeGen::new(42), 50, &["a", "b"]);
        let t3 = random_tree(&mut TreeGen::new(43), 50, &["a", "b"]);
        assert_eq!(t1, t2);
        assert_ne!(t1, t3, "different seeds should differ (with high prob.)");
    }

    #[test]
    fn labels_come_from_alphabet() {
        let t = random_tree(&mut TreeGen::new(1), 100, &["x", "y"]);
        fn check(t: &Tree) {
            assert!(matches!(t.label().as_str(), "x" | "y"));
            t.children().iter().for_each(check);
        }
        check(&t);
    }

    #[test]
    fn forest_and_document_helpers() {
        let mut g = TreeGen::new(3);
        let f = random_forest(&mut g, 4, 10, &["a"]);
        assert_eq!(f.len(), 4);
        let d = random_document(&mut g, 25, &["a", "b"]);
        assert_eq!(d.len(), 25);
    }

    #[test]
    fn arena_generator_matches_tree_generator() {
        for (seed, size) in [(0u64, 1usize), (7, 10), (42, 137)] {
            let t = random_tree(&mut TreeGen::new(seed), size, &["a", "b", "k"]);
            let a = random_arena_document(&mut TreeGen::new(seed), size, &["a", "b", "k"]);
            assert_eq!(a.len(), size);
            assert_eq!(a.to_tree(), t, "seed {seed} size {size}");
        }
    }

    #[test]
    fn doubling_families_agree_across_representations() {
        for family in DoublingFamily::ALL {
            for n in 0..7u32 {
                let t = family.tree(n);
                let a = family.arena(n);
                assert_eq!(t.size(), family.size(n), "{family} n={n} tree size");
                assert_eq!(a.len() as u64, family.size(n), "{family} n={n} arena size");
                assert_eq!(a.to_tree(), t, "{family} n={n}");
            }
        }
    }

    #[test]
    fn doubling_family_shapes() {
        // Binary: depth n+1; wide: depth 2; comb: depth 2^n.
        assert_eq!(DoublingFamily::Binary.tree(3).height(), 4);
        assert_eq!(DoublingFamily::Wide.tree(5).height(), 2);
        assert_eq!(DoublingFamily::Comb.tree(4).height(), 16);
        assert_eq!(
            DoublingFamily::Wide.tree(3).children().len(),
            8,
            "wide fanout is 2^n"
        );
    }

    #[test]
    fn rng_helpers_behave() {
        let mut g = TreeGen::new(9);
        for _ in 0..100 {
            assert!(g.below(10) < 10);
        }
        let items = [1, 2, 3];
        for _ in 0..20 {
            assert!(items.contains(g.choose(&items)));
        }
        // chance(1,1) is always true; chance(0,5) never.
        assert!(g.chance(1, 1));
        assert!(!g.chance(0, 5));
    }
}
