//! Seeded inputs: the served documents, the hot set of query texts, the
//! per-client request streams, and the oracle's expected answers.
//!
//! Everything here is a pure function of the workload and the seed. The
//! server receives only the documents (at registration) and the request
//! frames built from the streams.

use cv_xtree::{random_arena_document, ArenaDoc, DoublingFamily, Tree, TreeGen};
use std::borrow::Cow;
use std::collections::HashSet;
use xq_core::{eval_query, parse_query};

/// The three serving workloads; see `README.md` for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The T19 request on a seeded 200-node document: ~306 KB answers.
    LargeResult,
    /// A cross-join on the depth-8 binary doubling document: ~6 ms of
    /// evaluation, a tiny answer.
    HeavyEval,
    /// Many small documents and a hot set of small queries, with one
    /// never-seen text in eight: per-request fixed costs dominate.
    ManySmall,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists the last two; `large-result`
    /// runs by name but has no bound (see `README.md`).
    pub const ALL: [Workload; 3] = [
        Workload::LargeResult,
        Workload::HeavyEval,
        Workload::ManySmall,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LargeResult => "large-result",
            Workload::HeavyEval => "heavy-eval",
            Workload::ManySmall => "many-small",
        }
    }

    /// The workload named `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests the traced replay takes from the head of the request
    /// streams: enough for stable medians, few enough that the replay
    /// stays within a couple of seconds.
    pub fn replay_requests(self) -> usize {
        match self {
            Workload::LargeResult => 400,
            Workload::HeavyEval => 96,
            Workload::ManySmall => 4096,
        }
    }
}

/// The T19 request: every element, wrapped with all its descendants.
pub const LARGE_RESULT_QUERY: &str = "for $x in $root//* return <w>{ $x//* }</w>";
const LARGE_RESULT_NODES: usize = 200;
const HEAVY_EVAL_DEPTH: u32 = 8;
/// Documents `many-small` serves: twice the pool's 32-entry per-worker
/// document cache.
pub const MANY_DOCS: usize = 64;
const MANY_DOC_NODES: usize = 40;
/// Distinct query texts in `many-small`'s hot set.
pub const HOT_TEXTS: usize = 256;
/// Documents each hot text is paired with, so the oracle holds
/// `HOT_TEXTS * DOCS_PER_TEXT` answers rather than one per document.
pub const DOCS_PER_TEXT: usize = 4;
/// One `many-small` request in this many carries a never-sent text.
pub const FRESH_ONE_IN: usize = 8;
/// Hot-set candidates are drawn from this prefix of the coverage corpus.
const CORPUS_CANDIDATES: usize = 4096;
/// Candidates whose answer on a paired document exceeds this are skipped,
/// keeping `many-small` a small-answer workload.
const MAX_HOT_ANSWER: usize = 16 * 1024;
const LABELS: [&str; 3] = ["a", "b", "k"];

/// The T19 document's answer size, which `large-result` documents are
/// chosen to match: answer sizes of seeded 200-node trees range over
/// roughly 220–630 KB, so without a target the seed alone would move
/// every `large-result` metric.
pub const LARGE_RESULT_TARGET: usize = 306_000;
/// Seeded candidate trees `large-result` chooses among — a fixed number,
/// so set-up does the same work whatever the seed.
const LARGE_RESULT_CANDIDATES: usize = 64;

/// Bytes of [`LARGE_RESULT_QUERY`]'s answer on `doc`, from the document's
/// shape alone. Each non-root element `x` answers `<w>…</w>` (`<w/>` if
/// it is a leaf) around the XML of every proper descendant, so a node at
/// depth `d` (the root has depth 0) is serialized `d - 1` times.
pub fn large_result_bytes(doc: &ArenaDoc) -> usize {
    let nodes: Vec<cv_xtree::NodeId> = std::iter::once(doc.root())
        .chain(doc.descendants(doc.root()))
        .collect();
    // Ids are preorder positions: parents come before their children.
    let mut depth = vec![0usize; doc.len()];
    let mut xml_len = vec![0usize; doc.len()];
    for &id in nodes.iter().rev() {
        let label = doc.label(id).as_str().len();
        let own = if doc.is_leaf(id) {
            label + 3
        } else {
            2 * label + 5
        };
        xml_len[id.0 as usize] = own
            + doc
                .children(id)
                .iter()
                .map(|c| xml_len[c.0 as usize])
                .sum::<usize>();
    }
    let mut total = 0;
    for &id in &nodes[1..] {
        let parent = doc.parent(id).expect("non-root nodes have parents");
        let d = depth[parent.0 as usize] + 1;
        depth[id.0 as usize] = d;
        total += (d - 1) * xml_len[id.0 as usize] + if doc.is_leaf(id) { 4 } else { 7 };
    }
    total
}

/// Builds the workload's served documents, in registration order.
pub fn documents(workload: Workload, seed: u64) -> Vec<ArenaDoc> {
    match workload {
        Workload::LargeResult => {
            // Of the seed's first candidates, the one whose answer size is
            // closest to the target (about one candidate in thirty lies
            // within 2% of it).
            let mut gen = TreeGen::new(seed);
            let doc = (0..LARGE_RESULT_CANDIDATES)
                .map(|_| random_arena_document(&mut gen, LARGE_RESULT_NODES, &LABELS))
                .min_by_key(|doc| large_result_bytes(doc).abs_diff(LARGE_RESULT_TARGET))
                .expect("at least one candidate");
            vec![doc]
        }
        Workload::HeavyEval => vec![DoublingFamily::Binary.arena(HEAVY_EVAL_DEPTH)],
        Workload::ManySmall => {
            let mut gen = TreeGen::new(seed);
            (0..MANY_DOCS)
                .map(|_| random_arena_document(&mut gen, MANY_DOC_NODES, &LABELS))
                .collect()
        }
    }
}

/// The name document `index` is registered under.
pub fn doc_name(index: usize) -> String {
    format!("d{index}")
}

/// The Figure 1 interpreter's answer, as the bytes the server sends in a
/// `result` field: each result tree's XML, concatenated.
pub fn interpret(text: &str, tree: &Tree) -> Result<String, String> {
    let query = parse_query(text).map_err(|e| e.to_string())?;
    let out = eval_query(&query, tree).map_err(|e| e.to_string())?;
    Ok(out.iter().map(Tree::to_xml).collect())
}

/// A hot (document, text) pair with the oracle's expected answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pair {
    /// Index of the served document.
    pub doc: usize,
    /// Index into [`HotSet::texts`].
    pub text: usize,
    /// The interpreter's answer bytes.
    pub expected: String,
}

/// The hot set: the query texts clients repeat and the (document, text)
/// pairs they send, each with its expected answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotSet {
    /// Distinct query texts.
    pub texts: Vec<String>,
    /// The pairs requests draw from.
    pub pairs: Vec<Pair>,
}

impl HotSet {
    /// Chooses the hot set and computes every expected answer with the
    /// interpreter — the oracle, computed before any timing starts.
    ///
    /// `many-small` takes coverage-corpus queries in order, skipping
    /// duplicates and any query that fails or answers more than
    /// `MAX_HOT_ANSWER` bytes on one of its paired documents, so no
    /// request of the workload fails.
    pub fn build(workload: Workload, docs: &[ArenaDoc]) -> HotSet {
        let trees: Vec<Tree> = docs.iter().map(ArenaDoc::to_tree).collect();
        let single = |text: String| {
            let expected = interpret(&text, &trees[0]).expect("workload query evaluates");
            HotSet {
                texts: vec![text],
                pairs: vec![Pair {
                    doc: 0,
                    text: 0,
                    expected,
                }],
            }
        };
        match workload {
            Workload::LargeResult => single(LARGE_RESULT_QUERY.to_string()),
            Workload::HeavyEval => single(format!(
                "<r>{{ {} }}</r>",
                xq_bench::par_workload(DoublingFamily::Binary)
            )),
            Workload::ManySmall => {
                let mut seen = HashSet::new();
                let mut texts = Vec::new();
                let mut pairs = Vec::new();
                for query in xq_bench::coverage_corpus(CORPUS_CANDIDATES) {
                    if texts.len() == HOT_TEXTS {
                        break;
                    }
                    let text = query.to_string();
                    if !seen.insert(text.clone()) {
                        continue;
                    }
                    let slot = texts.len();
                    let answers: Option<Vec<Pair>> = (0..DOCS_PER_TEXT)
                        .map(|j| {
                            let doc = (slot * DOCS_PER_TEXT + j) % docs.len();
                            let expected = interpret(&text, &trees[doc]).ok()?;
                            (expected.len() <= MAX_HOT_ANSWER).then_some(Pair {
                                doc,
                                text: slot,
                                expected,
                            })
                        })
                        .collect();
                    if let Some(answers) = answers {
                        pairs.extend(answers);
                        texts.push(text);
                    }
                }
                assert_eq!(texts.len(), HOT_TEXTS, "corpus too small for the hot set");
                HotSet { texts, pairs }
            }
        }
    }

    /// The pairs the set-up warm-up sends: one per hot text, spread so
    /// every served document is touched.
    pub fn warm_pairs(&self) -> impl Iterator<Item = usize> + '_ {
        let per_text = self.pairs.len() / self.texts.len();
        (0..self.texts.len()).map(move |t| t * per_text + t % per_text)
    }

    /// The query text `request` carries on `client`'s stream.
    pub fn text(&self, client: usize, request: Request) -> Cow<'_, str> {
        let base = &self.texts[self.pairs[request.pair].text];
        match request.fresh {
            None => Cow::Borrowed(base),
            Some(seq) => Cow::Owned(fresh_text(client, seq, base)),
        }
    }

    /// The oracle's check of a fresh request whose answer already matched
    /// its base pair's bytes: the interpreter must give those bytes for
    /// the fresh text too. `trees` are the documents' materialized trees.
    pub fn fresh_agrees(&self, trees: &[Tree], client: usize, seq: u64, pair: usize) -> bool {
        let p = &self.pairs[pair];
        let text = fresh_text(client, seq, &self.texts[p.text]);
        interpret(&text, &trees[p.doc]).is_ok_and(|answer| answer == p.expected)
    }
}

/// A never-sent text with the same answer as `base`: `base` under a
/// `let` of an unused variable whose name is unique to (client, seq).
/// The variable is bound to a leaf, not to `()`: a `let` over the empty
/// sequence has no binding to run its body with, so it answers nothing.
pub fn fresh_text(client: usize, seq: u64, base: &str) -> String {
    format!("let $f{client}n{seq} := <f/> return ({base})")
}

/// One request of a stream: a hot pair, optionally under a fresh text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Index into [`HotSet::pairs`].
    pub pair: usize,
    /// Sequence number of the fresh text this request carries, if any.
    pub fresh: Option<u64>,
}

/// One client's seeded request stream.
#[derive(Clone, Debug)]
pub struct Stream {
    gen: TreeGen,
    pairs: usize,
    fresh: bool,
    next_fresh: u64,
}

impl Stream {
    /// Client `client`'s stream over `pairs` hot pairs.
    pub fn new(workload: Workload, seed: u64, client: usize, pairs: usize) -> Stream {
        let salt = (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Stream {
            gen: TreeGen::new(seed ^ salt),
            pairs,
            fresh: workload == Workload::ManySmall,
            next_fresh: 0,
        }
    }
}

impl Iterator for Stream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let pair = self.gen.below(self.pairs);
        let fresh = (self.fresh && self.gen.below(FRESH_ONE_IN) == 0).then(|| {
            self.next_fresh += 1;
            self.next_fresh - 1
        });
        Some(Request { pair, fresh })
    }
}
