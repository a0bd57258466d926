//! The cursor-core suite: `xq_stream::stream_query` over the seeded T17
//! coverage corpus (`xq_bench::coverage_corpus`), checked three ways:
//!
//! * **Figure 1 first.** On success every configuration's bytes must match
//!   the interpreter (`xq_core::eval_query`), so the pinned counters can
//!   never drift away from semantic correctness.
//! * **Pinned counters.** One line per (query, document seed,
//!   configuration) in `tests/golden/cursor_counters.golden` records the
//!   outcome — `pulls recomputations peak_live_cursors tokens_out workers
//!   buffered_sources`, or the error — for the lazy discipline, the
//!   buffered default, a cap of 1 (every source overflows), 2 and 4
//!   threads, and the 4-thread run under the pull-budget sweep (0 / 1 /
//!   half / full−1 of the lazy run's pulls).
//! * **Budget exactness.** Every sequential configuration returns
//!   `Err(Budget)` at each swept cap below its own full `pulls`, and the
//!   identical `Ok` at cap = `pulls`.
//!
//! Regenerate the golden files after an intentional engine change with
//!
//! ```text
//! XQ_UPDATE_GOLDEN=1 cargo test --release -p xq_stream --test cursor_diff -- --include-ignored
//! ```
//!
//! and review the diff like any other code change.
//!
//! `XQ_RANDOM_CASES` sizes the corpus (CI pins 16; local default 48, the
//! size the golden file pins; a smaller corpus is a prefix of it, and
//! queries past it run every check except the pinned counters). CI runs
//! the suite plain and under `XQ_THREADS=4`; an `XQ_THREADS` count
//! other than 2 and 4 is checked for bytes against
//! the sequential run, plus `workers <= threads`. The `#[ignore]`d
//! full-size variant (weekly `scheduled.yml` run) sweeps a 256-query
//! corpus over bigger documents and the doubling family, pinning one
//! digest per (query, document) in `tests/golden/cursor_digests.golden`.

use cv_xtree::{random_tree, ArenaDoc, Token, Tree, TreeGen};
use xq_core::ast::Query;
use xq_core::Threads;
use xq_stream::{
    stream_boolean, stream_query, StreamConfig, StreamError, StreamStats, DEFAULT_BUFFER_LIMIT,
};

const FUEL: u64 = 10_000_000;

/// The corpus size the golden file pins.
const GOLDEN_CASES: usize = 48;

/// Cases per property: `XQ_RANDOM_CASES` if set (CI uses 16), else
/// [`GOLDEN_CASES`].
fn cases() -> usize {
    std::env::var("XQ_RANDOM_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(GOLDEN_CASES)
}

/// Small random documents over the corpus grammar's label alphabet.
fn docs(nodes: usize) -> Vec<Tree> {
    (0..3u64)
        .map(|seed| random_tree(&mut TreeGen::new(seed), nodes, &["a", "b", "k"]))
        .collect()
}

/// The pinned sequential configurations: name and per-source cap.
const SEQUENTIAL: [(&str, usize); 3] =
    [("lazy", 0), ("cap65536", DEFAULT_BUFFER_LIMIT), ("cap1", 1)];

/// The pinned thread counts (at the buffered default).
const PARALLEL: [usize; 2] = [2, 4];

/// `XQ_THREADS`, when it resolves to a count the pinned sweep lacks.
fn extra_threads() -> Option<usize> {
    let n = Threads::from_env().count();
    (n > 1 && !PARALLEL.contains(&n)).then_some(n)
}

type Outcome = Result<(Vec<Token>, StreamStats), StreamError>;

/// The pinned form of an outcome: the counters on success, else the error.
fn pin(out: &Outcome) -> String {
    match out {
        Ok((_, s)) => format!(
            "{} {} {} {} {} {}",
            s.pulls,
            s.recomputations,
            s.peak_live_cursors,
            s.tokens_out,
            s.workers,
            s.buffered_sources
        ),
        Err(e) => format!("{e:?}"),
    }
}

/// The pull budgets to sweep for a run that charged `pulls`: 0 (error
/// before the first pull), 1, half, and full−1 (error on the very last
/// charge).
fn budget_sweep(pulls: u64) -> Vec<u64> {
    let mut caps = vec![0, 1, pulls / 2, pulls.saturating_sub(1)];
    caps.sort_unstable();
    caps.dedup();
    caps.retain(|&c| c < pulls);
    caps
}

/// Asserts a successful run produced `want`'s bytes.
fn assert_bytes(out: &Outcome, want: &[Token], ctx: &str) {
    if let Ok((tokens, _)) = out {
        assert_eq!(tokens, want, "{ctx}: bytes differ from Figure 1");
    }
}

/// Runs every check on one (query, document) pair and appends its pinned
/// lines, each prefixed `q{qi} d{seed}`.
fn check_pair(q: &Query, doc: &Tree, key: &str, lines: &mut Vec<String>) {
    let arena = ArenaDoc::from_tree(doc);
    let run = |cfg: StreamConfig| stream_query(q, &arena, cfg);
    let mut pinned =
        |config: &str, out: &Outcome| lines.push(format!("{key} {config}: {}", pin(out)));

    // Semantic anchor: the Figure 1 interpreter's bytes.
    let want: Vec<Token> = xq_core::eval_query(q, doc)
        .expect("interpreter evaluates the corpus")
        .iter()
        .flat_map(Tree::tokens)
        .collect();
    let mut sequential = Vec::new();

    for (name, cap) in SEQUENTIAL {
        let cfg = StreamConfig {
            buffer_cap: cap,
            ..StreamConfig::lazy(FUEL)
        };
        let ctx = format!("{key} {name} {q}");
        let out = run(cfg);
        assert_bytes(&out, &want, &ctx);
        pinned(name, &out);

        // Budget exactness: `Budget` below the run's own pulls, the
        // identical outcome at exactly its pulls.
        if let Ok((_, stats)) = &out {
            for max_pulls in budget_sweep(stats.pulls) {
                let capped = run(StreamConfig { max_pulls, ..cfg });
                assert_eq!(capped, Err(StreamError::Budget), "{ctx}: cap {max_pulls}");
            }
            let exact = run(StreamConfig {
                max_pulls: stats.pulls,
                ..cfg
            });
            assert_eq!(exact, out, "{ctx}: cap = pulls");
        }
        sequential.push(out);
    }
    let [lazy, buffered, _] = &sequential[..] else {
        unreachable!("three sequential configurations")
    };

    for threads in PARALLEL {
        let cfg = StreamConfig {
            threads,
            ..StreamConfig::buffered(FUEL)
        };
        let ctx = format!("{key} t{threads} {q}");
        let out = run(cfg);
        assert_bytes(&out, &want, &ctx);
        pinned(&format!("t{threads}"), &out);
    }

    // The parallel budget sweep, pinned: each worker's chunk is bounded
    // on its own, so these outcomes need not be `Budget`.
    if let Ok((_, stats)) = &lazy {
        for max_pulls in budget_sweep(stats.pulls) {
            let out = run(StreamConfig {
                max_pulls,
                threads: 4,
                ..StreamConfig::buffered(FUEL)
            });
            let ctx = format!("{key} t4 budget {max_pulls} {q}");
            assert_bytes(&out, &want, &ctx);
            pinned(&format!("t4 budget {max_pulls}"), &out);
        }
    }

    // A thread count outside the pinned sweep: bytes only.
    if let Some(threads) = extra_threads() {
        let out = run(StreamConfig {
            threads,
            ..StreamConfig::buffered(FUEL)
        });
        let ctx = format!("{key} t{threads} {q}");
        // Each worker's chunk is bounded on its own, so a parallel run
        // never fails where the sequential one succeeded.
        assert!(out.is_ok() || buffered.is_err(), "{ctx}: {out:?}");
        assert_bytes(&out, &want, &ctx);
        if let Ok((_, stats)) = &out {
            assert!(stats.workers <= threads, "{ctx}: {stats:?}");
        }
    }
}

/// Compares `lines` with the golden file `name` (or rewrites it under
/// `XQ_UPDATE_GOLDEN`). Lines past the golden's end belong to queries
/// beyond the pinned corpus and are left unpinned.
fn check_golden(name: &str, header: &str, lines: &[String]) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("XQ_UPDATE_GOLDEN").is_some() {
        let mut text = header.to_string();
        for l in lines {
            text.push_str(l);
            text.push('\n');
        }
        std::fs::write(&path, text).expect("write golden file");
        return;
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("{name} missing — run with XQ_UPDATE_GOLDEN=1 to create it"));
    let want: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    for (i, (got, want)) in lines.iter().zip(&want).enumerate() {
        assert_eq!(
            got, want,
            "pinned line {i} of {name} drifted; if intentional, regenerate with XQ_UPDATE_GOLDEN=1"
        );
    }
    if lines.len() > want.len() {
        eprintln!(
            "{} lines past the end of {name} are unpinned",
            lines.len() - want.len()
        );
    }
}

#[test]
fn cursor_core_matches_figure_1_and_the_pinned_counters() {
    let cases = cases();
    assert!(
        std::env::var_os("XQ_UPDATE_GOLDEN").is_none() || cases == GOLDEN_CASES,
        "regenerate the golden file with the default {GOLDEN_CASES}-query corpus"
    );
    let docs = docs(10);
    let mut lines = Vec::new();
    for (qi, q) in xq_bench::coverage_corpus(cases).iter().enumerate() {
        for (seed, doc) in docs.iter().enumerate() {
            check_pair(q, doc, &format!("q{qi} d{seed}"), &mut lines);
        }
    }
    check_golden(
        "cursor_counters.golden",
        "# cursor_diff: xq_stream counters over coverage_corpus(48) x docs(10).\n\
         # <query> <doc seed> <config>: pulls recomputations peak_live_cursors tokens_out workers buffered_sources\n\
         # Regenerate with XQ_UPDATE_GOLDEN=1 after intentional engine changes.\n",
        &lines,
    );
}

/// `stream_boolean` short-circuits, but its verdict is the Figure 1
/// one: for `⟨a⟩α⟨/a⟩`, whether the root element has a child (§7.1
/// convention); otherwise, whether the result is nonempty.
#[test]
fn boolean_probe_matches_figure_1() {
    let docs = docs(10);
    for q in xq_bench::coverage_corpus(cases()) {
        for doc in &docs {
            let result = xq_core::eval_query(&q, doc).expect("interpreter evaluates the corpus");
            let want = match &q {
                Query::Elem(_, _) => !result[0].children().is_empty(),
                _ => !result.is_empty(),
            };
            let got = stream_boolean(&q, &ArenaDoc::from_tree(doc), FUEL)
                .unwrap_or_else(|e| panic!("boolean probe failed on {q}: {e}"));
            assert_eq!(got, want, "verdict for {q} on {doc}");
        }
    }
}

/// 64-bit FNV-1a, the digest the full-size golden pins per pair.
fn fnv1a(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Full-size variant for the weekly scheduled run: a 256-query corpus,
/// bigger documents, and the Prop 4.2 doubling family (where lazy
/// recomputation cost explodes and the buffered path's decisions all
/// engage).
#[test]
#[ignore = "full-size sweep; run by scheduled.yml"]
fn cursor_core_full_size() {
    let docs = docs(40);
    let mut digests = Vec::new();
    for (qi, q) in xq_bench::coverage_corpus(256).iter().enumerate() {
        for (seed, doc) in docs.iter().enumerate() {
            let key = format!("q{qi} d{seed}");
            let mut lines = Vec::new();
            check_pair(q, doc, &key, &mut lines);
            digests.push(format!("{key}: {:016x}", fnv1a(&lines)));
        }
    }
    // The doubling family on the empty document: the streaming worst case.
    fn doubling(n: usize) -> String {
        let mut q = String::from("<z/>");
        for i in 0..n {
            q = format!("for $v{i} in ({q}, {q}) return <z/>");
        }
        q
    }
    let t = cv_xtree::parse_tree("<r/>").unwrap();
    let doc = ArenaDoc::from_tree(&t);
    for n in [2usize, 4, 6] {
        let q = xq_core::parse_query(&doubling(n)).unwrap();
        let want: Vec<Token> = xq_core::eval_query(&q, &t)
            .unwrap()
            .iter()
            .flat_map(Tree::tokens)
            .collect();
        for (name, cfg) in [
            ("lazy", StreamConfig::lazy(FUEL)),
            ("cap65536", StreamConfig::buffered(FUEL)),
        ] {
            let out = stream_query(&q, &doc, cfg);
            assert_bytes(&out, &want, &format!("doubling n={n} {name}"));
            digests.push(format!("doubling n={n} {name}: {}", pin(&out)));
        }
    }
    check_golden(
        "cursor_digests.golden",
        "# cursor_diff full size: coverage_corpus(256) x docs(40), one FNV-1a digest of each\n\
         # pair's cursor_counters lines, then the doubling family's counters.\n\
         # Regenerate with XQ_UPDATE_GOLDEN=1 after intentional engine changes.\n",
        &digests,
    );
}
