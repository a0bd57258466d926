//! The experiment harness: regenerates every EXPERIMENTS.md table
//! (paper claim vs measured) in one run. Intended use:
//!
//! ```text
//! cargo run --release -p xq_bench --bin harness
//! cargo run --release -p xq_bench --bin harness -- --only t16 --json BENCH_T16.json
//! cargo run --release -p xq_bench --bin harness -- --only t17 --json BENCH_T17.json
//! cargo run --release -p xq_bench --bin harness -- --only t18 --json BENCH_T18.json
//! cargo run --release -p xq_bench --bin harness -- --only t19 --json BENCH_T19.json
//! cargo run --release -p xq_bench --bin harness -- --only t20 --json BENCH_T20.json
//! cargo run --release -p xq_bench --bin harness -- --only t21 --json BENCH_T21.json
//! ```
//!
//! `--only tN` runs a single table; `--json FILE` additionally writes the
//! machine-readable payload of the selected measurement table — T17
//! (planner coverage) under `--only t17`, T18 (VM vs interpreter) under
//! `--only t18`, T19 (network serving under load) under `--only t19`,
//! T20 (connection scaling on the reactor) under `--only t20`,
//! T21 (chaos soak under seeded fault injection) under `--only t21`,
//! T16 (parallel scaling) otherwise — the CI perf-trajectory artifacts.

use cv_monad::Budget;
use cv_xtree::{ArenaDoc, TreeGen};
use std::time::Instant;
use xq_bench::{bib_document, books_query, doubling_query, let_chain_query};
use xq_compfree::{witness_boolean, NestedLoopEngine};
use xq_core::{eval_query, ma_invariant_holds, ma_query, Var};
use xq_logicprog::{lp_succeeds, ma_to_lp};
use xq_paths::{eval_paths, figure_5_query, prove, unit_input};
use xq_reductions as red;
use xq_reductions::{EqFlavor, NtmReduction};
use xq_rewrite::eliminate_composition;
use xq_stream::StreamConfig;

/// A table that writes a `--json` payload: its `--only` name, and a
/// runner that prints the table and returns the payload.
type JsonTable = (&'static str, fn() -> String);

fn header(title: &str) {
    println!("\n## {title}\n");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut only: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json_path = Some(it.next().expect("--json needs a file path").clone()),
            "--only" => only = Some(it.next().expect("--only needs a table name").to_lowercase()),
            other => {
                panic!("unknown harness argument {other:?} (expected --json FILE / --only tN)")
            }
        }
    }
    if let Some(o) = &only {
        // A typo must fail loudly, not silently run zero tables.
        let known: Vec<String> = (1..=21).map(|i| format!("t{i}")).collect();
        assert!(
            known.contains(o),
            "--only {o:?} is not a known table (expected one of t1..t21)"
        );
    }

    // T16–T21 run last and carry the JSON payloads: `--only tN` writes
    // table N's; any other selection that includes T16 writes T16's.
    let json_tables: [JsonTable; 6] = [
        ("t16", || t16_json(&t16_parallel())),
        ("t17", || t17_json(&t17_coverage())),
        ("t18", || t18_json(&t18_vm())),
        ("t19", || t19_json(&t19_serving())),
        ("t20", || t20_json(&t20_connection_scaling())),
        ("t21", || t21_json(&t21_chaos())),
    ];
    // Checked before any table runs, so a bad selection costs nothing.
    if json_path.is_some()
        && only
            .as_deref()
            .is_some_and(|o| json_tables.iter().all(|(name, _)| *name != o))
    {
        panic!("--json requires T16..T21 to run (drop --only or use --only t16/.../t21)");
    }

    println!("# Koch (PODS 2005) reproduction — experiment harness");

    let tables: [(&str, fn()); 15] = [
        ("t1", t1_ntm_reduction),
        ("t2", t2_atm_reduction),
        ("t3", t3_blowup),
        ("t4", t4_streaming),
        ("t5", t5_qbf),
        ("t6", t6_three_col),
        ("t7", t7_translations),
        ("t8", t8_path_semantics),
        ("t9", t9_data_complexity),
        ("t10", t10_rewrite),
        ("t11", t11_derived),
        ("t12", t12_logicprog),
        ("t13", t13_relalg),
        ("t14", t14_optimizer),
        ("t15", t15_arena),
    ];
    for (name, run) in tables {
        if only.as_deref().is_none_or(|o| o == name) {
            run();
        }
    }
    for (name, run) in json_tables {
        if only.as_deref().is_none_or(|o| o == name) {
            let json = run();
            if name == "t16" || only.as_deref() == Some(name) {
                if let Some(path) = &json_path {
                    std::fs::write(path, json).expect("write --json file");
                    println!("\n{} rows written to {path}", name.to_uppercase());
                }
            }
        }
    }

    println!("\nAll requested experiment tables regenerated.");
}

/// One T17 measurement: planner coverage on one corpus document.
struct T17Row {
    doc_seed: u64,
    nodes: usize,
    queries: usize,
    /// Queries the `xq_core::plan` planner parallelizes.
    planner: usize,
}

/// T17 — parallel-path coverage of the random-query corpus: which
/// fraction of deterministic random queries (the `par_diff` grammar,
/// fixed seed stream) the `xq_core::plan` planner shards (`Seq` branches,
/// nested `for`s, hoisted `let`s, `where`-filtered sources). Every
/// planner-engaged query is verified byte-identical to sequential at 4
/// threads as it is counted, so the coverage number is also a
/// correctness sweep.
fn t17_coverage() -> Vec<T17Row> {
    use xq_core::{compile_query, eval_compiled_par, ParPlan, Threads};

    header("T17  Parallel planner coverage  (xq_core::plan)");
    let corpus = xq_bench::coverage_corpus(256);
    println!(
        "Corpus: {} deterministic random queries (seeded stream; \
         regenerated identically every run).\n",
        corpus.len()
    );
    println!("| doc (seed) | nodes | queries | planner engaged | coverage |");
    println!("|---|---|---|---|---|");
    let mut rows = Vec::new();
    let mut plan_total = 0usize;
    for seed in 0..3u64 {
        let mut g = TreeGen::new(seed);
        let tree = cv_xtree::random_tree(&mut g, 30, &["a", "b", "k"]);
        let doc = ArenaDoc::from_tree(&tree);
        let budget = xq_core::Budget::default().with_threads(Threads::N(4));
        let mut planner = 0usize;
        for q in &corpus {
            if ParPlan::of(q, &doc, budget.clone()).engages() {
                planner += 1;
                // Trust, then verify: the counted query must be
                // byte-identical to sequential on this document.
                let par = eval_compiled_par(&compile_query(q), &doc, budget.clone());
                let seq = xq_core::eval_query(q, &tree);
                match (par, seq) {
                    (Ok((p, stats)), Ok(s)) => {
                        assert!(stats.parallelized, "engaged plan must parallelize: {q}");
                        let render = |ts: &[cv_xtree::Tree]| -> String {
                            ts.iter().map(|t| t.to_xml()).collect()
                        };
                        assert_eq!(render(&p), render(&s), "coverage sweep diverged on {q}");
                    }
                    // Per-worker budgets are fresh, so parallel may outlive
                    // a sequential budget exhaustion (the documented
                    // monotone direction).
                    (_, Err(xq_core::XqError::Budget { .. })) => {}
                    (Err(p), Err(s)) => assert_eq!(p, s, "error mismatch on {q}"),
                    (p, s) => panic!("outcome mismatch on {q}: par {p:?} vs seq {s:?}"),
                }
            }
        }
        println!(
            "| {seed} | {} | {} | {planner} | {:.0}% |",
            doc.len(),
            corpus.len(),
            100.0 * planner as f64 / corpus.len() as f64,
        );
        plan_total += planner;
        rows.push(T17Row {
            doc_seed: seed,
            nodes: doc.len(),
            queries: corpus.len(),
            planner,
        });
    }
    let pairs = corpus.len() * rows.len();
    println!(
        "\nOverall: {plan_total}/{pairs} query-document pairs parallelized ({:.0}%).",
        100.0 * plan_total as f64 / pairs as f64,
    );
    println!("\nShape: every outer-for query shards, and Seq/nested/let/filtered shapes do too; the per-query verification makes this table a correctness sweep as well.");
    rows
}

/// Renders a measurement table as its `--json` payload (hand-rolled: the
/// workspace is offline, no serde): `table`, `host_threads`, the table's
/// extra `header` fields, then `rows` — one preformatted object body per
/// row.
fn table_json(table: &str, header: &[String], rows: &[String]) -> String {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"table\": \"{table}\",\n"));
    out.push_str(&format!("  \"host_threads\": {host},\n"));
    for field in header {
        out.push_str(&format!("  {field},\n"));
    }
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!("    {{{r}}}{sep}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

/// T17's `--json` payload.
fn t17_json(rows: &[T17Row]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"doc_seed\": {}, \"nodes\": {}, \"queries\": {}, \"planner_engaged\": {}",
                r.doc_seed, r.nodes, r.queries, r.planner
            )
        })
        .collect();
    table_json("T17", &[], &rows)
}

/// One T16 measurement: a doubling-family workload at a thread count.
struct T16Row {
    family: String,
    n: u32,
    nodes: u64,
    outer_items: usize,
    threads: usize,
    eval_us: f64,
    stream_us: f64,
}

/// T16 — data-parallel evaluation over the arena store (`xq_core::par`,
/// `xq_stream::stream_query`): the cross-join `for`-nest workloads at
/// 1/2/4 worker threads, plus the `QueryService` batch shape. Each
/// workload compiles once, outside the timed loop, so every eval row
/// runs the VM: the 1-thread row is the sequential VM that serves
/// single-threaded tenants, the others the sharded VM. An eval row is
/// the median of [`T16_ROUNDS`] runs interleaved across the thread
/// counts, and so is a stream row. Self-checking: the 2- and 4-thread
/// eval rows may take at most 1.2x the 1-thread row.
fn t16_parallel() -> Vec<T16Row> {
    use xq_core::{compile_query, eval_compiled_par, Threads};

    header("T16  Data-parallel evaluation  (xq_core::par, xq_stream::stream_query)");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "Host parallelism: {host} hardware thread(s). Speedups are \
         hardware-bound — on a single-core host the multi-thread rows \
         measure sharding overhead, not speedup.\n"
    );

    println!("| family (n) | nodes | outer items | threads | eval cross-join (µs) | stream emit (µs) | eval speedup vs 1T | stream speedup vs 1T |");
    println!("|---|---|---|---|---|---|---|---|");
    // The cross-join runs ~|items|·|doc| steps — far past the default
    // caps, which exist to stop runaway blowups, not deliberate ones.
    let unbounded = |threads| xq_core::Budget {
        max_steps: u64::MAX,
        max_items: u64::MAX,
        threads: Threads::N(threads),
        ..xq_core::Budget::default()
    };
    const THREADS: [usize; 3] = [1, 2, 4];
    let mut rows = Vec::new();
    for (family, n) in [
        (cv_xtree::DoublingFamily::Binary, 11u32),
        (cv_xtree::DoublingFamily::Wide, 12),
        (cv_xtree::DoublingFamily::Comb, 10),
    ] {
        let doc = family.arena(n);
        let plan = compile_query(&xq_bench::par_workload(family));
        let qs = xq_bench::stream_workload(family);
        let (_, probe) = eval_compiled_par(&plan, &doc, unbounded(2)).unwrap();
        assert!(probe.parallelized, "{family} ({n}) must shard");
        let outer_items = probe.outer_items;
        let eval_us = interleaved_medians_us(T16_ROUNDS, &THREADS, |threads| {
            eval_compiled_par(&plan, &doc, unbounded(threads)).unwrap();
        });
        let stream_us = interleaved_medians_us(T16_ROUNDS, &THREADS, |threads| {
            let cfg = xq_stream::StreamConfig {
                threads,
                ..xq_stream::StreamConfig::buffered(u64::MAX)
            };
            xq_stream::stream_query(&qs, &doc, cfg).unwrap();
        });
        let (eval_base, stream_base) = (eval_us[0], stream_us[0]);
        for ((&threads, &eval_us), &stream_us) in THREADS.iter().zip(&eval_us).zip(&stream_us) {
            println!(
                "| {family} ({n}) | {} | {outer_items} | {threads} | {eval_us:.1} | {stream_us:.1} | {:.2}x | {:.2}x |",
                family.size(n),
                eval_base / eval_us,
                stream_base / stream_us
            );
            assert!(
                eval_us <= 1.2 * eval_base,
                "{family} ({n}): the sharded VM at {threads} threads ({eval_us:.1} µs) \
                 is slower than 1.2x the sequential VM ({eval_base:.1} µs)"
            );
            rows.push(T16Row {
                family: family.to_string(),
                n,
                nodes: family.size(n),
                outer_items,
                threads,
                eval_us,
                stream_us,
            });
        }
    }

    // The QueryService batch shape: one pool, a mixed batch, results in
    // submission order.
    let docs: Vec<std::sync::Arc<ArenaDoc>> = (0..4u64)
        .map(|seed| {
            let mut g = TreeGen::new(seed);
            std::sync::Arc::new(ArenaDoc::from_tree(&cv_xtree::random_tree(
                &mut g,
                200,
                &["a", "b", "k"],
            )))
        })
        .collect();
    let service = xq_core::QueryService::new(4);
    let batch: Vec<xq_core::Request> = docs
        .iter()
        .cycle()
        .take(64)
        .map(|d| xq_core::Request::new("for $x in $root//a return <w>{ $x/* }</w>", d.clone()))
        .collect();
    let batch_us = time_us(5, || {
        let got = service.run_batch(batch.clone());
        assert!(got.iter().all(Result::is_ok));
    });
    println!(
        "QueryService: 64-request batch over 4 docs, 4 workers: {batch_us:.1} µs \
         ({:.1} µs/request)",
        batch_us / 64.0
    );
    println!("\nShape: chunks are contiguous spans of the outer for-source; merge preserves document order, so results are byte-identical to sequential (par_diff proves it). The stream speedup has two components: binding items straight from arena spans (algorithmic, visible even at 1 host core) and actual hardware parallelism (needs cores).");
    rows
}

/// T16's `--json` payload.
fn t16_json(rows: &[T16Row]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"family\": \"{}\", \"n\": {}, \"nodes\": {}, \"outer_items\": {}, \
                 \"threads\": {}, \"eval_us\": {:.1}, \"stream_us\": {:.1}",
                r.family, r.n, r.nodes, r.outer_items, r.threads, r.eval_us, r.stream_us
            )
        })
        .collect();
    table_json("T16", &[], &rows)
}

/// One T18 measurement: a configuration's total and per-unit latency,
/// plus any fields of its own (preformatted JSON members).
struct T18Row {
    label: &'static str,
    total_us: f64,
    per_unit_us: f64,
    extra: String,
}

impl T18Row {
    fn timing(label: &'static str, total_us: f64, per_unit_us: f64) -> T18Row {
        T18Row {
            label,
            total_us,
            per_unit_us,
            extra: String::new(),
        }
    }
}

fn t18_vm() -> Vec<T18Row> {
    use xq_core::{compile_query, parse_query, Threads};

    header("T18  Bytecode VM and plan cache  (xq_core::vm, QueryService)");
    println!(
        "Compile-once-run-many vs parse-and-tree-walk-per-request, on the \
         T16 service shape. The vm_diff suite proves the engines byte- and \
         counter-identical; this table prices the difference.\n"
    );
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("Host parallelism: {host} hardware thread(s).\n");

    let mut rows = Vec::new();
    let src = "for $x in $root//a return <w>{ $x/* }</w>";
    let q = parse_query(src).unwrap();

    // Engine micro-comparison: one document, repeated evaluation.
    let mut g = TreeGen::new(7);
    let doc = cv_xtree::random_tree(&mut g, 200, &["a", "b", "k"]);
    let arena = ArenaDoc::from_tree(&doc);
    let env = xq_core::Env::with_root(doc);
    let budget = xq_core::Budget::default();
    let evals = 50u32;
    let interp_us = time_us(evals, || {
        xq_core::eval_with(&q, &env, budget.clone()).unwrap();
    });
    let plan = compile_query(&q);
    let vm_us = time_us(evals, || {
        xq_core::vm::exec_doc(&plan, &arena, budget.clone()).unwrap();
    });
    let reparse_us = time_us(evals, || {
        let q = parse_query(src).unwrap();
        xq_core::eval_with(&q, &env, budget.clone()).unwrap();
    });
    let compile_us = time_us(evals, || {
        std::hint::black_box(compile_query(&q));
    });
    println!("| engine | per-eval (µs) | vs interpreter |");
    println!("|---|---|---|");
    for (label, us) in [
        ("interpreter (pre-parsed AST)", interp_us),
        ("interpreter (parse per request)", reparse_us),
        ("VM (compiled plan)", vm_us),
    ] {
        println!("| {label} | {us:.1} | {:.2}x |", interp_us / us);
    }
    println!("\nCompile cost (amortized by the cache): {compile_us:.1} µs/plan");
    rows.push(T18Row::timing("interp_eval", interp_us, interp_us));
    rows.push(T18Row::timing("interp_parse_eval", reparse_us, reparse_us));
    rows.push(T18Row::timing("vm_exec", vm_us, vm_us));
    rows.push(T18Row::timing("compile", compile_us, compile_us));

    // The serving benchmark's `heavy-eval` request: the T16 cross-join on
    // the depth-8 binary doubling document, wrapped in one element. Here
    // evaluation is nearly all of a request, so this row prices the VM's
    // hot loops (borrowed axis scans and comparisons, the fused
    // quantifier loop) where they dominate. Self-checking: the VM must
    // charge exactly the interpreter's steps and items.
    let heavy = xq_core::Query::elem(
        "r",
        xq_bench::par_workload(cv_xtree::DoublingFamily::Binary),
    );
    let heavy_env = xq_core::Env::with_root(cv_xtree::DoublingFamily::Binary.tree(8));
    let (want, want_stats) = xq_core::eval_with(&heavy, &heavy_env, budget.clone()).unwrap();
    let heavy_plan = compile_query(&heavy);
    let heavy_arena = cv_xtree::DoublingFamily::Binary.arena(8);
    let (got, got_stats) =
        xq_core::vm::exec_doc(&heavy_plan, &heavy_arena, budget.clone()).unwrap();
    assert_eq!(
        got, want,
        "VM and interpreter diverged on the heavy-eval shape"
    );
    // The exact counts the serving benchmark's traced replay reports.
    assert_eq!(
        [(got_stats.steps, got_stats.items); 2],
        [(want_stats.steps, want_stats.items), (233_074, 58_482)],
        "VM must charge the interpreter's steps and items on the heavy-eval request"
    );
    let heavy_evals = 20u32;
    let heavy_interp_us = time_us(heavy_evals, || {
        xq_core::eval_with(&heavy, &heavy_env, budget.clone()).unwrap();
    });
    let heavy_arena_us = time_us(heavy_evals, || {
        xq_core::vm::exec_doc(&heavy_plan, &heavy_arena, budget.clone()).unwrap();
    });
    println!(
        "\nheavy-eval shape (`<r>{{ par_workload(Binary) }}</r>` on Binary depth 8): \
         {} steps, {} items per evaluation in every engine",
        got_stats.steps, got_stats.items
    );
    println!("\n| engine | per-eval (µs) | vs interpreter |");
    println!("|---|---|---|");
    for (label, us) in [
        ("interpreter (pre-parsed AST)", heavy_interp_us),
        ("VM over the arena (served route)", heavy_arena_us),
    ] {
        println!("| {label} | {us:.1} | {:.2}x |", heavy_interp_us / us);
    }
    rows.push(T18Row::timing(
        "heavy_interp_eval",
        heavy_interp_us,
        heavy_interp_us,
    ));
    rows.push(T18Row::timing(
        "heavy_vm_exec_arena",
        heavy_arena_us,
        heavy_arena_us,
    ));

    let (ctor_loop, steps_per_us) = t18_ctor_loop();
    rows.push(ctor_loop);
    rows.extend(t18_inline_handoff(steps_per_us));

    // The service row: the exact T16 batch shape (64 requests over 4
    // docs, 4 workers, one hot query). Workers hit the global plan cache,
    // so the parse + compile happens once per distinct text per process.
    let docs: Vec<std::sync::Arc<ArenaDoc>> = (0..4u64)
        .map(|seed| {
            let mut g = TreeGen::new(seed);
            std::sync::Arc::new(ArenaDoc::from_tree(&cv_xtree::random_tree(
                &mut g,
                200,
                &["a", "b", "k"],
            )))
        })
        .collect();
    let batch: Vec<xq_core::Request> = docs
        .iter()
        .cycle()
        .take(64)
        .map(|d| xq_core::Request::new(src, d.clone()))
        .collect();
    let service = xq_core::QueryService::new(4);
    // A median of many runs: on a 2-vCPU host one batch's time swings
    // by half from run to run.
    let batch_us = median_us(T18_BATCH_RUNS, || {
        let got = service.run_batch(batch.clone());
        assert!(got.iter().all(Result::is_ok));
    });
    println!(
        "\nQueryService: 64-request batch over 4 docs, 4 workers: {batch_us:.1} µs \
         ({:.1} µs/request, median of {T18_BATCH_RUNS} runs)",
        batch_us / 64.0
    );
    rows.push(T18Row::timing(
        "service_cached_vm",
        batch_us,
        batch_us / 64.0,
    ));

    // The parallel entry point still engages through a compiled plan.
    let arena = &docs[0];
    let par_budget = xq_core::Budget::default().with_threads(Threads::N(4));
    let (_, stats) = xq_core::eval_compiled_par(&plan, arena, par_budget).unwrap();
    println!(
        "\neval_compiled_par on doc seed 0: parallelized={} workers={}",
        stats.parallelized, stats.workers
    );

    rows.push(t18_plan_cache_flood());

    println!("\nShape: the VM wins by skipping per-request parse + scope re-resolution; the plan cache amortizes compilation to zero on hot queries, so a served request pays one cache probe plus the VM's evaluation.");
    rows
}

/// `many-small`'s slowest hot text (seed 1): two nested loops that build
/// one `<k/>` per inner iteration.
const CTOR_LOOP: &str = "for $v0 in $root//* return if (not($v0 =atomic <a/>)) then \
                         for $v1 in $root/dos::* return <k/>";

/// The `ctor_loop_vm_exec` row: [`CTOR_LOOP`] over the arena on a seeded
/// 40-node document, a `many-small`-sized request where the loops'
/// lists and constructors, not scans or comparisons, set the cost.
/// Self-checking: the served route must return the interpreter's trees
/// and charge its steps and items. Median of 201 runs. Also returns the
/// row's VM steps per µs.
fn t18_ctor_loop() -> (T18Row, f64) {
    let budget = xq_core::Budget::default();
    let doc = cv_xtree::random_arena_document(&mut TreeGen::new(1), 40, &["a", "b", "k"]);
    let q = xq_core::parse_query(CTOR_LOOP).unwrap();
    let env = xq_core::Env::with_root(doc.to_tree());
    let (want, want_stats) = xq_core::eval_with(&q, &env, budget.clone()).unwrap();
    let plan = xq_core::compile_query(&q);
    let (got, got_stats) = xq_core::vm::exec_doc(&plan, &doc, budget.clone()).unwrap();
    assert_eq!(
        got, want,
        "the arena route diverged on the constructor loop"
    );
    assert_eq!(
        (got_stats.steps, got_stats.items),
        (want_stats.steps, want_stats.items),
        "the arena route must charge the interpreter's steps and items on the constructor loop"
    );
    let us = median_us(201, || {
        xq_core::vm::exec_doc(&plan, &doc, budget.clone()).unwrap();
    });
    let steps_per_us = got_stats.steps as f64 / us;
    println!(
        "\nConstructor loop (`many-small` hot text 249, seeded 40-node document): \
         {} steps, {} items, {} trees out: {us:.1} µs per evaluation over the arena \
         (median of 201), {steps_per_us:.0} steps/µs",
        got_stats.steps,
        got_stats.items,
        got.len()
    );
    let row = T18Row {
        label: "ctor_loop_vm_exec",
        total_us: us,
        per_unit_us: us,
        extra: format!(
            ", \"steps\": {}, \"items\": {}, \"steps_per_us\": {steps_per_us:.1}",
            got_stats.steps, got_stats.items
        ),
    };
    (row, steps_per_us)
}

/// The `inline_handoff_*` rows: what the pool handoff costs, the basis of
/// `INLINE_MAX_STEPS`. One cheap pair (plan cached, cost recorded) on a
/// seeded 40-node document, answered on the calling thread
/// (`try_serve_inline`) and through a one-request `run_batch` (a queue
/// push, a worker wake, a completion and a caller wake), median of
/// [`T18_BATCH_RUNS`] runs each. The difference, priced at the
/// constructor loop's `steps_per_us`, is the handoff in VM steps.
/// Self-checking: the pair is served inline, with the pool's bytes.
fn t18_inline_handoff(steps_per_us: f64) -> [T18Row; 2] {
    use xq_core::service::INLINE_MAX_STEPS;
    use xq_core::{Inline, QueryService, Request};

    let doc = std::sync::Arc::new(cv_xtree::random_arena_document(
        &mut TreeGen::new(1),
        40,
        &["a", "b", "k"],
    ));
    let request = Request::new("for $x in $root/* return <w>{ $x }</w>", doc);
    let service = QueryService::new(2);
    let want = service.run_batch(vec![request.clone()]).remove(0);
    assert!(want.is_ok(), "the handoff pair evaluates");
    let inline_us = median_us(T18_BATCH_RUNS, || {
        match service.try_serve_inline(&request) {
            Inline::Served(got) => assert_eq!(got, want, "inline and pool answers differ"),
            other => panic!("the handoff pair is not served inline: {other:?}"),
        }
    });
    let pool_us = median_us(T18_BATCH_RUNS, || {
        assert_eq!(
            service.run_batch(vec![request.clone()]),
            std::slice::from_ref(&want)
        );
    });
    let handoff_steps = (pool_us - inline_us) * steps_per_us;
    println!(
        "\nPool handoff: one cheap cached pair answered inline in {inline_us:.1} µs, \
         through a one-request run_batch in {pool_us:.1} µs (median of {T18_BATCH_RUNS}): \
         the handoff costs {:.1} µs, about {handoff_steps:.0} VM steps \
         (INLINE_MAX_STEPS = {INLINE_MAX_STEPS})",
        pool_us - inline_us
    );
    [
        T18Row::timing("inline_handoff_inline", inline_us, inline_us),
        T18Row {
            label: "inline_handoff_pool",
            total_us: pool_us,
            per_unit_us: pool_us,
            extra: format!(
                ", \"handoff_us\": {:.1}, \"handoff_steps\": {handoff_steps:.0}, \
                 \"inline_max_steps\": {INLINE_MAX_STEPS}",
                pool_us - inline_us
            ),
        },
    ]
}

/// Hot texts of the flood: `many-small`'s hot-set size.
const FLOOD_HOT: usize = 256;
/// One-shot texts of the flood, each followed by `FLOOD_HITS` hot hits
/// (`many-small` sends one fresh text in eight requests).
const FLOOD_ONE_SHOTS: usize = 20_000;
const FLOOD_HITS: usize = 7;

/// The `plan_cache_flood` row: `many-small`'s plan-cache traffic on a
/// private cache — distinct coverage-corpus texts as the hot set, then
/// one-shot texts shaped like servebench's fresh ones. Self-checking: no
/// hot text recompiles after warm-up and the cache stays within its
/// capacity. Reports the resident plans and the RSS the flood added.
fn t18_plan_cache_flood() -> T18Row {
    use std::collections::HashSet;
    use std::sync::Arc;
    use xq_core::PlanCache;

    let mut seen = HashSet::new();
    let hot: Vec<String> = xq_bench::coverage_corpus(4 * FLOOD_HOT)
        .iter()
        .map(ToString::to_string)
        .filter(|t| seen.insert(t.clone()))
        .take(FLOOD_HOT)
        .collect();
    assert_eq!(hot.len(), FLOOD_HOT, "corpus too small for the hot set");
    let cache = PlanCache::new();
    let mut plans: Vec<_> = hot
        .iter()
        .map(|t| cache.get_or_compile(t).expect("corpus text parses"))
        .collect();
    let rss_before = rss_kb();
    let (mut next, mut recompiles) = (0, 0);
    let start = Instant::now();
    for seq in 0..FLOOD_ONE_SHOTS {
        let base = &hot[seq % FLOOD_HOT];
        cache
            .get_or_compile(&format!("let $f0n{seq} := <f/> return ({base})"))
            .expect("fresh text parses");
        for _ in 0..FLOOD_HITS {
            let plan = cache.get_or_compile(&hot[next]).unwrap();
            if !Arc::ptr_eq(&plan, &plans[next]) {
                recompiles += 1;
                plans[next] = plan;
            }
            next = (next + 1) % FLOOD_HOT;
        }
    }
    let total_us = start.elapsed().as_secs_f64() * 1e6;
    let rss_delta_mb = (rss_kb() as f64 - rss_before as f64) / 1024.0;
    let resident = cache.len();
    let requests = FLOOD_ONE_SHOTS * (FLOOD_HITS + 1);
    println!(
        "\nPlan-cache flood ({FLOOD_HOT} hot texts, then {FLOOD_ONE_SHOTS} one-shot texts \
         each followed by {FLOOD_HITS} hot hits): {resident} plans resident \
         (capacity {}), {recompiles} hot recompiles, RSS {rss_delta_mb:+.1} MB, \
         {:.2} µs/request",
        PlanCache::CAPACITY,
        total_us / requests as f64
    );
    assert_eq!(recompiles, 0, "a hot text was evicted by one-shot texts");
    assert!(
        resident <= PlanCache::CAPACITY,
        "the plan cache outgrew its capacity"
    );
    T18Row {
        label: "plan_cache_flood",
        total_us,
        per_unit_us: total_us / requests as f64,
        extra: format!(
            ", \"resident_plans\": {resident}, \"hot_recompiles\": {recompiles}, \
             \"rss_delta_mb\": {rss_delta_mb:.1}"
        ),
    }
}

/// This process's resident set size in KiB (`VmRSS`; 0 where
/// `/proc/self/status` is unavailable).
fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// One T19 measurement: a closed-loop client count's serving profile
/// against the socket front door.
struct T19Row {
    clients: usize,
    requests: usize,
    ok: usize,
    shed: usize,
    p50_us: f64,
    p99_us: f64,
    throughput_rps: f64,
    wall_ms: f64,
}

/// The latency percentile of a sorted sample: the element at the linear
/// index `p/100 · (len − 1)`, rounded to the nearest index (no
/// interpolation).
fn percentile_us(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The closed-loop client of T19 and T20: `clients` connections to
/// `addr`, one thread each, every one sending a `query` frame for `src`
/// on document `d0`, waiting for its answer, and repeating `per_client`
/// times (nothing pipelined). Returns each answer with its round-trip
/// latency in µs, and the wall time of the whole run in ms.
fn closed_loop(
    addr: std::net::SocketAddr,
    clients: usize,
    per_client: usize,
    src: &str,
) -> (Vec<(f64, xq_server::Frame)>, f64) {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use xq_server::Frame;

    let started = Instant::now();
    let answers = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).expect("nodelay");
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    (0..per_client)
                        .map(|id| {
                            let frame = Frame::new()
                                .str("op", "query")
                                .uint("id", id as u64)
                                .str("doc", "d0")
                                .str("query", src);
                            let t0 = Instant::now();
                            writer.write_all(frame.encode().as_bytes()).expect("send");
                            writer.write_all(b"\n").expect("send");
                            writer.flush().expect("flush");
                            let mut line = String::new();
                            reader.read_line(&mut line).expect("recv");
                            let us = t0.elapsed().as_secs_f64() * 1e6;
                            let resp =
                                Frame::parse(line.trim_end_matches('\n')).expect("frame parses");
                            (us, resp)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    (answers, started.elapsed().as_secs_f64() * 1e3)
}

fn t19_serving() -> Vec<T19Row> {
    use xq_server::{Server, ServerConfig};

    header("T19  Network serving under load  (xq_server: admission, shedding)");
    const WORKERS: usize = 2;
    const CAPACITY: usize = 4;
    const PER_CLIENT: usize = 100;
    println!(
        "Closed-loop load generator over the line-delimited JSON socket \
         protocol: each client pipelines nothing — send one query, wait \
         for the answer (or the shed), repeat. {WORKERS} pool workers, \
         admission queue capacity {CAPACITY}; once concurrent clients \
         exceed workers + capacity the server must answer `overloaded` \
         immediately rather than queue without bound, so p99 for the \
         *admitted* requests stays bounded while the shed rate absorbs \
         the overload.\n"
    );

    // One moderately heavy query (a quadratic //* self-join shape on a
    // 200-node document) so per-request service time dominates loopback
    // latency and the queue actually fills under concurrency.
    let src = "for $x in $root//* return <w>{ $x//* }</w>";
    let mut g = TreeGen::new(19);
    let doc = cv_xtree::random_tree(&mut g, 200, &["a", "b", "k"]);
    let mut docs = std::collections::HashMap::new();
    docs.insert(
        "d0".to_string(),
        std::sync::Arc::new(ArenaDoc::from_tree(&doc)),
    );

    println!("| clients | requests | ok | shed | shed rate | p50 (µs) | p99 (µs) | ok/s |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut rows = Vec::new();
    for clients in [1usize, 2, 4, 8, 16] {
        let server = Server::start(ServerConfig {
            workers: WORKERS,
            queue_capacity: CAPACITY,
            docs: docs.clone(),
            ..ServerConfig::default()
        })
        .expect("start T19 server");
        let (answers, wall_ms) = closed_loop(server.addr(), clients, PER_CLIENT, src);
        let mut latencies: Vec<f64> = Vec::new();
        let mut shed = 0usize;
        for (us, resp) in answers {
            if resp.get_bool("ok") == Some(true) {
                latencies.push(us);
            } else {
                assert_eq!(
                    resp.get_str("code"),
                    Some("overloaded"),
                    "T19 only expects ok or overloaded answers"
                );
                shed += 1;
            }
        }
        let ok = latencies.len();
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let requests = clients * PER_CLIENT;
        let row = T19Row {
            clients,
            requests,
            ok,
            shed,
            p50_us: percentile_us(&latencies, 50.0),
            p99_us: percentile_us(&latencies, 99.0),
            throughput_rps: ok as f64 / (wall_ms / 1e3),
            wall_ms,
        };
        println!(
            "| {} | {} | {} | {} | {:.1}% | {:.1} | {:.1} | {:.0} |",
            row.clients,
            row.requests,
            row.ok,
            row.shed,
            100.0 * row.shed as f64 / row.requests as f64,
            row.p50_us,
            row.p99_us,
            row.throughput_rps
        );
        rows.push(row);
        drop(server);
    }

    // The load-shedding contract, self-checked: below the high-water
    // mark nothing is shed; well past it the server must actually shed
    // (16 closed-loop clients against workers + capacity = 6 admitted
    // slots cannot all be admitted once service time dominates).
    assert_eq!(rows[0].shed, 0, "a single closed-loop client never sheds");
    let past_mark = rows.last().unwrap();
    assert!(
        past_mark.shed > 0,
        "{} clients against {} admitted slots must shed",
        past_mark.clients,
        WORKERS + CAPACITY
    );

    println!(
        "\nShape: closed-loop concurrency beyond workers + queue slots converts \
         directly into sheds, not latency — the admitted-request percentiles grow \
         with queue depth only, which is the entire point of admission control."
    );
    rows
}

/// T19's `--json` payload.
fn t19_json(rows: &[T19Row]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"clients\": {}, \"requests\": {}, \"ok\": {}, \"shed\": {}, \
                 \"shed_rate\": {:.4}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
                 \"throughput_rps\": {:.1}, \"wall_ms\": {:.1}",
                r.clients,
                r.requests,
                r.ok,
                r.shed,
                r.shed as f64 / r.requests as f64,
                r.p50_us,
                r.p99_us,
                r.throughput_rps,
                r.wall_ms,
            )
        })
        .collect();
    let header = [
        "\"workers\": 2".to_string(),
        "\"queue_capacity\": 4".to_string(),
    ];
    table_json("T19", &header, &rows)
}

/// One T20 measurement: a concurrent-connection count served by the
/// fixed-thread reactor front door.
struct T20Row {
    conns: usize,
    requests: usize,
    ok: usize,
    p50_us: f64,
    p99_us: f64,
    throughput_rps: f64,
    wall_ms: f64,
}

fn t20_connection_scaling() -> Vec<T20Row> {
    use xq_server::{Server, ServerConfig};

    header("T20  Connection scaling  (xq_server reactor: fixed threads, many sockets)");
    const WORKERS: usize = 2;
    const PER_CONN: usize = 25;
    println!(
        "The connection-count sweep T19 could not run: the PR 7 front door \
         spent two threads per connection, so 64 clients cost 128 threads. \
         The reactor serves every connection from one thread ({WORKERS} pool \
         workers + 1 reactor = {} serving threads total, at any client \
         count). Same closed-loop clients and the same quadratic query as \
         T19, but an unbounded admission queue: with send-one-await-one \
         clients the queue is bounded by the connection count, and the \
         point here is socket scaling, not shedding. Throughput should \
         hold at the worker-limited rate — the T19 baseline — while \
         connections grow past anything thread-per-connection could pin.\n",
        WORKERS + 1
    );

    let src = "for $x in $root//* return <w>{ $x//* }</w>";
    let mut g = TreeGen::new(19);
    let doc = cv_xtree::random_tree(&mut g, 200, &["a", "b", "k"]);
    let mut docs = std::collections::HashMap::new();
    docs.insert(
        "d0".to_string(),
        std::sync::Arc::new(ArenaDoc::from_tree(&doc)),
    );

    println!("| conns | requests | ok | p50 (µs) | p99 (µs) | ok/s |");
    println!("|---|---|---|---|---|---|");
    let mut rows = Vec::new();
    for conns in [8usize, 16, 32, 64] {
        let server = Server::start(ServerConfig {
            workers: WORKERS,
            docs: docs.clone(),
            ..ServerConfig::default()
        })
        .expect("start T20 server");
        let (answers, wall_ms) = closed_loop(server.addr(), conns, PER_CONN, src);
        let mut latencies: Vec<f64> = Vec::new();
        for (us, resp) in answers {
            assert_eq!(
                resp.get_bool("ok"),
                Some(true),
                "T20 runs with an unbounded queue; every answer must be ok"
            );
            latencies.push(us);
        }
        let ok = latencies.len();
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let requests = conns * PER_CONN;
        let row = T20Row {
            conns,
            requests,
            ok,
            p50_us: percentile_us(&latencies, 50.0),
            p99_us: percentile_us(&latencies, 99.0),
            throughput_rps: ok as f64 / (wall_ms / 1e3),
            wall_ms,
        };
        println!(
            "| {} | {} | {} | {:.1} | {:.1} | {:.0} |",
            row.conns, row.requests, row.ok, row.p50_us, row.p99_us, row.throughput_rps
        );
        rows.push(row);
        drop(server);
    }

    // The scaling contract, self-checked: every request at every
    // connection count is answered (nothing lost multiplexing 64
    // sockets over one thread), and throughput at the top of the sweep
    // has not collapsed relative to the bottom — the workers stay the
    // bottleneck, not the reactor.
    for r in &rows {
        assert_eq!(r.ok, r.requests, "lost responses at {} conns", r.conns);
    }
    let (first, last) = (rows.first().unwrap(), rows.last().unwrap());
    assert!(last.conns >= 64, "the sweep must reach 64 connections");
    assert!(
        last.throughput_rps > 0.35 * first.throughput_rps,
        "throughput collapsed with connection count: {:.0} ok/s at {} conns \
         vs {:.0} ok/s at {} conns",
        last.throughput_rps,
        last.conns,
        first.throughput_rps,
        first.conns
    );

    println!(
        "\nShape: worker-limited throughput is flat across the sweep while \
         p50 grows linearly with the closed-loop connection count (each \
         request queues behind ~conns others) — the reactor adds sockets, \
         not threads, and loses nothing."
    );
    rows
}

/// T20's `--json` payload.
fn t20_json(rows: &[T20Row]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"conns\": {}, \"requests\": {}, \"ok\": {}, \
                 \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
                 \"throughput_rps\": {:.1}, \"wall_ms\": {:.1}",
                r.conns, r.requests, r.ok, r.p50_us, r.p99_us, r.throughput_rps, r.wall_ms,
            )
        })
        .collect();
    let header = [
        "\"workers\": 2".to_string(),
        "\"server_threads\": 3".to_string(),
    ];
    table_json("T20", &header, &rows)
}

/// One T21 measurement: a soak under one fault spec (or none, for the
/// baseline row).
struct T21Row {
    label: &'static str,
    spec: &'static str,
    requests: usize,
    ok: usize,
    internal: usize,
    shed: usize,
    deaths: usize,
    restarts: usize,
    throughput_rps: f64,
    wall_ms: f64,
}

fn t21_chaos() -> Vec<T21Row> {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use xq_server::{Frame, Server, ServerConfig};

    header("T21  Chaos soak  (xq_server: seeded fault injection, supervision)");
    const WORKERS: usize = 2;
    const CONNS: usize = 8;
    const PER_CONN: usize = 40;
    // The pinned default makes the table reproducible run over run; the
    // scheduled randomized soak overrides it through the environment.
    let seed: u64 = std::env::var("XQ_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2005);
    println!(
        "The T20 pipelined-client shape under seeded fault injection \
         (seed {seed}): worker panics contained by the unwind fence, \
         workers killed mid-delivery and respawned by the supervisor, \
         injected evaluation delays, injected admission refusals. \
         {CONNS} connections pipeline {PER_CONN} queries each; the \
         contract is not throughput but integrity — every query answered \
         exactly once, in order, with `ok`/`internal_error`/`overloaded`, \
         gauges back to zero and the pool back at {WORKERS} workers \
         after every row.\n"
    );

    let src = "for $x in $root//* return <w>{ $x//* }</w>";
    let mut g = TreeGen::new(19);
    let doc = cv_xtree::random_tree(&mut g, 200, &["a", "b", "k"]);
    let mut docs = std::collections::HashMap::new();
    docs.insert(
        "d0".to_string(),
        std::sync::Arc::new(ArenaDoc::from_tree(&doc)),
    );

    let specs: [(&'static str, &'static str); 3] = [
        ("baseline", ""),
        ("panics", "worker-panic=0.05"),
        (
            "full chaos",
            "worker-panic=0.05,completion-drop=0.03,slow-eval=0.2@1,submit-refusal=0.03",
        ),
    ];
    println!("| row | requests | ok | internal | shed | deaths | restarts | ok/s |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut rows = Vec::new();
    for (label, spec) in specs {
        let faults = (!spec.is_empty()).then(|| {
            std::sync::Arc::new(xq_core::Faults::from_spec(spec, seed).expect("T21 spec parses"))
        });
        let server = Server::start(ServerConfig {
            workers: WORKERS,
            docs: docs.clone(),
            faults,
            // Worst case every delivery kills its worker; self-healing
            // must never run out of budget mid-soak.
            restart_budget: (CONNS * PER_CONN) as u32,
            ..ServerConfig::default()
        })
        .expect("start T21 server");
        let started = Instant::now();
        let (mut ok, mut internal, mut shed) = (0usize, 0usize, 0usize);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNS)
                .map(|_| {
                    let addr = server.addr();
                    scope.spawn(move || {
                        let stream = TcpStream::connect(addr).expect("connect");
                        stream.set_nodelay(true).expect("nodelay");
                        let mut reader = BufReader::new(stream.try_clone().unwrap());
                        let mut writer = stream;
                        for id in 0..PER_CONN {
                            let frame = Frame::new()
                                .str("op", "query")
                                .uint("id", id as u64)
                                .str("doc", "d0")
                                .str("query", src);
                            writer.write_all(frame.encode().as_bytes()).expect("send");
                            writer.write_all(b"\n").expect("send");
                        }
                        writer.flush().expect("flush");
                        let (mut ok, mut internal, mut shed) = (0usize, 0usize, 0usize);
                        for id in 0..PER_CONN {
                            let mut line = String::new();
                            let n = reader.read_line(&mut line).expect("recv");
                            assert!(n > 0, "connection closed before id {id} answered");
                            let resp =
                                Frame::parse(line.trim_end_matches('\n')).expect("frame parses");
                            // Zero lost or duplicated responses: ids
                            // echo the pipeline order exactly.
                            assert_eq!(
                                resp.get_uint("id"),
                                Some(id as u64),
                                "T21 responses must arrive in pipeline order"
                            );
                            if resp.get_bool("ok") == Some(true) {
                                ok += 1;
                            } else {
                                match resp.get_str("code") {
                                    Some("internal_error") => internal += 1,
                                    Some("overloaded") => shed += 1,
                                    other => {
                                        panic!("T21 answers are ok/internal/overloaded: {other:?}")
                                    }
                                }
                            }
                        }
                        (ok, internal, shed)
                    })
                })
                .collect();
            for h in handles {
                let (o, i, s) = h.join().expect("client thread");
                ok += o;
                internal += i;
                shed += s;
            }
        });
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        // Gauges must return to zero and the supervisor must have the
        // pool back at strength before the row is accepted.
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        loop {
            let settled = server.queue_depth() == 0
                && server.in_flight() == 0
                && server.alive_workers() == WORKERS;
            if settled {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "T21 {label}: gauges or pool never settled"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let row = T21Row {
            label,
            spec,
            requests: CONNS * PER_CONN,
            ok,
            internal,
            shed,
            deaths: server.worker_deaths(),
            restarts: server.restarts(),
            throughput_rps: ok as f64 / (wall_ms / 1e3),
            wall_ms,
        };
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {:.0} |",
            row.label,
            row.requests,
            row.ok,
            row.internal,
            row.shed,
            row.deaths,
            row.restarts,
            row.throughput_rps
        );
        rows.push(row);
        drop(server);
    }

    // The containment contract, self-checked: the baseline row is
    // untouched by the machinery (injection off costs nothing and fails
    // nothing), every row answers every request, and the chaos rows
    // actually exercised the fence and the supervisor.
    for r in &rows {
        assert_eq!(
            r.ok + r.internal + r.shed,
            r.requests,
            "T21 {}: every request answered exactly once",
            r.label
        );
    }
    let baseline = &rows[0];
    assert_eq!(baseline.internal, 0, "baseline must not fail internally");
    assert_eq!(baseline.shed, 0, "baseline must not shed (unbounded queue)");
    assert_eq!(baseline.deaths, 0, "baseline must not lose workers");
    let chaos = rows.last().unwrap();
    assert!(chaos.internal > 0, "full chaos must surface failures");
    assert_eq!(
        chaos.deaths, chaos.restarts,
        "every crashed worker was respawned"
    );

    println!(
        "\nShape: fault injection converts a configurable slice of the \
         baseline's oks into contained `internal_error` answers (plus a \
         few injected sheds) without losing, duplicating, or reordering \
         a single response — and every worker the chaos kills is back \
         before the row ends."
    );
    rows
}

/// T21's `--json` payload.
fn t21_json(rows: &[T21Row]) -> String {
    let seed: u64 = std::env::var("XQ_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2005);
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"label\": \"{}\", \"spec\": \"{}\", \"requests\": {}, \
                 \"ok\": {}, \"internal\": {}, \"shed\": {}, \"deaths\": {}, \
                 \"restarts\": {}, \"throughput_rps\": {:.1}, \"wall_ms\": {:.1}",
                r.label,
                r.spec,
                r.requests,
                r.ok,
                r.internal,
                r.shed,
                r.deaths,
                r.restarts,
                r.throughput_rps,
                r.wall_ms,
            )
        })
        .collect();
    let header = ["\"workers\": 2".to_string(), format!("\"seed\": {seed}")];
    table_json("T21", &header, &rows)
}

/// T18's `--json` payload.
fn t18_json(rows: &[T18Row]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"label\": \"{}\", \"total_us\": {:.1}, \"per_unit_us\": {:.2}{}",
                r.label, r.total_us, r.per_unit_us, r.extra
            )
        })
        .collect();
    table_json("T18", &[], &rows)
}

/// Runs of the T18 service batch its median is taken over.
const T18_BATCH_RUNS: usize = 31;

/// Rounds of T16's interleaved timing.
const T16_ROUNDS: usize = 7;

/// The median time of `f(k)` for each `k` of `ks`, measured in `rounds`
/// rounds that each run every `k` once, after one warm-up round. On a
/// shared host the CPU speed drifts over seconds, and interleaving makes
/// the drift hit every `k` alike.
fn interleaved_medians_us(rounds: usize, ks: &[usize], mut f: impl FnMut(usize)) -> Vec<f64> {
    ks.iter().for_each(|&k| f(k));
    let mut times = vec![Vec::with_capacity(rounds); ks.len()];
    for _ in 0..rounds {
        for (i, &k) in ks.iter().enumerate() {
            let start = Instant::now();
            f(k);
            times[i].push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    times
        .into_iter()
        .map(|mut t| {
            t.sort_by(f64::total_cmp);
            t[rounds / 2]
        })
        .collect()
}

/// Median wall time of `runs` calls of `f` (after one warm-up), in µs.
fn median_us(runs: usize, mut f: impl FnMut()) -> f64 {
    interleaved_medians_us(runs, &[0], |_| f())[0]
}

/// Median µs of `Tree::tokens` over `trees` and of `ArenaDoc::tokens`
/// over `arenas`, timed interleaved for `rounds` rounds.
fn tokenize_medians_us(rounds: usize, trees: &[cv_xtree::Tree], arenas: &[ArenaDoc]) -> [f64; 2] {
    let us = interleaved_medians_us(rounds, &[0, 1], |k| {
        if k == 0 {
            for t in trees {
                std::hint::black_box(t.tokens());
            }
        } else {
            for a in arenas {
                std::hint::black_box(a.tokens());
            }
        }
    });
    [us[0], us[1]]
}

/// Times `f` over `iters` runs (after one warmup) and returns mean µs.
fn time_us(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// T14 — the `cv_monad::opt` pass and the streaming fast path (the README
/// "Performance" table is regenerated from this section).
fn t14_optimizer() {
    use cv_monad::{eval, opt, CollectionKind};

    header("T14  Optimizer & streaming fast path  (cv_monad::opt, xq_stream)");

    let (derived, builtin, input) = xq_bench::diff_workload();
    let (optimized, trace) = opt::optimize(&derived, CollectionKind::Set);

    let naive_us = time_us(50, || {
        eval(&derived, CollectionKind::Set, &input).unwrap();
    });
    let opt_us = time_us(50, || {
        eval(&optimized, CollectionKind::Set, &input).unwrap();
    });
    let builtin_us = time_us(50, || {
        eval(&builtin, CollectionKind::Set, &input).unwrap();
    });
    let pass_us = time_us(50, || {
        opt::optimize(&derived, CollectionKind::Set);
    });
    println!("| workload (|R| = 60, |S| = 30) | naive derived (µs) | optimized (µs) | builtin (µs) | naive/opt | opt/builtin |");
    println!("|---|---|---|---|---|---|");
    println!(
        "| Ex 2.4 difference | {naive_us:.1} | {opt_us:.1} | {builtin_us:.1} | {:.1}x | {:.2}x |",
        naive_us / opt_us,
        opt_us / builtin_us
    );
    println!(
        "\nRewrite trace: {:?} (pass itself: {pass_us:.1} µs)",
        trace.rules()
    );

    println!("\n| n (doubling family) | lazy stream (µs) | buffered stream (µs) | materializing (µs) | lazy/buffered | lazy pulls | buffered pulls |");
    println!("|---|---|---|---|---|---|---|");
    let t = cv_xtree::parse_tree("<r/>").unwrap();
    let doc = ArenaDoc::from_tree(&t);
    let (lazy, buffered) = (
        StreamConfig::lazy(u64::MAX),
        StreamConfig::buffered(u64::MAX),
    );
    for n in [2usize, 4] {
        let q = doubling_query(n);
        let lazy_us = time_us(10, || {
            xq_stream::stream_query(&q, &doc, lazy).unwrap();
        });
        let buf_us = time_us(10, || {
            xq_stream::stream_query(&q, &doc, buffered).unwrap();
        });
        let mat_us = time_us(10, || {
            eval_query(&q, &t).unwrap();
        });
        let (_, lazy_stats) = xq_stream::stream_query(&q, &doc, lazy).unwrap();
        let (_, buf_stats) = xq_stream::stream_query(&q, &doc, buffered).unwrap();
        println!(
            "| {n} | {lazy_us:.1} | {buf_us:.1} | {mat_us:.1} | {:.1}x | {} | {} |",
            lazy_us / buf_us,
            lazy_stats.pulls,
            buf_stats.pulls
        );
    }
    println!("\nShape: the optimized plan matches the builtin; buffering closes most of the lazy-streaming gap on tiny outputs.");
}

/// T15 — the arena document store vs the `Rc` tree (`cv_xtree::arena`,
/// README "Performance" rows): build, descendant-axis scan, and
/// tokenization at the doubling-family sizes and on the random-queries
/// corpus documents, plus the §5.1 path-set encoding.
fn t15_arena() {
    use cv_xtree::{ArenaDoc, Axis, DoublingFamily, NodeTest, TreeGen};

    header("T15  Arena document store vs Rc tree  (cv_xtree::arena)");

    println!("| family (n) | nodes | tree build (µs) | arena build (µs) | build speedup | tree dsc-scan (µs) | arena dsc-scan (µs) | scan speedup |");
    println!("|---|---|---|---|---|---|---|---|");
    // Scan for a tag each family actually contains (comb documents hold
    // only s/t nodes), so every row measures a hit-collecting scan.
    for (family, n, tag) in [
        (DoublingFamily::Binary, 15u32, "a"),
        (DoublingFamily::Wide, 16, "a"),
        (DoublingFamily::Comb, 12, "t"),
    ] {
        let tree_us = time_us(20, || {
            std::hint::black_box(family.tree(n));
        });
        let arena_us = time_us(20, || {
            std::hint::black_box(family.arena(n));
        });
        let tree = family.tree(n);
        let arena = family.arena(n);
        let test = NodeTest::tag(tag);
        let tscan_us = time_us(20, || {
            let hits = tree
                .axis(Axis::Descendant)
                .into_iter()
                .filter(|t| test.matches(t.label()))
                .count();
            std::hint::black_box(hits);
        });
        let ascan_us = time_us(20, || {
            std::hint::black_box(arena.axis(arena.root(), Axis::Descendant, &test).len());
        });
        println!(
            "| {family} ({n}) | {} | {tree_us:.1} | {arena_us:.1} | {:.1}x | {tscan_us:.1} | {ascan_us:.1} | {:.1}x |",
            family.size(n),
            tree_us / arena_us,
            tscan_us / ascan_us
        );
    }

    // Tokenization, the one step where a streaming run over an `Rc` tree
    // and one over the arena differ: `Tree::tokens` recurses through
    // `Rc` children, `ArenaDoc::tokens` walks the parallel vectors.
    println!("\n| tokenization | `Tree::tokens` (µs) | `ArenaDoc::tokens` (µs) | ratio |");
    println!("|---|---|---|---|");
    let tree = DoublingFamily::Binary.tree(7);
    let arena = DoublingFamily::Binary.arena(7);
    // Each pair of rows is timed interleaved (median of 101 alternating
    // rounds): separate means drift apart with the host's CPU speed.
    let [t_us, a_us] = tokenize_medians_us(
        101,
        std::slice::from_ref(&tree),
        std::slice::from_ref(&arena),
    );
    println!(
        "| binary n=7 | {t_us:.1} | {a_us:.1} | {:.1}x |",
        t_us / a_us
    );
    // The random-queries corpus documents.
    let corpus: Vec<cv_xtree::Tree> = (0..3u64)
        .map(|seed| {
            let mut g = TreeGen::new(seed);
            cv_xtree::random_tree(&mut g, 10, &["a", "b", "k"])
        })
        .collect();
    let arenas: Vec<ArenaDoc> = corpus.iter().map(ArenaDoc::from_tree).collect();
    let [ct_us, ca_us] = tokenize_medians_us(501, &corpus, &arenas);
    println!(
        "| random-queries docs() corpus | {ct_us:.2} | {ca_us:.2} | {:.1}x |",
        ct_us / ca_us
    );

    // The §5.1 path-set encoding (xq_paths::treepaths): recursive Rc-tree
    // traversal vs the single-pass arena walk. Expected ratio ~1× — Term
    // path-set construction dominates both — recorded to keep that claim
    // honest (the arena route's value is skipping tree materialization).
    let ptree = DoublingFamily::Binary.tree(12);
    let parena = DoublingFamily::Binary.arena(12);
    let tp_us = time_us(10, || {
        std::hint::black_box(xq_paths::tree_paths(&ptree));
    });
    let dp_us = time_us(10, || {
        std::hint::black_box(xq_paths::doc_paths(&parena));
    });
    println!(
        "\n| §5.1 path-set encoding (binary n=12) | tree_paths (µs) | doc_paths (µs) | ratio |"
    );
    println!("|---|---|---|---|");
    println!(
        "| {} paths | {tp_us:.1} | {dp_us:.1} | {:.1}x |",
        1u64 << 12,
        tp_us / dp_us
    );
    println!("\nShape: contiguous id-indexed vectors beat per-node Rc allocation on build and axis scans; the path-set encoding (where Term construction dominates) and tokenizing a 255-node document run at about the same speed on both stores, while the arena pays a per-call cost tokenizing 10-node documents.");
}

/// T1 — Theorem 5.6 / Lemma 5.7(a,b): NTM reduction.
fn t1_ntm_reduction() {
    header("T1  NTM → M∪[=atomic]  (Thm 5.6; NEXPTIME-hardness)");
    println!("| machine | input | simulator | φ_accept | agree |");
    println!("|---|---|---|---|---|");
    let cases: Vec<(red::Ntm, Vec<usize>, &str)> = vec![
        (red::ntm::zoo::first_is_one(), vec![1, 0], "first_is_one"),
        (red::ntm::zoo::first_is_one(), vec![0, 1], "first_is_one"),
        (red::ntm::zoo::some_one(), vec![0, 1], "some_one"),
        (red::ntm::zoo::some_one(), vec![0, 0], "some_one"),
        (red::ntm::zoo::writes_then_accepts(), vec![0, 0], "writes"),
        (red::ntm::zoo::reject_all(), vec![1, 1], "reject_all"),
    ];
    for (m, input, name) in cases {
        let start = m.start_config(&input, 2);
        let want = m.accepts_in(&start, 2);
        let got = NtmReduction::new(&m, 1, input.clone(), EqFlavor::Builtin)
            .run(Budget::large())
            .expect("K=1 fits the budget");
        println!(
            "| {name} | {input:?} | {want} | {got} | {} |",
            if want == got { "yes" } else { "NO" }
        );
    }
    // K=2: tape length 4 — the Figure 7 zoom-in rules execute.
    println!();
    println!("| machine (K=2, zoom-in active) | input | simulator | φ_accept | agree |");
    println!("|---|---|---|---|---|");
    let big = Budget {
        max_steps: 2_000_000_000,
        max_nodes: 2_000_000_000,
    };
    for (m, input, name) in [
        (
            red::ntm::zoo::first_is_one(),
            vec![1, 0, 0, 0],
            "first_is_one",
        ),
        (red::ntm::zoo::some_one(), vec![0, 0, 1, 0], "some_one"),
        (red::ntm::zoo::some_one(), vec![0, 0, 0, 0], "some_one"),
    ] {
        let start = m.start_config(&input, 4);
        let want = m.accepts_in(&start, 4);
        let got = NtmReduction::new(&m, 2, input.clone(), EqFlavor::Builtin)
            .run(big)
            .expect("K=2 fits the large budget");
        println!(
            "| {name} | {input:?} | {want} | {got} | {} |",
            if want == got { "yes" } else { "NO" }
        );
    }

    println!("\n| K | size (builtin =mon) | size (defined =mon) |");
    println!("|---|---|---|");
    let m = red::ntm::zoo::first_is_one();
    for k in 1..=8u32 {
        let b = NtmReduction::new(&m, k, vec![1], EqFlavor::Builtin)
            .accept_query()
            .size();
        let d = NtmReduction::new(&m, k, vec![1], EqFlavor::Defined)
            .accept_query()
            .size();
        println!("| {k} | {b} | {d} |");
    }
    println!("\nShape: builtin grows linearly in K (Lemma 5.7b), defined quadratically (5.7a).");
}

/// T2 — Theorem 5.9: ATM reduction.
fn t2_atm_reduction() {
    header("T2  ATM → M∪[=mon, not]  (Thm 5.9/5.11; TA[2^O(n),O(n)]-hardness)");
    println!("| machine | A_i oracle | φ_accept | agree |");
    println!("|---|---|---|---|");
    for require_one in [true, false] {
        let m = red::atm::zoo::forall_then_check(require_one);
        let input = vec![1, 0];
        let start = m.machine.start_config(&input, 2);
        let want = m.accepts_alternating(&start, 2, 3);
        let got = red::AtmReduction::new(&m, 1, input, 3)
            .run(Budget::large())
            .expect("K=1 fits the budget");
        println!(
            "| forall_then_check({require_one}) | {want} | {got} | {} |",
            if want == got { "yes" } else { "NO" }
        );
    }
}

/// T3 — Prop 4.2/4.3: blowup family.
fn t3_blowup() {
    header("T3  Doubly exponential values  (Prop 4.2/4.3)");
    println!("| m | |Q| | predicted 2^(2^m) | measured cardinality | C_f bound holds |");
    println!("|---|---|---|---|---|");
    for m in 0..=4usize {
        match red::measure_blowup(m, Budget::large()) {
            Ok(p) => {
                let bound = red::size_bound(&red::blowup_query(m), 1);
                println!(
                    "| {m} | {} | {} | {} | {} |",
                    p.query_size,
                    red::blowup_cardinality(m),
                    p.cardinality,
                    bound >= p.node_count
                );
            }
            Err(e) => println!(
                "| {m} | {} | {} | budget: {e} | – |",
                red::blowup_query(m).size(),
                red::blowup_cardinality(m)
            ),
        }
    }
}

/// T4 — Theorem 4.5: streaming vs materializing.
fn t4_streaming() {
    header("T4  Streaming (EXPSPACE) vs materializing  (Thm 4.5)");
    println!("| n | output tokens | materializer items | stream peak cursors | stream pulls |");
    println!("|---|---|---|---|---|");
    let t = cv_xtree::parse_tree("<r/>").unwrap();
    let doc = ArenaDoc::from_tree(&t);
    for n in [2usize, 4, 6] {
        let q = doubling_query(n);
        let out = eval_query(&q, &t).unwrap();
        let (tokens, stats) =
            xq_stream::stream_query(&q, &doc, StreamConfig::lazy(u64::MAX)).unwrap();
        println!(
            "| {n} | {} | {} | {} | {} |",
            tokens.len(),
            out.len(),
            stats.peak_live_cursors,
            stats.pulls
        );
    }
    println!("\nShape: output doubles per step; live cursors stay ~flat (space ≪ output).");
}

/// T5 — Prop 7.3/7.4: QBF / PSPACE engine.
fn t5_qbf() {
    header("T5  QBF → XQ⁻[not]  (Prop 7.4; PSPACE-hardness) + space (Prop 7.3)");
    println!("| vars | oracle | reduction | agree | live bindings |");
    println!("|---|---|---|---|---|");
    let tree = red::qbf_tree();
    let doc = ArenaDoc::from_tree(&tree);
    let mut gen = TreeGen::new(2005);
    for vars in [2usize, 4, 6, 8] {
        let f = red::random_qbf(&mut gen, vars, vars);
        let q = red::qbf_query(&f);
        let want = f.is_true();
        let mut engine = NestedLoopEngine::new(&doc);
        let got = engine.boolean(&q).unwrap();
        println!(
            "| {vars} | {want} | {got} | {} | {} |",
            if want == got { "yes" } else { "NO" },
            engine.stats().max_live_bindings
        );
    }
    println!("\nShape: live bindings = vars + 1 — O(|Q| log |t|) space, per Prop 7.3.");
}

/// T6 — Prop 7.6/7.7: 3COL / NP engine.
fn t6_three_col() {
    header("T6  3COL → positive XQ⁻  (Prop 7.7; NP-hardness)");
    println!("| graph | oracle | witness search | nested loop | agree |");
    println!("|---|---|---|---|---|");
    let tree = red::color_tree();
    let doc = ArenaDoc::from_tree(&tree);
    let mut cases = vec![
        ("K4".to_string(), red::three_col::k4()),
        ("C5".to_string(), red::three_col::c5()),
    ];
    let mut gen = TreeGen::new(42);
    for v in [5usize, 7] {
        cases.push((
            format!("rand(v={v})"),
            red::random_graph(&mut gen, v, v + 2),
        ));
    }
    for (name, graph) in cases {
        let want = graph.is_3_colorable();
        let q = red::three_col_query(&graph);
        let w = witness_boolean(&q, &tree).unwrap();
        let nl = NestedLoopEngine::new(&doc).boolean(&q).unwrap();
        println!(
            "| {name} | {want} | {w} | {nl} | {} |",
            if want == w && want == nl { "yes" } else { "NO" }
        );
    }
}

/// T7 — Lemmas 3.2/3.3: translations.
fn t7_translations() {
    header("T7  XQ ↔ monad algebra translations  (Lemmas 3.2/3.3)");
    let q = books_query();
    let e = ma_query(&q).unwrap();
    println!("| |Q| (XQ) | |MA(Q)| | ratio |");
    println!("|---|---|---|");
    println!(
        "| {} | {} | {:.1} |",
        q.size(),
        e.size(),
        e.size() as f64 / q.size() as f64
    );
    let doc = bib_document(8);
    println!(
        "\nLemma 3.2 invariant C′([[Q]](t)) = MA(Q)(env) on the books workload: {}",
        ma_invariant_holds(&q, &doc).unwrap()
    );
    let ratios: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&k| {
            let mut src = String::from("$root");
            for _ in 0..k * 3 {
                src = format!("for $x in {src} return ($x, $x)");
            }
            let q = xq_core::parse_query(&src).unwrap();
            let e = ma_query(&q).unwrap();
            format!("{:.1}", e.size() as f64 / q.size() as f64)
        })
        .collect();
    println!("Size ratios on a growing family (should stay ~constant): {ratios:?}");
}

/// T8 — Thm 5.2 + Figures 5/6: path semantics.
fn t8_path_semantics() {
    header("T8  Path semantics & proof trees  (Thm 5.2, Figs 5/6)");
    let q = figure_5_query();
    let out = eval_paths(&q, &unit_input()).unwrap();
    println!("Figure 5 final deterministic tree: {} path(s):", out.len());
    for p in &out {
        println!("  {p}");
    }
    let target = out.iter().next().unwrap();
    let proof = prove(&q, &unit_input(), target).unwrap().unwrap();
    let stats = proof.stats();
    println!(
        "\nFigure 6 proof tree: {} nodes, depth {}, max branching {}, max path size {}",
        stats.nodes, stats.depth, stats.max_branching, stats.max_path_size
    );
    println!("(Thm 5.2 predicts branching ≤ 2 and polynomial path sizes.)");
    println!("\n{}", proof.render());
}

/// T9 — Thm 6.5/6.6: data complexity.
fn t9_data_complexity() {
    header("T9  Data complexity  (Thm 6.5/6.6: LOGSPACE / TC⁰)");
    println!("| books | tree eval (µs) | ratio to previous |");
    println!("|---|---|---|");
    let q = books_query();
    let mut prev: Option<f64> = None;
    for n in [10usize, 100, 1000, 10000] {
        let doc = bib_document(n);
        let start = Instant::now();
        let _ = eval_query(&q, &doc).unwrap();
        let us = start.elapsed().as_secs_f64() * 1e6;
        let ratio = prev.map(|p| format!("{:.1}", us / p)).unwrap_or("-".into());
        println!("| {n} | {us:.0} | {ratio} |");
        prev = Some(us);
    }
    println!("\nShape: ~10x time per 10x data (fixed query ⇒ polynomial, near-linear).");
    let small = bib_document(3);
    let a = xq_fom::eval_positional(&q, &small, u64::MAX).unwrap();
    let b: Vec<cv_xtree::Token> = eval_query(&q, &small)
        .unwrap()
        .iter()
        .flat_map(cv_xtree::Tree::tokens)
        .collect();
    println!(
        "Positional (Remark 6.7) agreement on a small instance: {}",
        a == b
    );
}

/// T10 — Thm 7.9: composition elimination.
fn t10_rewrite() {
    header("T10  Composition elimination  (Thm 7.9; exponential succinctness)");
    println!("| let-depth | |Q| | |rewritten| | blowup |");
    println!("|---|---|---|---|");
    for depth in 1..=7usize {
        let q = let_chain_query(depth);
        let (out, _) = eliminate_composition(&q, 100_000_000).unwrap();
        println!(
            "| {depth} | {} | {} | {:.1}x |",
            q.size(),
            out.size(),
            out.size() as f64 / q.size() as f64
        );
    }
    println!("\nShape: rewritten size ~doubles per extra let — the succinctness gap.");
}

/// T11 — Thm 2.2: derived vs built-in operations.
fn t11_derived() {
    header("T11  Derived operations  (Thm 2.2 equivalences)");
    use cv_monad::derived::*;
    use cv_monad::{eval, CollectionKind, Expr};
    use cv_value::parse_value;
    let pair = parse_value("<R: {1, 2, 3, 4}, S: {2, 4}>").unwrap();
    let builtin = eval(
        &Expr::Diff(Expr::proj("R").into(), Expr::proj("S").into()),
        CollectionKind::Set,
        &pair,
    )
    .unwrap();
    let derived = eval(&derived_diff(), CollectionKind::Set, &pair).unwrap();
    println!(
        "difference: builtin = {builtin}, Example 2.4 = {derived}, agree = {}",
        builtin == derived
    );
    let sub = eval(&subset_pred("S", "R"), CollectionKind::Set, &pair).unwrap();
    println!("S ⊆ R via Example 2.3: {}", sub.is_true());
}

/// T12 — Appendix A.1: the logic-programming reduction.
fn t12_logicprog() {
    header("T12  MA → nonrecursive logic programming  (Appendix A.1)");
    let q = figure_5_query();
    let lp = ma_to_lp(&q).unwrap();
    println!(
        "Figure 5 query: |Q| = {}, |program| = {}, predicates = {}",
        q.size(),
        lp.program.size(),
        lp.program.pred_names.len()
    );
    println!("success = {}", lp_succeeds(&lp, 1_000_000).unwrap());
    println!(
        "path semantics agrees = {}",
        eval_paths(&q, &unit_input()).unwrap().len()
            == lp.program.evaluate(1_000_000).unwrap()[lp.goal].len()
    );
}

/// T13 — Thm 2.5 / Prop 6.1 / Fig 11.
fn t13_relalg() {
    header("T13  Flat encoding V_τ  (Prop 6.1 / Fig 11) & conservativity (Thm 2.5)");
    let ty = cv_value::parse_type("{<A: Dom, B: Dom>}").unwrap();
    let v = cv_value::parse_value("{<A: a, B: b>, <A: c, B: d>}").unwrap();
    let (flat, root) = xq_relalg::flat_value(&v);
    let got = cv_monad::eval(
        &xq_relalg::v_prime(&ty, root),
        cv_monad::CollectionKind::Set,
        &flat,
    )
    .unwrap();
    println!("v            = {v}");
    println!("V′(flat(v))  = {got}");
    println!("Fig 11 check = {}", got == cv_value::Value::set([v]));
    let _ = Var::root(); // silence unused import on some feature sets
}
