//! The complexity landscape of Table I, made executable: the blowup
//! family (Prop 4.2), the NTM reduction (Thm 5.6), the QBF reduction
//! (Prop 7.4), and the streaming evaluator that keeps space singly
//! exponential (Thm 4.5).

use xq_complexity::core::parse_query;
use xq_complexity::monad::Budget;
use xq_complexity::reductions::{self as red, measure_blowup, EqFlavor, NtmReduction};
use xq_complexity::stream::{stream_query, StreamConfig};

fn main() {
    println!("Prop 4.2 — values of size 2^(2^m) from queries of size O(m):");
    for m in 0..=4usize {
        let p = measure_blowup(m, Budget::large()).unwrap();
        println!(
            "  m={m}: |Q|={}, |result|={} members",
            p.query_size, p.cardinality
        );
    }

    println!("\nThm 5.6 — machine acceptance as a monad algebra query (K=1):");
    let machine = red::ntm::zoo::some_one();
    for input in [vec![0, 1], vec![0, 0]] {
        let start = machine.start_config(&input, 2);
        let simulated = machine.accepts_in(&start, 2);
        let reduced = NtmReduction::new(&machine, 1, input.clone(), EqFlavor::Builtin)
            .run(Budget::large())
            .unwrap();
        println!("  input {input:?}: simulator={simulated}, φ_accept={reduced}");
    }

    println!("\nProp 7.4 — QBF as a composition-free query:");
    let f = red::Qbf {
        prefix: vec![red::Quantifier::Forall, red::Quantifier::Exists],
        matrix: red::Formula::Or(
            Box::new(red::Formula::Not(Box::new(red::Formula::Var(0)))),
            Box::new(red::Formula::Var(1)),
        ),
    };
    let q = red::qbf_query(&f);
    println!(
        "  ∀x∃y(¬x ∨ y) → {}",
        xq_complexity::core::boolean_result(&q, &red::qbf_tree()).unwrap()
    );

    println!("\nThm 4.5 — streaming keeps live state small while output doubles:");
    let t = xq_complexity::xtree::parse_tree("<r/>").unwrap();
    let doc = xq_complexity::xtree::ArenaDoc::from_tree(&t);
    for n in [2usize, 4, 6] {
        let mut src = String::from("<z/>");
        for i in 0..n {
            src = format!("for $v{i} in ({src}, {src}) return <z/>");
        }
        let q = parse_query(&src).unwrap();
        let (tokens, stats) = stream_query(&q, &doc, StreamConfig::lazy(u64::MAX)).unwrap();
        println!(
            "  n={n}: {} output tokens, {} peak live cursors",
            tokens.len(),
            stats.peak_live_cursors
        );
    }
}
