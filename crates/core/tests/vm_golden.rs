//! Golden disassembly listings for the bytecode compiler: representative
//! queries covering every opcode family (axis steps, element
//! construction, sequences, `for`/`let` loops, conditionals, both
//! quantifiers, connectives, all four axes, the desugared `if/else` and
//! `where` forms) compile to a pinned listing, so lowering changes
//! surface as reviewable golden-file diffs instead of silent drift.
//!
//! Regenerate after an intentional compiler change with
//!
//! ```text
//! XQ_UPDATE_GOLDEN=1 cargo test -p xq_core --test vm_golden
//! ```
//! and review the diff of `tests/golden/disasm.golden` like any other
//! code change. The listing is independent of documents, budgets, and
//! thread counts, so both CI passes pin the same bytes.

use std::fmt::Write as _;

/// The fixed query set. Changing this list invalidates the golden file
/// on purpose.
const QUERIES: [&str; 12] = [
    // The trivial plan.
    "()",
    // A child step off $root (free variable, no slots).
    "$root/a",
    // Element construction over a descendant step.
    "<out>{ $root//b }</out>",
    // A sequence of two steps.
    "($root/a, $root/b)",
    // The canonical loop: slot-bound variable, shardable source.
    "for $x in $root/* return <w>{ $x/* }</w>",
    // let-binding used twice — one slot, two loads.
    "let $x := $root/a return ($x, $x)",
    // if/else desugars to a Seq of guarded branches (negated const-eq).
    "if ($root =atomic <k/>) then <hit/> else <miss/>",
    // An existential quantifier inside a loop body.
    "for $x in $root/* return \
     if (some $y in $x/* satisfies ($y =atomic <k/>)) then $x",
    // Connectives and a universal quantifier (deep equality).
    "if (not($root/a) or every $z in $root/b satisfies ($z = $root)) \
     then <y/>",
    // Nested loops; self axis; mixed output.
    "for $x in $root/a return for $y in $x/self::* return ($y, <k/>)",
    // The descendant-or-self axis.
    "$root/dos::a",
    // where-sugar: filter folded into the body.
    "for $x in $root/* where $x =atomic <a/> return $x",
];

fn render_golden() -> String {
    let mut out = String::new();
    out.push_str(
        "Bytecode listings for the fixed query set in vm_golden.rs.\n\
         Regenerate with XQ_UPDATE_GOLDEN=1 after intentional compiler changes.\n",
    );
    for src in QUERIES {
        let plan = xq_core::compile_query_text(src).expect("golden query parses");
        writeln!(out, "\n{:=<72}", "").unwrap();
        out.push_str(&plan.disasm());
    }
    out
}

#[test]
fn disassembly_matches_the_golden_file() {
    let got = render_golden();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/disasm.golden");
    if std::env::var_os("XQ_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file missing — run with XQ_UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        got, want,
        "disassembly drifted from tests/golden/disasm.golden; \
         if intentional, regenerate with XQ_UPDATE_GOLDEN=1"
    );
}
