//! The parser's nesting cap ([`MAX_QUERY_DEPTH`]) is what keeps a deep
//! query text from overflowing a serving worker's stack — an abort no
//! unwind fence can contain. For each way of nesting a query, this suite
//! finds the deepest text the parser accepts and checks that it parses,
//! compiles, runs on the VM and on the interpreter, serializes and drops
//! on a thread with a 2 MiB stack (the default for spawned threads), and
//! that one more level — or a hundred thousand — is rejected as a parse
//! error.

use xq_core::{
    compile_query, eval_with, parse_query, vm, Budget, Env, QueryParseError, MAX_QUERY_DEPTH,
};

/// `n` copies of `open`, then `core`, then `n` copies of `close`.
fn nest(n: usize, open: &str, core: &str, close: &str) -> String {
    format!("{}{core}{}", open.repeat(n), close.repeat(n))
}

fn list(n: usize, item: &str, sep: &str) -> String {
    vec![item; n].join(sep)
}

/// Builds a family's text at nesting `n`.
type Family = fn(usize) -> String;

/// One family of texts per nesting construct; each nests deeper as `n`
/// grows.
fn families() -> Vec<(&'static str, Family)> {
    vec![
        ("parentheses", |n| nest(n, "(", "$root", ")")),
        ("constructors", |n| nest(n, "<a>", "", "</a>")),
        ("enclosed constructors", |n| {
            nest(n, "<a>{ ", "$root", " }</a>")
        }),
        ("for chain", |n| {
            nest(n, "for $x in $root return ", "$x", "")
        }),
        ("where chain", |n| {
            nest(n, "for $x in $root where $x return ", "$x", "")
        }),
        ("let chain", |n| {
            nest(n, "let $x := $root return ", "$x", "")
        }),
        ("comma list", |n| format!("({})", list(n, "$root", ", "))),
        ("element parts", |n| {
            format!("<o>{}</o>", list(n, "{ $root }", ""))
        }),
        ("path steps", |n| format!("$root{}", "/self::*".repeat(n))),
        ("steps on parentheses", |n| {
            nest(n, "(", "$root", ")/self::*")
        }),
        ("and chain", |n| {
            format!("if ({}) then <y/>", list(n, "$root", " and "))
        }),
        ("or chain", |n| {
            format!("if ({}) then <y/>", list(n, "$root", " or "))
        }),
        ("not chain", |n| {
            format!("if ({}) then <y/>", nest(n, "not(", "$root", ")"))
        }),
        ("condition parentheses", |n| {
            format!("if ({}) then <y/>", nest(n, "(", "$root", ")"))
        }),
        ("some chain", |n| {
            format!(
                "if ({}) then <y/>",
                nest(n, "some $x in $root satisfies ", "$x = $root", "")
            )
        }),
        ("every chain", |n| {
            format!(
                "if ({}) then <y/>",
                nest(n, "every $x in $root/* satisfies ", "$x/self::a", "")
            )
        }),
        ("if-else chain", |n| {
            nest(n, "if ($root/b) then <a/> else ", "<b/>", "")
        }),
        ("path equality chain", |n| {
            format!(
                "if ({}) then <y/>",
                list(n, "$root/self::*/a = $root/a", " and ")
            )
        }),
    ]
}

fn is_depth_error(e: &QueryParseError) -> bool {
    e.message.contains("nests deeper")
}

/// The largest `n` whose text the parser accepts (the families are
/// monotone: one more level never turns a rejected text into a legal
/// one).
fn deepest_accepted(family: Family) -> usize {
    let (mut ok, mut bad) = (1, 4 * MAX_QUERY_DEPTH);
    assert!(parse_query(&family(ok)).is_ok());
    assert!(parse_query(&family(bad)).is_err());
    while bad - ok > 1 {
        let mid = (ok + bad) / 2;
        if parse_query(&family(mid)).is_ok() {
            ok = mid;
        } else {
            bad = mid;
        }
    }
    ok
}

/// Parse, compile, run on both engines, serialize, compare and drop —
/// everything a served request does with the text.
fn full_pipeline(src: &str) {
    let q = parse_query(src).expect("accepted text parses");
    let plan = compile_query(&q);
    let env = Env::with_root(cv_xtree::parse_tree("<r><a/></r>").unwrap());
    let on_vm = vm::exec_with(&plan, &env, Budget::default())
        .map(|(out, _)| out.iter().map(|t| t.to_xml()).collect::<String>());
    let interpreted = eval_with(&q, &env, Budget::default())
        .map(|(out, _)| out.iter().map(|t| t.to_xml()).collect::<String>());
    assert_eq!(
        on_vm.as_ref().map_err(ToString::to_string),
        interpreted.as_ref().map_err(ToString::to_string)
    );
    drop((q, plan, env, on_vm, interpreted));
}

#[test]
fn deepest_accepted_queries_run_end_to_end_on_a_2_mib_stack() {
    for (name, family) in families() {
        let n = deepest_accepted(family);
        for deeper in [n + 1, 100_000] {
            let e = parse_query(&family(deeper)).expect_err("past the cap");
            assert!(is_depth_error(&e), "{name} at {deeper}: {e}");
        }
        // Every family nests meaningfully deep before the cap: constructs
        // that count several levels each reach fewer repetitions.
        assert!(n >= MAX_QUERY_DEPTH / 8, "{name}: only {n} levels accepted");
        let src = family(n);
        std::thread::Builder::new()
            .name(format!("deep {name}"))
            .stack_size(2 << 20)
            .spawn(move || full_pipeline(&src))
            .unwrap()
            .join()
            .unwrap_or_else(|_| panic!("{name} at depth {n} failed on a 2 MiB stack"));
    }
}
