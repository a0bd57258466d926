//! The VM's allocation guard: after a warm run, a query allocates a
//! fixed number of times however many iterations its loops take.
//!
//! A counting global allocator over [`System`] counts each thread's
//! allocations (reallocations included). Each text runs on a 40-node and
//! a 400-node document; the bigger document makes
//! its loops run many more iterations, and the two counts must be equal.
//! What a run may allocate is per run, not per iteration: the result
//! list, the trees the query builds anew (a memoized constructor builds
//! once), and nothing for the machine's own lists, whose buffers each
//! thread keeps between runs.

use cv_xtree::{random_arena_document, ArenaDoc, TreeGen};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xq_core::vm::{compile_query_text, exec_doc};
use xq_core::Budget;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// `many-small`'s slowest hot text (seed 1): two nested loops that build
/// one `<k/>` per inner iteration, about a thousand on a 40-node document.
const CTOR_LOOP: &str = "for $v0 in $root//* return if (not($v0 =atomic <a/>)) then \
                         for $v1 in $root/dos::* return <k/>";
/// `heavy-eval`'s text: a loop around a fused quantifier.
const HEAVY_EVAL: &str =
    "<r>{ for $x in $root//a return if (some $y in $root//b satisfies ($x =atomic $y)) \
     then <hit/> }</r>";

fn doc(nodes: usize) -> ArenaDoc {
    random_arena_document(&mut TreeGen::new(1), nodes, &["a", "b", "k"])
}

#[test]
fn warm_runs_allocate_the_same_on_small_and_big_documents() {
    let docs = [doc(40), doc(400)];
    for text in [CTOR_LOOP, HEAVY_EVAL] {
        let plan = compile_query_text(text).unwrap();
        let run = |d: &ArenaDoc| exec_doc(&plan, d, Budget::default()).unwrap();
        // Warm: the node tables, the label lookups, and this thread's
        // machine buffers at the bigger document's size.
        docs.iter().for_each(|d| drop(run(d)));
        let [(small, (s_out, s_stats)), (big, (b_out, b_stats))] =
            docs.each_ref().map(|d| allocations(|| run(d)));
        println!(
            "{small} allocations in {} steps, {big} in {} steps: {text}",
            s_stats.steps, b_stats.steps
        );
        assert!(!s_out.is_empty() && !b_out.is_empty(), "{text}");
        assert!(
            b_stats.steps > 8 * s_stats.steps,
            "the big document must run many more iterations ({} vs {} steps)",
            b_stats.steps,
            s_stats.steps
        );
        assert_eq!(
            big, small,
            "{text} allocated {small} times in {} steps but {big} times in {} steps",
            s_stats.steps, b_stats.steps
        );
    }
}
