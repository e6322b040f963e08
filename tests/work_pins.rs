//! Exact work pins: how many heap allocations fixed, validated runs make.
//!
//! Wall time moves with the host; allocation counts do not. Each pin runs
//! one scenario end to end on the calling thread (engine build, matcher
//! seed, the whole run, then validation of the final working memory) and
//! counts the allocator calls that thread makes inside the measured
//! closure. A thread-local flag scopes the count, so tests the harness
//! runs in parallel on other threads cannot leak into it. The harness
//! runs each test on a fresh thread, so thread-local buffers (the meta
//! join's scratch) start empty in every pin.
//!
//! Each pin is an upper bound (a ratchet): a change that makes a run
//! allocate less lowers its bound and records before → after in
//! CHANGES.md; one that makes it allocate more fails here. The exact
//! work counters beside each pin (cycles, firings, redactions, matcher
//! populations) must not move at all.
//!
//! The pins hold in release builds only: debug builds compile matcher
//! invariant checks that allocate. Run them with
//! `cargo test --release --test work_pins`. A toolchain whose std
//! allocates differently can move the counts; re-record them then.

use parulel::prelude::*;
use parulel::workloads::{self, Scenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the calls made by threads whose
/// [`COUNTING`] flag is set.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator can run while a thread's locals are torn
    // down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocator calls and requested bytes of `f` on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    CALLS.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, CALLS.with(Cell::get), BYTES.with(Cell::get))
}

/// The exact work counters of one run: they must not move.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    cycles: u64,
    firings: u64,
    redactions: u64,
    meta_rounds: u64,
    conflict_set: usize,
    beta_tokens: usize,
    reenumerations: u64,
}

/// One fire-all run of `s` under `matcher`, validated, with its
/// allocation count.
fn run(s: &dyn Scenario, matcher: MatcherKind) -> (Work, u64, u64) {
    run_policy(s, FiringPolicy::fire_all(), matcher)
}

/// One run of `s` under `policy` and `matcher`, validated, with its
/// allocation count.
fn run_policy(s: &dyn Scenario, policy: FiringPolicy, matcher: MatcherKind) -> (Work, u64, u64) {
    let opts = EngineOptions {
        matcher,
        ..Default::default()
    };
    counted(|| {
        let mut e = Engine::with_policy(s.program(), s.initial_wm(), policy, opts);
        let out = e.run().expect("engine run failed");
        s.validate(e.wm())
            .unwrap_or_else(|err| panic!("{}: validation failed: {err}", s.name()));
        let stats = e.stats();
        let m = e.matcher_metrics();
        Work {
            cycles: out.cycles,
            firings: out.firings,
            redactions: stats.redacted_meta + stats.redacted_guard,
            meta_rounds: stats.meta_rounds,
            conflict_set: m.conflict_set,
            beta_tokens: m.beta_tokens,
            reenumerations: m.reenumerations,
        }
    })
}

/// Asserts the exact counters and the allocation bound of one pin.
fn pin(name: &str, (work, calls, bytes): (Work, u64, u64), want: Work, bound: u64) {
    eprintln!("{name}: {calls} allocations, {bytes} bytes, {work:?}");
    assert_eq!(work, want, "{name}: exact work counters moved");
    assert!(
        calls <= bound,
        "{name}: {calls} allocations exceed the pinned {bound} ({bytes} bytes)"
    );
}

fn closure() -> workloads::Closure {
    workloads::Closure::new(64, 128, 7)
}

fn market() -> workloads::Market {
    workloads::Market::new(160, 8, 5)
}

#[cfg_attr(debug_assertions, ignore = "release builds only")]
#[test]
fn closure_rete() {
    let want = Work {
        cycles: 15,
        firings: 5679,
        redactions: 0,
        meta_rounds: 0,
        conflict_set: 0,
        beta_tokens: 17268,
        reenumerations: 0,
    };
    pin(
        "closure rete",
        run(&closure(), MatcherKind::Rete),
        want,
        275_137,
    );
}

#[cfg_attr(debug_assertions, ignore = "release builds only")]
#[test]
fn closure_treat() {
    let want = Work {
        cycles: 15,
        firings: 5679,
        redactions: 0,
        meta_rounds: 0,
        conflict_set: 0,
        beta_tokens: 0,
        reenumerations: 0,
    };
    pin(
        "closure treat",
        run(&closure(), MatcherKind::Treat),
        want,
        149_599,
    );
}

#[cfg_attr(debug_assertions, ignore = "release builds only")]
#[test]
fn market_rete() {
    let want = Work {
        cycles: 13,
        firings: 80,
        redactions: 6513,
        meta_rounds: 13,
        conflict_set: 0,
        beta_tokens: 80,
        reenumerations: 0,
    };
    pin(
        "market rete",
        run(&market(), MatcherKind::Rete),
        want,
        17_714,
    );
}

#[cfg_attr(debug_assertions, ignore = "release builds only")]
#[test]
fn market_treat() {
    let want = Work {
        cycles: 13,
        firings: 80,
        redactions: 6513,
        meta_rounds: 13,
        conflict_set: 0,
        beta_tokens: 0,
        reenumerations: 0,
    };
    pin(
        "market treat",
        run(&market(), MatcherKind::Treat),
        want,
        9_007,
    );
}

/// Select-one LEX, the OPS5 baseline table2 compares against: one firing
/// per cycle, each chosen by comparing recency over the eligible set.
#[cfg_attr(debug_assertions, ignore = "release builds only")]
#[test]
fn market_select_one_lex() {
    let want = Work {
        cycles: 111,
        firings: 111,
        redactions: 0,
        meta_rounds: 0,
        conflict_set: 0,
        beta_tokens: 49,
        reenumerations: 0,
    };
    pin(
        "market select-one lex",
        run_policy(
            &market(),
            FiringPolicy::SelectOne(Strategy::Lex),
            MatcherKind::Rete,
        ),
        want,
        18_988,
    );
}

/// Building an engine seeds its matcher from the initial working memory;
/// nothing runs.
fn seed_only(s: &dyn Scenario, matcher: MatcherKind) -> (Work, u64, u64) {
    let opts = EngineOptions {
        matcher,
        ..Default::default()
    };
    let wm = s.initial_wm();
    counted(|| {
        let e = Engine::new(s.program(), wm, opts);
        let m = e.matcher_metrics();
        Work {
            cycles: 0,
            firings: 0,
            redactions: 0,
            meta_rounds: 0,
            conflict_set: m.conflict_set,
            beta_tokens: m.beta_tokens,
            reenumerations: m.reenumerations,
        }
    })
}

#[cfg_attr(debug_assertions, ignore = "release builds only")]
#[test]
fn seed_closure_rete() {
    let want = Work {
        cycles: 0,
        firings: 0,
        redactions: 0,
        meta_rounds: 0,
        conflict_set: 128,
        beta_tokens: 256,
        reenumerations: 0,
    };
    pin(
        "seed closure rete",
        seed_only(&closure(), MatcherKind::Rete),
        want,
        2_445,
    );
}

#[cfg_attr(debug_assertions, ignore = "release builds only")]
#[test]
fn seed_market_treat() {
    let want = Work {
        cycles: 0,
        firings: 0,
        redactions: 0,
        meta_rounds: 0,
        conflict_set: 1614,
        beta_tokens: 0,
        reenumerations: 0,
    };
    pin(
        "seed market treat",
        seed_only(&market(), MatcherKind::Treat),
        want,
        6_211,
    );
}
