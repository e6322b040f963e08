//! A miniature exchange: cross orders on many symbols in parallel, with
//! double-fill prevention written as meta-rules.
//!
//! Demonstrates driving the engine incrementally from outside: new orders
//! are injected between cycles (a live feed), which is how an embedding
//! application would use the library.
//!
//! ```sh
//! cargo run --example exchange
//! ```

use parulel::core::Delta;
use parulel::prelude::*;
use parulel::workloads::{Market, Scenario};

fn main() {
    let scenario = Market::new(30, 6, 99);
    let program = scenario.program().clone();
    let interner = &program.interner;
    let trade = program.classes.id_of(interner.intern("trade")).unwrap();
    let buy = program.classes.id_of(interner.intern("buy")).unwrap();
    let sell = program.classes.id_of(interner.intern("sell")).unwrap();

    let mut engine = Engine::new(&program, scenario.initial_wm(), EngineOptions::default());

    // Phase 1: clear the opening book.
    let out = engine.run().expect("run succeeds");
    println!(
        "opening auction: {} trades in {} cycles ({} symbols in parallel)",
        out.firings,
        out.cycles,
        scenario.symbol_count()
    );

    // Phase 2: inject a late crossing pair per symbol — straight into the
    // running engine's working memory and incremental matcher — and keep
    // matching.
    let mut delta = Delta::new();
    for sym in 0..6 {
        delta.adds.push((
            buy,
            vec![Value::Int(5000 + sym), Value::Int(sym), Value::Int(90)].into(),
        ));
        delta.adds.push((
            sell,
            vec![Value::Int(6000 + sym), Value::Int(sym), Value::Int(10)].into(),
        ));
    }
    let (_, added) = engine.inject(&delta);
    assert_eq!(added.len(), 12);
    let out = engine.run().expect("run succeeds");
    println!(
        "late flow: {} more trades in {} cycles",
        out.firings, out.cycles
    );

    let trades = engine.wm().iter_class(trade).count();
    println!("total trades on the tape: {trades}");
    scenario
        .validate(engine.wm())
        .expect_err("late orders aren't in the scenario's reference — expected mismatch");
    // The invariants that matter for the live book:
    let resting_crossable = {
        let mut best: std::collections::HashMap<i64, (i64, i64)> = Default::default();
        for w in engine.wm().iter_class(buy) {
            if let (Value::Int(s), Value::Int(p)) = (w.field(1), w.field(2)) {
                let e = best.entry(s).or_insert((i64::MIN, i64::MAX));
                e.0 = e.0.max(p);
            }
        }
        for w in engine.wm().iter_class(sell) {
            if let (Value::Int(s), Value::Int(p)) = (w.field(1), w.field(2)) {
                let e = best.entry(s).or_insert((i64::MIN, i64::MAX));
                e.1 = e.1.min(p);
            }
        }
        best.values().filter(|(b, s)| b >= s).count()
    };
    assert_eq!(resting_crossable, 0, "book fully crossed out");
    println!("book is clear: no resting buy crosses a resting sell.");
}
