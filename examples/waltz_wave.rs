//! Watching a Waltz constraint-propagation wave, cycle by cycle.
//!
//! Uses the `waltz` workload (arc-consistency label pruning on a ring of
//! junctions) and single-steps the engine, printing how many candidate
//! labelings survive after each parallel pruning cycle — deletion waves
//! radiating from the over-constrained junction are the signature
//! behaviour of the original Waltz benchmark.
//!
//! ```sh
//! cargo run --example waltz_wave
//! ```

use parulel::prelude::*;
use parulel::workloads::{Scenario, Waltz};

fn candidates_left(engine: &Engine, scenario: &Waltz) -> usize {
    let program = scenario.program();
    let jslot = program
        .classes
        .id_of(program.interner.intern("jslot"))
        .unwrap();
    // two jslot facts per surviving candidate
    engine.wm().iter_class(jslot).count() / 2
}

fn main() {
    let scenario = Waltz::new(16, 5, 21);
    println!(
        "ring of 16 junctions, {} initial candidate labelings, {} survive arc consistency\n",
        scenario.initial_candidates(),
        scenario.expected_candidates()
    );

    let mut engine = Engine::new(
        scenario.program(),
        scenario.initial_wm(),
        EngineOptions::default(),
    );
    println!("cycle  candidates  pruned-this-cycle");
    let mut prev = candidates_left(&engine, &scenario);
    println!("{:>5}  {prev:>10}  {:>17}", 0, "-");
    let mut cycle = 0;
    while engine.step().expect("step succeeds") {
        cycle += 1;
        let now = candidates_left(&engine, &scenario);
        println!("{cycle:>5}  {now:>10}  {:>17}", prev - now);
        prev = now;
    }
    scenario
        .validate(engine.wm())
        .expect("final state matches the reference AC fixpoint");
    println!("\nfixpoint reached in {cycle} cycles; validated against reference AC.");
}
