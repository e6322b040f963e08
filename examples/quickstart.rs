//! Quickstart: compile a PARULEL program from source, run it, inspect
//! working memory and run statistics.
//!
//! Three support agents each own a region; tickets arrive per region.
//! Every cycle, *every* agent closes the lowest-numbered open ticket in
//! its region — simultaneously. The one-ticket-per-agent-per-cycle policy
//! is a meta-rule, not interpreter magic.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use parulel::prelude::*;

const SOURCE: &str = "
(literalize ticket id region status)
(literalize agent id region)

(p close-ticket
  (agent ^id <a> ^region <r>)
  (ticket ^id <t> ^region <r> ^status open)
 -->
  (modify 2 ^status closed)
  (write agent <a> closed ticket <t>))

; Policy, in the program: an agent handles one ticket per cycle —
; the lowest-numbered one.
(mp fifo-per-agent
  (inst close-ticket (agent ^id <a>) (ticket ^id <t1>))
  (inst close-ticket (agent ^id <a>) (ticket ^id <t2>))
  (test (> <t1> <t2>))
 -->
  (redact 1))
";

fn main() {
    let program = parulel::lang::compile(SOURCE).expect("program compiles");
    let interner = &program.interner;

    let mut wm = WorkingMemory::new(&program.classes);
    let ticket = program.classes.id_of(interner.intern("ticket")).unwrap();
    let agent = program.classes.id_of(interner.intern("agent")).unwrap();
    let open = interner.intern("open");
    // 6 tickets across 3 regions (2 each), 1 agent per region.
    for t in 1..=6i64 {
        let region = (t - 1) % 3;
        wm.insert(
            ticket,
            vec![Value::Int(t), Value::Int(region), Value::Sym(open)],
        );
    }
    for a in 0..3i64 {
        wm.insert(agent, vec![Value::Int(a + 1), Value::Int(a)]);
    }

    // `Engine::new(..)` is shorthand for the fire-all policy on
    // the unified cycle kernel; the OPS5 baseline is the same kernel
    // under `FiringPolicy::SelectOne(Strategy::Lex)`.
    let mut engine = Engine::with_policy(
        &program,
        wm,
        FiringPolicy::fire_all(),
        EngineOptions::default(),
    );
    let outcome = engine.run().expect("run succeeds");

    println!("── run log ──");
    for line in engine.log() {
        println!("  {line}");
    }
    println!("── outcome ──");
    println!("  cycles:        {}", outcome.cycles);
    println!("  firings:       {}", outcome.firings);
    println!("  redacted:      {}", engine.stats().redacted_meta);
    println!("  firings/cycle: {:.1}", engine.stats().firings_per_cycle());
    // 3 agents × one ticket per cycle, 2 tickets per region:
    // all 6 close in 2 cycles — set-oriented firing in one picture.
    assert_eq!(outcome.cycles, 2);
    assert_eq!(outcome.firings, 6);
}
