//! Job-shop scheduling with programmable conflict resolution — the
//! motivating example from the PARULEL design: machines pick jobs, and
//! the *policy* (shortest job first) lives in a meta-rule, not in the
//! interpreter's conflict-resolution strategy.
//!
//! The example also runs the same program under the OPS5 baselines (LEX
//! and MEA) to show that (a) they need one cycle per assignment and (b)
//! their hard-wired policies pick *different* jobs than the program wants.
//!
//! ```sh
//! cargo run --example scheduling
//! ```

use parulel::prelude::*;

const SOURCE: &str = "
(literalize job id len machine)
(literalize machine id free)

(p schedule
  (job ^id <j> ^len <l> ^machine nil)
  (machine ^id <m> ^free yes)
 -->
  (modify 1 ^machine <m>)
  (modify 2 ^free no)
  (write job <j> len <l> assigned machine <m>))

(p finish
  (job ^id <j> ^len <l> ^machine { <> nil <m> })
  (machine ^id <m> ^free no)
 -->
  (remove 1)
  (modify 2 ^free yes)
  (write job <j> done on machine <m>))

; policy: shortest job first (ties: lowest job id)
(mp shortest-job-first
  (inst schedule (job ^id <j1> ^len <l1>) (machine ^id <m>))
  (inst schedule (job ^id <j2> ^len <l2>) (machine ^id <m>))
  (test (> <l1> <l2>))
 -->
  (redact 1))
(mp sjf-tie-break
  (inst schedule (job ^id <j1> ^len <l1>) (machine ^id <m>))
  (inst schedule (job ^id <j2> ^len <l2>) (machine ^id <m>))
  (test (= <l1> <l2>))
  (test (> <j1> <j2>))
 -->
  (redact 1))
; a job may also be wanted by two machines at once
(mp one-machine-per-job
  (inst schedule (job ^id <j>) (machine ^id <m1>))
  (inst schedule (job ^id <j>) (machine ^id <m2>))
  (test (> <m1> <m2>))
 -->
  (redact 1))
";

fn build_wm(program: &Program) -> WorkingMemory {
    let i = &program.interner;
    let mut wm = WorkingMemory::new(&program.classes);
    let job = program.classes.id_of(i.intern("job")).unwrap();
    let machine = program.classes.id_of(i.intern("machine")).unwrap();
    let yes = i.intern("yes");
    let lens = [7, 3, 9, 3, 5, 1, 8, 2];
    for (id, len) in lens.iter().enumerate() {
        wm.insert(
            job,
            vec![Value::Int(id as i64 + 1), Value::Int(*len), Value::NIL],
        );
    }
    for m in 1..=2 {
        wm.insert(machine, vec![Value::Int(m), Value::Sym(yes)]);
    }
    wm
}

fn main() {
    let program = parulel::lang::compile(SOURCE).expect("program compiles");

    println!("════ PARULEL: set-oriented firing, SJF policy via meta-rules ════");
    let mut engine = Engine::new(&program, build_wm(&program), EngineOptions::default());
    let out = engine.run().expect("run succeeds");
    for line in engine.log() {
        println!("  {line}");
    }
    println!(
        "  => {} firings in {} cycles ({} redactions)\n",
        out.firings,
        out.cycles,
        engine.stats().redacted_meta
    );

    for (name, strategy) in [("LEX", Strategy::Lex), ("MEA", Strategy::Mea)] {
        println!("════ OPS5 baseline ({name}): one firing per cycle, hard-wired policy ════");
        let mut serial = Engine::with_policy(
            &program,
            build_wm(&program),
            FiringPolicy::SelectOne(strategy),
            EngineOptions::default(),
        );
        let out = serial.run().expect("run succeeds");
        for line in serial.log().iter().take(4) {
            println!("  {line}");
        }
        println!(
            "  … => {} firings in {} cycles (meta-rules ignored)\n",
            out.firings, out.cycles
        );
    }
}
