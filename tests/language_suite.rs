//! Full-pipeline language behaviour tests: small programs written in the
//! surface syntax, compiled with `parulel-lang`, executed with the
//! parallel engine, asserted on final working memory and logs.

use parulel::prelude::*;

/// Compiles, loads `(class, fields)` facts, runs, returns the engine.
fn run(src: &str, facts: &[(&str, Vec<Value>)]) -> Engine {
    let program = compile(src).unwrap_or_else(|e| panic!("compile error: {e}"));
    let mut wm = WorkingMemory::new(&program.classes);
    for (class, fields) in facts {
        let cid = program
            .classes
            .id_of(program.interner.intern(class))
            .unwrap_or_else(|| panic!("unknown class {class}"));
        wm.insert(cid, fields.clone());
    }
    let mut e = Engine::new(&program, wm, EngineOptions::default());
    e.run().unwrap_or_else(|err| panic!("run error: {err}"));
    e
}

fn ints(e: &Engine, class: &str) -> Vec<Vec<i64>> {
    let p = e.program();
    let cid = p.classes.id_of(p.interner.intern(class)).unwrap();
    let mut rows: Vec<Vec<i64>> = e
        .wm()
        .iter_class(cid)
        .map(|w| {
            w.fields
                .iter()
                .map(|v| match v {
                    Value::Int(i) => *i,
                    other => panic!("expected int, got {other:?}"),
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn disjunction_restrictions() {
    let e = run(
        "(literalize color name)
         (literalize hit name)
         (p warm (color ^name << red orange yellow >>) --> (make hit ^name 1) (remove 1))",
        &[],
    );
    // seed via a second run with symbol facts
    let p = compile(
        "(literalize color name)
         (literalize hit name)
         (p warm (color ^name { << red orange yellow >> <n> }) --> (make hit ^name <n>) (remove 1))",
    )
    .unwrap();
    let i = &p.interner;
    let color = p.classes.id_of(i.intern("color")).unwrap();
    let hit = p.classes.id_of(i.intern("hit")).unwrap();
    let mut wm = WorkingMemory::new(&p.classes);
    for c in ["red", "blue", "yellow", "green"] {
        wm.insert(color, vec![Value::Sym(i.intern(c))]);
    }
    let mut eng = Engine::new(&p, wm, EngineOptions::default());
    eng.run().unwrap();
    assert_eq!(eng.wm().iter_class(hit).count(), 2); // red + yellow
    assert_eq!(eng.wm().iter_class(color).count(), 2); // blue + green left
    drop(e);
}

#[test]
fn brace_conjunctions_and_predicates() {
    let e = run(
        "(literalize n v)
         (literalize keep v)
         (p band (n ^v { > 10 <= 20 <x> }) --> (make keep ^v <x>) (remove 1))",
        &[
            ("n", vec![Value::Int(5)]),
            ("n", vec![Value::Int(15)]),
            ("n", vec![Value::Int(20)]),
            ("n", vec![Value::Int(21)]),
        ],
    );
    assert_eq!(ints(&e, "keep"), vec![vec![15], vec![20]]);
}

#[test]
fn negation_with_join_variable() {
    let e = run(
        "(literalize emp id boss)
         (literalize top id)
         (p find-roots (emp ^id <e> ^boss <b>) -(emp ^id <b>) --> (make top ^id <e>))",
        &[
            ("emp", vec![Value::Int(1), Value::Int(99)]), // boss 99 not an emp
            ("emp", vec![Value::Int(2), Value::Int(1)]),
            ("emp", vec![Value::Int(3), Value::Int(2)]),
        ],
    );
    assert_eq!(ints(&e, "top"), vec![vec![1]]);
}

#[test]
fn bind_and_arithmetic_chain() {
    let e = run(
        "(literalize n v)
         (literalize out a b c)
         (p math (n ^v <x>)
          -->
          (bind <sq> (* <x> <x>))
          (bind <half> (// <sq> 2))
          (make out ^a <x> ^b <sq> ^c (mod <half> 10))
          (remove 1))",
        &[("n", vec![Value::Int(7)])],
    );
    assert_eq!(ints(&e, "out"), vec![vec![7, 49, 4]]); // 49/2=24, 24 mod 10 = 4
}

#[test]
fn halt_beats_quiescence() {
    let mut found_halt = false;
    let e = run(
        "(literalize n v)
         (p grow (n ^v <x>) (test (< <x> 100)) --> (modify 1 ^v (+ <x> 1)))
         (p bail (n ^v 10) --> (halt))",
        &[("n", vec![Value::Int(0)])],
    );
    for w in e.wm().iter() {
        if w.field(0) == Value::Int(11) {
            found_halt = true;
        }
    }
    assert!(
        found_halt,
        "halt fired at v=10 (grow also fired that cycle)"
    );
}

#[test]
fn float_arithmetic_promotes() {
    let e = run(
        "(literalize n v)
         (literalize out v)
         (p avg (n ^v <x>) --> (make out ^v (// <x> 2.0)) (remove 1))",
        &[("n", vec![Value::Int(7)])],
    );
    let p = e.program();
    let out = p.classes.id_of(p.interner.intern("out")).unwrap();
    let v = e.wm().iter_class(out).next().unwrap().field(0);
    assert_eq!(v, Value::Float(3.5));
}

#[test]
fn cross_ce_comparison_predicates() {
    let e = run(
        "(literalize item id price)
         (literalize cheaper a b)
         (p cmp (item ^id <a> ^price <pa>) (item ^id <b> ^price { < <pa> })
          --> (make cheaper ^a <a> ^b <b>))",
        &[
            ("item", vec![Value::Int(1), Value::Int(10)]),
            ("item", vec![Value::Int(2), Value::Int(5)]),
            ("item", vec![Value::Int(3), Value::Int(1)]),
        ],
    );
    // pairs (a,b) where price(b) < price(a): (1,2) (1,3) (2,3)
    assert_eq!(
        ints(&e, "cheaper"),
        vec![vec![1, 2], vec![1, 3], vec![2, 3]]
    );
}

#[test]
fn meta_rules_with_wildcards_and_tests() {
    let e = run(
        "(literalize job id cost)
         (literalize winner id)
         (p pick (job ^id <j> ^cost <c>) --> (make winner ^id <j>) (remove 1))
         (mp cheapest
           (inst pick (job ^cost <c1>))
           (inst pick (job ^cost <c2>))
           (test (> <c1> <c2>))
          --> (redact 1))
         (mp tie
           (inst pick (job ^id <i1> ^cost <c1>))
           (inst pick (job ^id <i2> ^cost <c2>))
           (test (= <c1> <c2>))
           (test (> <i1> <i2>))
          --> (redact 1))",
        &[
            ("job", vec![Value::Int(1), Value::Int(5)]),
            ("job", vec![Value::Int(2), Value::Int(3)]),
            ("job", vec![Value::Int(3), Value::Int(3)]),
        ],
    );
    // One winner per cycle, cheapest first, ties by id: 2, 3, 1.
    assert_eq!(ints(&e, "winner"), vec![vec![1], vec![2], vec![3]]);
}

#[test]
fn write_formats_all_value_kinds() {
    let e = run(
        "(literalize x s i f)
         (p report (x ^s <a> ^i <b> ^f <c>) --> (write <a> <b> <c> \"done\") (remove 1))",
        &[],
    );
    drop(e);
    let p = compile(
        "(literalize x s i f)
         (p report (x ^s <a> ^i <b> ^f <c>) --> (write <a> <b> <c> \"done\") (remove 1))",
    )
    .unwrap();
    let i = &p.interner;
    let x = p.classes.id_of(i.intern("x")).unwrap();
    let mut wm = WorkingMemory::new(&p.classes);
    wm.insert(
        x,
        vec![
            Value::Sym(i.intern("hello")),
            Value::Int(-3),
            Value::Float(2.5),
        ],
    );
    let mut eng = Engine::new(&p, wm, EngineOptions::default());
    eng.run().unwrap();
    assert_eq!(eng.log(), &["hello -3 2.5 done".to_string()]);
}

#[test]
fn pretty_printer_output_is_executable() {
    // Print a parsed program back to source, compile the print, and run
    // both — identical behaviour.
    let src = "
        (literalize n v)
        (literalize out v)
        (p double (n ^v { > 0 <x> }) --> (make out ^v (* <x> 2)) (remove 1))
        (mp biggest-first
          (inst double (n ^v <a>))
          (inst double (n ^v <b>))
          (test (< <a> <b>))
         --> (redact 1))";
    let printed = parulel::lang::printer::print_program(&parulel::lang::parse(src).unwrap());
    let facts = [
        ("n", vec![Value::Int(4)]),
        ("n", vec![Value::Int(9)]),
        ("n", vec![Value::Int(-1)]),
    ];
    let a = run(src, &facts);
    let b = run(&printed, &facts);
    assert_eq!(ints(&a, "out"), ints(&b, "out"));
    assert_eq!(ints(&a, "out"), vec![vec![8], vec![18]]);
}
