//! Unit-level checks for the canonical encoding: content-hash
//! invariance under rule renames and α-renaming, CodeMap deduplication,
//! and disassembly determinism. The reload differential suite lives at
//! the workspace root; these tests pin the crate-local contracts.

use parulel_lang::compile;
use parulel_vm::{compile_program, disassemble_program};

const SRC: &str = "
(literalize item kind price qty)
(literalize order item count)
(literalize out v)
(p restock
 (item ^kind { <k> << widget gadget >> } ^price <p> ^qty 0)
 (order ^item <k> ^count <n>)
 (test (> <n> 2))
 -->
 (bind <total> (* <p> <n>))
 (make out ^v <total>)
 (modify 1 ^qty <n>)
 (write restocked <k> x <n>)
 (remove 2))
(p cheap
 (item ^price < 10 ^qty <q>)
 -->
 (make out ^v (+ <q> 1)))
";

/// Renaming a rule changes the NameMap but not the content hash;
/// renaming its variables (α-renaming) changes nothing at all.
#[test]
fn content_hash_ignores_rule_and_variable_names() {
    let base = "(literalize n a b)
                (p r (n ^a <x> ^b <y>) (test (> <x> <y>)) --> (make n ^a <y> ^b <x>))";
    let renamed_rule = base.replace("(p r ", "(p totally-different ");
    let renamed_vars = base.replace("<x>", "<alpha>").replace("<y>", "<beta>");

    let h = |src: &str| {
        let p = compile(src).unwrap();
        let code = compile_program(&p);
        code.rules()[0].hash
    };
    let base_hash = h(base);
    assert_eq!(base_hash, h(&renamed_rule), "rule rename changed the hash");
    assert_eq!(base_hash, h(&renamed_vars), "α-renaming changed the hash");

    // A semantic change does move the hash.
    let changed = base.replace("(> <x> <y>)", "(>= <x> <y>)");
    assert_ne!(base_hash, h(&changed), "semantic change kept the hash");
}

/// Identical rule bodies under different names share one CodeMap entry;
/// the NameMap still resolves both names.
#[test]
fn codemap_dedupes_identical_bodies() {
    let p = compile(
        "(literalize n v)
         (p first (n ^v <x>) --> (remove 1))
         (p second (n ^v <x>) --> (remove 1))",
    )
    .unwrap();
    let code = compile_program(&p);
    let h1 = code.hash_of("first").unwrap();
    let h2 = code.hash_of("second").unwrap();
    assert_eq!(h1, h2);
    assert_eq!(code.by_hash(h1).unwrap().name, "first");
    assert_eq!(code.name_map().len(), 2);
}

/// Compiling the same program twice disassembles identically — the
/// encoding (and therefore the hash) is deterministic.
#[test]
fn disassembly_is_deterministic() {
    let p = compile(SRC).unwrap();
    let a = disassemble_program(&compile_program(&p), &p);
    let b = disassemble_program(&compile_program(&p), &p);
    assert_eq!(a, b);
    assert!(a.contains("hash="), "header should carry the content hash");
    assert!(a.contains("skip-unless-log"), "write guard missing:\n{a}");
}
