//! Unit-level checks for the canonical encoding: content-hash
//! invariance under rule renames and α-renaming, equal hashes for equal
//! bodies, the pinned hashes of every program the repository ships, and
//! counts past `u16::MAX`. The reload differential suite lives at the
//! workspace root; these tests pin the crate-local contracts.

use parulel_lang::compile;
use parulel_vm::compile_program;

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
        code.rules()[0].1
    };
    let base_hash = h(base);
    assert_eq!(base_hash, h(&renamed_rule), "rule rename changed the hash");
    assert_eq!(base_hash, h(&renamed_vars), "α-renaming changed the hash");

    // A semantic change does move the hash.
    let changed = base.replace("(> <x> <y>)", "(>= <x> <y>)");
    assert_ne!(base_hash, h(&changed), "semantic change kept the hash");
}

/// Identical rule bodies under different names hash equal; the name map
/// still resolves both names.
#[test]
fn identical_bodies_hash_equal() {
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
    assert_eq!(code.name_map().len(), 2);
}

/// Covers what the shipped programs do not: float constants, a negated
/// CE, `//` and `mod`, a field test with a bind *and* a join, and `halt`.
const EXTRA: &str = "
(literalize m x y)
(p f (m ^x 1.5 ^y { <y> <> 0 }) -(m ^x <y>) (test (>= (// <y> 2.0) (- <y> 1)))
 --> (make m ^x (// <y> 2.0) ^y (mod <y> 3)) (halt))
";

type Pins = &'static [(&'static str, &'static [(&'static str, u64)])];

/// Content hashes recorded from the encoder as first shipped. Snapshots
/// and reload reports carry these values, so any change to the encoding
/// that moves one of them is a format break, not a refactor.
const PINNED: Pins = &[
    ("closure(n=24,e=40)", &[
        ("close", 0x4f8c57ed0e283b88),
        ("seed", 0xf1aab62d62167103),
    ]),
    ("labelprop(n=40,e=48)", &[
        ("prop", 0xec69b3f68555cca9),
    ]),
    ("seating(t=4,g=8)", &[
        ("place", 0x1cd3c4212dbbc8b5),
    ]),
    ("market(n=40x2,sym=8)", &[
        ("cross", 0x32f2ff085481652e),
    ]),
    ("waltz(n=24,d=5)", &[
        ("prune", 0xe7fe80248c7a2595),
    ]),
    ("waltzdb(4x4,d=4)", &[
        ("prune2", 0x834dd4ebeebd6f26),
        ("prune3", 0x228fa777d6e08647),
        ("prune4", 0x709ba8aa715042e3),
    ]),
    ("counter", &[
        ("announce", 0xccfa0b7784f42e74),
        ("step", 0x3ddf2510679a3bbf),
    ]),
    ("sieve", &[
        ("advance", 0x9ad0e3ed3e70d408),
        ("mark", 0x127fe34eee24ec4b),
        ("prime", 0x2c3f89531f943f1b),
        ("sweep", 0xcdae76c8fd986782),
    ]),
    ("sort", &[
        ("swap", 0x27eedc46b8fb3c83),
    ]),
    ("vm-src", &[
        ("cheap", 0xfa5e5510b532a2be),
        ("restock", 0x0ab72654d7e3a8e7),
    ]),
    ("vm-extra", &[
        ("f", 0x56ffec4ba1a5a584),
    ]),
    ("closure-ccc3", &[
        ("close~0", 0xad79e5386dc890df),
        ("close~1", 0xabfe7d82e6133964),
        ("close~2", 0x9d8bf4803b65ed15),
        ("seed", 0xf1aab62d62167103),
    ]),
];

/// Every workload scenario, every example program, this file's sources,
/// and a copy-and-constrain split (the only producer of hash-partition
/// tests) hash exactly as pinned.
#[test]
fn content_hashes_are_pinned() {
    use parulel_workloads::Scenario;
    let mut programs: Vec<(String, parulel_core::Program)> = parulel_workloads::all_default()
        .iter()
        .map(|s| (s.name().to_string(), compile(s.source()).unwrap()))
        .collect();
    for (name, src) in [
        ("counter", include_str!("../../../examples/programs/counter.pll")),
        ("sieve", include_str!("../../../examples/programs/sieve.pll")),
        ("sort", include_str!("../../../examples/programs/sort.pll")),
        ("vm-src", SRC),
        ("vm-extra", EXTRA),
    ] {
        programs.push((name.to_string(), compile(src).unwrap()));
    }
    let closure = parulel_workloads::Closure::new(24, 40, 7);
    let split = parulel_engine::ccc::copy_and_constrain(closure.program(), "close", 3).unwrap();
    programs.push(("closure-ccc3".to_string(), split));

    let actual: Vec<(String, Vec<(String, u64)>)> = programs
        .iter()
        .map(|(name, p)| (name.clone(), compile_program(p).name_map()))
        .collect();
    let expected: Vec<(String, Vec<(String, u64)>)> = PINNED
        .iter()
        .map(|(name, rules)| {
            let rules = rules.iter().map(|(r, h)| (r.to_string(), *h)).collect();
            (name.to_string(), rules)
        })
        .collect();
    assert_eq!(actual, expected);
}

/// Counts past `u16::MAX` are encoded whole, never truncated: two rules
/// that differ only in their 65 537th `<< … >>` alternative hash apart.
#[test]
fn oneof_past_u16_hashes_every_alternative() {
    let alts = |last: i64| {
        let mut s: String = (0..65_536).map(|i| format!("{i} ")).collect();
        s.push_str(&last.to_string());
        s
    };
    let p = compile(&format!(
        "(literalize n v)
         (p a (n ^v << {} >>) --> (remove 1))
         (p b (n ^v << {} >>) --> (remove 1))",
        alts(-1),
        alts(-2)
    ))
    .unwrap();
    let code = compile_program(&p);
    assert_ne!(code.hash_of("a"), code.hash_of("b"));
}
