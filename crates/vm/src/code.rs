//! Bytecode data model: opcodes, code objects, the content-addressed
//! store, canonical encoding + FNV-1a hashing, and the disassembler.

use parulel_core::{BinOp, ClassId, FxHashMap, Interner, Polarity, PredOp, Program, Value};
use std::fmt::Write as _;
use std::sync::Arc;

/// One instruction of the canonical encoding.
///
/// The encoding reads as a register-free stack machine: expression ops
/// push onto a value stack, test ops pop operands and fail the code
/// object, RHS ops pop evaluated arguments and emit delta entries. No
/// interpreter runs it; the semantics below say what each op encodes.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Op {
    /// Push constant-table entry `consts[idx]`.
    Const(u16),
    /// Push `env[var]`.
    Var(u16),
    /// Push `wme.fields[slot]` (LHS code only).
    Field(u16),
    /// Pop `b`, then `a`; push `a ⊕ b` ([`BinOp::apply`] — an arithmetic
    /// error fails a test code object, or aborts an RHS with the error).
    Bin(BinOp),
    /// Pop `b`, then `a`; fail unless [`PredOp::apply`]`(a, b)`.
    Test(PredOp),
    /// Pop `v`; fail unless one of `consts[start..start+len]`
    /// [`matches_eq`](Value::matches_eq) `v`.
    OneOf {
        /// First constant-table index of the alternatives.
        start: u16,
        /// Number of alternatives.
        len: u16,
    },
    /// Pop `v`; fail unless `ccc_hash(v) % divisor == residue`
    /// (the copy-and-constrain partition test).
    HashMod {
        /// Hash divisor (number of copies).
        divisor: u32,
        /// This copy's residue class.
        residue: u32,
    },
    /// Pop `v`; `env[var] = v` (a `Bind` field test, or an RHS `bind`).
    Store(u16),
    /// Pop `arity` values (oldest first); assert a new WME of `class`.
    Make {
        /// Class of the asserted WME.
        class: ClassId,
        /// Field count (the class's arity).
        arity: u16,
    },
    /// Retract the WME matched at CE position `ce`.
    Remove {
        /// CE index into the instantiation's matched WMEs.
        ce: u8,
    },
    /// Pop `len` values; retract CE `ce`'s WME and assert a copy with
    /// slots `slot_table[start..start+len]` replaced (in order).
    Modify {
        /// CE index into the instantiation's matched WMEs.
        ce: u8,
        /// First slot-table index.
        start: u16,
        /// Number of replaced slots (and popped values).
        len: u16,
    },
    /// Pop `n` values (oldest first); render one `write` log line.
    Write {
        /// Argument count.
        n: u16,
    },
    /// If log collection is off, jump to op index `target` — the `write`
    /// argument expressions in between are never evaluated, so their
    /// errors cannot fire when logging is disabled.
    SkipUnlessLog {
        /// Op index of the first instruction after the guarded `Write`.
        target: u16,
    },
    /// Set the halt flag.
    Halt,
}

/// A flat instruction sequence.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Code {
    /// The instructions.
    pub ops: Vec<Op>,
}

/// Compiled LHS code for one condition element.
#[derive(Clone, PartialEq, Debug)]
pub struct CeCode {
    /// The CE's class (checked before any code runs).
    pub class: ClassId,
    /// Positive or negated.
    pub polarity: Polarity,
    /// Every field test: the constant-only (alpha) tests, then the binds
    /// and join (beta) tests, each in declared order.
    pub all: Code,
}

/// A compiled rule test (`(test …)`), anchored like its IR counterpart.
#[derive(Clone, PartialEq, Debug)]
pub struct TestCode {
    /// The CE position after which the test can run.
    pub anchor: usize,
    /// Expression + comparison code.
    pub code: Code,
}

/// Everything one rule compiles to, plus its content hash.
#[derive(Clone, PartialEq, Debug)]
pub struct RuleCode {
    /// Rule name (excluded from the content hash).
    pub name: String,
    /// FNV-1a 64 hash of the canonical encoding (see module docs).
    pub hash: u64,
    /// Per-CE LHS code.
    pub ces: Vec<CeCode>,
    /// Anchored rule tests.
    pub tests: Vec<TestCode>,
    /// The whole RHS (binds, then actions) as one code object.
    pub rhs: Code,
    /// Shared constant table for every code object of this rule.
    pub consts: Vec<Value>,
    /// Slot table for `Modify` ops.
    pub slots: Vec<u16>,
    /// Environment size.
    pub num_vars: u16,
}

/// The content-addressed store for one compiled program: rules indexed
/// densely by [`RuleId`](parulel_core::RuleId), plus
/// the NameMap (name → hash) and CodeMap (hash → code) views.
#[derive(Clone, Debug, Default)]
pub struct ProgramCode {
    rules: Vec<Arc<RuleCode>>,
    by_name: FxHashMap<String, u64>,
    by_hash: FxHashMap<u64, Arc<RuleCode>>,
}

impl ProgramCode {
    /// Builds the store from per-rule code objects (in rule-id order).
    pub fn from_rules(rules: Vec<Arc<RuleCode>>) -> ProgramCode {
        let mut by_name = FxHashMap::default();
        let mut by_hash = FxHashMap::default();
        for rc in &rules {
            by_name.insert(rc.name.clone(), rc.hash);
            // Two rules with identical bodies share a hash; the CodeMap
            // keeps the first (the code objects differ only in name).
            by_hash.entry(rc.hash).or_insert_with(|| rc.clone());
        }
        ProgramCode {
            rules,
            by_name,
            by_hash,
        }
    }

    /// All rules, in rule-id order.
    pub fn rules(&self) -> &[Arc<RuleCode>] {
        &self.rules
    }

    /// NameMap: the content hash of the rule named `name`.
    pub fn hash_of(&self, name: &str) -> Option<u64> {
        self.by_name.get(name).copied()
    }

    /// CodeMap: the code object with content hash `hash`.
    pub fn by_hash(&self, hash: u64) -> Option<&Arc<RuleCode>> {
        self.by_hash.get(&hash)
    }

    /// Sorted `(name, hash)` pairs — the deterministic summary snapshots
    /// and reload responses carry.
    pub fn name_map(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .by_name
            .iter()
            .map(|(n, h)| (n.clone(), *h))
            .collect();
        v.sort();
        v
    }
}

// --- canonical encoding + hash ---

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Streaming FNV-1a 64.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Appends the canonical bytes of one value: symbols resolved to their
/// strings (interner ids depend on declaration order and must not leak
/// into the hash), floats as IEEE bits.
fn canon_value(out: &mut Vec<u8>, v: Value, interner: &Interner) {
    match v {
        Value::Sym(s) => {
            out.push(0);
            let name = interner.resolve(s);
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(2);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
    }
}

fn canon_class(out: &mut Vec<u8>, class: ClassId, program: &Program) {
    let name = program
        .interner
        .resolve(program.classes.decl(class).name);
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
}

/// Appends the canonical bytes of one op. Constants are inlined (so the
/// table layout never matters) with symbols resolved; classes resolve to
/// their names; variable and slot indices are structural (the compiler
/// assigns variable ids by first occurrence, making the encoding stable
/// under α-renaming).
fn canon_op(out: &mut Vec<u8>, op: Op, consts: &[Value], slots: &[u16], program: &Program) {
    match op {
        Op::Const(i) => {
            out.push(0);
            canon_value(out, consts[i as usize], &program.interner);
        }
        Op::Var(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Op::Field(s) => {
            out.push(2);
            out.extend_from_slice(&s.to_le_bytes());
        }
        Op::Bin(b) => {
            out.push(3);
            out.push(b as u8);
        }
        Op::Test(p) => {
            out.push(4);
            out.push(p as u8);
        }
        Op::OneOf { start, len } => {
            out.push(5);
            out.extend_from_slice(&len.to_le_bytes());
            for i in start..start + len {
                canon_value(out, consts[i as usize], &program.interner);
            }
        }
        Op::HashMod { divisor, residue } => {
            out.push(6);
            out.extend_from_slice(&divisor.to_le_bytes());
            out.extend_from_slice(&residue.to_le_bytes());
        }
        Op::Store(v) => {
            out.push(7);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Op::Make { class, arity } => {
            out.push(8);
            canon_class(out, class, program);
            out.extend_from_slice(&arity.to_le_bytes());
        }
        Op::Remove { ce } => {
            out.push(9);
            out.push(ce);
        }
        Op::Modify { ce, start, len } => {
            out.push(10);
            out.push(ce);
            out.extend_from_slice(&len.to_le_bytes());
            for i in start..start + len {
                out.extend_from_slice(&slots[i as usize].to_le_bytes());
            }
        }
        Op::Write { n } => {
            out.push(11);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Op::SkipUnlessLog { .. } => {
            // The jump target is a layout artifact (it always points just
            // past the matching Write); the tag alone is canonical.
            out.push(12);
        }
        Op::Halt => out.push(13),
    }
}

fn canon_code(out: &mut Vec<u8>, code: &Code, consts: &[Value], slots: &[u16], program: &Program) {
    out.extend_from_slice(&(code.ops.len() as u32).to_le_bytes());
    for &op in &code.ops {
        canon_op(out, op, consts, slots, program);
    }
}

/// The canonical byte encoding of a rule's code — what the content hash
/// covers. Deliberately excludes the rule name (renames must not change
/// the hash).
pub(crate) fn canonical_bytes(rc: &RuleCode, program: &Program) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(&rc.num_vars.to_le_bytes());
    out.extend_from_slice(&(rc.ces.len() as u32).to_le_bytes());
    for ce in &rc.ces {
        canon_class(&mut out, ce.class, program);
        out.push(match ce.polarity {
            Polarity::Positive => 0,
            Polarity::Negative => 1,
        });
        canon_code(&mut out, &ce.all, &rc.consts, &rc.slots, program);
    }
    out.extend_from_slice(&(rc.tests.len() as u32).to_le_bytes());
    for t in &rc.tests {
        out.extend_from_slice(&(t.anchor as u32).to_le_bytes());
        canon_code(&mut out, &t.code, &rc.consts, &rc.slots, program);
    }
    canon_code(&mut out, &rc.rhs, &rc.consts, &rc.slots, program);
    out
}

/// FNV-1a 64 over [`canonical_bytes`].
pub(crate) fn content_hash(rc: &RuleCode, program: &Program) -> u64 {
    let mut h = Fnv::new();
    h.update(&canonical_bytes(rc, program));
    h.finish()
}

// --- disassembler ---

fn dis_value(v: Value, interner: &Interner) -> String {
    v.display(interner)
}

fn dis_op(op: Op, rc: &RuleCode, program: &Program) -> String {
    let interner = &program.interner;
    match op {
        Op::Const(i) => format!("const {}", dis_value(rc.consts[i as usize], interner)),
        Op::Var(v) => format!("var {v}"),
        Op::Field(s) => format!("field {s}"),
        Op::Bin(b) => format!("bin {b}"),
        Op::Test(p) => format!("test {p:?}").to_lowercase(),
        Op::OneOf { start, len } => {
            let alts: Vec<String> = (start..start + len)
                .map(|i| dis_value(rc.consts[i as usize], interner))
                .collect();
            format!("oneof [{}]", alts.join(" "))
        }
        Op::HashMod { divisor, residue } => format!("hashmod {divisor} {residue}"),
        Op::Store(v) => format!("store {v}"),
        Op::Make { class, arity } => format!(
            "make {} /{arity}",
            interner.resolve(program.classes.decl(class).name)
        ),
        Op::Remove { ce } => format!("remove ce{ce}"),
        Op::Modify { ce, start, len } => {
            let ss: Vec<String> = (start..start + len)
                .map(|i| rc.slots[i as usize].to_string())
                .collect();
            format!("modify ce{ce} slots [{}]", ss.join(" "))
        }
        Op::Write { n } => format!("write /{n}"),
        Op::SkipUnlessLog { target } => format!("skip-unless-log -> {target}"),
        Op::Halt => "halt".to_string(),
    }
}

fn dis_code(out: &mut String, label: &str, code: &Code, rc: &RuleCode, program: &Program) {
    let _ = writeln!(out, "  {label}:");
    for (i, &op) in code.ops.iter().enumerate() {
        let _ = writeln!(out, "    {i:3}  {}", dis_op(op, rc, program));
    }
}

/// Renders one compiled rule as deterministic text: the header carries
/// the name and content hash; sections list the per-CE code, anchored
/// tests, and RHS.
pub fn disassemble(rc: &RuleCode, program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "rule {} hash={:016x} vars={}", rc.name, rc.hash, rc.num_vars);
    for (i, ce) in rc.ces.iter().enumerate() {
        let class = program
            .interner
            .resolve(program.classes.decl(ce.class).name);
        let sign = match ce.polarity {
            Polarity::Positive => "+",
            Polarity::Negative => "-",
        };
        let _ = writeln!(out, "  ce {i} {sign}{class}");
        dis_code(&mut out, "all", &ce.all, rc, program);
    }
    for t in &rc.tests {
        let _ = writeln!(out, "  test @ce{}", t.anchor);
        dis_code(&mut out, "code", &t.code, rc, program);
    }
    dis_code(&mut out, "rhs", &rc.rhs, rc, program);
    out
}

/// [`disassemble`] every rule of a store, in rule-id order.
pub fn disassemble_program(code: &ProgramCode, program: &Program) -> String {
    code.rules()
        .iter()
        .map(|rc| disassemble(rc, program))
        .collect::<Vec<_>>()
        .join("\n")
}
