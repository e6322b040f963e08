//! # parulel-vm
//!
//! The content hashes of PARULEL rules: one walk of each rule's IR
//! ([`parulel_core::ir`]) writes its canonical bytes, and FNV-1a 64 over
//! those bytes is the rule's identity. Nothing executes the encoding —
//! every rule runs on the IR walker. The hash exists for two properties:
//!
//! * **Content addressing.** The bytes resolve symbols and class names to
//!   strings, number variables by first occurrence, and exclude the rule
//!   name, so the same rule body hashes the same across program edits,
//!   rule reorderings, variable renamings and rule renamings.
//!   [`ProgramCode`] maps each rule name to its hash; live reload diffs
//!   by it and snapshots record it.
//! * **Hot swap.** Because unchanged rules keep their hash, a reloading
//!   engine can keep their matcher state (shared alpha nodes, RETE
//!   betas) untouched and rebuild only what changed.
//!
//! The byte layout reads as a stack code — each CE's field tests, each
//! anchored rule test, and the RHS are one *code object* each, a u32 op
//! count followed by tagged ops — because that is the layout the hashes
//! were first pinned with; see [`canonical_bytes`].

#![warn(missing_docs)]

use parulel_core::{
    fnv1a, Action, ClassId, Expr, FieldCheck, FieldTest, Polarity, Program, Rule, RuleId, Value,
    Writer,
};

// Tags of the ops. Expression ops push a value, `TEST`/`ONE_OF`/
// `HASH_MOD` check one, `STORE` binds a variable, and the RHS ops emit
// one action each. The values are part of every pinned hash.
const CONST: u8 = 0;
const VAR: u8 = 1;
const FIELD: u8 = 2;
const BIN: u8 = 3;
const TEST: u8 = 4;
const ONE_OF: u8 = 5;
const HASH_MOD: u8 = 6;
const STORE: u8 = 7;
const MAKE: u8 = 8;
const REMOVE: u8 = 9;
const MODIFY: u8 = 10;
const WRITE: u8 = 11;
/// Precedes a `write`'s arguments: they are evaluated (and can fail)
/// only when logging is on.
const WRITE_GUARD: u8 = 12;
const HALT: u8 = 13;

/// Writes one rule's canonical bytes, counting the ops of the code object
/// in progress.
struct Canonical<'p> {
    out: Writer,
    ops: u32,
    program: &'p Program,
}

impl Canonical<'_> {
    fn op(&mut self, tag: u8) {
        self.ops += 1;
        self.out.u8(tag);
    }

    /// A count or index: u16 below `0xFFFF`, else `0xFFFF` then the u32.
    fn count(&mut self, n: usize) {
        match u16::try_from(n) {
            Ok(n) if n < u16::MAX => self.out.u16(n),
            _ => {
                self.out.u16(u16::MAX);
                self.u32(n);
            }
        }
    }

    fn u32(&mut self, n: usize) {
        self.out.u32(u32::try_from(n).expect("count exceeds u32"));
    }

    fn class(&mut self, class: ClassId) {
        let name = self.program.classes.decl(class).name;
        self.out.str(&self.program.interner.resolve(name));
    }

    /// Symbols resolve to their strings (interner ids depend on
    /// declaration order and must not leak into the hash); floats are
    /// IEEE bits.
    fn value(&mut self, v: Value) {
        match v {
            Value::Sym(s) => {
                self.out.u8(0);
                self.out.str(&self.program.interner.resolve(s));
            }
            Value::Int(i) => {
                self.out.u8(1);
                self.out.u64(i as u64);
            }
            Value::Float(f) => {
                self.out.u8(2);
                self.out.u64(f.to_bits());
            }
        }
    }

    /// One code object: its op count (patched in once `body` has run),
    /// then its ops.
    fn code(&mut self, body: impl FnOnce(&mut Self)) {
        let at = self.out.pos();
        self.out.u32(0);
        self.ops = 0;
        body(self);
        self.out.patch_u32(at, self.ops);
    }

    /// Post-order: left operand, right operand, operator.
    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Const(v) => {
                self.op(CONST);
                self.value(*v);
            }
            Expr::Var(v) => {
                self.op(VAR);
                self.count(v.index());
            }
            Expr::Bin(op, l, r) => {
                self.expr(l);
                self.expr(r);
                self.op(BIN);
                self.out.u8(*op as u8);
            }
        }
    }

    fn field_test(&mut self, ft: &FieldTest) {
        self.op(FIELD);
        self.count(ft.slot.into());
        match &ft.check {
            FieldCheck::Const(p, v) => {
                self.op(CONST);
                self.value(*v);
                self.op(TEST);
                self.out.u8(*p as u8);
            }
            FieldCheck::OneOf(vs) => {
                self.op(ONE_OF);
                self.count(vs.len());
                for &v in vs {
                    self.value(v);
                }
            }
            FieldCheck::Bind(var) => {
                self.op(STORE);
                self.count(var.index());
            }
            FieldCheck::Var(p, var) => {
                self.op(VAR);
                self.count(var.index());
                self.op(TEST);
                self.out.u8(*p as u8);
            }
            FieldCheck::HashMod { divisor, residue } => {
                self.op(HASH_MOD);
                self.out.u32(*divisor);
                self.out.u32(*residue);
            }
        }
    }

    fn rhs(&mut self, rule: &Rule) {
        for (var, e) in &rule.binds {
            self.expr(e);
            self.op(STORE);
            self.count(var.index());
        }
        for action in &rule.actions {
            match action {
                Action::Make { class, fields } => {
                    fields.iter().for_each(|e| self.expr(e));
                    self.op(MAKE);
                    self.class(*class);
                    self.count(fields.len());
                }
                Action::Remove { ce } => {
                    self.op(REMOVE);
                    self.out.u8(*ce);
                }
                Action::Modify { ce, sets } => {
                    sets.iter().for_each(|(_, e)| self.expr(e));
                    self.op(MODIFY);
                    self.out.u8(*ce);
                    self.count(sets.len());
                    sets.iter().for_each(|&(slot, _)| self.count(slot.into()));
                }
                Action::Write(args) => {
                    self.op(WRITE_GUARD);
                    args.iter().for_each(|e| self.expr(e));
                    self.op(WRITE);
                    self.count(args.len());
                }
                Action::Halt => self.op(HALT),
            }
        }
    }
}

/// The canonical bytes of `rule` — what its content hash covers.
///
/// In order: the variable count; per CE its class name, polarity and one
/// code object of field tests (the alpha tests, then the binds and join
/// tests, each in declared order); per anchored rule test its anchor and
/// one code object; then one code object for the RHS (the `bind`s, then
/// the actions). Constants are inlined with symbols resolved. The rule
/// name is excluded, so renames keep the hash.
pub fn canonical_bytes(rule: &Rule, program: &Program) -> Vec<u8> {
    let mut e = Canonical {
        out: Writer::with_capacity(256),
        ops: 0,
        program,
    };
    e.count(rule.num_vars.into());
    e.u32(rule.ces.len());
    for ce in &rule.ces {
        e.class(ce.class);
        e.out.u8(match ce.polarity {
            Polarity::Positive => 0,
            Polarity::Negative => 1,
        });
        e.code(|e| {
            ce.alpha_tests()
                .chain(ce.beta_tests())
                .for_each(|ft| e.field_test(ft))
        });
    }
    e.u32(rule.tests.len());
    for t in &rule.tests {
        e.u32(t.anchor);
        e.code(|e| {
            e.expr(&t.test.lhs);
            e.expr(&t.test.rhs);
            e.op(TEST);
            e.out.u8(t.test.op as u8);
        });
    }
    e.code(|e| e.rhs(rule));
    e.out.into_bytes()
}

/// Every rule's `(name, content hash)`, in rule-id order.
#[derive(Clone, Debug)]
pub struct ProgramCode {
    rules: Vec<(String, u64)>,
}

impl ProgramCode {
    /// All `(name, hash)` pairs, indexed by [`RuleId`].
    pub fn rules(&self) -> &[(String, u64)] {
        &self.rules
    }

    /// The name of rule `id`.
    pub fn name(&self, id: RuleId) -> &str {
        &self.rules[id.index()].0
    }

    /// The content hash of the rule named `name`.
    pub fn hash_of(&self, name: &str) -> Option<u64> {
        self.rules.iter().find(|(n, _)| n == name).map(|&(_, h)| h)
    }

    /// Sorted `(name, hash)` pairs — the deterministic summary snapshots
    /// and reload responses carry.
    pub fn name_map(&self) -> Vec<(String, u64)> {
        let mut v = self.rules.clone();
        v.sort();
        v
    }
}

/// Hashes every rule of `program`: FNV-1a 64 over [`canonical_bytes`].
pub fn compile_program(program: &Program) -> ProgramCode {
    let rules = program
        .rules()
        .iter()
        .map(|r| (program.rule_name(r.id), fnv1a(&canonical_bytes(r, program))))
        .collect();
    ProgramCode { rules }
}
