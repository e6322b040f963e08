//! The compiler: parsed IR → stack bytecode.
//!
//! Compilation is a straight-line walk over each rule: field tests
//! become `Field`/`Const`/`Test`-style triples, rule tests and RHS
//! expressions flatten post-order (left operand, right operand,
//! operator), and actions append their argument code followed by one
//! emitting op. The result is deterministic — identical IR always
//! compiles to identical code, which is what makes the content hash a
//! usable identity.

use crate::code::{content_hash, CeCode, Code, Op, ProgramCode, RuleCode, TestCode};
use parulel_core::{
    Action, ConditionElement, Expr, FieldCheck, FieldTest, Program, Rule, TestExpr, Value,
};
use std::sync::Arc;

/// Per-rule compilation state: the shared constant and slot tables.
struct Tables {
    consts: Vec<Value>,
    slots: Vec<u16>,
}

impl Tables {
    fn konst(&mut self, v: Value) -> u16 {
        // Linear scan: constant tables are tiny and compilation runs once
        // per program. Floats compare bitwise via Value's total Eq.
        if let Some(i) = self.consts.iter().position(|&c| c == v) {
            return i as u16;
        }
        self.consts.push(v);
        (self.consts.len() - 1) as u16
    }

    /// OneOf alternatives must be contiguous; they get a fresh run even
    /// if individual values already exist elsewhere in the table.
    fn konst_run(&mut self, vs: &[Value]) -> u16 {
        let start = self.consts.len() as u16;
        self.consts.extend_from_slice(vs);
        start
    }

    fn slot_run(&mut self, ss: impl Iterator<Item = u16>) -> (u16, u16) {
        let start = self.slots.len() as u16;
        self.slots.extend(ss);
        (start, self.slots.len() as u16 - start)
    }
}

fn emit_expr(code: &mut Code, e: &Expr, t: &mut Tables) {
    match e {
        Expr::Const(v) => {
            let i = t.konst(*v);
            code.ops.push(Op::Const(i));
        }
        Expr::Var(v) => code.ops.push(Op::Var(v.index() as u16)),
        Expr::Bin(op, l, r) => {
            emit_expr(code, l, t);
            emit_expr(code, r, t);
            code.ops.push(Op::Bin(*op));
        }
    }
}

fn emit_field_test(code: &mut Code, ft: &FieldTest, t: &mut Tables) {
    code.ops.push(Op::Field(ft.slot));
    match &ft.check {
        FieldCheck::Const(op, v) => {
            let i = t.konst(*v);
            code.ops.push(Op::Const(i));
            code.ops.push(Op::Test(*op));
        }
        FieldCheck::OneOf(vs) => {
            let start = t.konst_run(vs);
            code.ops.push(Op::OneOf {
                start,
                len: vs.len() as u16,
            });
        }
        FieldCheck::Bind(var) => code.ops.push(Op::Store(var.index() as u16)),
        FieldCheck::Var(op, var) => {
            code.ops.push(Op::Var(var.index() as u16));
            code.ops.push(Op::Test(*op));
        }
        FieldCheck::HashMod { divisor, residue } => code.ops.push(Op::HashMod {
            divisor: *divisor,
            residue: *residue,
        }),
    }
}

fn compile_ce(ce: &ConditionElement, t: &mut Tables) -> CeCode {
    // Alpha tests first, then binds/joins — the order
    // `ConditionElement::matches` evaluates them in.
    let mut all = Code::default();
    for ft in ce.alpha_tests().chain(ce.beta_tests()) {
        emit_field_test(&mut all, ft, t);
    }
    CeCode {
        class: ce.class,
        polarity: ce.polarity,
        all,
    }
}

fn compile_test(te: &TestExpr, t: &mut Tables) -> Code {
    let mut code = Code::default();
    emit_expr(&mut code, &te.lhs, t);
    emit_expr(&mut code, &te.rhs, t);
    code.ops.push(Op::Test(te.op));
    code
}

fn compile_rhs(rule: &Rule, t: &mut Tables) -> Code {
    let mut code = Code::default();
    for (var, expr) in &rule.binds {
        emit_expr(&mut code, expr, t);
        code.ops.push(Op::Store(var.index() as u16));
    }
    for action in &rule.actions {
        match action {
            Action::Make { class, fields } => {
                for e in fields {
                    emit_expr(&mut code, e, t);
                }
                code.ops.push(Op::Make {
                    class: *class,
                    arity: fields.len() as u16,
                });
            }
            Action::Remove { ce } => code.ops.push(Op::Remove { ce: *ce }),
            Action::Modify { ce, sets } => {
                for (_, e) in sets {
                    emit_expr(&mut code, e, t);
                }
                let (start, len) = t.slot_run(sets.iter().map(|(s, _)| *s));
                code.ops.push(Op::Modify {
                    ce: *ce,
                    start,
                    len,
                });
            }
            Action::Write(exprs) => {
                // Placeholder target patched once the Write lands: the
                // guard records that write arguments (and their errors)
                // evaluate only when logging is on.
                let guard = code.ops.len();
                code.ops.push(Op::SkipUnlessLog { target: 0 });
                for e in exprs {
                    emit_expr(&mut code, e, t);
                }
                code.ops.push(Op::Write {
                    n: exprs.len() as u16,
                });
                let target = code.ops.len() as u16;
                code.ops[guard] = Op::SkipUnlessLog { target };
            }
            Action::Halt => code.ops.push(Op::Halt),
        }
    }
    code
}

/// Compiles one rule and stamps its content hash.
pub fn compile_rule(rule: &Rule, program: &Program) -> RuleCode {
    let mut t = Tables {
        consts: Vec::new(),
        slots: Vec::new(),
    };
    let ces: Vec<CeCode> = rule.ces.iter().map(|ce| compile_ce(ce, &mut t)).collect();
    let tests: Vec<TestCode> = rule
        .tests
        .iter()
        .map(|rt| TestCode {
            anchor: rt.anchor,
            code: compile_test(&rt.test, &mut t),
        })
        .collect();
    let rhs = compile_rhs(rule, &mut t);
    let mut rc = RuleCode {
        name: program.rule_name(rule.id),
        hash: 0,
        ces,
        tests,
        rhs,
        consts: t.consts,
        slots: t.slots,
        num_vars: rule.num_vars,
    };
    rc.hash = content_hash(&rc, program);
    rc
}

/// Compiles every rule of `program` into a fresh content-addressed store.
pub fn compile_program(program: &Program) -> ProgramCode {
    compile_program_reusing(program, None)
}

/// Like [`compile_program`], but rules whose `(name, hash)` already
/// exist in `old` reuse the previous [`RuleCode`] allocation — the
/// reload path's cheap way to prove (and exploit) that a rule did not
/// change.
pub fn compile_program_reusing(program: &Program, old: Option<&ProgramCode>) -> ProgramCode {
    let rules = program
        .rules()
        .iter()
        .map(|r| {
            let rc = compile_rule(r, program);
            if let Some(prev) = old.and_then(|o| {
                o.rules()
                    .iter()
                    .find(|p| p.name == rc.name && p.hash == rc.hash)
            }) {
                return prev.clone();
            }
            Arc::new(rc)
        })
        .collect();
    ProgramCode::from_rules(rules)
}
