//! Arithmetic and predicate expressions.
//!
//! Expressions appear in `test` condition elements (`(test (> <a> <b>))`),
//! in RHS actions (`(make total ^sum (+ <x> 1))`), and in meta-rule tests.
//! They are evaluated against a rule's variable binding environment — a
//! dense `&[Value]` indexed by [`VarId`].

use crate::ir::VarId;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// Binary arithmetic operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `//` (integer-preserving division)
    Div,
    /// `mod`
    Mod,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "//",
            BinOp::Mod => "mod",
        })
    }
}

/// Comparison predicates usable in field tests and `test` CEs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PredOp {
    /// `=` — symbols by identity, numbers numerically.
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl PredOp {
    /// Applies the predicate. Ordering predicates on non-numeric operands
    /// are false (OPS5 semantics: only numbers are ordered).
    #[inline]
    pub fn apply(self, a: Value, b: Value) -> bool {
        match self {
            PredOp::Eq => a.matches_eq(b),
            PredOp::Ne => !a.matches_eq(b),
            PredOp::Lt => a.num_cmp(b) == Some(Ordering::Less),
            PredOp::Le => matches!(a.num_cmp(b), Some(Ordering::Less | Ordering::Equal)),
            PredOp::Gt => a.num_cmp(b) == Some(Ordering::Greater),
            PredOp::Ge => matches!(a.num_cmp(b), Some(Ordering::Greater | Ordering::Equal)),
        }
    }

    /// The predicate with operands swapped: `a OP b == b OP.flip() a`.
    pub fn flip(self) -> PredOp {
        match self {
            PredOp::Eq => PredOp::Eq,
            PredOp::Ne => PredOp::Ne,
            PredOp::Lt => PredOp::Gt,
            PredOp::Le => PredOp::Ge,
            PredOp::Gt => PredOp::Lt,
            PredOp::Ge => PredOp::Le,
        }
    }
}

impl fmt::Display for PredOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PredOp::Eq => "=",
            PredOp::Ne => "<>",
            PredOp::Lt => "<",
            PredOp::Le => "<=",
            PredOp::Gt => ">",
            PredOp::Ge => ">=",
        })
    }
}

/// An expression over a rule's variable bindings.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A literal value.
    Const(Value),
    /// A bound variable.
    Var(VarId),
    /// Binary arithmetic.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

/// Errors raised during expression evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvalError {
    /// Arithmetic on a symbol.
    NotANumber,
    /// Integer division or modulo by zero.
    DivideByZero,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::NotANumber => write!(f, "arithmetic on a non-numeric value"),
            EvalError::DivideByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for EvalError {}

impl Expr {
    /// Evaluates against `env` (the rule's binding vector).
    ///
    /// # Panics
    /// Panics if a `Var` is out of range for `env`; the compiler guarantees
    /// every referenced variable is bound before use.
    pub fn eval(&self, env: &[Value]) -> Result<Value, EvalError> {
        match self {
            Expr::Const(v) => Ok(*v),
            Expr::Var(v) => Ok(env[v.index()]),
            Expr::Bin(op, l, r) => {
                let a = l.eval(env)?;
                let b = r.eval(env)?;
                arith(*op, a, b)
            }
        }
    }

    /// Visits every variable referenced by this expression.
    pub fn for_each_var(&self, f: &mut impl FnMut(VarId)) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => f(*v),
            Expr::Bin(_, l, r) => {
                l.for_each_var(f);
                r.for_each_var(f);
            }
        }
    }
}

impl BinOp {
    /// Applies the operator to two values with the engine's exact
    /// arithmetic semantics (wrapping integer ops, int/float promotion,
    /// integer division-by-zero errors). [`Expr::eval`] routes every
    /// binary operation through it.
    #[inline]
    pub fn apply(self, a: Value, b: Value) -> Result<Value, EvalError> {
        arith(self, a, b)
    }
}

fn arith(op: BinOp, a: Value, b: Value) -> Result<Value, EvalError> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => match op {
            BinOp::Add => Ok(Value::Int(x.wrapping_add(y))),
            BinOp::Sub => Ok(Value::Int(x.wrapping_sub(y))),
            BinOp::Mul => Ok(Value::Int(x.wrapping_mul(y))),
            BinOp::Div => {
                if y == 0 {
                    Err(EvalError::DivideByZero)
                } else {
                    Ok(Value::Int(x.wrapping_div(y)))
                }
            }
            BinOp::Mod => {
                if y == 0 {
                    Err(EvalError::DivideByZero)
                } else {
                    Ok(Value::Int(x.wrapping_rem(y)))
                }
            }
        },
        (Value::Sym(_), _) | (_, Value::Sym(_)) => Err(EvalError::NotANumber),
        _ => {
            let x = match a {
                Value::Int(i) => i as f64,
                Value::Float(f) => f,
                Value::Sym(_) => unreachable!(),
            };
            let y = match b {
                Value::Int(i) => i as f64,
                Value::Float(f) => f,
                Value::Sym(_) => unreachable!(),
            };
            let r = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Mod => x % y,
            };
            Ok(Value::Float(r))
        }
    }
}

/// A boolean test: `lhs OP rhs` over a binding environment. Compound
/// conditions are expressed as multiple tests (conjunction).
#[derive(Clone, PartialEq, Debug)]
pub struct TestExpr {
    /// The comparison predicate.
    pub op: PredOp,
    /// Left operand.
    pub lhs: Expr,
    /// Right operand.
    pub rhs: Expr,
}

impl TestExpr {
    /// Evaluates the test; evaluation errors make the test false (a rule
    /// whose test divides by zero simply does not match, mirroring OPS5's
    /// treatment of failed predicates).
    pub fn check(&self, env: &[Value]) -> bool {
        match (self.lhs.eval(env), self.rhs.eval(env)) {
            (Ok(a), Ok(b)) => self.op.apply(a, b),
            _ => false,
        }
    }

    /// Visits every variable referenced by the test.
    pub fn for_each_var(&self, f: &mut impl FnMut(VarId)) {
        self.lhs.for_each_var(f);
        self.rhs.for_each_var(f);
    }

    /// The highest variable index referenced, if any. Used by the compiler
    /// to anchor the test at the earliest join where all vars are bound.
    pub fn max_var(&self) -> Option<VarId> {
        let mut max: Option<VarId> = None;
        self.for_each_var(&mut |v| {
            max = Some(match max {
                Some(m) if m.0 >= v.0 => m,
                _ => v,
            });
        });
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;

    fn var(i: u16) -> Expr {
        Expr::Var(VarId(i))
    }
    fn int(i: i64) -> Expr {
        Expr::Const(Value::Int(i))
    }

    #[test]
    fn arithmetic_int() {
        let env = [Value::Int(10), Value::Int(3)];
        let e = Expr::Bin(BinOp::Mod, Box::new(var(0)), Box::new(var(1)));
        assert_eq!(e.eval(&env), Ok(Value::Int(1)));
        let e = Expr::Bin(BinOp::Div, Box::new(var(0)), Box::new(var(1)));
        assert_eq!(e.eval(&env), Ok(Value::Int(3)));
    }

    #[test]
    fn arithmetic_mixed_promotes_to_float() {
        let env = [Value::Int(1), Value::Float(0.5)];
        let e = Expr::Bin(BinOp::Add, Box::new(var(0)), Box::new(var(1)));
        assert_eq!(e.eval(&env), Ok(Value::Float(1.5)));
    }

    #[test]
    fn arithmetic_errors() {
        let env = [Value::Sym(Symbol(1)), Value::Int(0)];
        let e = Expr::Bin(BinOp::Add, Box::new(var(0)), Box::new(int(1)));
        assert_eq!(e.eval(&env), Err(EvalError::NotANumber));
        let e = Expr::Bin(BinOp::Div, Box::new(int(1)), Box::new(var(1)));
        assert_eq!(e.eval(&env), Err(EvalError::DivideByZero));
        let e = Expr::Bin(BinOp::Mod, Box::new(int(1)), Box::new(var(1)));
        assert_eq!(e.eval(&env), Err(EvalError::DivideByZero));
    }

    #[test]
    fn float_division_by_zero_is_inf_not_error() {
        let e = Expr::Bin(
            BinOp::Div,
            Box::new(Expr::Const(Value::Float(1.0))),
            Box::new(Expr::Const(Value::Float(0.0))),
        );
        assert_eq!(e.eval(&[]), Ok(Value::Float(f64::INFINITY)));
    }

    #[test]
    fn pred_ops() {
        use PredOp::*;
        assert!(Eq.apply(Value::Int(2), Value::Float(2.0)));
        assert!(Ne.apply(Value::Int(2), Value::Int(3)));
        assert!(Lt.apply(Value::Int(2), Value::Int(3)));
        assert!(Le.apply(Value::Int(3), Value::Int(3)));
        assert!(Gt.apply(Value::Float(3.5), Value::Int(3)));
        assert!(Ge.apply(Value::Int(3), Value::Int(3)));
        // Ordering on symbols is always false.
        assert!(!Lt.apply(Value::Sym(Symbol(1)), Value::Sym(Symbol(2))));
        assert!(!Ge.apply(Value::Sym(Symbol(2)), Value::Sym(Symbol(1))));
    }

    #[test]
    fn pred_flip_is_involutive_on_order() {
        for op in [
            PredOp::Eq,
            PredOp::Ne,
            PredOp::Lt,
            PredOp::Le,
            PredOp::Gt,
            PredOp::Ge,
        ] {
            assert_eq!(op.flip().flip(), op);
            // a OP b == b flip(OP) a for numbers
            let a = Value::Int(1);
            let b = Value::Int(2);
            assert_eq!(op.apply(a, b), op.flip().apply(b, a));
        }
    }

    #[test]
    fn test_expr_check_and_failed_eval_is_false() {
        let t = TestExpr {
            op: PredOp::Gt,
            lhs: var(0),
            rhs: int(5),
        };
        assert!(t.check(&[Value::Int(6)]));
        assert!(!t.check(&[Value::Int(5)]));
        // eval error => false, not panic
        let t = TestExpr {
            op: PredOp::Gt,
            lhs: Expr::Bin(BinOp::Add, Box::new(var(0)), Box::new(int(1))),
            rhs: int(5),
        };
        assert!(!t.check(&[Value::Sym(Symbol(1))]));
    }

    #[test]
    fn max_var_finds_deepest() {
        let t = TestExpr {
            op: PredOp::Eq,
            lhs: Expr::Bin(BinOp::Add, Box::new(var(3)), Box::new(var(7))),
            rhs: var(5),
        };
        assert_eq!(t.max_var(), Some(VarId(7)));
        let t2 = TestExpr {
            op: PredOp::Eq,
            lhs: int(1),
            rhs: int(1),
        };
        assert_eq!(t2.max_var(), None);
    }
}
