//! Compiled intermediate representation of PARULEL programs.
//!
//! The surface language (`parulel-lang`) compiles to this IR; the match
//! engines (`parulel-match`) and the execution engine (`parulel-engine`)
//! consume it. All attribute names have been resolved to field slots, all
//! variables to dense per-rule [`VarId`]s, and all rule/class names to ids.
//!
//! ## Variable discipline
//!
//! Within a rule, variables are numbered in order of first occurrence
//! scanning condition elements left-to-right, fields left-to-right. The
//! first occurrence compiles to [`FieldCheck::Bind`]; later occurrences to
//! [`FieldCheck::Var`] (equality or another predicate). Negative CEs may
//! bind *local* variables for intra-CE consistency, but those bindings are
//! invisible to later CEs — the compiler enforces this by only allocating
//! exported variables from positive CEs.
//!
//! ## Meta-rules
//!
//! A meta-rule's "working memory" is the conflict set. Each [`MetaCe`]
//! matches one instantiation of a named object-level rule, with positional
//! [`CePattern`]s over the WMEs that instantiation matched. Distinct meta
//! CEs always bind distinct instantiations. The only meta action is
//! [`MetaAction::Redact`], deleting a matched instantiation from the
//! conflict set before the fire phase.

use crate::classes::{ClassId, ClassRegistry};
use crate::expr::{Expr, PredOp, TestExpr};
use crate::hash::{FxBuildHasher, FxHashMap};
use crate::symbol::{Interner, Symbol};
use crate::value::Value;
use crate::wme::Wme;
use std::hash::{BuildHasher, Hash};

/// A per-rule variable slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u16);

impl VarId {
    /// Raw index into the rule's binding environment.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a rule within its [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RuleId(pub u32);

impl RuleId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a meta-rule within its [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MetaRuleId(pub u32);

impl MetaRuleId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Whether a condition element must match (positive) or must have no match
/// (negative).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Polarity {
    /// The CE must be satisfied by some WME.
    Positive,
    /// The CE must be satisfied by *no* WME (negation as absence).
    Negative,
}

/// A single test applied to one field of a candidate WME.
///
/// `Eq`/`Hash` are structural (floats compare bitwise via [`Value`]'s
/// total order) so alpha-constant tests can key shared alpha-network
/// nodes.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum FieldCheck {
    /// Compare the field against a constant: `field OP value`.
    Const(PredOp, Value),
    /// Disjunctive membership: `field ∈ {v…}` (surface `<< a b c >>`).
    OneOf(Vec<Value>),
    /// First occurrence of a variable: bind it to the field value.
    Bind(VarId),
    /// Compare the field against an already-bound variable.
    Var(PredOp, VarId),
    /// Copy-and-constrain residue test: `hash(field) mod divisor == residue`.
    /// Inserted by the copy-and-constrain transform, never written by hand.
    HashMod {
        /// Number of copies the original rule was split into.
        divisor: u32,
        /// Which copy this is.
        residue: u32,
    },
}

impl FieldCheck {
    /// True iff the check can run with no variable context — i.e. it
    /// belongs in the alpha (constant-test) layer of the match network.
    pub fn is_alpha(&self) -> bool {
        matches!(
            self,
            FieldCheck::Const(..) | FieldCheck::OneOf(_) | FieldCheck::HashMod { .. }
        )
    }
}

/// [`FieldCheck`] anchored at a field slot.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct FieldTest {
    /// Field slot the test reads.
    pub slot: u16,
    /// The check to apply.
    pub check: FieldCheck,
}

/// Deterministic hash used by [`FieldCheck::HashMod`]. Stable across runs
/// and platforms so copy-and-constrain partitions are reproducible.
#[inline]
pub fn ccc_hash(v: Value) -> u64 {
    FxBuildHasher::default().hash_one(v)
}

impl FieldTest {
    /// Applies the test to `wme`, given (and possibly extending) the
    /// binding environment. Alpha checks ignore `env`.
    #[inline]
    pub fn check_wme(&self, wme: &Wme, env: &mut [Value]) -> bool {
        let field = wme.field(self.slot as usize);
        match &self.check {
            FieldCheck::Const(op, v) => op.apply(field, *v),
            FieldCheck::OneOf(vs) => vs.iter().any(|v| field.matches_eq(*v)),
            FieldCheck::Bind(var) => {
                env[var.index()] = field;
                true
            }
            FieldCheck::Var(op, var) => op.apply(field, env[var.index()]),
            FieldCheck::HashMod { divisor, residue } => {
                ccc_hash(field) % u64::from(*divisor) == u64::from(*residue)
            }
        }
    }
}

/// One condition element (pattern) of a rule's LHS.
#[derive(Clone, PartialEq, Debug)]
pub struct ConditionElement {
    /// WME class this CE matches.
    pub class: ClassId,
    /// Positive or negative.
    pub polarity: Polarity,
    /// Field tests, in slot order (binds precede uses for intra-CE
    /// variable repeats).
    pub tests: Vec<FieldTest>,
}

impl ConditionElement {
    /// The alpha-layer subset of the tests (no variable context needed).
    pub fn alpha_tests(&self) -> impl Iterator<Item = &FieldTest> {
        self.tests.iter().filter(|t| t.check.is_alpha())
    }

    /// The beta-layer subset (variable binds and comparisons).
    pub fn beta_tests(&self) -> impl Iterator<Item = &FieldTest> {
        self.tests.iter().filter(|t| !t.check.is_alpha())
    }

    /// True iff `wme` passes class and alpha tests.
    pub fn passes_alpha(&self, wme: &Wme) -> bool {
        if wme.class != self.class {
            return false;
        }
        // Alpha checks never touch env.
        let mut empty: [Value; 0] = [];
        self.alpha_tests().all(|t| t.check_wme(wme, &mut empty))
    }

    /// Runs the beta tests against `wme` under `env`, writing bindings.
    /// Callers pass a scratch copy of the env when failure must not leak
    /// partial bindings (join nodes do this per candidate).
    pub fn run_beta(&self, wme: &Wme, env: &mut [Value]) -> bool {
        self.beta_tests().all(|t| t.check_wme(wme, env))
    }

    /// Full CE check (alpha + beta) used by the naive matcher.
    pub fn matches(&self, wme: &Wme, env: &mut [Value]) -> bool {
        self.passes_alpha(wme) && self.run_beta(wme, env)
    }

    /// Equality join keys: `(slot, var)` pairs where the CE requires
    /// `wme.field(slot) == env[var]` with the var bound by an *earlier* CE.
    /// `bound_before` is the number of variables bound before this CE in
    /// join order; intra-CE comparisons are excluded (they need the local
    /// binds to have run).
    pub fn eq_join_keys(&self, bound_before: u16) -> Vec<(u16, VarId)> {
        self.tests
            .iter()
            .filter_map(|t| match t.check {
                FieldCheck::Var(PredOp::Eq, v) if v.0 < bound_before => Some((t.slot, v)),
                _ => None,
            })
            .collect()
    }

    /// Variables bound (first occurrence) by this CE, in slot order.
    pub fn bound_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.tests.iter().filter_map(|t| match t.check {
            FieldCheck::Bind(v) => Some(v),
            _ => None,
        })
    }
}

/// A `test` CE anchored at the earliest join position where all its
/// variables are bound.
#[derive(Clone, PartialEq, Debug)]
pub struct RuleTest {
    /// The test runs once the first `anchor + 1` CEs have joined. The
    /// compiler guarantees every variable the test reads is bound by then.
    pub anchor: usize,
    /// The predicate itself.
    pub test: TestExpr,
}

/// An RHS action.
#[derive(Clone, PartialEq, Debug)]
pub enum Action {
    /// Assert a new WME.
    Make {
        /// Class of the new WME.
        class: ClassId,
        /// One expression per field slot.
        fields: Vec<Expr>,
    },
    /// Retract the WME matched by the `ce`-th *positive* CE (0-based).
    Remove {
        /// Positive-CE ordinal.
        ce: u8,
    },
    /// Retract-and-reassert the WME matched by positive CE `ce`, with the
    /// listed field slots replaced.
    Modify {
        /// Positive-CE ordinal.
        ce: u8,
        /// `(slot, new value)` assignments.
        sets: Vec<(u16, Expr)>,
    },
    /// Append a line to the engine's output log.
    Write(Vec<Expr>),
    /// Stop execution after this cycle.
    Halt,
}

/// A compiled object-level rule.
#[derive(Clone, Debug)]
pub struct Rule {
    /// Dense id within the program.
    pub id: RuleId,
    /// Rule name.
    pub name: Symbol,
    /// Condition elements in join (source) order.
    pub ces: Vec<ConditionElement>,
    /// Anchored predicate tests.
    pub tests: Vec<RuleTest>,
    /// RHS `bind` definitions, evaluated in order before the actions; each
    /// extends the environment at the given fresh [`VarId`].
    pub binds: Vec<(VarId, Expr)>,
    /// RHS actions, in source order.
    pub actions: Vec<Action>,
    /// Total variables (LHS binds + RHS `bind`s).
    pub num_vars: u16,
}

impl Rule {
    /// Indices (into `ces`) of the positive CEs, in order. Instantiations
    /// store one WME per entry of this list.
    pub fn positive_ce_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.ces
            .iter()
            .enumerate()
            .filter(|(_, ce)| ce.polarity == Polarity::Positive)
            .map(|(i, _)| i)
    }

    /// Number of positive CEs.
    pub fn num_positive(&self) -> usize {
        self.ces
            .iter()
            .filter(|ce| ce.polarity == Polarity::Positive)
            .count()
    }

    /// Specificity for the MEA/LEX baselines: total number of tests on the
    /// LHS (more tests = more specific = preferred).
    pub fn specificity(&self) -> usize {
        self.ces.iter().map(|ce| ce.tests.len() + 1).sum::<usize>() + self.tests.len()
    }

    /// True iff every rule test anchored at CE position `anchor` holds
    /// under `env` (an evaluation error fails the test, as in
    /// [`TestExpr::check`]).
    pub fn tests_pass_at(&self, anchor: usize, env: &[Value]) -> bool {
        self.tests
            .iter()
            .filter(|t| t.anchor == anchor)
            .all(|t| t.test.check(env))
    }

    /// Number of variables bound by the first `n` CEs (prefix of the join
    /// order). Used to place tests and identify join keys.
    pub fn vars_bound_by(&self, n: usize) -> u16 {
        self.ces[..n]
            .iter()
            .filter(|ce| ce.polarity == Polarity::Positive)
            .flat_map(|ce| ce.bound_vars())
            .map(|v| v.0 + 1)
            .max()
            .unwrap_or(0)
    }
}

/// A positional pattern over one WME of a matched instantiation, inside a
/// meta-rule CE. Uses *meta-level* variables.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CePattern {
    /// Field tests (meta-level vars).
    pub tests: Vec<FieldTest>,
}

/// One condition element of a meta-rule: matches a single instantiation of
/// `rule` in the conflict set.
#[derive(Clone, PartialEq, Debug)]
pub struct MetaCe {
    /// The object-level rule whose instantiations this CE ranges over.
    pub rule: RuleId,
    /// Positional patterns over the instantiation's positive-CE WMEs.
    /// May be shorter than the rule's positive CE count (suffix = wildcard).
    pub pats: Vec<CePattern>,
}

/// A meta-rule action.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetaAction {
    /// Delete the instantiation matched by the `ce`-th meta CE (0-based)
    /// from the conflict set.
    Redact {
        /// Meta-CE ordinal.
        ce: u8,
    },
}

/// A compiled meta-rule.
#[derive(Clone, Debug)]
pub struct MetaRule {
    /// Dense id within the program.
    pub id: MetaRuleId,
    /// Meta-rule name.
    pub name: Symbol,
    /// Meta condition elements (all positive; distinct CEs bind distinct
    /// instantiations).
    pub ces: Vec<MetaCe>,
    /// Predicate tests over meta variables.
    pub tests: Vec<TestExpr>,
    /// Redactions to apply when the meta-rule matches.
    pub actions: Vec<MetaAction>,
    /// Number of meta variables.
    pub num_vars: u16,
}

/// Errors raised by [`Program`] construction/validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IrError {
    /// An action referenced a positive CE ordinal out of range.
    BadCeRef {
        /// Offending rule.
        rule: Symbol,
        /// The ordinal used.
        ce: u8,
        /// Number of positive CEs available.
        have: usize,
    },
    /// A rule name was used twice.
    DuplicateRule(Symbol),
    /// A `Make`/`Modify` action's field list does not match the class arity.
    BadArity {
        /// Offending rule.
        rule: Symbol,
        /// Target class.
        class: ClassId,
        /// Fields supplied.
        got: usize,
        /// Arity expected.
        want: usize,
    },
    /// A meta-rule referenced an unknown object rule.
    UnknownRuleInMeta {
        /// Offending meta-rule.
        meta: Symbol,
    },
    /// A meta CE supplied more positional patterns than the target rule has
    /// positive CEs.
    TooManyPatterns {
        /// Offending meta-rule.
        meta: Symbol,
    },
    /// A meta action redacted a CE ordinal out of range.
    BadRedact {
        /// Offending meta-rule.
        meta: Symbol,
        /// The ordinal used.
        ce: u8,
    },
    /// A rule has no positive CE (nothing to instantiate on).
    NoPositiveCe(Symbol),
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrError::BadCeRef { rule, ce, have } => write!(
                f,
                "rule sym#{}: action references positive CE {} but only {have} exist",
                rule.0,
                ce + 1
            ),
            IrError::DuplicateRule(s) => write!(f, "duplicate rule name sym#{}", s.0),
            IrError::BadArity {
                rule,
                class,
                got,
                want,
            } => write!(
                f,
                "rule sym#{}: action on class {class:?} has {got} fields, expected {want}",
                rule.0
            ),
            IrError::UnknownRuleInMeta { meta } => {
                write!(f, "meta-rule sym#{}: unknown object rule", meta.0)
            }
            IrError::TooManyPatterns { meta } => write!(
                f,
                "meta-rule sym#{}: more positional patterns than positive CEs",
                meta.0
            ),
            IrError::BadRedact { meta, ce } => write!(
                f,
                "meta-rule sym#{}: redact {} out of range",
                meta.0,
                ce + 1
            ),
            IrError::NoPositiveCe(s) => {
                write!(f, "rule sym#{} has no positive condition element", s.0)
            }
        }
    }
}

impl std::error::Error for IrError {}

/// A complete compiled program: class declarations, object rules,
/// meta-rules, and the interner their symbols live in.
#[derive(Clone, Debug)]
pub struct Program {
    /// Symbol table.
    pub interner: Interner,
    /// Class registry.
    pub classes: ClassRegistry,
    rules: Vec<Rule>,
    metas: Vec<MetaRule>,
    rule_by_name: FxHashMap<Symbol, RuleId>,
}

impl Program {
    /// Creates an empty program over the given interner and classes.
    pub fn new(interner: Interner, classes: ClassRegistry) -> Self {
        Program {
            interner,
            classes,
            rules: Vec::new(),
            metas: Vec::new(),
            rule_by_name: FxHashMap::default(),
        }
    }

    /// Adds a rule after validating its internal references. The rule's
    /// `id` field is overwritten with the assigned id, which is returned.
    pub fn add_rule(&mut self, mut rule: Rule) -> Result<RuleId, IrError> {
        if self.rule_by_name.contains_key(&rule.name) {
            return Err(IrError::DuplicateRule(rule.name));
        }
        let num_pos = rule.num_positive();
        if num_pos == 0 {
            return Err(IrError::NoPositiveCe(rule.name));
        }
        for action in &rule.actions {
            match action {
                Action::Remove { ce } | Action::Modify { ce, .. } => {
                    if *ce as usize >= num_pos {
                        return Err(IrError::BadCeRef {
                            rule: rule.name,
                            ce: *ce,
                            have: num_pos,
                        });
                    }
                }
                Action::Make { class, fields } => {
                    let want = self.classes.decl(*class).arity();
                    if fields.len() != want {
                        return Err(IrError::BadArity {
                            rule: rule.name,
                            class: *class,
                            got: fields.len(),
                            want,
                        });
                    }
                }
                Action::Write(_) | Action::Halt => {}
            }
        }
        let id = RuleId(self.rules.len() as u32);
        rule.id = id;
        self.rule_by_name.insert(rule.name, id);
        self.rules.push(rule);
        Ok(id)
    }

    /// Adds a meta-rule after validating its references.
    pub fn add_meta(&mut self, mut meta: MetaRule) -> Result<MetaRuleId, IrError> {
        for ce in &meta.ces {
            let Some(rule) = self.rules.get(ce.rule.index()) else {
                return Err(IrError::UnknownRuleInMeta { meta: meta.name });
            };
            if ce.pats.len() > rule.num_positive() {
                return Err(IrError::TooManyPatterns { meta: meta.name });
            }
        }
        for MetaAction::Redact { ce } in &meta.actions {
            if *ce as usize >= meta.ces.len() {
                return Err(IrError::BadRedact {
                    meta: meta.name,
                    ce: *ce,
                });
            }
        }
        let id = MetaRuleId(self.metas.len() as u32);
        meta.id = id;
        self.metas.push(meta);
        Ok(id)
    }

    /// All rules, indexable by [`RuleId`].
    #[inline]
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// All meta-rules, indexable by [`MetaRuleId`].
    #[inline]
    pub fn metas(&self) -> &[MetaRule] {
        &self.metas
    }

    /// The rule with this id.
    ///
    /// # Panics
    /// Panics if `id` did not come from this program.
    #[inline]
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.index()]
    }

    /// Looks up a rule by name.
    pub fn rule_by_name(&self, name: Symbol) -> Option<RuleId> {
        self.rule_by_name.get(&name).copied()
    }

    /// Renders a rule name for traces.
    pub fn rule_name(&self, id: RuleId) -> String {
        self.interner.resolve(self.rule(id).name).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wme::WmeId;

    fn setup() -> (Interner, ClassRegistry, ClassId) {
        let i = Interner::new();
        let mut reg = ClassRegistry::new();
        let c = reg
            .declare(i.intern("point"), vec![i.intern("x"), i.intern("y")])
            .unwrap();
        (i, reg, c)
    }

    fn wme(class: ClassId, id: u64, fields: Vec<Value>) -> Wme {
        Wme::new(WmeId(id), class, fields)
    }

    #[test]
    fn field_tests_against_wme() {
        let (_, _, c) = setup();
        let w = wme(c, 1, vec![Value::Int(3), Value::Int(3)]);
        let mut env = vec![Value::NIL; 2];

        let t = FieldTest {
            slot: 0,
            check: FieldCheck::Const(PredOp::Ge, Value::Int(3)),
        };
        assert!(t.check_wme(&w, &mut env));

        let bind = FieldTest {
            slot: 0,
            check: FieldCheck::Bind(VarId(0)),
        };
        assert!(bind.check_wme(&w, &mut env));
        assert_eq!(env[0], Value::Int(3));

        let same = FieldTest {
            slot: 1,
            check: FieldCheck::Var(PredOp::Eq, VarId(0)),
        };
        assert!(same.check_wme(&w, &mut env));

        let oneof = FieldTest {
            slot: 0,
            check: FieldCheck::OneOf(vec![Value::Int(1), Value::Int(3)]),
        };
        assert!(oneof.check_wme(&w, &mut env));
        let oneof_miss = FieldTest {
            slot: 0,
            check: FieldCheck::OneOf(vec![Value::Int(1), Value::Int(2)]),
        };
        assert!(!oneof_miss.check_wme(&w, &mut env));
    }

    #[test]
    fn hashmod_partitions_cover_all_values() {
        let (_, _, c) = setup();
        let k = 4u32;
        for v in 0..100 {
            let w = wme(c, 1, vec![Value::Int(v), Value::Int(0)]);
            let mut hits = 0;
            for r in 0..k {
                let t = FieldTest {
                    slot: 0,
                    check: FieldCheck::HashMod {
                        divisor: k,
                        residue: r,
                    },
                };
                if t.check_wme(&w, &mut []) {
                    hits += 1;
                }
            }
            assert_eq!(hits, 1, "value {v} must land in exactly one partition");
        }
    }

    #[test]
    fn ce_alpha_beta_split() {
        let (_, _, c) = setup();
        let ce = ConditionElement {
            class: c,
            polarity: Polarity::Positive,
            tests: vec![
                FieldTest {
                    slot: 0,
                    check: FieldCheck::Const(PredOp::Eq, Value::Int(1)),
                },
                FieldTest {
                    slot: 1,
                    check: FieldCheck::Bind(VarId(0)),
                },
            ],
        };
        assert_eq!(ce.alpha_tests().count(), 1);
        assert_eq!(ce.beta_tests().count(), 1);
        let good = wme(c, 1, vec![Value::Int(1), Value::Int(9)]);
        let bad = wme(c, 2, vec![Value::Int(2), Value::Int(9)]);
        assert!(ce.passes_alpha(&good));
        assert!(!ce.passes_alpha(&bad));
        let mut env = vec![Value::NIL; 1];
        assert!(ce.matches(&good, &mut env));
        assert_eq!(env[0], Value::Int(9));
    }

    #[test]
    fn eq_join_keys_only_earlier_vars() {
        let (_, _, c) = setup();
        let ce = ConditionElement {
            class: c,
            polarity: Polarity::Positive,
            tests: vec![
                FieldTest {
                    slot: 0,
                    check: FieldCheck::Var(PredOp::Eq, VarId(0)), // earlier var
                },
                FieldTest {
                    slot: 1,
                    check: FieldCheck::Var(PredOp::Eq, VarId(3)), // bound later
                },
            ],
        };
        assert_eq!(ce.eq_join_keys(1), vec![(0, VarId(0))]);
        assert_eq!(ce.eq_join_keys(4).len(), 2);
    }

    fn minimal_rule(name: Symbol, class: ClassId) -> Rule {
        Rule {
            id: RuleId(0),
            name,
            ces: vec![ConditionElement {
                class,
                polarity: Polarity::Positive,
                tests: vec![],
            }],
            tests: vec![],
            binds: vec![],
            actions: vec![],
            num_vars: 0,
        }
    }

    #[test]
    fn program_validates_action_refs() {
        let (i, reg, c) = setup();
        let mut p = Program::new(i.clone(), reg);
        let mut r = minimal_rule(i.intern("r"), c);
        r.actions.push(Action::Remove { ce: 1 }); // only 1 positive CE
        let err = p.add_rule(r).unwrap_err();
        assert!(matches!(err, IrError::BadCeRef { .. }));
    }

    #[test]
    fn program_validates_make_arity() {
        let (i, reg, c) = setup();
        let mut p = Program::new(i.clone(), reg);
        let mut r = minimal_rule(i.intern("r"), c);
        r.actions.push(Action::Make {
            class: c,
            fields: vec![Expr::Const(Value::Int(1))], // class has arity 2
        });
        let err = p.add_rule(r).unwrap_err();
        assert!(matches!(
            err,
            IrError::BadArity {
                want: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn program_rejects_duplicate_and_empty_rules() {
        let (i, reg, c) = setup();
        let mut p = Program::new(i.clone(), reg);
        let name = i.intern("r");
        p.add_rule(minimal_rule(name, c)).unwrap();
        assert_eq!(
            p.add_rule(minimal_rule(name, c)),
            Err(IrError::DuplicateRule(name))
        );
        let mut empty = minimal_rule(i.intern("empty"), c);
        empty.ces.clear();
        assert!(matches!(p.add_rule(empty), Err(IrError::NoPositiveCe(_))));
    }

    #[test]
    fn program_validates_meta() {
        let (i, reg, c) = setup();
        let mut p = Program::new(i.clone(), reg);
        let rid = p.add_rule(minimal_rule(i.intern("r"), c)).unwrap();
        // too many patterns
        let meta = MetaRule {
            id: MetaRuleId(0),
            name: i.intern("m"),
            ces: vec![MetaCe {
                rule: rid,
                pats: vec![CePattern::default(), CePattern::default()],
            }],
            tests: vec![],
            actions: vec![],
            num_vars: 0,
        };
        assert!(matches!(
            p.add_meta(meta),
            Err(IrError::TooManyPatterns { .. })
        ));
        // bad redact index
        let meta = MetaRule {
            id: MetaRuleId(0),
            name: i.intern("m2"),
            ces: vec![MetaCe {
                rule: rid,
                pats: vec![],
            }],
            tests: vec![],
            actions: vec![MetaAction::Redact { ce: 1 }],
            num_vars: 0,
        };
        assert!(matches!(p.add_meta(meta), Err(IrError::BadRedact { .. })));
        // good meta
        let meta = MetaRule {
            id: MetaRuleId(0),
            name: i.intern("m3"),
            ces: vec![MetaCe {
                rule: rid,
                pats: vec![],
            }],
            tests: vec![],
            actions: vec![MetaAction::Redact { ce: 0 }],
            num_vars: 0,
        };
        assert!(p.add_meta(meta).is_ok());
        assert_eq!(p.metas().len(), 1);
    }

    #[test]
    fn rule_lookup_and_specificity() {
        let (i, reg, c) = setup();
        let mut p = Program::new(i.clone(), reg);
        let name = i.intern("r");
        let rid = p.add_rule(minimal_rule(name, c)).unwrap();
        assert_eq!(p.rule_by_name(name), Some(rid));
        assert_eq!(p.rule_by_name(i.intern("missing")), None);
        assert_eq!(p.rule(rid).specificity(), 1);
        assert_eq!(p.rule_name(rid), "r");
    }

    #[test]
    fn vars_bound_by_prefix() {
        let (_, _, c) = setup();
        let rule = Rule {
            id: RuleId(0),
            name: Symbol(1),
            ces: vec![
                ConditionElement {
                    class: c,
                    polarity: Polarity::Positive,
                    tests: vec![FieldTest {
                        slot: 0,
                        check: FieldCheck::Bind(VarId(0)),
                    }],
                },
                ConditionElement {
                    class: c,
                    polarity: Polarity::Negative,
                    tests: vec![],
                },
                ConditionElement {
                    class: c,
                    polarity: Polarity::Positive,
                    tests: vec![
                        FieldTest {
                            slot: 0,
                            check: FieldCheck::Bind(VarId(1)),
                        },
                        FieldTest {
                            slot: 1,
                            check: FieldCheck::Bind(VarId(2)),
                        },
                    ],
                },
            ],
            tests: vec![],
            binds: vec![],
            actions: vec![],
            num_vars: 3,
        };
        assert_eq!(rule.vars_bound_by(0), 0);
        assert_eq!(rule.vars_bound_by(1), 1);
        assert_eq!(rule.vars_bound_by(2), 1); // negative CE binds nothing
        assert_eq!(rule.vars_bound_by(3), 3);
        assert_eq!(rule.num_positive(), 2);
        assert_eq!(rule.positive_ce_indices().collect::<Vec<_>>(), vec![0, 2]);
    }
}
