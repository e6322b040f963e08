//! RHS evaluation: turning a cycle's surviving set into one [`Delta`].
//!
//! PARULEL fires a whole *set* of instantiations per cycle. Each RHS is
//! evaluated against a snapshot (the WMEs the instantiation matched and
//! its bindings — no live WM access), so no firing can observe another.
//! [`fire_set`] walks the set once, in instantiation-key order, on the
//! calling thread, appending every firing's removes and adds to one cycle
//! delta; the delta is then normalized, so the ids assigned to new WMEs
//! are a function of the set alone. (Evaluating RHSs on worker threads
//! was measured and never paid for its fork and join: EXPERIMENTS.md,
//! claims ledger, "Parallel RHS evaluation on real threads".)

use crate::EngineOptions;
use parulel_core::expr::EvalError;
use parulel_core::{Action, Delta, Instantiation, Interner, Program, Value};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors that abort a run.
///
/// Every variant is structured: budget trips carry the 1-based cycle
/// number they fired on and (where one exists) the offending rules, so an
/// embedding application can react programmatically instead of parsing a
/// message.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// An RHS expression failed to evaluate (arithmetic on a symbol,
    /// division by zero).
    RhsEval {
        /// The rule whose RHS failed.
        rule: String,
        /// The underlying evaluation error.
        error: EvalError,
    },
    /// An RHS panicked. The panic was caught at the firing boundary —
    /// the process survives and only the run is aborted; later firings
    /// of the set are not evaluated.
    RhsPanic {
        /// The rule whose RHS panicked.
        rule: String,
        /// The panic payload, rendered to a string.
        payload: String,
    },
    /// The wall-clock budget ([`Budgets::timeout`](crate::guard::Budgets))
    /// expired at a cycle boundary.
    Timeout {
        /// Cycle the run was about to start (1-based).
        cycle: u64,
        /// Time spent when the budget tripped.
        elapsed: Duration,
        /// The configured budget.
        budget: Duration,
    },
    /// Working memory grew past
    /// [`Budgets::max_wm`](crate::guard::Budgets).
    WmBudget {
        /// Cycle that produced the oversized working memory (1-based).
        cycle: u64,
        /// Live WME count when the budget tripped.
        size: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The conflict set grew wider than
    /// [`Budgets::max_conflict_set`](crate::guard::Budgets).
    ConflictSetBudget {
        /// Cycle whose conflict set tripped the budget (1-based).
        cycle: u64,
        /// Conflict-set width at the trip.
        width: usize,
        /// The configured budget.
        budget: usize,
        /// The rules with the most instantiations (worst offenders first).
        rules: Vec<String>,
    },
    /// One cycle's merged delta exceeded
    /// [`Budgets::max_delta`](crate::guard::Budgets).
    DeltaBudget {
        /// Cycle whose delta tripped the budget (1-based).
        cycle: u64,
        /// Total changes (adds + removes) in the cycle's delta.
        size: usize,
        /// The configured budget.
        budget: usize,
        /// The rules contributing the most changes (worst first).
        rules: Vec<String>,
    },
    /// The incremental matcher's conflict set diverged from the naive
    /// recompute-from-scratch oracle (detected by the fault-injection
    /// audit).
    MatcherCorrupt {
        /// Cycle the divergence was detected on (1-based).
        cycle: u64,
        /// Human-readable description of the divergence.
        detail: String,
    },
}

impl EngineError {
    /// A short machine-readable tag for the error variant, used by the
    /// structured trace (`budget` events) and metrics sinks.
    pub fn kind(&self) -> &'static str {
        match self {
            EngineError::RhsEval { .. } => "rhs-eval",
            EngineError::RhsPanic { .. } => "rhs-panic",
            EngineError::Timeout { .. } => "timeout",
            EngineError::WmBudget { .. } => "wm",
            EngineError::ConflictSetBudget { .. } => "conflict-set",
            EngineError::DeltaBudget { .. } => "delta",
            EngineError::MatcherCorrupt { .. } => "matcher-corrupt",
        }
    }

    /// The cycle the error is attributed to, when the variant carries one
    /// (RHS failures identify a rule instead).
    pub fn cycle(&self) -> Option<u64> {
        match self {
            EngineError::Timeout { cycle, .. }
            | EngineError::WmBudget { cycle, .. }
            | EngineError::ConflictSetBudget { cycle, .. }
            | EngineError::DeltaBudget { cycle, .. }
            | EngineError::MatcherCorrupt { cycle, .. } => Some(*cycle),
            EngineError::RhsEval { .. } | EngineError::RhsPanic { .. } => None,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::RhsEval { rule, error } => {
                write!(f, "RHS of rule '{rule}' failed to evaluate: {error}")
            }
            EngineError::RhsPanic { rule, payload } => {
                write!(f, "RHS of rule '{rule}' panicked: {payload}")
            }
            EngineError::Timeout {
                cycle,
                elapsed,
                budget,
            } => write!(
                f,
                "timeout at cycle {cycle}: {elapsed:?} elapsed (budget {budget:?})"
            ),
            EngineError::WmBudget {
                cycle,
                size,
                budget,
            } => write!(
                f,
                "working memory budget exceeded at cycle {cycle}: {size} WMEs (budget {budget})"
            ),
            EngineError::ConflictSetBudget {
                cycle,
                width,
                budget,
                rules,
            } => write!(
                f,
                "conflict-set budget exceeded at cycle {cycle}: width {width} (budget {budget}); \
                 top rules: {}",
                rules.join(", ")
            ),
            EngineError::DeltaBudget {
                cycle,
                size,
                budget,
                rules,
            } => write!(
                f,
                "delta budget exceeded at cycle {cycle}: {size} changes (budget {budget}); \
                 top rules: {}",
                rules.join(", ")
            ),
            EngineError::MatcherCorrupt { cycle, detail } => {
                write!(f, "matcher corruption detected at cycle {cycle}: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Runs `f` with panic isolation: a panic unwinding out of `f` is caught
/// and converted to [`EngineError::RhsPanic`] naming the rule, instead of
/// tearing down the thread (and with it the process).
///
/// The engine wraps every RHS evaluation in this, so one buggy rule aborts
/// the *run* with a structured error while the engine and the embedding
/// application survive. `rule` is lazy so the happy path never allocates
/// a name.
pub fn isolate<T, N, F>(rule: N, f: F) -> Result<T, EngineError>
where
    N: FnOnce() -> String,
    F: FnOnce() -> Result<T, EngineError>,
{
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(EngineError::RhsPanic {
            rule: rule(),
            // `&*payload`, not `&payload`: a `&Box<dyn Any>` would unsize
            // to `&dyn Any` *as the Box*, and every downcast would miss.
            payload: panic_payload_to_string(&*payload),
        }),
    }
}

/// Best-effort rendering of a panic payload (panics carry `&str` or
/// `String` in practice).
fn panic_payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The effect of firing one cycle's surviving set.
#[derive(Debug, Default)]
pub struct FiredSet {
    /// The cycle delta: every firing's removes and adds in instantiation
    /// order, removes then deduplicated ([`Delta::normalize`]).
    pub delta: Delta,
    /// Rendered `write` output lines, in firing order.
    pub log: Vec<String>,
    /// Some RHS executed a `halt`.
    pub halt: bool,
    /// Changes (adds + removes, before deduplication) per firing, one
    /// entry per instantiation in set order — what a delta-budget trip
    /// attributes to rules.
    pub changes: Vec<usize>,
    /// RHS wall time per firing, in set order; empty unless per-rule
    /// metrics are on.
    pub rhs_times: Vec<Duration>,
}

/// Fires `set` (instantiations of `program`'s rules, in key order) as one
/// set on the calling thread.
///
/// Every firing runs behind [`isolate`], so a panicking RHS becomes
/// [`EngineError::RhsPanic`] naming its rule. The first firing that fails
/// aborts the set; that error — the lowest-keyed failing instantiation's —
/// is what is returned, and later firings are not evaluated.
///
/// `opts` supplies `collect_log`, whether per-firing RHS times are taken
/// (per-rule metrics), and, under `fault-inject`, the fault plan consulted
/// with cycle number `cycle`.
pub fn fire_set(
    program: &Program,
    set: &[Instantiation],
    #[cfg_attr(not(feature = "fault-inject"), allow(unused_variables))] cycle: u64,
    opts: &EngineOptions,
) -> Result<FiredSet, EngineError> {
    let timed = opts.metrics.per_rule();
    let mut out = FiredSet {
        changes: Vec::with_capacity(set.len()),
        ..FiredSet::default()
    };
    let mut env = Vec::new();
    for inst in set {
        let t = timed.then(Instant::now);
        let before = out.delta.len();
        isolate(
            || program.rule_name(inst.rule),
            || {
                #[cfg(feature = "fault-inject")]
                opts.faults
                    .maybe_fail_rhs(cycle, &program.rule_name(inst.rule))?;
                fire_one(program, inst, opts.collect_log, &mut env, &mut out)
            },
        )?;
        out.changes.push(out.delta.len() - before);
        if let Some(t) = t {
            out.rhs_times.push(t.elapsed());
        }
    }
    out.delta.normalize();
    Ok(out)
}

/// Evaluates the RHS of `inst` into `out`, with `env` as scratch for the
/// binding environment.
///
/// `modify` decomposes into remove-then-make: the new tuple starts from
/// the *matched* WME's fields (the cycle-start snapshot) with the listed
/// slots replaced. Two instantiations modifying the same WME therefore
/// both retract it (idempotent) and each assert their own version — the
/// interference PARULEL expects meta-rules (or the guard) to prevent.
fn fire_one(
    program: &Program,
    inst: &Instantiation,
    collect_log: bool,
    env: &mut Vec<Value>,
    out: &mut FiredSet,
) -> Result<(), EngineError> {
    let rule = program.rule(inst.rule);
    env.clear();
    env.extend_from_slice(&inst.env);
    let fail = |error: EvalError| EngineError::RhsEval {
        rule: program.rule_name(inst.rule),
        error,
    };
    for (var, expr) in &rule.binds {
        env[var.index()] = expr.eval(env).map_err(fail)?;
    }
    for action in &rule.actions {
        match action {
            Action::Make { class, fields } => {
                let vals: Result<Vec<Value>, EvalError> =
                    fields.iter().map(|e| e.eval(env)).collect();
                out.delta
                    .adds
                    .push((*class, Arc::from(vals.map_err(fail)?)));
            }
            Action::Remove { ce } => {
                out.delta.removes.push(inst.wmes[*ce as usize].id);
            }
            Action::Modify { ce, sets } => {
                let wme = &inst.wmes[*ce as usize];
                out.delta.removes.push(wme.id);
                let mut fields: Vec<Value> = wme.fields.to_vec();
                for (slot, expr) in sets {
                    fields[*slot as usize] = expr.eval(env).map_err(fail)?;
                }
                out.delta.adds.push((wme.class, Arc::from(fields)));
            }
            Action::Write(exprs) => {
                if collect_log {
                    out.log.push(render_write(&program.interner, exprs, env)?);
                }
            }
            Action::Halt => out.halt = true,
        }
    }
    Ok(())
}

fn render_write(
    interner: &Interner,
    exprs: &[parulel_core::Expr],
    env: &[Value],
) -> Result<String, EngineError> {
    let mut parts = Vec::with_capacity(exprs.len());
    for e in exprs {
        let v = e.eval(env).map_err(|error| EngineError::RhsEval {
            rule: String::from("<write>"),
            error,
        })?;
        parts.push(v.display(interner));
    }
    Ok(parts.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_core::{Value, WorkingMemory};
    use parulel_lang::compile;
    use parulel_match::{Matcher, Rete};

    /// `src`'s conflict set over the WM `setup` builds, in key order.
    fn insts(
        src: &str,
        setup: impl FnOnce(&Program, &mut WorkingMemory),
    ) -> (Program, Vec<Instantiation>) {
        let p = compile(src).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        setup(&p, &mut wm);
        let mut m = Rete::new(Arc::new(p.clone()));
        m.seed(&wm);
        let cs = m.conflict_set().sorted();
        (p, cs)
    }

    fn one_inst(
        src: &str,
        setup: impl FnOnce(&Program, &mut WorkingMemory),
    ) -> (Program, Vec<Instantiation>) {
        let (p, set) = insts(src, setup);
        assert_eq!(set.len(), 1, "expected exactly one instantiation");
        (p, set)
    }

    fn fire(
        p: &Program,
        set: &[Instantiation],
        collect_log: bool,
    ) -> Result<FiredSet, EngineError> {
        let opts = EngineOptions {
            collect_log,
            ..EngineOptions::default()
        };
        fire_set(p, set, 1, &opts)
    }

    fn insert(p: &Program, wm: &mut WorkingMemory, class: &str, v: i64) {
        let class = p.classes.id_of(p.interner.intern(class)).unwrap();
        wm.insert(class, vec![Value::Int(v)]);
    }

    #[test]
    fn make_remove_modify_bind_write_halt() {
        let (p, set) = one_inst(
            "(literalize n v)
             (literalize out v)
             (p r (n ^v <x>)
              -->
              (bind <y> (* <x> 10))
              (make out ^v <y>)
              (modify 1 ^v (+ <x> 1))
              (write result <y>)
              (halt))",
            |p, wm| insert(p, wm, "n", 4),
        );
        let r = fire(&p, &set, true).unwrap();
        assert!(r.halt);
        assert_eq!(r.log, vec!["result 40"]);
        // modify = remove + make; plus the explicit make
        assert_eq!(r.delta.removes.len(), 1);
        assert_eq!(r.delta.adds.len(), 2);
        let out_add = &r.delta.adds[0];
        assert_eq!(out_add.1[0], Value::Int(40));
        let modified = &r.delta.adds[1];
        assert_eq!(modified.1[0], Value::Int(5));
        assert_eq!(r.changes, vec![3]);
        assert!(r.rhs_times.is_empty(), "untimed without per-rule metrics");
    }

    #[test]
    fn rhs_eval_error_is_reported_with_rule_name() {
        // (RHS, collect_log, the rule the error names). A `write`
        // argument fails only when the log is collected, and is
        // attributed to `<write>`; a `bind` failure names the rule.
        let cases = [
            ("(make n ^v (// <x> 0))", false, "crash"),
            ("(bind <y> (// <x> 0)) (make n ^v <y>)", true, "crash"),
            ("(write (// <x> 0)) (make n ^v <x>)", true, "<write>"),
        ];
        for (rhs, collect_log, want) in cases {
            let src = format!("(literalize n v) (p crash (n ^v <x>) --> {rhs})");
            let (p, set) = one_inst(&src, |p, wm| insert(p, wm, "n", 1));
            match fire(&p, &set, collect_log).unwrap_err() {
                EngineError::RhsEval { rule, error } => {
                    assert_eq!(rule, want, "{rhs}");
                    assert_eq!(error, EvalError::DivideByZero, "{rhs}");
                }
                other => panic!("wrong variant for {rhs}: {other:?}"),
            }
            if rhs.starts_with("(write") {
                // Logging off: the write argument never evaluates.
                let quiet = fire(&p, &set, false).unwrap();
                assert_eq!(quiet.delta.adds.len(), 1);
                assert!(quiet.log.is_empty());
            }
        }

        // Two failing firings in one set: the lower-keyed instantiation
        // is named, not the alphabetically first rule.
        let (p, set) = insts(
            "(literalize n v)
             (p zeta (n ^v <x>) --> (make n ^v (// <x> 0)))
             (p alpha (n ^v <x>) --> (make n ^v (// <x> 0)))",
            |p, wm| insert(p, wm, "n", 1),
        );
        assert_eq!(set.len(), 2);
        for (from, want) in [(0, "zeta"), (1, "alpha")] {
            match fire(&p, &set[from..], false).unwrap_err() {
                EngineError::RhsEval { rule, .. } => assert_eq!(rule, want),
                other => panic!("wrong variant: {other:?}"),
            }
        }
    }

    #[test]
    fn isolate_catches_panics_and_names_the_rule() {
        let ok = isolate(|| unreachable!(), || Ok(()));
        assert!(ok.is_ok(), "no panic, no name resolution");

        let err =
            isolate::<(), _, _>(|| "boom".to_string(), || panic!("kaboom {}", 7)).unwrap_err();
        match err {
            EngineError::RhsPanic { rule, payload } => {
                assert_eq!(rule, "boom");
                assert!(payload.contains("kaboom 7"), "{payload}");
            }
            other => panic!("wrong variant: {other:?}"),
        }

        // &'static str payloads render too.
        let err = isolate::<(), _, _>(|| "b".to_string(), || panic!("static")).unwrap_err();
        assert!(err.to_string().contains("static"));
    }

    #[test]
    fn merge_dedupes_removes_and_keeps_add_order() {
        // Both firings retract the same `m`: the set's delta retracts it
        // once, while adds and log lines keep instantiation order.
        let (p, set) = insts(
            "(literalize n v)
             (literalize m v)
             (literalize out v)
             (p r (n ^v <x>) (m ^v <y>) --> (remove 2) (make out ^v <x>) (write <x>))",
            |p, wm| {
                insert(p, wm, "n", 1);
                insert(p, wm, "n", 2);
                insert(p, wm, "m", 0);
            },
        );
        assert_eq!(set.len(), 2);
        let r = fire(&p, &set, true).unwrap();
        assert_eq!(r.delta.removes.len(), 1);
        assert_eq!(r.delta.adds.len(), 2);
        assert_eq!(r.delta.adds[0].1[0], Value::Int(1));
        assert_eq!(r.delta.adds[1].1[0], Value::Int(2));
        assert_eq!(r.changes, vec![2, 2], "counted before deduplication");
        assert_eq!(r.log, vec!["1", "2"]);
        assert!(!r.halt);
    }

    #[test]
    fn write_renders_symbols_via_interner() {
        let (p, set) = one_inst(
            "(literalize n v)
             (p r (n ^v <x>) --> (write the answer is <x>))",
            |p, wm| insert(p, wm, "n", 42),
        );
        let r = fire(&p, &set, true).unwrap();
        assert_eq!(r.log, vec!["the answer is 42"]);
        // log collection off ⇒ no allocation
        let r = fire(&p, &set, false).unwrap();
        assert!(r.log.is_empty());
    }
}
