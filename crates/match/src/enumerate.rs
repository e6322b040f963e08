//! Shared combination enumeration: the non-state-saving core used by the
//! naive matcher (over the whole working memory) and by TREAT (over its
//! alpha memories, seeded at one CE position).

use parulel_core::{Instantiation, Polarity, Rule, Value, Wme};

/// Enumerates every instantiation of `rule`, depth-first over its CEs in
/// join order.
///
/// * `candidates(ce_idx)` supplies candidate WMEs for the CE at `ce_idx`
///   (any superset of the alpha-passing set is fine; alpha and beta tests
///   are re-checked here).
/// * `fixed` optionally pins one CE position to a single WME — TREAT uses
///   this to enumerate only the matches that involve a newly added WME.
/// * Matches are pushed to `out`.
pub fn enumerate_rule(
    rule: &Rule,
    candidates: &dyn Fn(usize) -> Vec<Wme>,
    fixed: Option<(usize, &Wme)>,
    out: &mut Vec<Instantiation>,
) {
    let mut env = vec![Value::NIL; rule.num_vars as usize];
    let mut wmes: Vec<Wme> = Vec::with_capacity(rule.num_positive());
    dfs(rule, candidates, fixed, 0, &mut env, &mut wmes, out);
}

fn dfs(
    rule: &Rule,
    candidates: &dyn Fn(usize) -> Vec<Wme>,
    fixed: Option<(usize, &Wme)>,
    ce_idx: usize,
    env: &mut Vec<Value>,
    wmes: &mut Vec<Wme>,
    out: &mut Vec<Instantiation>,
) {
    if ce_idx == rule.ces.len() {
        out.push(Instantiation::new(rule.id, wmes.clone(), env.clone()));
        return;
    }
    let ce = &rule.ces[ce_idx];
    match ce.polarity {
        Polarity::Positive => {
            let cands: Vec<Wme> = match fixed {
                Some((fi, w)) if fi == ce_idx => vec![(*w).clone()],
                _ => candidates(ce_idx),
            };
            for w in cands {
                let saved = env.clone();
                if ce.matches(&w, env) && rule.tests_pass_at(ce_idx, env) {
                    wmes.push(w);
                    dfs(rule, candidates, fixed, ce_idx + 1, env, wmes, out);
                    wmes.pop();
                }
                *env = saved;
            }
        }
        Polarity::Negative => {
            let blocked = candidates(ce_idx).into_iter().any(|w| {
                let mut scratch = env.clone();
                ce.matches(&w, &mut scratch)
            });
            if !blocked && rule.tests_pass_at(ce_idx, env) {
                dfs(rule, candidates, fixed, ce_idx + 1, env, wmes, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_core::{ClassId, Value, WmeId};
    use parulel_lang::compile;

    fn wme(class: u32, id: u64, fields: Vec<Value>) -> Wme {
        Wme::new(WmeId(id), ClassId(class), fields)
    }

    #[test]
    fn joins_with_variable_consistency() {
        let p = compile(
            "(literalize edge from to)
             (p two-hop (edge ^from <a> ^to <b>) (edge ^from <b> ^to <c>) --> (halt))",
        )
        .unwrap();
        let i = &p.interner;
        let (x, y, z) = (i.intern("x"), i.intern("y"), i.intern("z"));
        let wmes = vec![
            wme(0, 1, vec![Value::Sym(x), Value::Sym(y)]),
            wme(0, 2, vec![Value::Sym(y), Value::Sym(z)]),
            wme(0, 3, vec![Value::Sym(z), Value::Sym(x)]),
        ];
        let mut out = Vec::new();
        enumerate_rule(&p.rules()[0], &|_| wmes.clone(), None, &mut out);
        // x->y->z, y->z->x, z->x->y
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn fixed_position_restricts_enumeration() {
        let p = compile(
            "(literalize edge from to)
             (p two-hop (edge ^from <a> ^to <b>) (edge ^from <b> ^to <c>) --> (halt))",
        )
        .unwrap();
        let i = &p.interner;
        let (x, y, z) = (i.intern("x"), i.intern("y"), i.intern("z"));
        let wmes = vec![
            wme(0, 1, vec![Value::Sym(x), Value::Sym(y)]),
            wme(0, 2, vec![Value::Sym(y), Value::Sym(z)]),
        ];
        let fresh = wme(0, 3, vec![Value::Sym(z), Value::Sym(x)]);
        let mut all = wmes.clone();
        all.push(fresh.clone());
        let mut out = Vec::new();
        // only matches with the fresh wme in position 0
        enumerate_rule(&p.rules()[0], &|_| all.clone(), Some((0, &fresh)), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].wmes[0].id, WmeId(3));
    }

    #[test]
    fn negative_ce_blocks() {
        let p = compile(
            "(literalize task id)
             (literalize lock id)
             (p free (task ^id <t>) -(lock ^id <t>) --> (halt))",
        )
        .unwrap();
        let rule = &p.rules()[0];
        let t1 = wme(0, 1, vec![Value::Int(1)]);
        let t2 = wme(0, 2, vec![Value::Int(2)]);
        let lock1 = wme(1, 3, vec![Value::Int(1)]);
        let tasks = vec![t1, t2];
        let locks = vec![lock1];
        let mut out = Vec::new();
        enumerate_rule(
            rule,
            &|ce| {
                if ce == 0 {
                    tasks.clone()
                } else {
                    locks.clone()
                }
            },
            None,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].wmes[0].id, WmeId(2));
    }

    #[test]
    fn anchored_tests_prune() {
        let p = compile(
            "(literalize n v)
             (p big (n ^v <a>) (test (> <a> 5)) (n ^v <b>) (test (< <b> <a>)) --> (halt))",
        )
        .unwrap();
        let wmes = vec![
            wme(0, 1, vec![Value::Int(3)]),
            wme(0, 2, vec![Value::Int(7)]),
            wme(0, 3, vec![Value::Int(9)]),
        ];
        let mut out = Vec::new();
        enumerate_rule(&p.rules()[0], &|_| wmes.clone(), None, &mut out);
        // <a> ∈ {7, 9}; <b> < <a>: (7,3), (9,3), (9,7)
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn same_wme_may_fill_two_ces() {
        let p = compile(
            "(literalize n v)
             (p pair (n ^v <a>) (n ^v <a>) --> (halt))",
        )
        .unwrap();
        let wmes = vec![wme(0, 1, vec![Value::Int(3)])];
        let mut out = Vec::new();
        enumerate_rule(&p.rules()[0], &|_| wmes.clone(), None, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].wmes.len(), 2);
        assert_eq!(out[0].wmes[0].id, out[0].wmes[1].id);
    }
}
