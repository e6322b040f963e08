//! The shared join kernel: the non-state-saving enumeration used by the
//! naive matcher (over its mirror of working memory) and by TREAT (over
//! the shared alpha network's indexes, optionally pinned at one CE).
//!
//! The walk holds candidate WMEs by reference and keeps one binding env
//! for the whole search: a positive CE's variables are bound in CE order
//! and read only after their bind, so a slot a failed candidate wrote is
//! always overwritten before anything reads it. Negative CEs test their
//! blockers in a scratch copy, so their local bindings never reach an
//! instantiation.

use parulel_core::{Instantiation, Polarity, Rule, Value, Wme};

/// Supplies candidate WMEs for CE `ce_idx` given the env bound by the CEs
/// before it. Any superset of the matching WMEs is fine: alpha, beta and
/// anchored tests are re-checked by the walk.
pub type Candidates<'c, 'w> = dyn Fn(usize, &[Value], &mut Vec<&'w Wme>) + 'c;

/// Enumerates every instantiation of `rule`, depth-first over its CEs in
/// join order, pushing them to `out`. `pinned` optionally fixes one
/// positive CE to a single WME: TREAT enumerates only the matches that
/// involve a newly added WME this way.
pub fn enumerate_rule<'w>(
    rule: &Rule,
    candidates: &Candidates<'_, 'w>,
    pinned: Option<(usize, &'w Wme)>,
    out: &mut Vec<Instantiation>,
) {
    let mut walk = Walk {
        rule,
        candidates,
        pinned,
        env: vec![Value::NIL; rule.num_vars as usize],
        scratch: Vec::new(),
        wmes: Vec::with_capacity(rule.num_positive()),
        bufs: vec![Vec::new(); rule.ces.len()],
        out,
    };
    walk.dfs(0);
}

struct Walk<'a, 'w> {
    rule: &'a Rule,
    candidates: &'a Candidates<'a, 'w>,
    pinned: Option<(usize, &'w Wme)>,
    env: Vec<Value>,
    /// Blocker-test env for negative CEs.
    scratch: Vec<Value>,
    wmes: Vec<&'w Wme>,
    /// One reusable candidate buffer per CE level.
    bufs: Vec<Vec<&'w Wme>>,
    out: &'a mut Vec<Instantiation>,
}

impl Walk<'_, '_> {
    fn dfs(&mut self, k: usize) {
        let rule = self.rule;
        if k == rule.ces.len() {
            let wmes: Vec<Wme> = self.wmes.iter().map(|&w| w.clone()).collect();
            self.out
                .push(Instantiation::new(rule.id, wmes, &self.env[..]));
            return;
        }
        let ce = &rule.ces[k];
        let mut cands = std::mem::take(&mut self.bufs[k]);
        match self.pinned {
            Some((p, w)) if p == k => cands.push(w),
            _ => (self.candidates)(k, &self.env, &mut cands),
        }
        match ce.polarity {
            Polarity::Positive => {
                for &w in &cands {
                    if ce.matches(w, &mut self.env) && rule.tests_pass_at(k, &self.env) {
                        self.wmes.push(w);
                        self.dfs(k + 1);
                        self.wmes.pop();
                    }
                }
            }
            Polarity::Negative => {
                self.scratch.clone_from(&self.env);
                let blocked = cands.iter().any(|w| ce.matches(w, &mut self.scratch));
                if !blocked && rule.tests_pass_at(k, &self.env) {
                    self.dfs(k + 1);
                }
            }
        }
        cands.clear();
        self.bufs[k] = cands;
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

    /// Every CE draws from all of `wmes`.
    fn all<'w>(wmes: &'w [Wme]) -> impl Fn(usize, &[Value], &mut Vec<&'w Wme>) + 'w {
        move |_, _, out| out.extend(wmes)
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
        enumerate_rule(&p.rules()[0], &all(&wmes), None, &mut out);
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
        let mut all_wmes = wmes.clone();
        all_wmes.push(fresh.clone());
        let mut out = Vec::new();
        // only matches with the fresh wme in position 0
        enumerate_rule(&p.rules()[0], &all(&all_wmes), Some((0, &fresh)), &mut out);
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
            &|ce, _, out| out.extend(if ce == 0 { &tasks } else { &locks }),
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
        enumerate_rule(&p.rules()[0], &all(&wmes), None, &mut out);
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
        enumerate_rule(&p.rules()[0], &all(&wmes), None, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].wmes.len(), 2);
        assert_eq!(out[0].wmes[0].id, out[0].wmes[1].id);
    }
}
