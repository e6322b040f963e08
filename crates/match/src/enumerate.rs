//! The join kernel: one rule's join plan and the one depth-first walk that
//! both presets of the incremental matcher and the naive oracle run.
//!
//! A `JoinPlan` is what a rule needs from the shared [`AlphaNetwork`]:
//! one node subscription per CE in join order, each CE's **env-key
//! probe** (its equality keys over variables bound by earlier CEs, the
//! slots whose shared hash index the walk reads) and, for re-walked
//! rules, the **pinned key plans** below. The `Walk` is the only code that
//! reads an index bucket and checks a CE against a candidate:
//!
//! * a positive CE binds its variables into the walk's one env and the
//!   rule tests anchored at it run; a slot a failed candidate wrote is
//!   always overwritten before anything reads it;
//! * a negative CE tests its blockers in a scratch copy of the env, so
//!   its local bindings never reach a token or an instantiation.
//!
//! The walk reports to a `Sink`. Enumeration (`Collect`) keeps only
//! complete matches; a saved (RETE) rule's sink files every level's
//! token in its beta memories and may prune a branch it already holds,
//! and it resumes walks at level *k* from a stored token (`Walk::load`).
//!
//! **Pinned key plans** — when a re-walked (TREAT) rule pins a new WME at
//! positive CE *p*, every CE *j* < *p* is probed through a second index:
//! its env keys plus each slot sharing an equality variable with a slot of
//! CE *p*, keyed by the pinned WME's field. An index bucket is only a
//! superset filter: every CE check re-runs, so the matches are exactly the
//! naive oracle's. Keys go through `Value::join_key` on both sides, so
//! `3` and `3.0` meet.

use crate::alpha::{AlphaNetwork, KeyVals, NodeId};
use crate::arena::WmeRef;
use parulel_core::{
    ConditionElement, FieldCheck, FieldTest, Instantiation, Polarity, PredOp, Rule, Value, VarId,
    Wme,
};
use std::sync::Arc;

/// Where one probe key value comes from.
#[derive(Clone, Copy)]
enum KeySrc {
    /// A variable bound by an earlier CE.
    Env(VarId),
    /// A field of the WME pinned at a later CE.
    Pinned(u16),
}

/// One CE's probe into its node: the slot list of the index it reads and
/// where each slot's key value comes from.
struct Probe {
    slots: Box<[u16]>,
    keys: Vec<KeySrc>,
}

impl Probe {
    /// CE `j`'s probe: its env keys and, while CE `p > j` is pinned, every
    /// slot that shares an equality variable with a slot of CE `p`, keyed
    /// by the pinned WME's field there. Every match through the pinned WME
    /// agrees with it on those slots, so the bucket is still a superset.
    fn new(rule: &Rule, j: usize, pinned: Option<usize>) -> Self {
        let eq_var = |t: &FieldTest| match t.check {
            FieldCheck::Bind(v) | FieldCheck::Var(PredOp::Eq, v) => Some(v),
            _ => None,
        };
        let ce = &rule.ces[j];
        let env = ce.eq_join_keys(rule.vars_bound_by(j));
        let mut keys: Vec<(u16, KeySrc)> =
            env.into_iter().map(|(s, v)| (s, KeySrc::Env(v))).collect();
        if let Some(p) = pinned {
            for t in &ce.tests {
                // A negative CE's binds are local to it: nothing later shares them.
                let shared = match t.check {
                    FieldCheck::Bind(_) if ce.polarity == Polarity::Negative => None,
                    _ => eq_var(t),
                };
                let Some(v) = shared else { continue };
                if keys.iter().any(|&(s, _)| s == t.slot) {
                    continue;
                }
                if let Some(pt) = rule.ces[p].tests.iter().find(|pt| eq_var(pt) == Some(v)) {
                    keys.push((t.slot, KeySrc::Pinned(pt.slot)));
                }
            }
        }
        let (slots, keys): (Vec<u16>, Vec<KeySrc>) = keys.into_iter().unzip();
        Probe {
            slots: slots.into(),
            keys,
        }
    }

    /// The bucket key under `env` and the pinned WME, if any.
    fn key(&self, env: &[Value], pin: Option<&Wme>) -> KeyVals {
        (self.keys.iter())
            .map(|&src| match src {
                KeySrc::Env(v) => env[v.index()].join_key(),
                KeySrc::Pinned(s) => pin
                    .expect("pinned key without a pin")
                    .field(s as usize)
                    .join_key(),
            })
            .collect()
    }
}

/// One rule's join plan: its subscriptions into the shared network and
/// the probe each CE reads.
pub(crate) struct JoinPlan {
    rule: Rule,
    /// One node handle per CE, in join order. Distinct rules (or distinct
    /// CEs of one rule) with the same (class, constant-test) key hold the
    /// same handle.
    nodes: Vec<NodeId>,
    /// `probes[j]`: CE `j`'s env-key probe.
    probes: Vec<Probe>,
    /// `pinned[p][j]` (positive `p`, `j < p`): CE `j`'s probe while CE `p`
    /// holds the pinned WME. Empty unless asked for.
    pinned: Vec<Vec<Probe>>,
}

impl JoinPlan {
    /// Subscribes every CE of `rule` and every index its probes read;
    /// `pin_plans` adds the pinned key plans re-walked adds use.
    pub(crate) fn subscribe(alpha: &mut AlphaNetwork, rule: &Rule, pin_plans: bool) -> Self {
        let n = rule.ces.len();
        let plan = JoinPlan {
            rule: rule.clone(),
            nodes: (rule.ces.iter().enumerate())
                .map(|(k, ce)| alpha.subscribe(ce, rule.id, k))
                .collect(),
            probes: (0..n).map(|j| Probe::new(rule, j, None)).collect(),
            pinned: (0..n)
                .map(|p| match rule.ces[p].polarity {
                    Polarity::Positive if pin_plans => {
                        (0..p).map(|j| Probe::new(rule, j, Some(p))).collect()
                    }
                    _ => Vec::new(),
                })
                .collect(),
        };
        for (node, slots) in plan.indexes() {
            alpha.subscribe_index(node, slots);
        }
        plan
    }

    /// Drops every index and node subscription [`subscribe`](Self::subscribe)
    /// took. Nodes still subscribed elsewhere keep their membership.
    pub(crate) fn unsubscribe(self, alpha: &mut AlphaNetwork) {
        for (node, slots) in self.indexes() {
            alpha.unsubscribe_index(node, slots);
        }
        for (k, &node) in self.nodes.iter().enumerate() {
            alpha.unsubscribe(node, self.rule.id, k);
        }
    }

    /// Every (node, slot list) index the probes read, once per probe
    /// (index subscriptions are refcounted).
    fn indexes(&self) -> impl Iterator<Item = (NodeId, &[u16])> {
        let plans = self.pinned.iter().flat_map(|plan| plan.iter().enumerate());
        (self.probes.iter().enumerate())
            .chain(plans)
            .map(|(j, probe)| (self.nodes[j], &*probe.slots))
    }

    /// The planned rule.
    pub(crate) fn rule(&self) -> &Rule {
        &self.rule
    }

    /// True iff CE `k` is negative.
    pub(crate) fn negative(&self, k: usize) -> bool {
        self.rule.ces[k].polarity == Polarity::Negative
    }

    /// WMEs held by the plan's nodes, counted once per subscribing CE.
    pub(crate) fn alpha_wmes(&self, alpha: &AlphaNetwork) -> usize {
        self.nodes.iter().map(|&n| alpha.members(n).len()).sum()
    }

    /// The bucket CE `k`'s env-key probe reads under `env` (a saved net
    /// files its input tokens under the same key).
    pub(crate) fn env_key(&self, k: usize, env: &[Value]) -> KeyVals {
        self.probes[k].key(env, None)
    }

    /// The bucket `wme` sits in under CE `k`'s env-key probe.
    pub(crate) fn wme_key(&self, k: usize, wme: &Wme) -> KeyVals {
        (self.probes[k].slots.iter())
            .map(|&s| wme.field(s as usize).join_key())
            .collect()
    }

    /// Does `wme`, a member of negative CE `k`'s node, block a token
    /// with bindings `env`? The CE's tests bind into `scratch`, a copy of
    /// `env` the caller reuses across checks.
    pub(crate) fn blocks(
        &self,
        k: usize,
        env: &[Value],
        wme: &Wme,
        scratch: &mut Vec<Value>,
    ) -> bool {
        scratch.clear();
        scratch.extend_from_slice(env);
        self.rule.ces[k].run_beta(wme, scratch)
    }

    /// Appends every instantiation of the rule to `out`, only those using
    /// the pinned WME at its CE if `pin` is given (a re-walked add).
    pub(crate) fn enumerate(
        &self,
        alpha: &AlphaNetwork,
        pin: Option<(usize, WmeRef)>,
        out: &mut Vec<Instantiation>,
    ) {
        let src = Indexed {
            plan: self,
            alpha,
            pin,
        };
        Walk::new(&self.rule, &src).enter(&mut Collect {
            rule: &self.rule,
            out,
        });
    }

    /// Panics unless every subscription and index the plan holds exists.
    pub(crate) fn check_invariants(&self, alpha: &AlphaNetwork) {
        let rule = self.rule.id.0;
        for (k, &node) in self.nodes.iter().enumerate() {
            let ep = crate::alpha::Endpoint {
                rule: self.rule.id,
                ce: k as u32,
            };
            assert!(
                alpha.endpoints(node).contains(&ep),
                "r{rule} CE {k}: endpoint missing from its node"
            );
        }
        for (node, slots) in self.indexes() {
            assert!(
                alpha.index_len(node, slots).is_some(),
                "r{rule}: index {slots:?} missing from its node"
            );
        }
    }
}

/// Where a walk's candidates come from. Any superset of a CE's matches
/// is fine: the walk re-checks every candidate.
pub(crate) trait Source<'w> {
    /// A candidate handle.
    type H: Copy;
    /// Checks candidate `w` against `ce` under `env`: its beta tests, and
    /// its class and constant tests unless the source already ran them.
    fn fits(ce: &ConditionElement, w: &Wme, env: &mut [Value]) -> bool {
        ce.matches(w, env)
    }
    /// The WME behind `h`.
    fn wme(&self, h: Self::H) -> &'w Wme;
    /// Appends CE `k`'s candidates under `env`.
    fn candidates(&self, k: usize, env: &[Value], out: &mut Vec<Self::H>);
}

/// A plan's index probes, optionally with one CE pinned to one WME.
pub(crate) struct Indexed<'a, 'w> {
    /// The plan whose probes are read.
    pub(crate) plan: &'a JoinPlan,
    /// The network holding the indexes.
    pub(crate) alpha: &'w AlphaNetwork,
    /// `(p, w)`: CE `p` draws only `w`, and CEs before it use their
    /// pinned key plans (which the plan must hold).
    pub(crate) pin: Option<(usize, WmeRef)>,
}

impl<'w> Source<'w> for Indexed<'_, 'w> {
    type H = WmeRef;

    /// Index buckets hold only alpha-node members.
    fn fits(ce: &ConditionElement, w: &Wme, env: &mut [Value]) -> bool {
        ce.run_beta(w, env)
    }

    fn wme(&self, h: WmeRef) -> &'w Wme {
        self.alpha.wme(h)
    }

    fn candidates(&self, k: usize, env: &[Value], out: &mut Vec<WmeRef>) {
        let (probe, pin) = match self.pin {
            Some((p, w)) if p == k => return out.push(w),
            Some((p, w)) if k < p => (&self.plan.pinned[p][k], Some(self.alpha.wme(w))),
            _ => (&self.plan.probes[k], None),
        };
        if let Some(bucket) =
            self.alpha
                .index_bucket(self.plan.nodes[k], &probe.slots, &probe.key(env, pin))
        {
            out.extend(bucket.iter().copied());
        }
    }
}

/// Supplies every WME that may fill CE `ce_idx` given the env bound by
/// the CEs before it (the naive oracle passes the CE's whole class).
pub type Candidates<'c, 'w> = dyn Fn(usize, &[Value], &mut Vec<&'w Wme>) + 'c;

/// A caller's candidate scan; the walk runs each CE's class and constant
/// tests on it.
struct Scan<'a, 'w>(&'a Candidates<'a, 'w>);

impl<'w> Source<'w> for Scan<'_, 'w> {
    type H = &'w Wme;

    fn wme(&self, h: &'w Wme) -> &'w Wme {
        h
    }

    fn candidates(&self, k: usize, env: &[Value], out: &mut Vec<&'w Wme>) {
        (self.0)(k, env, out);
    }
}

/// Enumerates every instantiation of `rule` over a caller's candidate
/// scan, pushing them to `out`.
pub fn enumerate_rule<'w>(
    rule: &Rule,
    candidates: &Candidates<'_, 'w>,
    out: &mut Vec<Instantiation>,
) {
    let src = Scan(candidates);
    Walk::new(rule, &src).enter(&mut Collect { rule, out });
}

/// What a walk reports. `H` is the walk's candidate handle.
pub(crate) trait Sink<H> {
    /// What the caller keeps per token (a saved net: its key).
    type Tok;
    /// Whether negative CEs report exact blocker counts; otherwise the
    /// count is 0 or 1 and stops at the first blocker.
    const COUNTS: bool = false;
    /// CEs `0..=k` matched, extending input token `parent`: `refs` and
    /// `wmes` hold the positive CEs' WMEs, `env` the bindings. Returns
    /// the new token, or `None` to prune the branch.
    fn token(
        &mut self,
        k: usize,
        parent: &Self::Tok,
        refs: &[H],
        wmes: &[&Wme],
        env: &[Value],
    ) -> Option<Self::Tok>;
    /// `tok` became an input of CE `k`.
    fn input(&mut self, _k: usize, _tok: &Self::Tok, _env: &[Value]) {}
    /// Negative CE `k` has `n` blockers for input `tok`.
    fn blockers(&mut self, _k: usize, _tok: &Self::Tok, _n: u32) {}
}

/// Keeps complete matches as instantiations.
pub(crate) struct Collect<'a> {
    rule: &'a Rule,
    out: &'a mut Vec<Instantiation>,
}

impl<H> Sink<H> for Collect<'_> {
    type Tok = ();

    fn token(&mut self, k: usize, _: &(), _: &[H], wmes: &[&Wme], env: &[Value]) -> Option<()> {
        if k + 1 == self.rule.ces.len() {
            let wmes: Arc<[Wme]> = wmes.iter().map(|&w| w.clone()).collect();
            self.out.push(Instantiation::new(self.rule.id, wmes, env));
        }
        Some(())
    }
}

/// One depth-first join walk over a rule, from the root or resumed at a
/// stored token.
pub(crate) struct Walk<'a, 'w, S: Source<'w>> {
    rule: &'a Rule,
    src: &'a S,
    env: Vec<Value>,
    /// Blocker-test env for negative CEs.
    scratch: Vec<Value>,
    /// The positive CEs' candidates so far, as handles and as WMEs.
    refs: Vec<S::H>,
    wmes: Vec<&'w Wme>,
    /// One reusable candidate buffer per CE level.
    bufs: Vec<Vec<S::H>>,
}

impl<'a, 'w, S: Source<'w>> Walk<'a, 'w, S> {
    /// A walk at the root: nothing matched, every variable unbound.
    pub(crate) fn new(rule: &'a Rule, src: &'a S) -> Self {
        Walk {
            rule,
            src,
            env: vec![Value::NIL; rule.num_vars as usize],
            scratch: Vec::new(),
            refs: Vec::with_capacity(rule.num_positive()),
            wmes: Vec::with_capacity(rule.num_positive()),
            bufs: vec![Vec::new(); rule.ces.len()],
        }
    }

    /// Resumes at a stored token: its positive WMEs and its bindings.
    pub(crate) fn load(&mut self, refs: &[S::H], env: &[Value]) {
        self.refs.clear();
        self.refs.extend_from_slice(refs);
        self.wmes.clear();
        self.wmes.extend(refs.iter().map(|&h| self.src.wme(h)));
        self.env.copy_from_slice(env);
    }

    /// Enumerates from the root token `K::Tok::default()`.
    pub(crate) fn enter<K: Sink<S::H>>(&mut self, sink: &mut K)
    where
        K::Tok: Default,
    {
        let root = K::Tok::default();
        sink.input(0, &root, &self.env);
        self.step(0, &root, sink);
    }

    /// Joins input token `tok` (the loaded prefix) with CE `k`'s
    /// candidates and descends through every token that results.
    pub(crate) fn step<K: Sink<S::H>>(&mut self, k: usize, tok: &K::Tok, sink: &mut K) {
        let (rule, ce) = (self.rule, &self.rule.ces[k]);
        let mut cands = std::mem::take(&mut self.bufs[k]);
        self.src.candidates(k, &self.env, &mut cands);
        match ce.polarity {
            Polarity::Positive => {
                for &h in &cands {
                    let w = self.src.wme(h);
                    if S::fits(ce, w, &mut self.env) && rule.tests_pass_at(k, &self.env) {
                        self.refs.push(h);
                        self.wmes.push(w);
                        if let Some(t) = sink.token(k, tok, &self.refs, &self.wmes, &self.env) {
                            self.descend(k, &t, sink);
                        }
                        self.refs.pop();
                        self.wmes.pop();
                    }
                }
            }
            Polarity::Negative => {
                self.scratch.clone_from(&self.env);
                let mut blockers =
                    (cands.iter()).filter(|&&h| S::fits(ce, self.src.wme(h), &mut self.scratch));
                let n = if K::COUNTS {
                    blockers.count()
                } else {
                    usize::from(blockers.next().is_some())
                };
                sink.blockers(k, tok, n as u32);
                if n == 0 {
                    self.pass(k, tok, sink);
                }
            }
        }
        cands.clear();
        self.bufs[k] = cands;
    }

    /// Passes input token `tok` through negative CE `k` (no blockers
    /// left) if the tests anchored there hold.
    pub(crate) fn pass<K: Sink<S::H>>(&mut self, k: usize, tok: &K::Tok, sink: &mut K) {
        if self.rule.tests_pass_at(k, &self.env) {
            if let Some(t) = sink.token(k, tok, &self.refs, &self.wmes, &self.env) {
                self.descend(k, &t, sink);
            }
        }
    }

    /// Hands token `tok` of CE `k` on as the next CE's input.
    fn descend<K: Sink<S::H>>(&mut self, k: usize, tok: &K::Tok, sink: &mut K) {
        if k + 1 < self.rule.ces.len() {
            sink.input(k + 1, tok, &self.env);
            self.step(k + 1, tok, sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_core::{ClassId, Value, WmeId};
    use parulel_lang::compile;

    impl JoinPlan {
        /// The node each CE subscribes to, in join order.
        pub(crate) fn nodes(&self) -> &[NodeId] {
            &self.nodes
        }
    }

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
        enumerate_rule(&p.rules()[0], &all(&wmes), &mut out);
        // x->y->z, y->z->x, z->x->y
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn pinned_plan_restricts_enumeration() {
        let p = compile(
            "(literalize edge from to)
             (p two-hop (edge ^from <a> ^to <b>) (edge ^from <b> ^to <c>) --> (halt))",
        )
        .unwrap();
        let i = &p.interner;
        let (x, y, z) = (i.intern("x"), i.intern("y"), i.intern("z"));
        let mut alpha = AlphaNetwork::new(p.classes.len());
        let plan = JoinPlan::subscribe(&mut alpha, &p.rules()[0], true);
        alpha.add(&wme(0, 1, vec![Value::Sym(x), Value::Sym(y)]));
        alpha.add(&wme(0, 2, vec![Value::Sym(y), Value::Sym(z)]));
        let (fresh, _) = alpha.add(&wme(0, 3, vec![Value::Sym(z), Value::Sym(x)]));
        let mut out = Vec::new();
        plan.enumerate(&alpha, None, &mut out);
        assert_eq!(out.len(), 3, "x->y->z, y->z->x, z->x->y");
        // Only the matches with the fresh WME at CE 0.
        out.clear();
        plan.enumerate(&alpha, Some((0, fresh)), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].wmes[0].id, WmeId(3));
        plan.check_invariants(&alpha);
        plan.unsubscribe(&mut alpha);
        assert_eq!(alpha.node_count(), 0, "every subscription released");
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
        enumerate_rule(&p.rules()[0], &all(&wmes), &mut out);
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
        enumerate_rule(&p.rules()[0], &all(&wmes), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].wmes.len(), 2);
        assert_eq!(out[0].wmes[0].id, out[0].wmes[1].id);
    }
}
