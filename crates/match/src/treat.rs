//! The TREAT matcher (Miranker 1987): alpha memories only, no beta state.
//!
//! TREAT keeps no join state beyond the conflict set itself; its alpha
//! memories live in the crate-wide shared [`AlphaNetwork`], one
//! subscription per (rule, CE). Every join runs through the shared
//! by-reference kernel in [`crate::enumerate`], which reads candidate
//! WMEs straight out of the network's hash indexes:
//!
//! * **Indexed probes** — at subscribe time each CE subscribes an index
//!   on its equality keys over variables bound by earlier CEs (the slots
//!   a RETE level indexes), and the walk probes that bucket with the
//!   bound values instead of scanning the node.
//! * **Pinned key plans** — when a new WME is pinned at positive CE *p*,
//!   every CE *j* < *p* is probed through a second index: its env keys
//!   plus each slot sharing an equality variable with a slot of CE *p*,
//!   keyed by the pinned WME's field. In the market workload a new `sell`
//!   pinned at CE 1 probes the `buy` index on `sym` rather than scanning
//!   every buy. Keys go through
//!   `Value::join_key` on both sides, so `3` and `3.0` still meet.
//!
//! An index bucket is only a superset filter: alpha, beta and anchored
//! tests all re-run in CE order, so the instantiations are exactly the
//! naive oracle's.
//!
//! * **Add** — the shared network routes the WME through its class
//!   bucket, running each *distinct* constant-test list once, and returns
//!   the nodes it entered; the subscribing (rule, CE) endpoints are read
//!   off those nodes. For each positive CE position hit, the rule is
//!   enumerated with that position pinned to the new WME (so only matches
//!   involving it are computed). If a *negative* CE's node was entered,
//!   existing instantiations of that rule consistent with the new blocker
//!   are deleted. Rules whose CEs the WME cannot satisfy are never
//!   touched.
//! * **Remove** — one network removal evicts the WME from every node and
//!   index it was in; every conflict-set entry that positively matched it
//!   is deleted (an O(conflict set) sweep, which is exactly TREAT's bet:
//!   conflict sets are small). If it left a negative CE's node, the rule
//!   is re-enumerated (some matches it was blocking may now exist).
//! * **Reload** — [`Matcher::replace_rules`] drops every node and index
//!   subscription a removed rule took; `check_invariants` asserts each
//!   rule's indexes exist on its nodes.
//!
//! Compared to RETE, TREAT trades join *recomputation* on adds for zero
//! beta-memory maintenance — historically a good trade for remove-heavy
//! OPS5 programs. Figure 2 of the reproduction measures this trade.

use crate::alpha::{AlphaNetwork, NodeId};
use crate::enumerate::enumerate_rule;
use crate::Matcher;
use parulel_core::{
    ConflictSet, CsEvent, FieldCheck, FieldTest, FxHashMap, InstKey, Instantiation, Polarity,
    PredOp, Program, Rule, RuleId, Value, VarId, Wme, WorkingMemory,
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
    fn new(keys: Vec<(u16, KeySrc)>) -> Self {
        let (slots, keys): (Vec<u16>, Vec<KeySrc>) = keys.into_iter().unzip();
        Probe {
            slots: slots.into(),
            keys,
        }
    }

    /// CE `j`'s equality keys over variables bound by earlier CEs (the
    /// slots a RETE level indexes).
    fn env_keys(rule: &Rule, j: usize) -> Vec<(u16, KeySrc)> {
        let keys = rule.ces[j].eq_join_keys(rule.vars_bound_by(j));
        keys.into_iter().map(|(s, v)| (s, KeySrc::Env(v))).collect()
    }

    /// CE `j`'s probe while CE `p > j` is pinned: its env keys, plus every
    /// slot that shares an equality variable with a slot of CE `p`, keyed
    /// by the pinned WME's field there. Every match through the pinned WME
    /// agrees with it on those slots, so the bucket is still a superset.
    fn pinned(rule: &Rule, j: usize, p: usize) -> Self {
        let eq_var = |t: &FieldTest| match t.check {
            FieldCheck::Bind(v) | FieldCheck::Var(PredOp::Eq, v) => Some(v),
            _ => None,
        };
        let ce = &rule.ces[j];
        let mut keys = Probe::env_keys(rule, j);
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
        Probe::new(keys)
    }
}

/// One rule's subscriptions into the shared network.
struct RuleSubs {
    rule: RuleId,
    /// One node handle per CE, in join order. Distinct rules (or distinct
    /// CEs of one rule) with the same (class, constant-test) key hold the
    /// same handle.
    nodes: Vec<NodeId>,
    /// `probes[j]`: CE `j`'s probe when nothing after it is pinned.
    probes: Vec<Probe>,
    /// `pinned[p][j]` (positive `p`, `j < p`): CE `j`'s probe while CE `p`
    /// holds the pinned WME — its pinned key plan.
    pinned: Vec<Vec<Probe>>,
}

impl RuleSubs {
    /// Subscribes every CE of `rule` and every index its probes read.
    fn subscribe(alpha: &mut AlphaNetwork, rule: &Rule) -> Self {
        let n = rule.ces.len();
        let subs = RuleSubs {
            rule: rule.id,
            nodes: (rule.ces.iter().enumerate())
                .map(|(ci, ce)| alpha.subscribe(ce, rule.id, ci))
                .collect(),
            probes: (0..n)
                .map(|j| Probe::new(Probe::env_keys(rule, j)))
                .collect(),
            pinned: (0..n)
                .map(|p| match rule.ces[p].polarity {
                    Polarity::Positive => (0..p).map(|j| Probe::pinned(rule, j, p)).collect(),
                    Polarity::Negative => Vec::new(),
                })
                .collect(),
        };
        for (node, slots) in subs.indexes() {
            alpha.subscribe_index(node, slots);
        }
        subs
    }

    /// Drops every index and node subscription [`subscribe`](Self::subscribe)
    /// took.
    fn unsubscribe(self, alpha: &mut AlphaNetwork) {
        for (node, slots) in self.indexes() {
            alpha.unsubscribe_index(node, slots);
        }
        for (ci, &node) in self.nodes.iter().enumerate() {
            alpha.unsubscribe(node, self.rule, ci);
        }
    }

    /// Every (node, slot list) index this rule's probes read, once per
    /// probe (index subscriptions are refcounted).
    fn indexes(&self) -> impl Iterator<Item = (NodeId, &[u16])> {
        let plans = self.pinned.iter().flat_map(|plan| plan.iter().enumerate());
        (self.probes.iter().enumerate())
            .chain(plans)
            .map(|(j, probe)| (self.nodes[j], &*probe.slots))
    }

    /// Appends CE `ce`'s index bucket under `env` (and the pinned WME, if
    /// one sits after it) to `out`.
    fn candidates<'w>(
        &self,
        alpha: &'w AlphaNetwork,
        ce: usize,
        env: &[Value],
        pin: Option<(usize, &Wme)>,
        out: &mut Vec<&'w Wme>,
    ) {
        let probe = match pin {
            Some((p, _)) if ce < p => &self.pinned[p][ce],
            _ => &self.probes[ce],
        };
        let kv: Vec<Value> = probe
            .keys
            .iter()
            .map(|&src| match src {
                KeySrc::Env(v) => env[v.index()].join_key(),
                KeySrc::Pinned(s) => pin
                    .expect("pinned key without a pin")
                    .1
                    .field(s as usize)
                    .join_key(),
            })
            .collect();
        if let Some(bucket) = alpha.index_bucket(self.nodes[ce], &probe.slots, &kv) {
            out.extend(bucket.iter().map(|&r| alpha.wme(r)));
        }
    }

    /// Enumerates the rule's instantiations through its indexes, only
    /// those using `pin`'s WME at its CE if given.
    fn enumerate(
        &self,
        program: &Program,
        alpha: &AlphaNetwork,
        pin: Option<(usize, &Wme)>,
        out: &mut Vec<Instantiation>,
    ) {
        enumerate_rule(
            program.rule(self.rule),
            &|ce, env, cands| self.candidates(alpha, ce, env, pin, cands),
            pin,
            out,
        );
    }
}

/// The TREAT matcher.
pub struct Treat {
    program: Arc<Program>,
    rules: Vec<RuleSubs>,
    alpha: AlphaNetwork,
    cs: ConflictSet,
    /// Lifetime count of full per-rule re-enumerations (the remove-side
    /// cost TREAT pays when a negative blocker disappears).
    reenumerations: u64,
}

impl Treat {
    /// A TREAT matcher over every rule of `program`.
    pub fn new(program: Arc<Program>) -> Self {
        let rules = (0..program.rules().len() as u32).map(RuleId).collect();
        Self::with_rules(program, rules)
    }

    /// A TREAT matcher over a subset of `program`'s rules.
    pub fn with_rules(program: Arc<Program>, rules: Vec<RuleId>) -> Self {
        let mut alpha = AlphaNetwork::new(program.classes.len());
        let subs = rules
            .into_iter()
            .map(|rid| RuleSubs::subscribe(&mut alpha, program.rule(rid)))
            .collect();
        Treat {
            program,
            rules: subs,
            alpha,
            cs: ConflictSet::new(),
            reenumerations: 0,
        }
    }

    /// Re-derives every instantiation of one rule from its alpha nodes
    /// (used after a negative blocker disappears).
    fn reenumerate_rule(&mut self, rule_idx: usize) {
        self.reenumerations += 1;
        let ra = &self.rules[rule_idx];
        // Drop existing entries for this rule…
        let stale: Vec<InstKey> = self
            .cs
            .iter()
            .filter(|i| i.rule == ra.rule)
            .map(|i| i.key())
            .collect();
        for k in stale {
            self.cs.remove(&k);
        }
        // …and rebuild from scratch.
        let mut found = Vec::new();
        ra.enumerate(&self.program, &self.alpha, None, &mut found);
        for inst in found {
            self.cs.insert(inst);
        }
    }
}

impl Treat {
    /// Verifies the shared layer and this matcher's subscriptions agree
    /// (called from tests and the debug-build differential twins).
    /// Panics with a description on violation.
    pub fn check_invariants(&self) {
        self.alpha.check_invariants();
        for ra in &self.rules {
            let rule = self.program.rule(ra.rule);
            assert_eq!(
                ra.nodes.len(),
                rule.ces.len(),
                "rule {}: one subscription per CE",
                ra.rule.0
            );
            for (ci, &node) in ra.nodes.iter().enumerate() {
                assert!(
                    self.alpha
                        .endpoints(node)
                        .contains(&crate::alpha::Endpoint {
                            rule: ra.rule,
                            ce: ci as u32
                        }),
                    "rule {} CE {ci}: endpoint missing from its node",
                    ra.rule.0
                );
            }
            for (node, slots) in ra.indexes() {
                assert!(
                    self.alpha.index_len(node, slots).is_some(),
                    "rule {}: index {slots:?} missing from its node",
                    ra.rule.0
                );
            }
        }
    }
}

impl Matcher for Treat {
    fn add_wme(&mut self, wme: &Wme) {
        // Phase 1: one pass through the shared network — each distinct
        // constant-test list runs once, membership lands in every node the
        // WME passes *before* any enumeration (so intra-rule self-joins
        // find it).
        let (_, entered) = self.alpha.add(wme);
        // Route node entries to (rule, CE) endpoints.
        let mut hits: FxHashMap<RuleId, (Vec<usize>, bool)> = FxHashMap::default();
        for &nid in &entered {
            for ep in self.alpha.endpoints(nid) {
                let ce = &self.program.rule(ep.rule).ces[ep.ce as usize];
                let entry = hits.entry(ep.rule).or_default();
                match ce.polarity {
                    Polarity::Positive => entry.0.push(ep.ce as usize),
                    Polarity::Negative => entry.1 = true,
                }
            }
        }
        // Phase 2: seeded enumeration + negative sweeps, in rule order.
        for ri in 0..self.rules.len() {
            let ra = &self.rules[ri];
            let Some((mut pos_hits, neg_hit)) = hits.remove(&ra.rule) else {
                continue;
            };
            pos_hits.sort_unstable();
            let rule = self.program.rule(ra.rule);
            let mut found = Vec::new();
            for &p in &pos_hits {
                ra.enumerate(&self.program, &self.alpha, Some((p, wme)), &mut found);
            }
            for inst in found {
                self.cs.insert(inst);
            }
            if neg_hit {
                // The new WME may block existing instantiations: an
                // instantiation dies if the blocker is consistent with its
                // bindings at some negative CE the WME alpha-passes.
                let victims: Vec<InstKey> = self
                    .cs
                    .iter()
                    .filter(|inst| inst.rule == ra.rule)
                    .filter(|inst| {
                        rule.ces.iter().any(|ce| {
                            ce.polarity == Polarity::Negative
                                && ce.passes_alpha(wme)
                                && ce.run_beta(wme, &mut inst.env.to_vec())
                        })
                    })
                    .map(|inst| inst.key())
                    .collect();
                for k in victims {
                    self.cs.remove(&k);
                }
            }
        }
    }

    fn remove_wme(&mut self, wme: &Wme) {
        let Some((_, left)) = self.alpha.remove(wme.id) else {
            return; // never added — no alpha or conflict-set state
        };
        // Rules whose negative CE lost a member may gain matches.
        let mut neg_rules: Vec<usize> = Vec::new();
        for (ri, ra) in self.rules.iter().enumerate() {
            let rule = self.program.rule(ra.rule);
            let left_neg = ra.nodes.iter().enumerate().any(|(ci, node)| {
                rule.ces[ci].polarity == Polarity::Negative && left.contains(node)
            });
            if left_neg {
                neg_rules.push(ri);
            }
        }
        self.cs.retract_wme(wme.id);
        for ri in neg_rules {
            self.reenumerate_rule(ri);
        }
    }

    fn conflict_set(&mut self) -> &ConflictSet {
        // Debug builds re-verify the network and every subscribed index
        // once per read (once per engine cycle).
        #[cfg(debug_assertions)]
        self.check_invariants();
        &self.cs
    }

    fn drain_cs_events(&mut self) -> Option<Vec<CsEvent>> {
        self.cs.drain_journal_or_enable()
    }

    fn metrics(&self) -> crate::MatcherMetrics {
        crate::MatcherMetrics {
            kind: "treat",
            rules: self.rules.len(),
            conflict_set: self.cs.len(),
            // Alpha accounting stays per subscription (a shared node
            // counts once per subscribing CE), so `alpha_wmes` and the
            // imbalance signal keep their pre-sharing values.
            alpha_wmes: self
                .rules
                .iter()
                .flat_map(|ra| &ra.nodes)
                .map(|&n| self.alpha.members(n).len())
                .sum(),
            alpha_nodes: self.alpha.node_count(),
            alpha_subscriptions: self.alpha.subscription_count(),
            alpha_share_hits: self.alpha.share_hits(),
            reenumerations: self.reenumerations,
            ..Default::default()
        }
    }

    fn replace_rules(
        &mut self,
        program: &Arc<Program>,
        remove: &[RuleId],
        add: &[RuleId],
        _wm: &WorkingMemory,
    ) -> bool {
        // Rule ids are stable across the transform, so swapping the
        // program under the untouched rules is sound: their definitions
        // are identical in the new program.
        self.program = program.clone();
        for &rid in remove {
            let mut i = 0;
            while i < self.rules.len() {
                if self.rules[i].rule != rid {
                    i += 1;
                    continue;
                }
                // Nodes still subscribed by other rules (a split rule's
                // unchanged CEs) survive with their membership intact.
                self.rules.remove(i).unsubscribe(&mut self.alpha);
            }
            let stale: Vec<InstKey> = self
                .cs
                .iter()
                .filter(|i| i.rule == rid)
                .map(|i| i.key())
                .collect();
            for k in stale {
                self.cs.remove(&k);
            }
        }
        for &rid in add {
            // subscribe() seeds fresh nodes and indexes from the shared
            // store; shared ones already hold their members — no WM replay
            // either way.
            let ra = RuleSubs::subscribe(&mut self.alpha, program.rule(rid));
            let mut found = Vec::new();
            ra.enumerate(program, &self.alpha, None, &mut found);
            for inst in found {
                self.cs.insert(inst);
            }
            self.rules.push(ra);
        }
        self.rules.sort_by_key(|ra| ra.rule);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_core::{Value, WorkingMemory};
    use parulel_lang::compile;

    fn prog(src: &str) -> Arc<Program> {
        Arc::new(compile(src).unwrap())
    }

    #[test]
    fn incremental_join() {
        let p = prog(
            "(literalize edge from to)
             (p hop (edge ^from <a> ^to <b>) (edge ^from <b> ^to <c>) --> (halt))",
        );
        let edge = p.classes.id_of(p.interner.intern("edge")).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let mut m = Treat::new(p.clone());
        let e1 = wm.insert(edge, vec![Value::Int(1), Value::Int(2)]);
        let e2 = wm.insert(edge, vec![Value::Int(2), Value::Int(3)]);
        m.add_wme(&e1);
        m.add_wme(&e2);
        assert_eq!(m.conflict_set().len(), 1);
        m.remove_wme(&e1);
        assert_eq!(m.conflict_set().len(), 0);
    }

    #[test]
    fn self_loop_joins_itself() {
        let p = prog(
            "(literalize edge from to)
             (p hop (edge ^from <a> ^to <b>) (edge ^from <b> ^to <c>) --> (halt))",
        );
        let edge = p.classes.id_of(p.interner.intern("edge")).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let mut m = Treat::new(p.clone());
        let e = wm.insert(edge, vec![Value::Int(5), Value::Int(5)]);
        m.add_wme(&e);
        assert_eq!(m.conflict_set().len(), 1, "5->5->5 via the same WME");
    }

    #[test]
    fn negative_blocker_add_and_remove() {
        let p = prog(
            "(literalize task id)
             (literalize lock id)
             (p free (task ^id <t>) -(lock ^id <t>) --> (halt))",
        );
        let task = p.classes.id_of(p.interner.intern("task")).unwrap();
        let lock = p.classes.id_of(p.interner.intern("lock")).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let mut m = Treat::new(p.clone());
        let t = wm.insert(task, vec![Value::Int(1)]);
        m.add_wme(&t);
        assert_eq!(m.conflict_set().len(), 1);
        let l = wm.insert(lock, vec![Value::Int(1)]);
        m.add_wme(&l);
        assert_eq!(m.conflict_set().len(), 0);
        m.remove_wme(&l);
        assert_eq!(m.conflict_set().len(), 1);
    }

    #[test]
    fn blocker_only_kills_consistent_matches() {
        let p = prog(
            "(literalize task id)
             (literalize lock id)
             (p free (task ^id <t>) -(lock ^id <t>) --> (halt))",
        );
        let task = p.classes.id_of(p.interner.intern("task")).unwrap();
        let lock = p.classes.id_of(p.interner.intern("lock")).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let mut m = Treat::new(p.clone());
        let t1 = wm.insert(task, vec![Value::Int(1)]);
        let t2 = wm.insert(task, vec![Value::Int(2)]);
        m.add_wme(&t1);
        m.add_wme(&t2);
        assert_eq!(m.conflict_set().len(), 2);
        let l = wm.insert(lock, vec![Value::Int(1)]);
        m.add_wme(&l);
        let cs = m.conflict_set();
        assert_eq!(cs.len(), 1);
        assert!(cs.iter().all(|i| i.wmes[0].id == t2.id));
    }

    #[test]
    fn split_and_unsplit_leaves_no_index_behind() {
        // `hop` is split in two by a hash constraint on CE 0 (residue 0
        // keeps its id, residue 1 is appended), then un-split. `walk`
        // shares `hop`'s second node and index, so leaked or doubly
        // dropped refcounts would show.
        let p = prog(
            "(literalize edge from to)
             (p hop (edge ^from <a> ^to <b>) (edge ^from <b> ^to <c>) --> (halt))
             (p walk (edge ^to <a>) (edge ^from <a> ^to <c>) --> (halt))",
        );
        let mut split = Program::new(p.interner.clone(), p.classes.clone());
        let copy = |residue| {
            let mut r = p.rules()[0].clone();
            r.name = p.interner.intern(&format!("hop~{residue}"));
            r.ces[0].tests.push(FieldTest {
                slot: 0,
                check: FieldCheck::HashMod {
                    divisor: 2,
                    residue,
                },
            });
            r
        };
        split.add_rule(copy(0)).unwrap();
        split.add_rule(p.rules()[1].clone()).unwrap();
        split.add_rule(copy(1)).unwrap();
        let split = Arc::new(split);

        let edge = p.classes.id_of(p.interner.intern("edge")).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let mut m = Treat::new(p.clone());
        for (a, b) in [(1, 2), (2, 3), (3, 1), (2, 2)] {
            m.add_wme(&wm.insert(edge, vec![Value::Int(a), Value::Int(b)]));
        }
        let before = m.alpha.index_census();
        let want = m.conflict_set().sorted_keys();

        let (hop, copy1) = (RuleId(0), RuleId(2));
        assert!(m.replace_rules(&split, &[hop], &[hop, copy1], &wm));
        m.check_invariants();
        assert_ne!(
            m.alpha.index_census(),
            before,
            "the split subscribes new nodes"
        );
        assert_eq!(m.conflict_set().len(), want.len());

        assert!(m.replace_rules(&p, &[hop, copy1], &[hop], &wm));
        m.check_invariants();
        assert_eq!(m.alpha.index_census(), before);
        assert_eq!(m.conflict_set().sorted_keys(), want);
    }

    #[test]
    fn shared_nodes_route_adds_without_full_rule_scan() {
        // Two rules sharing a constant test plus one rule that cannot
        // match the added class at all: sharing dedups the node, and the
        // conflict set agrees with the naive oracle.
        let src = "(literalize n v w)
             (literalize other x)
             (p r1 (n ^v 1 ^w <x>) (n ^v 1 ^w <y>) --> (halt))
             (p r2 (n ^v 1 ^w <x>) --> (halt))
             (p r3 (other ^x <z>) --> (halt))";
        let p = prog(src);
        let n = p.classes.id_of(p.interner.intern("n")).unwrap();
        let mut shared = Treat::new(p.clone());
        let mut oracle = crate::NaiveMatcher::new(p.clone());
        let mut wm = WorkingMemory::new(&p.classes);
        for v in [1, 1, 2] {
            let w = wm.insert(n, vec![Value::Int(v), Value::Int(0)]);
            shared.add_wme(&w);
            oracle.add_wme(&w);
        }
        assert_eq!(
            shared.conflict_set().sorted_keys(),
            oracle.conflict_set().sorted_keys()
        );
        let ms = shared.metrics();
        assert_eq!(ms.alpha_subscriptions, 4);
        assert_eq!(ms.alpha_nodes, 2, "r1's CEs and r2's CE collapse into one");
        assert!(ms.alpha_share_hits > 0);
        shared.check_invariants();
    }
}
