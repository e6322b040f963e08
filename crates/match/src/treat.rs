//! The TREAT matcher (Miranker 1987): alpha memories only, no beta state.
//!
//! TREAT keeps no join state beyond the conflict set itself; its alpha
//! memories live in the crate-wide shared [`AlphaNetwork`]. Each rule is
//! a `JoinPlan` with pinned key plans, and every join is one run of the
//! kernel walk in [`crate::enumerate`] (the walk RETE and the naive
//! oracle run too), reading candidates straight out of the network's
//! hash indexes. In the market workload a new `sell` pinned at CE 1
//! probes the `buy` index on `sym` rather than scanning every buy.
//!
//! * **Add** — the shared network routes the WME through its class
//!   bucket, running each *distinct* constant-test list once, and returns
//!   the nodes it entered; the subscribing (rule, CE) endpoints are read
//!   off those nodes. For each positive CE position hit, the rule is
//!   enumerated with that position pinned to the new WME (so only matches
//!   involving it are computed). If a *negative* CE's node was entered,
//!   existing instantiations of that rule the new WME blocks there are
//!   deleted. Rules whose CEs the WME cannot satisfy are never touched.
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

use crate::alpha::AlphaNetwork;
use crate::enumerate::JoinPlan;
use crate::Matcher;
use parulel_core::{
    ConflictSet, CsEvent, FxHashMap, InstKey, Instantiation, Program, RuleId, Wme, WorkingMemory,
};
use std::sync::Arc;

/// The TREAT matcher.
pub struct Treat {
    rules: Vec<JoinPlan>,
    alpha: AlphaNetwork,
    cs: ConflictSet,
    /// Lifetime count of full per-rule re-enumerations (the remove-side
    /// cost TREAT pays when a negative blocker disappears).
    reenumerations: u64,
}

/// Inserts every instantiation of `plan`'s rule into `cs`.
fn seed_rule(plan: &JoinPlan, alpha: &AlphaNetwork, cs: &mut ConflictSet) {
    let mut found: Vec<Instantiation> = Vec::new();
    plan.enumerate(alpha, None, &mut found);
    for inst in found {
        cs.insert(inst);
    }
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
        let plans = (rules.into_iter())
            .map(|rid| JoinPlan::subscribe(&mut alpha, program.rule(rid), true))
            .collect();
        Treat {
            rules: plans,
            alpha,
            cs: ConflictSet::new(),
            reenumerations: 0,
        }
    }

    /// Verifies the shared layer and this matcher's subscriptions agree
    /// (called from tests and the debug-build differential twins).
    /// Panics with a description on violation.
    pub fn check_invariants(&self) {
        self.alpha.check_invariants();
        for plan in &self.rules {
            plan.check_invariants(&self.alpha);
        }
    }
}

impl Matcher for Treat {
    fn add_wme(&mut self, wme: &Wme) {
        // Phase 1: one pass through the shared network — each distinct
        // constant-test list runs once, membership lands in every node the
        // WME passes *before* any enumeration (so intra-rule self-joins
        // find it).
        let (wref, entered) = self.alpha.add(wme);
        // Route node entries to (rule, CE) endpoints.
        let mut hits: FxHashMap<RuleId, Vec<usize>> = FxHashMap::default();
        for &nid in &entered {
            for ep in self.alpha.endpoints(nid) {
                hits.entry(ep.rule).or_default().push(ep.ce as usize);
            }
        }
        // Phase 2: seeded enumeration + negative sweeps, in rule order.
        for plan in &self.rules {
            let Some(mut ces) = hits.remove(&plan.rule().id) else {
                continue;
            };
            ces.sort_unstable();
            let mut found = Vec::new();
            for &p in ces.iter().filter(|&&p| !plan.negative(p)) {
                plan.enumerate(&self.alpha, Some((p, wref)), &mut found);
            }
            for inst in found {
                self.cs.insert(inst);
            }
            // The new WME may block existing instantiations: one dies if
            // the blocker is consistent with its bindings at a negative CE
            // whose node the WME entered.
            let blocks = |env| {
                ces.iter()
                    .any(|&k| plan.negative(k) && plan.blocks(k, env, wme))
            };
            if ces.iter().any(|&k| plan.negative(k)) {
                let victims: Vec<InstKey> = (self.cs.iter())
                    .filter(|i| i.rule == plan.rule().id && blocks(&i.env))
                    .map(|i| i.key())
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
        self.cs.retract_wme(wme.id);
        // Rules whose negative CE lost a member may gain matches: drop
        // their entries and re-derive them from scratch.
        for plan in &self.rules {
            let mut nodes = plan.nodes().iter().enumerate();
            if nodes.any(|(k, n)| plan.negative(k) && left.contains(n)) {
                self.reenumerations += 1;
                self.cs.retract_rule(plan.rule().id);
                seed_rule(plan, &self.alpha, &mut self.cs);
            }
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
            alpha_wmes: self.rules.iter().map(|p| p.alpha_wmes(&self.alpha)).sum(),
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
        for &rid in remove {
            // Nodes still subscribed by other rules (a split rule's
            // unchanged CEs) survive with their membership intact.
            for plan in self.rules.extract_if(.., |p| p.rule().id == rid) {
                plan.unsubscribe(&mut self.alpha);
            }
            self.cs.retract_rule(rid);
        }
        for &rid in add {
            // subscribe() seeds fresh nodes and indexes from the shared
            // store; shared ones already hold their members — no WM replay
            // either way.
            let plan = JoinPlan::subscribe(&mut self.alpha, program.rule(rid), true);
            seed_rule(&plan, &self.alpha, &mut self.cs);
            self.rules.push(plan);
        }
        self.rules.sort_by_key(|p| p.rule().id);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_core::{FieldCheck, FieldTest, Value, WorkingMemory};
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
