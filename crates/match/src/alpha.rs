//! The shared alpha network: one constant-test layer for all rules.
//!
//! Forgy's RETE derives much of its win from running each distinct alpha
//! (constant) test *once* per WME change and fanning the result out to
//! every production that uses it. [`AlphaNetwork`] is that layer:
//!
//! * WME payloads live once, in a flat generational [`Arena`] (the
//!   [`WmeRef`] handles are what tokens and index buckets store).
//! * Alpha memories are **nodes** deduplicated by their sharing key —
//!   `(class, alpha-test list)` with tests in slot order. Subscribing a
//!   (rule, CE) endpoint to an existing key refcounts the node instead of
//!   creating state.
//! * Nodes are bucketed **by class**: an add hashes to its class bucket
//!   and never visits nodes (hence rules) of other classes.
//! * Each node can carry hash **indexes** over field-slot lists (the
//!   equality-join keys RETE levels probe), themselves refcounted and
//!   shared by slot list.
//!
//! `add` runs each distinct test list once per WME and reports which
//! nodes it entered; `share_hits` counts the evaluations that fanned out
//! to more than one subscriber — the work the old per-rule layout would
//! have repeated.

use crate::arena::{Arena, WmeRef};
use parulel_core::{
    ClassId, ConditionElement, FieldTest, FxHashMap, FxHashSet, RuleId, Value, Wme, WmeId,
};

/// Join-key values, boxed (map key for index buckets).
pub type KeyVals = Box<[Value]>;

/// Handle to an alpha node. Plain slab index: node lifetime is governed by
/// subscriptions, and subscribers drop their handles when they
/// unsubscribe, so stale handles cannot occur in correct use.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw slab index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A (rule, CE) subscription to an alpha node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Endpoint {
    /// Subscribing rule.
    pub rule: RuleId,
    /// CE position within that rule (join order).
    pub ce: u32,
}

/// A refcounted hash index over one slot list of a node's membership.
struct AlphaIndex {
    /// Subscribers sharing this slot list.
    refs: u32,
    /// Join-key values → members with those values.
    map: FxHashMap<KeyVals, FxHashSet<WmeRef>>,
}

/// One shared alpha memory: the WMEs of `class` passing `tests`.
struct AlphaNode {
    class: ClassId,
    /// Alpha-layer tests in slot order (the sharing key, with `class`).
    tests: Vec<FieldTest>,
    /// Subscribed (rule, CE) endpoints; the length is the refcount.
    endpoints: Vec<Endpoint>,
    /// Membership: WME id → arena handle.
    members: FxHashMap<WmeId, WmeRef>,
    /// Hash indexes over the membership, keyed (and shared) by slot list.
    indexes: FxHashMap<Box<[u16]>, AlphaIndex>,
}

impl AlphaNode {
    fn passes(&self, wme: &Wme) -> bool {
        // Alpha checks never touch env.
        let mut empty: [Value; 0] = [];
        self.tests.iter().all(|t| t.check_wme(wme, &mut empty))
    }
}

fn keyvals_of(slots: &[u16], wme: &Wme) -> KeyVals {
    slots
        .iter()
        .map(|&s| wme.field(s as usize).join_key())
        .collect()
}

/// The shared alpha network + WME store one matcher instance owns.
/// (Partitioned matchers give each shard its own network: shards process
/// deltas in parallel and share no state by design.)
pub struct AlphaNetwork {
    /// Every added WME, stored once.
    store: Arena<Wme>,
    /// WME id → arena handle.
    by_id: FxHashMap<WmeId, WmeRef>,
    /// Node slab (`None` = freed slot).
    nodes: Vec<Option<AlphaNode>>,
    free_nodes: Vec<u32>,
    /// Sharing key → node.
    by_key: FxHashMap<(ClassId, Vec<FieldTest>), NodeId>,
    /// Class → nodes of that class (the add-side routing table).
    by_class: Vec<Vec<NodeId>>,
    /// Lifetime count of test evaluations that served more than one
    /// subscriber (the per-rule layout would have re-run each of these).
    share_hits: u64,
}

impl AlphaNetwork {
    /// An empty network over `num_classes` classes.
    pub fn new(num_classes: usize) -> Self {
        AlphaNetwork {
            store: Arena::new(),
            by_id: FxHashMap::default(),
            nodes: Vec::new(),
            free_nodes: Vec::new(),
            by_key: FxHashMap::default(),
            by_class: vec![Vec::new(); num_classes],
            share_hits: 0,
        }
    }

    fn node(&self, n: NodeId) -> &AlphaNode {
        self.nodes[n.index()].as_ref().expect("freed alpha node")
    }

    fn node_mut(&mut self, n: NodeId) -> &mut AlphaNode {
        self.nodes[n.index()].as_mut().expect("freed alpha node")
    }

    /// Subscribes `(rule, ce_idx)` to the node for `ce`'s class +
    /// alpha-test key, creating (and seeding from the store) the node if
    /// no subscriber shares the key yet.
    pub fn subscribe(&mut self, ce: &ConditionElement, rule: RuleId, ce_idx: usize) -> NodeId {
        let ep = Endpoint {
            rule,
            ce: ce_idx as u32,
        };
        let tests: Vec<FieldTest> = ce.alpha_tests().cloned().collect();
        if let Some(&nid) = self.by_key.get(&(ce.class, tests.clone())) {
            self.node_mut(nid).endpoints.push(ep);
            return nid;
        }
        let mut node = AlphaNode {
            class: ce.class,
            tests,
            endpoints: vec![ep],
            members: FxHashMap::default(),
            indexes: FxHashMap::default(),
        };
        // Seed membership with everything already stored (dense arena
        // walk; no other node pays for this).
        for (wref, wme) in self.store.iter() {
            if wme.class == node.class && node.passes(wme) {
                node.members.insert(wme.id, wref);
            }
        }
        let nid = match self.free_nodes.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = Some(node);
                NodeId(slot)
            }
            None => {
                self.nodes.push(Some(node));
                NodeId((self.nodes.len() - 1) as u32)
            }
        };
        let class = self.node(nid).class;
        self.by_key
            .insert((class, self.node(nid).tests.clone()), nid);
        if class.index() >= self.by_class.len() {
            self.by_class.resize(class.index() + 1, Vec::new());
        }
        self.by_class[class.index()].push(nid);
        nid
    }

    /// Drops one `(rule, ce_idx)` subscription from `node`; the node (and
    /// its indexes) are freed when the last subscriber leaves.
    pub fn unsubscribe(&mut self, node: NodeId, rule: RuleId, ce_idx: usize) {
        let ep = Endpoint {
            rule,
            ce: ce_idx as u32,
        };
        let n = self.node_mut(node);
        let pos = n
            .endpoints
            .iter()
            .position(|e| *e == ep)
            .expect("unsubscribe without a matching subscription");
        n.endpoints.swap_remove(pos);
        if n.endpoints.is_empty() {
            let freed = self.nodes[node.index()].take().expect("freed alpha node");
            self.by_key.remove(&(freed.class, freed.tests));
            self.by_class[freed.class.index()].retain(|&x| x != node);
            self.free_nodes.push(node.0);
        }
    }

    /// Registers (or refcounts) a hash index over `slots` on `node`,
    /// seeding it from the current membership if new. An empty slot list
    /// is legal — the index then has a single bucket holding the whole
    /// membership, which keeps the join probe uniform for key-less CEs.
    pub fn subscribe_index(&mut self, node: NodeId, slots: &[u16]) {
        let n = self.node_mut(node);
        if let Some(idx) = n.indexes.get_mut(slots) {
            idx.refs += 1;
            return;
        }
        let mut map: FxHashMap<KeyVals, FxHashSet<WmeRef>> = FxHashMap::default();
        let member_refs: Vec<WmeRef> = n.members.values().copied().collect();
        for wref in member_refs {
            let wme = self.store.get(wref).expect("member with stale ref");
            map.entry(keyvals_of(slots, wme)).or_default().insert(wref);
        }
        self.node_mut(node)
            .indexes
            .insert(slots.into(), AlphaIndex { refs: 1, map });
    }

    /// Drops one reference to `node`'s index over `slots`, freeing the
    /// index when the last reference leaves. Call *before* `unsubscribe`
    /// (the node may die with it).
    pub fn unsubscribe_index(&mut self, node: NodeId, slots: &[u16]) {
        let n = self.node_mut(node);
        let idx = n
            .indexes
            .get_mut(slots)
            .expect("unsubscribe_index without a matching index");
        idx.refs -= 1;
        if idx.refs == 0 {
            n.indexes.remove(slots);
        }
    }

    /// Stores `wme` and routes it through its class bucket: each node's
    /// test list runs **once**, membership and indexes are updated, and
    /// the nodes it entered are returned for the caller's beta delivery.
    pub fn add(&mut self, wme: &Wme) -> (WmeRef, Vec<NodeId>) {
        debug_assert!(
            !self.by_id.contains_key(&wme.id),
            "WME {} added twice",
            wme.id
        );
        let wref = self.store.insert(wme.clone());
        self.by_id.insert(wme.id, wref);
        let mut entered = Vec::new();
        let bucket: Vec<NodeId> = match self.by_class.get(wme.class.index()) {
            Some(b) => b.clone(),
            None => Vec::new(),
        };
        for nid in bucket {
            let node = self.nodes[nid.index()].as_mut().expect("freed alpha node");
            let subs = node.endpoints.len();
            if subs > 1 {
                // One evaluation served `subs` subscribers.
                self.share_hits += (subs - 1) as u64;
            }
            if !node.passes(wme) {
                continue;
            }
            node.members.insert(wme.id, wref);
            for (slots, idx) in node.indexes.iter_mut() {
                idx.map
                    .entry(keyvals_of(slots, wme))
                    .or_default()
                    .insert(wref);
            }
            entered.push(nid);
        }
        (wref, entered)
    }

    /// Removes the WME with `id` from the store and from every node whose
    /// membership holds it (routed by membership — tests never re-run).
    /// Returns the payload and the nodes it left; `None` if `id` was
    /// never added.
    pub fn remove(&mut self, id: WmeId) -> Option<(Wme, Vec<NodeId>)> {
        let wref = self.by_id.remove(&id)?;
        let wme = self.store.remove(wref).expect("store/by_id desync");
        let mut left = Vec::new();
        let bucket: Vec<NodeId> = match self.by_class.get(wme.class.index()) {
            Some(b) => b.clone(),
            None => Vec::new(),
        };
        for nid in bucket {
            let node = self.nodes[nid.index()].as_mut().expect("freed alpha node");
            if node.members.remove(&id).is_none() {
                continue;
            }
            for (slots, idx) in node.indexes.iter_mut() {
                let kv = keyvals_of(slots, &wme);
                if let Some(b) = idx.map.get_mut(&kv) {
                    b.remove(&wref);
                    if b.is_empty() {
                        idx.map.remove(&kv);
                    }
                }
            }
            left.push(nid);
        }
        Some((wme, left))
    }

    /// The payload behind `r`.
    ///
    /// # Panics
    /// Panics if `r` is stale — live match state must never hold refs to
    /// removed WMEs.
    #[inline]
    pub fn wme(&self, r: WmeRef) -> &Wme {
        self.store.get(r).expect("stale WmeRef in live match state")
    }

    /// Non-panicking variant of [`wme`](Self::wme), for invariant checks
    /// that want to report staleness themselves.
    pub fn try_wme(&self, r: WmeRef) -> Option<&Wme> {
        self.store.get(r)
    }

    /// The arena handle for a stored WME id.
    pub fn lookup(&self, id: WmeId) -> Option<WmeRef> {
        self.by_id.get(&id).copied()
    }

    /// Membership of `node`.
    pub fn members(&self, node: NodeId) -> &FxHashMap<WmeId, WmeRef> {
        &self.node(node).members
    }

    /// Subscribed endpoints of `node`.
    pub fn endpoints(&self, node: NodeId) -> &[Endpoint] {
        &self.node(node).endpoints
    }

    /// The members of `node` whose `slots` values equal `kv`, via the
    /// node's shared index over `slots`.
    ///
    /// # Panics
    /// Panics if no index over `slots` was subscribed.
    pub fn index_bucket(&self, node: NodeId, slots: &[u16], kv: &[Value]) -> Option<&FxHashSet<WmeRef>> {
        self.node(node)
            .indexes
            .get(slots)
            .expect("index probe without a subscription")
            .map
            .get(kv)
    }

    /// Total entries in `node`'s index over `slots`, or `None` if no such
    /// index is subscribed (invariant checks probe this).
    pub fn index_len(&self, node: NodeId, slots: &[u16]) -> Option<usize> {
        self.node(node)
            .indexes
            .get(slots)
            .map(|idx| idx.map.values().map(|b| b.len()).sum())
    }

    /// Stored WMEs (= working-memory size for a seeded matcher).
    pub fn store_len(&self) -> usize {
        self.store.len()
    }

    /// Live alpha nodes (distinct (class, test-list) memories).
    pub fn node_count(&self) -> usize {
        self.nodes.iter().flatten().count()
    }

    /// Total (rule, CE) subscriptions across live nodes.
    pub fn subscription_count(&self) -> usize {
        self.nodes
            .iter()
            .flatten()
            .map(|n| n.endpoints.len())
            .sum()
    }

    /// Lifetime [`share_hits`](Self) counter: alpha test evaluations whose
    /// result was fanned out to more than one subscriber.
    pub fn share_hits(&self) -> u64 {
        self.share_hits
    }
}

/// Every live index as node sharing key → sorted (slot list, refcount)
/// pairs.
#[cfg(test)]
pub(crate) type IndexCensus = FxHashMap<(ClassId, Vec<FieldTest>), Vec<(Box<[u16]>, u32)>>;

impl AlphaNetwork {
    /// The live indexes, independent of slab positions: tests compare
    /// censuses across subscribe/unsubscribe churn.
    #[cfg(test)]
    pub(crate) fn index_census(&self) -> IndexCensus {
        let mut census = FxHashMap::default();
        for node in self.nodes.iter().flatten() {
            let mut idx: Vec<(Box<[u16]>, u32)> =
                node.indexes.iter().map(|(s, i)| (s.clone(), i.refs)).collect();
            idx.sort();
            census.insert((node.class, node.tests.clone()), idx);
        }
        census
    }
}

impl AlphaNetwork {
    /// Verifies store/node/index agreement (called from tests and the
    /// debug-build differential twins). Panics with a description on
    /// violation.
    pub fn check_invariants(&self) {
        // Store and id map mirror each other.
        assert_eq!(self.store.len(), self.by_id.len(), "store/by_id desync");
        for (id, &wref) in &self.by_id {
            let wme = self.store.get(wref).expect("by_id holds stale ref");
            assert_eq!(wme.id, *id, "by_id filed under wrong id");
        }
        // Free list points only at freed slots.
        for &slot in &self.free_nodes {
            assert!(
                self.nodes[slot as usize].is_none(),
                "free list points at live node"
            );
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let Some(node) = node else { continue };
            let nid = NodeId(i as u32);
            assert!(!node.endpoints.is_empty(), "node {i}: zero refcount yet live");
            assert_eq!(
                self.by_class[node.class.index()]
                    .iter()
                    .filter(|&&x| x == nid)
                    .count(),
                1,
                "node {i}: class bucket entry missing or duplicated"
            );
            assert_eq!(
                self.by_key.get(&(node.class, node.tests.clone())),
                Some(&nid),
                "node {i}: sharing key does not resolve back"
            );
            // Membership = exactly the stored WMEs of the class passing
            // the tests.
            for (id, &wref) in &node.members {
                let wme = self.store.get(wref).expect("member holds stale ref");
                assert_eq!(wme.id, *id, "node {i}: member filed under wrong id");
                assert_eq!(wme.class, node.class, "node {i}: member of wrong class");
                assert!(node.passes(wme), "node {i}: member fails its own tests");
            }
            let expect: usize = self
                .store
                .iter()
                .filter(|(_, w)| w.class == node.class && node.passes(w))
                .count();
            assert_eq!(
                node.members.len(),
                expect,
                "node {i}: membership incomplete"
            );
            for (slots, idx) in &node.indexes {
                assert!(idx.refs > 0, "node {i}: zero-ref index kept");
                let mut indexed = 0usize;
                for (kv, bucket) in &idx.map {
                    assert!(!bucket.is_empty(), "node {i}: empty index bucket");
                    for &wref in bucket {
                        let wme = self.store.get(wref).expect("index holds stale ref");
                        assert!(
                            node.members.contains_key(&wme.id),
                            "node {i}: indexed non-member"
                        );
                        assert_eq!(
                            &keyvals_of(slots, wme),
                            kv,
                            "node {i}: member filed under wrong index key"
                        );
                        indexed += 1;
                    }
                }
                assert_eq!(indexed, node.members.len(), "node {i}: index desync");
            }
        }
        // Class buckets and the key map point only at live nodes.
        for (c, bucket) in self.by_class.iter().enumerate() {
            for nid in bucket {
                let node = self.nodes[nid.index()]
                    .as_ref()
                    .unwrap_or_else(|| panic!("class {c} bucket holds freed node"));
                assert_eq!(node.class.index(), c, "node in wrong class bucket");
            }
        }
        for nid in self.by_key.values() {
            assert!(
                self.nodes[nid.index()].is_some(),
                "by_key holds freed node"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_core::{Program, Value, WorkingMemory};
    use parulel_lang::compile;
    use std::sync::Arc;

    fn prog(src: &str) -> Arc<Program> {
        Arc::new(compile(src).unwrap())
    }

    /// Two rules over the same class with identical constant tests, one
    /// with a different test.
    fn three_rule_setup() -> (Arc<Program>, WorkingMemory) {
        let p = prog(
            "(literalize n v w)
             (p r1 (n ^v 1 ^w <x>) --> (halt))
             (p r2 (n ^v 1 ^w <y>) --> (halt))
             (p r3 (n ^v 2 ^w <z>) --> (halt))",
        );
        let wm = WorkingMemory::new(&p.classes);
        (p, wm)
    }

    fn subscribe_all(net: &mut AlphaNetwork, p: &Program) -> Vec<NodeId> {
        let mut ids = Vec::new();
        for rule in p.rules() {
            for (k, ce) in rule.ces.iter().enumerate() {
                ids.push(net.subscribe(ce, rule.id, k));
            }
        }
        ids
    }

    #[test]
    fn dedup_shares_nodes_and_counts_hits() {
        let (p, mut wm) = three_rule_setup();
        let n = p.classes.id_of(p.interner.intern("n")).unwrap();
        let mut net = AlphaNetwork::new(p.classes.len());
        let ids = subscribe_all(&mut net, &p);
        assert_eq!(ids[0], ids[1], "identical alpha keys share a node");
        assert_ne!(ids[0], ids[2], "different constant ⇒ different node");
        assert_eq!(net.node_count(), 2);
        assert_eq!(net.subscription_count(), 3);

        let w = wm.insert(n, vec![Value::Int(1), Value::Int(9)]);
        let (_, entered) = net.add(&w);
        assert_eq!(entered, vec![ids[0]], "entered the shared node only");
        assert_eq!(net.members(ids[0]).len(), 1);
        assert!(net.members(ids[2]).is_empty());
        assert_eq!(net.share_hits(), 1, "one evaluation served two rules");
        net.check_invariants();
    }

    #[test]
    fn late_subscription_seeds_from_store() {
        let (p, mut wm) = three_rule_setup();
        let n = p.classes.id_of(p.interner.intern("n")).unwrap();
        let mut net = AlphaNetwork::new(p.classes.len());
        let w1 = wm.insert(n, vec![Value::Int(1), Value::Int(9)]);
        let w2 = wm.insert(n, vec![Value::Int(2), Value::Int(9)]);
        net.add(&w1);
        net.add(&w2);
        let ids = subscribe_all(&mut net, &p);
        assert_eq!(net.members(ids[0]).len(), 1, "v=1 node seeded");
        assert_eq!(net.members(ids[2]).len(), 1, "v=2 node seeded");
        net.subscribe_index(ids[0], &[1]);
        let kv = [Value::Int(9).join_key()];
        let bucket = net.index_bucket(ids[0], &[1], &kv).unwrap();
        assert_eq!(bucket.len(), 1, "index seeded from membership");
        net.check_invariants();
    }

    #[test]
    fn unsubscribe_refcounts_and_frees() {
        let (p, _) = three_rule_setup();
        let mut net = AlphaNetwork::new(p.classes.len());
        let ids = subscribe_all(&mut net, &p);
        net.unsubscribe(ids[0], p.rules()[0].id, 0);
        assert_eq!(net.node_count(), 2, "shared node survives one leaver");
        net.unsubscribe(ids[1], p.rules()[1].id, 0);
        assert_eq!(net.node_count(), 1, "last subscriber frees the node");
        // The freed slot is recycled by the next subscription.
        let rule = &p.rules()[0];
        let again = net.subscribe(&rule.ces[0], rule.id, 0);
        assert_eq!(again.index(), ids[0].index(), "slab slot reused");
        net.check_invariants();
    }

    #[test]
    fn add_remove_keeps_indexes_in_sync() {
        let (p, mut wm) = three_rule_setup();
        let n = p.classes.id_of(p.interner.intern("n")).unwrap();
        let mut net = AlphaNetwork::new(p.classes.len());
        let ids = subscribe_all(&mut net, &p);
        net.subscribe_index(ids[0], &[1]);
        net.subscribe_index(ids[0], &[]); // key-less probe shares a bucket
        let w1 = wm.insert(n, vec![Value::Int(1), Value::Int(4)]);
        let w2 = wm.insert(n, vec![Value::Int(1), Value::Int(4)]);
        net.add(&w1);
        net.add(&w2);
        let kv = [Value::Int(4).join_key()];
        assert_eq!(net.index_bucket(ids[0], &[1], &kv).unwrap().len(), 2);
        assert_eq!(net.index_bucket(ids[0], &[], &[]).unwrap().len(), 2);
        let (payload, left) = net.remove(w1.id).unwrap();
        assert_eq!(payload.id, w1.id);
        assert_eq!(left, vec![ids[0]]);
        assert_eq!(net.index_bucket(ids[0], &[1], &kv).unwrap().len(), 1);
        assert_eq!(net.store_len(), 1);
        assert!(net.remove(w1.id).is_none(), "double remove is None");
        net.check_invariants();
    }
}
