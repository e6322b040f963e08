//! An incremental RETE network (Forgy 1982), the state-saving matcher
//! PARULEL's cycle is built on.
//!
//! ## Structure
//!
//! The constant-test layer is the crate-wide [`AlphaNetwork`]: alpha
//! memories are deduplicated by (class, constant-test) key and shared
//! across rules, WME payloads live once in a flat generational arena, and
//! a WME add runs each distinct test list once before fanning out to the
//! subscribing (rule, CE) endpoints. The beta layer stays per rule:
//!
//! * One linear network per rule ("rule net"): level *k* of a net
//!   corresponds to condition element *k* in join order. Each level holds
//!   a subscription to its shared alpha node plus a refcounted hash index
//!   over its **equality join keys** (the `(slot, var)` pairs where the
//!   CE equates a field with a variable bound by an earlier CE).
//! * A **token** is a consistent match of the first *k* CEs: the matched
//!   positive WMEs (as arena handles — 8 bytes each, no `Arc` chasing),
//!   their ids (the token key), and the variable bindings.
//! * Positive levels join input tokens (the previous level's outputs, or
//!   the root token) with their alpha node; candidates come from the
//!   shared hash index, residual beta tests and anchored rule tests run
//!   per candidate.
//! * Negative levels are **counted**: for each input token the level
//!   stores how many alpha WMEs are consistent with it; the token passes
//!   through while the count is zero. Adding a blocker retracts the
//!   downstream tokens; removing the last blocker re-propagates.
//! * The last level's outputs are the rule's instantiations, maintained
//!   directly in the [`ConflictSet`].
//!
//! ## Delivery discipline
//!
//! Because the shared network inserts membership *before* any beta
//! delivery, tokens created during an add compute negative counts that
//! already include the new WME. Delivery therefore increments only input
//! tokens captured in a pre-delivery snapshot of each hit negative
//! level's count table; tokens created (or re-created) mid-add always
//! carry the new WME's id, which no snapshot token can, so the two sets
//! are provably disjoint and nothing is double-counted.

use crate::alpha::{AlphaNetwork, KeyVals, NodeId};
use crate::arena::WmeRef;
use crate::Matcher;
use parulel_core::{
    ConditionElement, ConflictSet, CsEvent, FxHashMap, FxHashSet, InstKey, Instantiation, Polarity,
    Program, RuleId, TestExpr, Value, VarId, Wme, WorkingMemory,
};
use std::sync::Arc;

type TokKey = Arc<[WmeId]>;
use parulel_core::WmeId;

/// A partial match: the first `k` CEs of a rule, satisfied consistently.
#[derive(Clone, Debug)]
struct Token {
    /// Ids of the positive WMEs matched so far (the identity).
    key: TokKey,
    /// Arena handles of the matched positive WMEs — payloads stay in the
    /// shared store, tokens carry 8-byte refs.
    wmes: Vec<WmeRef>,
    /// Variable bindings (full rule width).
    env: Box<[Value]>,
}

/// One level of a rule net.
struct Level {
    ce: ConditionElement,
    /// The rule tests anchored at this level (runnable once CEs `0..=k`
    /// have joined).
    tests: Vec<TestExpr>,
    /// Equality join keys: `(slot, var)`.
    keys: Vec<(u16, VarId)>,
    /// The join-key field slots (the shared index this level probes).
    slots: Box<[u16]>,
    /// This level's subscription in the shared alpha network.
    node: NodeId,
    /// Input tokens (previous level's outputs) indexed by this level's
    /// join-key values.
    left_index: FxHashMap<KeyVals, FxHashSet<TokKey>>,
    /// Output tokens of this level.
    tokens: FxHashMap<TokKey, Token>,
    /// Negative levels: per input-token key, the number of alpha WMEs
    /// consistent with it. The token passes through iff the count is 0.
    neg_counts: FxHashMap<TokKey, u32>,
    /// Removal index: WME id → output tokens at this level that matched
    /// it positively. Retracting a WME touches only these tokens instead
    /// of scanning the level.
    by_wme: FxHashMap<WmeId, FxHashSet<TokKey>>,
    /// Cascade index: input-token key → output tokens at this level
    /// derived from it (pos levels extend the key by one id; neg levels
    /// pass it through unchanged).
    children: FxHashMap<TokKey, FxHashSet<TokKey>>,
}

impl Level {
    /// The input-token key an output token at this level derives from.
    fn parent_key(&self, key: &TokKey) -> TokKey {
        if self.is_negative() {
            key.clone()
        } else {
            key[..key.len() - 1].into()
        }
    }

    fn is_negative(&self) -> bool {
        self.ce.polarity == Polarity::Negative
    }

    fn wme_keyvals(&self, wme: &Wme) -> KeyVals {
        self.keys
            .iter()
            .map(|&(slot, _)| wme.field(slot as usize).join_key())
            .collect()
    }

    fn token_keyvals(&self, tok: &Token) -> KeyVals {
        self.keys
            .iter()
            .map(|&(_, var)| tok.env[var.index()].join_key())
            .collect()
    }

    /// Does `wme` extend/block `tok` at this level (beta tests only)?
    /// Uses a scratch env; bindings are not kept.
    fn beta_matches(&self, tok: &Token, wme: &Wme) -> bool {
        let mut scratch = tok.env.clone();
        self.ce.run_beta(wme, &mut scratch)
    }

    /// Every rule test anchored at this level holds under `env`.
    fn tests_pass(&self, env: &[Value]) -> bool {
        self.tests.iter().all(|t| t.check(env))
    }
}

/// One rule's beta network.
struct RuleNet {
    rule: RuleId,
    levels: Vec<Level>,
    root: Token,
}

/// The incremental RETE matcher: shared alpha network + per-rule beta
/// nets.
pub struct Rete {
    alpha: AlphaNetwork,
    nets: Vec<RuleNet>,
    cs: ConflictSet,
}

impl Rete {
    /// Builds a network for every rule of `program`.
    pub fn new(program: Arc<Program>) -> Self {
        let rules = (0..program.rules().len() as u32).map(RuleId).collect();
        Self::with_rules(program, rules)
    }

    /// Builds networks for a subset of `program`'s rules (the partitioned
    /// matcher's workers use this).
    pub fn with_rules(program: Arc<Program>, rules: Vec<RuleId>) -> Self {
        let mut alpha = AlphaNetwork::new(program.classes.len());
        let mut nets = Vec::with_capacity(rules.len());
        let mut cs = ConflictSet::new();
        for rid in rules {
            nets.push(build_net(&program, rid, &mut alpha, &mut cs));
        }
        Rete { alpha, nets, cs }
    }
}

impl Rete {
    /// Verifies every cross-index of the network agrees (the
    /// differential suite calls this after each batch in debug builds so
    /// index leaks/desyncs surface at the op that caused them, not as a
    /// wrong conflict set much later). Panics with a description on
    /// violation.
    pub fn check_invariants(&self) {
        // Store/node/index/refcount agreement inside the shared layer.
        self.alpha.check_invariants();
        for net in &self.nets {
            let rule = net.rule.0;
            for (k, level) in net.levels.iter().enumerate() {
                // The level's subscription and shared index exist.
                assert!(
                    self.alpha.endpoints(level.node).contains(&crate::alpha::Endpoint {
                        rule: net.rule,
                        ce: k as u32
                    }),
                    "r{rule} L{k}: endpoint missing from its alpha node"
                );
                assert!(
                    self.alpha.index_len(level.node, &level.slots).is_some(),
                    "r{rule} L{k}: join index missing from its alpha node"
                );
                // Tokens and their removal/cascade indexes agree, and
                // every token ref resolves to the WME its key names.
                for (key, tok) in &level.tokens {
                    assert_eq!(key, &tok.key, "r{rule} L{k}: token filed under wrong key");
                    assert_eq!(
                        tok.key.len(),
                        tok.wmes.len(),
                        "r{rule} L{k}: token key/refs width mismatch"
                    );
                    for (id, &wref) in tok.key.iter().zip(&tok.wmes) {
                        let wme = self
                            .alpha
                            .try_wme(wref)
                            .unwrap_or_else(|| panic!("r{rule} L{k}: token holds stale ref"));
                        assert_eq!(wme.id, *id, "r{rule} L{k}: token ref/id mismatch");
                    }
                    for id in key.iter() {
                        assert!(
                            level.by_wme.get(id).is_some_and(|s| s.contains(key)),
                            "r{rule} L{k}: token missing from by_wme[{id}]"
                        );
                    }
                }
                for (id, keys) in &level.by_wme {
                    assert!(!keys.is_empty(), "r{rule} L{k}: empty by_wme[{id}] bucket");
                    for key in keys {
                        assert!(
                            level.tokens.contains_key(key),
                            "r{rule} L{k}: by_wme[{id}] points at dead token"
                        );
                    }
                }
                for (parent, kids) in &level.children {
                    assert!(!kids.is_empty(), "r{rule} L{k}: empty children bucket");
                    for kid in kids {
                        assert!(
                            level.tokens.contains_key(kid),
                            "r{rule} L{k}: children points at dead token"
                        );
                        assert_eq!(
                            &level.parent_key(kid),
                            parent,
                            "r{rule} L{k}: child filed under wrong parent"
                        );
                    }
                }
                // Left inputs are live tokens of the previous level (or
                // the permanent root entry at level 0).
                let mut left_keys: FxHashSet<&TokKey> = FxHashSet::default();
                for (kv, bucket) in &level.left_index {
                    assert!(!bucket.is_empty(), "r{rule} L{k}: empty left bucket");
                    for tkey in bucket {
                        let tok = if k == 0 {
                            assert!(tkey.is_empty(), "r{rule} L0: non-root left input");
                            net.root.clone()
                        } else {
                            net.levels[k - 1]
                                .tokens
                                .get(tkey)
                                .unwrap_or_else(|| {
                                    panic!("r{rule} L{k}: left input not live upstream")
                                })
                                .clone()
                        };
                        assert_eq!(
                            &level.token_keyvals(&tok),
                            kv,
                            "r{rule} L{k}: left input under wrong key"
                        );
                        left_keys.insert(tkey);
                    }
                }
                if level.is_negative() {
                    // Every live input has exactly one count; no orphans.
                    assert_eq!(
                        left_keys.len(),
                        level.neg_counts.len(),
                        "r{rule} L{k}: neg_counts/left_index desync"
                    );
                    for tkey in level.neg_counts.keys() {
                        assert!(
                            left_keys.contains(tkey),
                            "r{rule} L{k}: orphaned negative count"
                        );
                    }
                }
            }
            // The last level's outputs are exactly this rule's
            // conflict-set entries.
            if let Some(last) = net.levels.last() {
                for key in last.tokens.keys() {
                    let ik = InstKey {
                        rule: net.rule,
                        wmes: key.clone(),
                    };
                    assert!(
                        self.cs.contains(&ik),
                        "r{rule}: final token missing from conflict set"
                    );
                }
                let in_cs = self.cs.iter().filter(|i| i.rule == net.rule).count();
                assert_eq!(
                    in_cs,
                    last.tokens.len(),
                    "r{rule}: conflict set/final level desync"
                );
            }
        }
    }
}

/// Builds one rule's net — subscribing each level to the shared alpha
/// network — and derives its complete token set from the current store in
/// one batch pass (no per-WME replay: counts and joins are computed from
/// full node membership). On an empty store this degenerates to the
/// root-only state; on a live store it hands `replace_rules` a seeded net.
///
/// Inserts into `cs` anything the net derives (a leading-negative rule
/// with no blockers matches the root token; a zero-CE rule has exactly
/// one vacuous instantiation, matching what enumeration-based matchers
/// produce).
fn build_net(
    program: &Program,
    rid: RuleId,
    alpha: &mut AlphaNetwork,
    cs: &mut ConflictSet,
) -> RuleNet {
    let rule = program.rule(rid);
    let mut levels: Vec<Level> = rule
        .ces
        .iter()
        .enumerate()
        .map(|(k, ce)| {
            let keys = ce.eq_join_keys(rule.vars_bound_by(k));
            let slots: Box<[u16]> = keys.iter().map(|&(slot, _)| slot).collect();
            let node = alpha.subscribe(ce, rid, k);
            alpha.subscribe_index(node, &slots);
            Level {
                ce: ce.clone(),
                tests: rule
                    .tests
                    .iter()
                    .filter(|t| t.anchor == k)
                    .map(|t| t.test.clone())
                    .collect(),
                keys,
                slots,
                node,
                left_index: FxHashMap::default(),
                tokens: FxHashMap::default(),
                neg_counts: FxHashMap::default(),
                by_wme: FxHashMap::default(),
                children: FxHashMap::default(),
            }
        })
        .collect();
    let root = Token {
        key: Arc::from(Vec::new()),
        wmes: Vec::new(),
        env: vec![Value::NIL; rule.num_vars as usize].into(),
    };
    if levels.is_empty() {
        // No CEs at all: both the `parulel-lang` parser (empty LHS) and
        // `Program::add_rule` (no positive CE) reject such rules, so this
        // is unreachable through the public pipeline — but match
        // vacuously (once, like enumeration-based matchers would) rather
        // than leave a latent `levels[0]` panic below.
        cs.insert(Instantiation::new(rid, Vec::<Wme>::new(), root.env.to_vec()));
        return RuleNet {
            rule: rid,
            levels,
            root,
        };
    }
    // Register the root token as input to level 0, then batch-derive the
    // token set from whatever the store already holds.
    let kv = levels[0].token_keyvals(&root);
    levels[0]
        .left_index
        .entry(kv)
        .or_default()
        .insert(root.key.clone());
    let mut net = RuleNet {
        rule: rid,
        levels,
        root,
    };
    net.activate_root(alpha, cs);
    net
}

impl RuleNet {
    /// Number of levels.
    fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Drives the root token into level 0, computing counts/joins from
    /// full node membership — the batch half of net construction.
    fn activate_root(&mut self, alpha: &AlphaNetwork, cs: &mut ConflictSet) {
        let root = self.root.clone();
        if self.levels[0].is_negative() {
            let count = self.blocker_count(0, &root, alpha);
            self.levels[0].neg_counts.insert(root.key.clone(), count);
            if count == 0 && self.levels[0].tests_pass(&root.env) {
                self.insert_token(0, root, alpha, cs);
            }
        } else {
            let kv = self.levels[0].token_keyvals(&root);
            let candidates: Vec<WmeRef> =
                match alpha.index_bucket(self.levels[0].node, &self.levels[0].slots, &kv) {
                    Some(bucket) => bucket.iter().copied().collect(),
                    None => Vec::new(),
                };
            for r in candidates {
                if let Some(t2) = self.extend(0, &root, r, alpha) {
                    self.insert_token(0, t2, alpha, cs);
                }
            }
        }
    }

    /// How many members of negative level `k`'s alpha node are consistent
    /// with `tok` (the level's count table value for a fresh input).
    fn blocker_count(&self, k: usize, tok: &Token, alpha: &AlphaNetwork) -> u32 {
        let level = &self.levels[k];
        let kv = level.token_keyvals(tok);
        match alpha.index_bucket(level.node, &level.slots, &kv) {
            Some(bucket) => bucket
                .iter()
                .filter(|&&r| level.beta_matches(tok, alpha.wme(r)))
                .count() as u32,
            None => 0,
        }
    }

    /// Extends `tok` with the WME behind `wref` at positive level `k`, if
    /// consistent. Copies the 8-byte handle, never the payload.
    fn extend(&self, k: usize, tok: &Token, wref: WmeRef, alpha: &AlphaNetwork) -> Option<Token> {
        let level = &self.levels[k];
        let wme = alpha.wme(wref);
        let mut env = tok.env.clone();
        if !level.ce.run_beta(wme, &mut env) || !level.tests_pass(&env) {
            return None;
        }
        let mut key: Vec<WmeId> = tok.key.to_vec();
        key.push(wme.id);
        let mut wmes = tok.wmes.clone();
        wmes.push(wref);
        Some(Token {
            key: key.into(),
            wmes,
            env,
        })
    }

    /// Inserts `tok` as an output of level `k` and propagates downstream.
    fn insert_token(&mut self, k: usize, tok: Token, alpha: &AlphaNetwork, cs: &mut ConflictSet) {
        if self.levels[k]
            .tokens
            .insert(tok.key.clone(), tok.clone())
            .is_some()
        {
            return; // already present (idempotent)
        }
        for id in tok.key.iter() {
            self.levels[k]
                .by_wme
                .entry(*id)
                .or_default()
                .insert(tok.key.clone());
        }
        let parent = self.levels[k].parent_key(&tok.key);
        self.levels[k]
            .children
            .entry(parent)
            .or_default()
            .insert(tok.key.clone());
        if k + 1 == self.depth() {
            // The only place full WME payloads are cloned: materializing
            // the instantiation handed to the conflict set.
            let wmes: Vec<Wme> = tok.wmes.iter().map(|&r| alpha.wme(r).clone()).collect();
            cs.insert(Instantiation::new(self.rule, wmes, tok.env.to_vec()));
            return;
        }
        let next = k + 1;
        let kv = self.levels[next].token_keyvals(&tok);
        self.levels[next]
            .left_index
            .entry(kv.clone())
            .or_default()
            .insert(tok.key.clone());
        if self.levels[next].is_negative() {
            // A token passing *through* a negative level must still pass
            // the tests anchored there (its env is unchanged).
            let count = self.blocker_count(next, &tok, alpha);
            self.levels[next].neg_counts.insert(tok.key.clone(), count);
            if count == 0 && self.levels[next].tests_pass(&tok.env) {
                self.insert_token(next, tok, alpha, cs);
            }
        } else {
            // Handle copies only — candidate payloads stay in the shared
            // store; this Vec exists to end the borrow of `self.levels`
            // before the recursive insert below.
            let candidates: Vec<WmeRef> =
                match alpha.index_bucket(self.levels[next].node, &self.levels[next].slots, &kv) {
                    Some(bucket) => bucket.iter().copied().collect(),
                    None => Vec::new(),
                };
            for r in candidates {
                if let Some(t2) = self.extend(next, &tok, r, alpha) {
                    self.insert_token(next, t2, alpha, cs);
                }
            }
        }
    }

    /// Removes the output token with `key` from level `k`, cascading into
    /// deeper levels and the conflict set. Tolerates already-absent keys.
    fn remove_output(&mut self, k: usize, key: &TokKey, cs: &mut ConflictSet) {
        let Some(tok) = self.levels[k].tokens.remove(key) else {
            return;
        };
        for id in tok.key.iter() {
            let emptied = match self.levels[k].by_wme.get_mut(id) {
                Some(set) => {
                    set.remove(&tok.key);
                    set.is_empty()
                }
                None => false,
            };
            if emptied {
                self.levels[k].by_wme.remove(id);
            }
        }
        let parent = self.levels[k].parent_key(&tok.key);
        let emptied = match self.levels[k].children.get_mut(&parent) {
            Some(set) => {
                set.remove(&tok.key);
                set.is_empty()
            }
            None => false,
        };
        if emptied {
            self.levels[k].children.remove(&parent);
        }
        if k + 1 == self.depth() {
            cs.remove(&InstKey {
                rule: self.rule,
                wmes: tok.key.clone(),
            });
            return;
        }
        let next = k + 1;
        let kv = self.levels[next].token_keyvals(&tok);
        let emptied = match self.levels[next].left_index.get_mut(&kv) {
            Some(bucket) => {
                bucket.remove(&tok.key);
                bucket.is_empty()
            }
            None => false,
        };
        if emptied {
            self.levels[next].left_index.remove(&kv);
        }
        if self.levels[next].is_negative() {
            self.levels[next].neg_counts.remove(&tok.key);
        }
        // Cascade: every output at the next level derived from this token.
        if let Some(kids) = self.levels[next].children.get(&tok.key) {
            let victims: Vec<TokKey> = kids.iter().cloned().collect();
            for v in victims {
                self.remove_output(next, &v, cs);
            }
        }
    }

    /// The input token of level `k` with `key`, if still live.
    fn input_token(&self, k: usize, key: &TokKey) -> Option<Token> {
        if k == 0 {
            (key.is_empty()).then(|| self.root.clone())
        } else {
            self.levels[k - 1].tokens.get(key).cloned()
        }
    }

    /// Beta delivery for one added WME, at the levels (`hits`, ascending)
    /// whose shared alpha nodes it entered.
    fn deliver_add(
        &mut self,
        hits: &[usize],
        wref: WmeRef,
        wme: &Wme,
        alpha: &AlphaNetwork,
        cs: &mut ConflictSet,
    ) {
        // Node membership was updated before delivery, so any token
        // created from here on computes counts that already include the
        // new WME. Those freshly-built tokens are exactly the ones whose
        // key carries the new WME's id (every insert during an add
        // delivery descends from an extension with it, and the id is
        // fresh), so they are skipped by inspecting the key — tokens that
        // predate the add cannot reference the id. No per-delivery
        // snapshot of the count table is needed.
        for &k in hits {
            let kv = self.levels[k].wme_keyvals(wme);
            let left: Vec<TokKey> = self.levels[k]
                .left_index
                .get(&kv)
                .map(|b| b.iter().cloned().collect())
                .unwrap_or_default();
            if self.levels[k].is_negative() {
                for tkey in left {
                    if tkey.contains(&wme.id) {
                        continue; // built during this delivery: fresh count
                    }
                    let Some(tok) = self.input_token(k, &tkey) else {
                        continue;
                    };
                    if self.levels[k].beta_matches(&tok, wme) {
                        let count = self.levels[k]
                            .neg_counts
                            .get_mut(&tkey)
                            .expect("input token without a negative count");
                        *count += 1;
                        if *count == 1 {
                            self.remove_output(k, &tkey, cs);
                        }
                    }
                }
            } else {
                for tkey in left {
                    let Some(tok) = self.input_token(k, &tkey) else {
                        continue;
                    };
                    if let Some(t2) = self.extend(k, &tok, wref, alpha) {
                        self.insert_token(k, t2, alpha, cs);
                    }
                }
            }
        }
    }

    /// Beta retraction for one removed WME (already gone from the shared
    /// store), at the levels whose nodes it left.
    fn deliver_remove(
        &mut self,
        hits: &[usize],
        wme: &Wme,
        alpha: &AlphaNetwork,
        cs: &mut ConflictSet,
    ) {
        // 1. Retract every token that positively matched the WME, straight
        //    from the per-WME index; scanning shallow-to-deep lets the
        //    cascade do most of the work (deeper entries are usually gone
        //    by the time their level is reached). This phase only removes,
        //    never inserts.
        for k in 0..self.depth() {
            let victims: Vec<TokKey> = self.levels[k]
                .by_wme
                .get(&wme.id)
                .map(|set| set.iter().cloned().collect())
                .unwrap_or_default();
            for v in victims {
                self.remove_output(k, &v, cs);
            }
        }
        // 2. Negative re-activation, deepest level first: live input
        //    tokens that were blocked only by this WME start passing.
        //    A re-activation at level k only inserts tokens at levels
        //    deeper than k — whose counts are computed fresh from the
        //    already-shrunk membership and must not be decremented — and
        //    deepest-first ordering guarantees those levels were already
        //    handled, so every entry seen here predates the delivery and
        //    its count included the WME.
        let neg_hits: Vec<usize> = hits
            .iter()
            .copied()
            .filter(|&k| self.levels[k].is_negative())
            .collect();
        for &k in neg_hits.iter().rev() {
            let kv = self.levels[k].wme_keyvals(wme);
            let left: Vec<TokKey> = self.levels[k]
                .left_index
                .get(&kv)
                .map(|b| b.iter().cloned().collect())
                .unwrap_or_default();
            for tkey in left {
                let Some(tok) = self.input_token(k, &tkey) else {
                    continue;
                };
                if self.levels[k].beta_matches(&tok, wme) {
                    let count = self.levels[k]
                        .neg_counts
                        .get_mut(&tkey)
                        .expect("input token without a negative count");
                    *count -= 1;
                    if *count == 0 && self.levels[k].tests_pass(&tok.env) {
                        self.insert_token(k, tok, alpha, cs);
                    }
                }
            }
        }
    }
}

/// Groups the endpoints of `entered` alpha nodes by rule, yielding each
/// rule's hit CE positions sorted ascending (the shallow-to-deep delivery
/// order the beta pass relies on).
fn hits_by_rule(alpha: &AlphaNetwork, entered: &[NodeId]) -> FxHashMap<RuleId, Vec<usize>> {
    let mut by_rule: FxHashMap<RuleId, Vec<usize>> = FxHashMap::default();
    for &nid in entered {
        for ep in alpha.endpoints(nid) {
            by_rule.entry(ep.rule).or_default().push(ep.ce as usize);
        }
    }
    for hits in by_rule.values_mut() {
        hits.sort_unstable();
    }
    by_rule
}

impl Matcher for Rete {
    fn add_wme(&mut self, wme: &Wme) {
        // The shared layer runs each distinct test list once and stores
        // the payload once; beta delivery fans out to the subscribers.
        let (wref, entered) = self.alpha.add(wme);
        let mut by_rule = hits_by_rule(&self.alpha, &entered);
        for net in &mut self.nets {
            if let Some(hits) = by_rule.remove(&net.rule) {
                net.deliver_add(&hits, wref, wme, &self.alpha, &mut self.cs);
            }
        }
    }

    fn remove_wme(&mut self, wme: &Wme) {
        let Some((payload, left)) = self.alpha.remove(wme.id) else {
            return; // never added — nothing can reference it
        };
        let mut by_rule = hits_by_rule(&self.alpha, &left);
        for net in &mut self.nets {
            if let Some(hits) = by_rule.remove(&net.rule) {
                net.deliver_remove(&hits, &payload, &self.alpha, &mut self.cs);
            }
        }
    }

    fn conflict_set(&mut self) -> &ConflictSet {
        &self.cs
    }

    fn drain_cs_events(&mut self) -> Option<Vec<CsEvent>> {
        self.cs.drain_journal_or_enable()
    }

    fn metrics(&self) -> crate::MatcherMetrics {
        let mut m = crate::MatcherMetrics {
            kind: "rete",
            rules: self.nets.len(),
            conflict_set: self.cs.len(),
            alpha_nodes: self.alpha.node_count(),
            alpha_subscriptions: self.alpha.subscription_count(),
            alpha_share_hits: self.alpha.share_hits(),
            ..Default::default()
        };
        for net in &self.nets {
            for level in &net.levels {
                // Per-subscription accounting (a shared node counts once
                // per subscribing level), so `alpha_wmes` and the
                // imbalance signal keep their pre-sharing values.
                m.alpha_wmes += self.alpha.members(level.node).len();
                m.beta_tokens += level.tokens.len();
                m.negative_counts += level.neg_counts.len();
            }
        }
        m
    }

    fn replace_rules(
        &mut self,
        program: &Arc<Program>,
        remove: &[RuleId],
        add: &[RuleId],
        _wm: &WorkingMemory,
    ) -> bool {
        for &rid in remove {
            let mut i = 0;
            while i < self.nets.len() {
                if self.nets[i].rule != rid {
                    i += 1;
                    continue;
                }
                let net = self.nets.remove(i);
                // Release the shared subscriptions; nodes still used by
                // other rules (a split rule's unchanged CEs) survive with
                // their membership intact.
                for (k, level) in net.levels.iter().enumerate() {
                    self.alpha.unsubscribe_index(level.node, &level.slots);
                    self.alpha.unsubscribe(level.node, net.rule, k);
                }
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
            // build_net batch-derives the new net's tokens from the shared
            // store — no per-WME replay of working memory.
            let net = build_net(program, rid, &mut self.alpha, &mut self.cs);
            self.nets.push(net);
        }
        // Net order is not semantically observable (the conflict set is a
        // set), but keep it sorted so metrics read deterministically.
        self.nets.sort_by_key(|n| n.rule);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_core::WorkingMemory;
    use parulel_lang::compile;

    fn prog(src: &str) -> Arc<Program> {
        Arc::new(compile(src).unwrap())
    }

    #[test]
    fn join_add_and_remove() {
        let p = prog(
            "(literalize edge from to)
             (p hop (edge ^from <a> ^to <b>) (edge ^from <b> ^to <c>) --> (halt))",
        );
        let mut wm = WorkingMemory::new(&p.classes);
        let edge = p.classes.id_of(p.interner.intern("edge")).unwrap();
        let mut m = Rete::new(p.clone());
        let e1 = wm.insert(edge, vec![Value::Int(1), Value::Int(2)]);
        let e2 = wm.insert(edge, vec![Value::Int(2), Value::Int(3)]);
        m.add_wme(&e1);
        assert_eq!(m.conflict_set().len(), 0);
        m.add_wme(&e2);
        assert_eq!(m.conflict_set().len(), 1);
        let e3 = wm.insert(edge, vec![Value::Int(3), Value::Int(1)]);
        m.add_wme(&e3);
        assert_eq!(m.conflict_set().len(), 3); // 1-2-3, 2-3-1, 3-1-2
        m.remove_wme(&e2);
        assert_eq!(m.conflict_set().len(), 1); // only 3-1-2 survives
        m.remove_wme(&e3);
        assert_eq!(m.conflict_set().len(), 0);
    }

    #[test]
    fn negative_node_blocks_and_reactivates() {
        let p = prog(
            "(literalize task id)
             (literalize lock id)
             (p free (task ^id <t>) -(lock ^id <t>) --> (halt))",
        );
        let mut wm = WorkingMemory::new(&p.classes);
        let task = p.classes.id_of(p.interner.intern("task")).unwrap();
        let lock = p.classes.id_of(p.interner.intern("lock")).unwrap();
        let mut m = Rete::new(p.clone());
        let t = wm.insert(task, vec![Value::Int(7)]);
        m.add_wme(&t);
        assert_eq!(m.conflict_set().len(), 1);
        let l = wm.insert(lock, vec![Value::Int(7)]);
        m.add_wme(&l);
        assert_eq!(m.conflict_set().len(), 0);
        let l2 = wm.insert(lock, vec![Value::Int(7)]);
        m.add_wme(&l2);
        m.remove_wme(&l);
        assert_eq!(m.conflict_set().len(), 0, "second lock still blocks");
        m.remove_wme(&l2);
        assert_eq!(m.conflict_set().len(), 1, "last blocker gone");
    }

    #[test]
    fn leading_negative_ce() {
        let p = prog(
            "(literalize flag)
             (literalize item id)
             (p quiet -(flag) (item ^id <i>) --> (halt))",
        );
        let mut wm = WorkingMemory::new(&p.classes);
        let flag = p.classes.id_of(p.interner.intern("flag")).unwrap();
        let item = p.classes.id_of(p.interner.intern("item")).unwrap();
        let mut m = Rete::new(p.clone());
        let it = wm.insert(item, vec![Value::Int(1)]);
        m.add_wme(&it);
        assert_eq!(m.conflict_set().len(), 1);
        let f = wm.insert(flag, vec![]);
        m.add_wme(&f);
        assert_eq!(m.conflict_set().len(), 0);
        m.remove_wme(&f);
        assert_eq!(m.conflict_set().len(), 1);
    }

    #[test]
    fn anchored_tests_filter_joins() {
        let p = prog(
            "(literalize n v)
             (p asc (n ^v <a>) (n ^v <b>) (test (< <a> <b>)) --> (halt))",
        );
        let mut wm = WorkingMemory::new(&p.classes);
        let n = p.classes.id_of(p.interner.intern("n")).unwrap();
        let mut m = Rete::new(p.clone());
        for v in [3, 1, 2] {
            let w = wm.insert(n, vec![Value::Int(v)]);
            m.add_wme(&w);
        }
        // ascending pairs of distinct values: (1,2) (1,3) (2,3)
        assert_eq!(m.conflict_set().len(), 3);
    }

    #[test]
    fn seed_order_does_not_matter() {
        let p = prog(
            "(literalize e a b)
             (p r (e ^a <x> ^b <y>) (e ^a <y> ^b <x>) -(e ^a <x> ^b <x>) --> (halt))",
        );
        let e = p.classes.id_of(p.interner.intern("e")).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let wmes: Vec<Wme> = vec![
            wm.insert(e, vec![Value::Int(1), Value::Int(2)]),
            wm.insert(e, vec![Value::Int(2), Value::Int(1)]),
            wm.insert(e, vec![Value::Int(1), Value::Int(1)]),
            wm.insert(e, vec![Value::Int(3), Value::Int(3)]),
        ];
        // All 4! insertion orders must agree.
        let mut reference: Option<Vec<InstKey>> = None;
        let orders = permutations(&[0, 1, 2, 3]);
        for order in orders {
            let mut m = Rete::new(p.clone());
            for &i in &order {
                m.add_wme(&wmes[i]);
            }
            let keys = m.conflict_set().sorted_keys();
            match &reference {
                None => reference = Some(keys),
                Some(r) => assert_eq!(&keys, r, "order {order:?} diverged"),
            }
        }
    }

    fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        let mut out = Vec::new();
        for (i, &x) in items.iter().enumerate() {
            let mut rest = items.to_vec();
            rest.remove(i);
            for mut p in permutations(&rest) {
                p.insert(0, x);
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn reactivation_cascade_into_fresh_negative_counts() {
        // Regression: removing one WME that blocks at TWO negative levels.
        // Re-activation at the shallow level cascades a *fresh* input
        // token into the deep level, whose count (computed after the
        // removal) must not be decremented again when the deep level's
        // own re-activation pass runs.
        let p = prog(
            "(literalize a x)
             (literalize b x)
             (literalize c x)
             (p r (a ^x <v>) -(b ^x <v>) (c ^x <v>) -(b ^x <v>) --> (halt))",
        );
        let a = p.classes.id_of(p.interner.intern("a")).unwrap();
        let b = p.classes.id_of(p.interner.intern("b")).unwrap();
        let c = p.classes.id_of(p.interner.intern("c")).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let mut m = Rete::new(p.clone());
        let wa = wm.insert(a, vec![Value::Int(1)]);
        let wc = wm.insert(c, vec![Value::Int(1)]);
        let wb = wm.insert(b, vec![Value::Int(1)]);
        for w in [&wa, &wc, &wb] {
            m.add_wme(w);
        }
        assert_eq!(m.conflict_set().len(), 0, "blocked by b");
        // Removing the blocker must re-activate through BOTH negative
        // levels without panicking or double-decrementing.
        m.remove_wme(&wb);
        assert_eq!(m.conflict_set().len(), 1);
        // And re-adding it must retract again. Both negative levels share
        // one alpha node here, so this also exercises the add-side
        // snapshot discipline.
        m.add_wme(&wb);
        assert_eq!(m.conflict_set().len(), 0);
    }

    #[test]
    fn join_across_int_and_float_values() {
        // Int(2) and Float(2.0) are matches_eq-equal; the hash join must
        // not lose the pair to differing key hashes.
        let p = prog(
            "(literalize a x)
             (literalize b y)
             (p r (a ^x <v>) (b ^y <v>) --> (halt))",
        );
        let a = p.classes.id_of(p.interner.intern("a")).unwrap();
        let b = p.classes.id_of(p.interner.intern("b")).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let mut m = Rete::new(p.clone());
        let w1 = wm.insert(a, vec![Value::Int(2)]);
        let w2 = wm.insert(b, vec![Value::Float(2.0)]);
        m.add_wme(&w1);
        m.add_wme(&w2);
        assert_eq!(m.conflict_set().len(), 1);
        m.remove_wme(&w2);
        assert_eq!(m.conflict_set().len(), 0);
    }

    #[test]
    fn add_then_remove_returns_to_empty_state() {
        let p = prog(
            "(literalize a x)
             (literalize b y)
             (p r (a ^x <v>) -(b ^y <v>) (a ^x { > 0 }) --> (halt))",
        );
        let a = p.classes.id_of(p.interner.intern("a")).unwrap();
        let b = p.classes.id_of(p.interner.intern("b")).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let mut m = Rete::new(p.clone());
        let w1 = wm.insert(a, vec![Value::Int(5)]);
        let w2 = wm.insert(a, vec![Value::Int(-1)]);
        let w3 = wm.insert(b, vec![Value::Int(5)]);
        for w in [&w1, &w2, &w3] {
            m.add_wme(w);
        }
        for w in [&w1, &w2, &w3] {
            m.remove_wme(w);
        }
        assert_eq!(m.conflict_set().len(), 0);
        assert_eq!(m.alpha.store_len(), 0, "arena did not drain");
        for net in &m.nets {
            for (k, level) in net.levels.iter().enumerate() {
                assert!(
                    m.alpha.members(level.node).is_empty(),
                    "level {k} node membership not empty"
                );
                assert!(level.tokens.is_empty(), "level {k} tokens not empty");
                assert!(level.by_wme.is_empty(), "level {k} wme index leaked");
                assert!(level.children.is_empty(), "level {k} child index leaked");
                // The only permanent entry is the root token registered as
                // level 0's input (plus its count when level 0 is
                // negative) — everything else must drain.
                if k == 0 {
                    let entries: usize = level.left_index.values().map(|b| b.len()).sum();
                    assert_eq!(entries, 1, "level 0 must keep exactly the root input");
                    assert!(
                        level.left_index.values().flatten().all(|t| t.is_empty()),
                        "level 0 left input is not the root token"
                    );
                    let want_counts = usize::from(level.is_negative());
                    assert_eq!(level.neg_counts.len(), want_counts, "level 0 neg_counts");
                } else {
                    assert!(level.left_index.is_empty(), "level {k} left index leaked");
                    assert!(level.neg_counts.is_empty(), "level {k} neg counts leaked");
                }
            }
        }
        m.check_invariants();
    }

    #[test]
    fn replace_rules_swap_matches_fresh_build() {
        let p = prog(
            "(literalize edge from to)
             (p hop (edge ^from <a> ^to <b>) (edge ^from <b> ^to <c>) --> (halt))",
        );
        let mut wm = WorkingMemory::new(&p.classes);
        let edge = p.classes.id_of(p.interner.intern("edge")).unwrap();
        for (a, b) in [(1, 2), (2, 3), (3, 1)] {
            wm.insert(edge, vec![Value::Int(a), Value::Int(b)]);
        }
        let mut m = Rete::new(p.clone());
        for w in wm.iter() {
            m.add_wme(w);
        }
        let want = m.conflict_set().sorted_keys();
        assert!(m.replace_rules(&p, &[RuleId(0)], &[RuleId(0)], &wm));
        assert_eq!(m.conflict_set().sorted_keys(), want);
        m.check_invariants();
    }

    #[test]
    fn identical_ces_share_alpha_nodes_across_rules() {
        // Three rules, all over class `n` with the same constant test on
        // one CE: the network keeps one node per distinct key and reports
        // fan-out, without changing the conflict set.
        let src = "(literalize n v w)
             (p r1 (n ^v 1 ^w <x>) (n ^v 1 ^w <y>) --> (halt))
             (p r2 (n ^v 1 ^w <x>) --> (halt))
             (p r3 (n ^v 2 ^w <x>) --> (halt))";
        let p = prog(src);
        let n = p.classes.id_of(p.interner.intern("n")).unwrap();
        let mut shared = Rete::new(p.clone());
        let mut oracle = crate::NaiveMatcher::new(p.clone());
        let mut wm = WorkingMemory::new(&p.classes);
        for v in [1, 1, 2] {
            let w = wm.insert(n, vec![Value::Int(v), Value::Int(0)]);
            shared.add_wme(&w);
            oracle.add_wme(&w);
        }
        assert_eq!(
            shared.conflict_set().sorted_keys(),
            oracle.conflict_set().sorted_keys(),
            "sharing must not change the conflict set"
        );
        let ms = shared.metrics();
        assert_eq!(ms.alpha_subscriptions, 4, "4 (rule, CE) endpoints");
        assert_eq!(ms.alpha_nodes, 2, "deduped to 2 distinct keys");
        assert!(ms.alpha_share_hits > 0, "fan-out was recorded");
        assert_eq!(
            ms.alpha_wmes, 7,
            "per-subscription accounting: 2 + 2 + 2 members at v=1, 1 at v=2"
        );
        shared.check_invariants();
    }
}
