//! The incremental matcher: one shared alpha network, one conflict set,
//! and per rule either saved beta memories (RETE, Forgy 1982) or a bare
//! join plan re-walked on demand (TREAT, Miranker 1987).
//!
//! Every rule has a `JoinPlan` over the crate-wide [`AlphaNetwork`], and
//! every join is a kernel `Walk` from [`crate::enumerate`]. The shared
//! layer is one copy for both kinds of rule: an added WME enters every
//! node it passes *before* any delivery (so self-joins find it), and the
//! entered nodes' (rule, CE) endpoints route it to the rules it can reach,
//! hit CE positions ascending; a removal routes the nodes it left. Reload
//! ([`Matcher::replace_rules`]) unsubscribes removed rules and builds
//! added ones from the shared store with one walk. What a rule keeps
//! between changes decides only its delivery; the presets
//! [`Incremental::rete`] and [`Incremental::treat`] choose it once per
//! matcher.
//!
//! ## Saved: beta memories (the RETE preset)
//!
//! One set of beta memories per CE ("level" *k*):
//!
//! * A **token** is a consistent match of the first *k* CEs: the matched
//!   positive WMEs (as arena handles — 8 bytes each, no `Arc` chasing),
//!   their ids (the token key), and the variable bindings. The kernel
//!   walk reports every token it builds; the rule files it in `tokens`,
//!   the removal index `by_wme` and the cascade index `children`, and
//!   prunes the walk at a token it already holds.
//! * A token entering level *k* is filed in `left_index` under its
//!   env-key probe values, so an added or removed WME finds the inputs it
//!   joins with. A left activation resumes the walk at the level after a
//!   new token; a right activation resumes it at level *k* from each
//!   stored input, with CE *k* pinned to the new WME.
//! * Negative levels are **counted**: for each input token the level
//!   stores how many alpha WMEs block it; the token passes through while
//!   the count is zero. Adding a blocker retracts the downstream tokens;
//!   removing the last blocker resumes the walk past the level.
//! * The last level's tokens are the rule's instantiations, maintained
//!   directly in the [`ConflictSet`].
//!
//! Because the shared network inserts membership *before* any beta
//! delivery, tokens created during an add compute negative counts that
//! already include the new WME. Delivery therefore increments only input
//! tokens that predate the add; tokens created (or re-created) mid-add
//! always carry the new WME's id, which no older token can, so the two
//! sets are provably disjoint and nothing is double-counted.
//!
//! ## Re-walked: the conflict set is the only join state (the TREAT preset)
//!
//! * **Add** — for each positive CE position hit, the rule is enumerated
//!   with that position pinned to the new WME, through the plan's pinned
//!   key plans (so only matches involving it are computed: a new `sell`
//!   pinned at CE 1 probes the `buy` index on `sym` rather than scanning
//!   every buy). If a *negative* CE's node was entered, existing
//!   instantiations the new WME blocks there are deleted.
//! * **Remove** — one sweep deletes every conflict-set entry that
//!   positively matched the WME (O(conflict set), which is exactly TREAT's
//!   bet: conflict sets are small). If it left a negative CE's node, the
//!   rule is re-enumerated (some matches it was blocking may now exist).
//!
//! Re-walking trades join *recomputation* on adds for zero beta-memory
//! maintenance — historically a good trade for remove-heavy OPS5
//! programs. Figure 2 of the reproduction measures this trade.

use crate::alpha::{AlphaNetwork, KeyVals, NodeId};
use crate::arena::WmeRef;
use crate::enumerate::{Indexed, JoinPlan, Sink, Walk};
use crate::{Matcher, MatcherMetrics};
use parulel_core::{
    ConflictSet, CsEvent, FxHashMap, FxHashSet, InstKey, Instantiation, Program, RuleId, Value,
    Wme, WmeId,
};
use std::sync::Arc;

type TokKey = Arc<[WmeId]>;

/// A partial match: the first `k` CEs of a rule, satisfied consistently.
#[derive(Debug)]
struct Token {
    /// Ids of the positive WMEs matched so far (the identity).
    key: TokKey,
    /// Arena handles of the matched positive WMEs — payloads stay in the
    /// shared store, tokens carry 8-byte refs.
    wmes: Vec<WmeRef>,
    /// Variable bindings (full rule width).
    env: Box<[Value]>,
}

/// One level's beta memories.
#[derive(Default)]
struct Level {
    /// Input tokens (previous level's outputs) indexed by this level's
    /// env-key probe values.
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

/// One rule's beta network: its join plan plus one level per CE.
struct RuleNet {
    plan: JoinPlan,
    levels: Vec<Level>,
    root: Token,
}

impl RuleNet {
    /// Subscribes `rid`'s plan to the shared network and derives its
    /// complete token set from the current store with one walk from the
    /// root (no per-WME replay). On an empty store this leaves only the
    /// root input; on a live store it hands `replace_rules` a seeded net.
    fn build(
        program: &Program,
        rid: RuleId,
        alpha: &mut AlphaNetwork,
        cs: &mut ConflictSet,
    ) -> Self {
        let rule = program.rule(rid);
        let mut net = RuleNet {
            plan: JoinPlan::subscribe(alpha, rule, false),
            levels: rule.ces.iter().map(|_| Level::default()).collect(),
            root: Token {
                key: TokKey::default(),
                wmes: Vec::new(),
                env: vec![Value::NIL; rule.num_vars as usize].into(),
            },
        };
        let mut beta = net.beta(cs);
        let src = Indexed {
            plan: beta.plan,
            alpha,
            pin: None,
        };
        Walk::new(beta.plan.rule(), &src).enter(&mut beta);
        net
    }

    /// The net's memories, borrowed beside its plan and `cs`.
    fn beta<'a>(&'a mut self, cs: &'a mut ConflictSet) -> Beta<'a> {
        Beta {
            plan: &self.plan,
            levels: &mut self.levels,
            root: &self.root,
            cs,
        }
    }

    /// Verifies every cross-index of the net agrees with the others, with
    /// the shared store and with the conflict set. Panics with a
    /// description on violation.
    fn check_invariants(&self, alpha: &AlphaNetwork, cs: &ConflictSet) {
        let rule = self.plan.rule().id.0;
        for (k, level) in self.levels.iter().enumerate() {
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
                    let wme = (alpha.try_wme(wref))
                        .unwrap_or_else(|| panic!("r{rule} L{k}: token holds stale ref"));
                    assert_eq!(wme.id, *id, "r{rule} L{k}: token ref/id mismatch");
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
                        &parent_key(&self.plan, k, kid),
                        parent,
                        "r{rule} L{k}: child filed under wrong parent"
                    );
                }
            }
            // Left inputs are live tokens of the previous level (or
            // the permanent root entry at level 0), filed under their
            // probe values.
            let mut left_keys: FxHashSet<&TokKey> = FxHashSet::default();
            for (kv, bucket) in &level.left_index {
                assert!(!bucket.is_empty(), "r{rule} L{k}: empty left bucket");
                for tkey in bucket {
                    let tok = match k {
                        0 => tkey.is_empty().then_some(&self.root),
                        _ => self.levels[k - 1].tokens.get(tkey),
                    };
                    let tok =
                        tok.unwrap_or_else(|| panic!("r{rule} L{k}: left input not live upstream"));
                    assert_eq!(
                        &self.plan.env_key(k, &tok.env),
                        kv,
                        "r{rule} L{k}: left input under wrong key"
                    );
                    left_keys.insert(tkey);
                }
            }
            if self.plan.negative(k) {
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
        let id = self.plan.rule().id;
        let last = self.levels.last().expect("every rule has a CE");
        for key in last.tokens.keys() {
            let ik = InstKey {
                rule: id,
                wmes: key.clone(),
            };
            assert!(
                cs.contains(&ik),
                "r{rule}: final token missing from conflict set"
            );
        }
        let in_cs = cs.iter().filter(|i| i.rule == id).count();
        assert_eq!(
            in_cs,
            last.tokens.len(),
            "r{rule}: conflict set/final level desync"
        );
    }
}

/// A rule net's beta memories and the conflict set: the sink the saved
/// path's kernel walks file tokens into.
struct Beta<'a> {
    plan: &'a JoinPlan,
    levels: &'a mut [Level],
    root: &'a Token,
    cs: &'a mut ConflictSet,
}

impl Sink<WmeRef> for Beta<'_> {
    type Tok = TokKey;
    const COUNTS: bool = true;

    fn token(
        &mut self,
        k: usize,
        parent: &TokKey,
        refs: &[WmeRef],
        wmes: &[&Wme],
        env: &[Value],
    ) -> Option<TokKey> {
        // A positive level extends the parent's key by one id; a negative
        // level passes the parent through.
        let key: TokKey = if refs.len() > parent.len() {
            parent
                .iter()
                .copied()
                .chain(wmes.last().map(|w| w.id))
                .collect()
        } else {
            parent.clone()
        };
        let level = &mut self.levels[k];
        if level.tokens.contains_key(&key) {
            return None; // already present: its subtree is already built
        }
        let tok = Token {
            key: key.clone(),
            wmes: refs.to_vec(),
            env: env.into(),
        };
        level.tokens.insert(key.clone(), tok);
        for id in key.iter() {
            level.by_wme.entry(*id).or_default().insert(key.clone());
        }
        level
            .children
            .entry(parent.clone())
            .or_default()
            .insert(key.clone());
        if k + 1 == self.levels.len() {
            // The only place full WME payloads are cloned: materializing
            // the instantiation handed to the conflict set.
            let wmes: Vec<Wme> = wmes.iter().map(|&w| w.clone()).collect();
            self.cs
                .insert(Instantiation::new(self.plan.rule().id, wmes, env));
        }
        Some(key)
    }

    fn input(&mut self, k: usize, tok: &TokKey, env: &[Value]) {
        let kv = self.plan.env_key(k, env);
        self.levels[k]
            .left_index
            .entry(kv)
            .or_default()
            .insert(tok.clone());
    }

    fn blockers(&mut self, k: usize, tok: &TokKey, n: u32) {
        self.levels[k].neg_counts.insert(tok.clone(), n);
    }
}

/// Removes `key` from `map[at]`, dropping the bucket once it is empty.
fn unfile<K: std::hash::Hash + Eq>(
    map: &mut FxHashMap<K, FxHashSet<TokKey>>,
    at: &K,
    key: &TokKey,
) {
    if let Some(set) = map.get_mut(at) {
        set.remove(key);
        if set.is_empty() {
            map.remove(at);
        }
    }
}

/// The input-token key an output token at level `k` derives from.
fn parent_key(plan: &JoinPlan, k: usize, key: &TokKey) -> TokKey {
    match plan.negative(k) {
        true => key.clone(),
        false => key[..key.len() - 1].into(),
    }
}

impl Beta<'_> {
    /// The input token of level `k` with `key`, if still live.
    fn input_token(&self, k: usize, key: &TokKey) -> Option<&Token> {
        match k {
            0 => key.is_empty().then_some(self.root),
            _ => self.levels[k - 1].tokens.get(key),
        }
    }

    /// The live inputs of level `k` that `wme` may join with or block.
    fn left_inputs(&self, k: usize, wme: &Wme) -> Vec<TokKey> {
        let bucket = self.levels[k].left_index.get(&self.plan.wme_key(k, wme));
        bucket
            .map(|b| b.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Removes the output token with `key` from level `k`, cascading into
    /// deeper levels and the conflict set. Tolerates already-absent keys.
    fn remove_output(&mut self, k: usize, key: &TokKey) {
        let Some(tok) = self.levels[k].tokens.remove(key) else {
            return;
        };
        for id in tok.key.iter() {
            unfile(&mut self.levels[k].by_wme, id, key);
        }
        let parent = parent_key(self.plan, k, key);
        unfile(&mut self.levels[k].children, &parent, key);
        if k + 1 == self.levels.len() {
            self.cs.remove(&InstKey {
                rule: self.plan.rule().id,
                wmes: tok.key,
            });
            return;
        }
        let next = k + 1;
        let kv = self.plan.env_key(next, &tok.env);
        unfile(&mut self.levels[next].left_index, &kv, key);
        self.levels[next].neg_counts.remove(key);
        // Cascade: every output at the next level derived from this token.
        if let Some(kids) = self.levels[next].children.get(key) {
            for v in kids.iter().cloned().collect::<Vec<_>>() {
                self.remove_output(next, &v);
            }
        }
    }

    /// Adds `delta` to negative level `k`'s count for input `tkey` when
    /// `wme` blocks it; returns the new count, or `None` if it does not.
    fn recount(&mut self, k: usize, tkey: &TokKey, wme: &Wme, delta: i32) -> Option<u32> {
        let tok = self.input_token(k, tkey)?;
        if !self.plan.blocks(k, &tok.env, wme) {
            return None;
        }
        let count = (self.levels[k].neg_counts.get_mut(tkey))
            .expect("input token without a negative count");
        *count = count
            .checked_add_signed(delta)
            .expect("negative count out of range");
        Some(*count)
    }

    /// Beta delivery for one added WME, at the levels (`hits`, ascending)
    /// whose shared alpha nodes it entered.
    fn deliver_add(&mut self, hits: &[usize], wref: WmeRef, wme: &Wme, alpha: &AlphaNetwork) {
        // Node membership was updated before delivery, so any token
        // created from here on computes counts that already include the
        // new WME. Those freshly-built tokens are exactly the ones whose
        // key carries the new WME's id (every insert during an add
        // delivery descends from an extension with it, and the id is
        // fresh), so they are skipped by inspecting the key — tokens that
        // predate the add cannot reference the id. No per-delivery
        // snapshot of the count table is needed.
        for &k in hits {
            let left = self.left_inputs(k, wme);
            if self.plan.negative(k) {
                for tkey in left.iter().filter(|t| !t.contains(&wme.id)) {
                    if self.recount(k, tkey, wme, 1) == Some(1) {
                        self.remove_output(k, tkey);
                    }
                }
                continue;
            }
            // Right activation: each input resumes the walk at level k
            // with the CE pinned to the new WME.
            let plan = self.plan;
            let src = Indexed {
                plan,
                alpha,
                pin: Some((k, wref)),
            };
            let mut walk = Walk::new(plan.rule(), &src);
            for tkey in left {
                let Some(tok) = self.input_token(k, &tkey) else {
                    continue;
                };
                walk.load(&tok.wmes, &tok.env);
                walk.step(k, &tkey, self);
            }
        }
    }

    /// Beta retraction for one removed WME (already gone from the shared
    /// store), at the levels whose nodes it left.
    fn deliver_remove(&mut self, hits: &[usize], wme: &Wme, alpha: &AlphaNetwork) {
        // 1. Retract every token that positively matched the WME, straight
        //    from the per-WME index; scanning shallow-to-deep lets the
        //    cascade do most of the work (deeper entries are usually gone
        //    by the time their level is reached). This phase only removes,
        //    never inserts.
        for k in 0..self.levels.len() {
            let victims: Vec<TokKey> = (self.levels[k].by_wme.get(&wme.id))
                .map(|set| set.iter().cloned().collect())
                .unwrap_or_default();
            for v in victims {
                self.remove_output(k, &v);
            }
        }
        // 2. Negative re-activation, deepest level first: live input
        //    tokens that were blocked only by this WME resume the walk
        //    past their level. A re-activation at level k only inserts
        //    tokens at levels deeper than k — whose counts are computed
        //    fresh from the already-shrunk membership and must not be
        //    decremented — and deepest-first ordering guarantees those
        //    levels were already handled, so every entry seen here
        //    predates the delivery and its count included the WME.
        let plan = self.plan;
        let src = Indexed {
            plan,
            alpha,
            pin: None,
        };
        for &k in hits.iter().rev().filter(|&&k| plan.negative(k)) {
            let mut walk = Walk::new(plan.rule(), &src);
            for tkey in self.left_inputs(k, wme) {
                if self.recount(k, &tkey, wme, -1) == Some(0) {
                    let tok = self.input_token(k, &tkey).expect("counted input is live");
                    walk.load(&tok.wmes, &tok.env);
                    walk.pass(k, &tkey, self);
                }
            }
        }
    }
}

/// Inserts every instantiation of `plan`'s rule into `cs`, only those
/// using the pinned WME if `pin` is given.
fn insert_matches(
    plan: &JoinPlan,
    alpha: &AlphaNetwork,
    pin: Option<(usize, WmeRef)>,
    cs: &mut ConflictSet,
) {
    let mut found = Vec::new();
    plan.enumerate(alpha, pin, &mut found);
    for inst in found {
        cs.insert(inst);
    }
}

/// Re-walked delivery for one added WME, at the CE positions (`hits`,
/// ascending) whose shared alpha nodes it entered.
fn rewalk_add(
    plan: &JoinPlan,
    hits: &[usize],
    wref: WmeRef,
    wme: &Wme,
    alpha: &AlphaNetwork,
    cs: &mut ConflictSet,
) {
    for &p in hits.iter().filter(|&&p| !plan.negative(p)) {
        insert_matches(plan, alpha, Some((p, wref)), cs);
    }
    // The new WME may block existing instantiations: one dies if the
    // blocker is consistent with its bindings at a negative CE whose node
    // the WME entered.
    let blocks = |env: &[Value]| {
        hits.iter()
            .any(|&k| plan.negative(k) && plan.blocks(k, env, wme))
    };
    if hits.iter().any(|&k| plan.negative(k)) {
        let victims: Vec<InstKey> = (cs.iter())
            .filter(|i| i.rule == plan.rule().id && blocks(&i.env))
            .map(|i| i.key())
            .collect();
        for k in victims {
            cs.remove(&k);
        }
    }
}

/// What one rule keeps between changes.
enum RuleState {
    /// Saved beta memories: the rule's net.
    Saved(RuleNet),
    /// Nothing but the conflict set: a bare plan with pinned key plans,
    /// re-walked on every change.
    Rewalk(JoinPlan),
}

impl RuleState {
    /// Subscribes `rid` under `preset` and seeds it from the shared store.
    fn build(
        preset: Preset,
        program: &Program,
        rid: RuleId,
        alpha: &mut AlphaNetwork,
        cs: &mut ConflictSet,
    ) -> Self {
        match preset {
            Preset::Rete => RuleState::Saved(RuleNet::build(program, rid, alpha, cs)),
            Preset::Treat => {
                let plan = JoinPlan::subscribe(alpha, program.rule(rid), true);
                insert_matches(&plan, alpha, None, cs);
                RuleState::Rewalk(plan)
            }
        }
    }

    fn plan(&self) -> &JoinPlan {
        match self {
            RuleState::Saved(net) => &net.plan,
            RuleState::Rewalk(plan) => plan,
        }
    }

    fn rule(&self) -> RuleId {
        self.plan().rule().id
    }
}

/// The per-rule state a matcher's rules keep, chosen once per matcher.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Preset {
    /// Every rule saves beta memories.
    Rete,
    /// Every rule is re-walked.
    Treat,
}

/// Groups the endpoints of `nodes` by rule, yielding each rule's hit CE
/// positions sorted ascending (the shallow-to-deep delivery order the
/// beta pass relies on).
fn hits_by_rule(alpha: &AlphaNetwork, nodes: &[NodeId]) -> FxHashMap<RuleId, Vec<usize>> {
    let mut by_rule: FxHashMap<RuleId, Vec<usize>> = FxHashMap::default();
    for &nid in nodes {
        for ep in alpha.endpoints(nid) {
            by_rule.entry(ep.rule).or_default().push(ep.ce as usize);
        }
    }
    for hits in by_rule.values_mut() {
        hits.sort_unstable();
    }
    by_rule
}

/// The incremental matcher: the shared alpha network, the conflict set,
/// and each covered rule's state (saved beta memories or a re-walked
/// plan), in rule order.
pub struct Incremental {
    preset: Preset,
    alpha: AlphaNetwork,
    rules: Vec<RuleState>,
    cs: ConflictSet,
    /// Lifetime count of full per-rule re-enumerations (the remove-side
    /// cost a re-walked rule pays when a negative blocker disappears).
    reenumerations: u64,
}

impl Incremental {
    /// The RETE preset over every rule of `program`: every rule saves
    /// beta memories.
    pub fn rete(program: Arc<Program>) -> Self {
        let rules = (0..program.rules().len() as u32).map(RuleId).collect();
        Self::with_rules(program, rules, Preset::Rete)
    }

    /// The TREAT preset over every rule of `program`: every rule is
    /// re-walked, and the conflict set is the only join state.
    pub fn treat(program: Arc<Program>) -> Self {
        let rules = (0..program.rules().len() as u32).map(RuleId).collect();
        Self::with_rules(program, rules, Preset::Treat)
    }

    /// A matcher over a subset of `program`'s rules (the partitioned
    /// matcher's workers use this).
    pub(crate) fn with_rules(program: Arc<Program>, rules: Vec<RuleId>, preset: Preset) -> Self {
        let mut alpha = AlphaNetwork::new(program.classes.len());
        let mut cs = ConflictSet::new();
        let rules = (rules.into_iter())
            .map(|rid| RuleState::build(preset, &program, rid, &mut alpha, &mut cs))
            .collect();
        Incremental {
            preset,
            alpha,
            rules,
            cs,
            reenumerations: 0,
        }
    }

    /// Verifies the shared layer and every rule's subscriptions agree
    /// (`conflict_set()` runs this in debug builds).
    fn check_shared(&self) {
        // Store/node/index/refcount agreement inside the shared layer.
        self.alpha.check_invariants();
        for rule in &self.rules {
            rule.plan().check_invariants(&self.alpha);
        }
    }

    /// Verifies every cross-index of the matcher agrees: the shared layer,
    /// every rule's subscriptions and every saved net's beta memories
    /// against the conflict set (the differential suite calls this after
    /// each batch so index leaks/desyncs surface at the op that caused
    /// them, not as a wrong conflict set much later). Panics with a
    /// description on violation.
    pub fn check_invariants(&self) {
        self.check_shared();
        for rule in &self.rules {
            if let RuleState::Saved(net) = rule {
                net.check_invariants(&self.alpha, &self.cs);
            }
        }
    }
}

impl Matcher for Incremental {
    fn add_wme(&mut self, wme: &Wme) {
        let (wref, entered) = self.alpha.add(wme);
        let mut by_rule = hits_by_rule(&self.alpha, &entered);
        for rule in &mut self.rules {
            let Some(hits) = by_rule.remove(&rule.rule()) else {
                continue;
            };
            match rule {
                RuleState::Saved(net) => {
                    net.beta(&mut self.cs)
                        .deliver_add(&hits, wref, wme, &self.alpha)
                }
                RuleState::Rewalk(plan) => {
                    rewalk_add(plan, &hits, wref, wme, &self.alpha, &mut self.cs)
                }
            }
        }
    }

    fn remove_wme(&mut self, wme: &Wme) {
        let Some((payload, left)) = self.alpha.remove(wme.id) else {
            return; // never added — nothing can reference it
        };
        let mut by_rule = hits_by_rule(&self.alpha, &left);
        let mut swept = false;
        for rule in &mut self.rules {
            let Some(hits) = by_rule.remove(&rule.rule()) else {
                continue;
            };
            match rule {
                RuleState::Saved(net) => {
                    net.beta(&mut self.cs)
                        .deliver_remove(&hits, &payload, &self.alpha)
                }
                RuleState::Rewalk(plan) => {
                    // One sweep per removal drops every entry that used
                    // the WME, whichever rule it belongs to; a saved net's
                    // own retraction then finds its entries already gone.
                    if !std::mem::replace(&mut swept, true) {
                        self.cs.retract_wme(wme.id);
                    }
                    // A negative CE lost a member, so the rule may gain
                    // matches: drop its entries and re-derive them.
                    if hits.iter().any(|&k| plan.negative(k)) {
                        self.reenumerations += 1;
                        self.cs.retract_rule(plan.rule().id);
                        insert_matches(plan, &self.alpha, None, &mut self.cs);
                    }
                }
            }
        }
    }

    fn conflict_set(&mut self) -> &ConflictSet {
        // Debug builds re-verify the shared network and every rule's
        // subscriptions once per read (once per engine cycle).
        #[cfg(debug_assertions)]
        self.check_shared();
        &self.cs
    }

    fn drain_cs_events(&mut self) -> Option<Vec<CsEvent>> {
        self.cs.drain_journal_or_enable()
    }

    fn metrics(&self) -> MatcherMetrics {
        let mut m = MatcherMetrics {
            kind: match self.preset {
                Preset::Rete => "rete",
                Preset::Treat => "treat",
            },
            rules: self.rules.len(),
            conflict_set: self.cs.len(),
            alpha_nodes: self.alpha.node_count(),
            alpha_subscriptions: self.alpha.subscription_count(),
            alpha_share_hits: self.alpha.share_hits(),
            reenumerations: self.reenumerations,
            ..Default::default()
        };
        for rule in &self.rules {
            // Per-subscription accounting (a shared node counts once per
            // subscribing CE), so `alpha_wmes` and the imbalance signal
            // keep their pre-sharing values.
            m.alpha_wmes += rule.plan().alpha_wmes(&self.alpha);
            if let RuleState::Saved(net) = rule {
                for level in &net.levels {
                    m.beta_tokens += level.tokens.len();
                    m.negative_counts += level.neg_counts.len();
                }
            }
        }
        m
    }

    fn replace_rules(&mut self, program: &Arc<Program>, remove: &[RuleId], add: &[RuleId]) -> bool {
        for &rid in remove {
            // Nodes still subscribed by other rules (a split rule's
            // unchanged CEs) survive with their membership intact.
            for rule in self.rules.extract_if(.., |r| r.rule() == rid) {
                let plan = match rule {
                    RuleState::Saved(net) => net.plan,
                    RuleState::Rewalk(plan) => plan,
                };
                plan.unsubscribe(&mut self.alpha);
            }
            self.cs.retract_rule(rid);
        }
        for &rid in add {
            // The build derives the new rule's state from the shared
            // store: fresh nodes and indexes are seeded on subscription,
            // shared ones already hold their members.
            let rule = RuleState::build(self.preset, program, rid, &mut self.alpha, &mut self.cs);
            self.rules.push(rule);
        }
        // Rule order is not semantically observable (the conflict set is a
        // set), but keep it sorted so metrics read deterministically.
        self.rules.sort_by_key(RuleState::rule);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_core::{FieldCheck, FieldTest, WorkingMemory};
    use parulel_lang::compile;

    fn prog(src: &str) -> Arc<Program> {
        Arc::new(compile(src).unwrap())
    }

    // The RETE preset.

    #[test]
    fn join_add_and_remove() {
        let p = prog(
            "(literalize edge from to)
             (p hop (edge ^from <a> ^to <b>) (edge ^from <b> ^to <c>) --> (halt))",
        );
        let mut wm = WorkingMemory::new(&p.classes);
        let edge = p.classes.id_of(p.interner.intern("edge")).unwrap();
        let mut m = Incremental::rete(p.clone());
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
        let mut m = Incremental::rete(p.clone());
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
        let mut m = Incremental::rete(p.clone());
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
        let mut m = Incremental::rete(p.clone());
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
            let mut m = Incremental::rete(p.clone());
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
        let mut m = Incremental::rete(p.clone());
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
        let mut m = Incremental::rete(p.clone());
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
        let mut m = Incremental::rete(p.clone());
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
        for rule in &m.rules {
            let RuleState::Saved(net) = rule else {
                panic!("the RETE preset saves every rule");
            };
            for (k, level) in net.levels.iter().enumerate() {
                assert!(
                    m.alpha.members(net.plan.nodes()[k]).is_empty(),
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
                    let want_counts = usize::from(net.plan.negative(k));
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
        let mut m = Incremental::rete(p.clone());
        for w in wm.iter() {
            m.add_wme(w);
        }
        let want = m.conflict_set().sorted_keys();
        assert!(m.replace_rules(&p, &[RuleId(0)], &[RuleId(0)]));
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
        let mut shared = Incremental::rete(p.clone());
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

    // The TREAT preset.

    #[test]
    fn incremental_join() {
        let p = prog(
            "(literalize edge from to)
             (p hop (edge ^from <a> ^to <b>) (edge ^from <b> ^to <c>) --> (halt))",
        );
        let edge = p.classes.id_of(p.interner.intern("edge")).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        let mut m = Incremental::treat(p.clone());
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
        let mut m = Incremental::treat(p.clone());
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
        let mut m = Incremental::treat(p.clone());
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
        let mut m = Incremental::treat(p.clone());
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
        let mut m = Incremental::treat(p.clone());
        for (a, b) in [(1, 2), (2, 3), (3, 1), (2, 2)] {
            m.add_wme(&wm.insert(edge, vec![Value::Int(a), Value::Int(b)]));
        }
        let before = m.alpha.index_census();
        let want = m.conflict_set().sorted_keys();

        let (hop, copy1) = (RuleId(0), RuleId(2));
        assert!(m.replace_rules(&split, &[hop], &[hop, copy1]));
        m.check_invariants();
        assert_ne!(
            m.alpha.index_census(),
            before,
            "the split subscribes new nodes"
        );
        assert_eq!(m.conflict_set().len(), want.len());

        assert!(m.replace_rules(&p, &[hop, copy1], &[hop]));
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
        let mut shared = Incremental::treat(p.clone());
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
