//! PARULEL's parallel match: rule-level partitioning across workers.
//!
//! Each worker owns a private [`Incremental`] matcher (RETE or TREAT
//! preset, the same for every worker) built over a subset of the
//! program's rules; every working-memory delta is applied to all
//! workers **in parallel** (a rayon fork-join per batch), and the conflict
//! set is the union of the workers' sets.
//!
//! Rule-level partitioning was the decomposition of choice for
//! production-system machines of the PARULEL era (DADO, PSM): no shared
//! match state, no synchronization inside the match phase, perfect
//! determinism. Its weakness — one hot rule can dominate a worker — is
//! exactly what the *copy-and-constrain* transform (`parulel-engine`)
//! addresses by splitting hot rules into hash-disjoint copies first.

use crate::incremental::Preset;
use crate::{Incremental, Matcher};
use parulel_core::{ConflictSet, CsEvent, Program, RuleId, Wme, WorkingMemory};
use rayon::prelude::*;
use std::sync::Arc;

/// A matcher that distributes rules across `n` incremental matchers and
/// applies deltas to them in parallel.
///
/// The merged conflict set is maintained **incrementally**: after every
/// delta each worker's conflict-set journal ([`Matcher::drain_cs_events`])
/// is absorbed, and `conflict_set()` replays the buffered events against
/// the merged set instead of re-unioning every worker's set from scratch.
/// Rule partitions are disjoint, so workers can never disagree about a
/// key and in-order replay yields exactly the union. A worker whose
/// journal is not yet on forces a full rebuild, as does
/// [`replace_rules`](Matcher::replace_rules).
pub struct Partitioned {
    preset: Preset,
    workers: Vec<Incremental>,
    /// Which rules each worker owns (parallel to `workers`).
    assignments: Vec<Vec<RuleId>>,
    merged: ConflictSet,
    /// Buffered journal events per worker, not yet replayed into `merged`.
    pending: Vec<Vec<CsEvent>>,
    dirty: bool,
    /// The merged set cannot be patched (journals unavailable or state
    /// replaced wholesale); rebuild it from the workers' sets.
    rebuild: bool,
    merge_rebuilds: u64,
    merge_patch_events: u64,
}

/// Round-robin rule partition: rule *i* goes to worker *i mod n*.
pub fn round_robin(num_rules: usize, n: usize) -> Vec<Vec<RuleId>> {
    let n = n.max(1);
    let mut parts = vec![Vec::new(); n];
    for i in 0..num_rules {
        parts[i % n].push(RuleId(i as u32));
    }
    parts
}

impl Partitioned {
    /// `n` workers under the RETE preset over `program`, every worker
    /// sharing the one `Arc`'d program.
    ///
    /// `n == 0` is clamped to one worker (a zero-worker matcher cannot
    /// exist); callers that consider `0` an input error must reject it
    /// themselves — the CLI does. The count actually in effect is always
    /// visible via [`num_workers`](Self::num_workers) and
    /// [`metrics`](Matcher::metrics), so reports never claim a shard
    /// count that was never used.
    pub fn rete(program: Arc<Program>, n: usize) -> Self {
        Self::new(program, n, Preset::Rete)
    }

    /// `n` workers under the TREAT preset over `program`; see
    /// [`rete`](Self::rete) for how `n` is read.
    pub fn treat(program: Arc<Program>, n: usize) -> Self {
        Self::new(program, n, Preset::Treat)
    }

    fn new(program: Arc<Program>, n: usize, preset: Preset) -> Self {
        let parts = round_robin(program.rules().len(), n);
        let workers: Vec<Incremental> = parts
            .iter()
            .map(|rules| Incremental::with_rules(program.clone(), rules.clone(), preset))
            .collect();
        let n = workers.len();
        Partitioned {
            preset,
            workers,
            assignments: parts,
            merged: ConflictSet::new(),
            pending: vec![Vec::new(); n],
            dirty: true,
            rebuild: true,
            merge_rebuilds: 0,
            merge_patch_events: 0,
        }
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Lifetime merge counters: `(full rebuilds, journal events replayed)`.
    pub fn merge_stats(&self) -> (u64, u64) {
        (self.merge_rebuilds, self.merge_patch_events)
    }

    /// Absorbs each worker's conflict-set journal into the per-worker
    /// pending buffers. A worker whose journal was off forces a rebuild;
    /// a worker with an empty journal contributes nothing — in particular,
    /// a quiescent delta leaves the merged set clean (`dirty` stays
    /// false), so `conflict_set()` is free.
    fn absorb_deltas(&mut self) {
        for (i, w) in self.workers.iter_mut().enumerate() {
            match w.drain_cs_events() {
                None => {
                    self.rebuild = true;
                    self.dirty = true;
                }
                Some(events) => {
                    if !events.is_empty() {
                        self.dirty = true;
                        self.pending[i].extend(events);
                    }
                }
            }
        }
    }
}

impl Matcher for Partitioned {
    fn add_wme(&mut self, wme: &Wme) {
        for w in &mut self.workers {
            w.add_wme(wme);
        }
        self.absorb_deltas();
    }

    fn remove_wme(&mut self, wme: &Wme) {
        for w in &mut self.workers {
            w.remove_wme(wme);
        }
        self.absorb_deltas();
    }

    fn apply(&mut self, removed: &[Wme], added: &[Wme]) {
        self.workers.par_iter_mut().for_each(|w| {
            w.apply(removed, added);
        });
        self.absorb_deltas();
    }

    fn seed(&mut self, wm: &WorkingMemory) {
        let all: Vec<Wme> = wm.iter().cloned().collect();
        self.apply(&[], &all);
    }

    fn conflict_set(&mut self) -> &ConflictSet {
        if self.rebuild {
            let mut merged = ConflictSet::new();
            for (i, w) in self.workers.iter_mut().enumerate() {
                // Discard any buffered/journaled events: the full read
                // re-establishes the baseline they patched.
                self.pending[i].clear();
                let _ = w.drain_cs_events();
                for inst in w.conflict_set().iter() {
                    merged.insert(inst.clone());
                }
            }
            self.merged = merged;
            self.merge_rebuilds += 1;
            self.rebuild = false;
            self.dirty = false;
        } else if self.dirty {
            let Partitioned {
                workers,
                merged,
                pending,
                merge_patch_events,
                ..
            } = self;
            for (i, w) in workers.iter_mut().enumerate() {
                let events = std::mem::take(&mut pending[i]);
                if events.is_empty() {
                    continue;
                }
                *merge_patch_events += events.len() as u64;
                let cs = w.conflict_set();
                for ev in events {
                    match ev {
                        // An inserted key that is absent from the final
                        // set was removed by a later event; skipping it
                        // here and letting that Remove no-op keeps replay
                        // order-correct.
                        CsEvent::Insert(key) => {
                            if let Some(inst) = cs.get(&key) {
                                merged.insert(inst.clone());
                            }
                        }
                        CsEvent::Remove(key) => {
                            merged.remove(&key);
                        }
                    }
                }
            }
            self.dirty = false;
        }
        &self.merged
    }

    fn replace_rules(&mut self, program: &Arc<Program>, remove: &[RuleId], add: &[RuleId]) -> bool {
        // Every removed rule keeps pointing at its owner; added rules are
        // spread from the first removed rule's owner onward so the new
        // copies land on distinct workers (the whole point of the split).
        let owner_of = |rid: RuleId| {
            self.assignments
                .iter()
                .position(|rules| rules.contains(&rid))
        };
        let Some(base) = remove.first().copied().and_then(owner_of) else {
            return false;
        };
        let n = self.workers.len();
        let mut per_worker: Vec<(Vec<RuleId>, Vec<RuleId>)> = vec![Default::default(); n];
        for &rid in remove {
            let Some(owner) = owner_of(rid) else {
                return false;
            };
            per_worker[owner].0.push(rid);
        }
        for (j, &rid) in add.iter().enumerate() {
            per_worker[(base + j) % n].1.push(rid);
        }
        for (i, (rm, ad)) in per_worker.iter().enumerate() {
            if rm.is_empty() && ad.is_empty() {
                continue;
            }
            // Incremental workers always replace in place.
            self.workers[i].replace_rules(program, rm, ad);
            self.assignments[i].retain(|r| !rm.contains(r));
            self.assignments[i].extend(ad.iter().copied());
            self.assignments[i].sort();
        }
        self.rebuild = true;
        self.dirty = true;
        true
    }

    fn metrics(&self) -> crate::MatcherMetrics {
        let per_shard: Vec<crate::MatcherMetrics> =
            self.workers.iter().map(|w| w.metrics()).collect();
        let mut m = crate::MatcherMetrics {
            kind: match self.preset {
                Preset::Rete => "partitioned-rete",
                Preset::Treat => "partitioned-treat",
            },
            shards: self.workers.len(),
            // Rule partitions are disjoint, so sums across shards are
            // exact totals (and `conflict_set` stays correct even when
            // the merged cache is stale).
            rules: per_shard.iter().map(|s| s.rules).sum(),
            conflict_set: per_shard.iter().map(|s| s.conflict_set).sum(),
            alpha_wmes: per_shard.iter().map(|s| s.alpha_wmes).sum(),
            beta_tokens: per_shard.iter().map(|s| s.beta_tokens).sum(),
            negative_counts: per_shard.iter().map(|s| s.negative_counts).sum(),
            // Shards share no alpha state, so node/subscription/share-hit
            // totals are exact sums too (sharing only happens *within* a
            // shard's rule subset).
            alpha_nodes: per_shard.iter().map(|s| s.alpha_nodes).sum(),
            alpha_subscriptions: per_shard.iter().map(|s| s.alpha_subscriptions).sum(),
            alpha_share_hits: per_shard.iter().map(|s| s.alpha_share_hits).sum(),
            reenumerations: per_shard.iter().map(|s| s.reenumerations).sum(),
            recomputes: per_shard.iter().map(|s| s.recomputes).sum(),
            per_shard: Vec::new(),
        };
        m.per_shard = per_shard;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaiveMatcher;
    use parulel_core::{Value, WorkingMemory};
    use parulel_lang::compile;

    const SRC: &str = "
        (literalize a x)
        (literalize b y)
        (p r1 (a ^x <v>) (b ^y <v>) --> (halt))
        (p r2 (a ^x <v>) -(b ^y <v>) --> (halt))
        (p r3 (b ^y { > 5 }) --> (halt))
        (p r4 (a ^x <v>) (a ^x <v>) --> (halt))";

    fn setup() -> (Arc<Program>, WorkingMemory) {
        let p = Arc::new(compile(SRC).unwrap());
        let mut wm = WorkingMemory::new(&p.classes);
        let a = p.classes.id_of(p.interner.intern("a")).unwrap();
        let b = p.classes.id_of(p.interner.intern("b")).unwrap();
        for v in 0..8 {
            wm.insert(a, vec![Value::Int(v)]);
            if v % 2 == 0 {
                wm.insert(b, vec![Value::Int(v)]);
            }
        }
        (p, wm)
    }

    #[test]
    fn partitioned_equals_monolithic() {
        let (p, wm) = setup();
        let mut reference = NaiveMatcher::new(p.clone());
        reference.seed(&wm);
        let want = reference.conflict_set().sorted_keys();
        for n in [1, 2, 3, 8] {
            let mut m = Partitioned::rete(p.clone(), n);
            m.seed(&wm);
            assert_eq!(m.conflict_set().sorted_keys(), want, "rete n={n}");
            let mut m = Partitioned::treat(p.clone(), n);
            m.seed(&wm);
            assert_eq!(m.conflict_set().sorted_keys(), want, "treat n={n}");
        }
    }

    #[test]
    fn batch_apply_matches_single_steps() {
        let (p, wm) = setup();
        let all: Vec<Wme> = wm.sorted_snapshot();
        let mut batch = Partitioned::rete(p.clone(), 3);
        batch.apply(&[], &all);
        let mut single = Partitioned::rete(p.clone(), 3);
        for w in &all {
            single.add_wme(w);
        }
        assert_eq!(
            batch.conflict_set().sorted_keys(),
            single.conflict_set().sorted_keys()
        );
        // and removal of half the WMEs
        let (dead, _live) = all.split_at(all.len() / 2);
        batch.apply(dead, &[]);
        for w in dead {
            single.remove_wme(w);
        }
        assert_eq!(
            batch.conflict_set().sorted_keys(),
            single.conflict_set().sorted_keys()
        );
    }

    #[test]
    fn round_robin_covers_all_rules() {
        let parts = round_robin(10, 3);
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 10);
        let mut all: Vec<u32> = parts.iter().flatten().map(|r| r.0).collect();
        all.sort();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn more_workers_than_rules_is_fine() {
        let (p, wm) = setup();
        let mut m = Partitioned::rete(p.clone(), 64);
        m.seed(&wm);
        assert!(!m.conflict_set().is_empty());
        assert_eq!(m.num_workers(), 64);
        // S1 regression: round-robin over 64 workers leaves 60 shards
        // rule-less; they must not count as imbalance.
        let imb = m.metrics().imbalance();
        assert!(imb < 10.0, "rule-less shards inflated imbalance: {imb}");
    }

    #[test]
    fn incremental_union_tracks_per_delta_changes() {
        let (p, wm) = setup();
        let all: Vec<Wme> = wm.sorted_snapshot();
        let mut inc = Partitioned::rete(p.clone(), 3);
        let mut mono = Incremental::rete(p.clone());
        inc.seed(&wm);
        mono.seed(&wm);
        assert_eq!(
            inc.conflict_set().sorted_keys(),
            mono.conflict_set().sorted_keys()
        );
        // Interleave adds/removes, comparing after every delta.
        for w in &all {
            inc.remove_wme(w);
            mono.remove_wme(w);
            assert_eq!(
                inc.conflict_set().sorted_keys(),
                mono.conflict_set().sorted_keys()
            );
            inc.add_wme(w);
            mono.add_wme(w);
            assert_eq!(
                inc.conflict_set().sorted_keys(),
                mono.conflict_set().sorted_keys()
            );
        }
        let (rebuilds, patched) = inc.merge_stats();
        assert_eq!(rebuilds, 1, "only the seed-time baseline rebuild");
        assert!(patched > 0, "later merges were journal replays");
    }

    #[test]
    fn quiescent_delta_leaves_merged_set_clean() {
        // S2: a delta that changes no worker's conflict set must not
        // force merged-set work on the next conflict_set() call.
        let src = "
            (literalize a x)
            (literalize inert x)
            (p r (a ^x <v>) (a ^x <v>) --> (halt))";
        let p = Arc::new(compile(src).unwrap());
        let mut wm = WorkingMemory::new(&p.classes);
        let a = p.classes.id_of(p.interner.intern("a")).unwrap();
        let inert = p.classes.id_of(p.interner.intern("inert")).unwrap();
        wm.insert(a, vec![Value::Int(1)]);
        let mut m = Partitioned::rete(p.clone(), 2);
        m.seed(&wm);
        assert_eq!(m.conflict_set().len(), 1);
        let (rebuilds, patched) = m.merge_stats();
        // `inert` matches no rule: conflict sets are untouched.
        let w = wm.insert(inert, vec![Value::Int(9)]);
        m.apply(&[], std::slice::from_ref(&w));
        assert_eq!(m.conflict_set().len(), 1);
        m.apply(&[w], &[]);
        assert_eq!(m.conflict_set().len(), 1);
        assert_eq!(
            m.merge_stats(),
            (rebuilds, patched),
            "quiescent deltas must not rebuild or patch the merged set"
        );
    }

    #[test]
    fn replace_rules_is_equivalent_to_fresh_build() {
        // Swap r3 for itself against the same program: state must match a
        // freshly-built matcher exactly.
        let (p, wm) = setup();
        let mut m = Partitioned::rete(p.clone(), 2);
        m.seed(&wm);
        let want = m.conflict_set().sorted_keys();
        assert!(m.replace_rules(&p, &[RuleId(2)], &[RuleId(2)]));
        assert_eq!(m.conflict_set().sorted_keys(), want);
        let mut t = Partitioned::treat(p.clone(), 2);
        t.seed(&wm);
        assert!(t.replace_rules(&p, &[RuleId(2)], &[RuleId(2)]));
        assert_eq!(t.conflict_set().sorted_keys(), want);
    }
}
