//! Refraction: an instantiation fires at most once while it remains
//! continuously in the conflict set.
//!
//! Without refraction, any rule whose firing does not retract its own
//! support (e.g. a pure `make` rule) would fire forever. OPS5 and PARULEL
//! both refract; the PARULEL twist is that refraction applies to the whole
//! fired *set* each cycle.
//!
//! An entry is dropped as soon as its instantiation leaves the conflict
//! set, so a match whose support is retracted and later re-asserted is a
//! *new* instantiation and may fire again.

use parulel_core::{ConflictSet, FxHashSet, InstKey, Instantiation};

/// The set of fired-and-still-present instantiation keys.
#[derive(Clone, Debug, Default)]
pub struct Refraction {
    fired: FxHashSet<InstKey>,
}

impl Refraction {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The eligible (unrefracted) instantiations of `cs`, sorted by key
    /// for deterministic downstream processing. Filters on the conflict
    /// set's stored keys and sorts with [`Instantiation::key_cmp`], so no
    /// key is built per entry or per comparison.
    pub fn eligible(&self, cs: &ConflictSet) -> Vec<Instantiation> {
        let mut v: Vec<Instantiation> = (cs.entries())
            .filter(|(key, _)| !self.fired.contains(*key))
            .map(|(_, inst)| inst.clone())
            .collect();
        v.sort_unstable_by(Instantiation::key_cmp);
        v
    }

    /// Records that `insts` fired this cycle, once `cs` holds the cycle's
    /// changes: each one still present is refracted under the key `cs`
    /// stores (cloned, not rebuilt), and one that left is not recorded,
    /// as [`prune`](Self::prune) would drop it.
    pub fn record<'a>(
        &mut self,
        cs: &ConflictSet,
        insts: impl IntoIterator<Item = &'a Instantiation>,
    ) {
        for i in insts {
            if let Some(key) = cs.stored_key(i) {
                self.fired.insert(key.clone());
            }
        }
    }

    /// Drops entries whose instantiation has left the conflict set.
    pub fn prune(&mut self, cs: &ConflictSet) {
        self.fired.retain(|k| cs.contains(k));
    }

    /// Iterates the live refraction keys (arbitrary order). Used by
    /// checkpointing to capture the table.
    pub fn keys(&self) -> impl Iterator<Item = &InstKey> {
        self.fired.iter()
    }

    /// Rebuilds a table from previously captured keys (checkpoint
    /// restore).
    pub fn from_keys(keys: impl IntoIterator<Item = InstKey>) -> Self {
        Refraction {
            fired: keys.into_iter().collect(),
        }
    }

    /// Number of live refraction entries.
    pub fn len(&self) -> usize {
        self.fired.len()
    }

    /// True iff no entries.
    pub fn is_empty(&self) -> bool {
        self.fired.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_core::{ClassId, RuleId, Value, Wme, WmeId};
    use proptest::prelude::*;

    fn inst(rule: u32, ids: &[u64]) -> Instantiation {
        let wmes: Vec<Wme> = ids
            .iter()
            .map(|&i| Wme::new(WmeId(i), ClassId(0), vec![Value::Int(0)]))
            .collect();
        Instantiation::new(RuleId(rule), wmes, vec![])
    }

    #[test]
    fn fired_instantiations_become_ineligible() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[1]));
        cs.insert(inst(0, &[2]));
        let mut r = Refraction::new();
        let e = r.eligible(&cs);
        assert_eq!(e.len(), 2);
        r.record(&cs, e.iter().take(1));
        assert_eq!(r.eligible(&cs).len(), 1);
        r.record(&cs, r.eligible(&cs).iter());
        assert!(r.eligible(&cs).is_empty());
    }

    #[test]
    fn prune_drops_departed_entries() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[1]));
        let mut r = Refraction::new();
        r.record(&cs, r.eligible(&cs).iter());
        assert_eq!(r.len(), 1);
        cs.remove(&inst(0, &[1]).key());
        r.prune(&cs);
        assert!(r.is_empty());
        // Re-entering the conflict set makes it eligible again.
        cs.insert(inst(0, &[1]));
        assert_eq!(r.eligible(&cs).len(), 1);
    }

    #[test]
    fn keys_roundtrip_through_from_keys() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(0, &[1]));
        cs.insert(inst(1, &[2]));
        let mut r = Refraction::new();
        r.record(&cs, r.eligible(&cs).iter());
        let restored = Refraction::from_keys(r.keys().cloned());
        assert_eq!(restored.len(), 2);
        assert!(restored.eligible(&cs).is_empty());
    }

    #[test]
    fn eligible_is_sorted_by_key() {
        let mut cs = ConflictSet::new();
        for ids in [[9u64], [2], [5]] {
            cs.insert(inst(0, &ids));
        }
        let e = Refraction::new().eligible(&cs);
        let keys: Vec<_> = e.iter().map(|i| i.key()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    proptest! {
        /// The borrowed-key sort agrees with `InstKey`'s own order: the
        /// eligible set comes out in `sorted_keys()` order, minus the
        /// refracted keys, and `sorted()` in exactly that order.
        #[test]
        fn eligible_order_is_sorted_keys_order(
            insts in prop::collection::vec((0u32..3, prop::collection::vec(0u64..6, 1..4)), 0..24),
            fired in prop::collection::vec(any::<bool>(), 24),
        ) {
            let cs: ConflictSet = insts.iter().map(|(r, ids)| inst(*r, ids)).collect();
            let all = cs.sorted_keys();
            let got: Vec<InstKey> = cs.sorted().iter().map(Instantiation::key).collect();
            prop_assert_eq!(&got, &all);
            let fired: Vec<InstKey> = (all.iter().zip(&fired))
                .filter(|(_, &f)| f)
                .map(|(k, _)| k.clone())
                .collect();
            let r = Refraction::from_keys(fired.iter().cloned());
            let want: Vec<InstKey> = all.into_iter().filter(|k| !fired.contains(k)).collect();
            let got: Vec<InstKey> = r.eligible(&cs).iter().map(Instantiation::key).collect();
            prop_assert_eq!(got, want);
        }
    }
}
