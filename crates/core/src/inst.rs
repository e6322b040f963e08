//! Rule instantiations and the conflict set.
//!
//! An [`Instantiation`] is one complete, consistent match of a rule's LHS:
//! the rule, the WMEs matched by its positive CEs (in positive-CE order),
//! and the resulting variable bindings. The [`ConflictSet`] is the set of
//! all current instantiations — in PARULEL it is a first-class object that
//! meta-rules match over and redact from.

use crate::hash::FxHashMap;
use crate::ir::RuleId;
use crate::value::Value;
use crate::wme::{Wme, WmeId};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Identity of an instantiation: the rule plus the exact WMEs matched.
/// Two matches of the same rule on the same WMEs are the same
/// instantiation (bindings are a function of the WMEs). Keys order first
/// by rule, then lexicographically by WME ids — a deterministic total
/// order used for reproducible iteration and tie-breaking.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct InstKey {
    /// The matched rule.
    pub rule: RuleId,
    /// Ids of the WMEs matched by the positive CEs, in CE order.
    pub wmes: Arc<[WmeId]>,
}

/// An identity read in place from an [`InstKey`] or an [`Instantiation`]:
/// a map keyed by `InstKey` borrows its keys as `dyn Identity`, so it can
/// be probed with an instantiation without building the key.
trait Identity {
    fn rule(&self) -> RuleId;
    fn width(&self) -> usize;
    fn id(&self, i: usize) -> WmeId;
}

impl Identity for InstKey {
    fn rule(&self) -> RuleId {
        self.rule
    }
    fn width(&self) -> usize {
        self.wmes.len()
    }
    fn id(&self, i: usize) -> WmeId {
        self.wmes[i]
    }
}

impl Identity for Instantiation {
    fn rule(&self) -> RuleId {
        self.rule
    }
    fn width(&self) -> usize {
        self.wmes.len()
    }
    fn id(&self, i: usize) -> WmeId {
        self.wmes[i].id
    }
}

/// The hash a derived `Hash` on `InstKey` would compute: the rule, then
/// the ids as a length-prefixed slice.
impl Hash for dyn Identity + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rule().hash(state);
        state.write_usize(self.width());
        for i in 0..self.width() {
            self.id(i).hash(state);
        }
    }
}

impl PartialEq for dyn Identity + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.rule() == other.rule()
            && self.width() == other.width()
            && (0..self.width()).all(|i| self.id(i) == other.id(i))
    }
}

impl Eq for dyn Identity + '_ {}

impl Hash for InstKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn Identity).hash(state);
    }
}

impl<'a> Borrow<dyn Identity + 'a> for InstKey {
    fn borrow(&self) -> &(dyn Identity + 'a) {
        self
    }
}

impl fmt::Display for InstKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}(", self.rule.0)?;
        for (i, w) in self.wmes.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{w}")?;
        }
        write!(f, ")")
    }
}

/// One complete match of a rule's LHS.
#[derive(Clone, Debug)]
pub struct Instantiation {
    /// The matched rule.
    pub rule: RuleId,
    /// The WMEs matched by the positive CEs, in CE order. Full WMEs (not
    /// just ids) so the fire phase reads fields without a WM lookup.
    pub wmes: Arc<[Wme]>,
    /// The binding environment (indexed by `VarId`). Sized to the rule's
    /// `num_vars`, so RHS `bind` slots are preallocated (NIL until bound).
    pub env: Arc<[Value]>,
}

impl Instantiation {
    /// Builds an instantiation.
    pub fn new(rule: RuleId, wmes: impl Into<Arc<[Wme]>>, env: impl Into<Arc<[Value]>>) -> Self {
        Instantiation {
            rule,
            wmes: wmes.into(),
            env: env.into(),
        }
    }

    /// The identity key of this instantiation.
    pub fn key(&self) -> InstKey {
        InstKey {
            rule: self.rule,
            wmes: self.wmes.iter().map(|w| w.id).collect(),
        }
    }

    /// Compares the identity keys of two instantiations without building
    /// them: the same order as [`InstKey`]'s `Ord` (rule, then the matched
    /// WME ids lexicographically). Every instantiation sort uses it.
    pub fn key_cmp(&self, other: &Self) -> Ordering {
        (self.rule.cmp(&other.rule))
            .then_with(|| (self.wmes.iter().map(|w| w.id)).cmp(other.wmes.iter().map(|w| w.id)))
    }

    /// Recency vector for LEX ordering: matched WME timestamps, sorted
    /// descending (most recent first), read in place.
    pub fn recency(&self) -> impl Iterator<Item = u64> + '_ {
        Recency {
            wmes: &self.wmes,
            last: None,
            left: 0,
        }
    }

    /// The most recent matched timestamp (MEA's primary key looks at the
    /// first CE; classic MEA uses the first CE's timestamp).
    pub fn first_ce_time(&self) -> u64 {
        self.wmes.first().map(|w| w.id.time()).unwrap_or(0)
    }
}

/// An instantiation's matched timestamps, most recent first, found by
/// selection over its WMEs instead of sorting a copy: O(width²) and no
/// allocation, for widths of a rule's positive CE count.
struct Recency<'a> {
    wmes: &'a [Wme],
    /// The timestamp yielded last, and how many more copies of it (one
    /// WME matched by several CEs) are still to come.
    last: Option<u64>,
    left: usize,
}

impl Iterator for Recency<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.left > 0 {
            self.left -= 1;
            return self.last;
        }
        let times = self.wmes.iter().map(|w| w.id.time());
        let last = self.last;
        let next = times
            .clone()
            .filter(|&t| last.is_none_or(|l| t < l))
            .max()?;
        self.left = times.filter(|&t| t == next).count() - 1;
        self.last = Some(next);
        self.last
    }
}

/// One membership change of a [`ConflictSet`], recorded by the optional
/// journal. Consumers replaying a journal in order against the final set
/// reconstruct exactly the sequence of insertions and removals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CsEvent {
    /// The key was inserted (it was not present before).
    Insert(InstKey),
    /// The key was removed (it was present before).
    Remove(InstKey),
}

/// The conflict set: all current instantiations, indexed by identity
/// only. Nothing is indexed by rule: a caller that wants one rule's
/// entries (meta-rule evaluation, a rule rebuild) filters a walk of the
/// whole set.
///
/// An optional **journal** records membership changes as [`CsEvent`]s once
/// [`drain_journal_or_enable`](Self::drain_journal_or_enable) has been
/// called; the partitioned matcher uses it to patch its merged union
/// instead of rebuilding it.
#[derive(Clone, Debug, Default)]
pub struct ConflictSet {
    by_key: FxHashMap<InstKey, Instantiation>,
    journal: Option<Vec<CsEvent>>,
}

impl ConflictSet {
    /// An empty conflict set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an instantiation. Returns false if it was already present.
    pub fn insert(&mut self, inst: Instantiation) -> bool {
        let key = inst.key();
        let fresh = self.by_key.insert(key.clone(), inst).is_none();
        if fresh {
            if let Some(j) = &mut self.journal {
                j.push(CsEvent::Insert(key));
            }
        }
        fresh
    }

    /// Removes by key. Returns the instantiation if it was present.
    pub fn remove(&mut self, key: &InstKey) -> Option<Instantiation> {
        let gone = self.by_key.remove(key);
        if gone.is_some() {
            if let Some(j) = &mut self.journal {
                j.push(CsEvent::Remove(key.clone()));
            }
        }
        gone
    }

    /// True iff the key is present.
    pub fn contains(&self, key: &InstKey) -> bool {
        self.by_key.contains_key(key)
    }

    /// Looks up by key.
    pub fn get(&self, key: &InstKey) -> Option<&Instantiation> {
        self.by_key.get(key)
    }

    /// The key stored for `inst`, if it is present: a caller that keeps
    /// identities clones it instead of building a new one.
    pub fn stored_key(&self, inst: &Instantiation) -> Option<&InstKey> {
        let (key, _) = self.by_key.get_key_value(inst as &dyn Identity)?;
        Some(key)
    }

    /// Number of instantiations.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Iterates instantiations in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &Instantiation> {
        self.by_key.values()
    }

    /// Iterates the entries with their stored keys, in arbitrary order: a
    /// caller that filters or orders by identity borrows the key instead
    /// of building one per instantiation.
    pub fn entries(&self) -> impl Iterator<Item = (&InstKey, &Instantiation)> {
        self.by_key.iter()
    }

    /// Removes every instantiation `dead` picks, in one sweep of the set
    /// (a matcher drops the users of a batch of removed WMEs, or every
    /// entry of a rule it rebuilds). Returns how many were removed.
    pub fn retract(&mut self, dead: impl Fn(&Instantiation) -> bool) -> usize {
        let before = self.by_key.len();
        match &mut self.journal {
            None => self.by_key.retain(|_, inst| !dead(inst)),
            Some(j) => self.by_key.retain(|k, inst| {
                let keep = !dead(inst);
                if !keep {
                    j.push(CsEvent::Remove(k.clone()));
                }
                keep
            }),
        }
        before - self.by_key.len()
    }

    /// Drains the journal, enabling it on first call.
    ///
    /// Returns `None` when journaling was not yet active — membership
    /// changes before this call were unrecorded, so the caller must treat
    /// the set as wholly unknown (one full read) before relying on the
    /// events of subsequent drains. After the first call every
    /// insert/remove/retract is recorded until the next drain.
    pub fn drain_journal_or_enable(&mut self) -> Option<Vec<CsEvent>> {
        match &mut self.journal {
            None => {
                self.journal = Some(Vec::new());
                None
            }
            Some(j) => Some(std::mem::take(j)),
        }
    }

    /// A deterministic, sorted snapshot of the instantiations (by key).
    pub fn sorted(&self) -> Vec<Instantiation> {
        let mut v: Vec<Instantiation> = self.by_key.values().cloned().collect();
        v.sort_unstable_by(Instantiation::key_cmp);
        v
    }

    /// Sorted keys only (cheaper than [`ConflictSet::sorted`] when the
    /// caller just needs identities).
    pub fn sorted_keys(&self) -> Vec<InstKey> {
        let mut v: Vec<InstKey> = self.by_key.keys().cloned().collect();
        v.sort();
        v
    }
}

impl FromIterator<Instantiation> for ConflictSet {
    fn from_iter<T: IntoIterator<Item = Instantiation>>(iter: T) -> Self {
        let mut cs = ConflictSet::new();
        for i in iter {
            cs.insert(i);
        }
        cs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::ClassId;

    fn inst(rule: u32, wme_ids: &[u64]) -> Instantiation {
        let wmes: Vec<Wme> = wme_ids
            .iter()
            .map(|&id| Wme::new(WmeId(id), ClassId(0), vec![Value::Int(id as i64)]))
            .collect();
        Instantiation::new(RuleId(rule), wmes, vec![])
    }

    #[test]
    fn key_identity() {
        let a = inst(1, &[10, 20]);
        let b = inst(1, &[10, 20]);
        let c = inst(1, &[20, 10]); // different CE assignment = different match
        let d = inst(2, &[10, 20]);
        assert_eq!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        assert_ne!(a.key(), d.key());
    }

    #[test]
    fn key_ordering_is_rule_then_wmes() {
        let mut keys = [
            inst(2, &[1]).key(),
            inst(1, &[9]).key(),
            inst(1, &[2, 3]).key(),
            inst(1, &[2, 1]).key(),
        ];
        keys.sort();
        assert_eq!(keys[0], inst(1, &[2, 1]).key());
        assert_eq!(keys[1], inst(1, &[2, 3]).key());
        assert_eq!(keys[2], inst(1, &[9]).key());
        assert_eq!(keys[3], inst(2, &[1]).key());
    }

    #[test]
    fn conflict_set_insert_remove() {
        let mut cs = ConflictSet::new();
        assert!(cs.insert(inst(1, &[1])));
        assert!(!cs.insert(inst(1, &[1]))); // duplicate
        assert!(cs.insert(inst(1, &[2])));
        assert_eq!(cs.len(), 2);
        let k = inst(1, &[1]).key();
        assert!(cs.contains(&k));
        assert!(cs.remove(&k).is_some());
        assert!(cs.remove(&k).is_none());
        assert_eq!(cs.len(), 1);
    }

    /// A retract predicate: the instantiation used any WME in `ids`.
    fn uses(ids: &[u64]) -> impl Fn(&Instantiation) -> bool + '_ {
        |inst| inst.wmes.iter().any(|w| ids.contains(&w.id.0))
    }

    #[test]
    fn retract_removes_what_the_predicate_picks() {
        let mut cs = ConflictSet::new();
        cs.insert(inst(1, &[1, 2]));
        cs.insert(inst(1, &[2, 3]));
        cs.insert(inst(2, &[3]));
        assert_eq!(cs.retract(uses(&[2])), 2);
        assert_eq!(cs.len(), 1);
        assert!(cs.contains(&inst(2, &[3]).key()));
        // One sweep takes the users of every id and a whole rule.
        cs.insert(inst(1, &[4, 5]));
        cs.insert(inst(2, &[5]));
        cs.insert(inst(3, &[6]));
        assert_eq!(
            cs.retract(|i| uses(&[3, 5, 9])(i) || i.rule == RuleId(3)),
            4
        );
        assert!(cs.is_empty());
    }

    #[test]
    fn stored_key_is_found_from_the_instantiation() {
        use crate::hash::FxHasher;
        let hash = |x: &dyn Identity| {
            let mut h = FxHasher::default();
            x.hash(&mut h);
            h.finish()
        };
        let i = inst(1, &[4, 2]);
        assert_eq!(hash(&i), hash(&i.key()));
        let mut cs = ConflictSet::new();
        cs.insert(i.clone());
        assert_eq!(cs.stored_key(&i), Some(&i.key()));
        assert!(cs.stored_key(&inst(1, &[2, 4])).is_none());
        assert!(cs.stored_key(&inst(2, &[4, 2])).is_none());
        assert!(cs.stored_key(&inst(1, &[4])).is_none());
    }

    #[test]
    fn sorted_is_deterministic() {
        let mut cs = ConflictSet::new();
        for ids in [[5u64, 1], [3, 2], [1, 9]] {
            cs.insert(inst(1, &ids));
        }
        let keys: Vec<InstKey> = cs.sorted().iter().map(|i| i.key()).collect();
        assert_eq!(keys, cs.sorted_keys());
        let mut expect = keys.clone();
        expect.sort();
        assert_eq!(keys, expect);
    }

    #[test]
    fn journal_records_only_real_membership_changes() {
        let mut cs = ConflictSet::new();
        assert!(
            cs.drain_journal_or_enable().is_none(),
            "first drain enables"
        );
        cs.insert(inst(1, &[1]));
        cs.insert(inst(1, &[1])); // duplicate: no event
        cs.remove(&inst(9, &[9]).key()); // absent: no event
        cs.remove(&inst(1, &[1]).key());
        let events = cs.drain_journal_or_enable().unwrap();
        assert_eq!(
            events,
            vec![
                CsEvent::Insert(inst(1, &[1]).key()),
                CsEvent::Remove(inst(1, &[1]).key()),
            ]
        );
        assert!(
            cs.drain_journal_or_enable().unwrap().is_empty(),
            "drain resets the journal"
        );
    }

    #[test]
    fn journal_covers_retract() {
        let mut cs = ConflictSet::new();
        cs.drain_journal_or_enable();
        cs.insert(inst(1, &[1, 2]));
        cs.insert(inst(2, &[3]));
        cs.drain_journal_or_enable();
        cs.retract(uses(&[2]));
        let events = cs.drain_journal_or_enable().unwrap();
        assert_eq!(events, vec![CsEvent::Remove(inst(1, &[1, 2]).key())]);
    }

    proptest::proptest! {
        /// The in-place walk yields what sorting a copy descending does.
        #[test]
        fn recency_is_the_sorted_descending_timestamps(
            ids in proptest::collection::vec(0u64..6, 0..6),
        ) {
            let mut want: Vec<u64> = ids.iter().map(|&id| WmeId(id).time()).collect();
            want.sort_unstable_by(|a, b| b.cmp(a));
            let got: Vec<u64> = inst(1, &ids).recency().collect();
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn recency_and_first_ce() {
        let i = inst(1, &[5, 9, 2]);
        assert_eq!(i.recency().collect::<Vec<_>>(), vec![9, 5, 2]);
        // One WME matched by two CEs counts twice.
        let twice = inst(1, &[5, 9, 5]);
        assert_eq!(twice.recency().collect::<Vec<_>>(), vec![9, 5, 5]);
        assert_eq!(i.first_ce_time(), 5);
    }
}
