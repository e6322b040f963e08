//! The working memory: the indexed store of all live WMEs, plus the
//! [`Delta`] type describing an atomic batch of changes.
//!
//! PARULEL's fire phase produces one delta per cycle (the merged effects of
//! every fired instantiation); the engine applies it here and feeds the
//! same delta to the match network, which updates incrementally.

use crate::classes::{ClassId, ClassRegistry};
use crate::hash::{FxHashMap, FxHashSet};
use crate::value::Value;
use crate::wme::{Wme, WmeId};
use std::fmt;
use std::sync::Arc;

/// Why [`WorkingMemory::from_parts`] rejected a restore.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WmRestoreError {
    /// A WME referenced a class id outside the registry.
    ClassOutOfRange {
        /// The offending WME.
        id: WmeId,
        /// Its (out-of-range) class id.
        class: ClassId,
        /// Number of declared classes.
        classes: usize,
    },
    /// Two WMEs carried the same id.
    DuplicateId(WmeId),
    /// `next_id` was not strictly greater than every live id (future
    /// inserts would collide with restored WMEs).
    NextIdNotPastMax {
        /// The proposed id counter.
        next_id: u64,
        /// The largest live WME id.
        max_id: u64,
    },
}

impl fmt::Display for WmRestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WmRestoreError::ClassOutOfRange { id, class, classes } => write!(
                f,
                "wme {} has class {} but only {classes} classes are declared",
                id.0, class.0
            ),
            WmRestoreError::DuplicateId(id) => write!(f, "duplicate wme id {}", id.0),
            WmRestoreError::NextIdNotPastMax { next_id, max_id } => write!(
                f,
                "next_id {next_id} is not past the largest live wme id {max_id}"
            ),
        }
    }
}

impl std::error::Error for WmRestoreError {}

/// An atomic batch of working-memory changes, produced by one fire phase.
///
/// Removes are applied before adds, and adds are assigned ids in order, so
/// applying a delta is deterministic.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    /// Ids to retract. Deduplicated by [`Delta::normalize`].
    pub removes: Vec<WmeId>,
    /// `(class, fields)` tuples to assert; ids are assigned at apply time.
    pub adds: Vec<(ClassId, Arc<[Value]>)>,
}

impl Delta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// True iff the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.removes.is_empty() && self.adds.is_empty()
    }

    /// Total number of changes.
    pub fn len(&self) -> usize {
        self.removes.len() + self.adds.len()
    }

    /// Sorts and deduplicates removals (two instantiations may legally
    /// retract the same WME in one cycle; retraction is idempotent).
    /// Add order is preserved: it encodes the deterministic id assignment.
    pub fn normalize(&mut self) {
        self.removes.sort_unstable();
        self.removes.dedup();
    }
}

/// The working memory.
///
/// Storage is a hash map from id to WME plus a per-class id index, giving
/// O(1) insert/remove and O(class population) per-class scans (what the
/// match network's alpha layer consumes on startup).
#[derive(Clone, Debug)]
pub struct WorkingMemory {
    wmes: FxHashMap<WmeId, Wme>,
    by_class: Vec<FxHashSet<WmeId>>,
    next_id: u64,
}

impl WorkingMemory {
    /// Creates an empty working memory sized for `classes`.
    pub fn new(classes: &ClassRegistry) -> Self {
        WorkingMemory {
            wmes: FxHashMap::default(),
            by_class: vec![FxHashSet::default(); classes.len()],
            next_id: 1,
        }
    }

    /// Rebuilds a working memory from previously captured WMEs (a
    /// checkpoint restore). The WMEs keep their original ids; `next_id`
    /// must be strictly greater than every live id so future inserts
    /// cannot collide — an engine resumed from a snapshot then assigns
    /// exactly the ids the uninterrupted run would have.
    pub fn from_parts(
        classes: &ClassRegistry,
        wmes: impl IntoIterator<Item = Wme>,
        next_id: u64,
    ) -> Result<Self, WmRestoreError> {
        let mut wm = WorkingMemory::new(classes);
        let mut max_id = 0u64;
        for wme in wmes {
            if wme.class.index() >= classes.len() {
                return Err(WmRestoreError::ClassOutOfRange {
                    id: wme.id,
                    class: wme.class,
                    classes: classes.len(),
                });
            }
            max_id = max_id.max(wme.id.0);
            wm.by_class[wme.class.index()].insert(wme.id);
            if wm.wmes.insert(wme.id, wme.clone()).is_some() {
                return Err(WmRestoreError::DuplicateId(wme.id));
            }
        }
        if next_id <= max_id {
            return Err(WmRestoreError::NextIdNotPastMax { next_id, max_id });
        }
        wm.next_id = next_id;
        Ok(wm)
    }

    /// The id the next inserted WME will receive.
    #[inline]
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Asserts a new WME and returns it.
    ///
    /// # Panics
    /// Panics if `class` is out of range for the registry this WM was
    /// created with. Field arity is the caller's contract (the compiler
    /// validates rule actions; workload generators construct well-formed
    /// tuples).
    pub fn insert(&mut self, class: ClassId, fields: impl Into<Arc<[Value]>>) -> Wme {
        let id = WmeId(self.next_id);
        self.next_id += 1;
        let wme = Wme::new(id, class, fields);
        self.by_class[class.index()].insert(id);
        self.wmes.insert(id, wme.clone());
        wme
    }

    /// Retracts a WME. Returns the removed element, or `None` if the id is
    /// not live (idempotent retraction).
    pub fn remove(&mut self, id: WmeId) -> Option<Wme> {
        let wme = self.wmes.remove(&id)?;
        self.by_class[wme.class.index()].remove(&id);
        Some(wme)
    }

    /// The live WME with this id, if any.
    #[inline]
    pub fn get(&self, id: WmeId) -> Option<&Wme> {
        self.wmes.get(&id)
    }

    /// True iff `id` is live.
    #[inline]
    pub fn contains(&self, id: WmeId) -> bool {
        self.wmes.contains_key(&id)
    }

    /// Number of live WMEs.
    #[inline]
    pub fn len(&self) -> usize {
        self.wmes.len()
    }

    /// True iff no WMEs are live.
    pub fn is_empty(&self) -> bool {
        self.wmes.is_empty()
    }

    /// Iterates all live WMEs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Wme> {
        self.wmes.values()
    }

    /// Iterates live WMEs of `class` (arbitrary order).
    pub fn iter_class(&self, class: ClassId) -> impl Iterator<Item = &Wme> + '_ {
        self.by_class[class.index()]
            .iter()
            .map(move |id| &self.wmes[id])
    }

    /// Number of live WMEs of `class`.
    pub fn class_len(&self, class: ClassId) -> usize {
        self.by_class[class.index()].len()
    }

    /// Applies a (normalized or not) delta: removes first, then adds.
    /// Returns `(removed, added)` — the concrete WMEs retracted and
    /// asserted — so the caller can feed the same changes to the match
    /// network.
    pub fn apply(&mut self, delta: &Delta) -> (Vec<Wme>, Vec<Wme>) {
        let mut removed = Vec::with_capacity(delta.removes.len());
        let mut seen = FxHashSet::default();
        for &id in &delta.removes {
            if seen.insert(id) {
                if let Some(w) = self.remove(id) {
                    removed.push(w);
                }
            }
        }
        let mut added = Vec::with_capacity(delta.adds.len());
        for (class, fields) in &delta.adds {
            added.push(self.insert(*class, fields.clone()));
        }
        (removed, added)
    }

    /// A deterministic snapshot of all WMEs, sorted by id. Used by tests
    /// and the experiment harness to compare final states across engines.
    pub fn sorted_snapshot(&self) -> Vec<Wme> {
        let mut all: Vec<Wme> = self.wmes.values().cloned().collect();
        all.sort_by_key(|w| w.id);
        all
    }

    /// A canonical multiset of `(class, fields)` tuples, sorted — two runs
    /// that asserted the same facts in different orders (hence with
    /// different ids) compare equal under this view.
    pub fn canonical_facts(&self) -> Vec<(ClassId, Vec<Value>)> {
        let mut all: Vec<(ClassId, Vec<Value>)> = self
            .wmes
            .values()
            .map(|w| (w.class, w.fields.to_vec()))
            .collect();
        all.sort();
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Interner;

    fn reg2(i: &Interner) -> ClassRegistry {
        let mut reg = ClassRegistry::new();
        reg.declare(i.intern("a"), vec![i.intern("x")]).unwrap();
        reg.declare(i.intern("b"), vec![i.intern("y"), i.intern("z")])
            .unwrap();
        reg
    }

    #[test]
    fn insert_assigns_monotonic_ids() {
        let i = Interner::new();
        let reg = reg2(&i);
        let mut wm = WorkingMemory::new(&reg);
        let w1 = wm.insert(ClassId(0), vec![Value::Int(1)]);
        let w2 = wm.insert(ClassId(0), vec![Value::Int(2)]);
        assert!(w1.id < w2.id);
        assert_eq!(wm.len(), 2);
    }

    #[test]
    fn remove_is_idempotent() {
        let i = Interner::new();
        let reg = reg2(&i);
        let mut wm = WorkingMemory::new(&reg);
        let w = wm.insert(ClassId(0), vec![Value::Int(1)]);
        assert!(wm.remove(w.id).is_some());
        assert!(wm.remove(w.id).is_none());
        assert!(wm.is_empty());
        assert_eq!(wm.class_len(ClassId(0)), 0);
    }

    #[test]
    fn class_index_tracks_membership() {
        let i = Interner::new();
        let reg = reg2(&i);
        let mut wm = WorkingMemory::new(&reg);
        wm.insert(ClassId(0), vec![Value::Int(1)]);
        let b = wm.insert(ClassId(1), vec![Value::Int(2), Value::Int(3)]);
        assert_eq!(wm.iter_class(ClassId(0)).count(), 1);
        assert_eq!(wm.iter_class(ClassId(1)).count(), 1);
        wm.remove(b.id);
        assert_eq!(wm.iter_class(ClassId(1)).count(), 0);
    }

    #[test]
    fn apply_removes_before_adds_and_reports_changes() {
        let i = Interner::new();
        let reg = reg2(&i);
        let mut wm = WorkingMemory::new(&reg);
        let w = wm.insert(ClassId(0), vec![Value::Int(1)]);
        let mut d = Delta::new();
        d.removes.push(w.id);
        d.removes.push(w.id); // duplicate retraction is fine
        d.removes.push(WmeId(999)); // stale retraction is fine
        d.adds.push((ClassId(0), vec![Value::Int(2)].into()));
        let (removed, added) = wm.apply(&d);
        assert_eq!(removed.len(), 1);
        assert_eq!(added.len(), 1);
        assert_eq!(wm.len(), 1);
        assert_eq!(added[0].field(0), Value::Int(2));
    }

    #[test]
    fn canonical_facts_ignore_ids() {
        let i = Interner::new();
        let reg = reg2(&i);
        let mut wm1 = WorkingMemory::new(&reg);
        let mut wm2 = WorkingMemory::new(&reg);
        wm1.insert(ClassId(0), vec![Value::Int(1)]);
        wm1.insert(ClassId(0), vec![Value::Int(2)]);
        // Same facts, different insertion order (hence ids).
        wm2.insert(ClassId(0), vec![Value::Int(2)]);
        wm2.insert(ClassId(0), vec![Value::Int(1)]);
        assert_eq!(wm1.canonical_facts(), wm2.canonical_facts());
        assert_ne!(
            wm1.sorted_snapshot()[0].fields,
            wm2.sorted_snapshot()[0].fields
        );
    }

    #[test]
    fn from_parts_restores_ids_and_continues_numbering() {
        let i = Interner::new();
        let reg = reg2(&i);
        let mut wm = WorkingMemory::new(&reg);
        wm.insert(ClassId(0), vec![Value::Int(1)]);
        wm.insert(ClassId(1), vec![Value::Int(2), Value::Int(3)]);
        let snapshot = wm.sorted_snapshot();
        let next = wm.next_id();

        let restored = WorkingMemory::from_parts(&reg, snapshot, next).unwrap();
        assert_eq!(restored.sorted_snapshot(), wm.sorted_snapshot());
        assert_eq!(restored.iter_class(ClassId(1)).count(), 1);
        // Inserting into both produces the same id.
        let mut wm = wm;
        let mut restored = restored;
        let a = wm.insert(ClassId(0), vec![Value::Int(9)]);
        let b = restored.insert(ClassId(0), vec![Value::Int(9)]);
        assert_eq!(a.id, b.id);
    }

    #[test]
    fn from_parts_rejects_malformed_input() {
        let i = Interner::new();
        let reg = reg2(&i);
        let w = |id: u64, class: u32| Wme::new(WmeId(id), ClassId(class), vec![Value::Int(0)]);
        assert_eq!(
            WorkingMemory::from_parts(&reg, vec![w(1, 7)], 2).unwrap_err(),
            WmRestoreError::ClassOutOfRange {
                id: WmeId(1),
                class: ClassId(7),
                classes: 2
            }
        );
        assert_eq!(
            WorkingMemory::from_parts(&reg, vec![w(1, 0), w(1, 0)], 2).unwrap_err(),
            WmRestoreError::DuplicateId(WmeId(1))
        );
        assert_eq!(
            WorkingMemory::from_parts(&reg, vec![w(5, 0)], 5).unwrap_err(),
            WmRestoreError::NextIdNotPastMax {
                next_id: 5,
                max_id: 5
            }
        );
        // Errors render.
        assert!(WmRestoreError::DuplicateId(WmeId(1))
            .to_string()
            .contains("duplicate"));
    }

    #[test]
    fn delta_normalize_dedupes_removes_only() {
        let mut d = Delta::new();
        d.removes = vec![WmeId(3), WmeId(1), WmeId(3)];
        d.adds.push((ClassId(0), vec![Value::Int(1)].into()));
        d.adds.push((ClassId(0), vec![Value::Int(1)].into()));
        d.normalize();
        assert_eq!(d.removes, vec![WmeId(1), WmeId(3)]);
        assert_eq!(d.adds.len(), 2); // duplicate *facts* are allowed
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
    }
}
