//! Interference detection over the surviving set.
//!
//! PARULEL's position is that the *meta-rules* should make simultaneous
//! firing safe. The guard is the engine's backstop: it statically analyses
//! the read/write sets of the instantiations about to fire together and
//! auto-redacts (deterministically, keeping earlier instantiations in key
//! order) whatever the meta-rules missed. Table 4 of the reproduction
//! reports how much work the guard did — for a well-written program the
//! answer is zero.
//!
//! * **Read set** — the WMEs an instantiation matched positively.
//! * **Write set** — the WMEs its `remove`/`modify` actions retract
//!   (`modify` is retract-and-reassert). `make`s create fresh WMEs and
//!   never conflict by identity.
//!
//! Guard modes:
//!
//! * [`GuardMode::Off`] — fire everything (pure PARULEL semantics; the
//!   cycle delta is still deterministic, see `fire::fire_set`).
//! * [`GuardMode::WriteWrite`] — two instantiations may not both rewrite
//!   the same WME when at least one is a `modify` (remove+remove is
//!   idempotent and allowed).
//! * [`GuardMode::Serializable`] — additionally, an instantiation may not
//!   read a WME another one writes: the fired set is pairwise
//!   non-interfering, so the cycle is equivalent to *every* serial order
//!   of its firings.

use parulel_core::{Action, FxHashMap, FxHashSet, Instantiation, Program, WmeId};

/// Guard selection.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GuardMode {
    /// No guard: trust the meta-rules.
    #[default]
    Off,
    /// Suppress write-write conflicts.
    WriteWrite,
    /// Suppress write-write and read-write conflicts.
    Serializable,
}

/// Result of the guard phase.
#[derive(Clone, Debug)]
pub struct GuardOutcome {
    /// Instantiations cleared to fire, input order preserved.
    pub surviving: Vec<Instantiation>,
    /// How many the guard redacted.
    pub redacted: usize,
}

/// Per-instantiation access summary.
struct Access {
    reads: Vec<WmeId>,
    removes: Vec<WmeId>,
    modifies: Vec<WmeId>,
}

fn access(program: &Program, inst: &Instantiation) -> Access {
    let rule = program.rule(inst.rule);
    let mut removes = Vec::new();
    let mut modifies = Vec::new();
    for action in &rule.actions {
        match action {
            Action::Remove { ce } => removes.push(inst.wmes[*ce as usize].id),
            Action::Modify { ce, .. } => modifies.push(inst.wmes[*ce as usize].id),
            _ => {}
        }
    }
    Access {
        reads: inst.wmes.iter().map(|w| w.id).collect(),
        removes,
        modifies,
    }
}

/// Applies the guard: greedy in input order (callers pass key-sorted
/// sets, so the kept subset is deterministic).
pub fn guard(program: &Program, insts: Vec<Instantiation>, mode: GuardMode) -> GuardOutcome {
    if mode == GuardMode::Off || insts.len() <= 1 {
        return GuardOutcome {
            surviving: insts,
            redacted: 0,
        };
    }
    // Writer bookkeeping for everything kept so far:
    // wme -> strongest kept write (true = modify, false = remove-only).
    let mut kept_writes: FxHashMap<WmeId, bool> = FxHashMap::default();
    let mut kept_reads: FxHashSet<WmeId> = FxHashSet::default();
    let mut surviving = Vec::with_capacity(insts.len());
    let mut redacted = 0;
    for inst in insts {
        let a = access(program, &inst);
        let ww_conflict = a.modifies.iter().any(|w| kept_writes.contains_key(w))
            || a.removes
                .iter()
                .any(|w| kept_writes.get(w).copied().unwrap_or(false));
        let rw_conflict = mode == GuardMode::Serializable
            && (a.reads.iter().any(|w| kept_writes.contains_key(w))
                || a.removes
                    .iter()
                    .chain(a.modifies.iter())
                    .any(|w| kept_reads.contains(w)));
        if ww_conflict || rw_conflict {
            redacted += 1;
            continue;
        }
        for &w in &a.removes {
            kept_writes.entry(w).or_insert(false);
        }
        for &w in &a.modifies {
            kept_writes.insert(w, true);
        }
        kept_reads.extend(a.reads.iter().copied());
        surviving.push(inst);
    }
    GuardOutcome {
        surviving,
        redacted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_core::{Value, WorkingMemory};
    use parulel_lang::compile;
    use parulel_match::{Incremental, Matcher};
    use std::sync::Arc;

    fn surviving_count(src: &str, facts: &[(&str, Vec<i64>)], mode: GuardMode) -> (usize, usize) {
        let p = compile(src).unwrap();
        let mut wm = WorkingMemory::new(&p.classes);
        for (class, fields) in facts {
            let cid = p.classes.id_of(p.interner.intern(class)).unwrap();
            wm.insert(
                cid,
                fields.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>(),
            );
        }
        let mut m = Incremental::rete(Arc::new(p.clone()));
        m.seed(&wm);
        let el = m.conflict_set().sorted();
        let out = guard(&p, el, mode);
        (out.surviving.len(), out.redacted)
    }

    // Two rules both modify the same counter WME.
    const MODIFY_RACE: &str = "
        (literalize counter v)
        (literalize tick id)
        (p bump (tick ^id <i>) (counter ^v <c>) --> (modify 2 ^v (+ <c> 1)) (remove 1))";

    #[test]
    fn off_mode_keeps_everything() {
        let (kept, redacted) = surviving_count(
            MODIFY_RACE,
            &[("counter", vec![0]), ("tick", vec![1]), ("tick", vec![2])],
            GuardMode::Off,
        );
        assert_eq!((kept, redacted), (2, 0));
    }

    #[test]
    fn write_write_keeps_one_modifier() {
        let (kept, redacted) = surviving_count(
            MODIFY_RACE,
            &[("counter", vec![0]), ("tick", vec![1]), ("tick", vec![2])],
            GuardMode::WriteWrite,
        );
        assert_eq!((kept, redacted), (1, 1));
    }

    #[test]
    fn remove_remove_is_not_a_ww_conflict() {
        let src = "
            (literalize item id)
            (literalize evict id)
            (p gc (evict ^id <e>) (item ^id <i>) --> (remove 2))";
        // two evict orders target the same item: both remove it — fine.
        let (kept, redacted) = surviving_count(
            src,
            &[("item", vec![7]), ("evict", vec![1]), ("evict", vec![2])],
            GuardMode::WriteWrite,
        );
        assert_eq!((kept, redacted), (2, 0));
    }

    #[test]
    fn serializable_blocks_read_write_overlap() {
        let src = "
            (literalize item id)
            (literalize evict id)
            (p gc (evict ^id <e>) (item ^id <i>) --> (remove 2))";
        // Under Serializable both instantiations read AND remove item 7:
        // second conflicts with first.
        let (kept, redacted) = surviving_count(
            src,
            &[("item", vec![7]), ("evict", vec![1]), ("evict", vec![2])],
            GuardMode::Serializable,
        );
        assert_eq!((kept, redacted), (1, 1));
    }

    #[test]
    fn disjoint_instantiations_all_pass() {
        let src = "
            (literalize cell id v)
            (p step (cell ^id <i> ^v <x>) --> (modify 1 ^v (+ <x> 1)))";
        let (kept, redacted) = surviving_count(
            src,
            &[
                ("cell", vec![1, 0]),
                ("cell", vec![2, 0]),
                ("cell", vec![3, 0]),
            ],
            GuardMode::Serializable,
        );
        assert_eq!((kept, redacted), (3, 0));
    }
}
