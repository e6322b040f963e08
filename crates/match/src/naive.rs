//! The naive (recompute-everything) matcher: the correctness oracle. It
//! runs the same kernel walk as the incremental matcher, over class scans
//! instead of the shared alpha network's indexes.

use crate::enumerate::enumerate_rule;
use crate::Matcher;
use parulel_core::{ConflictSet, FxHashMap, Program, RuleId, Wme, WmeId};
use std::sync::Arc;

/// Recomputes the full conflict set from a mirror of working memory every
/// time it is asked. O(|WM|^ces) worst case — use only as an oracle, a
/// baseline, or on small problems.
pub struct NaiveMatcher {
    program: Arc<Program>,
    rules: Vec<RuleId>,
    by_class: Vec<FxHashMap<WmeId, Wme>>,
    cache: ConflictSet,
    dirty: bool,
    /// Lifetime count of full conflict-set recomputes.
    recomputes: u64,
}

impl NaiveMatcher {
    /// A naive matcher over every rule of `program`.
    pub fn new(program: Arc<Program>) -> Self {
        let rules = (0..program.rules().len() as u32).map(RuleId).collect();
        Self::with_rules(program, rules)
    }

    /// A naive matcher over a subset of `program`'s rules.
    pub fn with_rules(program: Arc<Program>, rules: Vec<RuleId>) -> Self {
        let classes = program.classes.len();
        NaiveMatcher {
            program,
            rules,
            by_class: vec![FxHashMap::default(); classes],
            cache: ConflictSet::new(),
            dirty: true,
            recomputes: 0,
        }
    }

    fn recompute(&mut self) {
        self.recomputes += 1;
        let mut out = Vec::new();
        for &rid in &self.rules {
            let rule = self.program.rule(rid);
            // No indexes: every CE's candidates are its class's members.
            enumerate_rule(
                rule,
                &|ce, _, cands| cands.extend(self.by_class[rule.ces[ce].class.index()].values()),
                &mut out,
            );
        }
        self.cache = out.into_iter().collect();
        self.dirty = false;
    }
}

impl Matcher for NaiveMatcher {
    fn add_wme(&mut self, wme: &Wme) {
        self.by_class[wme.class.index()].insert(wme.id, wme.clone());
        self.dirty = true;
    }

    fn remove_wme(&mut self, wme: &Wme) {
        self.by_class[wme.class.index()].remove(&wme.id);
        self.dirty = true;
    }

    fn conflict_set(&mut self) -> &ConflictSet {
        if self.dirty {
            self.recompute();
        }
        &self.cache
    }

    fn metrics(&self) -> crate::MatcherMetrics {
        crate::MatcherMetrics {
            kind: "naive",
            rules: self.rules.len(),
            conflict_set: self.cache.len(),
            alpha_wmes: self.by_class.iter().map(|m| m.len()).sum(),
            recomputes: self.recomputes,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_core::{Value, WorkingMemory};
    use parulel_lang::compile;

    fn setup() -> (Arc<Program>, WorkingMemory) {
        let p = Arc::new(
            compile(
                "(literalize job id status)
                 (literalize cpu id free)
                 (p assign (job ^id <j> ^status waiting) (cpu ^id <c> ^free yes)
                  --> (modify 1 ^status running) (modify 2 ^free no))",
            )
            .unwrap(),
        );
        let wm = WorkingMemory::new(&p.classes);
        (p, wm)
    }

    #[test]
    fn cross_product_conflict_set() {
        let (p, mut wm) = setup();
        let i = &p.interner;
        let (waiting, yes) = (i.intern("waiting"), i.intern("yes"));
        let job = p.classes.id_of(i.intern("job")).unwrap();
        let cpu = p.classes.id_of(i.intern("cpu")).unwrap();
        for j in 0..3 {
            wm.insert(job, vec![Value::Int(j), Value::Sym(waiting)]);
        }
        for c in 0..2 {
            wm.insert(cpu, vec![Value::Int(c), Value::Sym(yes)]);
        }
        let mut m = NaiveMatcher::new(p.clone());
        m.seed(&wm);
        assert_eq!(m.conflict_set().len(), 6); // 3 jobs x 2 cpus
    }

    #[test]
    fn incremental_add_remove_invalidate_cache() {
        let (p, mut wm) = setup();
        let i = &p.interner;
        let job = p.classes.id_of(i.intern("job")).unwrap();
        let cpu = p.classes.id_of(i.intern("cpu")).unwrap();
        let waiting = i.intern("waiting");
        let yes = i.intern("yes");
        let mut m = NaiveMatcher::new(p.clone());
        m.seed(&wm);
        assert_eq!(m.conflict_set().len(), 0);
        let j = wm.insert(job, vec![Value::Int(1), Value::Sym(waiting)]);
        let c = wm.insert(cpu, vec![Value::Int(9), Value::Sym(yes)]);
        m.add_wme(&j);
        m.add_wme(&c);
        assert_eq!(m.conflict_set().len(), 1);
        m.remove_wme(&c);
        assert_eq!(m.conflict_set().len(), 0);
    }

    #[test]
    fn rule_subset_restricts_matches() {
        let p = Arc::new(
            compile(
                "(literalize a x)
                 (p r1 (a ^x 1) --> (halt))
                 (p r2 (a ^x 1) --> (halt))",
            )
            .unwrap(),
        );
        let mut wm = WorkingMemory::new(&p.classes);
        let a = p.classes.id_of(p.interner.intern("a")).unwrap();
        wm.insert(a, vec![Value::Int(1)]);
        let mut all = NaiveMatcher::new(p.clone());
        all.seed(&wm);
        assert_eq!(all.conflict_set().len(), 2);
        let mut only_r2 = NaiveMatcher::with_rules(p.clone(), vec![RuleId(1)]);
        only_r2.seed(&wm);
        assert_eq!(only_r2.conflict_set().len(), 1);
        assert_eq!(
            only_r2.conflict_set().iter().next().unwrap().rule,
            RuleId(1)
        );
    }
}
