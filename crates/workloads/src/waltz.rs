//! Waltz-style constraint-label pruning on a ring of junctions.
//!
//! The classic Waltz line-labeling benchmark is arc-consistency filtering:
//! each junction holds a set of candidate labelings; a candidate dies when
//! some adjacent junction has *no* candidate whose facing edge label is
//! compatible. Deletions cascade in waves across the drawing — the
//! remove-heavy, negation-driven end of the suite (contrast with
//! `closure`'s pure adds).
//!
//! The reproduction keeps the constraint structure and drops the drawing
//! bookkeeping: `n` junctions on a ring, each with `d` candidate
//! labelings of its two incident edges over a 4-code label alphabet;
//! label `l` is compatible with facing label `3 - l` (a fixed perfect
//! matching on codes, standing in for the +/-/arrow complement of
//! Huffman–Clowes labels). Each candidate is asserted as two `jslot`
//! facts (one per incident edge) carrying both its own label and the
//! precomputed facing label — which lets a single negated CE express
//! "no supporting candidate across this edge".

use crate::Scenario;
use parulel_core::{FxHashSet, Program, Value, WorkingMemory};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SOURCE: &str = "
(literalize edge a sa b sb)
(literalize jslot junction cand slot lab comp)
(p prune
  (edge ^a <ja> ^sa <sa> ^b <jb> ^sb <sb>)
  (jslot ^junction <ja> ^cand <c> ^slot <sa> ^lab <l> ^comp <cmp>)
  (jslot ^junction <ja> ^cand <c> ^slot { <> <sa> <s2> })
  -(jslot ^junction <jb> ^slot <sb> ^lab <cmp>)
 -->
  (remove 2)
  (remove 3))
";

const CODES: i64 = 4;

fn comp(lab: i64) -> i64 {
    CODES - 1 - lab
}

/// The Waltz-style pruning scenario.
pub struct Waltz {
    name: String,
    program: Program,
    n: usize,
    /// `cands[j]` = candidate labelings (lab towards previous, towards next).
    cands: Vec<Vec<(i64, i64)>>,
    /// Reference AC fixpoint: surviving candidate indices per junction.
    expected: Vec<FxHashSet<usize>>,
}

impl Waltz {
    /// A ring of `n` junctions with up to `d` candidates each; junction 0
    /// is clamped to a single candidate so a pruning wave starts there.
    pub fn new(n: usize, d: usize, seed: u64) -> Self {
        assert!(n >= 3, "ring needs at least 3 junctions");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cands: Vec<Vec<(i64, i64)>> = Vec::with_capacity(n);
        for j in 0..n {
            let want = if j == 0 { 1 } else { d };
            let mut set = FxHashSet::default();
            let mut list = Vec::new();
            let mut attempts = 0;
            while list.len() < want && attempts < 64 {
                attempts += 1;
                let pair = (rng.gen_range(0..CODES), rng.gen_range(0..CODES));
                if set.insert(pair) {
                    list.push(pair);
                }
            }
            cands.push(list);
        }
        let expected = reference_ac(&cands);
        Waltz {
            name: format!("waltz(n={n},d={d})"),
            program: parulel_lang::compile(SOURCE).expect("waltz program compiles"),
            n,
            cands,
            expected,
        }
    }

    /// Total candidates before pruning.
    pub fn initial_candidates(&self) -> usize {
        self.cands.iter().map(|c| c.len()).sum()
    }

    /// Total candidates surviving arc consistency (reference).
    pub fn expected_candidates(&self) -> usize {
        self.expected.iter().map(|s| s.len()).sum()
    }
}

/// Reference arc-consistency fixpoint on the ring.
fn reference_ac(cands: &[Vec<(i64, i64)>]) -> Vec<FxHashSet<usize>> {
    let n = cands.len();
    let mut live: Vec<FxHashSet<usize>> = cands.iter().map(|c| (0..c.len()).collect()).collect();
    loop {
        let mut changed = false;
        for j in 0..n {
            let prev = (j + n - 1) % n;
            let next = (j + 1) % n;
            let dead: Vec<usize> = live[j]
                .iter()
                .copied()
                .filter(|&c| {
                    let (to_prev, to_next) = cands[j][c];
                    // supported towards prev: prev has a candidate whose
                    // label towards next (slot 1) == comp(to_prev)
                    let prev_ok = live[prev]
                        .iter()
                        .any(|&pc| cands[prev][pc].1 == comp(to_prev));
                    let next_ok = live[next]
                        .iter()
                        .any(|&nc| cands[next][nc].0 == comp(to_next));
                    !(prev_ok && next_ok)
                })
                .collect();
            for c in dead {
                live[j].remove(&c);
                changed = true;
            }
        }
        if !changed {
            return live;
        }
    }
}

impl Scenario for Waltz {
    fn name(&self) -> &str {
        &self.name
    }

    fn source(&self) -> &str {
        SOURCE
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn initial_wm(&self) -> WorkingMemory {
        let mut wm = WorkingMemory::new(&self.program.classes);
        let i = &self.program.interner;
        let edge = self.program.classes.id_of(i.intern("edge")).unwrap();
        let jslot = self.program.classes.id_of(i.intern("jslot")).unwrap();
        let n = self.n as i64;
        for j in 0..n {
            let next = (j + 1) % n;
            // j's slot 1 faces next's slot 0, in both directions.
            wm.insert(
                edge,
                vec![
                    Value::Int(j),
                    Value::Int(1),
                    Value::Int(next),
                    Value::Int(0),
                ],
            );
            wm.insert(
                edge,
                vec![
                    Value::Int(next),
                    Value::Int(0),
                    Value::Int(j),
                    Value::Int(1),
                ],
            );
        }
        for (j, cands) in self.cands.iter().enumerate() {
            for (c, &(to_prev, to_next)) in cands.iter().enumerate() {
                wm.insert(
                    jslot,
                    vec![
                        Value::Int(j as i64),
                        Value::Int(c as i64),
                        Value::Int(0),
                        Value::Int(to_prev),
                        Value::Int(comp(to_prev)),
                    ],
                );
                wm.insert(
                    jslot,
                    vec![
                        Value::Int(j as i64),
                        Value::Int(c as i64),
                        Value::Int(1),
                        Value::Int(to_next),
                        Value::Int(comp(to_next)),
                    ],
                );
            }
        }
        wm
    }

    fn validate(&self, wm: &WorkingMemory) -> Result<(), String> {
        let i = &self.program.interner;
        let jslot = self.program.classes.id_of(i.intern("jslot")).unwrap();
        let mut got: Vec<FxHashSet<usize>> = vec![FxHashSet::default(); self.n];
        let mut slot_count = 0usize;
        for w in wm.iter_class(jslot) {
            let (Value::Int(j), Value::Int(c)) = (w.field(0), w.field(1)) else {
                return Err("malformed jslot".into());
            };
            got[j as usize].insert(c as usize);
            slot_count += 1;
        }
        // Both slots of a surviving candidate must survive together.
        let surviving: usize = got.iter().map(|s| s.len()).sum();
        if slot_count != surviving * 2 {
            return Err(format!(
                "torn candidates: {slot_count} jslots for {surviving} candidates"
            ));
        }
        for (j, want) in self.expected.iter().enumerate() {
            if &got[j] != want {
                return Err(format!(
                    "junction {j}: surviving candidates {:?}, expected {:?}",
                    got[j], want
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_engine::{Engine, EngineOptions};

    #[test]
    fn pruning_reaches_the_ac_fixpoint() {
        let s = Waltz::new(12, 4, 17);
        assert!(s.initial_candidates() > s.expected_candidates());
        let mut e = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        let out = e.run().unwrap();
        assert!(out.quiescent);
        s.validate(e.wm()).unwrap();
    }

    #[test]
    fn fully_consistent_ring_prunes_nothing() {
        // Build candidates so every label is 0 facing 3: all supported.
        let mut s = Waltz::new(3, 1, 1);
        s.cands = vec![vec![(0, 0)]; 3];
        // label 0 faces comp(0)=3 — unsupported; instead use self-dual
        // pair (l, comp(l)) so neighbors agree: j's slot1 lab L must face
        // next's slot0 lab comp(L). Pick lab = 1, facing = 2.
        s.cands = vec![vec![(2, 1)]; 3];
        s.expected = reference_ac(&s.cands);
        assert_eq!(s.expected_candidates(), 3, "reference finds all supported");
        let mut e = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        let out = e.run().unwrap();
        assert_eq!(out.firings, 0);
        s.validate(e.wm()).unwrap();
    }

    #[test]
    fn unsatisfiable_ring_empties_every_domain() {
        let mut s = Waltz::new(3, 1, 1);
        // Junction 1 can never face junction 0's demand.
        s.cands = vec![vec![(2, 1)], vec![(0, 0)], vec![(2, 1)]];
        s.expected = reference_ac(&s.cands);
        assert_eq!(s.expected_candidates(), 0);
        let mut e = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        e.run().unwrap();
        s.validate(e.wm()).unwrap();
    }

    #[test]
    fn reference_ac_is_sound_on_a_supported_pair() {
        // 3-ring where all face correctly: (to_prev, to_next) = (2,1)
        // everywhere; comp(1) = 2 so slot1 lab 1 faces slot0 lab 2. ✔
        let cands = vec![vec![(2, 1)]; 3];
        let live = reference_ac(&cands);
        assert!(live.iter().all(|s| s.len() == 1));
    }
}
