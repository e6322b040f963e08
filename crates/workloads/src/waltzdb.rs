//! WaltzDB-style constraint pruning on a grid: the "big drawing" variant.
//!
//! Where [`crate::waltz`] runs on a ring (every junction has degree 2 and
//! one prune rule suffices), this scenario runs on a `w × h` grid whose
//! interior junctions have degree 4, edges degree 3, and corners degree 2
//! — like the multi-junction-type dictionaries of the classic WaltzDB
//! benchmark. One prune rule per junction degree: a rule for degree *d*
//! matches the candidate's *d* `jslot` facts (made unique by ordering the
//! non-triggering slots) plus the unsupported-edge condition, and retracts
//! all of them at once.
//!
//! Slot numbering: 0 = west, 1 = east, 2 = north, 3 = south, but only the
//! slots that exist for the junction's position are asserted; candidate
//! labelings assign one label code per *existing* slot.

use crate::Scenario;
use parulel_core::{FxHashMap, FxHashSet, Program, Value, WorkingMemory};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SOURCE: &str = "
(literalize edge a sa b sb)
(literalize deg junction d)
(literalize jslot junction cand slot lab comp)
(p prune2
  (edge ^a <ja> ^sa <sa> ^b <jb> ^sb <sb>)
  (deg ^junction <ja> ^d 2)
  (jslot ^junction <ja> ^cand <c> ^slot <sa> ^lab <l> ^comp <cmp>)
  (jslot ^junction <ja> ^cand <c> ^slot { <> <sa> <s2> })
  -(jslot ^junction <jb> ^slot <sb> ^lab <cmp>)
 -->
  (remove 3)
  (remove 4))
(p prune3
  (edge ^a <ja> ^sa <sa> ^b <jb> ^sb <sb>)
  (deg ^junction <ja> ^d 3)
  (jslot ^junction <ja> ^cand <c> ^slot <sa> ^lab <l> ^comp <cmp>)
  (jslot ^junction <ja> ^cand <c> ^slot { <> <sa> <s2> })
  (jslot ^junction <ja> ^cand <c> ^slot { <> <sa> > <s2> <s3> })
  -(jslot ^junction <jb> ^slot <sb> ^lab <cmp>)
 -->
  (remove 3)
  (remove 4)
  (remove 5))
(p prune4
  (edge ^a <ja> ^sa <sa> ^b <jb> ^sb <sb>)
  (deg ^junction <ja> ^d 4)
  (jslot ^junction <ja> ^cand <c> ^slot <sa> ^lab <l> ^comp <cmp>)
  (jslot ^junction <ja> ^cand <c> ^slot { <> <sa> <s2> })
  (jslot ^junction <ja> ^cand <c> ^slot { <> <sa> > <s2> <s3> })
  (jslot ^junction <ja> ^cand <c> ^slot { <> <sa> > <s3> <s4> })
  -(jslot ^junction <jb> ^slot <sb> ^lab <cmp>)
 -->
  (remove 3)
  (remove 4)
  (remove 5)
  (remove 6))
";

const CODES: i64 = 4;

fn comp(lab: i64) -> i64 {
    CODES - 1 - lab
}

/// One candidate labeling: `(slot, label)` per existing slot, slot-sorted.
type Cand = Vec<(usize, i64)>;

/// The grid-Waltz scenario.
pub struct WaltzDb {
    name: String,
    program: Program,
    w: usize,
    h: usize,
    /// `cands[j]` = candidates of junction j (j = y*w + x).
    cands: Vec<Vec<Cand>>,
    /// Directed adjacency: (a, sa, b, sb).
    edges: Vec<(usize, usize, usize, usize)>,
    expected: Vec<FxHashSet<usize>>,
}

impl WaltzDb {
    /// A `w × h` grid with up to `d` candidates per junction; junction 0
    /// (a corner) is clamped to one candidate to start a pruning wave.
    pub fn new(w: usize, h: usize, d: usize, seed: u64) -> Self {
        assert!(w >= 2 && h >= 2, "grid must be at least 2x2");
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = w * h;
        // slots: 0=W,1=E,2=N,3=S
        let slots_of = |x: usize, y: usize| -> Vec<usize> {
            let mut s = Vec::with_capacity(4);
            if x > 0 {
                s.push(0);
            }
            if x + 1 < w {
                s.push(1);
            }
            if y > 0 {
                s.push(2);
            }
            if y + 1 < h {
                s.push(3);
            }
            s
        };
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let j = y * w + x;
                if x + 1 < w {
                    // j's east (1) faces (x+1,y)'s west (0)
                    edges.push((j, 1, j + 1, 0));
                    edges.push((j + 1, 0, j, 1));
                }
                if y + 1 < h {
                    // j's south (3) faces (x,y+1)'s north (2)
                    edges.push((j, 3, j + w, 2));
                    edges.push((j + w, 2, j, 3));
                }
            }
        }
        let mut cands: Vec<Vec<Cand>> = Vec::with_capacity(n);
        for y in 0..h {
            for x in 0..w {
                let j = y * w + x;
                let slots = slots_of(x, y);
                let want = if j == 0 { 1 } else { d };
                let mut set: FxHashSet<Vec<i64>> = FxHashSet::default();
                let mut list: Vec<Cand> = Vec::new();
                let mut attempts = 0;
                while list.len() < want && attempts < 128 {
                    attempts += 1;
                    let labs: Vec<i64> = slots.iter().map(|_| rng.gen_range(0..CODES)).collect();
                    if set.insert(labs.clone()) {
                        list.push(slots.iter().copied().zip(labs).collect());
                    }
                }
                cands.push(list);
            }
        }
        let expected = reference_ac(&cands, &edges);
        WaltzDb {
            name: format!("waltzdb({w}x{h},d={d})"),
            program: parulel_lang::compile(SOURCE).expect("waltzdb program compiles"),
            w,
            h,
            cands,
            edges,
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

/// Reference arc consistency on arbitrary topology.
fn reference_ac(
    cands: &[Vec<Cand>],
    edges: &[(usize, usize, usize, usize)],
) -> Vec<FxHashSet<usize>> {
    let mut live: Vec<FxHashSet<usize>> = cands.iter().map(|c| (0..c.len()).collect()).collect();
    // Per-junction slot->label lookup helper.
    let lab_of = |cand: &Cand, slot: usize| -> Option<i64> {
        cand.iter().find(|(s, _)| *s == slot).map(|(_, l)| *l)
    };
    loop {
        let mut changed = false;
        for &(a, sa, b, sb) in edges {
            let dead: Vec<usize> = live[a]
                .iter()
                .copied()
                .filter(|&c| {
                    let Some(l) = lab_of(&cands[a][c], sa) else {
                        return false;
                    };
                    let want = comp(l);
                    !live[b]
                        .iter()
                        .any(|&bc| lab_of(&cands[b][bc], sb) == Some(want))
                })
                .collect();
            for c in dead {
                live[a].remove(&c);
                changed = true;
            }
        }
        if !changed {
            return live;
        }
    }
}

impl Scenario for WaltzDb {
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
        let deg = self.program.classes.id_of(i.intern("deg")).unwrap();
        let jslot = self.program.classes.id_of(i.intern("jslot")).unwrap();
        for &(a, sa, b, sb) in &self.edges {
            wm.insert(
                edge,
                vec![
                    Value::Int(a as i64),
                    Value::Int(sa as i64),
                    Value::Int(b as i64),
                    Value::Int(sb as i64),
                ],
            );
        }
        for (j, cands) in self.cands.iter().enumerate() {
            let degree = cands.first().map(|c| c.len()).unwrap_or(0);
            wm.insert(deg, vec![Value::Int(j as i64), Value::Int(degree as i64)]);
            for (c, cand) in cands.iter().enumerate() {
                for &(slot, lab) in cand {
                    wm.insert(
                        jslot,
                        vec![
                            Value::Int(j as i64),
                            Value::Int(c as i64),
                            Value::Int(slot as i64),
                            Value::Int(lab),
                            Value::Int(comp(lab)),
                        ],
                    );
                }
            }
        }
        wm
    }

    fn validate(&self, wm: &WorkingMemory) -> Result<(), String> {
        let i = &self.program.interner;
        let jslot = self.program.classes.id_of(i.intern("jslot")).unwrap();
        let n = self.w * self.h;
        let mut got: Vec<FxHashMap<usize, usize>> = vec![FxHashMap::default(); n];
        for w in wm.iter_class(jslot) {
            let (Value::Int(j), Value::Int(c)) = (w.field(0), w.field(1)) else {
                return Err("malformed jslot".into());
            };
            *got[j as usize].entry(c as usize).or_insert(0) += 1;
        }
        for (j, want) in self.expected.iter().enumerate() {
            let have: FxHashSet<usize> = got[j].keys().copied().collect();
            if &have != want {
                return Err(format!(
                    "junction {j}: surviving candidates {have:?}, expected {want:?}"
                ));
            }
            // No torn candidates: every surviving candidate keeps all its
            // slot facts.
            let degree = self.cands[j].first().map(|c| c.len()).unwrap_or(0);
            for (&c, &count) in &got[j] {
                if count != degree {
                    return Err(format!(
                        "junction {j} candidate {c}: {count}/{degree} slots survive"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_engine::{Engine, EngineOptions, FiringPolicy, Strategy};

    #[test]
    fn grid_pruning_reaches_the_ac_fixpoint() {
        let s = WaltzDb::new(4, 4, 4, 31);
        assert!(s.initial_candidates() > 0);
        let mut e = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        let out = e.run().unwrap();
        assert!(out.quiescent);
        s.validate(e.wm()).unwrap();
    }

    #[test]
    fn degree_rules_cover_corners_edges_interiors() {
        // a 3x3 grid has all three degrees: corners 2, edges 3, center 4
        let s = WaltzDb::new(3, 3, 3, 7);
        assert_eq!(s.cands[0].first().unwrap().len(), 2); // corner
        assert_eq!(s.cands[1].first().unwrap().len(), 3); // edge
        assert_eq!(s.cands[4].first().unwrap().len(), 4); // center
        let mut e = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        e.run().unwrap();
        s.validate(e.wm()).unwrap();
    }

    #[test]
    fn serial_engine_agrees() {
        let s = WaltzDb::new(3, 3, 3, 5);
        let mut e = Engine::with_policy(
            s.program(),
            s.initial_wm(),
            FiringPolicy::SelectOne(Strategy::Lex),
            EngineOptions::default(),
        );
        e.run().unwrap();
        s.validate(e.wm()).unwrap();
    }

    #[test]
    fn reference_ac_and_engine_agree_across_seeds() {
        for seed in [1, 2, 3, 4, 5] {
            let s = WaltzDb::new(3, 4, 3, seed);
            let mut e = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
            e.run().unwrap();
            s.validate(e.wm())
                .unwrap_or_else(|err| panic!("seed {seed}: {err}"));
        }
    }
}
