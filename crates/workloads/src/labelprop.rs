//! Connected components by minimum-label propagation.
//!
//! Every node starts labeled with its own id; each cycle, every node
//! adopts the smallest label among its neighbors (if smaller than its
//! own). Many neighbors may propose a label for the same node in the same
//! cycle — a *modify-modify* conflict that PARULEL resolves with
//! meta-rules alone: keep the proposal with the smallest label, breaking
//! ties by smallest proposing neighbor. Exactly one update per node per
//! cycle survives, so the engine can run guard-off.
//!
//! Convergence: components collapse to their minimum node id in
//! O(diameter) cycles.

use crate::Scenario;
use parulel_core::{FxHashMap, Program, Value, WorkingMemory};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SOURCE: &str = "
(literalize node id label)
(literalize arc from to)
(p prop
  (arc ^from <a> ^to <b>)
  (node ^id <a> ^label <la>)
  (node ^id <b> ^label <lb>)
  (test (< <la> <lb>))
 -->
  (modify 3 ^label <la>))
(mp keep-smaller-label
  (inst prop _ (node ^label <l1>) (node ^id <n>))
  (inst prop _ (node ^label <l2>) (node ^id <n>))
  (test (> <l1> <l2>))
 -->
  (redact 1))
(mp break-label-ties-by-source
  (inst prop (arc ^from <s1>) (node ^label <l1>) (node ^id <n>))
  (inst prop (arc ^from <s2>) (node ^label <l2>) (node ^id <n>))
  (test (= <l1> <l2>))
  (test (> <s1> <s2>))
 -->
  (redact 1))
";

/// The label-propagation scenario.
pub struct LabelProp {
    name: String,
    program: Program,
    nodes: usize,
    arcs: Vec<(i64, i64)>, // undirected input; asserted in both directions
    expected: FxHashMap<i64, i64>,
}

impl LabelProp {
    /// A random undirected graph with `nodes` vertices and `edges` edges
    /// (multi-component on purpose: edges are sparse).
    pub fn new(nodes: usize, edges: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut arcs = Vec::new();
        let mut seen = parulel_core::FxHashSet::default();
        while arcs.len() < edges {
            let a = rng.gen_range(0..nodes) as i64;
            let b = rng.gen_range(0..nodes) as i64;
            if a != b && seen.insert((a.min(b), a.max(b))) {
                arcs.push((a, b));
            }
        }
        let expected = reference_components(nodes, &arcs);
        LabelProp {
            name: format!("labelprop(n={nodes},e={edges})"),
            program: parulel_lang::compile(SOURCE).expect("labelprop program compiles"),
            nodes,
            arcs,
            expected,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }
}

/// Reference: union-find by repeated relaxation.
fn reference_components(nodes: usize, arcs: &[(i64, i64)]) -> FxHashMap<i64, i64> {
    let mut label: Vec<i64> = (0..nodes as i64).collect();
    loop {
        let mut changed = false;
        for &(a, b) in arcs {
            let (la, lb) = (label[a as usize], label[b as usize]);
            let min = la.min(lb);
            if la != min {
                label[a as usize] = min;
                changed = true;
            }
            if lb != min {
                label[b as usize] = min;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (0..nodes as i64).map(|i| (i, label[i as usize])).collect()
}

impl Scenario for LabelProp {
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
        let node = self
            .program
            .classes
            .id_of(self.program.interner.intern("node"))
            .unwrap();
        let arc = self
            .program
            .classes
            .id_of(self.program.interner.intern("arc"))
            .unwrap();
        for i in 0..self.nodes as i64 {
            wm.insert(node, vec![Value::Int(i), Value::Int(i)]);
        }
        for &(a, b) in &self.arcs {
            wm.insert(arc, vec![Value::Int(a), Value::Int(b)]);
            wm.insert(arc, vec![Value::Int(b), Value::Int(a)]);
        }
        wm
    }

    fn validate(&self, wm: &WorkingMemory) -> Result<(), String> {
        let node = self
            .program
            .classes
            .id_of(self.program.interner.intern("node"))
            .unwrap();
        let mut got: FxHashMap<i64, i64> = FxHashMap::default();
        for w in wm.iter_class(node) {
            let (Value::Int(id), Value::Int(label)) = (w.field(0), w.field(1)) else {
                return Err("non-integer node fact".into());
            };
            if got.insert(id, label).is_some() {
                return Err(format!("node {id} duplicated — interference leaked"));
            }
        }
        if got.len() != self.nodes {
            return Err(format!(
                "expected {} nodes, found {}",
                self.nodes,
                got.len()
            ));
        }
        for (id, want) in &self.expected {
            match got.get(id) {
                Some(l) if l == want => {}
                other => {
                    return Err(format!(
                        "node {id}: label {other:?}, expected {want} (component min)"
                    ))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_engine::{Engine, EngineOptions, GuardMode};

    #[test]
    fn meta_rules_alone_keep_updates_conflict_free() {
        let s = LabelProp::new(20, 24, 3);
        let mut e = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        let out = e.run().unwrap();
        assert!(out.quiescent);
        s.validate(e.wm()).unwrap();
        assert!(e.stats().redacted_meta > 0, "expected real redaction work");
    }

    #[test]
    fn guard_reports_zero_with_correct_metas() {
        // With the meta-rules in place the WriteWrite guard finds nothing.
        let s = LabelProp::new(16, 20, 9);
        let mut e = parulel_engine::Engine::with_policy(
            s.program(),
            s.initial_wm(),
            parulel_engine::FiringPolicy::FireAll {
                meta: true,
                guard: GuardMode::WriteWrite,
            },
            EngineOptions::default(),
        );
        e.run().unwrap();
        s.validate(e.wm()).unwrap();
        assert_eq!(e.stats().redacted_guard, 0);
    }

    #[test]
    fn star_graph_converges_in_one_hop() {
        // Node 0 in the middle: every leaf adopts 0 in cycle 1.
        let mut s = LabelProp::new(2, 1, 1);
        s.nodes = 6;
        s.arcs = (1..6).map(|i| (0i64, i as i64)).collect();
        s.expected = reference_components(6, &s.arcs);
        let mut e = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        let out = e.run().unwrap();
        assert_eq!(out.cycles, 1);
        assert_eq!(out.firings, 5);
        s.validate(e.wm()).unwrap();
    }

    #[test]
    fn reference_components_handles_isolated_nodes() {
        let m = reference_components(4, &[(0, 1)]);
        assert_eq!(m[&0], 0);
        assert_eq!(m[&1], 0);
        assert_eq!(m[&2], 2);
        assert_eq!(m[&3], 3);
    }
}
