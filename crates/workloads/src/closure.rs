//! Transitive closure over a random digraph.
//!
//! The "embarrassingly parallel" end of the suite: `reach` facts are pure
//! derivations (make-only), every frontier expands in one PARULEL cycle
//! (semi-naive evaluation falls out of the set-oriented semantics), and
//! negated CEs keep the derivation duplicate-free. Cycles-to-fixpoint
//! equals the graph diameter — compare with the serial engine, which needs
//! one cycle per derived fact.

use crate::Scenario;
use parulel_core::{FxHashSet, Program, Value, WorkingMemory};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SOURCE: &str = "
(literalize edge from to)
(literalize reach from to)
(p seed
  (edge ^from <a> ^to <b>)
  -(reach ^from <a> ^to <b>)
 -->
  (make reach ^from <a> ^to <b>))
(p close
  (reach ^from <a> ^to <b>)
  (edge ^from <b> ^to <c>)
  -(reach ^from <a> ^to <c>)
 -->
  (make reach ^from <a> ^to <c>))
";

/// The transitive-closure scenario.
pub struct Closure {
    name: String,
    program: Program,
    edges: Vec<(i64, i64)>,
    expected: FxHashSet<(i64, i64)>,
}

impl Closure {
    /// A random digraph with `nodes` vertices and `edges` distinct arcs.
    pub fn new(nodes: usize, edges: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut set = FxHashSet::default();
        let mut list = Vec::new();
        // A spine keeps the graph connected enough to have interesting
        // diameter; the rest is random.
        for i in 0..nodes.saturating_sub(1) {
            let e = (i as i64, i as i64 + 1);
            if set.insert(e) {
                list.push(e);
            }
            if list.len() >= edges {
                break;
            }
        }
        while list.len() < edges {
            let a = rng.gen_range(0..nodes) as i64;
            let b = rng.gen_range(0..nodes) as i64;
            if set.insert((a, b)) {
                list.push((a, b));
            }
        }
        let expected = reference_closure(&list);
        Closure {
            name: format!("closure(n={nodes},e={})", list.len()),
            program: parulel_lang::compile(SOURCE).expect("closure program compiles"),
            edges: list,
            expected,
        }
    }

    /// The generated arcs.
    pub fn edges(&self) -> &[(i64, i64)] {
        &self.edges
    }
}

/// Reference closure by BFS from every source.
fn reference_closure(edges: &[(i64, i64)]) -> FxHashSet<(i64, i64)> {
    let mut out: FxHashSet<(i64, i64)> = FxHashSet::default();
    let mut frontier: Vec<(i64, i64)> = edges.to_vec();
    out.extend(frontier.iter().copied());
    while let Some((a, b)) = frontier.pop() {
        for &(x, y) in edges {
            if x == b && out.insert((a, y)) {
                frontier.push((a, y));
            }
        }
    }
    out
}

impl Scenario for Closure {
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
        let edge = self
            .program
            .classes
            .id_of(self.program.interner.intern("edge"))
            .unwrap();
        for &(a, b) in &self.edges {
            wm.insert(edge, vec![Value::Int(a), Value::Int(b)]);
        }
        wm
    }

    fn validate(&self, wm: &WorkingMemory) -> Result<(), String> {
        let reach = self
            .program
            .classes
            .id_of(self.program.interner.intern("reach"))
            .unwrap();
        let mut got: FxHashSet<(i64, i64)> = FxHashSet::default();
        let mut rows = 0usize;
        for w in wm.iter_class(reach) {
            let (Value::Int(a), Value::Int(b)) = (w.field(0), w.field(1)) else {
                return Err("non-integer reach fact".into());
            };
            got.insert((a, b));
            rows += 1;
        }
        if got != self.expected {
            return Err(format!(
                "closure mismatch: got {} pairs, expected {}",
                got.len(),
                self.expected.len()
            ));
        }
        // Duplicates are possible in principle (two derivations in one
        // cycle); the negated CE prevents cross-cycle dupes only. Report
        // them so benches can see the dup rate, but same-cycle double
        // derivation of one pair is legal — only fail on gross blowup.
        if rows > got.len() * 3 {
            return Err(format!("excessive duplicate reach facts: {rows} rows"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parulel_engine::{Engine, EngineOptions, FiringPolicy, Strategy};

    #[test]
    fn parallel_engine_computes_the_closure() {
        let s = Closure::new(12, 18, 42);
        let mut e = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        let out = e.run().unwrap();
        assert!(out.quiescent);
        s.validate(e.wm()).unwrap();
        // diameter-bounded cycle count: far fewer cycles than firings
        assert!(out.cycles < out.firings, "{out:?}");
    }

    #[test]
    fn serial_engine_agrees_with_reference() {
        let s = Closure::new(8, 12, 1);
        let mut e = Engine::with_policy(
            s.program(),
            s.initial_wm(),
            FiringPolicy::SelectOne(Strategy::Lex),
            EngineOptions::default(),
        );
        let out = e.run().unwrap();
        assert!(out.quiescent);
        s.validate(e.wm()).unwrap();
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let a = Closure::new(10, 15, 5);
        let b = Closure::new(10, 15, 5);
        assert_eq!(a.edges(), b.edges());
        let c = Closure::new(10, 15, 6);
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn reference_closure_on_a_chain() {
        let edges = vec![(0, 1), (1, 2), (2, 3)];
        let c = reference_closure(&edges);
        assert_eq!(c.len(), 6); // 01 02 03 12 13 23
        assert!(c.contains(&(0, 3)));
        assert!(!c.contains(&(3, 0)));
    }
}
