//! Miss-Manners-style seating at many tables.
//!
//! Each table seats its guests left-to-right with alternating sexes. All
//! tables progress **in parallel** (one seat per table per cycle), while
//! *within* a table the meta-rules pick exactly one guest (the
//! lowest-numbered candidate of the required sex) per seat — the classic
//! "many candidates, one choice" conflict-set shape the original Miss
//! Manners benchmark stresses.
//!
//! Guests are pre-assigned to tables with an exactly-alternating sex
//! multiset, so the greedy choice always completes (no backtracking —
//! PARULEL, like OPS5, is a commit-choice language).

use crate::Scenario;
use parulel_core::{FxHashMap, Program, Value, WorkingMemory};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const SOURCE: &str = "
(literalize guest id table sex)
(literalize seat table pos sex)
(literalize want table pos lastsex)
(p place
  (want ^table <t> ^pos <p> ^lastsex <ls>)
  (guest ^id <g> ^table <t> ^sex { <> <ls> <s> })
 -->
  (make seat ^table <t> ^pos <p> ^sex <s>)
  (modify 1 ^pos (+ <p> 1) ^lastsex <s>)
  (remove 2)
  (write seated <g> at table <t> pos <p>))
(mp lowest-guest-first
  (inst place (want ^table <t>) (guest ^id <g1>))
  (inst place (want ^table <t>) (guest ^id <g2>))
  (test (> <g1> <g2>))
 -->
  (redact 1))
";

/// The seating scenario.
pub struct Seating {
    name: String,
    program: Program,
    tables: usize,
    per_table: usize,
    /// guest id -> (table, sex code 0/1), shuffled assignment order.
    guests: Vec<(i64, i64, &'static str)>,
}

impl Seating {
    /// `tables` tables, each with `per_table` guests (made even so sexes
    /// alternate perfectly).
    pub fn new(tables: usize, per_table: usize, seed: u64) -> Self {
        let per_table = per_table.max(2) & !1; // even
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut guests = Vec::new();
        let mut id = 0i64;
        for t in 0..tables as i64 {
            for k in 0..per_table {
                let sex = if k % 2 == 0 { "m" } else { "f" };
                guests.push((id, t, sex));
                id += 1;
            }
        }
        guests.shuffle(&mut rng);
        Seating {
            name: format!("seating(t={tables},g={per_table})"),
            program: parulel_lang::compile(SOURCE).expect("seating program compiles"),
            tables,
            per_table,
            guests,
        }
    }
}

impl Scenario for Seating {
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
        let guest = self.program.classes.id_of(i.intern("guest")).unwrap();
        let want = self.program.classes.id_of(i.intern("want")).unwrap();
        let none = i.intern("none");
        for &(id, table, sex) in &self.guests {
            wm.insert(
                guest,
                vec![Value::Int(id), Value::Int(table), Value::Sym(i.intern(sex))],
            );
        }
        for t in 0..self.tables as i64 {
            // lastsex starts as a sentinel no sex equals, so either sex
            // may take seat 1.
            wm.insert(want, vec![Value::Int(t), Value::Int(1), Value::Sym(none)]);
        }
        wm
    }

    fn validate(&self, wm: &WorkingMemory) -> Result<(), String> {
        let i = &self.program.interner;
        let guest = self.program.classes.id_of(i.intern("guest")).unwrap();
        let seat = self.program.classes.id_of(i.intern("seat")).unwrap();
        if wm.class_len(guest) != 0 {
            return Err(format!("{} guests left standing", wm.class_len(guest)));
        }
        // (table, pos) -> sex
        let mut seats: FxHashMap<(i64, i64), String> = FxHashMap::default();
        for w in wm.iter_class(seat) {
            let (Value::Int(t), Value::Int(p), Value::Sym(s)) =
                (w.field(0), w.field(1), w.field(2))
            else {
                return Err("malformed seat fact".into());
            };
            if seats.insert((t, p), i.resolve(s).to_string()).is_some() {
                return Err(format!("seat ({t},{p}) filled twice"));
            }
        }
        if seats.len() != self.tables * self.per_table {
            return Err(format!(
                "expected {} filled seats, found {}",
                self.tables * self.per_table,
                seats.len()
            ));
        }
        for t in 0..self.tables as i64 {
            for p in 1..=self.per_table as i64 {
                let here = seats
                    .get(&(t, p))
                    .ok_or_else(|| format!("seat ({t},{p}) empty"))?;
                if p > 1 {
                    let prev = &seats[&(t, p - 1)];
                    if prev == here {
                        return Err(format!(
                            "table {t}: seats {p} and {} share sex {here}",
                            p - 1
                        ));
                    }
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
    fn tables_fill_in_parallel() {
        let s = Seating::new(3, 6, 1);
        let mut e = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        let out = e.run().unwrap();
        assert!(out.quiescent);
        s.validate(e.wm()).unwrap();
        // 3 tables x 6 seats = 18 firings, but only ~6 cycles (one seat
        // per table per cycle).
        assert_eq!(out.firings, 18);
        assert_eq!(out.cycles, 6);
        assert!(e.stats().redacted_meta > 0);
    }

    #[test]
    fn serial_baseline_also_valid_but_many_cycles() {
        let s = Seating::new(2, 4, 2);
        let mut e = Engine::with_policy(
            s.program(),
            s.initial_wm(),
            FiringPolicy::SelectOne(Strategy::Mea),
            EngineOptions::default(),
        );
        let out = e.run().unwrap();
        assert!(out.quiescent);
        s.validate(e.wm()).unwrap();
        assert_eq!(
            out.cycles, 8,
            "serial: one seat per cycle across all tables"
        );
    }

    #[test]
    fn single_table_is_fully_sequential() {
        let s = Seating::new(1, 8, 3);
        let mut e = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        let out = e.run().unwrap();
        assert_eq!(out.cycles, 8, "no intra-table parallelism by design");
        s.validate(e.wm()).unwrap();
    }
}
