//! Order matching across many instruments: the OLTP-flavored workload.
//!
//! Buy and sell orders on the same symbol cross when
//! `buy.price >= sell.price`. One buy may cross many sells and vice versa
//! — firing them all would double-fill orders. Four meta-rules keep, per
//! cycle, only *mutual best* pairs: each buy keeps its cheapest crossing
//! sell, each sell its highest-paying buy (ties broken by order id).
//! Within one symbol that is exactly price priority — one trade per cycle,
//! like a real auction — while *across* symbols matching proceeds in
//! parallel, which is the PARULEL transaction-processing story: many
//! independent "transactions" per cycle, conflicts resolved declaratively.
//!
//! The fired set is always non-empty while any cross exists (per symbol,
//! the best-buy/cheapest-sell pair is mutual-best), so every book clears
//! maximally. Remove-heavy (every firing retracts two WMEs) — the
//! workload where TREAT's no-beta-state bet pays off.

use crate::Scenario;
use parulel_core::{FxHashMap, FxHashSet, Program, Value, WorkingMemory};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SOURCE: &str = "
(literalize buy id sym price)
(literalize sell id sym price)
(literalize trade buyer seller sym price)
(p cross
  (buy ^id <b> ^sym <y> ^price <pb>)
  (sell ^id <s> ^sym <y> ^price <ps>)
  (test (>= <pb> <ps>))
 -->
  (remove 1)
  (remove 2)
  (make trade ^buyer <b> ^seller <s> ^sym <y> ^price <ps>))
(mp cheapest-sell-per-buy
  (inst cross (buy ^id <b>) (sell ^price <p1>))
  (inst cross (buy ^id <b>) (sell ^price <p2>))
  (test (> <p1> <p2>))
 -->
  (redact 1))
(mp cheapest-sell-tie
  (inst cross (buy ^id <b>) (sell ^id <s1> ^price <p1>))
  (inst cross (buy ^id <b>) (sell ^id <s2> ^price <p2>))
  (test (= <p1> <p2>))
  (test (> <s1> <s2>))
 -->
  (redact 1))
(mp best-buy-per-sell
  (inst cross (buy ^price <q1>) (sell ^id <s>))
  (inst cross (buy ^price <q2>) (sell ^id <s>))
  (test (< <q1> <q2>))
 -->
  (redact 1))
(mp best-buy-tie
  (inst cross (buy ^id <b1> ^price <q1>) (sell ^id <s>))
  (inst cross (buy ^id <b2> ^price <q2>) (sell ^id <s>))
  (test (= <q1> <q2>))
  (test (> <b1> <b2>))
 -->
  (redact 1))
";

/// The order-matching scenario.
pub struct Market {
    name: String,
    program: Program,
    symbols: usize,
    buys: Vec<(i64, i64, i64)>,  // (id, sym, price)
    sells: Vec<(i64, i64, i64)>, // (id, sym, price)
}

impl Market {
    /// `per_side` buy and `per_side` sell orders spread over `symbols`
    /// instruments, prices uniform in 1..=100.
    pub fn new(per_side: usize, symbols: usize, seed: u64) -> Self {
        let symbols = symbols.max(1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut gen = |base: i64| -> Vec<(i64, i64, i64)> {
            (0..per_side as i64)
                .map(|i| {
                    (
                        base + i,
                        rng.gen_range(0..symbols as i64),
                        rng.gen_range(1..=100),
                    )
                })
                .collect()
        };
        let buys = gen(0);
        let sells = gen(1_000_000);
        Market {
            name: format!("market(n={per_side}x2,sym={symbols})"),
            program: parulel_lang::compile(SOURCE).expect("market program compiles"),
            symbols,
            buys,
            sells,
        }
    }

    /// Number of instruments (the available parallelism).
    pub fn symbol_count(&self) -> usize {
        self.symbols
    }
}

impl Scenario for Market {
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
        let buy = self.program.classes.id_of(i.intern("buy")).unwrap();
        let sell = self.program.classes.id_of(i.intern("sell")).unwrap();
        for &(id, sym, price) in &self.buys {
            wm.insert(
                buy,
                vec![Value::Int(id), Value::Int(sym), Value::Int(price)],
            );
        }
        for &(id, sym, price) in &self.sells {
            wm.insert(
                sell,
                vec![Value::Int(id), Value::Int(sym), Value::Int(price)],
            );
        }
        wm
    }

    fn validate(&self, wm: &WorkingMemory) -> Result<(), String> {
        let i = &self.program.interner;
        let buy = self.program.classes.id_of(i.intern("buy")).unwrap();
        let sell = self.program.classes.id_of(i.intern("sell")).unwrap();
        let trade = self.program.classes.id_of(i.intern("trade")).unwrap();
        let buy_info: FxHashMap<i64, (i64, i64)> = self
            .buys
            .iter()
            .map(|&(id, sym, price)| (id, (sym, price)))
            .collect();
        let sell_info: FxHashMap<i64, (i64, i64)> = self
            .sells
            .iter()
            .map(|&(id, sym, price)| (id, (sym, price)))
            .collect();

        let mut traded_buys: FxHashSet<i64> = FxHashSet::default();
        let mut traded_sells: FxHashSet<i64> = FxHashSet::default();
        for w in wm.iter_class(trade) {
            let (Value::Int(b), Value::Int(s), Value::Int(y), Value::Int(p)) =
                (w.field(0), w.field(1), w.field(2), w.field(3))
            else {
                return Err("malformed trade".into());
            };
            if !traded_buys.insert(b) {
                return Err(format!("buy {b} double-filled"));
            }
            if !traded_sells.insert(s) {
                return Err(format!("sell {s} double-filled"));
            }
            let (bs, bp) = *buy_info
                .get(&b)
                .ok_or_else(|| format!("trade references unknown buy {b}"))?;
            let (ss, sp) = *sell_info
                .get(&s)
                .ok_or_else(|| format!("trade references unknown sell {s}"))?;
            if bs != y || ss != y {
                return Err(format!("trade b{b}/s{s} crossed symbols"));
            }
            if bp < sp || p != sp {
                return Err(format!("invalid trade b{b} s{s} @ {p}"));
            }
        }
        for w in wm.iter_class(buy) {
            let Value::Int(b) = w.field(0) else {
                return Err("malformed buy".into());
            };
            if traded_buys.contains(&b) {
                return Err(format!("buy {b} both traded and resting"));
            }
        }
        // Per symbol, the book must be cleared: no resting cross.
        let mut max_buy: FxHashMap<i64, i64> = FxHashMap::default();
        let mut min_sell: FxHashMap<i64, i64> = FxHashMap::default();
        for w in wm.iter_class(buy) {
            if let (Value::Int(sym), Value::Int(p)) = (w.field(1), w.field(2)) {
                let e = max_buy.entry(sym).or_insert(i64::MIN);
                *e = (*e).max(p);
            }
        }
        for w in wm.iter_class(sell) {
            if let (Value::Int(sym), Value::Int(p)) = (w.field(1), w.field(2)) {
                let e = min_sell.entry(sym).or_insert(i64::MAX);
                *e = (*e).min(p);
            }
        }
        for (sym, &mb) in &max_buy {
            if let Some(&ms) = min_sell.get(sym) {
                if mb >= ms {
                    return Err(format!(
                        "symbol {sym} not cleared: resting buy {mb} crosses sell {ms}"
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
    use parulel_engine::{Engine, EngineOptions, GuardMode};

    #[test]
    fn book_clears_without_double_fills() {
        let s = Market::new(20, 4, 8);
        let mut e = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        let out = e.run().unwrap();
        assert!(out.quiescent);
        s.validate(e.wm()).unwrap();
        assert!(out.firings > 0);
    }

    #[test]
    fn symbols_trade_in_parallel() {
        let s = Market::new(24, 8, 2);
        let mut e = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        let out = e.run().unwrap();
        s.validate(e.wm()).unwrap();
        assert!(
            out.firings > out.cycles,
            "independent symbols should trade in the same cycle: {out:?}"
        );
    }

    #[test]
    fn single_symbol_is_price_priority_sequential() {
        let s = Market::new(10, 1, 3);
        let mut e = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        let out = e.run().unwrap();
        s.validate(e.wm()).unwrap();
        // mutual-best within one symbol = exactly one trade per cycle
        assert_eq!(out.firings, out.cycles);
    }

    #[test]
    fn serializable_guard_agrees_with_meta_rules() {
        // The meta-set already makes the fired set non-interfering, so the
        // strictest guard redacts nothing.
        let s = Market::new(16, 4, 4);
        let mut e = parulel_engine::Engine::with_policy(
            s.program(),
            s.initial_wm(),
            parulel_engine::FiringPolicy::FireAll {
                meta: true,
                guard: GuardMode::Serializable,
            },
            EngineOptions::default(),
        );
        e.run().unwrap();
        s.validate(e.wm()).unwrap();
        assert_eq!(e.stats().redacted_guard, 0);
    }

    #[test]
    fn empty_side_is_quiescent_immediately() {
        let s = Market::new(0, 1, 1);
        let mut e = Engine::new(s.program(), s.initial_wm(), EngineOptions::default());
        let out = e.run().unwrap();
        assert!(out.quiescent);
        assert_eq!(out.cycles, 0);
        s.validate(e.wm()).unwrap();
    }
}
