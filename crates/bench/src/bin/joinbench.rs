//! joinbench — the match hot path under a hot-rule-skewed workload.
//!
//! **Join throughput**: adds/sec and removes/sec through each match
//! engine (RETE, TREAT, and their rule-partitioned forms at 1/2/4/8
//! shards), batched like engine cycles with a conflict-set read per
//! batch. The workload is a two-class equality join whose key
//! distribution is skewed onto a few hot keys, so one rule dominates
//! match cost — the regime copy-and-constrain exists for.
//!
//! Timing bin: metrics stay OFF so measured walls are on the
//! uninstrumented hot path.

use parulel_bench::{BenchReport, Table};
use parulel_core::{Program, Value, Wme, WmeId};
use parulel_engine::{Json, MatcherKind};
use parulel_match::Matcher;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// WMEs streamed through each matcher (half `item`, half `probe`).
const WMES: usize = 1200;
/// Adds/removes per batch between conflict-set reads (an engine cycle's
/// delta, roughly).
const BATCH: usize = 100;
/// Join-key universe; most of the stream lands on the first few.
const KEYS: u64 = 32;
const HOT_KEYS: u64 = 4;
/// Share (percent) of WMEs whose key falls in the hot block.
const HOT_SHARE: u64 = 80;

/// One hot join rule plus seven cold never-matching rules, so an 8-way
/// rule partition gives every shard a rule to own while all real work
/// lands on `hot`'s shard.
fn hotjoin_program() -> Arc<Program> {
    let mut src = String::from(
        "(literalize item k v)\n\
         (literalize probe k v)\n\
         (p hot (item ^k <k> ^v <v>) (probe ^k <k> ^v <w>) --> (halt))\n",
    );
    for i in 0..7 {
        src.push_str(&format!(
            "(p cold{i} (item ^k <k> ^v <v>) (test (< <v> {})) --> (halt))\n",
            -1 - i as i64
        ));
    }
    Arc::new(parulel_lang::compile(&src).expect("hotjoin program compiles"))
}

/// Deterministic 64-bit LCG (Knuth constants) — the bench must not pull a
/// dependency or a time-seeded RNG for a reproducible stream.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn workload(program: &Program) -> Vec<Wme> {
    let class_of = |name: &str| {
        program
            .classes
            .id_of(program.interner.intern(name))
            .expect("workload class")
    };
    let (item, probe) = (class_of("item"), class_of("probe"));
    let mut rng = Lcg(0x9e3779b97f4a7c15);
    (0..WMES)
        .map(|i| {
            let r = rng.next();
            let key = if r % 100 < HOT_SHARE {
                (r / 100) % HOT_KEYS
            } else {
                HOT_KEYS + (r / 100) % (KEYS - HOT_KEYS)
            };
            Wme::new(
                WmeId(i as u64),
                if i % 2 == 0 { item } else { probe },
                vec![Value::Int(key as i64), Value::Int(i as i64)],
            )
        })
        .collect()
}

struct Drive {
    add: Duration,
    remove: Duration,
    cs_peak: usize,
}

/// Streams the workload in: batched adds with a conflict-set read per
/// batch (the engine's cadence), then batched removes the same way.
fn drive(m: &mut dyn Matcher, wmes: &[Wme]) -> Drive {
    let mut cs_peak = 0;
    let t = Instant::now();
    for chunk in wmes.chunks(BATCH) {
        m.apply(&[], chunk);
        cs_peak = cs_peak.max(m.conflict_set().len());
    }
    let add = t.elapsed();
    let t = Instant::now();
    for chunk in wmes.chunks(BATCH) {
        m.apply(chunk, &[]);
        let _ = m.conflict_set().len();
    }
    let remove = t.elapsed();
    assert_eq!(m.conflict_set().len(), 0, "stream must drain clean");
    Drive { add, remove, cs_peak }
}

fn per_sec(n: usize, d: Duration) -> f64 {
    n as f64 / d.as_secs_f64().max(1e-9)
}

fn throughput_row(
    rep: &mut BenchReport,
    t: &mut Table,
    m: &mut dyn Matcher,
    wmes: &[Wme],
    mode: &str,
) {
    let meta = m.metrics();
    let d = drive(m, wmes);
    t.row(vec![
        meta.kind.to_string(),
        meta.shards.to_string(),
        mode.to_string(),
        format!("{:.0}", per_sec(WMES, d.add)),
        format!("{:.0}", per_sec(WMES, d.remove)),
        d.cs_peak.to_string(),
    ]);
    rep.push(
        Json::obj()
            .set("workload", "hotjoin")
            .set("matcher", meta.kind)
            .set("shards", meta.shards)
            .set("mode", mode)
            .set("adds_per_sec", per_sec(WMES, d.add))
            .set("removes_per_sec", per_sec(WMES, d.remove))
            .set("wmes", WMES)
            .set("cs_peak", d.cs_peak),
    );
}

fn main() {
    let program = hotjoin_program();
    let wmes = workload(&program);
    println!(
        "joinbench: hot-rule-skewed join micro-bench\n\
         ({WMES} WMEs, batch {BATCH}, {HOT_SHARE}% of keys in {HOT_KEYS}/{KEYS})\n"
    );
    let mut rep = BenchReport::new("joinbench", "join throughput");

    // Join throughput across engines and shard counts.
    let mut t = Table::new(&["matcher", "shards", "mode", "adds/s", "removes/s", "peak CS"]);
    for kind in [MatcherKind::Rete, MatcherKind::Treat] {
        let mut m = kind.build(program.clone());
        throughput_row(&mut rep, &mut t, m.as_mut(), &wmes, "monolithic");
    }
    for shards in [1usize, 2, 4, 8] {
        for kind in [
            MatcherKind::PartitionedRete(shards),
            MatcherKind::PartitionedTreat(shards),
        ] {
            let mut m = kind.build(program.clone());
            throughput_row(&mut rep, &mut t, m.as_mut(), &wmes, "incremental");
        }
    }
    println!("## join throughput");
    t.print();
    rep.emit();
}
