//! Seeded input generation: instance seeds, facts, and serve frame
//! scripts. The program under test sees only what is generated here —
//! source text, facts and frames — never the seed.

use crate::json::escape;
use parulel_core::{Delta, Program, Value};
use parulel_workloads::{Closure, LabelProp, Market, Scenario, Seating};
use std::fmt::Write as _;

/// WME changes per `inject` frame, as `loadgen` uses: enough frames per
/// session to exercise the queue, big enough to amortize framing.
pub const BATCH: usize = 16;

/// SplitMix64: the harness's only random source.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The seed of instance `index` on input stream `stream` under run seed
/// `seed`: every generated input derives from `--seed` through here.
pub fn derive(seed: u64, stream: &str, index: u64) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in stream.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    Rng::new(h ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// One field of a generated fact.
#[derive(Clone, Debug, PartialEq)]
pub enum Field {
    Int(i64),
    Float(f64),
    Sym(String),
}

/// One generated working-memory fact, independent of any compiled
/// program's symbol table.
#[derive(Clone, Debug, PartialEq)]
pub struct Fact {
    pub class: String,
    pub fields: Vec<Field>,
}

impl Fact {
    pub fn ints(class: &str, fields: &[i64]) -> Fact {
        Fact {
            class: class.to_string(),
            fields: fields.iter().map(|&i| Field::Int(i)).collect(),
        }
    }
}

/// A scenario's initial facts in working-memory id order.
pub fn facts_of(s: &dyn Scenario) -> Vec<Fact> {
    let program = s.program();
    s.initial_wm()
        .sorted_snapshot()
        .iter()
        .map(|w| Fact {
            class: program
                .interner
                .resolve(program.classes.decl(w.class).name)
                .to_string(),
            fields: w
                .fields
                .iter()
                .map(|v| match v {
                    Value::Int(i) => Field::Int(*i),
                    Value::Float(x) => Field::Float(*x),
                    Value::Sym(s) => Field::Sym(program.interner.resolve(*s).to_string()),
                })
                .collect(),
        })
        .collect()
}

/// The `adds` array of an `inject` frame.
pub fn render_adds(facts: &[Fact]) -> String {
    let mut out = String::from("[");
    for (i, fact) in facts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"class\":\"{}\",\"fields\":[", escape(&fact.class));
        for (j, field) in fact.fields.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match field {
                Field::Int(n) => {
                    let _ = write!(out, "{n}");
                }
                Field::Float(x) => {
                    let _ = write!(out, "{x:?}");
                }
                Field::Sym(s) => {
                    let _ = write!(out, "\"{}\"", escape(s));
                }
            }
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

/// The facts as the engine-level delta the server would build from the
/// same `inject` frame: classes looked up by name, symbols interned in
/// frame order (so symbol ids, and with them fingerprints, agree).
pub fn delta_of(facts: &[Fact], program: &Program) -> Delta {
    let mut delta = Delta::new();
    for fact in facts {
        let class = program
            .classes
            .id_of(program.interner.intern(&fact.class))
            .expect("generated facts use declared classes");
        let values: Vec<Value> = fact
            .fields
            .iter()
            .map(|f| match f {
                Field::Int(i) => Value::Int(*i),
                Field::Float(x) => Value::Float(*x),
                Field::Sym(s) => Value::Sym(program.interner.intern(s)),
            })
            .collect();
        delta.adds.push((class, values.into()));
    }
    delta
}

// --- batch instances -------------------------------------------------

/// The scenario family and size of a batch workload's instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchKind {
    Closure { nodes: usize, edges: usize },
    Market { per_side: usize, symbols: usize },
}

impl BatchKind {
    /// Both closure workloads draw from one stream, so they run the
    /// very same instances under different matchers.
    fn stream(self) -> &'static str {
        match self {
            BatchKind::Closure { .. } => "closure",
            BatchKind::Market { .. } => "market",
        }
    }

    pub fn instance(self, seed: u64, index: u64) -> Box<dyn Scenario> {
        let s = derive(seed, self.stream(), index);
        match self {
            BatchKind::Closure { nodes, edges } => Box::new(Closure::new(nodes, edges, s)),
            BatchKind::Market { per_side, symbols } => Box::new(Market::new(per_side, symbols, s)),
        }
    }
}

pub fn batch_pool(kind: BatchKind, seed: u64, len: usize) -> Vec<Box<dyn Scenario>> {
    (0..len as u64).map(|i| kind.instance(seed, i)).collect()
}

/// An instance as the program under test receives it: source text and
/// facts. Two pools are the same input iff these strings are equal.
pub fn instance_text(s: &dyn Scenario) -> String {
    format!("{}\n{}", s.source(), render_adds(&facts_of(s)))
}

// --- serve scripts -----------------------------------------------------

/// One session's worth of frames, minus the session name.
pub struct SessionScript {
    /// `labelprop`, `seating` or `market`.
    pub kind: &'static str,
    pub source: String,
    /// Initial facts in [`BATCH`]-change inject batches.
    pub batches: Vec<Vec<Fact>>,
    /// The class the script's `query` frame scans.
    pub query_class: &'static str,
}

/// The serve-churn session pool: label propagation, seating and market
/// instances in rotation, sized as `loadgen` sizes them.
pub fn churn_pool(seed: u64, len: usize) -> Vec<SessionScript> {
    (0..len as u64)
        .map(|i| {
            let s = derive(seed, "churn", i);
            let (kind, scenario, query_class): (_, Box<dyn Scenario>, _) = match i % 3 {
                0 => ("labelprop", Box::new(LabelProp::new(48, 96, s)), "node"),
                1 => ("seating", Box::new(Seating::new(4, 8, s)), "seat"),
                _ => ("market", Box::new(Market::new(24, 6, s)), "trade"),
            };
            SessionScript {
                kind,
                source: scenario.source().to_string(),
                batches: facts_of(scenario.as_ref())
                    .chunks(BATCH)
                    .map(<[Fact]>::to_vec)
                    .collect(),
                query_class,
            }
        })
        .collect()
}

pub fn open_frame(session: &str, source: &str) -> String {
    format!(
        "{{\"op\":\"open\",\"session\":\"{session}\",\"program\":\"{}\"}}",
        escape(source)
    )
}

pub fn inject_frame(session: &str, facts: &[Fact]) -> String {
    format!(
        "{{\"op\":\"inject\",\"session\":\"{session}\",\"adds\":{}}}",
        render_adds(facts)
    )
}

/// A frame that carries only a verb and a session (`run`, `step`,
/// `close`, `metrics`).
pub fn verb_frame(op: &str, session: &str) -> String {
    format!("{{\"op\":\"{op}\",\"session\":\"{session}\"}}")
}

pub fn query_frame(session: &str, class: &str) -> String {
    format!("{{\"op\":\"query\",\"session\":\"{session}\",\"class\":\"{class}\"}}")
}

pub const PING: &str = "{\"op\":\"ping\"}";

/// One protocol line and the verb it carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Line {
    pub verb: Verb,
    pub text: String,
}

/// The verbs the workloads send. Each names its client-side span
/// (`frame.*`) and its in-process replay span (`server.*`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Open,
    Inject,
    Run,
    Step,
    Query,
    Close,
    Metrics,
    Ping,
}

impl Verb {
    pub fn frame_span(self) -> &'static str {
        match self {
            Verb::Open => "frame.open",
            Verb::Inject => "frame.inject",
            Verb::Run => "frame.run",
            Verb::Step => "frame.step",
            Verb::Query => "frame.query",
            Verb::Close => "frame.close",
            Verb::Metrics => "frame.metrics",
            Verb::Ping => "frame.ping",
        }
    }

    pub fn server_span(self) -> &'static str {
        match self {
            Verb::Open => "server.open",
            Verb::Inject => "server.inject",
            Verb::Run => "server.run",
            Verb::Step => "server.step",
            Verb::Query => "server.query",
            Verb::Close => "server.close",
            Verb::Metrics => "server.metrics",
            Verb::Ping => "server.ping",
        }
    }
}

impl SessionScript {
    /// The exact lines a churn session sends: `open`, the inject
    /// batches, `run`, `query`, `close`.
    pub fn lines(&self, session: &str) -> Vec<Line> {
        let line = |verb, text| Line { verb, text };
        let mut lines = vec![line(Verb::Open, open_frame(session, &self.source))];
        lines.extend(
            self.batches
                .iter()
                .map(|b| line(Verb::Inject, inject_frame(session, b))),
        );
        lines.push(line(Verb::Run, verb_frame("run", session)));
        lines.push(line(Verb::Query, query_frame(session, self.query_class)));
        lines.push(line(Verb::Close, verb_frame("close", session)));
        lines
    }
}

/// The program every serve-durable session runs: the order-matching
/// market plus a rule that settles each trade the cycle after it is
/// made. Without it `trade` facts pile up for as long as the session
/// lives, and a time-limited run would measure a daemon whose memory and
/// snapshot size depend on how far it got.
pub fn market_source() -> String {
    format!(
        "{}(p settle (trade ^buyer <b>) --> (remove 1))\n",
        Market::new(1, 1, 0).source()
    )
}

/// Instruments each serve-durable session trades.
const DURABLE_SYMBOLS: u64 = 16;

/// An endless per-session order stream for serve-durable: each batch is
/// [`BATCH`] fresh orders, alternately a buy priced 51..=100 and a sell
/// priced 1..=50 on a random instrument. Every buy crosses every sell of
/// its instrument and a `step` can trade one pair per instrument, twice
/// the arrival rate, so the book stays a few orders deep however long
/// the session lives; only the inert `trade` facts accumulate.
pub struct OrderStream {
    rng: Rng,
    next_id: i64,
}

impl OrderStream {
    pub fn new(seed: u64, session: u64) -> OrderStream {
        OrderStream {
            rng: Rng::new(derive(seed, "durable", session)),
            next_id: 1,
        }
    }

    pub fn next_batch(&mut self) -> Vec<Fact> {
        (0..BATCH)
            .map(|i| {
                let id = self.next_id;
                self.next_id += 1;
                let sym = self.rng.below(DURABLE_SYMBOLS) as i64;
                let offset = 1 + self.rng.below(50) as i64;
                if i % 2 == 0 {
                    Fact::ints("buy", &[id, sym, 50 + offset])
                } else {
                    Fact::ints("sell", &[id, sym, offset])
                }
            })
            .collect()
    }
}

/// The transitive-closure program serve-contend's long runs execute.
pub fn closure_source() -> String {
    Closure::new(2, 1, 0).source().to_string()
}

/// serve-contend's long-run input: one chain over `edges + 1` nodes
/// whose labels and inject order are drawn from the seed. The work
/// (cycles, firings) depends only on the length.
pub fn chain_batches(seed: u64, edges: usize) -> Vec<Vec<Fact>> {
    let mut rng = Rng::new(derive(seed, "contend", 0));
    let mut labels: Vec<i64> = (0..=edges as i64).collect();
    rng.shuffle(&mut labels);
    let mut facts: Vec<Fact> = labels
        .windows(2)
        .map(|w| Fact::ints("edge", &[w[0], w[1]]))
        .collect();
    rng.shuffle(&mut facts);
    facts.chunks(BATCH).map(<[Fact]>::to_vec).collect()
}

/// The neighbor session's program: every injected `tick` is consumed by
/// the next `step`, so the session's working set stays flat however
/// long the neighbor keeps injecting.
pub const TICK_SOURCE: &str = "(literalize tick n)\n(p eat (tick ^n <n>) --> (remove 1))\n";

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_text(kind: BatchKind, seed: u64) -> Vec<String> {
        batch_pool(kind, seed, 6)
            .iter()
            .map(|s| instance_text(s.as_ref()))
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_instances_and_another_seed_differs() {
        for kind in [
            BatchKind::Closure {
                nodes: 16,
                edges: 32,
            },
            BatchKind::Market {
                per_side: 12,
                symbols: 3,
            },
        ] {
            assert_eq!(pool_text(kind, 1991), pool_text(kind, 1991));
            assert_ne!(pool_text(kind, 1991), pool_text(kind, 1992));
        }
    }

    fn churn_lines(seed: u64) -> Vec<String> {
        churn_pool(seed, 6)
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.lines(&format!("s{i}")))
            .map(|line| line.text)
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_frame_scripts_and_another_seed_differs() {
        assert_eq!(churn_lines(1991), churn_lines(1991));
        assert_ne!(churn_lines(1991), churn_lines(7));

        let batches = |seed| -> Vec<String> {
            let mut stream = OrderStream::new(seed, 3);
            (0..4)
                .map(|_| inject_frame("d3", &stream.next_batch()))
                .collect()
        };
        assert_eq!(batches(1991), batches(1991));
        assert_ne!(batches(1991), batches(7));

        let chain = |seed| -> Vec<String> {
            chain_batches(seed, 40)
                .iter()
                .map(|b| inject_frame("v", b))
                .collect()
        };
        assert_eq!(chain(1991), chain(1991));
        assert_ne!(chain(1991), chain(7));
    }

    #[test]
    fn frames_are_single_lines_the_harness_json_reads_back() {
        for line in churn_lines(5) {
            assert!(!line.contains('\n'));
            let doc = crate::json::Json::parse(&line).expect(&line);
            assert!(doc.get("op").is_some() && doc.get("session").is_some());
        }
    }

    #[test]
    fn chain_is_one_path_over_all_nodes() {
        let facts: Vec<Fact> = chain_batches(3, 40).into_iter().flatten().collect();
        assert_eq!(facts.len(), 40);
        let mut from: Vec<&Field> = facts.iter().map(|f| &f.fields[0]).collect();
        from.sort_by_key(|f| match f {
            Field::Int(i) => *i,
            _ => unreachable!(),
        });
        from.dedup();
        assert_eq!(from.len(), 40, "every node but the last has one out-edge");
    }
}
