//! Seeded simulation of the serve front end: one [`Front`] and N
//! in-process [`Server`]s, with no threads and no sockets.
//!
//! Each seed wires N ∈ {1, 2, 4} shards at quantum ∈ {0, 1, 32} with a
//! small inbox cap, and 1–4 clients whose scripts mix session frames
//! (from the generator the slicing test uses), broadcasts, blank lines
//! and garbage. The seed then picks every event: a random-length chunk of
//! a client's bytes (split mid-line and mid-UTF-8), a short or zero
//! write, one shard job, one `advance`, one completion, a connection
//! reset mid-line, and at most one crash followed by `recover_shard` on
//! each shard. Under `fault-inject`, some seeds tear one append of each
//! session's log (`WalFaults::torn_write_at`); a torn append stands for
//! the process dying mid-write, so the crash comes right after it.
//!
//! The model is one [`Server`] driven by `handle_line` at quantum 0, fed
//! every line that reached a shard in the order the shards answered them.
//! Checks:
//!
//! * every non-blank line gets exactly one answer, in request order per
//!   connection, and a connection reset mid-line does not disturb its
//!   neighbours;
//! * each frame answers as the model does, and a frame a full inbox
//!   refused answers `backpressure`;
//! * merged `ping` answers, and merged `metrics` and `sync` answers sent
//!   once the daemon is idle, equal the model's (mid-run, each shard
//!   answers at its own moment, so only their shape is compared);
//! * the admission gauge returns to 0 once every session has closed, and
//!   a `shutdown` (frame or signal) stops the front end;
//! * after a crash, each session recovers to the fingerprint of a model
//!   with no faults over the frames it had acknowledged: every frame
//!   answered before the crash (before the tear, if its log tore) and
//!   the run it had parked.
//!
//! A failing seed prints its event list. `PARULEL_SIM_SEED=<n>` runs one
//! seed.

mod common;

use common::{open_frame, script, SESSIONS};
use parulel_engine::Json;
use parulel_server::front::{Effect, Event, Front, Tag, Work, NO_CONN};
use parulel_server::wal::{scan, wal_file_name, WalFaults};
use parulel_server::{recover, recover_shard, shard_of, Server, ServerConfig};
use parulel_server::{SyncPolicy, WalConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// Seeds the default run covers.
const SEEDS: u64 = 400;

/// Lines that are not session frames. `ping` is listed twice: it is the
/// broadcast whose mid-run answer is compared exactly.
const EXTRAS: [&str; 12] = [
    r#"{"op":"ping"}"#,
    r#"{"op":"metrics"}"#,
    r#"{"op":"sync"}"#,
    r#"{"op":"ping"}"#,
    "",
    "   ",
    "not json",
    r#"{"op":"no-such-verb"}"#,
    r#"{"session":"a"}"#,
    r#"{"op":"open","program":"(literalize x)"}"#,
    "{\"op\":\"pïng\",\"note\":\"é€\"}",
    "{é",
];

/// The `op` and `session` fields of a line.
fn fields(line: &str) -> (Option<String>, Option<String>) {
    let frame = Json::parse(line.trim()).ok();
    let field = |key| Some(frame.as_ref()?.get(key)?.as_str()?.to_string());
    (field("op"), field("session"))
}

/// True for a sessionless `ping`, `metrics` or `sync`: every shard
/// answers it, and each answers at its own moment.
fn is_broadcast(line: &str) -> bool {
    let (op, session) = fields(line);
    session.is_none() && matches!(op.as_deref(), Some("ping" | "metrics" | "sync"))
}

/// A scripted client: the bytes it sends and the bytes it received.
struct Client {
    bytes: Vec<u8>,
    sent: usize,
    /// Its non-blank lines: line `i` has sequence number `i`.
    lines: Vec<String>,
    received: Vec<u8>,
    eof: bool,
    reset: bool,
    closed: bool,
    /// Sent while the daemon was idle: broadcasts must match exactly.
    idle: bool,
}

impl Client {
    fn new(lines: &[String], idle: bool) -> Client {
        let mut bytes = Vec::new();
        for line in lines {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        let lines = lines.iter().filter(|l| !l.trim().is_empty()).cloned();
        Client {
            bytes,
            sent: 0,
            lines: lines.collect(),
            received: Vec::new(),
            eof: false,
            reset: false,
            closed: false,
            idle,
        }
    }

    fn live(&self) -> bool {
        !self.reset && !self.closed
    }

    fn mid_line(&self) -> bool {
        self.sent > 0 && self.sent < self.bytes.len() && self.bytes[self.sent - 1] != b'\n'
    }
}

/// One event the seed can pick.
#[derive(Clone, Copy, Debug)]
enum Pick {
    Send(usize),
    Eof(usize),
    Write(usize),
    Reset(usize),
    Job(usize),
    Advance(usize),
    Complete,
}

struct Sim {
    rng: SmallRng,
    front: Front,
    servers: Vec<Server>,
    gauge: Arc<AtomicUsize>,
    inboxes: Vec<VecDeque<(Tag, Work)>>,
    cap: usize,
    quantum: u64,
    /// Answers, each with whether its session's log was torn when it was
    /// given.
    tx: Sender<(Tag, String, bool)>,
    rx: Receiver<(Tag, String, bool)>,
    /// Answers the servers gave that the front end has not taken yet.
    done: VecDeque<(Tag, String)>,
    clients: Vec<Client>,
    /// Every answer the servers gave, in the order they gave them.
    answers: Vec<(Tag, String)>,
    /// The shards each line that became a job went to.
    routed: BTreeMap<(u64, u64), Vec<usize>>,
    /// The lines a full inbox refused on some shard.
    refused: BTreeSet<(u64, u64)>,
    /// The jobs the servers took, in order.
    ran: Vec<Tag>,
    /// Answers given after their session's log tore.
    late: BTreeSet<(u64, u64)>,
    resets_left: usize,
    stopped: bool,
    wal: Option<WalConfig>,
    /// True when the seed tears appends.
    tears: bool,
    events: Vec<String>,
}

impl Sim {
    /// Hands `event` to the front end and carries out its effects.
    fn step(&mut self, event: Event<'_>) -> Result<(), String> {
        for effect in self.front.step(event) {
            match effect {
                Effect::Enqueue(tag, work) => {
                    let key = (tag.conn, tag.seq);
                    self.routed.entry(key).or_default().push(tag.shard);
                    if self.inboxes[tag.shard].len() >= self.cap {
                        self.refused.insert(key);
                        self.step(Event::Refused(tag, work, false))?;
                        continue;
                    }
                    self.inboxes[tag.shard].push_back((tag, work));
                }
                Effect::Close(conn) => {
                    let client = &mut self.clients[conn as usize];
                    if !client.eof && !client.reset {
                        return Err(format!("connection {conn} closed while open"));
                    }
                    client.closed = true;
                }
                Effect::Stop(_) => self.stopped = true,
            }
        }
        Ok(())
    }

    fn drain(&mut self) {
        for (tag, answer, late) in self.rx.try_iter() {
            if late {
                self.late.insert((tag.conn, tag.seq));
            }
            self.answers.push((tag, answer.clone()));
            self.done.push_back((tag, answer));
        }
    }

    /// The log of `session`, when the seed tears appends.
    fn log(&self, session: &str) -> Option<std::path::PathBuf> {
        let wal = self.wal.as_ref().filter(|_| self.tears)?;
        Some(wal.dir.join(wal_file_name(session)))
    }

    /// True once an append has torn: a log ends in part of a record, or
    /// an answer came after its log tore (a compaction may have cut the
    /// torn record away since).
    fn tore(&self) -> bool {
        let logs = SESSIONS.iter().filter_map(|name| self.log(name));
        !self.late.is_empty() || logs.into_iter().any(|log| torn(&log))
    }

    fn picks(&self) -> Vec<Pick> {
        let mut picks = Vec::new();
        for (i, client) in self.clients.iter().enumerate() {
            if !client.live() {
                continue;
            }
            if client.sent < client.bytes.len() {
                picks.push(Pick::Send(i));
            } else if !client.eof {
                picks.push(Pick::Eof(i));
            }
            if !self.front.output(i as u64).is_empty() {
                picks.push(Pick::Write(i));
            }
            if self.resets_left > 0 && client.mid_line() {
                picks.push(Pick::Reset(i));
            }
        }
        for (k, inbox) in self.inboxes.iter().enumerate() {
            if !inbox.is_empty() {
                picks.push(Pick::Job(k));
            }
            if self.servers[k].has_parked_runs() {
                picks.push(Pick::Advance(k));
            }
        }
        if !self.done.is_empty() {
            picks.push(Pick::Complete);
        }
        picks
    }

    fn apply(&mut self, pick: Pick) -> Result<(), String> {
        match pick {
            Pick::Send(i) => {
                let client = &mut self.clients[i];
                let left = client.bytes.len() - client.sent;
                let n = self.rng.gen_range(1..=left.min(48));
                let chunk = client.bytes[client.sent..client.sent + n].to_vec();
                client.sent += n;
                self.events.push(format!("c{i} sends {n}B"));
                self.step(Event::Read(i as u64, &chunk))
            }
            Pick::Eof(i) => {
                self.clients[i].eof = true;
                self.events.push(format!("c{i} eof"));
                self.step(Event::Eof(i as u64))
            }
            Pick::Write(i) => {
                let out = self.front.output(i as u64);
                let n = self.rng.gen_range(0..=out.len());
                self.clients[i].received.extend_from_slice(&out[..n]);
                self.events.push(format!("c{i} writes {n}/{}B", out.len()));
                self.step(Event::Wrote(i as u64, n))
            }
            Pick::Reset(i) => {
                self.clients[i].reset = true;
                self.resets_left -= 1;
                self.events.push(format!("c{i} reset"));
                self.step(Event::Reset(i as u64))
            }
            Pick::Job(k) => {
                let (tag, work) = self.inboxes[k].pop_front().expect("picked");
                self.ran.push(tag);
                self.events
                    .push(format!("s{k} job c{}#{}", tag.conn, tag.seq));
                let tx = self.tx.clone();
                let session = match tag.conn {
                    NO_CONN => None,
                    conn => fields(self.line(conn, tag.seq)).1,
                };
                let log = session.and_then(|name| self.log(&name));
                let reply = Box::new(move |answer| {
                    let late = log.as_deref().is_some_and(torn);
                    tx.send((tag, answer, late)).expect("sim lives");
                });
                work.run(&mut self.servers[k], reply, self.quantum);
                Ok(())
            }
            Pick::Advance(k) => {
                self.events.push(format!("s{k} advance"));
                self.servers[k].advance(self.quantum);
                Ok(())
            }
            Pick::Complete => {
                let (tag, answer) = self.done.pop_front().expect("picked");
                self.events
                    .push(format!("answer s{} c{}#{}", tag.shard, tag.conn, tag.seq));
                self.step(Event::Answered(tag, answer))
            }
        }
    }

    /// Picks events until none is left; `true` if the crash point came
    /// first. A crash point `(at, mid_run)` is the first pick after `at`
    /// events, or with `mid_run` the first one after it with a run
    /// parked; with a crash point, a torn append crashes at once.
    fn run(&mut self, crash_at: Option<(usize, bool)>) -> Result<bool, String> {
        loop {
            self.drain();
            let picks = self.picks();
            if picks.is_empty() {
                return Ok(false);
            }
            let parked = self.servers.iter().any(Server::has_parked_runs);
            if crash_at.is_some_and(|(at, mid_run)| self.events.len() >= at && (parked || !mid_run))
            {
                self.events.push("crash".to_string());
                return Ok(true);
            }
            let pick = picks[self.rng.gen_range(0..picks.len())];
            self.apply(pick)?;
            if crash_at.is_some() && matches!(pick, Pick::Job(_) | Pick::Advance(_)) {
                self.drain();
                if self.tore() {
                    self.events.push("crash at a torn append".to_string());
                    return Ok(true);
                }
            }
        }
    }

    /// Sends each of `lines` on a new connection once the daemon is
    /// idle, and runs until it is answered.
    fn when_idle(&mut self, lines: &[&str]) -> Result<(), String> {
        for line in lines {
            let conn = self.clients.len() as u64;
            self.clients.push(Client::new(&[line.to_string()], true));
            self.events.push(format!("c{conn} connects"));
            self.step(Event::Accepted(conn))?;
            self.run(None)?;
        }
        Ok(())
    }

    /// A server configured like the shards, logging under `tag`'s
    /// directory when the seed has a WAL, with the shards' faults unless
    /// `clean`.
    fn model_server(&self, tag: &str, clean: bool) -> (Server, Option<WalConfig>) {
        match &self.wal {
            Some(wal) => {
                let mut model = wal.clone();
                model.dir = wal.dir.with_extension(tag);
                if clean {
                    model.faults = WalFaults::none();
                }
                let _ = fs::remove_dir_all(&model.dir);
                (
                    Server::with_wal(ServerConfig::default(), model.clone()),
                    Some(model),
                )
            }
            None => (Server::new(ServerConfig::default()), None),
        }
    }

    fn line(&self, conn: u64, seq: u64) -> &str {
        &self.clients[conn as usize].lines[seq as usize]
    }

    /// The model's answer to every line that reached a shard, fed in the
    /// order the shards answered (a broadcast at its shard-0 answer).
    fn model_answers(&self) -> BTreeMap<(u64, u64), String> {
        let (mut model, dir) = self.model_server("model", false);
        let mut expected = BTreeMap::new();
        for (tag, _) in &self.answers {
            if tag.shard != 0 && self.routed[&(tag.conn, tag.seq)].len() > 1 {
                continue;
            }
            let line = match tag.conn {
                NO_CONN => r#"{"op":"shutdown"}"#,
                conn => self.line(conn, tag.seq),
            };
            let answer = model.handle_line(line).expect("a non-blank line");
            expected.insert((tag.conn, tag.seq), answer);
        }
        drop(model);
        if let Some(dir) = dir {
            let _ = fs::remove_dir_all(dir.dir);
        }
        expected
    }

    /// Checks every live connection's answers against the model.
    fn check_answers(&self) -> Result<(), String> {
        let expected = self.model_answers();
        for (i, client) in self.clients.iter().enumerate() {
            if client.reset {
                continue;
            }
            let received = String::from_utf8(client.received.clone())
                .map_err(|_| format!("c{i} received invalid UTF-8"))?;
            let got: Vec<&str> = received.lines().collect();
            if got.len() != client.lines.len() {
                return Err(format!(
                    "c{i} sent {} lines, got {} answers",
                    client.lines.len(),
                    got.len()
                ));
            }
            for (seq, (line, answer)) in client.lines.iter().zip(&got).enumerate() {
                let key = (i as u64, seq as u64);
                let shutdown = fields(line).0.as_deref() == Some("shutdown");
                if self.refused.contains(&key) && !shutdown {
                    if !answer.contains(r#""kind":"backpressure""#) {
                        return Err(format!("c{i}#{seq} {line:?}: refused, answered {answer}"));
                    }
                    continue;
                }
                let Some(want) = expected.get(&key) else {
                    return Err(format!("c{i}#{seq} {line:?}: no job, answered {answer}"));
                };
                let same = match is_broadcast(line) && !client.idle {
                    true => same_shape(answer, want),
                    false => answer == want,
                };
                if !same {
                    return Err(format!(
                        "c{i}#{seq} {line:?} answered\n  {answer}\nmodel\n  {want}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Kills every shard, recovers each with `recover_shard`, and
    /// compares each session with a model with no faults over the frames
    /// its shard had acknowledged: every frame it answered, and the run it
    /// had parked, which the model takes as the shard did, logged and one
    /// cycle in. A session whose log ends in a torn append acknowledged
    /// only what it answered before the tear: the process died there.
    fn check_crash(&mut self) -> Result<(), String> {
        let mut wal = self.wal.clone().expect("a crash needs a WAL");
        let answered: BTreeSet<(u64, u64)> =
            self.answers.iter().map(|(t, _)| (t.conn, t.seq)).collect();
        let (mut model, model_wal) = self.model_server("crash", true);
        for name in SESSIONS {
            let tore = self.log(name).is_some_and(|log| torn(&log));
            let acked = |key| answered.contains(&key) && !(tore && self.late.contains(&key));
            let ran = self.ran.iter().filter(|t| t.conn != NO_CONN);
            let lines: Vec<(bool, &str)> = ran
                .map(|t| (acked((t.conn, t.seq)), self.line(t.conn, t.seq)))
                .filter(|(_, line)| fields(line).1.as_deref() == Some(name))
                .collect();
            let done = lines.iter().take_while(|(acked, _)| *acked).count();
            for (_, line) in &lines[..done] {
                model.handle_line(line);
            }
            if tore {
                continue;
            }
            // The first unanswered frame is the parked run, if any.
            if let Some((_, run)) = lines.get(done) {
                if !matches!(fields(run).0.as_deref(), Some("run" | "run-to-fixpoint")) {
                    return Err(format!(
                        "session {name}: unanswered {run:?} heads its queue"
                    ));
                }
                model.submit(Json::parse(run), Box::new(|_| {}), 1);
            }
        }
        let shards = self.servers.len();
        self.servers.clear();
        wal.faults = WalFaults::none();
        drop(model);
        let model_wal = model_wal.expect("a WAL seed");
        let mut model = Server::with_wal(ServerConfig::default(), model_wal.clone());
        recover(&mut model, &model_wal);
        let gauge = Arc::new(AtomicUsize::new(0));
        let mut servers: Vec<Server> = (0..shards)
            .map(|k| {
                let mut server = Server::with_wal(ServerConfig::default(), wal.clone());
                server.share_admission(gauge.clone());
                recover_shard(&mut server, &wal, k, shards);
                server
            })
            .collect();
        let _ = fs::remove_dir_all(&model_wal.dir);
        for name in SESSIONS {
            let server = &mut servers[shard_of(name, shards)];
            let (got, want) = (fingerprint(server, name), fingerprint(&mut model, name));
            if got != want {
                return Err(format!("session {name} recovered {got:?}, model {want:?}"));
            }
            server.handle_line(&format!(r#"{{"op":"close","session":"{name}"}}"#));
        }
        match gauge.load(Ordering::SeqCst) {
            0 => Ok(()),
            n => Err(format!(
                "{n} admission slots held after every session closed"
            )),
        }
    }
}

/// True when the log at `path` ends in part of a record.
fn torn(path: &Path) -> bool {
    scan(path, &WalFaults::none()).is_ok_and(|scan| scan.truncated)
}

/// True when two answers have the same `ok` and the same fields.
fn same_shape(a: &str, b: &str) -> bool {
    let keys = |s: &str| match Json::parse(s) {
        Ok(Json::Obj(fields)) => {
            let ok = fields
                .iter()
                .find(|(k, _)| k == "ok")
                .map(|(_, v)| v.clone());
            Some((ok, fields.into_iter().map(|(k, _)| k).collect::<Vec<_>>()))
        }
        _ => None,
    };
    keys(a).is_some() && keys(a) == keys(b)
}

/// A session's fingerprint, if it is live on `server`.
fn fingerprint(server: &mut Server, name: &str) -> Option<String> {
    let metrics = server.handle_line(&format!(r#"{{"op":"metrics","session":"{name}"}}"#))?;
    let metrics = Json::parse(&metrics).ok()?;
    Some(metrics.get("fingerprint")?.as_str()?.to_string())
}

/// The lines one client sends: a script of session frames with extras
/// mixed in.
fn client_lines(rng: &mut SmallRng) -> Vec<String> {
    let (frames, _) = script(rng);
    let mut lines = Vec::new();
    for name in SESSIONS {
        if rng.gen_bool(0.5) {
            lines.push(open_frame(rng, name));
        }
    }
    for frame in frames.into_iter().take(rng.gen_range(4..24usize)) {
        while rng.gen_bool(0.25) {
            lines.push(EXTRAS[rng.gen_range(0..EXTRAS.len())].to_string());
        }
        lines.push(frame);
    }
    lines
}

/// Sets up and runs one seed. Returns the event list and, on failure,
/// why.
fn simulate(seed: u64) -> (Vec<String>, Result<(), String>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let shards = [1, 2, 4][rng.gen_range(0..3usize)];
    let quantum = [0, 1, 32][rng.gen_range(0..3usize)];
    let cap = [1, 2, 4, 64][rng.gen_range(0..4usize)];
    let clients: Vec<Vec<String>> = (0..rng.gen_range(1..=4usize))
        .map(|_| client_lines(&mut rng))
        .collect();
    let wal = rng.gen_bool(0.5).then(|| {
        let dir = std::env::temp_dir().join(format!("parulel-sim-{}-{seed}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut config = WalConfig::new(&dir, SyncPolicy::Never);
        config.snapshot_every = rng.gen_range(0..4u64);
        #[cfg(feature = "fault-inject")]
        if rng.gen_bool(0.5) {
            config.faults.torn_write_at = Some(rng.gen_range(1..8u64));
        }
        config
    });
    let tears = wal.as_ref().is_some_and(|w| w.faults != WalFaults::none());
    let crash_at = (wal.is_some() && (tears || rng.gen_bool(0.7)))
        .then(|| (rng.gen_range(10..500usize), rng.gen_bool(0.5)));
    let gauge = Arc::new(AtomicUsize::new(0));
    let servers = (0..shards)
        .map(|_| {
            let mut server = match &wal {
                Some(wal) => Server::with_wal(ServerConfig::default(), wal.clone()),
                None => Server::new(ServerConfig::default()),
            };
            server.share_admission(gauge.clone());
            server
        })
        .collect();
    let (tx, rx) = channel();
    let mut sim = Sim {
        rng,
        front: Front::new(shards),
        servers,
        gauge,
        inboxes: (0..shards).map(|_| VecDeque::new()).collect(),
        cap,
        quantum,
        tx,
        rx,
        done: VecDeque::new(),
        clients: clients
            .iter()
            .map(|lines| Client::new(lines, false))
            .collect(),
        answers: Vec::new(),
        routed: BTreeMap::new(),
        refused: BTreeSet::new(),
        ran: Vec::new(),
        late: BTreeSet::new(),
        resets_left: usize::from(seed.is_multiple_of(3)),
        stopped: false,
        wal: wal.clone(),
        tears,
        events: vec![format!(
            "seed {seed}: {shards} shard(s), quantum {quantum}, cap {cap}, {} client(s), wal {:?}",
            clients.len(),
            wal.as_ref().map(|w| w.snapshot_every)
        )],
    };
    let result = play(&mut sim, crash_at);
    if let Some(wal) = &wal {
        let _ = fs::remove_dir_all(&wal.dir);
    }
    (sim.events, result)
}

fn play(sim: &mut Sim, crash_at: Option<(usize, bool)>) -> Result<(), String> {
    for conn in 0..sim.clients.len() as u64 {
        sim.step(Event::Accepted(conn))?;
    }
    if sim.run(crash_at)? {
        return sim.check_crash();
    }
    sim.when_idle(&[
        r#"{"op":"metrics"}"#,
        r#"{"op":"ping"}"#,
        r#"{"op":"sync"}"#,
    ])?;
    let closes: Vec<String> = SESSIONS
        .iter()
        .map(|name| format!(r#"{{"op":"close","session":"{name}"}}"#))
        .collect();
    sim.when_idle(&closes.iter().map(String::as_str).collect::<Vec<_>>())?;
    let held = sim.gauge.load(Ordering::SeqCst);
    if held != 0 {
        return Err(format!(
            "{held} admission slots held after every session closed"
        ));
    }
    if sim.rng.gen_bool(0.5) {
        sim.when_idle(&[r#"{"op":"shutdown"}"#])?;
    } else {
        sim.events.push("signal".to_string());
        sim.step(Event::Shutdown)?;
        sim.run(None)?;
    }
    if !sim.stopped || !sim.servers.iter().all(Server::shutting_down) {
        return Err("shutdown did not stop every shard and the front end".to_string());
    }
    sim.check_answers()
}

fn check_seeds(seeds: impl Iterator<Item = u64>) {
    let seeds: Vec<u64> = match std::env::var("PARULEL_SIM_SEED") {
        Ok(seed) => vec![seed.parse().expect("PARULEL_SIM_SEED is a number")],
        Err(_) => seeds.collect(),
    };
    for seed in seeds {
        let (events, result) = simulate(seed);
        if let Err(why) = result {
            panic!(
                "seed {seed}: {why}\nreplay with PARULEL_SIM_SEED={seed}; events:\n{}",
                events.join("\n")
            );
        }
    }
}

#[test]
fn simulated_schedules_answer_like_one_server() {
    check_seeds(0..SEEDS);
}

/// The long run: `cargo test --release -p parulel-server --test
/// simulator -- --ignored`.
#[test]
#[ignore]
fn ten_thousand_simulated_schedules() {
    check_seeds(0..10_000);
}
