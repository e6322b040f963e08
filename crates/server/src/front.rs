//! The serve front end as one step function.
//!
//! [`Front`] makes every decision of the socket front end and owns no
//! socket, thread, lock or clock. A driver reports [`Event`]s, carries
//! out the [`Effect`]s [`Front::step`] returns, and writes
//! [`Front::output`]: [`crate::dispatch`] with `poll(2)`, the simulator
//! test with scripted clients and in-process servers.
//!
//! * **Lines.** A connection's bytes split into lines however reads chunk
//!   them. Blank lines are skipped; every other line gets a sequence
//!   number and exactly one answer, written in request order.
//! * **Routing.** Each line is parsed once. A session frame goes to its
//!   shard ([`shard_of`]). With more than one shard, a sessionless
//!   `ping`, `metrics` or `sync`, and `shutdown`, go to every shard, and
//!   the answers merge when the last arrives. Any other sessionless frame
//!   goes to shard 0. A broadcast's job on shard 0 is the one its server
//!   counts, so `metrics` counters do not depend on the shard count.
//! * **Backpressure.** The bound is the shard's inbox: a job its inbox
//!   refuses comes back as [`Event::Refused`], and the line is answered
//!   with a `backpressure` error (a broadcast, once all its shards have
//!   answered, with that error).
//! * **Shutdown.** A `shutdown` frame or a signal sends `shutdown` to
//!   every shard; a full inbox gets it again after the next answer. Lines
//!   read after that are refused. When every shard has answered, the
//!   merged answer goes to the requester and the front end stops.

use crate::protocol::{kind, Failure};
use crate::sched::shard_of;
use crate::server::{ParsedFrame, Reply, Server};
use parulel_engine::Json;
use std::collections::BTreeMap;

/// Where a job runs and which line its answer belongs to.
#[derive(Clone, Copy, Debug)]
pub struct Tag {
    /// The shard that runs the job.
    pub shard: usize,
    /// The connection that sent the line ([`NO_CONN`] for a signal).
    pub conn: u64,
    /// The line's sequence number on its connection.
    pub seq: u64,
}

/// The connection of a shutdown requested by signal.
pub const NO_CONN: u64 = u64::MAX;

/// What a shard does with a job.
#[derive(Debug)]
pub enum Work {
    /// A frame (or its parse error) the server counts: [`Server::submit`].
    Frame(ParsedFrame),
    /// A broadcast's job on a shard other than 0, run uncounted through
    /// [`Server::handle_frame`].
    Share(Json),
}

impl Work {
    /// Runs the job on `server` at `quantum`; the answer goes to `reply`.
    pub fn run(self, server: &mut Server, reply: Reply, quantum: u64) {
        match self {
            Work::Frame(frame) => server.submit(frame, reply, quantum),
            Work::Share(frame) => reply(server.handle_frame(&frame).render()),
        }
    }
}

/// Something that happened, as the driver reports it.
#[derive(Debug)]
pub enum Event<'a> {
    /// A connection was accepted under this id.
    Accepted(u64),
    /// Bytes were read on a connection, split anywhere.
    Read(u64, &'a [u8]),
    /// The read side closed; answers are still written.
    Eof(u64),
    /// The connection is gone, with whatever it had not read or written.
    Reset(u64),
    /// This many bytes of [`Front::output`] were written (0: would block).
    Wrote(u64, usize),
    /// A shard answered a job.
    Answered(Tag, String),
    /// A shard's inbox refused this job, given back: it was full, or
    /// (`true`) the shard no longer takes jobs.
    Refused(Tag, Work, bool),
    /// A signal asked the daemon to shut down.
    Shutdown,
}

/// What the driver must do.
#[derive(Debug)]
pub enum Effect {
    /// Put this job on shard `tag.shard`'s inbox; its answer comes back
    /// as [`Event::Answered`], or a refusal as [`Event::Refused`].
    Enqueue(Tag, Work),
    /// Close this connection.
    Close(u64),
    /// Every shard has shut down: write what output is left, join the
    /// shards and return, logging the note if there is one.
    Stop(Option<String>),
}

/// A connection's input bytes after its last complete line, and how many
/// of them were already scanned for a `\n`.
#[derive(Default)]
struct LineBuf {
    bytes: Vec<u8>,
    scanned: usize,
}

impl LineBuf {
    /// Appends `chunk` and returns the lines it completes, without their
    /// `\n`. Each byte is scanned once, and the consumed prefix is
    /// dropped once per call, so a long line costs linear time however
    /// many reads it spans.
    fn split(&mut self, chunk: &[u8]) -> Vec<String> {
        self.bytes.extend_from_slice(chunk);
        let mut lines = Vec::new();
        let mut start = 0;
        while let Some(at) = self.bytes[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + at;
            lines.push(String::from_utf8_lossy(&self.bytes[start..end]).into_owned());
            start = end + 1;
            self.scanned = start;
        }
        self.bytes.drain(..start);
        self.scanned = self.bytes.len();
        lines
    }
}

/// One connection's state.
#[derive(Default)]
struct Conn {
    lines: LineBuf,
    /// Sequence numbers of the next line read and the next answer due.
    next_seq: u64,
    next_out: u64,
    /// Answers that arrived ahead of `next_out`.
    early: BTreeMap<u64, String>,
    /// Answers not yet written, newline-terminated.
    out: Vec<u8>,
    eof: bool,
}

/// The front end's state. See the [module docs](self).
pub struct Front {
    shards: usize,
    conns: BTreeMap<u64, Conn>,
    /// The answers each broadcast has gathered, by (connection, sequence).
    gathers: BTreeMap<(u64, u64), Vec<String>>,
    /// The shutdown's (connection, sequence) and the shards it has not
    /// reached, once one is requested.
    stopping: Option<((u64, u64), Vec<usize>)>,
    effects: Vec<Effect>,
}

impl Front {
    /// A front end over `shards` shards.
    pub fn new(shards: usize) -> Front {
        Front {
            shards,
            conns: BTreeMap::new(),
            gathers: BTreeMap::new(),
            stopping: None,
            effects: Vec::new(),
        }
    }

    /// Takes one event and returns what the driver must do, in order.
    pub fn step(&mut self, event: Event<'_>) -> Vec<Effect> {
        match event {
            Event::Accepted(conn) => {
                self.conns.insert(conn, Conn::default());
            }
            Event::Read(conn, bytes) => {
                let lines = match self.conns.get_mut(&conn) {
                    Some(c) if !c.eof => c.lines.split(bytes),
                    _ => Vec::new(),
                };
                for line in lines.iter().filter(|l| !l.trim().is_empty()) {
                    self.route(conn, line);
                }
            }
            Event::Eof(conn) => self.update(conn, |c| c.eof = true),
            Event::Reset(conn) => {
                if self.conns.remove(&conn).is_some() {
                    self.effects.push(Effect::Close(conn));
                }
            }
            Event::Wrote(conn, n) => self.update(conn, |c| {
                c.out.drain(..n.min(c.out.len()));
            }),
            Event::Answered(tag, answer) => {
                self.collect(tag, answer);
                self.send_shutdown();
            }
            // A full inbox takes the shutdown after its shard's next answer.
            Event::Refused(tag, _, false) if self.is_shutdown(tag) => {
                if let Some((_, unsent)) = &mut self.stopping {
                    unsent.push(tag.shard);
                }
            }
            Event::Refused(tag, work, gone) => {
                let frame = match &work {
                    Work::Frame(frame) => frame.as_ref().ok(),
                    Work::Share(frame) => Some(frame),
                };
                let failure = match gone {
                    true => Failure::new(kind::PROTOCOL, "server is shutting down"),
                    false => full(tag.shard),
                };
                self.collect(tag, refusal(frame, failure));
            }
            Event::Shutdown if self.stopping.is_none() => self.begin_shutdown(NO_CONN, 0),
            Event::Shutdown => {}
        }
        std::mem::take(&mut self.effects)
    }

    /// The connection's answers not yet written.
    pub fn output(&self, conn: u64) -> &[u8] {
        self.conns.get(&conn).map_or(&[], |c| &c.out)
    }

    /// True while the connection's read side is open.
    pub fn reading(&self, conn: u64) -> bool {
        self.conns.get(&conn).is_some_and(|c| !c.eof)
    }

    /// Numbers one non-blank line and routes it (see the module docs).
    fn route(&mut self, conn: u64, line: &str) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        let seq = c.next_seq;
        c.next_seq += 1;
        let frame = Json::parse(line.trim());
        let field = |key| frame.as_ref().ok()?.get(key)?.as_str();
        let (op, session) = (field("op"), field("session"));
        if self.stopping.is_some() {
            let failure = Failure::new(kind::PROTOCOL, "server is shutting down");
            return self.answer(conn, seq, refusal(frame.as_ref().ok(), failure));
        }
        if op == Some("shutdown") {
            return self.begin_shutdown(conn, seq);
        }
        let shards = self.shards;
        let broadcast =
            session.is_none() && shards > 1 && matches!(op, Some("ping" | "metrics" | "sync"));
        let shard = session.map_or(0, |name| shard_of(name, shards));
        match frame {
            Ok(frame) if broadcast => {
                self.gathers.insert((conn, seq), Vec::with_capacity(shards));
                (0..shards).for_each(|shard| self.share(Tag { shard, conn, seq }, &frame));
            }
            frame => {
                let tag = Tag { shard, conn, seq };
                self.effects.push(Effect::Enqueue(tag, Work::Frame(frame)));
            }
        }
    }

    /// Enqueues one shard's job of a broadcast; shard 0's is counted.
    fn share(&mut self, tag: Tag, frame: &Json) {
        let work = match tag.shard {
            0 => Work::Frame(Ok(frame.clone())),
            _ => Work::Share(frame.clone()),
        };
        self.effects.push(Effect::Enqueue(tag, work));
    }

    fn begin_shutdown(&mut self, conn: u64, seq: u64) {
        let shards = self.shards;
        self.gathers.insert((conn, seq), Vec::with_capacity(shards));
        self.stopping = Some(((conn, seq), (0..shards).collect()));
        self.send_shutdown();
    }

    /// True when `tag` is one of the shutdown's jobs.
    fn is_shutdown(&self, tag: Tag) -> bool {
        let key = (tag.conn, tag.seq);
        self.stopping.as_ref().is_some_and(|(stop, _)| *stop == key)
    }

    /// Sends the shutdown to every shard it has not reached yet.
    fn send_shutdown(&mut self) {
        let Some(((conn, seq), unsent)) = &mut self.stopping else {
            return;
        };
        let (conn, seq, unsent) = (*conn, *seq, std::mem::take(unsent));
        let frame = Json::obj().set("op", "shutdown");
        for shard in unsent {
            self.share(Tag { shard, conn, seq }, &frame);
        }
    }

    /// Files one job's answer: a line's answer, or one of a broadcast's.
    fn collect(&mut self, tag: Tag, answer: String) {
        let key = (tag.conn, tag.seq);
        let Some(answers) = self.gathers.get_mut(&key) else {
            return self.answer(tag.conn, tag.seq, answer);
        };
        answers.push(answer);
        if answers.len() < self.shards {
            return;
        }
        let merged = merge(self.gathers.remove(&key).expect("present"));
        if self.is_shutdown(tag) {
            let merged = Json::parse(&merged).ok();
            let persisted = merged.and_then(|m| m.get("persisted")?.as_f64());
            let note = match persisted {
                Some(n) if n > 0.0 && tag.conn == NO_CONN => Some(format!(
                    "signal received; persisted {} session(s)",
                    n as u64
                )),
                _ => None,
            };
            self.effects.push(Effect::Stop(note));
        }
        self.answer(tag.conn, tag.seq, merged);
    }

    /// Files the answer to line `seq` and moves every answer now in
    /// request order to the connection's output.
    fn answer(&mut self, conn: u64, seq: u64, answer: String) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        c.early.insert(seq, answer);
        while let Some(answer) = c.early.remove(&c.next_out) {
            c.out.extend_from_slice(answer.as_bytes());
            c.out.push(b'\n');
            c.next_out += 1;
        }
    }

    /// Applies `change` to the connection, then closes it if its read
    /// side is closed and every line it sent is answered and written.
    fn update(&mut self, conn: u64, change: impl FnOnce(&mut Conn)) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        change(c);
        if c.eof && c.next_out == c.next_seq && c.out.is_empty() {
            self.conns.remove(&conn);
            self.effects.push(Effect::Close(conn));
        }
    }
}

/// The refusal for a frame whose shard is full.
fn full(shard: usize) -> Failure {
    let msg = format!("shard {shard} inbox full; retry after responses drain");
    Failure::new(kind::BACKPRESSURE, msg)
}

/// `failure` as the answer to `frame`.
fn refusal(frame: Option<&Json>, failure: Failure) -> String {
    let field = |key| frame?.get(key)?.as_str();
    failure.to_frame(field("op"), field("session")).render()
}

/// Merges the shards' answers to one broadcast. One answer passes
/// through verbatim (the golden transcripts at one worker); a failure,
/// identical on every shard (they share one configuration), passes
/// through. Otherwise each field of the first answer is merged across
/// all: counts sum, a `peak_` takes the max, a `max_` limit and every
/// string stay as they are, and a list becomes the sorted union.
fn merge(mut answers: Vec<String>) -> String {
    if answers.len() == 1 {
        return answers.pop().expect("one answer");
    }
    let parsed: Vec<Json> = answers
        .iter()
        .map(|a| Json::parse(a).unwrap_or(Json::Null))
        .collect();
    if let Some(at) = parsed
        .iter()
        .position(|r| r.get("ok") != Some(&Json::Bool(true)))
    {
        return answers.swap_remove(at);
    }
    let Json::Obj(fields) = &parsed[0] else {
        unreachable!("an ok answer is an object")
    };
    let mut merged = Json::obj();
    for (key, first) in fields {
        let all = parsed.iter().filter_map(|r| r.get(key));
        let value = match first {
            Json::Num(_) if key.starts_with("peak_") => {
                Json::from(all.filter_map(Json::as_f64).fold(0.0, f64::max))
            }
            Json::Num(_) if !key.starts_with("max_") => {
                Json::from(all.filter_map(Json::as_f64).sum::<f64>())
            }
            Json::Arr(_) => {
                let mut items: Vec<Json> =
                    all.filter_map(Json::as_arr).flatten().cloned().collect();
                items.sort_by(|a, b| a.as_str().cmp(&b.as_str()));
                Json::Arr(items)
            }
            _ => first.clone(),
        };
        merged = merged.set(key, value);
    }
    merged.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::mpsc::channel;

    /// Splits `stream` through a [`LineBuf`] fed `chunk()` bytes at a
    /// time.
    fn split(stream: &[u8], mut chunk: impl FnMut() -> usize) -> Vec<String> {
        let mut buf = LineBuf::default();
        let mut lines = Vec::new();
        let mut rest = stream;
        while !rest.is_empty() {
            let (head, tail) = rest.split_at(chunk().clamp(1, rest.len()));
            lines.extend(buf.split(head));
            rest = tail;
        }
        lines
    }

    #[test]
    fn lines_do_not_depend_on_how_reads_chunk_the_stream() {
        for seed in 0..20 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut stream = Vec::new();
            for _ in 0..rng.gen_range(0..40usize) {
                let len = match rng.gen_range(0..4u32) {
                    0 => 0,
                    1 => rng.gen_range(1..16usize),
                    2 => rng.gen_range(16..5000usize),
                    _ => rng.gen_range(5000..20000usize),
                };
                let text: String = (0..len)
                    .map(|_| ['a', ' ', '{', 'é', '"'][rng.gen_range(0..5usize)])
                    .collect();
                stream.extend_from_slice(text.as_bytes());
                stream.push(b'\n');
            }
            // An unterminated tail is never a line.
            stream.extend_from_slice(&b"tail"[..rng.gen_range(0..5usize)]);
            let text = String::from_utf8(stream.clone()).unwrap();
            let mut expected: Vec<String> = text.split('\n').map(str::to_string).collect();
            expected.pop();
            assert_eq!(split(&stream, || 1), expected, "seed {seed}, 1-byte reads");
            assert_eq!(
                split(&stream, || 4096),
                expected,
                "seed {seed}, 4 KiB reads"
            );
            let mut sizes = SmallRng::seed_from_u64(seed ^ 0x5eed);
            let random = split(&stream, || sizes.gen_range(1..9000usize));
            assert_eq!(random, expected, "seed {seed}, random reads");
        }
    }

    /// Sends `lines` on one connection to a front end over `servers`,
    /// runs every job at once, and returns the answers written, in order,
    /// and whether the front end stopped.
    fn drive(servers: &mut [Server], lines: &[&str]) -> (Vec<String>, bool) {
        let mut front = Front::new(servers.len());
        let (tx, rx) = channel();
        let mut effects = front.step(Event::Accepted(0));
        let input = lines.join("\n") + "\n";
        effects.extend(front.step(Event::Read(0, input.as_bytes())));
        let mut stopped = false;
        while !effects.is_empty() {
            for effect in std::mem::take(&mut effects) {
                match effect {
                    Effect::Enqueue(tag, work) => {
                        let tx = tx.clone();
                        let reply = Box::new(move |answer| tx.send((tag, answer)).unwrap());
                        work.run(&mut servers[tag.shard], reply, 0);
                    }
                    Effect::Close(_) => {}
                    Effect::Stop(_) => stopped = true,
                }
            }
            for (tag, answer) in rx.try_iter() {
                effects.extend(front.step(Event::Answered(tag, answer)));
            }
        }
        let out = String::from_utf8(front.output(0).to_vec()).unwrap();
        (out.lines().map(str::to_string).collect(), stopped)
    }

    #[test]
    fn single_worker_frames_pass_through_verbatim() {
        let mut servers = [Server::new(ServerConfig::default())];
        let lines = [r#"{"op":"ping"}"#, "not json", "", r#"{"op":"shutdown"}"#];
        let (answers, stopped) = drive(&mut servers, &lines);
        assert_eq!(answers[0], r#"{"ok":true,"op":"ping"}"#);
        assert!(answers[1].contains("\"parse\""), "{}", answers[1]);
        assert_eq!(
            answers[2],
            r#"{"ok":true,"op":"shutdown","sessions_closed":0}"#
        );
        assert_eq!(answers.len(), 3, "a blank line gets no answer");
        assert!(stopped);
    }

    /// The front end refuses nothing by itself: a burst longer than any
    /// inbox, read in one chunk, becomes one job per line, and only an
    /// inbox that is full when the job reaches it refuses.
    #[test]
    fn a_burst_read_in_one_chunk_is_never_refused_here() {
        let mut servers = [Server::new(ServerConfig::default())];
        let lines = [r#"{"op":"ping"}"#; 300];
        let (answers, _) = drive(&mut servers, &lines);
        assert_eq!(answers.len(), 300);
        assert!(answers.iter().all(|a| a == r#"{"ok":true,"op":"ping"}"#));
    }

    /// A shutdown a full inbox refuses is sent again after the next
    /// answer, and the front end stops only once every shard has answered.
    #[test]
    fn a_refused_shutdown_waits_for_room() {
        let mut front = Front::new(2);
        front.step(Event::Accepted(0));
        let effects = front.step(Event::Read(0, b"{\"op\":\"shutdown\"}\n"));
        let tags: Vec<Tag> = effects
            .into_iter()
            .map(|effect| match effect {
                Effect::Enqueue(tag, _) => tag,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(tags.len(), 2);
        let shard1 = tags[1];
        let work = Work::Share(Json::obj().set("op", "shutdown"));
        assert!(front.step(Event::Refused(shard1, work, false)).is_empty());
        let answer = r#"{"ok":true,"op":"shutdown","sessions_closed":0}"#;
        let again = front.step(Event::Answered(tags[0], answer.to_string()));
        assert!(
            matches!(again[..], [Effect::Enqueue(tag, Work::Share(_))] if tag.shard == 1),
            "{again:?}"
        );
        let last = front.step(Event::Answered(shard1, answer.to_string()));
        assert!(matches!(last[..], [Effect::Stop(None)]), "{last:?}");
        assert_eq!(front.output(0), format!("{answer}\n").as_bytes());
    }

    #[test]
    fn multi_shard_control_frames_merge() {
        let gauge = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut servers: Vec<Server> = (0..4)
            .map(|_| {
                let mut s = Server::new(ServerConfig::default());
                s.share_admission(gauge.clone());
                s
            })
            .collect();
        let program = "(literalize f x)(p r (f ^x 1) --> (make f ^x 2))";
        let mut lines: Vec<String> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|name| format!(r#"{{"op":"open","session":"{name}","program":"{program}"}}"#))
            .collect();
        lines.push(r#"{"op":"metrics"}"#.to_string());
        lines.push(r#"{"op":"shutdown"}"#.to_string());
        let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
        let (answers, stopped) = drive(&mut servers, &lines);
        for open in &answers[..5] {
            assert!(open.contains("\"ok\":true"), "{open}");
        }
        let metrics = Json::parse(&answers[5]).unwrap();
        assert_eq!(metrics.get("sessions").and_then(Json::as_f64), Some(5.0));
        assert_eq!(
            metrics
                .get("session_list")
                .and_then(Json::as_arr)
                .map(|a| a.len()),
            Some(5)
        );
        // Five opens and the metrics frame itself, counted once however
        // many shards answer it.
        assert_eq!(metrics.get("frames").and_then(Json::as_f64), Some(6.0));
        let shutdown = Json::parse(&answers[6]).unwrap();
        assert_eq!(
            shutdown.get("sessions_closed").and_then(Json::as_f64),
            Some(5.0)
        );
        assert!(stopped);
    }
}
