//! Scheduler integration tests: the sharded session scheduler and its
//! `poll(2)` dispatcher, driven over real TCP sockets.
//!
//! What is pinned here:
//!
//! * **Byte compatibility** — at `--workers 1` the scheduler answers
//!   the exact golden transcript a bare `Server` answers, byte
//!   for byte, even though `run` frames now execute in step-quantum
//!   slices.
//! * **Shard equivalence** — at `--workers 4` the same workload gives
//!   the same fingerprints, and merged control frames (`metrics`,
//!   `shutdown`) account for every shard.
//! * **Fairness/liveness** — neighbor sessions get answers *while* a
//!   long `run` is in flight on the same shard, with bounded latency,
//!   and their state is byte-identical to running alone.
//! * **Shutdown drain** — a `shutdown` racing a parked `run` completes
//!   the run (the response is delivered, the WAL persists post-run
//!   state) before the daemon exits; recovery equals the uninterrupted
//!   reference.
//! * **Admission churn** — closed and killed sessions release their
//!   admission slots immediately, standalone and across shards sharing
//!   one gauge.
//! * **No broadcast stall** — a broadcast waiting behind a long run on
//!   one shard does not hold up frames for the other shards.

use parulel_server::{recover, shard_of, spawn_sched_tcp, Server, ServerConfig, WalConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The transitive-closure program the protocol goldens use.
const PROGRAM: &str = "(literalize edge from to)\
(literalize reach from to)\
(p seed (edge ^from <a> ^to <b>) -(reach ^from <a> ^to <b>) --> (make reach ^from <a> ^to <b>))\
(p close (reach ^from <a> ^to <b>) (edge ^from <b> ^to <c>) -(reach ^from <a> ^to <c>) --> (make reach ^from <a> ^to <c>))\
(wm (edge ^from 1 ^to 2) (edge ^from 2 ^to 3))";

fn open_frame(session: &str) -> String {
    format!(
        r#"{{"op":"open","session":"{session}","program":"{}"}}"#,
        PROGRAM.replace('\\', "\\\\").replace('"', "\\\"")
    )
}

fn chain_inject(session: &str, from: i64, to: i64) -> String {
    let adds: Vec<String> = (from..to)
        .map(|i| format!(r#"{{"class":"edge","fields":[{i},{}]}}"#, i + 1))
        .collect();
    format!(
        r#"{{"op":"inject","session":"{session}","adds":[{}]}}"#,
        adds.join(",")
    )
}

fn field<'a>(response: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":\"");
    let start = response
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {response}"))
        + tag.len();
    let end = start + response[start..].find('"').unwrap();
    &response[start..end]
}

/// Starts a sharded daemon on an ephemeral port. `servers` must already
/// share one admission gauge when `len > 1` (see `shard_servers`).
fn start(servers: Vec<Server>, quantum: u64) -> (SocketAddr, std::thread::JoinHandle<()>) {
    spawn_sched_tcp(servers, quantum, 256, "127.0.0.1:0").expect("bind scheduler")
}

/// `workers` servers wired the way the CLI wires them: one shared
/// admission gauge.
fn shard_servers(config: &ServerConfig, workers: usize) -> Vec<Server> {
    let mut servers: Vec<Server> = Vec::with_capacity(workers);
    for _ in 0..workers {
        let mut server = Server::new(config.clone());
        if let Some(first) = servers.first() {
            server.share_admission(first.admission_gauge());
        }
        servers.push(server);
    }
    servers
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send(&mut self, frame: &str) {
        self.writer.write_all(frame.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        assert!(!line.is_empty(), "connection closed mid-transcript");
        line.trim_end().to_string()
    }

    fn roundtrip(&mut self, frame: &str) -> String {
        self.send(frame);
        self.recv()
    }

    fn send_ok(&mut self, frame: &str) -> String {
        let response = self.roundtrip(frame);
        assert!(response.starts_with(r#"{"ok":true"#), "{frame} -> {response}");
        response
    }
}

#[test]
fn golden_transcript_byte_for_byte_at_one_worker() {
    // Quantum 2 forces the 3-cycle golden run through multiple slices:
    // the sliced path must still produce the exact golden bytes.
    let (addr, daemon) = start(shard_servers(&ServerConfig::default(), 1), 2);
    let mut client = Client::connect(addr);
    let open = open_frame("s1");
    let transcript: Vec<(&str, &str)> = vec![
        (
            open.as_str(),
            r#"{"ok":true,"op":"open","session":"s1","policy":"fire-all","rules":2,"wm":2}"#,
        ),
        (
            r#"{"op":"inject","session":"s1","adds":[{"class":"edge","fields":[3,4]}]}"#,
            r#"{"ok":true,"op":"inject","session":"s1","queued":1,"depth":1}"#,
        ),
        (
            r#"{"op":"run","session":"s1"}"#,
            r#"{"ok":true,"op":"run","session":"s1","drained":1,"status":"quiescent","cycles":3,"firings":6,"wm":9,"fingerprint":"735c3f975f38542b"}"#,
        ),
        (
            r#"{"op":"query","session":"s1","class":"reach"}"#,
            r#"{"ok":true,"op":"query","session":"s1","class":"reach","count":6,"returned":6,"facts":[[1,2],[1,3],[1,4],[2,3],[2,4],[3,4]]}"#,
        ),
        (
            r#"{"op":"metrics","session":"s1"}"#,
            r#"{"ok":true,"op":"metrics","session":"s1","cycles":3,"firings":6,"redacted_meta":0,"redacted_guard":0,"peak_eligible":3,"wm":9,"queue_depth":0,"injected_adds":1,"injected_removes":0,"halted":false,"fingerprint":"735c3f975f38542b"}"#,
        ),
        (
            r#"{"op":"metrics"}"#,
            r#"{"ok":true,"op":"metrics","sessions":1,"peak_sessions":1,"max_sessions":64,"frames":6,"errors":0,"session_list":["s1"]}"#,
        ),
        (
            r#"{"op":"close","session":"s1"}"#,
            r#"{"ok":true,"op":"close","session":"s1","cycles":3,"firings":6,"fingerprint":"735c3f975f38542b"}"#,
        ),
        (
            r#"{"op":"shutdown"}"#,
            r#"{"ok":true,"op":"shutdown","sessions_closed":0}"#,
        ),
    ];
    for (request, expected) in transcript {
        assert_eq!(client.roundtrip(request), expected, "request: {request}");
    }
    daemon.join().expect("daemon exits after shutdown");
}

#[test]
fn four_workers_answer_like_one() {
    let sessions = ["alpha", "beta", "gamma", "delta", "epsilon"];

    // Reference: each session's workload alone on a plain server.
    let mut reference = Server::new(ServerConfig::default());
    reference.handle_line(&open_frame("solo")).unwrap();
    reference
        .handle_line(&chain_inject("solo", 3, 8))
        .unwrap();
    let run = reference
        .handle_line(r#"{"op":"run","session":"solo"}"#)
        .unwrap();
    let expected = field(&run, "fingerprint").to_string();

    // The one-worker reference for the server counters: the whole
    // script, broadcasts and a bad verb included, on one plain server.
    let mut script = Vec::new();
    for name in &sessions {
        script.push(open_frame(name));
        script.push(chain_inject(name, 3, 8));
    }
    let runs = sessions.map(|name| format!(r#"{{"op":"run","session":"{name}"}}"#));
    let bad = r#"{"op":"no-such-verb"}"#.to_string();
    let metrics_frame = r#"{"op":"metrics"}"#.to_string();
    script.extend(runs.iter().cloned());
    script.extend([
        r#"{"op":"ping"}"#.to_string(),
        bad.clone(),
        metrics_frame.clone(),
    ]);
    let mut one = Server::new(ServerConfig::default());
    let answers: Vec<String> = script.iter().map(|l| one.handle_line(l).unwrap()).collect();
    let one_metrics = parulel_engine::Json::parse(&answers[answers.len() - 1]).unwrap();

    let (addr, daemon) = start(shard_servers(&ServerConfig::default(), 4), 4);
    let mut client = Client::connect(addr);
    for name in &sessions {
        client.send_ok(&open_frame(name));
        client.send_ok(&chain_inject(name, 3, 8));
    }
    for (name, run) in sessions.iter().zip(&runs) {
        let run = client.send_ok(run);
        assert_eq!(field(&run, "fingerprint"), expected, "session {name}");
    }
    client.send_ok(r#"{"op":"ping"}"#);
    let refused = client.roundtrip(&bad);
    assert!(refused.starts_with(r#"{"ok":false"#), "{refused}");
    // Merged server-level metrics must account for every shard, and
    // count each frame once, as one worker does.
    let metrics = client.send_ok(&metrics_frame);
    let doc = parulel_engine::Json::parse(&metrics).unwrap();
    for counter in ["frames", "errors"] {
        assert_eq!(
            doc.get(counter),
            one_metrics.get(counter),
            "{counter}: {metrics}"
        );
    }
    assert_eq!(
        doc.get("sessions").and_then(parulel_engine::Json::as_f64),
        Some(5.0),
        "{metrics}"
    );
    let listed = doc
        .get("session_list")
        .and_then(parulel_engine::Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|v| v.as_str())
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .unwrap();
    let mut want: Vec<String> = sessions.iter().map(|s| s.to_string()).collect();
    want.sort();
    assert_eq!(listed, want, "{metrics}");
    let merged = client.roundtrip(r#"{"op":"shutdown"}"#);
    let doc = parulel_engine::Json::parse(&merged).unwrap();
    assert_eq!(
        doc.get("sessions_closed")
            .and_then(parulel_engine::Json::as_f64),
        Some(5.0),
        "{merged}"
    );
    daemon.join().expect("daemon exits");
}

/// Satellite 3 — the headline fairness proof. One session starts a long
/// closure `run`; seven neighbor sessions on the *same shard* (workers
/// = 1, so interleaving can only come from step-quantum slicing) keep
/// pinging and injecting concurrently. Every neighbor frame must be
/// answered while the victim's run is still in flight, within a bound,
/// and neighbor state must match running alone.
#[test]
fn neighbors_stay_live_behind_a_long_run() {
    let neighbors = 7usize;
    let config = ServerConfig::default();

    // Solo goldens for the neighbor workload.
    let mut reference = Server::new(config.clone());
    reference.handle_line(&open_frame("solo")).unwrap();
    reference.handle_line(&chain_inject("solo", 3, 6)).unwrap();
    let run = reference
        .handle_line(r#"{"op":"run","session":"solo"}"#)
        .unwrap();
    let solo_fingerprint = field(&run, "fingerprint").to_string();

    let (addr, daemon) = start(shard_servers(&config, 1), 4);

    // The victim: a closure over a long chain, hundreds of cycles. A
    // separate thread waits for the response and timestamps its
    // arrival, so neighbor progress can be compared against it.
    let mut victim = Client::connect(addr);
    victim.send_ok(&open_frame("victim"));
    victim.send_ok(&chain_inject("victim", 3, 160));
    let run_started = Instant::now();
    victim.send(r#"{"op":"run","session":"victim"}"#);
    let victim_thread = std::thread::spawn(move || {
        let run = victim.recv();
        (run, Instant::now())
    });

    // Neighbors drive their own connections while the run is parked.
    let handles: Vec<_> = (0..neighbors)
        .map(|i| {
            let name = format!("n{i}");
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut latencies: Vec<Duration> = Vec::new();
                let mut timed = |c: &mut Client, frame: &str| {
                    let t = Instant::now();
                    let r = c.send_ok(frame);
                    latencies.push(t.elapsed());
                    r
                };
                timed(&mut client, &open_frame(&name));
                timed(&mut client, &chain_inject(&name, 3, 6));
                let run = timed(&mut client, &format!(r#"{{"op":"run","session":"{name}"}}"#));
                let fingerprint = field(&run, "fingerprint").to_string();
                for _ in 0..10 {
                    timed(&mut client, r#"{"op":"ping"}"#);
                }
                (fingerprint, latencies, Instant::now())
            })
        })
        .collect();

    let mut all_latencies: Vec<Duration> = Vec::new();
    let mut neighbors_done = run_started;
    for handle in handles {
        let (fingerprint, latencies, done) = handle.join().expect("neighbor thread");
        assert_eq!(
            fingerprint, solo_fingerprint,
            "neighbor state diverged from running alone"
        );
        all_latencies.extend(latencies);
        neighbors_done = neighbors_done.max(done);
    }

    let (run, victim_done) = victim_thread.join().expect("victim thread");
    assert!(run.starts_with(r#"{"ok":true,"op":"run""#), "{run}");
    assert_eq!(field(&run, "status"), "quiescent", "{run}");
    let victim_wall = victim_done - run_started;

    // Liveness: when the run is genuinely long, every neighbor finished
    // its whole script while the run was still in flight — served
    // *during* the closure, not after it. (Guarded so a surprisingly
    // fast box cannot turn a fairness proof into a flake.)
    if victim_wall > Duration::from_secs(1) {
        assert!(
            neighbors_done < victim_done,
            "neighbors only finished after the victim's {victim_wall:?} run"
        );
    }
    // Fairness: neighbor p99 is bounded. The bound is deliberately
    // loose for 1-CPU CI boxes; without slicing these frames wait for
    // the entire multi-second run, so the assertion still has teeth.
    all_latencies.sort();
    let p99 = all_latencies[(all_latencies.len() * 99) / 100 - 1];
    let bound = Duration::from_secs(2)
        .min(victim_wall / 2)
        .max(Duration::from_millis(250));
    assert!(
        p99 < bound,
        "neighbor p99 {p99:?} over bound {bound:?} (victim wall {victim_wall:?})"
    );
    Client::connect(addr).send_ok(r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon exits");
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parulel-sched-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Satellite 2 — `shutdown` racing a parked run. The run must drain to
/// completion (its response delivered, its post-run state persisted)
/// before the daemon exits, and a restart must recover state identical
/// to an uninterrupted reference.
#[test]
fn shutdown_drains_inflight_runs_before_persisting() {
    let config = ServerConfig::default();

    // Uninterrupted reference: same workload, no shutdown race.
    let mut reference = Server::new(config.clone());
    reference.handle_line(&open_frame("solo")).unwrap();
    reference
        .handle_line(&chain_inject("solo", 3, 120))
        .unwrap();
    let run = reference
        .handle_line(r#"{"op":"run","session":"solo"}"#)
        .unwrap();
    let expected = field(&run, "fingerprint").to_string();

    let dir = tmp_dir("drain");
    let wal = WalConfig::new(&dir, parulel_server::SyncPolicy::Always);
    let mut servers = Vec::new();
    for _ in 0..2 {
        let mut server = Server::with_wal(config.clone(), wal.clone());
        if let Some(first) = servers.first() {
            let first: &Server = first;
            server.share_admission(first.admission_gauge());
        }
        servers.push(server);
    }
    let (addr, daemon) = start(servers, 4);

    let mut client = Client::connect(addr);
    client.send_ok(&open_frame("victim"));
    client.send_ok(&chain_inject("victim", 3, 120));
    client.send(r#"{"op":"run","session":"victim"}"#);
    // Give the dispatcher time to route the frame and its shard time to
    // park the run mid-quantum. (If the run somehow finishes first the
    // test still checks response delivery and recovery — it just stops
    // exercising the race.)
    std::thread::sleep(Duration::from_millis(200));

    // Race the shutdown from a second connection.
    let mut second = Client::connect(addr);
    let merged = second.roundtrip(r#"{"op":"shutdown"}"#);
    assert!(merged.starts_with(r#"{"ok":true,"op":"shutdown""#), "{merged}");

    // The parked run's response still arrives, fully drained.
    let run = client.recv();
    assert!(run.contains("\"op\":\"run\""), "{run}");
    assert_eq!(field(&run, "status"), "quiescent", "{run}");
    assert_eq!(field(&run, "fingerprint"), expected, "{run}");
    daemon.join().expect("daemon exits");

    // Recovery on the same WAL dir equals the uninterrupted reference.
    let mut recovered = Server::with_wal(config, wal.clone());
    let report = recover(&mut recovered, &wal);
    assert_eq!(report.sessions_recovered, 1, "{:?}", report.notes);
    let run = recovered
        .handle_line(r#"{"op":"run","session":"victim"}"#)
        .unwrap();
    assert_eq!(field(&run, "fingerprint"), expected, "{run}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 6 — admission accounting. Slots free the moment a session
/// closes or dies; a daemon at `max_sessions` forever is a leak, not a
/// policy.
#[test]
fn closed_sessions_release_admission_slots() {
    let config = ServerConfig {
        max_sessions: 2,
        ..ServerConfig::default()
    };
    let mut server = Server::new(config);
    server.handle_line(&open_frame("a")).unwrap();
    server.handle_line(&open_frame("b")).unwrap();
    let refused = server.handle_line(&open_frame("c")).unwrap();
    assert!(refused.contains("\"admission\""), "{refused}");
    // Churn far past the limit: close → open must always succeed.
    for i in 0..20 {
        let close = server
            .handle_line(&format!(r#"{{"op":"close","session":"{}"}}"#, if i == 0 { "a".into() } else { format!("churn{}", i - 1) }))
            .unwrap();
        assert!(close.starts_with(r#"{"ok":true"#), "{close}");
        let open = server.handle_line(&open_frame(&format!("churn{i}"))).unwrap();
        assert!(open.starts_with(r#"{"ok":true"#), "iteration {i}: {open}");
    }
    // A session killed by a budget trip (not politely closed) must
    // release its slot too.
    let open = server
        .handle_line(&format!(
            r#"{{"op":"open","session":"doomed","program":"{}","max_wm":4}}"#,
            PROGRAM.replace('\\', "\\\\").replace('"', "\\\"")
        ))
        .unwrap();
    assert!(
        open.starts_with(r#"{"ok":false"#),
        "two live sessions already: {open}"
    );
    server
        .handle_line(r#"{"op":"close","session":"churn19"}"#)
        .unwrap();
    let open = server
        .handle_line(&format!(
            r#"{{"op":"open","session":"doomed","program":"{}","max_wm":4}}"#,
            PROGRAM.replace('\\', "\\\\").replace('"', "\\\"")
        ))
        .unwrap();
    assert!(open.starts_with(r#"{"ok":true"#), "{open}");
    let run = server
        .handle_line(r#"{"op":"run","session":"doomed"}"#)
        .unwrap();
    assert!(run.starts_with(r#"{"ok":false"#), "max_wm 4 must trip: {run}");
    // The engine death closed the session — its slot must be free.
    let open = server.handle_line(&open_frame("replacement")).unwrap();
    assert!(open.starts_with(r#"{"ok":true"#), "{open}");
}

/// The shared-gauge variant: shards enforce one daemon-wide limit, and
/// a close on one shard frees a slot an open on another shard can use.
#[test]
fn admission_gauge_is_shared_across_shards() {
    let config = ServerConfig {
        max_sessions: 2,
        ..ServerConfig::default()
    };
    let (addr, daemon) = start(shard_servers(&config, 4), 4);
    let mut client = Client::connect(addr);
    client.send_ok(&open_frame("a"));
    client.send_ok(&open_frame("b"));
    let refused = client.roundtrip(&open_frame("c"));
    assert!(refused.contains("\"admission\""), "{refused}");
    for i in 0..8 {
        let victim = if i == 0 { "a".to_string() } else { format!("churn{}", i - 1) };
        client.send_ok(&format!(r#"{{"op":"close","session":"{victim}"}}"#));
        client.send_ok(&open_frame(&format!("churn{i}")));
    }
    let merged = client.roundtrip(r#"{"op":"shutdown"}"#);
    let doc = parulel_engine::Json::parse(&merged).unwrap();
    assert_eq!(
        doc.get("sessions_closed")
            .and_then(parulel_engine::Json::as_f64),
        Some(2.0),
        "{merged}"
    );
    daemon.join().expect("daemon exits");
}

/// The first session name `prefix{i}` that lands on `shard` of `shards`.
fn name_on(prefix: &str, shard: usize, shards: usize) -> String {
    (0..)
        .map(|i| format!("{prefix}{i}"))
        .find(|name| shard_of(name, shards) == shard)
        .expect("some name lands on every shard")
}

/// A broadcast never holds the dispatcher. At two workers and quantum 0,
/// a long run occupies shard 0; a sessionless `ping` from a second
/// connection has to wait for it there. A `query` for an idle session on
/// shard 1, sent after the ping from a third connection, must still be
/// answered while the run is in flight.
#[test]
fn a_broadcast_behind_a_long_run_does_not_stall_other_shards() {
    let busy = name_on("busy", 0, 2);
    let idle = name_on("idle", 1, 2);
    let (addr, daemon) = start(shard_servers(&ServerConfig::default(), 2), 0);
    let mut neighbor = Client::connect(addr);
    neighbor.send_ok(&open_frame(&idle));
    let mut runner = Client::connect(addr);
    runner.send_ok(&open_frame(&busy));
    runner.send_ok(&chain_inject(&busy, 3, 120));
    runner.send(&format!(r#"{{"op":"run","session":"{busy}"}}"#));
    let run = std::thread::spawn(move || (runner.recv(), Instant::now()));
    std::thread::sleep(Duration::from_millis(50));
    let mut pinger = Client::connect(addr);
    pinger.send(r#"{"op":"ping"}"#);
    std::thread::sleep(Duration::from_millis(20));
    let query = neighbor.send_ok(&format!(
        r#"{{"op":"query","session":"{idle}","class":"reach"}}"#
    ));
    let answered = Instant::now();
    let (run, run_done) = run.join().expect("runner thread");
    assert_eq!(field(&run, "status"), "quiescent", "{run}");
    assert!(query.contains(r#""count":0"#), "{query}");
    assert!(
        answered < run_done,
        "the shard-1 query waited {:?} past the shard-0 run",
        answered - run_done
    );
    assert_eq!(pinger.recv(), r#"{"ok":true,"op":"ping"}"#);
    Client::connect(addr).send_ok(r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon exits");
}

/// The inbox bound counts jobs waiting in the inbox, not jobs the shard
/// has taken. At quantum 1 a long run parks between cycles; 300 `query`s
/// for its session, written in bursts of 50, leave the inbox as the shard
/// takes them and wait behind the run in the server. None is refused,
/// though the inbox holds 256, and each is answered once the run ends.
#[test]
fn frames_waiting_behind_a_parked_run_do_not_fill_the_inbox() {
    let (addr, daemon) = start(shard_servers(&ServerConfig::default(), 1), 1);
    let mut runner = Client::connect(addr);
    runner.send_ok(&open_frame("long"));
    runner.send_ok(&chain_inject("long", 3, 120));
    runner.send(r#"{"op":"run","session":"long"}"#);
    let mut client = Client::connect(addr);
    let query = r#"{"op":"query","session":"long","class":"edge"}"#.to_string() + "\n";
    for _ in 0..6 {
        let burst = query.repeat(50);
        client.writer.write_all(burst.as_bytes()).expect("write");
        std::thread::sleep(Duration::from_millis(20));
    }
    let sent = Instant::now();
    let run = runner.recv();
    let run_done = Instant::now();
    assert_eq!(field(&run, "status"), "quiescent", "{run}");
    for i in 0..300 {
        let answer = client.recv();
        assert!(answer.starts_with(r#"{"ok":true"#), "query {i}: {answer}");
    }
    assert!(
        sent < run_done,
        "the run ended {:?} before the last query was written",
        sent - run_done
    );
    Client::connect(addr).send_ok(r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon exits");
}
