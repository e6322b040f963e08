//! The acceptance tests for `parulel serve`: many concurrent sessions of
//! the closure workload over the transport the product ships — the
//! sharded scheduler behind real TCP sockets, at `--workers` 1 and 4.
//!
//! Every client drives its own socket from its own thread, so frames
//! from all sessions interleave arbitrarily at the daemon; the per-
//! session fingerprints must nevertheless equal the one a solo run
//! produces, whatever a neighbor does meanwhile — trips a budget, is
//! hot-swapped, or sends a hostile `restore`.

use parulel_engine::Json;
use parulel_server::{spawn_sched_tcp, Reply, Server, ServerConfig};
use parulel_workloads::{closure::Closure, Scenario};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

const SESSIONS: usize = 8;
const BATCH: usize = 8;

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// The frames one closure session sends: open (program only — the edges
/// arrive as injects, exercising the incremental path), batched injects,
/// run, close.
fn session_frames(name: &str, source: &str, edges: &[(i64, i64)], extra_open: &str) -> Vec<String> {
    let mut frames = vec![format!(
        r#"{{"op":"open","session":"{name}","program":"{}"{extra_open}}}"#,
        escape(source)
    )];
    for batch in edges.chunks(BATCH) {
        let adds: Vec<String> = batch
            .iter()
            .map(|(a, b)| format!(r#"{{"class":"edge","fields":[{a},{b}]}}"#))
            .collect();
        frames.push(format!(
            r#"{{"op":"inject","session":"{name}","adds":[{}]}}"#,
            adds.join(",")
        ));
    }
    frames.push(format!(r#"{{"op":"run","session":"{name}"}}"#));
    frames.push(format!(r#"{{"op":"close","session":"{name}"}}"#));
    frames
}

fn fingerprint_of(response: &str) -> Option<String> {
    Json::parse(response)
        .expect("response is JSON")
        .get("fingerprint")
        .and_then(|f| f.as_str())
        .map(str::to_string)
}

/// Runs frames against a fresh solo server; returns the run frame's
/// fingerprint.
fn solo_fingerprint(source: &str, edges: &[(i64, i64)]) -> String {
    let mut server = Server::new(ServerConfig::default());
    let mut fingerprint = None;
    for frame in session_frames("solo", source, edges, "") {
        let response = server.handle_line(&frame).expect("response");
        assert!(response.starts_with(r#"{"ok":true"#), "{response}");
        if response.contains(r#""op":"run""#) {
            assert!(response.contains(r#""status":"quiescent""#), "{response}");
            fingerprint = fingerprint_of(&response);
        }
    }
    fingerprint.expect("run frame carried a fingerprint")
}

/// A sharded daemon on an ephemeral port, wired the way the CLI wires
/// it: `workers` servers sharing one admission gauge.
fn start(config: ServerConfig, workers: usize) -> (SocketAddr, JoinHandle<()>) {
    let mut servers: Vec<Server> = Vec::with_capacity(workers);
    for _ in 0..workers {
        let mut server = Server::new(config.clone());
        if let Some(first) = servers.first() {
            server.share_admission(first.admission_gauge());
        }
        servers.push(server);
    }
    spawn_sched_tcp(servers, 32, 256, "127.0.0.1:0").expect("bind scheduler")
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

    fn roundtrip(&mut self, frame: &str) -> String {
        self.writer.write_all(frame.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read");
        assert!(!response.is_empty(), "daemon closed the connection on {frame}");
        response.trim_end().to_string()
    }

    fn send_ok(&mut self, frame: &str) -> String {
        let response = self.roundtrip(frame);
        assert!(response.starts_with(r#"{"ok":true"#), "{frame} -> {response}");
        response
    }
}

/// Stops the daemon the way a client does: a `shutdown` frame over TCP.
fn shutdown(addr: SocketAddr, daemon: JoinHandle<()>) {
    Client::connect(addr).send_ok(r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon exits");
}

#[test]
fn eight_concurrent_closure_sessions_survive_a_neighbors_budget_trip() {
    let scenario = Closure::new(24, 40, 7);
    let source = scenario.source().to_string();
    let edges: Vec<(i64, i64)> = scenario.edges().to_vec();
    let expected = solo_fingerprint(&source, &edges);

    for workers in [1, 4] {
        let (addr, daemon) = start(
            ServerConfig {
                max_sessions: SESSIONS + 1,
                ..ServerConfig::default()
            },
            workers,
        );
        // Every session is open before any proceeds, so all nine are
        // resident at once no matter how the client threads are scheduled.
        let all_open = Arc::new(Barrier::new(SESSIONS + 1));

        let mut clients = Vec::new();
        // 8 healthy sessions…
        for i in 0..SESSIONS {
            let (source, edges, all_open) = (source.clone(), edges.clone(), Arc::clone(&all_open));
            clients.push(std::thread::spawn(move || -> (String, Option<String>) {
                let name = format!("closure-{i}");
                let mut client = Client::connect(addr);
                let mut fingerprint = None;
                for (k, frame) in session_frames(&name, &source, &edges, "").iter().enumerate() {
                    let response = client.send_ok(frame);
                    if k == 0 {
                        all_open.wait();
                    }
                    if response.contains(r#""op":"run""#) {
                        fingerprint = fingerprint_of(&response);
                    }
                }
                (name, fingerprint)
            }));
        }
        // …and one doomed one: a WM budget that must trip on cycle 1.
        let doomed = {
            let (source, edges, all_open) = (source.clone(), edges.clone(), Arc::clone(&all_open));
            std::thread::spawn(move || -> String {
                let mut client = Client::connect(addr);
                let frames = session_frames("doomed", &source, &edges, r#","max_wm":45"#);
                // Everything up to the run succeeds; the close after it
                // would only see unknown-session.
                let (run, before_run) = frames[..frames.len() - 1].split_last().unwrap();
                for (k, frame) in before_run.iter().enumerate() {
                    client.send_ok(frame);
                    if k == 0 {
                        all_open.wait();
                    }
                }
                client.roundtrip(run)
            })
        };

        let error_frame = doomed.join().expect("doomed client");
        let doc = Json::parse(&error_frame).expect("error frame is JSON");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        let err = doc.get("error").expect("structured error");
        assert_eq!(err.get("kind").and_then(|k| k.as_str()), Some("engine"));
        assert_eq!(err.get("engine_kind").and_then(|k| k.as_str()), Some("wm"));
        assert_eq!(doc.get("closed"), Some(&Json::Bool(true)));

        for client in clients {
            let (name, fingerprint) = client.join().expect("client thread");
            assert_eq!(
                fingerprint.as_deref(),
                Some(expected.as_str()),
                "{name} (workers={workers}): final WM diverged from the solo run"
            );
        }

        // All sessions closed (the doomed one by its trip); the daemon is
        // still serving, and it saw all nine resident at peak.
        let metrics = Client::connect(addr).send_ok(r#"{"op":"metrics"}"#);
        let doc = Json::parse(&metrics).unwrap();
        assert_eq!(doc.get("sessions").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            doc.get("peak_sessions").unwrap().as_f64(),
            Some((SESSIONS + 1) as f64)
        );
        shutdown(addr, daemon);
    }
}

/// Live hot-swap under concurrency: eight TCP sessions run the closure
/// workload while one of them is `reload`ed twice mid-stream — once to
/// the identical program (must report all-unchanged) and once to a
/// program with an extra log-only `audit` rule (must report it added).
/// Neither swap may disturb that session's final working memory, and
/// the seven untouched neighbors must land on the solo fingerprint.
#[test]
fn reloading_one_session_leaves_seven_neighbors_undisturbed() {
    let scenario = Closure::new(24, 40, 7);
    let source = scenario.source().to_string();
    let edges: Vec<(i64, i64)> = scenario.edges().to_vec();
    let expected = solo_fingerprint(&source, &edges);
    // Same class table, one extra rule that only writes to the log —
    // the reachability fixpoint (and thus the fingerprint) is identical.
    let source_v2 = format!("{source}\n(p audit (reach ^from <a> ^to <b>) --> (write audit <a> <b>))");

    for workers in [1, 4] {
        let (addr, daemon) = start(
            ServerConfig {
                max_sessions: SESSIONS,
                ..ServerConfig::default()
            },
            workers,
        );

        let mut clients = Vec::new();
        for i in 0..SESSIONS {
            let (source, source_v2, edges) = (source.clone(), source_v2.clone(), edges.clone());
            clients.push(std::thread::spawn(move || -> (String, Option<String>) {
                let name = format!("closure-{i}");
                let mut client = Client::connect(addr);
                let mut fingerprint = None;
                let frames = session_frames(&name, &source, &edges, "");
                let midpoint = frames.len() / 2;
                for (k, frame) in frames.iter().enumerate() {
                    // Session 0 gets hot-swapped between inject batches:
                    // identity first, then the audit variant.
                    if i == 0 && k == midpoint {
                        for (swap, want) in
                            [(&source, r#""changed":[]"#), (&source_v2, r#""added":["audit"]"#)]
                        {
                            let r = client.send_ok(&format!(
                                r#"{{"op":"reload","session":"{name}","program":"{}"}}"#,
                                escape(swap)
                            ));
                            assert!(r.contains(want), "{name}: {r}");
                        }
                    }
                    let response = client.send_ok(frame);
                    if response.contains(r#""op":"run""#) {
                        fingerprint = fingerprint_of(&response);
                    }
                }
                (name, fingerprint)
            }));
        }
        for client in clients {
            let (name, fingerprint) = client.join().expect("client thread");
            assert_eq!(
                fingerprint.as_deref(),
                Some(expected.as_str()),
                "{name} (workers={workers}): final WM diverged from the solo run"
            );
        }
        shutdown(addr, daemon);
    }
}

/// A `restore` whose snapshot claims 2^32-1 fields on its first WME (65
/// bytes of input) must come back as a structured refusal. Unchecked,
/// that count reaches `Vec::with_capacity` as a >100 GB reservation,
/// and a failed reservation *aborts the process* — `catch_unwind`
/// cannot contain it, so one frame would take every session down.
#[test]
fn hostile_restore_is_refused_and_the_daemon_keeps_serving() {
    let mut snapshot = Vec::new();
    let put_str = |buf: &mut Vec<u8>, s: &str| {
        buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
        buf.extend_from_slice(s.as_bytes());
    };
    snapshot.extend_from_slice(b"PLSN");
    snapshot.extend_from_slice(&4u32.to_le_bytes());
    put_str(&mut snapshot, "fire-all");
    snapshot.extend_from_slice(&0u64.to_le_bytes()); // cycle
    snapshot.push(0); // halted
    snapshot.extend_from_slice(&1u64.to_le_bytes()); // next WME id
    snapshot.extend_from_slice(&1u64.to_le_bytes()); // one WME…
    snapshot.extend_from_slice(&0u64.to_le_bytes()); // …with id 0,
    put_str(&mut snapshot, "edge"); // class `edge`,
    snapshot.extend_from_slice(&u32::MAX.to_le_bytes()); // and 4 billion fields
    let restore = format!(
        r#"{{"op":"restore","session":"target","snapshot":"{}"}}"#,
        parulel_server::protocol::to_hex(&snapshot)
    );

    let scenario = Closure::new(8, 12, 3);
    let edges = scenario.edges().to_vec();
    for workers in [1, 4] {
        let (addr, daemon) = start(ServerConfig::default(), workers);
        let mut client = Client::connect(addr);
        for name in ["target", "neighbor"] {
            let frames = session_frames(name, scenario.source(), &edges, "");
            // Everything but the trailing close: both sessions stay open.
            for frame in &frames[..frames.len() - 1] {
                client.send_ok(frame);
            }
        }
        let metrics = r#"{"op":"metrics","session":"target"}"#;
        let before = fingerprint_of(&client.send_ok(metrics));

        let refusal = Json::parse(&client.roundtrip(&restore)).expect("refusal is JSON");
        assert_eq!(refusal.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(refusal.get("op").and_then(|o| o.as_str()), Some("restore"));
        let err = refusal.get("error").expect("structured error");
        assert_eq!(err.get("kind").and_then(|k| k.as_str()), Some("snapshot"));
        assert_eq!(refusal.get("closed"), None, "a refused restore keeps the session");

        // The target is exactly as it was, and its neighbor still answers.
        assert_eq!(fingerprint_of(&client.send_ok(metrics)), before);
        client.send_ok(r#"{"op":"ping"}"#);
        let reach = client.send_ok(r#"{"op":"query","session":"neighbor","class":"reach"}"#);
        assert!(!reach.contains(r#""count":0"#), "{reach}");
        shutdown(addr, daemon);
    }
}

/// One frame nested far past the JSON parser's depth cap used to
/// overflow the dispatcher thread's stack and abort the daemon. It is now
/// answered with a `parse` error, and the daemon keeps serving: `ping`
/// answers, and so does a `query` on a session opened before it.
#[test]
fn a_deeply_nested_frame_is_refused_and_the_daemon_keeps_serving() {
    let scenario = Closure::new(8, 12, 3);
    let edges = scenario.edges().to_vec();
    for workers in [1, 4] {
        let (addr, daemon) = start(ServerConfig::default(), workers);
        let mut client = Client::connect(addr);
        let frames = session_frames("kept", scenario.source(), &edges, "");
        for frame in &frames[..frames.len() - 1] {
            client.send_ok(frame);
        }
        let deep = format!(r#"{{"op":"ping","x":{}}}"#, "[".repeat(200_000));
        let refusal = Json::parse(&client.roundtrip(&deep)).expect("refusal is JSON");
        assert_eq!(refusal.get("ok"), Some(&Json::Bool(false)));
        let err = refusal.get("error").expect("structured error");
        assert_eq!(err.get("kind").and_then(|k| k.as_str()), Some("parse"));

        client.send_ok(r#"{"op":"ping"}"#);
        let reach = client.send_ok(r#"{"op":"query","session":"kept","class":"reach"}"#);
        assert!(!reach.contains(r#""count":0"#), "{reach}");
        shutdown(addr, daemon);
    }
}

/// A reply that sends its response down `tx`.
fn reply_to(tx: &Sender<String>) -> Reply {
    let tx = tx.clone();
    Box::new(move |response| tx.send(response).expect("the test holds the receiver"))
}

/// Advances every parked run one cycle at a time until none is left;
/// returns the responses delivered meanwhile, in delivery order.
fn finish_runs(server: &mut Server, rx: &Receiver<String>) -> Vec<String> {
    assert!(rx.try_recv().is_err(), "nothing answers while the run is parked");
    while server.has_parked_runs() {
        server.advance(1);
    }
    rx.try_iter().collect()
}

/// A server holding a closure session `s` with every edge injected, and
/// the session's `run` frame.
fn closure_session() -> (Server, String) {
    let scenario = Closure::new(12, 20, 5);
    let mut frames = session_frames("s", scenario.source(), scenario.edges(), "");
    frames.pop();
    let run = frames.pop().expect("the run frame");
    let mut server = Server::new(ServerConfig::default());
    for frame in &frames {
        server.handle_line(frame).expect("response");
    }
    (server, run)
}

/// A second `run` that arrives while the session's run is parked waits
/// behind it, through a submit and through `handle_line` alike: the
/// parked run answers first, exactly as it does unsliced, then the second
/// run answers as it does after an unsliced one.
#[test]
fn a_second_run_on_a_parked_session_runs_after_it() {
    let (mut reference, run) = closure_session();
    let unsliced: Vec<String> = (0..2).map(|_| reference.handle_line(&run).unwrap()).collect();
    assert!(unsliced[0].contains(r#""status":"quiescent""#), "{}", unsliced[0]);

    let (mut server, _) = closure_session();
    let (tx, rx) = channel();
    server.submit(Json::parse(&run), reply_to(&tx), 1);
    assert!(server.has_parked_runs(), "the run parks");
    server.submit(Json::parse(&run), reply_to(&tx), 1);
    assert_eq!(finish_runs(&mut server, &rx), unsliced);

    let (mut server, _) = closure_session();
    server.submit(Json::parse(&run), reply_to(&tx), 1);
    assert!(server.has_parked_runs(), "the run parks");
    let second = server.handle_line(&run).expect("response");
    assert_eq!(rx.try_iter().collect::<Vec<_>>(), unsliced[..1]);
    assert_eq!(second, unsliced[1]);
}

/// Asserts `response` is a `protocol` refusal of the `open` frame.
fn assert_open_refused(frame: &str, response: &str) {
    let refusal = Json::parse(response).expect("refusal is JSON");
    assert_eq!(refusal.get("op").and_then(|o| o.as_str()), Some("open"));
    let kind = refusal.get("error").and_then(|e| e.get("kind")?.as_str());
    assert_eq!(kind, Some("protocol"), "{frame} -> {response}");
}

/// The `open` frame's `matcher` uses the CLI's spelling; a worker count
/// of zero, a non-numeric one and an unknown name are each refused as a
/// `protocol` error, and the daemon keeps serving.
#[test]
fn an_unknown_matcher_is_refused_and_the_daemon_keeps_serving() {
    let source = escape(Closure::new(8, 12, 3).source());
    let (addr, daemon) = start(ServerConfig::default(), 1);
    let mut client = Client::connect(addr);
    for matcher in ["prete:0", "prete:x", "bogus"] {
        let open =
            format!(r#"{{"op":"open","session":"m","program":"{source}","matcher":"{matcher}"}}"#);
        assert_open_refused(&open, &client.roundtrip(&open));
        client.send_ok(r#"{"op":"ping"}"#);
    }
    shutdown(addr, daemon);
}

/// An `open` option of the wrong JSON type is refused, not read as its
/// default: `"matcher": 5` used to open a RETE session and
/// `"policy": ["lex"]` a fire-all one. A refused open leaves no session
/// behind, so a well-formed open of the same name then succeeds.
#[test]
fn ill_typed_open_options_are_refused() {
    let source = escape(Closure::new(8, 12, 3).source());
    let mut server = Server::new(ServerConfig::default());
    let open =
        |option: &str| format!(r#"{{"op":"open","session":"t","program":"{source}",{option}}}"#);
    for option in [
        r#""matcher":5"#,
        r#""metrics":true"#,
        r#""guard":1"#,
        r#""policy":["lex"]"#,
        r#""meta":"false""#,
        r#""meta":0"#,
    ] {
        let open = open(option);
        assert_open_refused(&open, &server.handle_line(&open).expect("response"));
    }
    let reopen = server.handle_line(&open(r#""meta":null"#));
    assert!(reopen.expect("response").starts_with(r#"{"ok":true"#));
}

/// Every frame for a session whose run is parked — each mutating verb
/// and the reads alike — waits behind the run and then executes in
/// arrival order: the run answers first, exactly as it does unsliced,
/// and every queued frame answers as it does after an unsliced run.
#[test]
fn every_frame_on_a_parked_session_waits_behind_the_run() {
    let (mut reference, run) = closure_session();
    let snapshot = reference
        .handle_line(r#"{"op":"snapshot","session":"s"}"#)
        .expect("response");
    let hex = Json::parse(&snapshot)
        .unwrap()
        .get("snapshot")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let program = escape(Closure::new(12, 20, 5).source());
    let frames = [
        run.clone(),
        r#"{"op":"inject","session":"s","adds":[{"class":"edge","fields":[0,1]}]}"#.to_string(),
        r#"{"op":"query","session":"s","class":"reach"}"#.to_string(),
        r#"{"op":"step","session":"s"}"#.to_string(),
        r#"{"op":"run-to-fixpoint","session":"s"}"#.to_string(),
        r#"{"op":"metrics","session":"s"}"#.to_string(),
        format!(r#"{{"op":"restore","session":"s","snapshot":"{hex}"}}"#),
        format!(r#"{{"op":"reload","session":"s","program":"{program}"}}"#),
        r#"{"op":"close","session":"s"}"#.to_string(),
    ];
    let unsliced: Vec<String> = frames
        .iter()
        .map(|f| reference.handle_line(f).expect("response"))
        .collect();
    for (frame, response) in frames.iter().zip(&unsliced) {
        assert!(response.starts_with(r#"{"ok":true"#), "{frame} -> {response}");
    }

    let (mut server, _) = closure_session();
    let (tx, rx) = channel();
    for frame in &frames {
        server.submit(Json::parse(frame), reply_to(&tx), 1);
    }
    assert_eq!(finish_runs(&mut server, &rx), unsliced);
    assert_eq!(server.session_count(), 0, "the queued close ran");
}

/// The session `metrics` frame's `report` flag is read as a boolean:
/// `"report":1` and `"report":"true"` used to answer the compact frame as
/// if the flag were false.
#[test]
fn an_ill_typed_report_flag_is_refused() {
    let scenario = Closure::new(8, 12, 3);
    let frames = session_frames("r", scenario.source(), scenario.edges(), "");
    let mut server = Server::new(ServerConfig::default());
    server.handle_line(&frames[0]).expect("response");
    for flag in ["1", r#""true""#] {
        let frame = format!(r#"{{"op":"metrics","session":"r","report":{flag}}}"#);
        let refusal = Json::parse(&server.handle_line(&frame).expect("response")).unwrap();
        let kind = refusal.get("error").and_then(|e| e.get("kind")?.as_str());
        assert_eq!(kind, Some("protocol"), "{frame} -> {}", refusal.render());
    }
    let frame = r#"{"op":"metrics","session":"r","report":true}"#;
    let response = Json::parse(&server.handle_line(frame).expect("response")).unwrap();
    assert!(response.get("report").is_some(), "{}", response.render());
}

/// Snapshot bytes carry no wall-clock data: two sessions run to the same
/// fingerprint answer `snapshot` with the same hex.
#[test]
fn sessions_in_the_same_state_snapshot_to_the_same_bytes() {
    let scenario = Closure::new(12, 20, 5);
    let mut server = Server::new(ServerConfig::default());
    let mut snapshots = Vec::new();
    for name in ["x", "y"] {
        let mut frames = session_frames(name, scenario.source(), scenario.edges(), "");
        frames.pop();
        frames.push(format!(r#"{{"op":"snapshot","session":"{name}"}}"#));
        let answers: Vec<String> = frames
            .iter()
            .map(|f| server.handle_line(f).unwrap())
            .collect();
        let (run, snapshot) = (&answers[answers.len() - 2], &answers[answers.len() - 1]);
        let snapshot = Json::parse(snapshot).expect("JSON");
        let hex = snapshot
            .get("snapshot")
            .and_then(Json::as_str)
            .expect("hex");
        snapshots.push((fingerprint_of(run), hex.to_string()));
    }
    assert!(snapshots[0].0.is_some());
    assert_eq!(snapshots[0], snapshots[1]);
}
