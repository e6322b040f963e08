//! Protocol golden tests: a recorded session transcript checked
//! byte-for-byte, plus malformed-frame cases that must come back as
//! structured error frames (and must never kill the server).
//!
//! The transcript pins the wire format. Response frames deliberately
//! carry no wall-clock fields (timings live in the opt-in `report`
//! payload of `metrics`), so every byte below is deterministic; a
//! change here is a protocol change and should be made knowingly, with
//! DESIGN.md's frame reference updated to match.

use parulel_server::{Server, ServerConfig};

/// The self-contained transitive-closure program the transcript drives.
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

/// The recorded session: `(request, expected response)` pairs, `open`
/// being [`open_frame`]`("s1")`.
fn session_transcript(open: &str) -> Vec<(&str, &'static str)> {
    vec![
        (
            open,
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
    ]
}

#[test]
fn golden_session_transcript() {
    let mut server = Server::new(ServerConfig::default());
    let open = open_frame("s1");
    for (request, expected) in session_transcript(&open) {
        let response = server.handle_line(request).expect("non-blank line");
        assert_eq!(response, expected, "request: {request}");
    }
    assert!(server.shutting_down());
}

/// The stdio pump over in-memory pipes answers the same transcript with
/// the same bytes, one line per frame, and stops at the `shutdown`
/// frame without reading what follows it.
#[test]
fn serve_lines_pumps_the_golden_transcript() {
    let open = open_frame("s1");
    let transcript = session_transcript(&open);
    let mut input = String::new();
    let mut expected = String::new();
    for (request, response) in &transcript {
        input.push_str(request);
        input.push('\n');
        expected.push_str(response);
        expected.push('\n');
    }
    input.push_str("{\"op\":\"ping\"}\n");
    let mut server = Server::new(ServerConfig::default());
    let mut reader = input.as_bytes();
    let mut output = Vec::new();
    parulel_server::serve_lines(&mut server, &mut reader, &mut output).expect("in-memory io");
    assert_eq!(String::from_utf8(output).unwrap(), expected);
    assert_eq!(reader, b"{\"op\":\"ping\"}\n", "frames after shutdown stay unread");
}

/// `PROGRAM` with one rule body changed (`close` gains a `write`) and
/// one rule added (`audit`) — same class table, so a live `reload`
/// must accept it.
const PROGRAM_V2: &str = "(literalize edge from to)\
(literalize reach from to)\
(p seed (edge ^from <a> ^to <b>) -(reach ^from <a> ^to <b>) --> (make reach ^from <a> ^to <b>))\
(p close (reach ^from <a> ^to <b>) (edge ^from <b> ^to <c>) -(reach ^from <a> ^to <c>) --> (make reach ^from <a> ^to <c>) (write closed <a> <c>))\
(p audit (reach ^from <a> ^to <c>) --> (write audit <a> <c>))";

fn reload_frame(session: &str, program: &str) -> String {
    format!(
        r#"{{"op":"reload","session":"{session}","program":"{}"}}"#,
        program.replace('\\', "\\\\").replace('"', "\\\"")
    )
}

/// The hot-swap transcript, byte-for-byte: an identity reload is
/// reported as all-unchanged and perturbs nothing (same fingerprint,
/// and the follow-up run matches [`golden_session_transcript`]'s
/// numbers); a real swap reports the added/changed rule names, keeps
/// the WM and fingerprint, and the next run fires the new `audit` rule
/// against existing facts without re-firing refracted ones.
#[test]
fn golden_reload_transcript() {
    let mut server = Server::new(ServerConfig::default());
    let transcript: Vec<(String, &str)> = vec![
        (
            open_frame("s1"),
            r#"{"ok":true,"op":"open","session":"s1","policy":"fire-all","rules":2,"wm":2}"#,
        ),
        (
            reload_frame("s1", PROGRAM),
            r#"{"ok":true,"op":"reload","session":"s1","added":[],"removed":[],"changed":[],"unchanged":2,"incremental":true,"rules":2,"wm":2,"fingerprint":"d0b654ecefdc6547"}"#,
        ),
        (
            r#"{"op":"run","session":"s1"}"#.to_string(),
            r#"{"ok":true,"op":"run","session":"s1","drained":0,"status":"quiescent","cycles":2,"firings":3,"wm":5,"fingerprint":"e03e8458d2e5a23f"}"#,
        ),
        (
            reload_frame("s1", PROGRAM_V2),
            r#"{"ok":true,"op":"reload","session":"s1","added":["audit"],"removed":[],"changed":["close"],"unchanged":1,"incremental":true,"rules":3,"wm":5,"fingerprint":"e03e8458d2e5a23f"}"#,
        ),
        (
            r#"{"op":"run","session":"s1"}"#.to_string(),
            r#"{"ok":true,"op":"run","session":"s1","drained":0,"status":"quiescent","cycles":1,"firings":3,"wm":5,"fingerprint":"e03e8458d2e5a23f"}"#,
        ),
        (
            r#"{"op":"close","session":"s1"}"#.to_string(),
            r#"{"ok":true,"op":"close","session":"s1","cycles":3,"firings":6,"fingerprint":"e03e8458d2e5a23f"}"#,
        ),
    ];
    for (request, expected) in transcript {
        let response = server.handle_line(&request).expect("non-blank line");
        assert_eq!(response, expected, "request: {request}");
    }
}

#[test]
fn blank_lines_are_skipped_not_answered() {
    let mut server = Server::new(ServerConfig::default());
    assert_eq!(server.handle_line(""), None);
    assert_eq!(server.handle_line("   \t "), None);
}

fn error_kind(response: &str) -> String {
    let doc = parulel_engine::Json::parse(response).expect("error frame parses as JSON");
    assert_eq!(
        doc.get("ok"),
        Some(&parulel_engine::Json::Bool(false)),
        "{response}"
    );
    doc.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(|k| k.as_str())
        .unwrap_or_else(|| panic!("no error.kind in {response}"))
        .to_string()
}

#[test]
fn malformed_frames_return_structured_errors() {
    let mut server = Server::new(ServerConfig::default());
    // Truncated JSON.
    let r = server.handle_line(r#"{"op":"open","session":"#).unwrap();
    assert_eq!(error_kind(&r), "parse");
    // Valid JSON, not an object.
    let r = server.handle_line("42").unwrap();
    assert_eq!(error_kind(&r), "protocol");
    // Unknown verb.
    let r = server.handle_line(r#"{"op":"teleport"}"#).unwrap();
    assert_eq!(error_kind(&r), "protocol");
    // Session verb without a session.
    let r = server.handle_line(r#"{"op":"run"}"#).unwrap();
    assert_eq!(error_kind(&r), "protocol");
    // Inject to a session that was never opened.
    let r = server
        .handle_line(r#"{"op":"inject","session":"ghost","adds":[]}"#)
        .unwrap();
    assert_eq!(error_kind(&r), "unknown-session");
    // Program that does not compile (the message carries line:col).
    let r = server
        .handle_line(r#"{"op":"open","session":"bad","program":"(p broken"}"#)
        .unwrap();
    assert_eq!(error_kind(&r), "compile");
    // The server survived all of it.
    let r = server.handle_line(r#"{"op":"ping"}"#).unwrap();
    assert_eq!(r, r#"{"ok":true,"op":"ping"}"#);
}

#[test]
fn inject_to_closed_session_is_unknown() {
    let mut server = Server::new(ServerConfig::default());
    server.handle_line(&open_frame("s1")).unwrap();
    let r = server.handle_line(r#"{"op":"close","session":"s1"}"#).unwrap();
    assert!(r.starts_with(r#"{"ok":true"#), "{r}");
    let r = server
        .handle_line(r#"{"op":"inject","session":"s1","adds":[{"class":"edge","fields":[9,9]}]}"#)
        .unwrap();
    assert_eq!(error_kind(&r), "unknown-session");
}

#[test]
fn inject_validation_rejects_bad_classes_and_arities() {
    let mut server = Server::new(ServerConfig::default());
    server.handle_line(&open_frame("s1")).unwrap();
    for bad in [
        r#"{"op":"inject","session":"s1","adds":[{"class":"nosuch","fields":[1,2]}]}"#,
        r#"{"op":"inject","session":"s1","adds":[{"class":"edge","fields":[1,2,3]}]}"#,
        r#"{"op":"inject","session":"s1","adds":[{"class":"edge","fields":[1,null]}]}"#,
        r#"{"op":"inject","session":"s1","removes":[-1]}"#,
        r#"{"op":"inject","session":"s1"}"#,
    ] {
        let r = server.handle_line(bad).unwrap();
        assert_eq!(error_kind(&r), "protocol", "frame: {bad}");
    }
    // The session is still healthy after every rejected inject.
    let r = server.handle_line(r#"{"op":"run","session":"s1"}"#).unwrap();
    assert!(r.contains(r#""status":"quiescent""#), "{r}");
}

#[test]
fn admission_and_duplicate_opens_are_refused() {
    let mut server = Server::new(ServerConfig {
        max_sessions: 1,
        ..ServerConfig::default()
    });
    server.handle_line(&open_frame("s1")).unwrap();
    let r = server.handle_line(&open_frame("s1")).unwrap();
    assert_eq!(error_kind(&r), "session-exists");
    let r = server.handle_line(&open_frame("s2")).unwrap();
    assert_eq!(error_kind(&r), "admission");
    // Closing frees the slot.
    server.handle_line(r#"{"op":"close","session":"s1"}"#).unwrap();
    let r = server.handle_line(&open_frame("s2")).unwrap();
    assert!(r.starts_with(r#"{"ok":true"#), "{r}");
}

#[test]
fn backpressure_refuses_the_whole_frame() {
    let mut server = Server::new(ServerConfig {
        inject_queue: 3,
        ..ServerConfig::default()
    });
    server.handle_line(&open_frame("s1")).unwrap();
    let inject2 =
        r#"{"op":"inject","session":"s1","adds":[{"class":"edge","fields":[5,6]},{"class":"edge","fields":[6,7]}]}"#;
    let r = server.handle_line(inject2).unwrap();
    assert!(r.contains(r#""depth":2"#), "{r}");
    // 2 queued + 2 new > 3: refused whole, depth unchanged.
    let r = server.handle_line(inject2).unwrap();
    assert_eq!(error_kind(&r), "backpressure");
    let r = server.handle_line(r#"{"op":"metrics","session":"s1"}"#).unwrap();
    assert!(r.contains(r#""queue_depth":2"#), "{r}");
    // Draining with run frees the queue; the refused adds never landed.
    let r = server.handle_line(r#"{"op":"run","session":"s1"}"#).unwrap();
    assert!(r.contains(r#""drained":2"#), "{r}");
    let r = server.handle_line(inject2).unwrap();
    assert!(r.starts_with(r#"{"ok":true"#), "{r}");
}

#[test]
fn snapshot_restore_roundtrip_over_the_wire() {
    let mut server = Server::new(ServerConfig::default());
    server.handle_line(&open_frame("s1")).unwrap();
    let run = server.handle_line(r#"{"op":"run","session":"s1"}"#).unwrap();
    let fingerprint = parulel_engine::Json::parse(&run)
        .unwrap()
        .get("fingerprint")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let snap = server
        .handle_line(r#"{"op":"snapshot","session":"s1"}"#)
        .unwrap();
    let doc = parulel_engine::Json::parse(&snap).unwrap();
    let hex = doc.get("snapshot").unwrap().as_str().unwrap().to_string();
    assert_eq!(doc.get("cycle").unwrap().as_f64(), Some(2.0));
    // Mutate past the capture point…
    server
        .handle_line(r#"{"op":"inject","session":"s1","adds":[{"class":"edge","fields":[3,1]}]}"#)
        .unwrap();
    let r = server.handle_line(r#"{"op":"run","session":"s1"}"#).unwrap();
    assert!(!r.contains(&fingerprint), "WM should have changed: {r}");
    // …and rewind.
    let restore = format!(r#"{{"op":"restore","session":"s1","snapshot":"{hex}"}}"#);
    let r = server.handle_line(&restore).unwrap();
    assert!(r.contains(r#""cycle":2"#), "{r}");
    let r = server.handle_line(r#"{"op":"metrics","session":"s1"}"#).unwrap();
    assert!(r.contains(&fingerprint), "restore should rewind the WM: {r}");
    // Bad payloads are structured errors, not panics.
    let r = server
        .handle_line(r#"{"op":"restore","session":"s1","snapshot":"zz"}"#)
        .unwrap();
    assert_eq!(error_kind(&r), "snapshot");
    let r = server
        .handle_line(r#"{"op":"restore","session":"s1","snapshot":"deadbeef"}"#)
        .unwrap();
    assert_eq!(error_kind(&r), "snapshot");
}

#[test]
fn malformed_restore_payloads_leave_prior_state_intact() {
    let mut server = Server::new(ServerConfig::default());
    server.handle_line(&open_frame("s1")).unwrap();
    let run = server.handle_line(r#"{"op":"run","session":"s1"}"#).unwrap();
    let fingerprint = parulel_engine::Json::parse(&run)
        .unwrap()
        .get("fingerprint")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let snap = server
        .handle_line(r#"{"op":"snapshot","session":"s1"}"#)
        .unwrap();
    let hex = parulel_engine::Json::parse(&snap)
        .unwrap()
        .get("snapshot")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    // A gallery of broken payloads: odd-length hex, non-hex characters,
    // a truncated (but even-length, valid-hex) snapshot, a snapshot
    // whose magic is wrong, a missing field, and a payload of the wrong
    // type.
    let truncated = &hex[..hex.len() / 2 - (hex.len() / 2) % 2];
    let corrupted = format!("00{}", &hex[2..]);
    let cases = vec![
        (r#"{"op":"restore","session":"s1","snapshot":"abc"}"#.to_string(), "snapshot"),
        (r#"{"op":"restore","session":"s1","snapshot":"zz"}"#.to_string(), "snapshot"),
        (
            format!(r#"{{"op":"restore","session":"s1","snapshot":"{truncated}"}}"#),
            "snapshot",
        ),
        (
            format!(r#"{{"op":"restore","session":"s1","snapshot":"{corrupted}"}}"#),
            "snapshot",
        ),
        (r#"{"op":"restore","session":"s1"}"#.to_string(), "protocol"),
        (r#"{"op":"restore","session":"s1","snapshot":17}"#.to_string(), "protocol"),
    ];
    for (frame, want_kind) in cases {
        let r = server.handle_line(&frame).unwrap();
        assert_eq!(error_kind(&r), want_kind, "frame: {frame}");
        // Prior state intact after every refusal.
        let m = server.handle_line(r#"{"op":"metrics","session":"s1"}"#).unwrap();
        assert!(m.contains(&fingerprint), "state lost after {frame}: {m}");
    }
    // And the session still accepts a *valid* restore afterwards.
    let r = server
        .handle_line(&format!(r#"{{"op":"restore","session":"s1","snapshot":"{hex}"}}"#))
        .unwrap();
    assert!(r.starts_with(r#"{"ok":true"#), "{r}");
}

#[test]
fn metrics_report_and_trace_are_available_per_session() {
    let mut server = Server::new(ServerConfig::default());
    server.handle_line(&open_frame("s1")).unwrap();
    server.handle_line(r#"{"op":"run","session":"s1"}"#).unwrap();
    let r = server
        .handle_line(r#"{"op":"metrics","session":"s1","report":true}"#)
        .unwrap();
    let doc = parulel_engine::Json::parse(&r).unwrap();
    let report = doc.get("report").expect("report payload");
    assert_eq!(
        report.get("schema").and_then(|s| s.as_str()),
        Some("parulel-metrics/v1")
    );
    let r = server.handle_line(r#"{"op":"trace","session":"s1"}"#).unwrap();
    let doc = parulel_engine::Json::parse(&r).unwrap();
    let jsonl = doc.get("jsonl").unwrap().as_str().unwrap();
    assert!(jsonl.lines().next().unwrap().contains("parulel-trace/v2"));
    assert!(jsonl.contains(r#""ev":"cycle""#), "{jsonl}");
    assert!(doc.get("events").unwrap().as_f64().unwrap() > 0.0);
}

#[test]
fn budget_trip_kills_one_session_with_an_engine_frame() {
    let mut server = Server::new(ServerConfig::default());
    let open = format!(
        r#"{{"op":"open","session":"doomed","program":"{}","max_wm":4}}"#,
        PROGRAM.replace('\\', "\\\\").replace('"', "\\\"")
    );
    server.handle_line(&open).unwrap();
    server.handle_line(&open_frame("bystander")).unwrap();
    let r = server.handle_line(r#"{"op":"run","session":"doomed"}"#).unwrap();
    let doc = parulel_engine::Json::parse(&r).unwrap();
    assert_eq!(doc.get("ok"), Some(&parulel_engine::Json::Bool(false)));
    let err = doc.get("error").unwrap();
    assert_eq!(err.get("kind").and_then(|k| k.as_str()), Some("engine"));
    assert_eq!(err.get("engine_kind").and_then(|k| k.as_str()), Some("wm"));
    assert!(err.get("cycle").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(doc.get("closed"), Some(&parulel_engine::Json::Bool(true)));
    // The doomed session is gone; the bystander is untouched.
    let r = server.handle_line(r#"{"op":"run","session":"doomed"}"#).unwrap();
    assert_eq!(error_kind(&r), "unknown-session");
    let r = server
        .handle_line(r#"{"op":"run","session":"bystander"}"#)
        .unwrap();
    assert!(r.contains(r#""status":"quiescent""#), "{r}");
}

/// A gallery of reload payloads that must be *refused*, each leaving
/// the session exactly as it was: missing/mistyped program field,
/// source that does not compile, and replacement programs whose class
/// table is incompatible with the live working memory (dropped class,
/// reordered classes, changed arity). A compile error is kind
/// `compile`; an incompatible-but-valid program is kind `reload`.
#[test]
fn malformed_reload_payloads_leave_prior_state_intact() {
    let mut server = Server::new(ServerConfig::default());
    server.handle_line(&open_frame("s1")).unwrap();
    let run = server.handle_line(r#"{"op":"run","session":"s1"}"#).unwrap();
    let fingerprint = parulel_engine::Json::parse(&run)
        .unwrap()
        .get("fingerprint")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let cases: Vec<(String, &str)> = vec![
        (r#"{"op":"reload","session":"s1"}"#.to_string(), "protocol"),
        (r#"{"op":"reload","session":"s1","program":17}"#.to_string(), "protocol"),
        (reload_frame("s1", "(p broken"), "compile"),
        // Drops the `reach` class the live WM depends on.
        (
            reload_frame("s1", "(literalize edge from to)(p noop (edge ^from <a>) --> (write <a>))"),
            "reload",
        ),
        // Same classes, swapped declaration order: class ids shift.
        (
            reload_frame(
                "s1",
                "(literalize reach from to)(literalize edge from to)(p noop (edge ^from <a>) --> (write <a>))",
            ),
            "reload",
        ),
        // `edge` narrowed to arity 1.
        (
            reload_frame(
                "s1",
                "(literalize edge from)(literalize reach from to)(p noop (edge ^from <a>) --> (write <a>))",
            ),
            "reload",
        ),
    ];
    for (frame, want_kind) in cases {
        let r = server.handle_line(&frame).unwrap();
        assert_eq!(error_kind(&r), want_kind, "frame: {frame}");
        let m = server.handle_line(r#"{"op":"metrics","session":"s1"}"#).unwrap();
        assert!(m.contains(&fingerprint), "state lost after {frame}: {m}");
    }
    // The session still accepts a valid reload and keeps running.
    let r = server.handle_line(&reload_frame("s1", PROGRAM_V2)).unwrap();
    assert!(r.contains(r#""added":["audit"]"#), "{r}");
    let r = server.handle_line(r#"{"op":"run","session":"s1"}"#).unwrap();
    assert!(r.contains(r#""status":"quiescent""#), "{r}");
    // Reload to a session that does not exist.
    let r = server.handle_line(&reload_frame("ghost", PROGRAM)).unwrap();
    assert_eq!(error_kind(&r), "unknown-session");
}
