//! Seeded, thread-free differential test of the run scheduler.
//!
//! Each seed builds a random script of frames over three sessions —
//! open, inject, step, run, run-to-fixpoint, query, snapshot, restore
//! and close — and feeds it to one [`Server`] through
//! [`Server::submit`] at quantum 1, with a random number of
//! [`Server::advance`] turns between frames. Every frame must answer
//! exactly as [`Server::handle_line`] answers it at quantum 0 on the
//! same script, each session's responses must arrive in the order its
//! frames went in, and with a WAL on, recovery must end at the live
//! fingerprints. The execution order is the test input: a failing seed
//! prints its script.
//!
//! `metrics` and `trace` are left out of the scripts: their answers
//! carry timings. So do the bytes a `snapshot` answers with (the
//! engine's phase times), so snapshot answers are compared without them.

use parulel_engine::Json;
use parulel_server::{recover, Server, ServerConfig, SyncPolicy, WalConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::sync::mpsc::channel;

const SEEDS: u64 = 200;
const SESSIONS: [&str; 3] = ["a", "b", "c"];
const PROGRAM: &str = "(literalize edge from to)\n(literalize reach from to)\n\
    (p seed (edge ^from <a> ^to <b>) -(reach ^from <a> ^to <b>) --> (make reach ^from <a> ^to <b>))\n\
    (p close (reach ^from <a> ^to <b>) (edge ^from <b> ^to <c>) -(reach ^from <a> ^to <c>) --> \
    (make reach ^from <a> ^to <c>))";

/// One random frame for a random session. Restores reuse a snapshot an
/// earlier frame of the script took, when there is one.
fn random_frame(rng: &mut SmallRng, snapshots: &[String]) -> String {
    let name = SESSIONS[rng.gen_range(0..SESSIONS.len())];
    let program = PROGRAM.replace('\n', "\\n");
    match rng.gen_range(0..12u32) {
        0 => {
            // Some sessions stop at a cycle limit or die on a WM budget
            // in the middle of a sliced run.
            let limits = match rng.gen_range(0..4u32) {
                0 => r#","max_cycles":3"#,
                1 => r#","max_wm":40"#,
                _ => "",
            };
            format!(r#"{{"op":"open","session":"{name}","program":"{program}"{limits}}}"#)
        }
        1..=3 => {
            let adds: Vec<String> = (0..rng.gen_range(1..6usize))
                .map(|_| {
                    let (from, to) = (rng.gen_range(0..8i64), rng.gen_range(0..8i64));
                    format!(r#"{{"class":"edge","fields":[{from},{to}]}}"#)
                })
                .collect();
            let removes = if rng.gen_bool(0.2) {
                format!(r#","removes":[{}]"#, rng.gen_range(0..20u64))
            } else {
                String::new()
            };
            format!(
                r#"{{"op":"inject","session":"{name}","adds":[{}]{removes}}}"#,
                adds.join(",")
            )
        }
        4 => format!(r#"{{"op":"step","session":"{name}"}}"#),
        5 | 6 => format!(r#"{{"op":"run","session":"{name}"}}"#),
        7 => format!(r#"{{"op":"run-to-fixpoint","session":"{name}"}}"#),
        8 => format!(r#"{{"op":"query","session":"{name}","class":"reach","limit":5}}"#),
        9 => format!(r#"{{"op":"snapshot","session":"{name}"}}"#),
        10 => {
            let hex = match snapshots.len() {
                0 => "00".to_string(),
                n => snapshots[rng.gen_range(0..n)].clone(),
            };
            format!(r#"{{"op":"restore","session":"{name}","snapshot":"{hex}"}}"#)
        }
        _ => format!(r#"{{"op":"close","session":"{name}"}}"#),
    }
}

/// A random script and the responses `handle_line` gives it at quantum 0.
fn script(rng: &mut SmallRng) -> (Vec<String>, Vec<String>) {
    let mut reference = Server::new(ServerConfig::default());
    let mut snapshots = Vec::new();
    let (mut frames, mut responses) = (Vec::new(), Vec::new());
    for _ in 0..rng.gen_range(10..40usize) {
        let frame = random_frame(rng, &snapshots);
        let response = reference.handle_line(&frame).expect("one response");
        let snapshot = Json::parse(&response).expect("JSON").get("snapshot").cloned();
        snapshots.extend(snapshot.as_ref().and_then(Json::as_str).map(str::to_string));
        frames.push(frame);
        responses.push(response);
    }
    (frames, responses)
}

/// `response` without a snapshot's bytes, which carry phase times.
fn untimed(response: &str) -> &str {
    match response.find(r#","snapshot":""#) {
        Some(at) => &response[..at],
        None => response,
    }
}

/// The live sessions' fingerprints, in name order.
fn fingerprints(server: &mut Server) -> Vec<(String, String)> {
    let mut live = Vec::new();
    for name in SESSIONS {
        let metrics = server
            .handle_line(&format!(r#"{{"op":"metrics","session":"{name}"}}"#))
            .expect("one response");
        let metrics = Json::parse(&metrics).expect("JSON");
        if let Some(fingerprint) = metrics.get("fingerprint").and_then(Json::as_str) {
            live.push((name.to_string(), fingerprint.to_string()));
        }
    }
    live
}

/// Runs one seed; returns why it failed.
fn check(seed: u64) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (frames, expected) = script(&mut rng);
    let wal = (seed % 2 == 1).then(|| {
        let dir = std::env::temp_dir().join(format!(
            "parulel-slicing-{}-{seed}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut config = WalConfig::new(&dir, SyncPolicy::Never);
        config.snapshot_every = rng.gen_range(0..4u64);
        config
    });
    let mut server = match &wal {
        Some(config) => Server::with_wal(ServerConfig::default(), config.clone()),
        None => Server::new(ServerConfig::default()),
    };
    let (tx, rx) = channel();
    for (i, frame) in frames.iter().enumerate() {
        for _ in 0..rng.gen_range(0..4u32) {
            server.advance(1);
        }
        let tx = tx.clone();
        let reply = Box::new(move |response| tx.send((i, response)).expect("receiver lives"));
        server.submit(Json::parse(frame), reply, 1);
    }
    while server.has_parked_runs() {
        server.advance(1);
    }
    let delivered: Vec<(usize, String)> = rx.try_iter().collect();
    if delivered.len() != frames.len() {
        return Err(format!("{} frames, {} responses", frames.len(), delivered.len()));
    }
    for name in SESSIONS {
        let order: Vec<usize> = delivered
            .iter()
            .map(|(i, _)| *i)
            .filter(|&i| frames[i].contains(&format!(r#""session":"{name}""#)))
            .collect();
        if !order.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!("session {name} answered out of order: {order:?}"));
        }
    }
    for (i, response) in &delivered {
        if untimed(response) != untimed(&expected[*i]) {
            return Err(format!(
                "frame {i} answered\n  {response}\nunsliced\n  {}",
                expected[*i]
            ));
        }
    }
    if let Some(config) = wal {
        let live = fingerprints(&mut server);
        drop(server);
        let mut recovered = Server::with_wal(ServerConfig::default(), config.clone());
        let report = recover(&mut recovered, &config);
        let after = fingerprints(&mut recovered);
        let _ = fs::remove_dir_all(&config.dir);
        if after != live {
            return Err(format!(
                "live {live:?}, recovered {after:?} ({:?})",
                report.notes
            ));
        }
    }
    Ok(())
}

#[test]
fn sliced_submits_answer_like_unsliced_lines() {
    for seed in 0..SEEDS {
        if let Err(why) = check(seed) {
            let (frames, _) = script(&mut SmallRng::seed_from_u64(seed));
            panic!("seed {seed}: {why}\nscript:\n{}", frames.join("\n"));
        }
    }
}
