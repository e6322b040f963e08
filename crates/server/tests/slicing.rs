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
//! The scripts come from the generator in `common`, which the serve
//! simulator shares.

mod common;

use common::{script, SESSIONS};
use parulel_engine::Json;
use parulel_server::{recover, Server, ServerConfig, SyncPolicy, WalConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::sync::mpsc::channel;

const SEEDS: u64 = 200;

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
        if *response != expected[*i] {
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
