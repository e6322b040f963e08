//! The seeded script generator the serve tests share: random frames over
//! three sessions of a transitive-closure program (open, inject, step,
//! run, run-to-fixpoint, query, snapshot, restore and close) and the
//! answers [`Server::handle_line`] gives them at quantum 0.
//!
//! `metrics` and `trace` are left out: their session answers carry
//! timings.

use parulel_engine::Json;
use parulel_server::{Server, ServerConfig};
use rand::rngs::SmallRng;
use rand::Rng;

pub const SESSIONS: [&str; 3] = ["a", "b", "c"];
const PROGRAM: &str = "(literalize edge from to)\n(literalize reach from to)\n\
    (p seed (edge ^from <a> ^to <b>) -(reach ^from <a> ^to <b>) --> (make reach ^from <a> ^to <b>))\n\
    (p close (reach ^from <a> ^to <b>) (edge ^from <b> ^to <c>) -(reach ^from <a> ^to <c>) --> \
    (make reach ^from <a> ^to <c>))";

/// An `open` frame for `name`. Some sessions stop at a cycle limit or
/// die on a WM budget in the middle of a sliced run.
pub fn open_frame(rng: &mut SmallRng, name: &str) -> String {
    let program = PROGRAM.replace('\n', "\\n");
    let limits = match rng.gen_range(0..4u32) {
        0 => r#","max_cycles":3"#,
        1 => r#","max_wm":40"#,
        _ => "",
    };
    format!(r#"{{"op":"open","session":"{name}","program":"{program}"{limits}}}"#)
}

/// One random frame for a random session. Restores reuse a snapshot an
/// earlier frame of the script took, when there is one.
fn random_frame(rng: &mut SmallRng, snapshots: &[String]) -> String {
    let name = SESSIONS[rng.gen_range(0..SESSIONS.len())];
    match rng.gen_range(0..12u32) {
        0 => open_frame(rng, name),
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
pub fn script(rng: &mut SmallRng) -> (Vec<String>, Vec<String>) {
    let mut reference = Server::new(ServerConfig::default());
    let mut snapshots = Vec::new();
    let (mut frames, mut responses) = (Vec::new(), Vec::new());
    for _ in 0..rng.gen_range(10..40usize) {
        let frame = random_frame(rng, &snapshots);
        let response = reference.handle_line(&frame).expect("one response");
        let snapshot = Json::parse(&response)
            .expect("JSON")
            .get("snapshot")
            .cloned();
        snapshots.extend(snapshot.as_ref().and_then(Json::as_str).map(str::to_string));
        frames.push(frame);
        responses.push(response);
    }
    (frames, responses)
}
