//! The wire protocol: line-delimited JSON frames.
//!
//! Every request is one JSON object on one line; every request produces
//! exactly one JSON object response on one line. The first field of a
//! response is always `"ok"`; error responses carry a structured
//! `"error"` object with a stable `kind` tag so clients can dispatch
//! without parsing prose:
//!
//! ```text
//! {"ok":true,"op":"open","session":"s1","rules":2,"wm":40}
//! {"ok":false,"op":"inject","session":"s1",
//!  "error":{"kind":"backpressure","msg":"inject queue full (cap 1024)"}}
//! ```
//!
//! JSON framing reuses the engine's hand-rolled [`Json`] tree (the build
//! is offline; there is no serde anywhere in the workspace). Helpers
//! here are pure: frame assembly, hex transport encoding for snapshot
//! bytes, value conversion, and the FNV-1a working-memory fingerprint
//! the determinism suite established.

use parulel_core::{Value, WorkingMemory};
use parulel_engine::Json;

/// Stable error kinds carried in `error.kind`.
///
/// * `parse` — the frame is not a complete JSON object.
/// * `protocol` — well-formed JSON, but not a valid request (unknown
///   verb, missing/ill-typed field, unknown class, arity mismatch).
/// * `unknown-session` — the named session does not exist (never opened,
///   already closed, or killed by an engine failure).
/// * `session-exists` — `open` with a name already in use.
/// * `admission` — `open` refused: the server is at `max_sessions`.
/// * `backpressure` — `inject` refused: the session's bounded queue is
///   full; drain it with `step`/`run` and retry.
/// * `compile` — the `open` program failed to compile (message carries
///   the `line:col` from the language front end).
/// * `engine` — a budget trip, RHS failure, or panic inside the cycle
///   kernel; the frame also carries `engine_kind`/`cycle` and
///   `closed:true` (the session is gone, the daemon is not).
/// * `snapshot` — bad snapshot bytes on `restore`.
/// * `reload` — a `reload` replacement program was refused (class table
///   mismatch); the session keeps running its previous program.
/// * `wal` — the durability layer could not append or fsync a session's
///   write-ahead log; the frame was NOT applied (log-before-apply).
pub mod kind {
    /// See the module docs.
    pub const PARSE: &str = "parse";
    /// See the module docs.
    pub const PROTOCOL: &str = "protocol";
    /// See the module docs.
    pub const UNKNOWN_SESSION: &str = "unknown-session";
    /// See the module docs.
    pub const SESSION_EXISTS: &str = "session-exists";
    /// See the module docs.
    pub const ADMISSION: &str = "admission";
    /// See the module docs.
    pub const BACKPRESSURE: &str = "backpressure";
    /// See the module docs.
    pub const COMPILE: &str = "compile";
    /// See the module docs.
    pub const ENGINE: &str = "engine";
    /// See the module docs.
    pub const SNAPSHOT: &str = "snapshot";
    /// See the module docs.
    pub const RELOAD: &str = "reload";
    /// See the module docs.
    pub const WAL: &str = "wal";
}

/// A structured failure, assembled into an `{"ok":false,…}` frame.
#[derive(Debug, Clone)]
pub struct Failure {
    /// One of the [`kind`] constants.
    pub kind: &'static str,
    /// Human-readable detail.
    pub msg: String,
    /// For `engine` failures: the
    /// [`EngineError::kind`](parulel_engine::EngineError::kind) tag and
    /// the cycle it tripped on.
    pub engine: Option<(&'static str, u64)>,
    /// True when the failure killed the session (graceful degradation:
    /// one session dies, the daemon keeps serving the rest).
    pub closed: bool,
}

impl Failure {
    /// A plain failure with no engine context.
    pub fn new(kind: &'static str, msg: impl Into<String>) -> Failure {
        Failure {
            kind,
            msg: msg.into(),
            engine: None,
            closed: false,
        }
    }

    /// Renders the `{"ok":false,…}` frame.
    pub fn to_frame(&self, op: Option<&str>, session: Option<&str>) -> Json {
        let mut frame = Json::obj().set("ok", false);
        if let Some(op) = op {
            frame = frame.set("op", op);
        }
        if let Some(s) = session {
            frame = frame.set("session", s);
        }
        let mut err = Json::obj().set("kind", self.kind).set("msg", self.msg.as_str());
        if let Some((engine_kind, cycle)) = self.engine {
            err = err.set("engine_kind", engine_kind).set("cycle", cycle);
        }
        frame = frame.set("error", err);
        if self.closed {
            frame = frame.set("closed", true);
        }
        frame
    }
}

/// Starts an `{"ok":true,"op":…}` response frame.
pub fn ok_frame(op: &str) -> Json {
    Json::obj().set("ok", true).set("op", op)
}

/// Required string field of a request frame.
pub fn req_str<'a>(frame: &'a Json, key: &str) -> Result<&'a str, Failure> {
    frame
        .get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| Failure::new(kind::PROTOCOL, format!("missing string field {key:?}")))
}

/// The refusal of request field `key`, which is not `want`.
fn wrong_type(key: &str, want: &str) -> Failure {
    Failure::new(kind::PROTOCOL, format!("field {key:?} must be {want}"))
}

/// Optional string field of a request frame: absent or `null` is `None`,
/// any other non-string is refused.
pub fn opt_str<'a>(frame: &'a Json, key: &str) -> Result<Option<&'a str>, Failure> {
    match frame.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s)),
        Some(_) => Err(wrong_type(key, "a string")),
    }
}

/// Optional boolean field of a request frame: absent or `null` is
/// `None`, any other non-boolean is refused.
pub fn opt_bool(frame: &Json, key: &str) -> Result<Option<bool>, Failure> {
    match frame.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(wrong_type(key, "a boolean")),
    }
}

/// Optional non-negative integer field of a request frame.
pub fn opt_u64(frame: &Json, key: &str) -> Result<Option<u64>, Failure> {
    match frame.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_f64() {
            Some(n) if n >= 0.0 && n == n.trunc() => Ok(Some(n as u64)),
            _ => Err(wrong_type(key, "a non-negative integer")),
        },
    }
}

/// A working-memory field value as JSON: ints and floats as numbers,
/// symbols as strings.
pub fn value_to_json(wm_value: &Value, interner: &parulel_core::Interner) -> Json {
    match wm_value {
        Value::Int(i) => Json::from(*i),
        Value::Float(x) => Json::from(*x),
        Value::Sym(s) => Json::from(&*interner.resolve(*s)),
    }
}

/// A JSON field value as a working-memory value: whole numbers become
/// ints, fractional numbers floats, strings symbols.
pub fn json_to_value(v: &Json, interner: &parulel_core::Interner) -> Result<Value, Failure> {
    match v {
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => Ok(Value::Int(*n as i64)),
        Json::Num(n) => Ok(Value::Float(*n)),
        Json::Str(s) => Ok(Value::Sym(interner.intern(s))),
        other => Err(Failure::new(
            kind::PROTOCOL,
            format!("field value must be a number or string, got {other:?}"),
        )),
    }
}

/// Lower-case hex encoding (snapshot bytes are binary; the frame channel
/// is text).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        out.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
    }
    out
}

/// Inverse of [`to_hex`].
pub fn from_hex(s: &str) -> Result<Vec<u8>, Failure> {
    if !s.len().is_multiple_of(2) {
        return Err(Failure::new(kind::SNAPSHOT, "odd-length hex payload"));
    }
    let digit = |c: char| {
        c.to_digit(16)
            .map(|d| d as u8)
            .ok_or_else(|| Failure::new(kind::SNAPSHOT, format!("bad hex digit {c:?}")))
    };
    // Pairs of chars, not of bytes: a multi-byte char is a bad digit. With
    // an even byte length, a lone last char is multi-byte and has already
    // failed as `hi`.
    let mut chars = s.chars();
    let mut out = Vec::with_capacity(s.len() / 2);
    while let Some(hi) = chars.next() {
        out.push((digit(hi)? << 4) | digit(chars.next().unwrap_or_default())?);
    }
    Ok(out)
}

/// An FNV-1a-shaped hash over a canonical rendering of working memory.
/// Two sessions with equal fingerprints hold identical facts (up to hash
/// collision). Its multiplier is `0x1000000001b3`, not the FNV prime
/// [`parulel_core::fnv1a`] and the determinism suite use: frame goldens
/// and recovered sessions pin these values, so it stays as first shipped.
pub fn wm_fingerprint(wm: &WorkingMemory) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{:?}", wm.canonical_facts()).bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x1_0000_0000_01b3);
    }
    hash
}

/// The fingerprint as the 16-digit hex string frames carry.
pub fn fingerprint_hex(wm: &WorkingMemory) -> String {
    format!("{:016x}", wm_fingerprint(wm))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn failure_frame_shape() {
        let f = Failure::new(kind::BACKPRESSURE, "queue full");
        let frame = f.to_frame(Some("inject"), Some("s1"));
        assert_eq!(
            frame.render(),
            r#"{"ok":false,"op":"inject","session":"s1","error":{"kind":"backpressure","msg":"queue full"}}"#
        );
        let mut f = Failure::new(kind::ENGINE, "wm budget exceeded");
        f.engine = Some(("wm", 3));
        f.closed = true;
        let frame = f.to_frame(Some("run"), Some("s2"));
        assert!(frame.render().contains(r#""engine_kind":"wm","cycle":3"#));
        assert!(frame.render().ends_with(r#""closed":true}"#));
    }
}
