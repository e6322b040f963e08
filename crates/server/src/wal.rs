//! Per-session write-ahead log: the durability layer under
//! `parulel serve`.
//!
//! Every accepted state-mutating frame (`open`/`inject`/`step`/`run`/
//! `restore`/`close`) is appended to the owning session's log *before*
//! it is applied, as a length-prefixed, CRC-checksummed record. Because
//! the protocol core is deterministic, replaying the surviving records
//! through the same [`crate::Server::handle_frame`] path rebuilds the
//! exact pre-crash session — the determinism suite's fingerprint
//! machinery makes that a checkable property, not a hope.
//!
//! ## File format
//!
//! ```text
//! header:  "PWAL" magic │ u32 version (currently 1)
//! record:  u32 body_len │ u32 crc32(body) │ body
//! body:    u8 kind │ payload
//!   kind 1 (frame):    payload = one rendered protocol line (UTF-8)
//!   kind 2 (snapshot): payload = SnapshotRecord (see below)
//! ```
//!
//! All integers are little-endian. A torn trailing record — a partial
//! write at the crash point — fails its length or CRC check; the
//! scanner stops there and reports the last valid byte offset so
//! recovery can truncate the tail instead of replaying garbage. A file
//! that does not start with the magic was written by some other program
//! and is refused outright ([`WalError::Foreign`]).
//!
//! ## Compaction
//!
//! A snapshot record captures the whole session — the original `open`
//! frame (program, policy, budgets), the engine's snapshot-v4 bytes,
//! lifetime inject counters, and any still-queued inject frames.
//! Compaction atomically rewrites the log as `header + snapshot record`
//! (write to a temp file, fsync, rename), so the replay tail restarts
//! empty and the log stays bounded.
//!
//! ## Sync policy
//!
//! [`SyncPolicy`] maps the `--wal-sync` flag: `always` fsyncs after
//! every append (survives power loss, slowest), `interval` fsyncs at
//! most once per period (bounded loss window), `never` leaves flushing
//! to the OS (survives process death — the kill -9 proof — but not
//! power loss).

use crate::protocol::{from_hex, to_hex};
use parulel_core::{ReadError, Reader, Writer};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[cfg(feature = "fault-inject")]
pub use parulel_engine::faults::WalFaults;

/// No-op stand-in compiled when the `fault-inject` feature is off; the
/// real injection points live in `parulel_engine::faults::WalFaults`.
#[cfg(not(feature = "fault-inject"))]
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalFaults;

#[cfg(not(feature = "fault-inject"))]
impl WalFaults {
    /// No faults (the only value this stand-in has).
    pub fn none() -> Self {
        WalFaults
    }
    /// Full length — writes are never torn without the feature.
    pub fn torn_write_len(&self, _append: u64, len: usize) -> usize {
        len
    }
    /// Full length — reads are never short without the feature.
    pub fn short_read_len(&self, _record: u64, len: usize) -> usize {
        len
    }
}

/// The 4-byte magic prefix of every WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"PWAL";
/// Current WAL wire-format version.
pub const WAL_VERSION: u32 = 1;

const KIND_FRAME: u8 = 1;
const KIND_SNAPSHOT: u8 = 2;

/// How `--wal-sync` maps onto fsync behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every appended record.
    Always,
    /// fsync at most once per this period (checked on append).
    Interval(Duration),
    /// Never fsync; the OS flushes when it likes.
    Never,
}

impl SyncPolicy {
    /// Parses the `--wal-sync` flag value.
    pub fn parse(s: &str) -> Result<SyncPolicy, String> {
        match s {
            "always" => Ok(SyncPolicy::Always),
            "interval" => Ok(SyncPolicy::Interval(Duration::from_millis(100))),
            "never" => Ok(SyncPolicy::Never),
            other => Err(format!(
                "unknown --wal-sync '{other}' (want always|interval|never)"
            )),
        }
    }

    /// The flag spelling (for status frames).
    pub fn tag(&self) -> &'static str {
        match self {
            SyncPolicy::Always => "always",
            SyncPolicy::Interval(_) => "interval",
            SyncPolicy::Never => "never",
        }
    }
}

/// Durability configuration (absent ⇒ the daemon runs exactly as
/// before, nothing touches disk).
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Directory holding one `<hex(session)>.wal` file per live session.
    pub dir: PathBuf,
    /// fsync policy for appends.
    pub sync: SyncPolicy,
    /// Compact (snapshot + truncate) a session's log after this many
    /// appended frame records. 0 disables automatic compaction.
    pub snapshot_every: u64,
    /// Deterministic I/O fault injection (no-op without the
    /// `fault-inject` feature).
    pub faults: WalFaults,
}

impl WalConfig {
    /// Durability under `dir` with the given sync policy and the default
    /// compaction period (64 frames).
    pub fn new(dir: impl Into<PathBuf>, sync: SyncPolicy) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            sync,
            snapshot_every: 64,
            faults: WalFaults::none(),
        }
    }
}

/// Why a WAL file could not be read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// The file does not start with [`WAL_MAGIC`] — it was recorded by a
    /// different program and must not be replayed.
    Foreign,
    /// The version field names a format this build cannot read.
    UnsupportedVersion(u32),
    /// The file is empty (no header at all).
    Empty,
    /// An I/O error while reading.
    Io(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Foreign => {
                write!(f, "not a parulel WAL (bad magic); refusing to replay it")
            }
            WalError::UnsupportedVersion(v) => write!(
                f,
                "unsupported WAL version {v} (this build reads {WAL_VERSION})"
            ),
            WalError::Empty => write!(f, "zero-length WAL file (no header)"),
            WalError::Io(e) => write!(f, "WAL read failed: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

/// One decoded WAL record.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// A rendered protocol frame, replayed through `handle_frame`.
    Frame(String),
    /// A compaction point: the full session state at that moment.
    Snapshot(SnapshotRecord),
}

/// The payload of a compaction record: everything needed to rebuild the
/// session without the frames that preceded it.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotRecord {
    /// The session's original `open` frame (program, policy, matcher,
    /// budgets), rendered.
    pub open_line: String,
    /// Engine state in the versioned snapshot wire format
    /// ([`parulel_engine::Snapshot::to_bytes`]).
    pub snapshot: Vec<u8>,
    /// Lifetime WMEs asserted through `inject` at the capture point.
    pub injected_adds: u64,
    /// Lifetime WMEs retracted through `inject` at the capture point.
    pub injected_removes: u64,
    /// Inject frames accepted but not yet drained at the capture point,
    /// rendered; replayed through the normal inject path.
    pub pending: Vec<String>,
    /// Every accepted `reload` frame since `open`, rendered, in order.
    /// Replayed between the open and the snapshot restore: the engine
    /// snapshot captures state but not the program, and replaying the
    /// full reload sequence keeps symbol-interning order identical to
    /// the original run.
    pub reloads: Vec<String>,
}

impl SnapshotRecord {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.str(&self.open_line);
        w.bytes(&self.snapshot);
        w.u64(self.injected_adds);
        w.u64(self.injected_removes);
        for lines in [&self.pending, &self.reloads] {
            w.u32(lines.len() as u32);
            lines.iter().for_each(|line| w.str(line));
        }
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Option<SnapshotRecord> {
        let mut r = Reader::new(bytes);
        let lines = |r: &mut Reader| -> Result<Vec<String>, ReadError> {
            (0..r.count32()?).map(|_| r.str()).collect()
        };
        let record = SnapshotRecord {
            open_line: r.str().ok()?,
            snapshot: r.bytes().ok()?.to_vec(),
            injected_adds: r.u64().ok()?,
            injected_removes: r.u64().ok()?,
            pending: lines(&mut r).ok()?,
            reloads: lines(&mut r).ok()?,
        };
        (r.remaining() == 0).then_some(record)
    }
}

/// The file header, as the start of a new log.
fn header() -> Writer {
    let mut w = Writer::default();
    w.raw(&WAL_MAGIC);
    w.u32(WAL_VERSION);
    w
}

/// Appends one record: `u32 body_len │ u32 crc32(body) │ body`, where
/// the body is `kind │ payload`.
fn put_record(w: &mut Writer, kind: u8, payload: &[u8]) {
    let body = [&[kind][..], payload].concat();
    w.u32(body.len() as u32);
    w.u32(crc32(&body));
    w.raw(&body);
}

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven. Hand-rolled —
/// the build is offline, and 20 lines beat a dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Session names are arbitrary protocol strings; file names are not.
/// Lower-case hex of the UTF-8 bytes keeps the mapping total and
/// reversible.
pub fn wal_file_name(session: &str) -> String {
    to_hex(session.as_bytes()) + ".wal"
}

/// Inverse of [`wal_file_name`]; `None` for names this daemon did not
/// generate.
pub fn session_from_file_name(file: &str) -> Option<String> {
    let hex = file.strip_suffix(".wal").filter(|h| !h.is_empty())?;
    String::from_utf8(from_hex(hex).ok()?).ok()
}

/// What a scan of one WAL file yields: the decodable record prefix, the
/// byte offset where it ends, and whether a torn tail was dropped.
#[derive(Debug)]
pub struct ScanResult {
    /// Records decoded in order, up to the first corruption.
    pub records: Vec<Record>,
    /// Byte offset of the end of the last valid record (file header
    /// included) — the length to truncate to before appending again.
    pub valid_len: u64,
    /// True when bytes past `valid_len` were present but undecodable
    /// (a torn trailing record).
    pub truncated: bool,
}

/// Reads and validates `path`, stopping cleanly at the first torn or
/// corrupt record. Foreign files, unreadable headers, and empty files
/// are hard errors — they are never "partially replayed".
pub fn scan(path: &Path, faults: &WalFaults) -> Result<ScanResult, WalError> {
    let bytes = fs::read(path).map_err(|e| WalError::Io(e.to_string()))?;
    if bytes.is_empty() {
        return Err(WalError::Empty);
    }
    let mut r = Reader::new(&bytes);
    if r.take(4) != Ok(&WAL_MAGIC[..]) {
        return Err(WalError::Foreign);
    }
    let version = r.u32().map_err(|_| WalError::Foreign)?;
    if version != WAL_VERSION {
        return Err(WalError::UnsupportedVersion(version));
    }
    let mut records = Vec::new();
    let mut valid_len = r.pos();
    while r.remaining() > 0 {
        let Some(record) = decode_record(&mut r, records.len() as u64 + 1, faults) else {
            break;
        };
        records.push(record);
        valid_len = r.pos();
    }
    Ok(ScanResult {
        records,
        valid_len: valid_len as u64,
        truncated: valid_len < bytes.len(),
    })
}

/// Decodes the next record; `None` on any torn/corrupt condition (short
/// header, short body, CRC mismatch, bad kind, bad payload).
fn decode_record(r: &mut Reader, record_no: u64, faults: &WalFaults) -> Option<Record> {
    let body_len = r.u32().ok()? as usize;
    let want_crc = r.u32().ok()?;
    let mut body = r.take(body_len).ok()?;
    // Short-read injection: the scanner sees only a prefix of the body,
    // which must fail the CRC exactly like a real short read.
    let seen = faults.short_read_len(record_no, body.len());
    if seen < body.len() {
        body = &body[..seen];
    }
    if body.is_empty() || crc32(body) != want_crc {
        return None;
    }
    let (kind, payload) = (body[0], &body[1..]);
    match kind {
        KIND_FRAME => Some(Record::Frame(String::from_utf8(payload.to_vec()).ok()?)),
        KIND_SNAPSHOT => Some(Record::Snapshot(SnapshotRecord::decode(payload)?)),
        _ => None,
    }
}

/// The append handle for one live session's log.
pub struct SessionWal {
    path: PathBuf,
    file: File,
    sync: SyncPolicy,
    faults: WalFaults,
    last_sync: Instant,
    /// The session's `open` frame, kept for compaction records.
    pub open_line: String,
    /// Frame records appended since the last compaction (or creation).
    pub records_since_snapshot: u64,
    /// Total appends over this handle's lifetime (fault-injection
    /// coordinate).
    appends: u64,
    /// Bytes currently in the file (tracked, not stat'ed).
    pub bytes: u64,
    /// Compactions performed over this handle's lifetime.
    pub snapshots: u64,
}

impl SessionWal {
    /// Creates (truncating) the log for a fresh session and writes the
    /// header. The `open` line is retained for later compaction records
    /// but NOT appended — the caller logs it like any other frame.
    pub fn create(config: &WalConfig, session: &str, open_line: &str) -> io::Result<SessionWal> {
        fs::create_dir_all(&config.dir)?;
        let path = config.dir.join(wal_file_name(session));
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let header = header().into_bytes();
        file.write_all(&header)?;
        Ok(SessionWal {
            path,
            file,
            sync: config.sync,
            faults: config.faults.clone(),
            last_sync: Instant::now(),
            open_line: open_line.to_string(),
            records_since_snapshot: 0,
            appends: 0,
            bytes: header.len() as u64,
            snapshots: 0,
        })
    }

    /// Reattaches to an existing log after recovery: truncates any torn
    /// tail at `valid_len` and positions for appends. `tail_records` is
    /// how many frame records follow the last snapshot (so compaction
    /// scheduling carries over).
    pub fn resume(
        config: &WalConfig,
        session: &str,
        open_line: &str,
        valid_len: u64,
        tail_records: u64,
    ) -> io::Result<SessionWal> {
        let path = config.dir.join(wal_file_name(session));
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(valid_len)?;
        let mut wal = SessionWal {
            path,
            file,
            sync: config.sync,
            faults: config.faults.clone(),
            last_sync: Instant::now(),
            open_line: open_line.to_string(),
            records_since_snapshot: tail_records,
            appends: 0,
            bytes: valid_len,
            snapshots: 0,
        };
        wal.file.seek(SeekFrom::End(0))?;
        wal.sync()?;
        Ok(wal)
    }

    /// Appends one rendered protocol frame, then applies the sync
    /// policy. Must be called *before* the frame is applied to the
    /// session (log-before-apply). On an error the log is cut back to its
    /// last whole record, so the refused frame leaves nothing behind.
    pub fn append_frame(&mut self, line: &str) -> io::Result<()> {
        self.appends += 1;
        let mut w = Writer::with_capacity(line.len() + 9);
        put_record(&mut w, KIND_FRAME, line.as_bytes());
        let rec = w.into_bytes();
        // Torn-write injection: only a prefix of the record reaches the
        // file, exactly as if the process died mid-write.
        let n = self.faults.torn_write_len(self.appends, rec.len());
        if let Err(e) = self
            .file
            .write_all(&rec[..n])
            .and_then(|()| self.maybe_sync())
        {
            self.rewind();
            return Err(e);
        }
        self.bytes += n as u64;
        self.records_since_snapshot += 1;
        Ok(())
    }

    /// Cuts the file back to the end of its last whole record after a
    /// failed append, and appends from there. A write that fails part way
    /// (a full disk) leaves part of its record behind, and recovery stops
    /// at the first record that does not decode: without the cut, every
    /// frame acknowledged after it would be lost, and the refused frame
    /// itself, once whole, would replay.
    fn rewind(&mut self) {
        let _ = self.file.set_len(self.bytes);
        let _ = self.file.seek(SeekFrom::Start(self.bytes));
    }

    fn maybe_sync(&mut self) -> io::Result<()> {
        match self.sync {
            SyncPolicy::Always => self.sync(),
            SyncPolicy::Interval(period) => {
                if self.last_sync.elapsed() >= period {
                    self.sync()
                } else {
                    Ok(())
                }
            }
            SyncPolicy::Never => Ok(()),
        }
    }

    /// fsync the log (the `sync` protocol verb, and shutdown flushing).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Atomically compacts the log to `header + snapshot record`: the
    /// replay tail restarts empty. Written to a temp file, fsynced, and
    /// renamed over the live log, so a crash mid-compaction leaves
    /// either the old log or the new one — never a hybrid.
    pub fn compact(&mut self, snapshot: &SnapshotRecord) -> io::Result<()> {
        let tmp = self.path.with_extension("wal.tmp");
        let mut w = header();
        put_record(&mut w, KIND_SNAPSHOT, &snapshot.encode());
        let out = w.into_bytes();
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().write(true).open(&self.path)?;
        self.file.seek(SeekFrom::End(0))?;
        self.bytes = out.len() as u64;
        self.records_since_snapshot = 0;
        self.snapshots += 1;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// The log's path (recovery bookkeeping, tests).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Deletes the log file (session closed or dead — there is nothing
    /// left to recover).
    pub fn delete(self) -> io::Result<()> {
        fs::remove_file(&self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("parulel-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn config(dir: &Path) -> WalConfig {
        WalConfig::new(dir, SyncPolicy::Never)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn file_name_roundtrip() {
        for name in ["s1", "closure-7", "weird/..name", "héllo"] {
            let file = wal_file_name(name);
            assert!(!file.contains('/'), "{file}");
            assert_eq!(session_from_file_name(&file).as_deref(), Some(name));
        }
        assert_eq!(session_from_file_name("nothex!.wal"), None);
        assert_eq!(session_from_file_name(".wal"), None);
        assert_eq!(session_from_file_name("abc.snap"), None);
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let cfg = config(&dir);
        let mut wal = SessionWal::create(&cfg, "s1", "{\"op\":\"open\"}").unwrap();
        wal.append_frame("{\"op\":\"open\"}").unwrap();
        wal.append_frame("{\"op\":\"inject\",\"adds\":[1]}").unwrap();
        wal.sync().unwrap();
        let scan = scan(&dir.join(wal_file_name("s1")), &WalFaults::none()).unwrap();
        assert!(!scan.truncated);
        assert_eq!(
            scan.records,
            vec![
                Record::Frame("{\"op\":\"open\"}".into()),
                Record::Frame("{\"op\":\"inject\",\"adds\":[1]}".into()),
            ]
        );
        assert_eq!(scan.valid_len, wal.bytes);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_append_leaves_no_partial_record() {
        let dir = tmp_dir("rewind");
        let cfg = config(&dir);
        let path = dir.join(wal_file_name("s1"));
        let mut wal = SessionWal::create(&cfg, "s1", "{\"op\":\"open\"}").unwrap();
        wal.append_frame("{\"op\":\"open\"}").unwrap();
        // What a write that fails part way leaves in the file.
        let mut w = Writer::with_capacity(32);
        put_record(&mut w, KIND_FRAME, b"{\"op\":\"refused\"}");
        let rec = w.into_bytes();
        wal.file.write_all(&rec[..rec.len() / 2]).unwrap();
        wal.rewind();
        wal.append_frame("{\"op\":\"step\"}").unwrap();
        let scan = scan(&path, &WalFaults::none()).unwrap();
        assert!(!scan.truncated);
        assert_eq!(
            scan.records,
            vec![
                Record::Frame("{\"op\":\"open\"}".into()),
                Record::Frame("{\"op\":\"step\"}".into()),
            ]
        );
        assert_eq!(scan.valid_len, wal.bytes);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The WAL layout is pinned byte for byte: a framing or record-layout
    /// change moves these hashes, and every log already on disk would
    /// stop replaying.
    #[test]
    fn wal_bytes_are_pinned() {
        let dir = tmp_dir("pinned");
        let cfg = config(&dir);
        let path = dir.join(wal_file_name("s1"));
        let mut wal = SessionWal::create(&cfg, "s1", "{\"op\":\"open\"}").unwrap();
        wal.append_frame("{\"op\":\"open\"}").unwrap();
        wal.append_frame("{\"op\":\"inject\",\"adds\":[1]}").unwrap();
        assert_eq!(parulel_core::fnv1a(&fs::read(&path).unwrap()), 0xf81fdc452bd7bc70);
        wal.compact(&SnapshotRecord {
            open_line: "{\"op\":\"open\"}".into(),
            snapshot: vec![0, 1, 2, 0xfe, 0xff],
            injected_adds: 7,
            injected_removes: 3,
            pending: vec!["pending-a".into(), "pending-b".into()],
            reloads: vec!["reload-frame".into()],
        })
        .unwrap();
        assert_eq!(parulel_core::fnv1a(&fs::read(&path).unwrap()), 0xae0c9bcf7e0ca2d7);
        let names = ["s1", "a/b", "ü"].map(wal_file_name).join("\n");
        assert_eq!(parulel_core::fnv1a(names.as_bytes()), 0xe6e02cbc3777a343);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The text decoders under hostile input: seeded strings of hex
    /// digits in both cases, other ASCII and 2-, 3- and 4-byte chars never
    /// panic `from_hex` or `session_from_file_name`, and whatever they
    /// accept round-trips.
    #[test]
    fn hostile_text_never_panics_the_hex_decoders() {
        use crate::protocol::{from_hex, to_hex};
        let alphabet: Vec<char> = "0123456789abcdefABCDEF.wxz/ é€😀".chars().collect();
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for _ in 0..20_000 {
            let text: String = (0..next() % 10).map(|_| alphabet[next() % alphabet.len()]).collect();
            if let Ok(bytes) = from_hex(&text) {
                assert_eq!(to_hex(&bytes), text.to_ascii_lowercase());
            }
            let file = format!("{text}.wal");
            if let Some(name) = session_from_file_name(&file) {
                assert_eq!(wal_file_name(&name), file.to_ascii_lowercase());
            }
        }
        assert_eq!(session_from_file_name("ü.wal"), None);
        assert!(from_hex("aaü").is_err());
    }

    #[test]
    fn torn_tail_is_dropped_at_every_cut_point() {
        let dir = tmp_dir("torn");
        let cfg = config(&dir);
        let mut wal = SessionWal::create(&cfg, "s1", "o").unwrap();
        wal.append_frame("first").unwrap();
        let after_first = wal.bytes;
        wal.append_frame("second-record-with-more-bytes").unwrap();
        wal.sync().unwrap();
        let path = dir.join(wal_file_name("s1"));
        let full = fs::read(&path).unwrap();
        // Cut the file everywhere inside the second record: the first
        // must always survive, the second must always be dropped.
        for cut in (after_first as usize + 1)..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let scan = scan(&path, &WalFaults::none()).unwrap();
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.valid_len, after_first, "cut at {cut}");
            assert!(scan.truncated, "cut at {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_crc_stops_the_scan() {
        let dir = tmp_dir("crc");
        let cfg = config(&dir);
        let mut wal = SessionWal::create(&cfg, "s1", "o").unwrap();
        wal.append_frame("aaaa").unwrap();
        wal.append_frame("bbbb").unwrap();
        wal.sync().unwrap();
        let path = dir.join(wal_file_name("s1"));
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload byte of the second record.
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let scan = scan(&path, &WalFaults::none()).unwrap();
        assert_eq!(scan.records, vec![Record::Frame("aaaa".into())]);
        assert!(scan.truncated);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_empty_and_versioned_files_are_refused() {
        let dir = tmp_dir("foreign");
        let foreign = dir.join("aa.wal");
        fs::write(&foreign, b"I am some other program's file").unwrap();
        assert_eq!(scan(&foreign, &WalFaults::none()).unwrap_err(), WalError::Foreign);
        let empty = dir.join("bb.wal");
        fs::write(&empty, b"").unwrap();
        assert_eq!(scan(&empty, &WalFaults::none()).unwrap_err(), WalError::Empty);
        let vers = dir.join("cc.wal");
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&99u32.to_le_bytes());
        fs::write(&vers, &bytes).unwrap();
        assert_eq!(
            scan(&vers, &WalFaults::none()).unwrap_err(),
            WalError::UnsupportedVersion(99)
        );
        // Errors render with a clear reason.
        assert!(WalError::Foreign.to_string().contains("refusing"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_record_roundtrip_and_compaction() {
        let dir = tmp_dir("compact");
        let cfg = config(&dir);
        let mut wal = SessionWal::create(&cfg, "s1", "openline").unwrap();
        for i in 0..5 {
            wal.append_frame(&format!("frame-{i} with a realistically sized payload")).unwrap();
        }
        let fat = wal.bytes;
        let snap = SnapshotRecord {
            open_line: "openline".into(),
            snapshot: vec![1, 2, 3, 4, 5],
            injected_adds: 40,
            injected_removes: 2,
            pending: vec!["pending-inject".into()],
            reloads: vec!["reload-frame".into()],
        };
        // The reload tail is required, and nothing may follow it.
        let mut bytes = snap.encode();
        let no_tail = bytes.len() - (4 + 4 + "reload-frame".len());
        assert!(SnapshotRecord::decode(&bytes[..no_tail]).is_none());
        bytes.push(0);
        assert!(SnapshotRecord::decode(&bytes).is_none());
        wal.compact(&snap).unwrap();
        assert!(wal.bytes < fat);
        assert_eq!(wal.records_since_snapshot, 0);
        wal.append_frame("tail-frame").unwrap();
        wal.sync().unwrap();
        let scan = scan(&dir.join(wal_file_name("s1")), &WalFaults::none()).unwrap();
        assert!(!scan.truncated);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0], Record::Snapshot(snap));
        assert_eq!(scan.records[1], Record::Frame("tail-frame".into()));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every hostile variant of `valid` the decoder loop feeds in: each
    /// truncation, each byte flipped, each 4-byte window overwritten with
    /// `u32::MAX`, and a seeded batch of random multi-byte overwrites.
    fn hostile_variants(valid: &[u8]) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = (0..valid.len()).map(|n| valid[..n].to_vec()).collect();
        for i in 0..valid.len() {
            let mut b = valid.to_vec();
            b[i] ^= 0xff;
            out.push(b);
        }
        for i in 0..valid.len().saturating_sub(3) {
            let mut b = valid.to_vec();
            b[i..i + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            out.push(b);
        }
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for _ in 0..256 {
            let mut b = valid.to_vec();
            for _ in 0..1 + next() % 4 {
                let i = next() % b.len();
                b[i] = next() as u8;
            }
            out.push(b);
        }
        out
    }

    /// A real RETE engine capture and the program it came from: every
    /// value tag, refraction keys and a `write` log.
    fn rete_capture() -> (parulel_core::Program, parulel_engine::Snapshot) {
        use parulel_core::{Value, WorkingMemory};
        use parulel_engine::{Engine, EngineOptions};
        let src = "
            (literalize edge from to tag w)
            (literalize reach from to)
            (p mark (edge ^from <a> ^to <b> ^tag <t> ^w <w>)
             --> (make reach ^from <a> ^to <b>) (write <t> <w>))
            (p close (reach ^from <a> ^to <b>) (reach ^from <b> ^to <c>)
             --> (make reach ^from <a> ^to <c>))";
        let program = parulel_lang::compile(src).unwrap();
        let edge = program.classes.id_of(program.interner.intern("edge")).unwrap();
        let red = Value::Sym(program.interner.intern("red"));
        let mut wm = WorkingMemory::new(&program.classes);
        for (a, b) in [(1, 2), (2, 3), (3, 1)] {
            wm.insert(edge, vec![Value::Int(a), Value::Int(b), red, Value::Float(a as f64 / 2.0)]);
        }
        let mut engine = Engine::new(&program, wm, EngineOptions::default());
        for _ in 0..2 {
            engine.step().unwrap();
        }
        let snap = engine.checkpoint();
        assert!(!snap.refraction.is_empty() && !snap.log.is_empty());
        (program, snap)
    }

    #[test]
    fn hostile_bytes_never_panic_the_snapshot_decoders() {
        use parulel_engine::{Engine, EngineOptions, Snapshot};
        let (program, snap) = rete_capture();
        let snap_bytes = snap.to_bytes();
        let record = SnapshotRecord {
            open_line: "{\"op\":\"open\"}".into(),
            snapshot: snap_bytes.clone(),
            injected_adds: 4,
            injected_removes: 1,
            pending: vec!["pending-inject".into()],
            reloads: vec!["reload-frame".into()],
        }
        .encode();

        // A decoded snapshot goes on to the `restore` frame's next step:
        // binding its names against the program.
        let restore = |bytes: &[u8]| {
            Snapshot::from_bytes(bytes)
                .ok()
                .map(|s| Engine::resume(&program, &s, EngineOptions::default()).is_ok())
        };
        let started = Instant::now();
        assert_eq!(restore(&snap_bytes), Some(true), "the base case restores");
        for bytes in hostile_variants(&snap_bytes) {
            restore(&bytes);
        }
        // Recovery hands a decoded record's snapshot to the same decoder;
        // its resume path is already covered by the loop above.
        for bytes in hostile_variants(&record) {
            if let Some(r) = SnapshotRecord::decode(&bytes) {
                let _ = Snapshot::from_bytes(&r.snapshot);
            }
        }
        let took = started.elapsed();
        assert!(took < Duration::from_secs(2), "decoder loop took {took:?}");
    }

    #[test]
    fn sync_policy_parses() {
        assert_eq!(SyncPolicy::parse("always").unwrap(), SyncPolicy::Always);
        assert_eq!(SyncPolicy::parse("never").unwrap(), SyncPolicy::Never);
        assert!(matches!(
            SyncPolicy::parse("interval").unwrap(),
            SyncPolicy::Interval(_)
        ));
        assert!(SyncPolicy::parse("sometimes").is_err());
        assert_eq!(SyncPolicy::Always.tag(), "always");
    }
}
