//! Checkpoint/resume: a versioned, self-contained capture of engine
//! state.
//!
//! A [`Snapshot`] holds everything [`crate::Engine`] needs to
//! continue a run exactly where it stopped: the working memory (with the
//! original WME ids and the id counter), the refraction table, the cycle
//! counter and aggregate counts, and the collected log: only what resume
//! reads. Observability state (metrics, the trace ring, phase times) is
//! not captured, and neither is the matcher — every matcher's conflict
//! set is a pure function of working memory, so resume reseeds a fresh
//! matcher from the restored WM. That keeps snapshots small, matcher-
//! agnostic (checkpoint under RETE, resume under TREAT), and immune to
//! matcher-internal representation changes.
//!
//! Symbols, class names, and rule names are stored as *resolved strings*,
//! not interner ids, so a snapshot survives recompiling the program (ids
//! are assigned in parse order and are not stable across edits). Resume
//! re-binds the strings against the target program and fails with a
//! structured [`SnapshotError`] if a class or rule no longer exists.
//!
//! The byte format is a little-endian tagged binary with a magic header
//! and an explicit version ([`SNAPSHOT_VERSION`]); decoding rejects
//! foreign or future files instead of misreading them.

use crate::stats::RunStats;
use parulel_core::{ReadError, Reader, Writer};
use std::fmt;

/// The snapshot wire-format version: the only one this build writes
/// *and* reads ([`Snapshot::from_bytes`] refuses every other value).
///
/// The layout after the version field is: firing-policy tag, cycle
/// state (cycle, halted flag, next WME id), working memory, refraction
/// table, the nine run counts of [`RunStats`] (no phase times), log, and
/// the per-rule content hashes (rule name → [`parulel_vm`] content hash;
/// lets tools detect which rules changed between a capture and the
/// program resuming it). Version 5 dropped v4's per-cycle trace section,
/// its always-empty slot, its `"bytecode"` encoding tag and its four
/// phase durations.
pub const SNAPSHOT_VERSION: u32 = 5;

/// The 4-byte magic prefix of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PLSN";

/// A field value with symbols resolved to strings.
#[derive(Clone, Debug, PartialEq)]
pub enum SnapValue {
    /// A symbolic atom, resolved.
    Sym(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
}

/// One captured WME.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapWme {
    /// The original WME id (ids must survive resume so refraction keys
    /// and future id assignment stay identical).
    pub id: u64,
    /// Class name, resolved.
    pub class: String,
    /// Field values.
    pub fields: Vec<SnapValue>,
}

/// One captured refraction entry.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SnapKey {
    /// Rule name, resolved.
    pub rule: String,
    /// Ids of the matched WMEs, in condition order.
    pub wmes: Vec<u64>,
}

/// A complete, self-contained capture of engine state at a cycle
/// boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Tag of the [`crate::FiringPolicy`] that produced the capture
    /// (`"fire-all"`, `"select-one-lex"`, `"select-one-mea"`). Purely
    /// informational on resume — the captured state is policy-agnostic,
    /// so a continuation may run any policy — but lets tools and the
    /// CLI report a policy switch.
    pub policy: String,
    /// Cycles executed when the snapshot was taken.
    pub cycle: u64,
    /// A `halt` action had fired.
    pub halted: bool,
    /// The working memory's id counter.
    pub next_wme_id: u64,
    /// All live WMEs, sorted by id.
    pub wmes: Vec<SnapWme>,
    /// The refraction table, sorted.
    pub refraction: Vec<SnapKey>,
    /// Aggregate run counts. The encoding carries no phase times (they
    /// are wall-clock readings, so equal states give equal bytes) and
    /// decodes them as zero.
    pub stats: RunStats,
    /// Collected `write` output.
    pub log: Vec<String>,
    /// The per-rule content hashes at capture time: `(rule name,
    /// content hash)`, sorted by name. Lets tools diff a capture against
    /// the program resuming it without either source text.
    pub rule_hashes: Vec<(String, u64)>,
}

/// Why a snapshot failed to decode or re-bind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The version field names a format this build cannot read.
    UnsupportedVersion(u32),
    /// The data ended mid-field.
    Truncated,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Structurally invalid data (bad tag, trailing bytes, arity
    /// mismatch…).
    Malformed(&'static str),
    /// Resume target program has no class with this name.
    UnknownClass(String),
    /// Resume target program has no rule with this name.
    UnknownRule(String),
    /// The captured working memory failed validation on restore.
    BadWm(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadUtf8 => write!(f, "snapshot contains invalid UTF-8"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::UnknownClass(c) => {
                write!(f, "snapshot references unknown class '{c}'")
            }
            SnapshotError::UnknownRule(r) => write!(f, "snapshot references unknown rule '{r}'"),
            SnapshotError::BadWm(why) => write!(f, "snapshot working memory invalid: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<ReadError> for SnapshotError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Truncated => SnapshotError::Truncated,
            ReadError::BadUtf8 => SnapshotError::BadUtf8,
        }
    }
}

impl Snapshot {
    /// Serializes to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Writer::default();
        e.raw(&SNAPSHOT_MAGIC);
        e.u32(SNAPSHOT_VERSION);
        e.str(&self.policy);
        e.u64(self.cycle);
        e.u8(self.halted as u8);
        e.u64(self.next_wme_id);
        e.u64(self.wmes.len() as u64);
        for w in &self.wmes {
            e.u64(w.id);
            e.str(&w.class);
            e.u32(w.fields.len() as u32);
            for v in &w.fields {
                match v {
                    SnapValue::Sym(s) => {
                        e.u8(0);
                        e.str(s);
                    }
                    SnapValue::Int(i) => {
                        e.u8(1);
                        e.u64(*i as u64);
                    }
                    SnapValue::Float(x) => {
                        e.u8(2);
                        e.u64(x.to_bits());
                    }
                }
            }
        }
        e.u64(self.refraction.len() as u64);
        for k in &self.refraction {
            e.str(&k.rule);
            e.u32(k.wmes.len() as u32);
            for id in &k.wmes {
                e.u64(*id);
            }
        }
        let s = &self.stats;
        for n in [
            s.cycles,
            s.firings,
            s.redacted_meta,
            s.redacted_guard,
            s.meta_rounds,
            s.peak_eligible as u64,
            s.total_eligible,
            s.adds,
            s.removes,
        ] {
            e.u64(n);
        }
        e.u64(self.log.len() as u64);
        for line in &self.log {
            e.str(line);
        }
        e.u64(self.rule_hashes.len() as u64);
        for (name, h) in &self.rule_hashes {
            e.str(name);
            e.u64(*h);
        }
        e.into_bytes()
    }

    /// Decodes the versioned binary format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let mut d = Reader::new(bytes);
        if d.take(4)? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = d.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let policy = d.str()?;
        let cycle = d.u64()?;
        let halted = match d.u8()? {
            0 => false,
            1 => true,
            _ => return Err(SnapshotError::Malformed("bad bool")),
        };
        let next_wme_id = d.u64()?;
        let n_wmes = d.count()?;
        let mut wmes = Vec::with_capacity(n_wmes);
        for _ in 0..n_wmes {
            let id = d.u64()?;
            let class = d.str()?;
            let n_fields = d.count32()?;
            let mut fields = Vec::with_capacity(n_fields);
            for _ in 0..n_fields {
                fields.push(match d.u8()? {
                    0 => SnapValue::Sym(d.str()?),
                    1 => SnapValue::Int(d.u64()? as i64),
                    2 => SnapValue::Float(f64::from_bits(d.u64()?)),
                    _ => return Err(SnapshotError::Malformed("unknown value tag")),
                });
            }
            wmes.push(SnapWme { id, class, fields });
        }
        let n_keys = d.count()?;
        let mut refraction = Vec::with_capacity(n_keys);
        for _ in 0..n_keys {
            let rule = d.str()?;
            let n = d.count32()?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(d.u64()?);
            }
            refraction.push(SnapKey { rule, wmes: ids });
        }
        let stats = RunStats {
            cycles: d.u64()?,
            firings: d.u64()?,
            redacted_meta: d.u64()?,
            redacted_guard: d.u64()?,
            meta_rounds: d.u64()?,
            peak_eligible: d.u64()? as usize,
            total_eligible: d.u64()?,
            adds: d.u64()?,
            removes: d.u64()?,
            ..RunStats::default()
        };
        let n_log = d.count()?;
        let mut log = Vec::with_capacity(n_log);
        for _ in 0..n_log {
            log.push(d.str()?);
        }
        let n_hashes = d.count()?;
        let mut rule_hashes = Vec::with_capacity(n_hashes);
        for _ in 0..n_hashes {
            let name = d.str()?;
            rule_hashes.push((name, d.u64()?));
        }
        if d.remaining() > 0 {
            return Err(SnapshotError::Malformed("trailing bytes"));
        }
        Ok(Snapshot {
            policy,
            cycle,
            halted,
            next_wme_id,
            wmes,
            refraction,
            stats,
            log,
            rule_hashes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            policy: "select-one-mea".into(),
            cycle: 42,
            halted: false,
            next_wme_id: 17,
            wmes: vec![
                SnapWme {
                    id: 3,
                    class: "cell".into(),
                    fields: vec![
                        SnapValue::Int(-5),
                        SnapValue::Sym("red".into()),
                        SnapValue::Float(2.5),
                    ],
                },
                SnapWme {
                    id: 16,
                    class: "cell".into(),
                    fields: vec![SnapValue::Int(9)],
                },
            ],
            refraction: vec![SnapKey {
                rule: "bump".into(),
                wmes: vec![3, 16],
            }],
            stats: RunStats {
                cycles: 42,
                firings: 99,
                peak_eligible: 7,
                ..Default::default()
            },
            log: vec!["saw 10".into(), "unicode: héllo".into()],
            rule_hashes: vec![("bump".into(), 0x00c0_ffee_dead_beef)],
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        // Encoding is deterministic, and leaves out the wall-clock phase
        // times: equal states give equal bytes however long they took.
        assert_eq!(back.to_bytes(), bytes);
        let mut timed = snap;
        timed.stats.match_time = std::time::Duration::from_micros(1234);
        assert_eq!(timed.to_bytes(), bytes);
    }

    /// The v5 encoding is pinned byte for byte: a layout change moves this
    /// hash, and every snapshot already on disk would stop decoding.
    #[test]
    fn sample_bytes_are_pinned() {
        assert_eq!(parulel_core::fnv1a(&sample().to_bytes()), 0xeb7839dd13eb72d0);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = sample().to_bytes();
        assert_eq!(
            Snapshot::from_bytes(b"nope").unwrap_err(),
            SnapshotError::BadMagic
        );
        // Exactly one version decodes: older ones are refused like
        // future ones, not migrated.
        for version in [SNAPSHOT_VERSION - 1, 0xFF] {
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                Snapshot::from_bytes(&bytes).unwrap_err(),
                SnapshotError::UnsupportedVersion(version)
            );
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let bytes = sample().to_bytes();
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            let err = Snapshot::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
                "cut at {cut}: {err:?}"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            Snapshot::from_bytes(&padded).unwrap_err(),
            SnapshotError::Malformed("trailing bytes")
        );
    }

    #[test]
    fn corrupt_length_cannot_demand_huge_allocation() {
        // A snapshot with the WME count field patched to u64::MAX must
        // fail cleanly, not try to reserve 2^64 entries.
        let mut bytes = sample().to_bytes();
        // magic, version, policy (len-prefixed), cycle, halted, next_id
        let count_at = 4 + 4 + (4 + sample().policy.len()) + 8 + 1 + 8;
        bytes[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotError::Truncated
        );
    }

    #[test]
    fn corrupt_u32_counts_cannot_demand_huge_allocation() {
        // The two u32 element counts (a WME's fields, a refraction key's
        // ids) patched to u32::MAX: each
        // would reserve tens of gigabytes if it reached
        // `Vec::with_capacity` unchecked, and a failed reservation
        // aborts the process rather than unwinding.
        let base = sample();
        // Offset of the WME count; earlier sections are emptied per case
        // so every offset below is a sum of fixed-width fields.
        let wmes_at = 4 + 4 + (4 + base.policy.len()) + 8 + 1 + 8;
        let cases = [
            (
                base.clone(),
                wmes_at + 8 + 8 + (4 + base.wmes[0].class.len()),
                base.wmes[0].fields.len(),
            ),
            (
                Snapshot { wmes: Vec::new(), ..base.clone() },
                wmes_at + 8 + 8 + (4 + base.refraction[0].rule.len()),
                base.refraction[0].wmes.len(),
            ),
        ];
        for (snap, count_at, count) in cases {
            let mut bytes = snap.to_bytes();
            assert_eq!(bytes[count_at..count_at + 4], (count as u32).to_le_bytes());
            bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert_eq!(
                Snapshot::from_bytes(&bytes).unwrap_err(),
                SnapshotError::Truncated,
                "count at {count_at}"
            );
        }
    }

    #[test]
    fn errors_render() {
        for (err, needle) in [
            (SnapshotError::BadMagic, "magic"),
            (SnapshotError::UnsupportedVersion(9), "version 9"),
            (SnapshotError::UnknownClass("goal".into()), "goal"),
            (SnapshotError::UnknownRule("r1".into()), "r1"),
            (SnapshotError::BadWm("dup".into()), "dup"),
        ] {
            assert!(err.to_string().contains(needle), "{err:?}");
        }
    }
}
