//! # aging-store
//!
//! Crash-safe persistence for the streaming aging pipeline: an
//! append-only CRC32-framed **write-ahead journal** plus atomically
//! committed **snapshots**, dependency-free and std-only.
//!
//! The serve layer's in-process guarantee — an acked batch is never lost
//! — dies with the process. This crate upgrades it to *acked ⇒ durable*:
//! the server journals every state-mutating input **before**
//! acknowledging it, periodically checkpoints the full engine state into
//! a snapshot, and on restart replays `snapshot + journal suffix` to
//! reconstruct bit-identical detector state (the kill-and-recover
//! differential in `aging-serve` hard-gates byte-identical alarm
//! histories against an uninterrupted run).
//!
//! ## On-disk format
//!
//! Everything lives in one directory ([`StoreConfig::dir`]):
//!
//! - **`journal.wal`** — a sequence of frames, each
//!   `len: u32 LE | payload | crc32(payload): u32 LE`, where `payload` is
//!   `entry_id: u64 LE || caller bytes`. Entry ids are strictly
//!   increasing from 1 and survive snapshots.
//!
//! ## One frame layout
//!
//! The journal and the serve wire share that `len | payload | crc32`
//! layout, and this crate holds its one implementation: [`crc32`], the
//! in-place writer [`begin_frame`] / [`finish_frame`], the header scan
//! [`frame_head`] (length bounds are its arguments: `8..=max_entry_bytes`
//! here, `1..=max_frame` on the wire) and the CRC check
//! [`frame_payload`]. A header scan never computes a CRC, so a caller can
//! count buffered frames cheaply and check each one only when it
//! consumes it.
//! - **`snapshot.bin`** — `magic "AGSTORE1" | applied_through: u64 LE |
//!   blob_len: u64 LE | blob | crc32: u32 LE` (CRC over everything after
//!   the magic). `applied_through` is the id of the last journal entry
//!   whose effects the blob contains.
//! - **`snapshot.tmp`** — scratch for the atomic commit; a leftover one
//!   is an aborted commit and is deleted on open.
//!
//! ## Crash-safety discipline
//!
//! - **Journal append**: frame written and flushed (plus `fdatasync`
//!   when [`StoreConfig::fsync`] is set) before [`Store::append`]
//!   returns — callers ack only after that.
//! - **Snapshot commit**: blob written to `snapshot.tmp`, synced, then
//!   `rename`d over `snapshot.bin` (atomic on POSIX), then the journal
//!   is truncated. A crash *between* rename and truncation is benign:
//!   recovery filters journal entries with `id ≤ applied_through`.
//! - **Torn-tail tolerance**: a crash mid-append leaves a partial or
//!   CRC-broken final frame. Recovery accepts every complete frame,
//!   truncates the journal at the first damaged one, and reports it via
//!   [`Recovery::torn_tail`] — nothing acked can be in the torn region,
//!   because the ack happens only after the flush.
//!
//! # Examples
//!
//! ```
//! use aging_store::{Store, StoreConfig};
//!
//! # fn main() -> aging_store::Result<()> {
//! let dir = std::env::temp_dir().join(format!("aging-store-doc-{}", std::process::id()));
//! let cfg = StoreConfig::new(&dir);
//! let (mut store, recovery) = Store::open(cfg.clone())?;
//! assert!(recovery.snapshot.is_none() && recovery.entries.is_empty());
//!
//! store.append(b"batch 1")?; // durable once this returns
//! store.commit_snapshot(b"state after batch 1")?;
//! store.append(b"batch 2")?;
//! drop(store); // "crash"
//!
//! let (_store, recovery) = Store::open(cfg)?;
//! assert_eq!(recovery.snapshot.as_deref(), Some(&b"state after batch 1"[..]));
//! assert_eq!(recovery.entries.len(), 1); // only the post-snapshot suffix
//! assert_eq!(recovery.entries[0].payload, b"batch 2");
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Journal file name inside the store directory.
pub const JOURNAL_FILE: &str = "journal.wal";
/// Committed snapshot file name.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Scratch file for the atomic snapshot commit.
pub const SNAPSHOT_TMP_FILE: &str = "snapshot.tmp";

/// Snapshot header magic: identifies the file and pins format version 1.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"AGSTORE1";

/// Bytes a frame adds around its payload: the `u32` length in front and
/// the `u32` CRC-32 behind.
const FRAME_OVERHEAD: usize = 8;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong in the persistence layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O operation failed; the message carries the path and the OS
    /// error description.
    Io(String),
    /// On-disk state violates the format in a way recovery must not
    /// paper over (bad magic, short header, broken snapshot CRC).
    Corrupt(String),
    /// A caller request violates the store's limits (oversized entry).
    Invalid(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store I/O error: {m}"),
            StoreError::Corrupt(m) => write!(f, "store corruption: {m}"),
            StoreError::Invalid(m) => write!(f, "store misuse: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StoreError>;

fn io_err(path: &Path, what: &str, e: &std::io::Error) -> StoreError {
    StoreError::Io(format!("{what} {}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected) — the one implementation in the workspace: the
// serve wire codec re-exports it, so journal entries and wire frames are
// checked by the same code.
// ---------------------------------------------------------------------------

/// Slice-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time table
/// and `CRC_TABLES[k][i]` is the CRC state of byte `i` followed by `k`
/// zero bytes, so eight table lookups advance the CRC by eight bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected) of `data`, eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Frame layout: `len: u32 LE | payload | crc32(payload): u32 LE`
// ---------------------------------------------------------------------------

/// Starts a frame at the end of `out` by reserving its length word, and
/// returns the frame's start offset. Append the payload to `out` in
/// place, then close the frame with [`finish_frame`].
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    start
}

/// Closes the frame that [`begin_frame`] started at `start`: writes the
/// payload length into its length word and appends the payload's CRC-32.
pub fn finish_frame(out: &mut Vec<u8>, start: usize) {
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[start + 4..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// What the length word at the front of a buffer says about the frame
/// that starts there (see [`frame_head`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameHead {
    /// The buffer ends before the frame does, or before its length word.
    Partial,
    /// The whole frame is buffered: its first `span` bytes.
    Whole {
        /// Frame length in bytes: the payload plus the length word and
        /// the CRC.
        span: usize,
    },
    /// The length word is out of bounds, or the frame it declares does
    /// not fit in this host's address space: the framing is lost.
    BadLength(u32),
}

/// Reads the header of the frame at the front of `buf`, accepting payload
/// lengths in `min_len..=max_len`. Only the length word is read; the CRC
/// is checked by [`frame_payload`] when the frame is consumed.
pub fn frame_head(buf: &[u8], min_len: u32, max_len: u32) -> FrameHead {
    let Some(word) = buf.first_chunk::<4>() else {
        return FrameHead::Partial;
    };
    let len = u32::from_le_bytes(*word);
    let span = usize::try_from(len)
        .ok()
        .and_then(|n| n.checked_add(FRAME_OVERHEAD));
    match span {
        Some(span) if (min_len..=max_len).contains(&len) => {
            if buf.len() < span {
                FrameHead::Partial
            } else {
                FrameHead::Whole { span }
            }
        }
        _ => FrameHead::BadLength(len),
    }
}

/// A frame whose stored CRC-32 disagrees with its payload's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrcMismatch {
    /// The CRC the frame carries.
    pub stored: u32,
    /// The CRC of the payload it carries.
    pub actual: u32,
}

/// The payload of `frame`, one whole frame as [`frame_head`] measured it,
/// once its CRC-32 checks out.
///
/// # Errors
///
/// [`CrcMismatch`] when the stored and computed CRCs differ.
///
/// # Panics
///
/// If `frame` is shorter than the length word and CRC it must hold, which
/// a span from [`frame_head`] never is.
pub fn frame_payload(frame: &[u8]) -> std::result::Result<&[u8], CrcMismatch> {
    let (body, crc) = frame.split_at(frame.len() - 4);
    let payload = &body[4..];
    let stored = u32::from_le_bytes(crc.try_into().expect("4 bytes"));
    let actual = crc32(payload);
    if stored == actual {
        Ok(payload)
    } else {
        Err(CrcMismatch { stored, actual })
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Persistence knobs. `Clone` so callers can stash the config and
/// re-open the same store after a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Directory holding the journal and snapshot (created on open).
    pub dir: PathBuf,
    /// Commit a snapshot automatically every this many journal entries
    /// (a hint consumed by the embedding layer, e.g. the serve engine;
    /// the store itself never snapshots spontaneously). `0` disables
    /// cadence-driven snapshots.
    pub snapshot_every_entries: u64,
    /// `fdatasync` the journal on every append and the snapshot on
    /// commit. Off by default: flushed-but-unsynced writes survive
    /// process crashes (the kill-and-recover model), while full
    /// power-loss durability costs a sync per ack.
    pub fsync: bool,
    /// Upper bound on one journal entry's payload, bytes. Appends beyond
    /// it are rejected; recovery treats larger length prefixes as
    /// corruption (torn tail).
    pub max_entry_bytes: u32,
}

impl StoreConfig {
    /// A config with library defaults: snapshot every 64 entries, no
    /// fsync, 16 MiB entry cap.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            snapshot_every_entries: 64,
            fsync: false,
            max_entry_bytes: 16 * 1024 * 1024,
        }
    }

    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Invalid`] for a zero entry cap.
    pub fn validate(&self) -> Result<()> {
        if self.max_entry_bytes == 0 {
            return Err(StoreError::Invalid(
                "max_entry_bytes must be positive".to_string(),
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Recovery report
// ---------------------------------------------------------------------------

/// One journal entry surviving recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Strictly increasing entry id (1-based over the store's lifetime).
    pub id: u64,
    /// The caller's bytes, exactly as appended.
    pub payload: Vec<u8>,
}

/// What [`Store::open`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// The committed snapshot blob, if any.
    pub snapshot: Option<Vec<u8>>,
    /// Id of the last journal entry the snapshot covers (`0` without a
    /// snapshot). Entries at or below it are filtered out of `entries`.
    pub applied_through: u64,
    /// Journal entries to replay on top of the snapshot, in id order.
    pub entries: Vec<JournalEntry>,
    /// Whether the journal ended in a damaged frame (crash mid-append).
    /// The damage was truncated away; everything in `entries` is intact.
    pub torn_tail: bool,
    /// Bytes of journal discarded by the torn-tail truncation.
    pub truncated_bytes: u64,
}

impl Recovery {
    /// Whether the store held no state at all (fresh directory).
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.entries.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

/// An open journal + snapshot directory.
///
/// Not internally synchronized: the embedding layer (the serve engine's
/// mutex, the supervisor's merge thread) serializes access.
#[derive(Debug)]
pub struct Store {
    cfg: StoreConfig,
    journal: File,
    journal_path: PathBuf,
    /// Id the next append will carry.
    next_id: u64,
    /// Entries appended since the last snapshot commit (or open).
    since_snapshot: u64,
    /// Bytes appended to the journal over the store's lifetime (overhead
    /// included) — the journal-overhead measurement for E15.
    appended_bytes: u64,
    /// Current journal file length, bytes.
    journal_len: u64,
    /// Snapshots committed over the store's lifetime.
    snapshots_committed: u64,
    /// The frame each append builds, kept between appends so a journal
    /// fed entries no larger than one it has seen allocates nothing.
    frame: Vec<u8>,
}

impl Store {
    /// Opens (creating if necessary) the store at `cfg.dir`, recovering
    /// whatever a previous incarnation left behind.
    ///
    /// Recovery is torn-tail tolerant: the journal is truncated at the
    /// first incomplete or CRC-damaged frame, and entries already
    /// covered by the snapshot (`id ≤ applied_through`) are filtered out
    /// — the benign residue of a crash between snapshot rename and
    /// journal truncation.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failures and
    /// [`StoreError::Corrupt`] when `snapshot.bin` exists but fails its
    /// structural checks (magic, header, CRC) — a damaged *snapshot*,
    /// unlike a damaged journal tail, cannot be safely dropped.
    pub fn open(cfg: StoreConfig) -> Result<(Self, Recovery)> {
        cfg.validate()?;
        fs::create_dir_all(&cfg.dir).map_err(|e| io_err(&cfg.dir, "create dir", &e))?;

        // A leftover tmp is an aborted commit: the committed snapshot (if
        // any) is still intact, the tmp is garbage.
        let tmp = cfg.dir.join(SNAPSHOT_TMP_FILE);
        if tmp.exists() {
            fs::remove_file(&tmp).map_err(|e| io_err(&tmp, "remove stale", &e))?;
        }

        let (snapshot, applied_through) = read_snapshot(&cfg.dir.join(SNAPSHOT_FILE))?;
        let journal_path = cfg.dir.join(JOURNAL_FILE);
        let scan = scan_journal(&journal_path, applied_through, cfg.max_entry_bytes)?;

        if scan.truncate_to < scan.file_len {
            let f = OpenOptions::new()
                .write(true)
                .open(&journal_path)
                .map_err(|e| io_err(&journal_path, "open for truncation", &e))?;
            f.set_len(scan.truncate_to)
                .map_err(|e| io_err(&journal_path, "truncate", &e))?;
            f.sync_data()
                .map_err(|e| io_err(&journal_path, "sync after truncation", &e))?;
        }

        let journal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_path)
            .map_err(|e| io_err(&journal_path, "open journal", &e))?;

        let next_id = scan.last_id.max(applied_through) + 1;
        let store = Store {
            cfg,
            journal,
            journal_path,
            next_id,
            since_snapshot: scan.entries.len() as u64,
            appended_bytes: 0,
            journal_len: scan.truncate_to,
            snapshots_committed: 0,
            frame: Vec::new(),
        };
        let recovery = Recovery {
            snapshot,
            applied_through,
            entries: scan.entries,
            torn_tail: scan.torn,
            truncated_bytes: scan.file_len - scan.truncate_to,
        };
        Ok((store, recovery))
    }

    /// The configuration the store was opened with.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Appends one entry to the journal; once this returns, the entry
    /// survives a process crash (and a power loss too when
    /// [`StoreConfig::fsync`] is set). Returns the entry's id.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Invalid`] for a payload over the configured
    /// cap and [`StoreError::Io`] on write failures. After an I/O error
    /// the entry must be assumed *not* durable — callers must not ack.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        let framed_len = payload.len().checked_add(8); // id prefix
        let too_big = match framed_len {
            Some(n) => n > self.cfg.max_entry_bytes as usize,
            None => true,
        };
        if too_big {
            return Err(StoreError::Invalid(format!(
                "entry of {} bytes exceeds max_entry_bytes {}",
                payload.len(),
                self.cfg.max_entry_bytes
            )));
        }
        let id = self.next_id;
        let frame = &mut self.frame;
        frame.clear();
        let start = begin_frame(frame);
        frame.extend_from_slice(&id.to_le_bytes());
        frame.extend_from_slice(payload);
        finish_frame(frame, start);

        self.journal
            .write_all(frame)
            .map_err(|e| io_err(&self.journal_path, "append", &e))?;
        self.journal
            .flush()
            .map_err(|e| io_err(&self.journal_path, "flush", &e))?;
        if self.cfg.fsync {
            self.journal
                .sync_data()
                .map_err(|e| io_err(&self.journal_path, "fsync", &e))?;
        }
        self.next_id += 1;
        self.since_snapshot += 1;
        self.appended_bytes += frame.len() as u64;
        self.journal_len += frame.len() as u64;
        Ok(id)
    }

    /// Whether the configured snapshot cadence says it is time to
    /// checkpoint (`snapshot_every_entries` appends since the last one).
    pub fn snapshot_due(&self) -> bool {
        self.cfg.snapshot_every_entries > 0
            && self.since_snapshot >= self.cfg.snapshot_every_entries
    }

    /// Atomically commits `blob` as the new snapshot, covering every
    /// entry appended so far, then truncates the journal.
    ///
    /// The commit point is the `rename`: before it the old snapshot (or
    /// none) is intact, after it the new one is. A crash after the
    /// rename but before the truncation leaves already-covered entries
    /// in the journal; [`Store::open`] filters them by id.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on write/rename failures; the previous
    /// snapshot remains the committed one in that case.
    pub fn commit_snapshot(&mut self, blob: &[u8]) -> Result<()> {
        let applied_through = self.next_id - 1;
        let tmp = self.cfg.dir.join(SNAPSHOT_TMP_FILE);
        let dst = self.cfg.dir.join(SNAPSHOT_FILE);

        let mut body = Vec::with_capacity(blob.len() + 16);
        body.extend_from_slice(&applied_through.to_le_bytes());
        body.extend_from_slice(&(blob.len() as u64).to_le_bytes());
        body.extend_from_slice(blob);
        let crc = crc32(&body);

        let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, "create", &e))?;
        f.write_all(&SNAPSHOT_MAGIC)
            .and_then(|()| f.write_all(&body))
            .and_then(|()| f.write_all(&crc.to_le_bytes()))
            .map_err(|e| io_err(&tmp, "write", &e))?;
        if self.cfg.fsync {
            f.sync_all().map_err(|e| io_err(&tmp, "sync", &e))?;
        } else {
            f.flush().map_err(|e| io_err(&tmp, "flush", &e))?;
        }
        drop(f);
        fs::rename(&tmp, &dst).map_err(|e| io_err(&dst, "rename over", &e))?;

        // The journal's entries are now covered by the snapshot; drop
        // them. The append handle keeps working after set_len(0) because
        // it writes at the (new) end.
        self.journal
            .set_len(0)
            .map_err(|e| io_err(&self.journal_path, "truncate", &e))?;
        if self.cfg.fsync {
            self.journal
                .sync_data()
                .map_err(|e| io_err(&self.journal_path, "sync after truncate", &e))?;
        }
        self.journal_len = 0;
        self.since_snapshot = 0;
        self.snapshots_committed += 1;
        Ok(())
    }

    /// Id of the most recently appended entry (`0` before any append in
    /// this incarnation and with an empty recovered journal).
    pub fn last_entry_id(&self) -> u64 {
        self.next_id - 1
    }

    /// Entries appended since the last snapshot commit (or open).
    pub fn entries_since_snapshot(&self) -> u64 {
        self.since_snapshot
    }

    /// Journal bytes written by this incarnation, framing included — the
    /// E15 journal-overhead measurement.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Current journal file length, bytes.
    pub fn journal_len(&self) -> u64 {
        self.journal_len
    }

    /// Snapshots committed by this incarnation.
    pub fn snapshots_committed(&self) -> u64 {
        self.snapshots_committed
    }
}

// ---------------------------------------------------------------------------
// Recovery internals
// ---------------------------------------------------------------------------

/// Parses `snapshot.bin`; `(None, 0)` when absent.
fn read_snapshot(path: &Path) -> Result<(Option<Vec<u8>>, u64)> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((None, 0)),
        Err(e) => return Err(io_err(path, "read", &e)),
    };
    let corrupt = |m: &str| StoreError::Corrupt(format!("{}: {m}", path.display()));
    if bytes.len() < SNAPSHOT_MAGIC.len() + 8 + 8 + 4 {
        return Err(corrupt("shorter than the fixed header"));
    }
    if bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(corrupt(
            "bad magic (not an aging-store snapshot, or a future version)",
        ));
    }
    let body = &bytes[SNAPSHOT_MAGIC.len()..bytes.len() - 4];
    let crc_stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc32(body) != crc_stored {
        return Err(corrupt("CRC mismatch"));
    }
    let applied_through = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
    let blob_len = u64::from_le_bytes(body[8..16].try_into().expect("8 bytes"));
    if blob_len != (body.len() - 16) as u64 {
        return Err(corrupt("blob length disagrees with file length"));
    }
    Ok((Some(body[16..].to_vec()), applied_through))
}

struct JournalScan {
    entries: Vec<JournalEntry>,
    last_id: u64,
    torn: bool,
    /// Byte offset of the first damaged frame (== `file_len` when clean).
    truncate_to: u64,
    file_len: u64,
}

/// Walks the journal, collecting complete well-formed frames and
/// stopping — without error — at the first damaged one.
fn scan_journal(path: &Path, applied_through: u64, max_entry_bytes: u32) -> Result<JournalScan> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(JournalScan {
                entries: Vec::new(),
                last_id: 0,
                torn: false,
                truncate_to: 0,
                file_len: 0,
            })
        }
        Err(e) => return Err(io_err(path, "open", &e)),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| io_err(path, "read", &e))?;
    // Rewind so the caller's truncation handle sees a consistent file.
    file.seek(SeekFrom::Start(0)).ok();

    let mut entries = Vec::new();
    let mut last_id = 0u64;
    let mut rest = bytes.as_slice();
    // A payload shorter than the id prefix, or longer than append() could
    // have written, means the length word itself is damage.
    while let FrameHead::Whole { span } = frame_head(rest, 8, max_entry_bytes) {
        let Ok(payload) = frame_payload(&rest[..span]) else {
            break;
        };
        let id = u64::from_le_bytes(*payload.first_chunk().expect("8-byte id prefix"));
        if id <= last_id && last_id != 0 {
            // Ids must strictly increase; a regression means the frame
            // boundary drifted onto stale bytes. Stop here.
            break;
        }
        last_id = id;
        if id > applied_through {
            entries.push(JournalEntry {
                id,
                payload: payload[8..].to_vec(),
            });
        }
        rest = &rest[span..];
    }

    // Whatever the scan stopped short of — a bad length, a partial frame,
    // a CRC or id break, 1..=3 bytes of a length word — is a torn tail.
    Ok(JournalScan {
        entries,
        last_id,
        torn: !rest.is_empty(),
        truncate_to: (bytes.len() - rest.len()) as u64,
        file_len: bytes.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A scratch directory wiped on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "aging-store-test-{tag}-{}-{:p}",
                std::process::id(),
                &tag
            ));
            fs::remove_dir_all(&dir).ok();
            TempDir(dir)
        }
        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            fs::remove_dir_all(&self.0).ok();
        }
    }

    fn open(dir: &Path) -> (Store, Recovery) {
        Store::open(StoreConfig::new(dir)).expect("open store")
    }

    /// The byte-at-a-time CRC the slice-by-8 kernel must reproduce.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc_reference_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn crc_matches_the_bytewise_oracle(
            bytes in prop::collection::vec(0u8..=255, 0..=4096),
            offset in 0usize..8,
        ) {
            // The same bytes at every start offset within an eight-byte
            // step of the allocation.
            let mut buf = vec![0xa5u8; offset];
            buf.extend_from_slice(&bytes);
            let data = &buf[offset..];
            prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }
    }

    #[test]
    fn frames_written_in_place_scan_and_check() {
        // A frame appends after bytes already in the buffer.
        let mut out = vec![0xee];
        let start = begin_frame(&mut out);
        out.extend_from_slice(b"payload");
        finish_frame(&mut out, start);
        let frame = &out[1..];
        assert_eq!(frame.len(), 7 + FRAME_OVERHEAD);
        assert_eq!(frame[..4], 7u32.to_le_bytes());
        assert_eq!(frame_head(frame, 1, 7), FrameHead::Whole { span: 15 });
        assert_eq!(frame_payload(frame), Ok(&b"payload"[..]));

        // Every strict prefix is partial, and bounds that exclude the
        // length make it bad whatever follows.
        for cut in 0..frame.len() {
            assert_eq!(frame_head(&frame[..cut], 1, 7), FrameHead::Partial);
        }
        assert_eq!(frame_head(frame, 8, 64), FrameHead::BadLength(7));
        assert_eq!(frame_head(&frame[..4], 1, 6), FrameHead::BadLength(7));

        // A flipped payload bit fails the CRC check.
        let mut bad = frame.to_vec();
        bad[5] ^= 1;
        let err = frame_payload(&bad).unwrap_err();
        assert_eq!(err.stored, crc32(b"payload"));
        assert_eq!(err.actual, crc32(&bad[4..11]));
    }

    #[test]
    fn fresh_directory_recovers_empty() {
        let tmp = TempDir::new("fresh");
        let (store, rec) = open(tmp.path());
        assert!(rec.is_empty());
        assert_eq!(rec.applied_through, 0);
        assert!(!rec.torn_tail);
        assert_eq!(store.last_entry_id(), 0);
    }

    #[test]
    fn journal_round_trip_across_reopen() {
        let tmp = TempDir::new("roundtrip");
        {
            let (mut store, _) = open(tmp.path());
            for i in 0..10u8 {
                let id = store.append(&[i; 5]).unwrap();
                assert_eq!(id, u64::from(i) + 1);
            }
            assert_eq!(store.entries_since_snapshot(), 10);
            assert!(store.appended_bytes() > 0);
        }
        let (store, rec) = open(tmp.path());
        assert_eq!(rec.entries.len(), 10);
        assert!(!rec.torn_tail);
        assert!(rec.snapshot.is_none());
        for (i, e) in rec.entries.iter().enumerate() {
            assert_eq!(e.id, i as u64 + 1);
            assert_eq!(e.payload, vec![i as u8; 5]);
        }
        // Ids continue where the previous incarnation stopped.
        assert_eq!(store.last_entry_id(), 10);
    }

    #[test]
    fn snapshot_only_recovery() {
        let tmp = TempDir::new("snaponly");
        {
            let (mut store, _) = open(tmp.path());
            store.append(b"a").unwrap();
            store.append(b"b").unwrap();
            store.commit_snapshot(b"covers a+b").unwrap();
            assert_eq!(store.entries_since_snapshot(), 0);
            assert_eq!(store.journal_len(), 0);
            assert_eq!(store.snapshots_committed(), 1);
        }
        let (mut store, rec) = open(tmp.path());
        assert_eq!(rec.snapshot.as_deref(), Some(&b"covers a+b"[..]));
        assert_eq!(rec.applied_through, 2);
        assert!(rec.entries.is_empty());
        assert!(!rec.torn_tail);
        // New appends continue the id sequence past the snapshot.
        assert_eq!(store.append(b"c").unwrap(), 3);
    }

    #[test]
    fn snapshot_plus_journal_suffix() {
        let tmp = TempDir::new("suffix");
        {
            let (mut store, _) = open(tmp.path());
            store.append(b"old").unwrap();
            store.commit_snapshot(b"state@1").unwrap();
            store.append(b"new-1").unwrap();
            store.append(b"new-2").unwrap();
        }
        let (_, rec) = open(tmp.path());
        assert_eq!(rec.snapshot.as_deref(), Some(&b"state@1"[..]));
        assert_eq!(rec.applied_through, 1);
        let payloads: Vec<&[u8]> = rec.entries.iter().map(|e| e.payload.as_slice()).collect();
        assert_eq!(payloads, vec![&b"new-1"[..], &b"new-2"[..]]);
    }

    #[test]
    fn torn_final_frame_is_truncated_and_survivors_kept() {
        let tmp = TempDir::new("torn");
        {
            let (mut store, _) = open(tmp.path());
            store.append(b"intact-1").unwrap();
            store.append(b"intact-2").unwrap();
        }
        // Simulate a crash mid-append: half a frame of garbage.
        let journal = tmp.path().join(JOURNAL_FILE);
        let mut f = OpenOptions::new().append(true).open(&journal).unwrap();
        f.write_all(&[0x40, 0x00, 0x00, 0x00, 0xde, 0xad]).unwrap();
        drop(f);

        let before = fs::metadata(&journal).unwrap().len();
        let (mut store, rec) = open(tmp.path());
        assert!(rec.torn_tail);
        assert_eq!(rec.truncated_bytes, 6);
        assert_eq!(rec.entries.len(), 2);
        assert_eq!(rec.entries[1].payload, b"intact-2");
        // The damage is physically gone and appends work again.
        assert_eq!(fs::metadata(&journal).unwrap().len(), before - 6);
        store.append(b"after-recovery").unwrap();
        let (_, rec2) = open(tmp.path());
        assert!(!rec2.torn_tail);
        assert_eq!(rec2.entries.len(), 3);
    }

    #[test]
    fn crc_damage_mid_journal_truncates_from_there() {
        let tmp = TempDir::new("crcdmg");
        {
            let (mut store, _) = open(tmp.path());
            store.append(b"first").unwrap();
            store.append(b"second").unwrap();
            store.append(b"third").unwrap();
        }
        let journal = tmp.path().join(JOURNAL_FILE);
        let mut bytes = fs::read(&journal).unwrap();
        // Flip a payload byte inside the second frame: frame 1 spans
        // 4 + (8+5) + 4 = 21 bytes, so offset 30 is in frame 2's payload.
        bytes[30] ^= 0xff;
        fs::write(&journal, &bytes).unwrap();

        let (_, rec) = open(tmp.path());
        assert!(rec.torn_tail);
        assert_eq!(rec.entries.len(), 1, "only the frame before the damage");
        assert_eq!(rec.entries[0].payload, b"first");
        // Everything from the damaged frame on was discarded.
        assert!(rec.truncated_bytes > 0);
    }

    #[test]
    fn crash_between_rename_and_truncate_filters_covered_entries() {
        let tmp = TempDir::new("renamecrash");
        let journal = tmp.path().join(JOURNAL_FILE);
        let (mut store, _) = open(tmp.path());
        store.append(b"covered-1").unwrap();
        store.append(b"covered-2").unwrap();
        // Preserve the pre-truncation journal, commit, then put the old
        // journal back — exactly the state a crash between the snapshot
        // rename and the journal truncation leaves behind.
        let old_journal = fs::read(&journal).unwrap();
        store.commit_snapshot(b"state@2").unwrap();
        drop(store);
        fs::write(&journal, &old_journal).unwrap();

        let (mut store, rec) = open(tmp.path());
        assert_eq!(rec.snapshot.as_deref(), Some(&b"state@2"[..]));
        assert_eq!(rec.applied_through, 2);
        assert!(rec.entries.is_empty(), "covered entries must be filtered");
        // Id allocation resumes after the stale ids, not on top of them.
        assert_eq!(store.append(b"next").unwrap(), 3);
    }

    #[test]
    fn stale_tmp_snapshot_is_discarded() {
        let tmp = TempDir::new("staletmp");
        {
            let (mut store, _) = open(tmp.path());
            store.append(b"e1").unwrap();
            store.commit_snapshot(b"good").unwrap();
        }
        // A crash mid-commit leaves a half-written tmp file.
        fs::write(tmp.path().join(SNAPSHOT_TMP_FILE), b"half-written").unwrap();
        let (_, rec) = open(tmp.path());
        assert_eq!(rec.snapshot.as_deref(), Some(&b"good"[..]));
        assert!(!tmp.path().join(SNAPSHOT_TMP_FILE).exists());
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error() {
        let tmp = TempDir::new("badsnap");
        {
            let (mut store, _) = open(tmp.path());
            store.append(b"e1").unwrap();
            store.commit_snapshot(b"blob").unwrap();
        }
        let snap = tmp.path().join(SNAPSHOT_FILE);
        let mut bytes = fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // break the CRC
        fs::write(&snap, &bytes).unwrap();
        match Store::open(StoreConfig::new(tmp.path())) {
            Err(StoreError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Bad magic is equally fatal.
        fs::write(&snap, b"NOTASNAPxxxxxxxxxxxxxxxxxxxxxxxx").unwrap();
        assert!(matches!(
            Store::open(StoreConfig::new(tmp.path())),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_appends_rejected_and_oversized_lengths_are_torn() {
        let tmp = TempDir::new("oversize");
        let mut cfg = StoreConfig::new(tmp.path());
        cfg.max_entry_bytes = 64;
        let (mut store, _) = Store::open(cfg.clone()).unwrap();
        assert!(matches!(
            store.append(&[0u8; 100]),
            Err(StoreError::Invalid(_))
        ));
        store.append(b"fits").unwrap();
        drop(store);
        // A length prefix beyond the cap (e.g. u32::MAX, which would
        // also overflow 32-bit `4 + len + 4` arithmetic) is torn tail,
        // not a panic.
        let journal = tmp.path().join(JOURNAL_FILE);
        let mut f = OpenOptions::new().append(true).open(&journal).unwrap();
        f.write_all(&u32::MAX.to_le_bytes()).unwrap();
        f.write_all(&[0u8; 16]).unwrap();
        drop(f);
        let (_, rec) = Store::open(cfg).unwrap();
        assert!(rec.torn_tail);
        assert_eq!(rec.entries.len(), 1);
    }

    #[test]
    fn snapshot_due_follows_cadence() {
        let tmp = TempDir::new("cadence");
        let mut cfg = StoreConfig::new(tmp.path());
        cfg.snapshot_every_entries = 3;
        let (mut store, _) = Store::open(cfg).unwrap();
        store.append(b"1").unwrap();
        store.append(b"2").unwrap();
        assert!(!store.snapshot_due());
        store.append(b"3").unwrap();
        assert!(store.snapshot_due());
        store.commit_snapshot(b"s").unwrap();
        assert!(!store.snapshot_due());
    }

    #[test]
    fn zero_config_guard() {
        let tmp = TempDir::new("guard");
        let mut cfg = StoreConfig::new(tmp.path());
        cfg.max_entry_bytes = 0;
        assert!(Store::open(cfg).is_err());
    }
}
