//! Per-shard segmented write-ahead log — the daemon's one durability
//! artifact (DESIGN.md §14).
//!
//! Each applied batch appends exactly one record and fsyncs before the
//! sequencer acks, so an acknowledged batch survives any crash, power
//! loss included. The log is a run of immutable *segments*; only the
//! newest is ever written, nothing is truncated or renamed while
//! serving, and recovery replays every live segment in order through the
//! normal observe path, which keeps a restarted server byte-identical to
//! one that never crashed.
//!
//! # Files
//!
//! ```text
//! <base>.wal.00000001        closed segment (immutable)
//! <base>.wal.00000002        closed segment
//! <base>.wal.00000003        active segment: appends go here
//! ```
//!
//! Segment numbers are contiguous. A segment is
//!
//! ```text
//! [8-byte magic "ISUMWAL2"]
//! [frame]*            // isum_common::framing: [len u32][crc32 u32][payload]
//! ```
//!
//! and a frame's payload is one record, all integers little-endian:
//!
//! ```text
//! kind: u8                    // 0 = batch, 1 = rebase
//! wal_seq: u64                // per-shard record number, contiguous across segments
//! has_seq: u8, seq: u64       // batch: the client sequence number, if sequenced;
//!                             // rebase: the shard's high-water mark (always present)
//! shard_len: u16, shard: [u8] // owning shard name (UTF-8)
//! count: u32, then per statement:
//!   sql_len: u32, sql: [u8]   // lenient-split statement text (UTF-8)
//!   has_cost: u8, cost_bits: u64
//! rebase only:
//!   tracker_len: u32, tracker: [u8]   // written empty (0); a nonempty one must
//!                                     // be JSON and is discarded on replay
//! ```
//!
//! A *rebase* record replaces everything before it: the shard's state is
//! exactly its statements. It is always the first record of its segment,
//! which is what makes the older segments deletable.
//!
//! # Orders that make it power-loss safe
//!
//! * **Append**: write the frame, fsync the file, then ack.
//! * **Rotate** (the active segment reached the size threshold): fsync
//!   the file, create the next segment, fsync the directory. A record is
//!   only ever acked from a segment whose directory entry is durable. A
//!   rotation that fails after its record's fsync still acks that record
//!   (it is durable and will be replayed) and refuses the next.
//! * **Rebase**: rotate if the active segment holds anything, append the
//!   rebase record, fsync the file and the directory; only then unlink
//!   the older segments, oldest first, so what is left is a contiguous
//!   run at every instant. The unlinks need no fsync: a segment that
//!   comes back is replayed and then overruled by the rebase record.
//!
//! # Torn tail vs corruption
//!
//! A crash can only tear the end of the *last* segment (appends are
//! sequential and fsynced, closed segments are never written again), so
//! [`replay`] cuts the last segment at its first bad length or CRC **iff
//! nothing follows it**. Anything else — a bad frame with bytes after
//! it, any bad frame in a closed segment, a missing segment, a jump in
//! `wal_seq` — is corruption, and the reader refuses to start rather
//! than silently drop acknowledged batches.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use isum_common::framing::{decode_frame, frame_into, ByteReader, FrameStatus};
use isum_common::{count, warn, Json};

/// Leading magic of a segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"ISUMWAL2";

/// What a record does to the state before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Its statements are applied on top (one ingest batch).
    Batch = 0,
    /// Its statements replace it: the shard was rebuilt over a suffix of
    /// its history (drift re-summarization).
    Rebase = 1,
}

/// One log record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Batch or rebase.
    pub kind: Kind,
    /// Per-shard record number.
    pub wal_seq: u64,
    /// Batch: the client sequence number, when the batch was sequenced.
    /// Rebase: the shard's sequencer high-water mark (always `Some`).
    pub seq: Option<u64>,
    /// Name of the shard that wrote the record — a safety check that a
    /// log was not moved between shards.
    pub shard: String,
    /// Lenient-split `(sql, explicit cost)` statements, in order — exactly
    /// the input `Engine::apply_statements` (batch) or `Engine::rebase`
    /// (rebase: every cost present, as first ingested) consumes.
    pub stmts: Vec<(String, Option<f64>)>,
}

/// Appends the payload of `record` numbered `wal_seq` to `out` (module
/// docs for the layout).
fn encode_record(out: &mut Vec<u8>, record: &Record, wal_seq: u64) {
    let put_bytes = |out: &mut Vec<u8>, bytes: &[u8]| {
        out.extend_from_slice(&u32::try_from(bytes.len()).expect("fits a frame").to_le_bytes());
        out.extend_from_slice(bytes);
    };
    out.push(record.kind as u8);
    out.extend_from_slice(&wal_seq.to_le_bytes());
    out.push(record.seq.is_some() as u8);
    out.extend_from_slice(&record.seq.unwrap_or(0).to_le_bytes());
    let shard_len = u16::try_from(record.shard.len()).expect("tenant names are at most 64 bytes");
    out.extend_from_slice(&shard_len.to_le_bytes());
    out.extend_from_slice(record.shard.as_bytes());
    out.extend_from_slice(&(record.stmts.len() as u32).to_le_bytes());
    for (sql, cost) in &record.stmts {
        put_bytes(out, sql.as_bytes());
        out.push(cost.is_some() as u8);
        out.extend_from_slice(&cost.unwrap_or(0.0).to_bits().to_le_bytes());
    }
    if record.kind == Kind::Rebase {
        // `tracker_len`: replay re-arms the drift tracker after a rebase,
        // so no tracker state is written.
        out.extend_from_slice(&0u32.to_le_bytes());
    }
}

/// Decodes one frame payload back into a record. `Err` carries the parse
/// failure: a CRC-valid payload that does not decode is corruption, not a
/// torn write.
pub fn decode_record(payload: &[u8]) -> Result<Record, String> {
    let short = || "record payload truncated".to_string();
    let mut r = ByteReader::new(payload);
    let text = |r: &mut ByteReader<'_>, len: usize, what: &str| {
        let bytes = r.bytes(len).ok_or_else(short)?;
        std::str::from_utf8(bytes).map(str::to_string).map_err(|_| format!("{what} is not UTF-8"))
    };
    let flag = |r: &mut ByteReader<'_>, what: &str| match r.u8().ok_or_else(short)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(format!("bad {what} flag {other}")),
    };
    let kind = match r.u8().ok_or_else(short)? {
        0 => Kind::Batch,
        1 => Kind::Rebase,
        other => return Err(format!("unknown record kind {other}")),
    };
    let wal_seq = r.u64().ok_or_else(short)?;
    let has_seq = flag(&mut r, "seq")?;
    let seq = Some(r.u64().ok_or_else(short)?).filter(|_| has_seq);
    if kind == Kind::Rebase && seq.is_none() {
        return Err("rebase record without a sequencer mark".into());
    }
    let shard_len = r.u16().ok_or_else(short)? as usize;
    let shard = text(&mut r, shard_len, "shard name")?;
    let n = r.u32().ok_or_else(short)? as usize;
    let mut stmts = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let sql_len = r.u32().ok_or_else(short)? as usize;
        let sql = text(&mut r, sql_len, "statement")?;
        let has_cost = flag(&mut r, "cost")?;
        let bits = r.u64().ok_or_else(short)?;
        stmts.push((sql, has_cost.then(|| f64::from_bits(bits))));
    }
    if kind == Kind::Rebase {
        // Tracker state of an older writer: checked, then discarded —
        // replay re-arms the tracker, as a live rebase does.
        let len = r.u32().ok_or_else(short)? as usize;
        let state = text(&mut r, len, "tracker state")?;
        if !state.is_empty() {
            Json::parse(&state).map_err(|e| format!("tracker state: {e}"))?;
        }
    }
    if r.remaining() != 0 {
        return Err(format!("{} trailing bytes after record", r.remaining()));
    }
    Ok(Record { kind, wal_seq, seq, shard, stmts })
}

// ---------------------------------------------------------------------
// The storage seam
// ---------------------------------------------------------------------

/// Everything the log asks of a file system: create a file and append
/// to it, make a file durable, make a directory's entries durable, list
/// and read, unlink — plus cutting a torn tail off the last segment at
/// start-up. Production is [`DiskStorage`]; the tests substitute a model
/// that can lose power.
pub trait Storage {
    /// An open, append-only file.
    type File;
    /// Creates `path`, which must not exist.
    fn create(&self, path: &Path) -> io::Result<Self::File>;
    /// Opens `path` for appending after cutting it to `len` bytes.
    fn open_end(&self, path: &Path, len: u64) -> io::Result<Self::File>;
    /// Appends all of `bytes`.
    fn append(&self, file: &mut Self::File, bytes: &[u8]) -> io::Result<()>;
    /// Returns once the file's bytes are on stable storage.
    fn sync_file(&self, file: &mut Self::File) -> io::Result<()>;
    /// Returns once `dir`'s creates and unlinks are on stable storage.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// File names in `dir` (a missing directory is an error).
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// The whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Removes `path`.
    fn unlink(&self, path: &Path) -> io::Result<()>;
}

/// [`Storage`] on `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskStorage;

impl Storage for DiskStorage {
    type File = std::fs::File;

    fn create(&self, path: &Path) -> io::Result<std::fs::File> {
        std::fs::OpenOptions::new().append(true).create_new(true).open(path)
    }

    fn open_end(&self, path: &Path, len: u64) -> io::Result<std::fs::File> {
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        if file.metadata()?.len() > len {
            // Start-up repair of a torn tail: the one in-place cut.
            file.set_len(len)?;
        }
        Ok(file)
    }

    fn append(&self, file: &mut std::fs::File, bytes: &[u8]) -> io::Result<()> {
        file.write_all(bytes)
    }

    fn sync_file(&self, file: &mut std::fs::File) -> io::Result<()> {
        file.sync_data()
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::File::open(dir)?.sync_all()
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            if let Ok(name) = entry?.file_name().into_string() {
                names.push(name);
            }
        }
        Ok(names)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn unlink(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

/// The directory holding `path` (`.` for a bare file name).
pub fn dir_of(path: &Path) -> &Path {
    path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."))
}

/// Segment `n` of the log at `base`.
pub fn segment_path(base: &Path, n: u64) -> PathBuf {
    let name = base.file_name().and_then(|n| n.to_str()).unwrap_or_default();
    base.with_file_name(format!("{name}.{n:08}"))
}

/// The segment number `file` carries if it is a segment of the log whose
/// base file is named `base_name`.
pub fn segment_number(base_name: &str, file: &str) -> Option<u64> {
    let digits = file.strip_prefix(base_name)?.strip_prefix('.')?;
    (digits.len() >= 8 && digits.bytes().all(|b| b.is_ascii_digit()))
        .then(|| digits.parse().ok())
        .flatten()
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

fn corrupt(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Decodes the records of one log file (`bytes` of `path`) in order. A
/// torn tail — a short header, a frame cut short, or a bad final frame —
/// is tolerated only when `last`; returns the length of the valid prefix
/// and whether anything was cut.
pub fn read_records(
    path: &Path,
    bytes: &[u8],
    last: bool,
    mut each: impl FnMut(Record) -> io::Result<()>,
) -> io::Result<(u64, bool)> {
    let name = path.display();
    let torn = |at: usize, what: &str| {
        if last {
            warn!(
                "server.wal",
                format!("{what} in {name}, truncating"),
                offset = at,
                dropped_bytes = bytes.len() - at
            );
            Ok((at as u64, true))
        } else {
            Err(corrupt(format!(
                "{what} at byte {at} of closed segment {name}; refusing to drop acknowledged \
                 batches"
            )))
        }
    };
    if bytes.len() < SEGMENT_MAGIC.len() {
        // Crash while the header itself was being written.
        return torn(0, "torn log header");
    }
    if &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Err(corrupt(format!("{name} is not an ISUM WAL (bad magic)")));
    }
    let mut pos = SEGMENT_MAGIC.len();
    while pos < bytes.len() {
        match decode_frame(&bytes[pos..]) {
            FrameStatus::Complete { payload, consumed } => {
                let record = decode_record(payload).map_err(|e| {
                    corrupt(format!("corrupt WAL record at byte {pos} of {name}: {e}"))
                })?;
                each(record)?;
                pos += consumed;
            }
            FrameStatus::Torn => return torn(pos, "torn final WAL record"),
            FrameStatus::Corrupt { consumed } if pos + consumed >= bytes.len() => {
                // The bad frame is the last thing in the file — a torn
                // write whose tail happened to be present-but-wrong.
                return torn(pos, "checksum-failed final WAL record");
            }
            FrameStatus::Corrupt { consumed } => {
                return Err(corrupt(format!(
                    "mid-log corruption at byte {pos} of {name} ({} bytes follow the bad record); \
                     refusing to drop acknowledged batches",
                    bytes.len() - pos - consumed
                )));
            }
        }
    }
    Ok((pos as u64, false))
}

/// One live segment as [`replay`] found it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentInfo {
    /// The segment's number.
    pub number: u64,
    /// Its valid length in bytes (header included).
    pub len: u64,
    /// `wal_seq` of its first record (of the next record, while empty).
    pub first_wal_seq: u64,
    /// Records it holds.
    pub records: u64,
}

/// Where a log ends — what [`WalWriter::open`] resumes from.
#[derive(Debug, Default)]
pub struct LogEnd {
    /// Live segments, oldest first; empty for a log that never existed.
    pub segments: Vec<SegmentInfo>,
    /// True when the last segment ended in a torn record.
    pub torn: bool,
    /// `wal_seq` the next record gets.
    pub next_wal_seq: u64,
    /// The newest segment that starts with a rebase record: everything
    /// older is dead weight a crash kept from being unlinked.
    pub rebase_segment: Option<u64>,
}

impl LogEnd {
    /// Records across all live segments.
    pub fn records(&self) -> u64 {
        self.segments.iter().map(|s| s.records).sum()
    }
}

/// Replays the log of shard `shard` at `base`: every live segment in
/// order, every record through `each`. One segment is in memory at a time.
/// A record that names another shard is corruption like any other: the
/// file was copied or renamed from another shard's log.
pub fn replay<S: Storage>(
    storage: &S,
    base: &Path,
    shard: &str,
    mut each: impl FnMut(Record),
) -> io::Result<LogEnd> {
    let base_name = base.file_name().and_then(|n| n.to_str()).unwrap_or_default();
    let mut numbers: Vec<u64> = storage
        .list(dir_of(base))?
        .iter()
        .filter_map(|file| segment_number(base_name, file))
        .collect();
    numbers.sort_unstable();
    let mut end = LogEnd::default();
    let mut expected: Option<u64> = None;
    for (i, &number) in numbers.iter().enumerate() {
        let path = segment_path(base, number);
        if i > 0 && number != numbers[i - 1] + 1 {
            return Err(corrupt(format!(
                "segment {} is missing before {}; refusing to drop acknowledged batches",
                numbers[i - 1] + 1,
                path.display()
            )));
        }
        let bytes = storage.read(&path)?;
        let last = i + 1 == numbers.len();
        let mut info = SegmentInfo { number, len: 0, first_wal_seq: 0, records: 0 };
        let (len, torn) = read_records(&path, &bytes, last, |record| {
            let wal_seq = record.wal_seq;
            if expected.is_some_and(|e| e != wal_seq) {
                return Err(corrupt(format!(
                    "record {wal_seq} follows record {} in {}; refusing to drop acknowledged \
                     batches",
                    expected.unwrap_or_default().wrapping_sub(1),
                    path.display()
                )));
            }
            if record.shard != shard {
                return Err(corrupt(format!(
                    "record {wal_seq} in {} names shard `{}` but this is shard `{shard}`'s log \
                     (was the file copied or renamed?); refusing to start",
                    path.display(),
                    record.shard
                )));
            }
            match (record.kind, info.records) {
                (Kind::Rebase, 0) => end.rebase_segment = Some(number),
                (Kind::Rebase, _) => {
                    return Err(corrupt(format!(
                        "rebase record {wal_seq} is not the first record of {}",
                        path.display()
                    )))
                }
                (Kind::Batch, _) => {}
            }
            if info.records == 0 {
                info.first_wal_seq = wal_seq;
            }
            info.records += 1;
            expected = Some(wal_seq + 1);
            each(record);
            Ok(())
        })?;
        info.len = len;
        if info.records == 0 {
            info.first_wal_seq = expected.unwrap_or(0);
        }
        end.torn = torn;
        end.segments.push(info);
    }
    // Segments only ever go missing from the front because a rebase
    // record overruled them (a crash mid-unlink leaves any suffix of the
    // overruled ones behind).
    if let Some(first) = end.segments.first().filter(|s| s.number != 1) {
        if end.rebase_segment.is_none() {
            return Err(corrupt(format!(
                "the log starts at {} and holds no rebase record; the segments before it are \
                 missing",
                segment_path(base, first.number).display()
            )));
        }
    }
    end.next_wal_seq = expected.unwrap_or(0);
    Ok(end)
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// The append side of the log, owned by a shard's worker thread.
///
/// Every operation is durable before it returns. A failed append
/// poisons the writer: whatever part of the frame reached the file stays
/// there (exactly what a crash would leave) and every later append
/// refuses, turning the shard read-only-for-ingest until restart —
/// recovery then cuts the torn tail.
pub struct WalWriter<S: Storage = DiskStorage> {
    storage: S,
    base: PathBuf,
    /// Size at which the active segment is closed.
    segment_bytes: u64,
    file: S::File,
    active: SegmentInfo,
    /// Closed live segments, oldest first.
    closed: VecDeque<SegmentInfo>,
    /// Bytes across `closed` and `active`.
    live_bytes: u64,
    /// The segment the latest rebase record opens, until the segments
    /// before it are unlinked.
    rebase_segment: Option<u64>,
    next_wal_seq: u64,
    /// The frame being appended; kept so an append allocates nothing.
    frame: Vec<u8>,
    poisoned: bool,
}

/// What one durable append cost, for telemetry.
#[derive(Debug)]
pub struct AppendStats {
    /// Bytes appended (framing + payload).
    pub bytes: u64,
    /// How long the write and its fsync took.
    pub fsync: Duration,
    /// How long each rotation took: the one a rebase makes first when
    /// the active segment holds anything, and the one after a record that
    /// filled its segment.
    pub rotations: [Option<Duration>; 2],
}

impl<S: Storage> WalWriter<S> {
    /// Opens the log [`replay`] just read for appending: cuts a torn
    /// tail, creates segment 1 for a new log, makes what recovery saw
    /// durable (a crashed process can leave bytes and directory entries
    /// the disk never got, and recovery is about to serve them), and
    /// finishes any unlinking a crash interrupted.
    pub fn open(storage: S, base: &Path, segment_bytes: u64, end: LogEnd) -> io::Result<Self> {
        let header = SEGMENT_MAGIC.len() as u64;
        let mut closed: VecDeque<SegmentInfo> = end.segments.into();
        let (mut file, active) = match closed.pop_back() {
            Some(mut last) => {
                // A header the crash tore is written again from byte 0.
                let keep = if last.len < header { 0 } else { last.len };
                let mut file = storage.open_end(&segment_path(base, last.number), keep)?;
                if keep == 0 {
                    storage.append(&mut file, SEGMENT_MAGIC)?;
                    last.len = header;
                }
                (file, last)
            }
            None => {
                let mut file = storage.create(&segment_path(base, 1))?;
                storage.append(&mut file, SEGMENT_MAGIC)?;
                let first = SegmentInfo {
                    number: 1,
                    len: header,
                    first_wal_seq: end.next_wal_seq,
                    records: 0,
                };
                (file, first)
            }
        };
        storage.sync_file(&mut file)?;
        storage.sync_dir(dir_of(base))?;
        let live_bytes = closed.iter().map(|s| s.len).sum::<u64>() + active.len;
        let mut writer = WalWriter {
            storage,
            base: base.to_path_buf(),
            segment_bytes,
            file,
            active,
            closed,
            live_bytes,
            rebase_segment: end.rebase_segment,
            next_wal_seq: end.next_wal_seq,
            frame: Vec::new(),
            poisoned: false,
        };
        writer.retire_rebased();
        Ok(writer)
    }

    /// Logs `record` durably under the next `wal_seq` (assigned here:
    /// the record's own `wal_seq` is what a reader decodes, not an input)
    /// and fsyncs before returning. A rebase record opens a segment — the
    /// writer rotates first if the active one holds anything — and the
    /// directory is fsynced too; the caller applies it and then calls
    /// [`retire_rebased`](Self::retire_rebased).
    pub fn append(&mut self, record: &Record) -> io::Result<AppendStats> {
        self.refuse_if_poisoned()?;
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        let wal_seq = self.next_wal_seq;
        frame_into(&mut frame, |out| encode_record(out, record, wal_seq));
        let stats = match record.kind {
            Kind::Batch => {
                let stats = self.commit(&frame);
                // Kept so the next append allocates nothing; a rebase's
                // frame is dropped (it can be as large as the shard's
                // whole state).
                self.frame = frame;
                stats.inspect(|_| count!("server.wal.appends"))
            }
            Kind::Rebase => self.log_rebase(&frame).inspect(|_| count!("server.wal.rebases")),
        };
        self.poison_on_error(stats)
    }

    fn log_rebase(&mut self, frame: &[u8]) -> io::Result<AppendStats> {
        let before = if self.active.records > 0 { Some(self.rotate()?) } else { None };
        let at = self.active.number;
        let mut stats = self.commit(frame)?;
        self.storage.sync_dir(dir_of(&self.base))?;
        self.rebase_segment = Some(at);
        stats.rotations[0] = before;
        Ok(stats)
    }

    /// Unlinks the segments the latest rebase record made irrelevant,
    /// oldest first. A failure is logged and left for the next start-up
    /// (or rebase): a stale segment costs replay time, never correctness.
    pub fn retire_rebased(&mut self) {
        let Some(keep_from) = self.rebase_segment else { return };
        while let Some(oldest) = self.closed.front().filter(|s| s.number < keep_from) {
            let path = segment_path(&self.base, oldest.number);
            if let Err(e) = self.storage.unlink(&path) {
                count!("server.wal.errors");
                warn!("server.wal", format!("could not unlink {}: {e}", path.display()));
                return;
            }
            self.live_bytes -= oldest.len;
            self.closed.pop_front();
        }
        self.rebase_segment = None;
    }

    /// Appends one frame to the active segment, fsyncs it, and closes
    /// the segment if that filled it. Once the fsync returned the record
    /// is durable and will be replayed, so a rotation that fails after it
    /// must not turn the append into an error (the client would retry a
    /// batch that a restart applies anyway): the record is acked and the
    /// writer refuses whatever comes next.
    fn commit(&mut self, frame: &[u8]) -> io::Result<AppendStats> {
        let start = Instant::now();
        self.storage.append(&mut self.file, frame)?;
        self.storage.sync_file(&mut self.file)?;
        let fsync = start.elapsed();
        self.next_wal_seq += 1;
        self.active.len += frame.len() as u64;
        self.live_bytes += frame.len() as u64;
        self.active.records += 1;
        let mut after = None;
        if self.active.len >= self.segment_bytes {
            match self.rotate() {
                Ok(took) => after = Some(took),
                Err(e) => {
                    self.poisoned = true;
                    count!("server.wal.errors");
                    warn!(
                        "server.wal",
                        format!(
                            "rotation failed after record {} was durable: {e}",
                            self.next_wal_seq - 1
                        )
                    );
                }
            }
        }
        Ok(AppendStats { bytes: frame.len() as u64, fsync, rotations: [None, after] })
    }

    /// Closes the active segment and opens the next: fsync the file,
    /// create its successor, fsync the directory — in that order, so no
    /// record is ever acked from a segment a power cut can make vanish.
    /// Returns how long it took.
    fn rotate(&mut self) -> io::Result<Duration> {
        let start = Instant::now();
        self.storage.sync_file(&mut self.file)?;
        let number = self.active.number + 1;
        let mut file = self.storage.create(&segment_path(&self.base, number))?;
        self.storage.append(&mut file, SEGMENT_MAGIC)?;
        self.storage.sync_dir(dir_of(&self.base))?;
        self.file = file;
        self.live_bytes += SEGMENT_MAGIC.len() as u64;
        self.closed.push_back(self.active);
        self.active = SegmentInfo {
            number,
            len: SEGMENT_MAGIC.len() as u64,
            first_wal_seq: self.next_wal_seq,
            records: 0,
        };
        count!("server.wal.rotations");
        Ok(start.elapsed())
    }

    fn refuse_if_poisoned(&self) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(format!(
                "WAL {} is poisoned by an earlier failed append; restart to recover",
                self.base.display()
            )));
        }
        Ok(())
    }

    fn poison_on_error<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        if result.is_err() {
            self.poisoned = true;
            count!("server.wal.errors");
        }
        result
    }

    /// Bytes across live segments (headers included).
    pub fn bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Live segments, the active one included.
    pub fn segments(&self) -> u64 {
        self.closed.len() as u64 + 1
    }

    /// `wal_seq` of the oldest record still on disk (of the next record,
    /// for an empty log).
    pub fn oldest_wal_seq(&self) -> u64 {
        self.closed.front().unwrap_or(&self.active).first_wal_seq
    }

    /// `wal_seq` the next append will be assigned.
    pub fn next_wal_seq(&self) -> u64 {
        self.next_wal_seq
    }
}

#[cfg(test)]
pub(crate) mod mem;
#[cfg(test)]
mod tests;
