//! Unit tests of the segment log, and the power-loss model test: the
//! log driven through a [`Storage`] double that can lose power, against
//! a model of what was acknowledged.

use std::collections::BTreeMap;

use isum_common::framing::{encode_frame, FRAME_HEADER_LEN};
use isum_common::rng::split_mix64;
use proptest::prelude::*;

use super::mem::MemStorage;
use super::*;

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

const SHARD: &str = "default";
const HEADER: u64 = SEGMENT_MAGIC.len() as u64;

fn base() -> PathBuf {
    PathBuf::from("/ckpt.wal")
}

fn stmts(n: usize, salt: u64) -> Vec<(String, Option<f64>)> {
    (0..n)
        .map(|i| {
            (
                format!("SELECT id FROM t WHERE v = {};", salt % 1000 * 100 + i as u64),
                (i % 2 == 0).then_some(i as f64 * 1.5 + 0.25),
            )
        })
        .collect()
}

/// What a shard folds the log into, minus the engine: enough to tell
/// whether two logs mean the same state.
#[derive(Debug, Default, Clone, PartialEq)]
struct Folded {
    stmts: Vec<(String, u64)>,
    next_seq: u64,
    next_wal_seq: u64,
}

impl Folded {
    fn apply(&mut self, record: &Record) {
        self.next_wal_seq = record.wal_seq + 1;
        let stmts =
            record.stmts.iter().map(|(sql, cost)| (sql.clone(), cost.unwrap_or(0.0).to_bits()));
        match record.kind {
            Kind::Batch => {
                self.stmts.extend(stmts);
                if let Some(s) = record.seq {
                    self.next_seq = self.next_seq.max(s + 1);
                }
            }
            Kind::Rebase => {
                self.stmts = stmts.collect();
                self.next_seq = record.seq.expect("a rebase carries the mark");
            }
        }
    }

    fn last(&self, n: usize) -> Vec<(String, Option<f64>)> {
        let start = self.stmts.len().saturating_sub(n);
        let cost = |bits: &u64| Some(f64::from_bits(*bits));
        self.stmts[start..].iter().map(|(sql, bits)| (sql.clone(), cost(bits))).collect()
    }
}

/// Recovery as `crate::shards` runs it: replay, then open for appending.
fn boot<S: Storage + Clone>(storage: &S, segment_bytes: u64) -> io::Result<(Folded, WalWriter<S>)> {
    let mut state = Folded::default();
    let end = replay(storage, &base(), SHARD, |record| state.apply(&record))?;
    state.next_wal_seq = end.next_wal_seq;
    let writer = WalWriter::open(storage.clone(), &base(), segment_bytes, end)?;
    Ok((state, writer))
}

/// Offsets at which the frames of a segment end, the header first.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = vec![SEGMENT_MAGIC.len()];
    let mut pos = SEGMENT_MAGIC.len();
    while pos < bytes.len() {
        match decode_frame(&bytes[pos..]) {
            FrameStatus::Complete { consumed, .. } => {
                pos += consumed;
                ends.push(pos);
            }
            other => panic!("bad frame at {pos}: {other:?}"),
        }
    }
    ends
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

fn encode(r: &Record) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record(&mut out, r, r.wal_seq);
    out
}

fn batch_of(wal_seq: u64, seq: Option<u64>, stmts: Vec<(String, Option<f64>)>) -> Record {
    Record { kind: Kind::Batch, wal_seq, seq, shard: SHARD.into(), stmts }
}

fn batch(wal_seq: u64, seq: Option<u64>, n: usize) -> Record {
    batch_of(wal_seq, seq, stmts(n, wal_seq))
}

/// A batch as a shard hands it to the writer, which numbers it.
fn logged(seq: Option<u64>, shard: &str, stmts: &[(String, Option<f64>)]) -> Record {
    Record { shard: shard.into(), ..batch_of(0, seq, stmts.to_vec()) }
}

fn rebase_of(wal_seq: u64, next_seq: u64, stmts: Vec<(String, Option<f64>)>) -> Record {
    Record { kind: Kind::Rebase, seq: Some(next_seq), ..batch_of(wal_seq, None, stmts) }
}

#[test]
fn records_round_trip_bit_exactly() {
    for record in [
        batch(0, Some(0), 0),
        batch(7, None, 3),
        batch(u64::MAX - 1, Some(u64::MAX), 1),
        Record {
            shard: "t-61636d65".into(),
            ..batch_of(
                2,
                Some(9),
                vec![
                    ("".into(), Some(f64::MIN_POSITIVE)),
                    ("sql with \u{00e9} unicode".into(), Some(-0.0)),
                    ("x".repeat(10_000), None),
                ],
            )
        },
        rebase_of(
            11,
            5,
            vec![("a".into(), Some(-0.0)), ("b".into(), Some(f64::NAN)), ("".into(), Some(1.5))],
        ),
        Record { shard: "h3".into(), ..rebase_of(0, 0, Vec::new()) },
    ] {
        // Compare through `Debug`: it spells out float bits' meaning
        // (`-0.0`, `NaN`) where `==` would not.
        let decoded = decode_record(&encode(&record)).expect("decodes");
        assert_eq!(format!("{decoded:?}"), format!("{record:?}"));
    }
}

#[test]
fn undecodable_payloads_error_without_panicking() {
    let rebase = rebase_of(1, 2, vec![("SELECT 1".into(), Some(2.0))]);
    for good in [encode(&batch(1, Some(2), 2)), encode(&rebase)] {
        for cut in 0..good.len() {
            decode_record(&good[..cut]).expect_err("truncated payload must not decode");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_record(&trailing).unwrap_err().contains("trailing"));
    }
    assert!(decode_record(&[9, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap_err().contains("kind"));
    let mut unmarked = encode(&rebase);
    unmarked[9] = 0; // has_seq
    assert!(decode_record(&unmarked).unwrap_err().contains("mark"));
}

#[test]
fn a_rebase_records_tracker_state_is_written_empty_and_discarded_on_read() {
    let rebase = rebase_of(3, 4, vec![("SELECT 1".into(), Some(2.0))]);
    let payload = encode(&rebase);
    assert!(payload.ends_with(&0u32.to_le_bytes()), "tracker_len is written as 0");
    // An older writer's tracker state: JSON is accepted and dropped, so
    // the replayed rebase re-arms the tracker like a live one.
    let with_state = |state: &[u8]| {
        let mut p = payload[..payload.len() - 4].to_vec();
        p.extend_from_slice(&(state.len() as u32).to_le_bytes());
        p.extend_from_slice(state);
        decode_record(&p)
    };
    let state = br#"{"window":[[0,"3ff0000000000000"]],"above":true}"#;
    assert_eq!(with_state(state).expect("decodes"), rebase);
    // Anything else in those bytes is corruption, as before.
    assert!(with_state(b"{\"window\":").unwrap_err().contains("tracker state"));
    assert!(with_state(&[0xff, 0xfe]).unwrap_err().contains("not UTF-8"));
}

proptest! {
    #[test]
    fn arbitrary_batches_round_trip_bit_exactly(
        wal_seq in any::<u64>(),
        has_seq in any::<bool>(),
        seq in any::<u64>(),
        shard in "[ -~]{0,40}",
        raw_stmts in prop::collection::vec(("[ -~]{0,120}", prop::option::of(any::<u64>())), 0..8),
    ) {
        // Costs travel as raw bits so NaNs, -0.0, and subnormals are
        // all fair inputs — the codec must preserve every pattern.
        let bits: Vec<Option<u64>> = raw_stmts.iter().map(|(_, c)| *c).collect();
        let stmts = raw_stmts.into_iter().map(|(s, c)| (s, c.map(f64::from_bits))).collect();
        let sent = Record { shard, ..batch_of(wal_seq, has_seq.then_some(seq), stmts) };
        let decoded = decode_record(&encode(&sent)).expect("decodes");
        prop_assert_eq!(decoded.kind, Kind::Batch);
        prop_assert_eq!((decoded.wal_seq, decoded.seq, &decoded.shard), (wal_seq, sent.seq, &sent.shard));
        let decoded_bits: Vec<Option<u64>> =
            decoded.stmts.iter().map(|(_, c)| c.map(f64::to_bits)).collect();
        prop_assert_eq!(decoded_bits, bits);
        for ((sql, _), (dsql, _)) in sent.stmts.iter().zip(&decoded.stmts) {
            prop_assert_eq!(sql, dsql);
        }
    }

    #[test]
    fn arbitrary_byte_soup_never_panics_the_decoder(
        payload in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        // Random payloads overwhelmingly fail to decode; the contract
        // is that they fail with an error, not a panic or a bogus
        // record that smuggles garbage into replay.
        let _ = decode_record(&payload);
    }
}

#[test]
fn paths_and_segment_names() {
    assert_eq!(segment_path(Path::new("/x/ckpt.wal"), 7), Path::new("/x/ckpt.wal.00000007"));
    assert_eq!(segment_number("ckpt.wal", "ckpt.wal.00000007"), Some(7));
    assert_eq!(segment_number("ckpt.wal", "ckpt.wal.123456789"), Some(123_456_789));
    for not_a_segment in ["ckpt.wal", "ckpt.wal.7", "ckpt.wal.imported", "ckpt.t-61.wal.00000001"] {
        assert_eq!(segment_number("ckpt.wal", not_a_segment), None, "{not_a_segment}");
    }
    assert_eq!(dir_of(Path::new("ckpt.wal")), Path::new("."));
    assert_eq!(dir_of(Path::new("/x/ckpt.wal")), Path::new("/x"));
}

// ---------------------------------------------------------------------
// Writer and reader
// ---------------------------------------------------------------------

#[test]
fn appends_rotate_at_the_threshold_and_closed_segments_never_change() {
    let storage = MemStorage::default();
    let (state, mut w) = boot(&storage, 300).expect("boots on nothing");
    assert_eq!(state, Folded::default());
    assert_eq!(storage.names(), ["ckpt.wal.00000001"]);
    let mut expected = Folded::default();
    let mut frozen: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut appended = 0;
    for i in 0..12u64 {
        let s = stmts(2, i);
        let stats = w.append(&logged(Some(i), SHARD, &s)).expect("appends");
        appended += stats.bytes;
        expected.apply(&batch_of(i, Some(i), s));
        // Whatever was closed before this append is byte-for-byte what it
        // was: the log only ever writes its newest file.
        let names = storage.names();
        for (name, bytes) in &frozen {
            assert_eq!(&storage.bytes(&Path::new("/").join(name)), bytes, "{name} changed");
        }
        for name in &names[..names.len() - 1] {
            frozen.entry(name.clone()).or_insert_with(|| storage.bytes(&Path::new("/").join(name)));
        }
        let newest = storage.bytes(&Path::new("/").join(names.last().unwrap()));
        assert_eq!(stats.rotations[1].is_some(), newest.len() as u64 == HEADER, "append {i}");
    }
    assert!(w.segments() >= 4, "twelve ~100-byte records over 300-byte segments");
    assert_eq!(
        w.bytes(),
        appended + HEADER * w.segments(),
        "live bytes = frames + one header each"
    );
    assert_eq!((w.next_wal_seq(), w.oldest_wal_seq()), (12, 0));
    drop(w);

    // A clean restart replays all of it and resumes where the log ends.
    let (state, mut w) = boot(&storage, 300).expect("reboots");
    assert_eq!(state, expected);
    assert_eq!((w.next_wal_seq(), w.bytes()), (12, appended + HEADER * w.segments()));
    w.append(&logged(None, SHARD, &stmts(1, 99))).expect("appends after a restart");
    assert_eq!(boot(&storage, 300).expect("reboots").0.next_wal_seq, 13);
}

#[test]
fn torn_appends_poison_the_writer_and_recover_as_a_prefix() {
    // The disk fails partway through an append (EIO): part of the frame
    // reaches the file, the append errors, and the writer refuses
    // everything after it until a restart cuts the torn tail.
    let storage = MemStorage::default();
    let (_, mut w) = boot(&storage, 1 << 20).expect("boots");
    let s = stmts(3, 0);
    w.append(&logged(Some(0), SHARD, &s)).expect("appends");
    let segment = segment_path(&base(), 1);
    let before = storage.bytes(&segment).len();
    let frame = encode_frame(&encode(&batch_of(1, Some(1), s.clone())));
    storage.die_after(1);
    let err = w.append(&logged(Some(1), SHARD, &s)).expect_err("tears");
    assert!(err.to_string().contains("EIO"), "{err}");
    let torn = storage.bytes(&segment).len() - before;
    assert!(0 < torn && torn < frame.len(), "{torn} of {} bytes reached the file", frame.len());
    storage.restart();
    let err = w.append(&logged(Some(2), SHARD, &s)).expect_err("poisoned");
    assert!(err.to_string().contains("poisoned"), "{err}");
    let err = w.append(&rebase_of(1, 2, Vec::new())).expect_err("poisoned");
    assert!(err.to_string().contains("poisoned"), "{err}");
    drop(w);

    let (state, mut w) = boot(&storage, 1 << 20).expect("repairs");
    assert_eq!((state.next_wal_seq, state.next_seq), (1, 1), "only the fsynced record survives");
    assert_eq!(storage.bytes(&segment).len(), before, "the torn tail is cut");
    w.append(&logged(Some(1), SHARD, &s)).expect("appends after repair");
    let (state, _) = boot(&storage, 1 << 20).expect("reads");
    assert_eq!((state.next_wal_seq, state.stmts.len()), (2, 6));
}

#[test]
fn a_rotation_that_fails_after_the_fsync_acks_the_record_and_refuses_the_next() {
    // The record is durable and a restart replays it, so the client must
    // not be told to retry it: at every point the rotation can die, the
    // append that filled the segment is acked and the next one refused.
    let s = stmts(2, 0);
    for dies_in_rotation_at in 1..=4 {
        let storage = MemStorage::default();
        let (_, mut w) = boot(&storage, 1).expect("boots");
        // The record's append and fsync, then fsync / create / header /
        // fsync-directory of the rotation.
        storage.die_after(2 + dies_in_rotation_at);
        let stats = w.append(&logged(Some(0), SHARD, &s)).expect("the record is durable: acked");
        assert_eq!(stats.rotations, [None, None], "no rotation completed");
        let err = w.append(&logged(Some(1), SHARD, &s)).expect_err("refused");
        assert!(err.to_string().contains("poisoned"), "{err}");
        drop(w);
        storage.restart();
        let (state, mut w) = boot(&storage, 1).expect("recovers");
        assert_eq!((state.next_seq, state.stmts.len()), (1, 2), "step {dies_in_rotation_at}");
        w.append(&logged(Some(1), SHARD, &s)).expect("appends after the restart");
    }
}

#[test]
fn cutting_the_last_segment_at_every_offset_recovers_an_exact_prefix() {
    // The crash-repair contract, exhaustively: whatever byte a crash
    // stops the disk at, recovery replays a whole-record prefix — never a
    // panic, never half a batch — and appends cleanly after it. Three
    // closed segments sit before the one that is cut.
    let storage = MemStorage::default();
    let (_, mut w) = boot(&storage, 100).expect("boots");
    for i in 0..3u64 {
        w.append(&logged(Some(i), SHARD, &stmts(2, i))).expect("appends");
    }
    assert_eq!(w.segments(), 4, "every record filled its segment; the fourth is empty");
    drop(w);
    // Grow the last segment to three records without rotating.
    let (_, mut w) = boot(&storage, 1 << 20).expect("reboots");
    for i in 3..6u64 {
        w.append(&logged(Some(i), SHARD, &stmts(2, i))).expect("appends");
    }
    drop(w);
    let last = segment_path(&base(), 4);
    let whole = storage.bytes(&last);
    let ends = frame_ends(&whole);
    assert_eq!(ends.len(), 4, "header + three records");

    for cut in 0..=whole.len() {
        storage.put(&last, &whole[..cut]);
        let survivors = ends.iter().filter(|&&e| e <= cut).count().saturating_sub(1) as u64;
        let (state, mut w) = boot(&storage, 1 << 20).expect("a cut tail is torn, never corrupt");
        assert_eq!(state.next_wal_seq, 3 + survivors, "cut {cut} replays whole records only");
        assert_eq!(state.next_seq, 3 + survivors, "cut {cut}");
        let repaired = ends.iter().filter(|&&e| e <= cut).max().copied().unwrap_or(0).max(8);
        assert_eq!(storage.bytes(&last).len(), repaired, "cut {cut} is repaired to a boundary");
        w.append(&logged(Some(9), SHARD, &stmts(1, 9))).expect("appends after the repair");
        assert_eq!(boot(&storage, 1 << 20).expect("reads").0.next_wal_seq, 4 + survivors);
    }
}

#[test]
fn damage_in_a_closed_segment_a_gap_or_a_foreign_file_refuses_to_start() {
    // Five one-record segments, then a last one holding two records.
    let build = || {
        let storage = MemStorage::default();
        let (_, mut w) = boot(&storage, 100).expect("boots");
        for i in 0..5u64 {
            w.append(&logged(Some(i), SHARD, &stmts(2, i))).expect("appends");
        }
        drop(w);
        let (_, mut w) = boot(&storage, 1 << 20).expect("reboots");
        for i in 5..7u64 {
            w.append(&logged(Some(i), SHARD, &stmts(2, i))).expect("appends");
        }
        assert_eq!(w.segments(), 6);
        storage
    };
    let refuses = |storage: &MemStorage, what: &str| {
        let err = boot(storage, 100).err().unwrap_or_else(|| panic!("{what}: must refuse"));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        err.to_string()
    };

    // A bit flip in a closed segment, in its only (hence final) frame:
    // what the last segment would shrug off as a torn write.
    let storage = build();
    let second = segment_path(&base(), 2);
    let mut bytes = storage.bytes(&second);
    bytes[SEGMENT_MAGIC.len() + FRAME_HEADER_LEN + 3] ^= 0x40;
    storage.put(&second, &bytes);
    assert!(refuses(&storage, "bit flip").contains("closed segment"));

    // A closed segment cut short, even on a frame boundary's header.
    let storage = build();
    storage.put(&second, &storage.bytes(&second)[..5]);
    assert!(refuses(&storage, "short closed segment").contains("closed segment"));

    // A missing segment in the middle, and a missing first segment.
    let storage = build();
    storage.unlink(&second).expect("unlinks");
    assert!(refuses(&storage, "gap").contains("missing"));
    let storage = build();
    storage.unlink(&segment_path(&base(), 1)).expect("unlinks");
    assert!(refuses(&storage, "lost head").contains("missing"));

    // A whole record missing from the end of a closed segment: its frames
    // are fine, the numbering is not.
    let storage = build();
    storage.put(&second, SEGMENT_MAGIC);
    assert!(refuses(&storage, "lost record").contains("follows"));

    // Not a log at all.
    let storage = build();
    storage.put(&segment_path(&base(), 1), b"NOTAWAL0 trailing bytes");
    assert!(refuses(&storage, "bad magic").contains("bad magic"));

    // Another shard's log under this shard's name.
    let storage = MemStorage::default();
    let (_, mut w) = boot(&storage, 100).expect("boots");
    w.append(&logged(Some(0), "acme", &stmts(1, 0))).expect("appends");
    drop(w);
    assert!(
        refuses(&storage, "foreign").contains("record 0 in /ckpt.wal.00000001 names shard `acme`")
    );

    // The same flip in the *last* segment's final frame is a torn tail...
    let flip_in_last = |frame: usize| {
        let storage = build();
        let last = segment_path(&base(), 6);
        let mut bytes = storage.bytes(&last);
        let at = frame_ends(&bytes)[frame] + FRAME_HEADER_LEN + 3;
        bytes[at] ^= 0x40;
        storage.put(&last, &bytes);
        storage
    };
    let (state, _) = boot(&flip_in_last(1), 100).expect("a damaged tail is repaired");
    assert_eq!(state.next_wal_seq, 6, "the damaged final record is dropped, nothing else");
    // ...and in its first frame, with a good one after it, is not.
    assert!(refuses(&flip_in_last(0), "mid-log").contains("mid-log"));
}

#[test]
fn a_rebase_opens_a_segment_and_retires_the_ones_before_it() {
    let storage = MemStorage::default();
    let (_, mut w) = boot(&storage, 500).expect("boots");
    let mut expected = Folded::default();
    for i in 0..6u64 {
        let s = stmts(2, i);
        w.append(&logged(Some(i), SHARD, &s)).expect("appends");
        expected.apply(&batch_of(i, Some(i), s));
    }
    let before = storage.names();
    assert!(before.len() >= 2 && w.active.records > 0);
    let rotated = w.segments();
    let rebase = rebase_of(w.next_wal_seq(), 6, expected.last(3));
    let stats = w.append(&rebase).expect("logs the rebase");
    assert_eq!((rebase.wal_seq, rebase.stmts.len()), (6, 3));
    let rotations = stats.rotations.iter().flatten().count() as u64;
    assert_eq!(w.segments() - rotated, rotations, "every rotation a rebase makes is reported");
    assert!(stats.rotations[0].is_some(), "the one that closes the segment in use");
    expected.apply(&rebase);
    assert!(
        storage.names().len() > before.len() - 1,
        "nothing is unlinked before the caller applies"
    );
    w.retire_rebased();
    let after = storage.names();
    assert_eq!(after.len(), 1, "only the rebase segment is left: {after:?}");
    assert_eq!((w.segments(), w.oldest_wal_seq(), w.next_wal_seq()), (1, 6, 7));
    w.append(&logged(Some(6), SHARD, &stmts(1, 6))).expect("appends after the rebase");
    drop(w);

    let (state, _) = boot(&storage, 500).expect("a log may start at a rebase segment");
    assert_eq!(state.stmts.len(), 4);
    assert_eq!(&state.stmts[..3], &expected.stmts[..]);
    assert_eq!((state.next_seq, state.next_wal_seq), (7, 8));

    // A rebase record anywhere but at the head of a segment is corruption.
    let only = Path::new("/").join(&after[0]);
    let bytes = storage.bytes(&only);
    let ends = frame_ends(&bytes);
    let mut swapped = bytes[..8].to_vec();
    swapped.extend_from_slice(&bytes[ends[1]..ends[2]]);
    swapped.extend_from_slice(&bytes[ends[0]..ends[1]]);
    storage.put(&only, &swapped);
    assert!(boot(&storage, 500).is_err());
}

// ---------------------------------------------------------------------
// The power-loss model
// ---------------------------------------------------------------------

/// One seeded schedule of batches, rebases, injected I/O death, clean
/// restarts and power cuts against a model of what was acknowledged.
/// After every recovery the log must mean exactly the acknowledged
/// state, or that plus the one operation that was in flight.
fn run_schedule(seed: u64) {
    let storage = MemStorage::seeded(seed);
    let mut rng = seed ^ 0xA5A5_5A5A_0F0F_F0F0;
    let mut below = |n: u64| split_mix64(&mut rng) % n;
    let segment_bytes = [1, 120, 400, 1 << 20][below(4) as usize];
    let (state, mut writer) = boot(&storage, segment_bytes).expect("boots on nothing");
    assert_eq!(state, Folded::default());
    let mut acked = Folded::default();
    for step in 0..40 {
        // What the state becomes if the operation in flight lands.
        let mut in_flight: Option<Folded> = None;
        let mut restart = false;
        match below(12) {
            0..=6 => {
                let seq = (below(4) > 0).then_some(acked.next_seq);
                let s = stmts(below(4) as usize, seed.wrapping_add(step));
                let record = batch_of(acked.next_wal_seq, seq, s);
                let mut landed = acked.clone();
                landed.apply(&record);
                match writer.append(&record) {
                    Ok(_) => acked = landed,
                    Err(_) => (in_flight, restart) = (Some(landed), true),
                }
            }
            7..=8 => {
                let keep = acked.last(below(6) as usize);
                let record = rebase_of(acked.next_wal_seq, acked.next_seq, keep);
                let mut landed = acked.clone();
                landed.apply(&record);
                match writer.append(&record) {
                    Ok(_) => {
                        acked = landed;
                        writer.retire_rebased();
                    }
                    Err(_) => (in_flight, restart) = (Some(landed), true),
                }
            }
            9 => storage.die_after(1 + below(8)),
            _ => restart = true,
        }
        if !restart {
            continue;
        }
        drop(writer);
        if below(2) == 0 {
            storage.power_loss();
        } else {
            storage.restart();
        }
        let (recovered, reopened) = boot(&storage, segment_bytes).unwrap_or_else(|e| {
            panic!("seed {seed} step {step}: recovery refused: {e} ({:?})", storage.names())
        });
        assert!(
            recovered == acked || Some(&recovered) == in_flight.as_ref(),
            "seed {seed} step {step}: recovered {recovered:?}\n acked {acked:?}\n in flight {in_flight:?}"
        );
        // Recovery made what it read durable, so it is the new baseline.
        acked = recovered;
        writer = reopened;
    }
}

proptest! {
    #[test]
    fn power_loss_never_loses_an_acked_record(seed in any::<u64>()) {
        run_schedule(seed);
    }
}

/// Schedules that caught something once. 16261543093784843042: a power
/// cut keeps only the first of a rebase's two unlinks, so the log starts
/// at an overruled segment that is neither segment 1 nor a rebase — which
/// recovery must accept, because a later segment is a rebase.
#[test]
fn schedules_that_failed_once_stay_fixed() {
    for seed in [16261543093784843042, 15719939643198324472, 10108658920770327952] {
        run_schedule(seed);
    }
}

/// The sequence this log replaced, on the same double: snapshot to a
/// temporary file, rename it into place, cut the log back to its header
/// — with no fsync on the snapshot or the directory. Some power cut
/// then keeps the cut-down log and loses the snapshot's bytes, and every
/// batch acknowledged before the compaction is gone. (The same batches
/// through the segment log survive every power cut: the proptest above.)
#[test]
fn the_retired_snapshot_then_truncate_sequence_loses_acked_batches() {
    let mut lost = 0;
    for seed in 0..64 {
        let storage = MemStorage::seeded(seed);
        let log_path = Path::new("/ckpt.wal");
        let mut log = storage.create(log_path).expect("creates");
        storage.append(&mut log, SEGMENT_MAGIC).expect("writes");
        storage.sync_file(&mut log).expect("fsyncs");
        storage.sync_dir(Path::new("/")).expect("fsyncs");
        let mut acked = Vec::new();
        for wal_seq in 0..4u64 {
            let record = batch(wal_seq, Some(wal_seq), 2);
            storage.append(&mut log, &encode_frame(&encode(&record))).expect("writes");
            storage.sync_file(&mut log).expect("fsyncs before the ack");
            acked.push(record);
        }
        // engine::write_checkpoint + compact_shard, as they were.
        let mut tmp = storage.create(Path::new("/ckpt.json.tmp")).expect("creates");
        storage.append(&mut tmp, format!("{acked:?}").as_bytes()).expect("writes the snapshot");
        storage.rename(Path::new("/ckpt.json.tmp"), Path::new("/ckpt.json"));
        let mut log = storage.open_end(log_path, HEADER).expect("truncates the log");
        storage.sync_file(&mut log).expect("truncate_for_compaction did fsync the log");

        storage.power_loss();
        let snapshot = storage.read(Path::new("/ckpt.json")).unwrap_or_default();
        let mut replayed = Vec::new();
        read_records(log_path, &storage.bytes(log_path), true, |r| {
            replayed.push(r);
            Ok(())
        })
        .expect("reads");
        let snapshot_whole = snapshot == format!("{acked:?}").as_bytes();
        if !snapshot_whole && replayed.len() < acked.len() {
            lost += 1;
        }
    }
    assert!(lost > 0, "the old sequence must be seen losing acknowledged batches");
}
