//! Property test for crash recovery: for arbitrary committed record
//! sequences, truncating the segment at **every** byte boundary inside
//! the final record must recover exactly the committed prefix — same
//! record count, same lookups, same ledger-style fingerprint — and
//! report the torn bytes. This is the byte-level half of the kill-resume
//! chaos proof (the process-level half lives in `tests/swarm_chaos.rs`
//! at the workspace root). A flipped bit anywhere else must never
//! silently cost a committed record: open refuses the segment with
//! `InvalidData` and leaves it untouched, unless the flip is confined
//! to the final record, which is then dropped like a torn tail.

use dr_dag::{Placement, Traversal};
use dr_sim::{BenchResult, Percentiles};
use dr_store::{ResultStore, StoredRecord, SEGMENT_FILE};
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Ledger-style record-set fingerprint (same constants and fold as
/// `dr_core::records_fingerprint` and the store), recomputed here from
/// first principles so the test does not trust the implementation.
fn reference_fingerprint(records: &[StoredRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for rec in records {
        for v in [rec.traversal.canonical_hash(), rec.result.time().to_bits()] {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// A fresh scratch directory per proptest case.
fn case_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dr-store-prop-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Arbitrary traversal: 1–4 placements with small op ids and optional
/// stream bindings.
fn arb_traversal() -> impl Strategy<Value = Traversal> {
    vec((0usize..64, 0usize..5), 1..5).prop_map(|steps| Traversal {
        steps: steps
            .into_iter()
            .map(|(op, s)| Placement {
                op,
                stream: (s > 0).then(|| s - 1),
            })
            .collect(),
    })
}

/// Arbitrary finite measurement set; percentiles derived from it so the
/// record is shaped like real bench output (the store does not care).
fn arb_record() -> impl Strategy<Value = StoredRecord> {
    (arb_traversal(), vec(1u64..2_000_000, 1..6)).prop_map(|(traversal, raw)| {
        let measurements: Vec<f64> = raw.iter().map(|&m| m as f64 * 1e-7).collect();
        let mut sorted = measurements.clone();
        sorted.sort_by(f64::total_cmp);
        let q = |f: f64| sorted[((sorted.len() - 1) as f64 * f) as usize];
        StoredRecord {
            traversal,
            result: BenchResult {
                measurements,
                percentiles: Percentiles {
                    p01: q(0.01),
                    p10: q(0.10),
                    p50: q(0.50),
                    p90: q(0.90),
                    p99: q(0.99),
                },
            },
        }
    })
}

/// Appends `records` to a fresh store in `dir`, returning the segment
/// bytes and the offset where each record's frame starts (magic is 8
/// bytes, frame header 12).
fn write_segment(dir: &Path, records: &[StoredRecord]) -> (Vec<u8>, Vec<usize>) {
    let store = ResultStore::open(dir).unwrap();
    for rec in records {
        store.append(&rec.traversal, &rec.result).unwrap();
    }
    drop(store);
    let full = std::fs::read(dir.join(SEGMENT_FILE)).unwrap();
    let mut starts = vec![8usize];
    for _ in 0..records.len() {
        let pos = *starts.last().unwrap();
        let len = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
        starts.push(pos + 12 + len);
    }
    assert_eq!(
        starts.pop(),
        Some(full.len()),
        "frame walk must cover the segment"
    );
    (full, starts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn truncation_at_every_byte_of_the_final_record_recovers_the_prefix(
        records in vec(arb_record(), 1..5),
    ) {
        let dir = case_dir();
        {
            let store = ResultStore::open(&dir).unwrap();
            for (i, rec) in records.iter().enumerate() {
                store.append(&rec.traversal, &rec.result).unwrap();
                prop_assert_eq!(store.len(), i + 1);
            }
        }
        let seg = dir.join(SEGMENT_FILE);
        let full = std::fs::read(&seg).unwrap();

        // Find where the final record's frame begins by replaying the
        // length prefixes (magic is 8 bytes, frame header is 12).
        let mut offsets = vec![8usize];
        let mut pos = 8usize;
        for _ in 0..records.len() {
            let len = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 12 + len;
            offsets.push(pos);
        }
        prop_assert_eq!(pos, full.len(), "frame walk must cover the segment");
        let last_start = offsets[records.len() - 1];

        let committed = &records[..records.len() - 1];
        let expect_fp = reference_fingerprint(committed);

        // Every byte boundary inside the final record, from "frame
        // entirely absent" up to "one byte short".
        for cut in last_start..full.len() {
            std::fs::write(&seg, &full[..cut]).unwrap();
            let store = ResultStore::open(&dir).unwrap();
            prop_assert_eq!(store.len(), committed.len(), "cut at byte {}", cut);
            prop_assert_eq!(store.fingerprint(), expect_fp, "cut at byte {}", cut);
            prop_assert_eq!(
                store.stats().truncated_bytes,
                (cut - last_start) as u64,
                "cut at byte {}", cut
            );
            // Committed records answer from the store; the torn one is
            // gone (its traversal may legitimately still hit when an
            // earlier committed record had the same identity).
            for rec in committed {
                prop_assert_eq!(
                    store.lookup(&rec.traversal),
                    Some(rec.result.clone()),
                    "cut at byte {}", cut
                );
            }
            let torn = &records[records.len() - 1];
            if !committed.iter().any(|r| r.traversal == torn.traversal) {
                prop_assert_eq!(store.lookup(&torn.traversal), None, "cut at byte {}", cut);
            }
        }

        // Untouched segment recovers everything.
        std::fs::write(&seg, &full).unwrap();
        let store = ResultStore::open(&dir).unwrap();
        prop_assert_eq!(store.len(), records.len());
        prop_assert_eq!(store.fingerprint(), reference_fingerprint(&records));
        prop_assert_eq!(store.stats().truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flipped_bit_is_refused_unless_it_hits_the_final_record(
        records in vec(arb_record(), 1..6),
        flips in vec((any::<u64>(), 0u32..8), 24),
    ) {
        let dir = case_dir();
        let (full, starts) = write_segment(&dir, &records);
        let seg = dir.join(SEGMENT_FILE);
        let last_start = *starts.last().unwrap();
        for (at, bit) in flips {
            let at = (at % full.len() as u64) as usize;
            let mut flipped = full.clone();
            flipped[at] ^= 1 << bit;
            std::fs::write(&seg, &flipped).unwrap();
            match ResultStore::open(&dir) {
                Err(e) => {
                    prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "flip at {}", at);
                    // The error names the damaged frame (or the magic),
                    // at or before the flipped byte.
                    let named = starts.iter().copied().chain([0]).filter(|&s| s <= at);
                    prop_assert!(
                        named.into_iter().any(|s| e.to_string().ends_with(&format!("at byte {s}"))),
                        "flip at {}: {}", at, e
                    );
                    prop_assert_eq!(std::fs::read(&seg).unwrap(), flipped, "segment modified");
                }
                Ok(store) => {
                    // Only the final record may go, exactly as a torn tail.
                    prop_assert!(at >= last_start, "flip at {} lost committed records", at);
                    let committed = &records[..records.len() - 1];
                    prop_assert_eq!(store.len(), committed.len(), "flip at {}", at);
                    prop_assert_eq!(store.fingerprint(), reference_fingerprint(committed));
                    prop_assert_eq!(
                        store.stats().truncated_bytes,
                        (full.len() - last_start) as u64,
                        "flip at {}", at
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
