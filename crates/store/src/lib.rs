//! # dr-store — a durable, crash-safe result store
//!
//! Exploration front-loads all pipeline cost into thousands of
//! simulated benchmarks, so their results deserve to survive the
//! process that computed them. This crate persists
//! `(canonical_hash, traversal identity, BenchResult)` records in an
//! append-only, length-prefixed and checksummed segment log, with:
//!
//! * **torn-tail recovery** — a partially written final record
//!   (interrupted append, `SIGKILL`, power loss) is detected by its
//!   length prefix/checksum on open, truncated away, and never
//!   propagated to readers; everything before it is recovered exactly.
//!   Damage a crash cannot explain (a bad record with committed data
//!   after it, a foreign magic) is refused, never truncated;
//! * **atomic segment rotation** — [`ResultStore::compact`] rewrites
//!   the segment via write-to-temp + `rename`, so readers always see
//!   either the old or the new segment, never a half-written one;
//! * **a striped in-memory read path** — committed records warm a
//!   [`StripedCache`] keyed by [`Traversal::canonical_hash`], so
//!   lookups never touch disk after open and hit/miss counters prove
//!   (in tests and chaos runs) that stored traversals are not
//!   re-simulated;
//! * **a ledger-style fingerprint** — the FNV-1a fold over committed
//!   records (canonical hash + median-time bits, in log order) matches
//!   the run ledger's record-set fingerprint algorithm, tying on-disk
//!   state to the determinism contract of PRs 2–8.
//!
//! The byte layout is documented in DESIGN.md ("Distributed
//! exploration & durability"). Results are pure functions of traversal
//! identity (see `dr_dag::eval_seed`), which is what makes answering
//! from disk sound: a stored measurement is *the* measurement.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use dr_dag::{Placement, Traversal};
use dr_par::StripedCache;
use dr_sim::{BenchResult, Percentiles};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic bytes opening every segment file.
pub const STORE_MAGIC: &[u8; 8] = b"DRSTOR1\n";

/// File name of the store's segment inside its directory.
pub const SEGMENT_FILE: &str = "segment-000.drs";

/// Sentinel encoding of a host placement (no stream binding).
const NO_STREAM: u32 = 0;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice (the per-record checksum).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One committed record: the traversal's full identity and its
/// measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecord {
    /// The complete traversal (issue order + stream bindings).
    pub traversal: Traversal,
    /// The measurement record persisted for it.
    pub result: BenchResult,
}

/// Counters of one store's lifetime (see [`ResultStore::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from the store (no simulation needed).
    pub hits: u64,
    /// Lookups that found nothing (the caller must simulate).
    pub misses: u64,
    /// Records recovered from disk when the store was opened.
    pub loaded: u64,
    /// Records appended since open.
    pub appended: u64,
    /// Bytes dropped by torn-tail truncation on open (0 for a clean
    /// segment).
    pub truncated_bytes: u64,
}

/// State guarded by the writer lock: the open segment handle plus the
/// committed-prefix bookkeeping (log order and running fingerprint).
struct Writer {
    file: File,
    /// Canonical hashes of committed records, in log (append) order.
    log: Vec<u64>,
    /// Ledger-style FNV-1a fold over `(hash, median-time bits)` of the
    /// committed records, in log order.
    fingerprint: u64,
}

/// The durable result store over one directory.
///
/// All methods take `&self`; the store is `Sync` (a `Mutex` guards the
/// writer, the read path is the lock-striped cache) so one store can be
/// shared by every evaluator of a parallel exploration run.
pub struct ResultStore {
    dir: PathBuf,
    cache: StripedCache<u64, StoredRecord>,
    writer: Mutex<Writer>,
    loaded: u64,
    truncated_bytes: u64,
    appended: AtomicU64,
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Appends `v` as little-endian bytes.
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as little-endian bytes.
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u32` at `*pos`, advancing it.
fn take_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let end = pos.checked_add(4)?;
    let v = u32::from_le_bytes(bytes.get(*pos..end)?.try_into().ok()?);
    *pos = end;
    Some(v)
}

/// Reads a little-endian `u64` at `*pos`, advancing it.
fn take_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let end = pos.checked_add(8)?;
    let v = u64::from_le_bytes(bytes.get(*pos..end)?.try_into().ok()?);
    *pos = end;
    Some(v)
}

/// Encodes one record's payload (everything after the frame header).
///
/// Layout, all little-endian:
///
/// ```text
/// canonical_hash : u64
/// n_steps        : u32
/// n_steps ×      : op u32, stream u32   (stream = StreamId + 1, 0 = host)
/// n_measurements : u32
/// n_measurements×: measurement f64 bits as u64
/// 5 ×            : p01/p10/p50/p90/p99 f64 bits as u64
/// ```
fn encode_payload(hash: u64, rec: &StoredRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32 + rec.traversal.steps.len() * 8);
    put_u64(&mut buf, hash);
    put_u32(&mut buf, rec.traversal.steps.len() as u32);
    for p in &rec.traversal.steps {
        put_u32(&mut buf, p.op as u32);
        put_u32(&mut buf, p.stream.map_or(NO_STREAM, |s| s as u32 + 1));
    }
    put_u32(&mut buf, rec.result.measurements.len() as u32);
    for m in &rec.result.measurements {
        put_u64(&mut buf, m.to_bits());
    }
    let p = &rec.result.percentiles;
    for q in [p.p01, p.p10, p.p50, p.p90, p.p99] {
        put_u64(&mut buf, q.to_bits());
    }
    buf
}

/// Decodes one payload, returning `(canonical_hash, record)`. `None`
/// means the payload is malformed (wrong length for its counts), which
/// recovery treats exactly like a checksum mismatch.
fn decode_payload(bytes: &[u8]) -> Option<(u64, StoredRecord)> {
    let mut pos = 0usize;
    let hash = take_u64(bytes, &mut pos)?;
    let n_steps = take_u32(bytes, &mut pos)? as usize;
    let mut steps = Vec::with_capacity(n_steps.min(1024));
    for _ in 0..n_steps {
        let op = take_u32(bytes, &mut pos)? as usize;
        let stream = match take_u32(bytes, &mut pos)? {
            NO_STREAM => None,
            s => Some(s as usize - 1),
        };
        steps.push(Placement { op, stream });
    }
    let n_meas = take_u32(bytes, &mut pos)? as usize;
    let mut measurements = Vec::with_capacity(n_meas.min(1024));
    for _ in 0..n_meas {
        measurements.push(f64::from_bits(take_u64(bytes, &mut pos)?));
    }
    let mut q = [0f64; 5];
    for slot in &mut q {
        *slot = f64::from_bits(take_u64(bytes, &mut pos)?);
    }
    if pos != bytes.len() {
        return None; // trailing garbage inside a "valid" checksum frame
    }
    Some((
        hash,
        StoredRecord {
            traversal: Traversal { steps },
            result: BenchResult {
                measurements,
                percentiles: Percentiles {
                    p01: q[0],
                    p10: q[1],
                    p50: q[2],
                    p90: q[3],
                    p99: q[4],
                },
            },
        },
    ))
}

/// Frames a payload: `len:u32 | checksum:u64 | payload`.
fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(12 + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    put_u64(&mut frame, fnv1a(payload));
    frame.extend_from_slice(payload);
    frame
}

/// One FNV-1a fold step of the ledger-style fingerprint.
fn fold_fingerprint(h: &mut u64, hash: u64, time_bits: u64) {
    for v in [hash, time_bits] {
        for byte in v.to_le_bytes() {
            *h ^= byte as u64;
            *h = h.wrapping_mul(FNV_PRIME);
        }
    }
}

/// One frame of a segment, as recovery sees it.
enum Frame {
    /// A complete, checksum-valid, well-formed record ending at `end`.
    Valid {
        end: usize,
        hash: u64,
        rec: StoredRecord,
    },
    /// The header or payload runs past the end of the file.
    Short,
    /// A complete frame ending at `end` whose checksum or payload is bad.
    Bad { end: usize },
}

/// Reads the frame starting at `pos`.
fn read_frame(bytes: &[u8], pos: usize) -> Frame {
    let mut cursor = pos;
    let (Some(len), Some(checksum)) = (take_u32(bytes, &mut cursor), take_u64(bytes, &mut cursor))
    else {
        return Frame::Short;
    };
    let end = cursor + len as usize;
    let Some(payload) = bytes.get(cursor..end) else {
        return Frame::Short;
    };
    if fnv1a(payload) != checksum {
        return Frame::Bad { end };
    }
    match decode_payload(payload) {
        Some((hash, rec)) => Frame::Valid { end, hash, rec },
        None => Frame::Bad { end },
    }
}

/// Whether a valid frame starts anywhere after `pos`: a short frame is a
/// torn tail only if no committed record follows it (a flipped length
/// bit can make a mid-file frame look short).
fn valid_frame_after(bytes: &[u8], pos: usize) -> bool {
    (pos + 1..bytes.len()).any(|p| matches!(read_frame(bytes, p), Frame::Valid { .. }))
}

impl ResultStore {
    /// Opens (creating if absent) the store in `dir`, recovering the
    /// committed record prefix from its segment. A torn tail — a final
    /// frame that is short (cut off by an interrupted append) or that
    /// ends exactly at end of file but fails its checksum or decoding —
    /// is truncated in place and reported via
    /// [`StoreStats::truncated_bytes`]; everything before it is loaded
    /// into the in-memory read path. Damage that a crash cannot explain
    /// is refused with [`io::ErrorKind::InvalidData`] naming the byte
    /// offset, and the segment is left untouched: a bad frame followed
    /// by more bytes (or a short frame followed by a valid one), and a
    /// non-empty segment that does not start with [`STORE_MAGIC`]. A
    /// stale rotation temp file (crash between write and rename) is
    /// removed.
    pub fn open(dir: &Path) -> io::Result<ResultStore> {
        std::fs::create_dir_all(dir)?;
        let seg = dir.join(SEGMENT_FILE);
        let tmp = rotation_tmp(&seg);
        if tmp.exists() {
            std::fs::remove_file(&tmp)?;
        }
        let mut bytes = Vec::new();
        if seg.exists() {
            File::open(&seg)?.read_to_end(&mut bytes)?;
        }
        let refuse = |offset: usize, what: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {what} at byte {offset}", seg.display()),
            )
        };
        // Only a prefix of the magic (a segment torn while being created)
        // recovers to empty; anything else that lacks it is foreign.
        let mut committed = if bytes.starts_with(STORE_MAGIC) {
            STORE_MAGIC.len()
        } else if STORE_MAGIC.starts_with(&bytes) {
            0
        } else {
            return Err(refuse(0, "not a result-store segment (bad magic)"));
        };
        let cache = StripedCache::new(64);
        let mut log = Vec::new();
        let mut fingerprint = FNV_OFFSET;
        while committed > 0 && committed < bytes.len() {
            match read_frame(&bytes, committed) {
                Frame::Valid { end, hash, rec } => {
                    fold_fingerprint(&mut fingerprint, hash, rec.result.time().to_bits());
                    cache.preload(hash, hash, rec);
                    log.push(hash);
                    committed = end;
                }
                // A torn tail: nothing committed can follow it.
                Frame::Short if !valid_frame_after(&bytes, committed) => break,
                Frame::Bad { end } if end == bytes.len() => break,
                Frame::Short | Frame::Bad { .. } => {
                    return Err(refuse(
                        committed,
                        "corrupt record with committed data after it",
                    ));
                }
            }
        }
        let truncated_bytes = (bytes.len() - committed) as u64;
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false) // the committed prefix must survive reopen
            .read(true)
            .write(true)
            .open(&seg)?;
        file.set_len(committed as u64)?;
        if committed == 0 {
            file.write_all(STORE_MAGIC)?;
        }
        // Append mode proper: position at the committed end.
        use std::io::Seek;
        file.seek(io::SeekFrom::End(0))?;
        let loaded = log.len() as u64;
        Ok(ResultStore {
            dir: dir.to_path_buf(),
            cache,
            writer: Mutex::new(Writer {
                file,
                log,
                fingerprint,
            }),
            loaded,
            truncated_bytes,
            appended: AtomicU64::new(0),
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks up the stored measurement of `t`, answering from the
    /// in-memory read path. Returns `None` (and counts a miss) when the
    /// traversal has not been committed — including the vanishingly
    /// unlikely case of a canonical-hash collision with a different
    /// committed traversal, which full-identity comparison rejects.
    pub fn lookup(&self, t: &Traversal) -> Option<BenchResult> {
        let hash = t.canonical_hash();
        let rec = self.cache.get(hash, &hash)?;
        (rec.traversal == *t).then_some(rec.result)
    }

    /// Appends one committed record: frames, checksums, and writes it
    /// to the segment, then publishes it to the read path. The frame is
    /// written with a single `write_all` and flushed, so a crash leaves
    /// at most one torn record — exactly what [`ResultStore::open`]
    /// recovers from.
    pub fn append(&self, t: &Traversal, result: &BenchResult) -> io::Result<()> {
        let hash = t.canonical_hash();
        let rec = StoredRecord {
            traversal: t.clone(),
            result: result.clone(),
        };
        let frame = encode_frame(&encode_payload(hash, &rec));
        let mut w = self.writer.lock().expect("store writer poisoned");
        w.file.write_all(&frame)?;
        w.file.flush()?;
        fold_fingerprint(&mut w.fingerprint, hash, result.time().to_bits());
        w.log.push(hash);
        drop(w);
        self.cache.preload(hash, hash, rec);
        self.appended.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Number of committed records (log order, duplicates included).
    pub fn len(&self) -> usize {
        self.writer.lock().expect("store writer poisoned").log.len()
    }

    /// True when nothing is committed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ledger-style FNV-1a fingerprint over committed records in
    /// log order (canonical hash then median-time bits, byte by byte) —
    /// the same algorithm as the run ledger's record-set fingerprint,
    /// so a store whose log order matches a run's record order carries
    /// that run's exact fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.writer
            .lock()
            .expect("store writer poisoned")
            .fingerprint
    }

    /// The committed records in log order. Hash collisions (two
    /// committed traversals sharing a canonical hash) surface as
    /// repeated entries of the later record.
    pub fn records_in_order(&self) -> Vec<(u64, StoredRecord)> {
        let w = self.writer.lock().expect("store writer poisoned");
        w.log
            .iter()
            .filter_map(|&h| self.cache.get(h, &h).map(|r| (h, r)))
            .collect()
    }

    /// Lifetime counters: read-path hits/misses, records loaded at
    /// open, records appended since, and torn bytes dropped on open.
    pub fn stats(&self) -> StoreStats {
        let c = self.cache.stats();
        // `records_in_order` also goes through the cache; its probes are
        // all hits, so subtracting nothing keeps counters monotone and
        // meaningful (lookup misses still dominate the signal).
        StoreStats {
            hits: c.hits,
            misses: c.misses,
            loaded: self.loaded,
            appended: self.appended.load(Ordering::Relaxed),
            truncated_bytes: self.truncated_bytes,
        }
    }

    /// Atomically rewrites the segment, dropping all but the first
    /// record of any duplicated canonical hash: the new segment is
    /// written to a temp file, flushed, and `rename`d over the old one,
    /// so a crash at any point leaves a valid segment (old or new).
    /// Returns the number of records dropped. On the normal path —
    /// resumed shards never re-append stored traversals — this is a
    /// no-op rewrite and the fingerprint is unchanged.
    pub fn compact(&self) -> io::Result<u64> {
        let mut w = self.writer.lock().expect("store writer poisoned");
        let seg = self.dir.join(SEGMENT_FILE);
        let tmp = rotation_tmp(&seg);
        let mut kept_log = Vec::with_capacity(w.log.len());
        let mut fingerprint = FNV_OFFSET;
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        out.extend_from_slice(STORE_MAGIC);
        for &hash in &w.log {
            if !seen.insert(hash) {
                continue;
            }
            // peek, not get: a maintenance read must not count as a hit.
            let Some(rec) = self.cache.peek(hash, &hash) else {
                continue;
            };
            out.extend_from_slice(&encode_frame(&encode_payload(hash, &rec)));
            fold_fingerprint(&mut fingerprint, hash, rec.result.time().to_bits());
            kept_log.push(hash);
        }
        let dropped = (w.log.len() - kept_log.len()) as u64;
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &seg)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&seg)?;
        use std::io::Seek;
        file.seek(io::SeekFrom::End(0))?;
        w.file = file;
        w.log = kept_log;
        w.fingerprint = fingerprint;
        Ok(dropped)
    }
}

/// The rotation temp path next to a segment.
fn rotation_tmp(seg: &Path) -> PathBuf {
    let mut os = seg.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dr-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn traversal(k: usize) -> Traversal {
        Traversal {
            steps: (0..3)
                .map(|i| Placement {
                    op: k + i,
                    stream: (i % 2 == 0).then_some(i),
                })
                .collect(),
        }
    }

    fn bench(t: f64) -> BenchResult {
        BenchResult {
            measurements: vec![t, t * 1.5, t * 0.5],
            percentiles: Percentiles {
                p01: t * 0.5,
                p10: t * 0.6,
                p50: t,
                p90: t * 1.4,
                p99: t * 1.5,
            },
        }
    }

    #[test]
    fn roundtrips_and_reopens_warm() {
        let dir = tmp_dir("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty());
        for k in 0..5 {
            store
                .append(&traversal(k), &bench(1e-3 * (k + 1) as f64))
                .unwrap();
        }
        assert_eq!(store.len(), 5);
        assert_eq!(store.lookup(&traversal(2)), Some(bench(3e-3)));
        let fp = store.fingerprint();
        drop(store);
        let warm = ResultStore::open(&dir).unwrap();
        assert_eq!(warm.len(), 5);
        assert_eq!(warm.fingerprint(), fp);
        assert_eq!(warm.stats().loaded, 5);
        assert_eq!(warm.stats().truncated_bytes, 0);
        assert_eq!(warm.lookup(&traversal(4)), Some(bench(5e-3)));
        assert_eq!(warm.lookup(&traversal(9)), None);
        let s = warm.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_matches_ledger_algorithm() {
        let dir = tmp_dir("fp");
        let store = ResultStore::open(&dir).unwrap();
        let items: Vec<(Traversal, BenchResult)> = (0..4)
            .map(|k| (traversal(k), bench(2e-3 * (k + 1) as f64)))
            .collect();
        for (t, r) in &items {
            store.append(t, r).unwrap();
        }
        // Recompute with the documented algorithm.
        let mut h = FNV_OFFSET;
        for (t, r) in &items {
            fold_fingerprint(&mut h, t.canonical_hash(), r.time().to_bits());
        }
        assert_eq!(store.fingerprint(), h);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_never_propagated() {
        let dir = tmp_dir("torn");
        let store = ResultStore::open(&dir).unwrap();
        store.append(&traversal(0), &bench(1e-3)).unwrap();
        store.append(&traversal(1), &bench(2e-3)).unwrap();
        let fp2 = {
            let s = ResultStore::open(&tmp_dir("torn-ref")).unwrap();
            s.append(&traversal(0), &bench(1e-3)).unwrap();
            s.fingerprint()
        };
        drop(store);
        let seg = dir.join(SEGMENT_FILE);
        let len = std::fs::metadata(&seg).unwrap().len();
        // Tear 5 bytes off the final record.
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let recovered = ResultStore::open(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered.fingerprint(), fp2);
        assert_eq!(recovered.lookup(&traversal(0)), Some(bench(1e-3)));
        assert_eq!(recovered.lookup(&traversal(1)), None);
        assert!(recovered.stats().truncated_bytes > 0);
        // The truncation is durable: appending after recovery yields a
        // clean segment.
        recovered.append(&traversal(1), &bench(2e-3)).unwrap();
        drop(recovered);
        let clean = ResultStore::open(&dir).unwrap();
        assert_eq!(clean.len(), 2);
        assert_eq!(clean.stats().truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_checksum_drops_the_tail() {
        let dir = tmp_dir("corrupt");
        let store = ResultStore::open(&dir).unwrap();
        store.append(&traversal(0), &bench(1e-3)).unwrap();
        store.append(&traversal(1), &bench(2e-3)).unwrap();
        drop(store);
        let seg = dir.join(SEGMENT_FILE);
        let mut bytes = std::fs::read(&seg).unwrap();
        // Flip one bit in the last payload byte.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&seg, &bytes).unwrap();
        let recovered = ResultStore::open(&dir).unwrap();
        assert_eq!(
            recovered.len(),
            1,
            "checksum mismatch drops the tail record"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_file_is_refused_not_truncated() {
        let dir = tmp_dir("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        let seg = dir.join(SEGMENT_FILE);
        std::fs::write(&seg, b"not a segment").unwrap();
        let err = ResultStore::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().ends_with("(bad magic) at byte 0"), "{err}");
        assert_eq!(std::fs::read(&seg).unwrap(), b"not a segment");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_magic_recovers_to_empty() {
        let dir = tmp_dir("torn-magic");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(SEGMENT_FILE), &STORE_MAGIC[..3]).unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.stats().truncated_bytes, 3);
        store.append(&traversal(0), &bench(1e-3)).unwrap();
        drop(store);
        assert_eq!(ResultStore::open(&dir).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_corruption_is_refused_not_truncated() {
        let dir = tmp_dir("mid-corrupt");
        let store = ResultStore::open(&dir).unwrap();
        for k in 0..3 {
            store.append(&traversal(k), &bench(1e-3)).unwrap();
        }
        drop(store);
        let seg = dir.join(SEGMENT_FILE);
        let mut bytes = std::fs::read(&seg).unwrap();
        // Flip a payload bit of the first record: two committed records
        // follow it.
        bytes[STORE_MAGIC.len() + 12] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        let err = ResultStore::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("at byte 8"), "{err}");
        assert_eq!(
            std::fs::read(&seg).unwrap(),
            bytes,
            "segment left untouched"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_rewrites_atomically_and_dedups() {
        let dir = tmp_dir("compact");
        let store = ResultStore::open(&dir).unwrap();
        for k in 0..3 {
            store.append(&traversal(k), &bench(1e-3)).unwrap();
        }
        // Manufacture a duplicate append (the API does not normally
        // produce one; the log still honors it).
        store.append(&traversal(1), &bench(1e-3)).unwrap();
        assert_eq!(store.len(), 4);
        let dropped = store.compact().unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(store.len(), 3);
        assert!(!rotation_tmp(&dir.join(SEGMENT_FILE)).exists());
        // The store stays usable after rotation and the rewrite is
        // durable.
        store.append(&traversal(7), &bench(4e-3)).unwrap();
        let fp = store.fingerprint();
        drop(store);
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 4);
        assert_eq!(reopened.fingerprint(), fp);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_rotation_tmp_is_removed_on_open() {
        let dir = tmp_dir("stale-tmp");
        let store = ResultStore::open(&dir).unwrap();
        store.append(&traversal(0), &bench(1e-3)).unwrap();
        drop(store);
        let tmp = rotation_tmp(&dir.join(SEGMENT_FILE));
        std::fs::write(&tmp, b"half-written rotation").unwrap();
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert!(!tmp.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_in_order_preserves_log_order() {
        let dir = tmp_dir("order");
        let store = ResultStore::open(&dir).unwrap();
        let ts: Vec<Traversal> = [3, 0, 2].iter().map(|&k| traversal(k)).collect();
        for (i, t) in ts.iter().enumerate() {
            store.append(t, &bench(1e-3 * (i + 1) as f64)).unwrap();
        }
        let recs = store.records_in_order();
        assert_eq!(recs.len(), 3);
        for ((h, r), t) in recs.iter().zip(&ts) {
            assert_eq!(*h, t.canonical_hash());
            assert_eq!(&r.traversal, t);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
