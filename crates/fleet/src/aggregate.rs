//! Multi-stream aggregation into one `dr-fleet/v1` NDJSON stream.
//!
//! The [`Aggregator`] owns one [`StreamTailer`] per shard worker plus
//! an in-memory queue for the coordinator's own `dr-events/v1` lines,
//! and merges everything it drains into a single globally-sequenced
//! stream: each merged line is
//!
//! ```json
//! {"schema":"dr-fleet/v1","gseq":N,"worker":0,"seen_s":1.23,"event":{...}}
//! ```
//!
//! where `event` is the original worker line **verbatim** (so the
//! merged stream provably contains every worker event exactly once —
//! byte-for-byte — and stays joinable against the per-worker files),
//! `gseq` is assigned densely from zero (gapless by construction), and
//! `seen_s` stamps the coordinator-clock arrival time used by the
//! timeline export and the anomaly detector.
//!
//! Worker lines are validated before merging: the schema tag must be
//! `dr-events/v1`, the run id must match the id the coordinator pinned
//! into the worker's environment, and `heartbeat`/`shard-done` lines
//! must carry the worker's own shard identity. Lines failing validation
//! are counted per worker (`malformed` / `foreign`) and skipped — a
//! stale stream from a previous run cannot pollute the merge or count
//! as liveness.

use crate::tail::StreamTailer;
use crate::FLEET_SCHEMA;
use dr_obs::json;
use dr_obs::EVENTS_SCHEMA;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One event in the merged fleet stream.
#[derive(Debug, Clone)]
pub struct MergedEvent {
    /// Dense global sequence number (gapless from zero).
    pub gseq: u64,
    /// Source worker index, or `None` for the coordinator's own events.
    pub worker: Option<usize>,
    /// Coordinator-clock arrival time, seconds since aggregation began.
    pub seen_s: f64,
    /// The event's run id.
    pub run: String,
    /// The source stream's own sequence number.
    pub seq: u64,
    /// The source stream's own clock, seconds since its sink started.
    pub t_s: f64,
    /// Event kind (`heartbeat`, `shard-done`, `anomaly`, ...).
    pub kind: String,
    /// The fully parsed event object.
    pub value: json::Value,
    /// The original NDJSON line, verbatim.
    pub raw: String,
}

impl MergedEvent {
    /// One `dr-fleet/v1` NDJSON line (no trailing newline), embedding
    /// the original event verbatim.
    pub fn to_json(&self) -> String {
        let worker = match self.worker {
            Some(i) => i.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"schema\":\"{FLEET_SCHEMA}\",\"gseq\":{},\"worker\":{worker},\"seen_s\":{},\"event\":{}}}",
            self.gseq,
            json::number(self.seen_s),
            self.raw
        )
    }

    /// A `u64` field of the embedded event.
    pub fn field_u64(&self, name: &str) -> Option<u64> {
        self.value.get(name).and_then(json::Value::as_u64)
    }
}

/// Per-worker stream health, updated on every poll.
#[derive(Debug, Clone, Default)]
pub struct WorkerLag {
    /// Validated events merged from this worker.
    pub events: u64,
    /// Lines that failed to parse as `dr-events/v1` JSON.
    pub malformed: u64,
    /// Well-formed lines rejected for a run-id or shard mismatch
    /// (stale streams, crossed paths).
    pub foreign: u64,
    /// Bytes written by the worker but not yet consumed (partial
    /// trailing line) as of the last poll.
    pub pending_bytes: u64,
    /// Arrival time of the last validated event (`None` before any).
    pub last_seen_s: Option<f64>,
}

/// Aggregate summary of a finished (or in-flight) aggregation, the
/// shape the `--metrics-text` exposition renders.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Total merged events (== the next `gseq`).
    pub merged_events: u64,
    /// Merged events that came from the coordinator's own sink.
    pub coordinator_events: u64,
    /// Per-worker lag counters, indexed by shard.
    pub workers: Vec<WorkerLag>,
}

/// The coordinator's own event lines, queued in memory. Handed to an
/// `EventSink` as its writer: the sink writes NDJSON lines into the
/// queue and the aggregator drains complete lines on each poll, merging
/// the coordinator's events through the same gapless sequence as the
/// workers'.
#[derive(Clone, Debug, Default)]
pub struct CoordinatorQueue {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl CoordinatorQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains every complete line, leaving a partial trailing line (a
    /// mid-write snapshot) queued for the next drain.
    fn drain_lines(&self) -> Vec<String> {
        let mut buf = self.buf.lock().expect("coordinator queue poisoned");
        let consumed = match buf.iter().rposition(|&b| b == b'\n') {
            Some(i) => i + 1,
            None => return Vec::new(),
        };
        let head: Vec<u8> = buf.drain(..consumed).collect();
        String::from_utf8_lossy(&head)
            .lines()
            .map(str::to_string)
            .collect()
    }
}

impl Write for CoordinatorQueue {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf
            .lock()
            .expect("coordinator queue poisoned")
            .extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct WorkerSource {
    tailer: StreamTailer,
    expected_run: Option<String>,
    shard_of: u64,
    lag: WorkerLag,
}

/// Merges N worker streams plus the coordinator's own events into one
/// gapless `dr-fleet/v1` stream, retaining every merged event for the
/// timeline export and run-end analytics.
pub struct Aggregator {
    start: Instant,
    workers: Vec<WorkerSource>,
    coord: CoordinatorQueue,
    coordinator_events: u64,
    writer: Option<Box<dyn Write + Send>>,
    retained: Vec<MergedEvent>,
}

impl Aggregator {
    /// An aggregator for a swarm of `count` shard workers whose event
    /// files live under `store_root` (`shard-i-of-N.events.ndjson`,
    /// matching the swarm's worker layout).
    pub fn new(store_root: &Path, count: usize) -> Self {
        let workers = (0..count)
            .map(|i| WorkerSource {
                tailer: StreamTailer::new(
                    &store_root.join(format!("shard-{i}-of-{count}.events.ndjson")),
                ),
                expected_run: None,
                shard_of: count as u64,
                lag: WorkerLag::default(),
            })
            .collect();
        Aggregator {
            start: Instant::now(),
            workers,
            coord: CoordinatorQueue::new(),
            coordinator_events: 0,
            writer: None,
            retained: Vec::new(),
        }
    }

    /// Attaches the merged-stream NDJSON writer (builder style).
    pub fn with_writer(mut self, w: Box<dyn Write + Send>) -> Self {
        self.writer = Some(w);
        self
    }

    /// Seconds since aggregation began (the `seen_s` clock).
    pub fn now_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The queue the coordinator's own `EventSink` should write into.
    pub fn coordinator_queue(&self) -> CoordinatorQueue {
        self.coord.clone()
    }

    /// Pins the run id worker `index` is expected to stamp its lines
    /// with, and restarts its tail from byte zero — called when the
    /// coordinator (re-)spawns the shard, whose eager `File::create`
    /// truncates any previous attempt's stream.
    pub fn expect_worker(&mut self, index: usize, run_id: &str) {
        if let Some(w) = self.workers.get_mut(index) {
            w.expected_run = Some(run_id.to_string());
            w.tailer.reset();
        }
    }

    /// Drains every source — coordinator queue first, then workers in
    /// shard order — merging validated events into the fleet stream.
    /// Returns the indices of the newly merged events in [`events`].
    ///
    /// [`events`]: Aggregator::events
    pub fn poll(&mut self) -> std::ops::Range<usize> {
        let from = self.retained.len();
        let seen_s = self.now_s();
        for line in self.coord.drain_lines() {
            if let Some(ev) = parse_event(&line) {
                self.coordinator_events += 1;
                self.push(None, seen_s, ev, line);
            }
        }
        for i in 0..self.workers.len() {
            let poll = self.workers[i].tailer.poll();
            self.workers[i].lag.pending_bytes = poll.pending_bytes;
            for line in poll.lines {
                let Some(ev) = parse_event(&line) else {
                    self.workers[i].lag.malformed += 1;
                    continue;
                };
                if !self.accepts(i, &ev) {
                    self.workers[i].lag.foreign += 1;
                    continue;
                }
                self.workers[i].lag.events += 1;
                self.workers[i].lag.last_seen_s = Some(seen_s);
                self.push(Some(i), seen_s, ev, line);
            }
        }
        from..self.retained.len()
    }

    /// Whether a parsed worker line belongs to this swarm run: the run
    /// id must match the pinned id (when one is pinned), and liveness
    /// kinds must carry the worker's own shard identity.
    fn accepts(&self, index: usize, ev: &ParsedEvent) -> bool {
        let w = &self.workers[index];
        if let Some(expected) = &w.expected_run {
            if &ev.run != expected {
                return false;
            }
        }
        if ev.kind == "heartbeat" || ev.kind == "shard-done" {
            let shard = ev.value.get("shard").and_then(json::Value::as_u64);
            let of = ev.value.get("of").and_then(json::Value::as_u64);
            if shard != Some(index as u64) || of != Some(w.shard_of) {
                return false;
            }
        }
        true
    }

    fn push(&mut self, worker: Option<usize>, seen_s: f64, ev: ParsedEvent, raw: String) {
        let merged = MergedEvent {
            gseq: self.retained.len() as u64,
            worker,
            seen_s,
            run: ev.run,
            seq: ev.seq,
            t_s: ev.t_s,
            kind: ev.kind,
            value: ev.value,
            raw,
        };
        if let Some(w) = &mut self.writer {
            // Like the event sink: losing a line must never fail a run.
            let _ = writeln!(w, "{}", merged.to_json());
        }
        self.retained.push(merged);
    }

    /// Every merged event so far, in global-sequence order.
    pub fn events(&self) -> &[MergedEvent] {
        &self.retained
    }

    /// Per-worker lag for shard `index`.
    pub fn lag(&self, index: usize) -> Option<&WorkerLag> {
        self.workers.get(index).map(|w| &w.lag)
    }

    /// The aggregate summary.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            merged_events: self.retained.len() as u64,
            coordinator_events: self.coordinator_events,
            workers: self.workers.iter().map(|w| w.lag.clone()).collect(),
        }
    }

    /// Flushes the merged-stream writer, if any.
    pub fn flush(&mut self) {
        if let Some(w) = &mut self.writer {
            let _ = w.flush();
        }
    }

    /// Consumes the aggregator, yielding every merged event in global
    /// sequence order (the coordinator hands these to the timeline
    /// export and metrics snapshot after the swarm settles).
    pub fn into_events(self) -> Vec<MergedEvent> {
        self.retained
    }
}

struct ParsedEvent {
    run: String,
    seq: u64,
    t_s: f64,
    kind: String,
    value: json::Value,
}

/// Parses one `dr-events/v1` line; `None` for anything else (garbage,
/// foreign schemas, torn writes).
fn parse_event(line: &str) -> Option<ParsedEvent> {
    let value = json::parse(line).ok()?;
    if value.get("schema").and_then(json::Value::as_str) != Some(EVENTS_SCHEMA) {
        return None;
    }
    Some(ParsedEvent {
        run: value.get("run").and_then(json::Value::as_str)?.to_string(),
        seq: value.get("seq").and_then(json::Value::as_u64)?,
        t_s: value
            .get("t_s")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0),
        kind: value.get("kind").and_then(json::Value::as_str)?.to_string(),
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_obs::{EventSink, SharedBuf};
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dr-fleet-agg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn worker_line(run: &str, seq: u64, kind: &str, shard: u64, of: u64) -> String {
        format!(
            "{{\"schema\":\"dr-events/v1\",\"run\":\"{run}\",\"seq\":{seq},\"t_s\":0.5,\
             \"kind\":\"{kind}\",\"shard\":{shard},\"of\":{of}}}"
        )
    }

    #[test]
    fn merges_gapless_and_embeds_lines_verbatim() {
        let dir = scratch("merge");
        let out = SharedBuf::new();
        let mut agg = Aggregator::new(&dir, 2).with_writer(Box::new(out.clone()));
        agg.expect_worker(0, "r.s0");
        agg.expect_worker(1, "r.s1");
        let l0 = worker_line("r.s0", 0, "heartbeat", 0, 2);
        let l1 = worker_line("r.s1", 0, "heartbeat", 1, 2);
        std::fs::write(dir.join("shard-0-of-2.events.ndjson"), format!("{l0}\n")).unwrap();
        std::fs::write(dir.join("shard-1-of-2.events.ndjson"), format!("{l1}\n")).unwrap();
        let range = agg.poll();
        assert_eq!(range, 0..2);
        let evs = agg.events();
        assert_eq!(evs[0].gseq, 0);
        assert_eq!(evs[1].gseq, 1);
        assert_eq!(evs[0].worker, Some(0));
        assert_eq!(evs[1].worker, Some(1));
        assert_eq!(evs[0].raw, l0, "original line embedded verbatim");
        // The written stream parses, is gapless, and round-trips the line.
        for (i, line) in out.contents().lines().enumerate() {
            let v = json::parse(line).unwrap();
            assert_eq!(
                v.get("schema").and_then(json::Value::as_str),
                Some(FLEET_SCHEMA)
            );
            assert_eq!(v.get("gseq").and_then(json::Value::as_u64), Some(i as u64));
            assert_eq!(
                v.path(&["event", "kind"]).and_then(json::Value::as_str),
                Some("heartbeat")
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_foreign_runs_and_wrong_shards() {
        let dir = scratch("foreign");
        let mut agg = Aggregator::new(&dir, 2);
        agg.expect_worker(0, "r.s0");
        let stale = worker_line("old-run", 0, "heartbeat", 0, 2);
        let crossed = worker_line("r.s0", 1, "heartbeat", 1, 2);
        let good = worker_line("r.s0", 2, "heartbeat", 0, 2);
        let garbage = "{\"kind\":\"heartbeat\" <torn";
        std::fs::write(
            dir.join("shard-0-of-2.events.ndjson"),
            format!("{stale}\n{crossed}\n{good}\n{garbage}\n"),
        )
        .unwrap();
        let range = agg.poll();
        assert_eq!(range.len(), 1, "only the matching line merges");
        let lag = agg.lag(0).unwrap();
        assert_eq!(lag.events, 1);
        assert_eq!(lag.foreign, 2);
        assert_eq!(lag.malformed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn coordinator_sink_merges_through_the_queue() {
        let dir = scratch("coord");
        let mut agg = Aggregator::new(&dir, 1);
        let sink = EventSink::new("coord-run").with_writer(Box::new(agg.coordinator_queue()));
        sink.emit("worker-spawn", &[("shard", 0u64.into())]);
        sink.flush();
        let range = agg.poll();
        assert_eq!(range.len(), 1);
        let ev = &agg.events()[0];
        assert_eq!(ev.worker, None);
        assert_eq!(ev.kind, "worker-spawn");
        assert_eq!(ev.run, "coord-run");
        assert_eq!(agg.stats().coordinator_events, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn respawn_re_expects_and_re_tails() {
        let dir = scratch("respawn");
        let path = dir.join("shard-0-of-1.events.ndjson");
        let mut agg = Aggregator::new(&dir, 1);
        agg.expect_worker(0, "r.s0");
        std::fs::write(&path, format!("{}\n", worker_line("r.s0", 0, "eval", 0, 1))).unwrap();
        assert_eq!(agg.poll().len(), 1);
        // The re-issued worker truncates its stream; the coordinator
        // re-pins and the tail restarts at zero.
        std::fs::write(&path, format!("{}\n", worker_line("r.s0", 0, "eval", 0, 1))).unwrap();
        agg.expect_worker(0, "r.s0");
        assert_eq!(agg.poll().len(), 1);
        assert_eq!(agg.stats().merged_events, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
