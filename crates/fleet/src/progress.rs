//! Fleet-wide `--progress` rollup over the merged event stream.
//!
//! Unlike the single-process renderer (whose "current phase" is
//! whatever event arrived last), every fold here is **permutation
//! invariant** — per-shard maxima, or-flags, and multiset counts — so
//! the final status line is a pure function of the *set* of merged
//! events, independent of how N worker streams happened to interleave.
//! The property test in `tests/proptest_progress.rs` holds the renderer
//! to exactly that: folding any shuffled interleaving of the worker
//! streams must yield the same final line as the sorted merge.
//!
//! Rates and the elapsed prefix are computed from the events' own
//! arrival stamps (the max `seen_s` folded so far), not from a wall
//! clock read at render time — again so the line depends only on the
//! events.

use crate::aggregate::MergedEvent;
use dr_obs::LinePainter;

#[derive(Debug, Clone, Default)]
struct ShardState {
    done: u64,
    total: u64,
    records: u64,
    hits: u64,
    finished: bool,
    quarantined: bool,
}

/// Folds merged fleet events into one fleet-wide status line and paints
/// it on stderr through a [`LinePainter`].
#[derive(Debug)]
pub struct FleetProgress {
    shards: Vec<ShardState>,
    anomalies: u64,
    max_seen_s: f64,
    finished: bool,
    painter: LinePainter,
}

impl FleetProgress {
    /// A rollup for `count` shards, auto-detecting whether stderr is a
    /// TTY.
    pub fn new(count: usize) -> Self {
        Self::painting(count, LinePainter::stderr())
    }

    /// A rollup with the paint mode pinned (tests exercise both paths
    /// deterministically).
    pub fn with_tty(count: usize, tty: bool) -> Self {
        Self::painting(count, LinePainter::with_tty(tty))
    }

    fn painting(count: usize, painter: LinePainter) -> Self {
        FleetProgress {
            shards: vec![ShardState::default(); count],
            anomalies: 0,
            max_seen_s: 0.0,
            finished: false,
            painter,
        }
    }

    /// Folds one merged event. Every update is a max, an or, or a
    /// count, so any interleaving of the source streams folds to the
    /// same state.
    pub fn observe(&mut self, ev: &MergedEvent) {
        self.max_seen_s = self.max_seen_s.max(ev.seen_s);
        match ev.kind.as_str() {
            "heartbeat" => {
                if let Some(s) = ev.worker.and_then(|i| self.shards.get_mut(i)) {
                    s.done = s.done.max(ev.field_u64("done").unwrap_or(0));
                    s.total = s.total.max(ev.field_u64("total").unwrap_or(0));
                }
            }
            "shard-done" => {
                if let Some(s) = ev.worker.and_then(|i| self.shards.get_mut(i)) {
                    s.finished = true;
                    s.records = s.records.max(ev.field_u64("records").unwrap_or(0));
                    s.hits = s.hits.max(ev.field_u64("store_hits").unwrap_or(0));
                    // A shard can finish without ever heartbeating; its
                    // record count then stands in for the work total.
                    s.total = s.total.max(s.records);
                }
            }
            // Coordinator-resumed shard: complete before any worker ran.
            "shard-resumed" => {
                let shard = ev.field_u64("shard").map(|v| v as usize);
                if let Some(s) = shard.and_then(|i| self.shards.get_mut(i)) {
                    s.finished = true;
                    s.records = s.records.max(ev.field_u64("records").unwrap_or(0));
                    s.hits = s.hits.max(ev.field_u64("store_hits").unwrap_or(0));
                    s.total = s.total.max(s.records);
                }
            }
            "anomaly" => self.anomalies += 1,
            "shard-quarantined" => {
                let shard = ev.field_u64("shard").map(|v| v as usize);
                if let Some(s) = shard.and_then(|i| self.shards.get_mut(i)) {
                    s.quarantined = true;
                }
            }
            _ => {}
        }
    }

    /// A shard's effective progress: its completed total once finished,
    /// else the best heartbeat seen.
    fn shard_done(s: &ShardState) -> u64 {
        if s.finished {
            s.done.max(s.total)
        } else {
            s.done
        }
    }

    /// The current fleet status line — a pure function of the folded
    /// event set.
    pub fn snapshot_line(&self) -> String {
        let total: u64 = self.shards.iter().map(|s| s.total).sum();
        let done: u64 = self.shards.iter().map(Self::shard_done).sum();
        let complete = self.shards.iter().filter(|s| s.finished).count();
        let quarantined = self.shards.iter().filter(|s| s.quarantined).count();
        let mut line = format!("[{:6.1}s] fleet", self.max_seen_s);
        if total > 0 {
            const WIDTH: usize = 20;
            let filled = ((done as f64 / total as f64) * WIDTH as f64).round() as usize;
            let filled = filled.min(WIDTH);
            line.push_str(&format!(
                " [{}{}] {done}/{total} evals",
                "#".repeat(filled),
                ".".repeat(WIDTH - filled)
            ));
            if self.max_seen_s > 1e-9 {
                line.push_str(&format!(" | {:.0}/s", done as f64 / self.max_seen_s));
            }
        }
        line.push_str(&format!(" | shards {complete}/{}", self.shards.len()));
        let records: u64 = self.shards.iter().map(|s| s.records).sum();
        let hits: u64 = self.shards.iter().map(|s| s.hits).sum();
        if records > 0 {
            line.push_str(&format!(
                " | cache {:.0}%",
                hits as f64 / records as f64 * 100.0
            ));
        }
        if quarantined > 0 {
            line.push_str(&format!(" | quarantined {quarantined}"));
        }
        if self.anomalies > 0 {
            line.push_str(&format!(" | anomalies {}", self.anomalies));
        }
        let bars: Vec<String> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if s.quarantined {
                    format!("s{i}:x")
                } else if s.finished {
                    format!("s{i}:ok")
                } else if s.total > 0 {
                    format!("s{i}:{}/{}", s.done, s.total)
                } else {
                    format!("s{i}:-")
                }
            })
            .collect();
        line.push_str(&format!(" | {}", bars.join(" ")));
        line
    }

    /// Paints the current line if an interval elapsed (or `force`).
    pub fn paint(&self, force: bool) {
        self.painter
            .paint(force, self.finished, || self.snapshot_line());
    }

    /// Final paint: forces one last line and, on a TTY, terminates the
    /// repainted line with a newline.
    pub fn finish(&mut self) {
        self.finished = true;
        self.paint(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_obs::json;

    fn ev(worker: Option<usize>, seen_s: f64, kind: &str, fields: &[(&str, u64)]) -> MergedEvent {
        let mut raw = format!(
            "{{\"schema\":\"dr-events/v1\",\"run\":\"r\",\"seq\":0,\"t_s\":{seen_s},\
             \"kind\":\"{kind}\""
        );
        for (k, v) in fields {
            raw.push_str(&format!(",\"{k}\":{v}"));
        }
        raw.push('}');
        MergedEvent {
            gseq: 0,
            worker,
            seen_s,
            run: "r".into(),
            seq: 0,
            t_s: seen_s,
            kind: kind.into(),
            value: json::parse(&raw).unwrap(),
            raw,
        }
    }

    #[test]
    fn folds_to_a_fleet_line() {
        let mut p = FleetProgress::with_tty(3, false);
        p.observe(&ev(
            Some(0),
            0.5,
            "heartbeat",
            &[("done", 10), ("total", 20)],
        ));
        p.observe(&ev(
            Some(1),
            0.6,
            "heartbeat",
            &[("done", 5), ("total", 20)],
        ));
        p.observe(&ev(
            Some(2),
            1.0,
            "shard-done",
            &[("records", 20), ("store_hits", 10)],
        ));
        p.observe(&ev(None, 1.1, "anomaly", &[("worker", 1)]));
        let line = p.snapshot_line();
        assert!(line.contains("35/60 evals"), "{line}");
        assert!(line.contains("shards 1/3"), "{line}");
        assert!(line.contains("cache 50%"), "{line}");
        assert!(line.contains("anomalies 1"), "{line}");
        assert!(line.contains("s0:10/20 s1:5/20 s2:ok"), "{line}");
    }

    #[test]
    fn quarantine_marks_the_shard() {
        let mut p = FleetProgress::with_tty(2, false);
        p.observe(&ev(None, 2.0, "shard-quarantined", &[("shard", 1)]));
        let line = p.snapshot_line();
        assert!(line.contains("quarantined 1"), "{line}");
        assert!(line.contains("s1:x"), "{line}");
    }

    #[test]
    fn stale_heartbeats_cannot_regress_progress() {
        let mut p = FleetProgress::with_tty(1, false);
        p.observe(&ev(
            Some(0),
            0.9,
            "heartbeat",
            &[("done", 15), ("total", 20)],
        ));
        // An earlier beat arriving late (out-of-order drain) is absorbed.
        p.observe(&ev(
            Some(0),
            0.3,
            "heartbeat",
            &[("done", 3), ("total", 20)],
        ));
        let line = p.snapshot_line();
        assert!(line.contains("15/20"), "{line}");
        assert!(line.starts_with("[   0.9s]"), "{line}");
    }
}
