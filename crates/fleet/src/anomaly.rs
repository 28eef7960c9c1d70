//! Online anomaly detection over the merged fleet stream.
//!
//! The detector watches two signals per worker — heartbeat
//! inter-arrival times and the eval rate (`done / active seconds`) —
//! and compares them against median/MAD bands, the same robust
//! statistics the `compare` regression gate uses. Three anomaly kinds
//! are emitted, each at most once per worker attempt:
//!
//! * **straggler** — the worker's open heartbeat gap blows past the
//!   MAD band of its own previous gaps, or its eval rate falls far
//!   below the fleet's median rate;
//! * **rate-collapse** — the worker's recent eval rate dropped to a
//!   small fraction of its own earlier peak (it was healthy, then
//!   degraded);
//! * **silent-worker** — nothing at all has arrived from the worker's
//!   stream for longer than the silence threshold (the coordinator
//!   wires this to half its stall-kill window, so the anomaly is
//!   always on record *before* the kill decision it explains).
//!
//! The coordinator feeds every merged worker event through
//! [`AnomalyDetector::observe`], marks lifecycle edges with
//! [`note_spawn`]/[`note_exit`], and calls [`scan`] each poll; returned
//! anomalies are emitted as structured `anomaly` events and quoted as
//! the reason for kill/re-issue decisions.
//!
//! [`note_spawn`]: AnomalyDetector::note_spawn
//! [`note_exit`]: AnomalyDetector::note_exit
//! [`scan`]: AnomalyDetector::scan

use crate::aggregate::MergedEvent;

/// Detector thresholds. The defaults mirror `compare`'s noise
/// multiplier; the coordinator overrides `silent_after_s` from its
/// stall window.
#[derive(Debug, Clone)]
pub struct AnomalyConfig {
    /// MAD multiplier for the noise bands (same default as `compare`).
    pub noise_k: f64,
    /// Seconds of total stream silence before `silent-worker` fires.
    pub silent_after_s: f64,
    /// Minimum heartbeat samples before the gap/rate bands engage.
    pub min_beats: usize,
    /// `straggler` (fleet-rate form) additionally requires the rate to
    /// be this many times below the fleet median.
    pub straggler_ratio: f64,
    /// `rate-collapse` requires the recent rate to be this many times
    /// below the worker's own peak.
    pub collapse_ratio: f64,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            noise_k: 5.0,
            silent_after_s: 5.0,
            min_beats: 4,
            straggler_ratio: 3.0,
            collapse_ratio: 4.0,
        }
    }
}

/// The three anomaly classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// Far slower than its own history or the rest of the fleet.
    Straggler,
    /// Healthy earlier, now a small fraction of its own peak rate.
    RateCollapse,
    /// No stream activity at all beyond the silence threshold.
    SilentWorker,
}

impl AnomalyKind {
    /// The kind's wire name (used in `anomaly` event fields).
    pub fn name(&self) -> &'static str {
        match self {
            AnomalyKind::Straggler => "straggler",
            AnomalyKind::RateCollapse => "rate-collapse",
            AnomalyKind::SilentWorker => "silent-worker",
        }
    }
}

/// One detected anomaly: which worker, which signal, how far outside
/// the band.
#[derive(Debug, Clone)]
pub struct Anomaly {
    /// The worker (shard index) the anomaly names.
    pub worker: usize,
    /// The anomaly class.
    pub kind: AnomalyKind,
    /// The metric that tripped (`heartbeat_gap_s`, `eval_rate`,
    /// `stream_silence_s`).
    pub metric: &'static str,
    /// The observed value of that metric.
    pub value: f64,
    /// The band edge it crossed.
    pub threshold: f64,
    /// Human-readable one-liner for coordinator logs.
    pub detail: String,
}

#[derive(Debug, Clone, Default)]
struct Track {
    running: bool,
    finished: bool,
    last_seen_s: f64,
    /// Arrival times of heartbeat/shard-done events.
    beats: Vec<f64>,
    /// (worker-clock time, cumulative done) heartbeat and shard-done
    /// samples. The worker's own clock times its work exactly; arrival
    /// times would add spawn latency and the coordinator's poll lag,
    /// which dominate a worker that finishes in a few polls.
    samples: Vec<(f64, u64)>,
    flagged: [bool; 3],
}

impl Track {
    /// Overall eval rate: done per active second, from the worker's
    /// start to the last sample. Meaningful for finished workers too, so
    /// completed shards anchor the fleet's rate distribution.
    fn rate(&self) -> Option<f64> {
        let &(t, done) = self.samples.last()?;
        if done == 0 || t < 1e-3 {
            return None;
        }
        Some(done as f64 / t)
    }

    /// Rate over the trailing `window` samples.
    fn recent_rate(&self, window: usize) -> Option<f64> {
        let n = self.samples.len();
        if n < window + 1 {
            return None;
        }
        let (t0, d0) = self.samples[n - 1 - window];
        let (t1, d1) = self.samples[n - 1];
        if t1 - t0 < 1e-3 || d1 <= d0 {
            return None;
        }
        Some((d1 - d0) as f64 / (t1 - t0))
    }

    /// Best rate over any earlier `window`-sample stretch.
    fn peak_rate(&self, window: usize) -> Option<f64> {
        let n = self.samples.len();
        if n < window + 2 {
            return None;
        }
        let mut peak: Option<f64> = None;
        // Exclude the trailing window itself: the peak must predate it.
        for hi in window..(n - 1) {
            let (t0, d0) = self.samples[hi - window];
            let (t1, d1) = self.samples[hi];
            if t1 - t0 >= 1e-3 && d1 > d0 {
                let r = (d1 - d0) as f64 / (t1 - t0);
                peak = Some(peak.map_or(r, |p: f64| p.max(r)));
            }
        }
        peak
    }
}

/// Median of a non-empty slice (even length: mean of the middle pair).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Median absolute deviation around `med`.
fn mad(xs: &[f64], med: f64) -> f64 {
    let mut dev: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    median(&mut dev)
}

/// Per-worker anomaly tracking over the merged stream.
#[derive(Debug)]
pub struct AnomalyDetector {
    cfg: AnomalyConfig,
    tracks: Vec<Track>,
}

/// Trailing-window width (in heartbeat samples) for the rate-collapse
/// comparison.
const RATE_WINDOW: usize = 3;

impl AnomalyDetector {
    /// A detector for `count` workers.
    pub fn new(count: usize, cfg: AnomalyConfig) -> Self {
        AnomalyDetector {
            cfg,
            tracks: vec![Track::default(); count],
        }
    }

    /// Marks worker `index` as (re-)spawned at `now_s`: all history and
    /// flags reset, so a fresh attempt gets a fresh verdict.
    pub fn note_spawn(&mut self, index: usize, now_s: f64) {
        if let Some(t) = self.tracks.get_mut(index) {
            *t = Track {
                running: true,
                last_seen_s: now_s,
                ..Track::default()
            };
        }
    }

    /// Marks worker `index` as exited (killed, done, or crashed); no
    /// further anomalies are raised against it until the next spawn.
    pub fn note_exit(&mut self, index: usize) {
        if let Some(t) = self.tracks.get_mut(index) {
            t.running = false;
        }
    }

    /// Feeds one merged event. Coordinator events are ignored; any
    /// worker event counts as stream activity, and heartbeats feed the
    /// gap/rate statistics.
    pub fn observe(&mut self, ev: &MergedEvent) {
        let Some(index) = ev.worker else { return };
        let Some(t) = self.tracks.get_mut(index) else {
            return;
        };
        t.last_seen_s = ev.seen_s;
        match ev.kind.as_str() {
            "heartbeat" => {
                t.beats.push(ev.seen_s);
                let done = ev.field_u64("done").unwrap_or(0);
                t.samples.push((ev.t_s, done));
            }
            "shard-done" => {
                t.beats.push(ev.seen_s);
                // The final count is a rate sample too: a worker that
                // finishes before its first heartbeat still anchors the
                // fleet's rate distribution.
                if let Some(records) = ev.field_u64("records") {
                    t.samples.push((ev.t_s, records));
                }
                t.finished = true;
            }
            _ => {}
        }
    }

    /// Scans every running, unfinished worker at `now_s`, returning
    /// newly crossed bands (each worker/kind pair fires at most once
    /// per attempt).
    pub fn scan(&mut self, now_s: f64) -> Vec<Anomaly> {
        let mut out = Vec::new();
        for index in 0..self.tracks.len() {
            let t = &self.tracks[index];
            if !t.running || t.finished {
                continue;
            }
            let silence = now_s - t.last_seen_s;
            if !t.flagged[2] && silence > self.cfg.silent_after_s {
                out.push(Anomaly {
                    worker: index,
                    kind: AnomalyKind::SilentWorker,
                    metric: "stream_silence_s",
                    value: silence,
                    threshold: self.cfg.silent_after_s,
                    detail: format!(
                        "worker {index}: no stream activity for {silence:.2}s \
                         (threshold {:.2}s)",
                        self.cfg.silent_after_s
                    ),
                });
                self.tracks[index].flagged[2] = true;
                continue;
            }
            if !t.flagged[0] {
                if let Some(a) = self.straggler(index, now_s) {
                    out.push(a);
                    self.tracks[index].flagged[0] = true;
                    continue;
                }
            }
            if !t.flagged[1] {
                if let Some(a) = self.rate_collapse(index) {
                    out.push(a);
                    self.tracks[index].flagged[1] = true;
                }
            }
        }
        out
    }

    /// Straggler check: the open heartbeat gap against the worker's own
    /// gap band, then the worker's eval rate against the fleet's.
    ///
    /// The fleet band is leave-one-out: it is built from the *other*
    /// workers' rates (finished ones included — completed shards anchor
    /// "normal"). Including the candidate's own rate would poison the
    /// statistic in small fleets: with three workers, the MAD of all
    /// three rates is the healthy pair's spread, and ordinary timing
    /// noise between two fast workers then widens the band until a
    /// genuine crawler sits inside it. A MAD band also needs at least
    /// three rates: with two it is half their spread, and it falls below
    /// zero whenever timing noise separates a fast pair by more than
    /// `2 / noise_k` of their median, which short shards on a loaded host
    /// do. With two other workers the ratio test alone decides.
    fn straggler(&self, index: usize, now_s: f64) -> Option<Anomaly> {
        let t = &self.tracks[index];
        if t.beats.len() >= self.cfg.min_beats {
            let mut gaps: Vec<f64> = t.beats.windows(2).map(|w| w[1] - w[0]).collect();
            let open_gap = now_s - *t.beats.last().expect("beats non-empty");
            if !gaps.is_empty() {
                let med = median(&mut gaps);
                let band = med + self.cfg.noise_k * mad(&gaps, med);
                // Also require a generous absolute margin so scheduler
                // jitter on a loaded box cannot trip the band.
                if open_gap > band && open_gap > 2.0 * med && open_gap > 0.05 {
                    return Some(Anomaly {
                        worker: index,
                        kind: AnomalyKind::Straggler,
                        metric: "heartbeat_gap_s",
                        value: open_gap,
                        threshold: band,
                        detail: format!(
                            "worker {index}: heartbeat gap {open_gap:.3}s exceeds its \
                             median+{:.0}·MAD band ({band:.3}s)",
                            self.cfg.noise_k
                        ),
                    });
                }
            }
        }
        let mut others: Vec<f64> = self
            .tracks
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != index)
            .filter_map(|(_, o)| o.rate())
            .collect();
        if others.len() >= 2 {
            let my_rate = t.rate()?;
            let med = median(&mut others);
            let band = med - self.cfg.noise_k * mad(&others, med);
            let banded = others.len() >= 3;
            if (!banded || my_rate < band) && my_rate * self.cfg.straggler_ratio < med {
                let by_mad = if banded {
                    format!("{:.0}·MAD and ", self.cfg.noise_k)
                } else {
                    String::new()
                };
                return Some(Anomaly {
                    worker: index,
                    kind: AnomalyKind::Straggler,
                    metric: "eval_rate",
                    value: my_rate,
                    threshold: med / self.cfg.straggler_ratio,
                    detail: format!(
                        "worker {index}: eval rate {my_rate:.1}/s is under the fleet \
                         median {med:.1}/s by more than {by_mad}{:.0}x",
                        self.cfg.straggler_ratio
                    ),
                });
            }
        }
        None
    }

    /// Rate-collapse check: the trailing-window rate against the
    /// worker's own earlier peak.
    fn rate_collapse(&self, index: usize) -> Option<Anomaly> {
        let t = &self.tracks[index];
        if t.samples.len() < self.cfg.min_beats.max(RATE_WINDOW + 2) {
            return None;
        }
        let recent = t.recent_rate(RATE_WINDOW)?;
        let peak = t.peak_rate(RATE_WINDOW)?;
        if recent * self.cfg.collapse_ratio < peak {
            return Some(Anomaly {
                worker: index,
                kind: AnomalyKind::RateCollapse,
                metric: "eval_rate",
                value: recent,
                threshold: peak / self.cfg.collapse_ratio,
                detail: format!(
                    "worker {index}: recent eval rate {recent:.1}/s collapsed below \
                     1/{:.0} of its own peak {peak:.1}/s",
                    self.cfg.collapse_ratio
                ),
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_obs::json;

    fn beat(worker: usize, seen_s: f64, done: u64) -> MergedEvent {
        let raw = format!(
            "{{\"schema\":\"dr-events/v1\",\"run\":\"r\",\"seq\":0,\"t_s\":{seen_s},\
             \"kind\":\"heartbeat\",\"shard\":{worker},\"of\":3,\"done\":{done},\"total\":20}}"
        );
        MergedEvent {
            gseq: 0,
            worker: Some(worker),
            seen_s,
            run: "r".into(),
            seq: 0,
            t_s: seen_s,
            kind: "heartbeat".into(),
            value: json::parse(&raw).unwrap(),
            raw,
        }
    }

    fn done_event(worker: usize, seen_s: f64) -> MergedEvent {
        let mut ev = beat(worker, seen_s, 20);
        ev.kind = "shard-done".into();
        ev
    }

    #[test]
    fn silent_worker_fires_once_before_a_kill_window() {
        let cfg = AnomalyConfig {
            silent_after_s: 0.2,
            ..AnomalyConfig::default()
        };
        let mut det = AnomalyDetector::new(1, cfg);
        det.note_spawn(0, 0.0);
        det.observe(&beat(0, 0.05, 1));
        assert!(det.scan(0.1).is_empty(), "still live");
        let found = det.scan(0.5);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, AnomalyKind::SilentWorker);
        assert_eq!(found[0].metric, "stream_silence_s");
        assert_eq!(found[0].worker, 0);
        assert!(det.scan(1.0).is_empty(), "flagged once per attempt");
        // A respawn resets the flag.
        det.note_spawn(0, 2.0);
        assert_eq!(det.scan(3.0).len(), 1);
    }

    #[test]
    fn fleet_rate_band_names_the_straggler() {
        let mut det = AnomalyDetector::new(3, AnomalyConfig::default());
        for w in 0..3 {
            det.note_spawn(w, 0.0);
        }
        // Workers 0 and 1 finish 20 evals in 10 ms; worker 2 crawls.
        for w in 0..2 {
            det.observe(&beat(w, 0.005, 10));
            det.observe(&beat(w, 0.010, 20));
            det.observe(&done_event(w, 0.010));
            det.note_exit(w);
        }
        for (t, d) in [(0.1, 1u64), (0.2, 2), (0.3, 3), (0.4, 4)] {
            det.observe(&beat(2, t, d));
        }
        let found = det.scan(0.45);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].worker, 2);
        assert_eq!(found[0].kind, AnomalyKind::Straggler);
        assert_eq!(found[0].metric, "eval_rate");
        assert!(found[0].value < found[0].threshold);
    }

    #[test]
    fn healthy_pair_spread_does_not_hide_the_straggler() {
        // Regression: two fast workers whose rates differ by ordinary
        // timing noise (~25%) and one crawler. With the candidate's own
        // rate inside the distribution, the MAD equals the healthy
        // pair's spread and the band collapses below zero; the
        // leave-one-out band must still flag the crawler.
        let mut det = AnomalyDetector::new(3, AnomalyConfig::default());
        for w in 0..3 {
            det.note_spawn(w, 0.0);
        }
        det.observe(&beat(0, 0.15, 95)); // ~633/s
        det.observe(&done_event(0, 0.16));
        det.note_exit(0);
        det.observe(&beat(1, 0.20, 95)); // ~475/s
        det.observe(&done_event(1, 0.21));
        det.note_exit(1);
        det.observe(&beat(2, 0.95, 16)); // ~17/s
        let found = det.scan(1.0);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].worker, 2);
        assert_eq!(found[0].kind, AnomalyKind::Straggler);
        assert_eq!(found[0].metric, "eval_rate");
    }

    #[test]
    fn two_reference_workers_decide_by_ratio_alone() {
        // Short shards on a loaded host: the fast pair's rates differ by
        // 1.8x, which would put a two-sample MAD band below zero.
        let mut det = AnomalyDetector::new(3, AnomalyConfig::default());
        for w in 0..3 {
            det.note_spawn(w, 0.0);
        }
        det.observe(&beat(0, 0.026, 100)); // ~3900/s
        det.observe(&done_event(0, 0.026));
        det.note_exit(0);
        det.observe(&beat(1, 0.045, 100)); // ~2200/s
        det.observe(&done_event(1, 0.045));
        det.note_exit(1);
        det.observe(&beat(2, 0.95, 16)); // ~17/s
        let found = det.scan(1.0);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].worker, 2);
        assert_eq!(found[0].metric, "eval_rate");
        assert!(!found[0].detail.contains("MAD"), "{}", found[0].detail);
    }

    #[test]
    fn rate_collapse_compares_against_own_peak() {
        let mut det = AnomalyDetector::new(1, AnomalyConfig::default());
        det.note_spawn(0, 0.0);
        // Fast early: 5 evals per 10 ms beat. Then nearly flat.
        for i in 1..=5u64 {
            det.observe(&beat(0, i as f64 * 0.01, i * 5));
        }
        for i in 1..=3u64 {
            det.observe(&beat(0, 0.05 + i as f64 * 0.5, 25 + i));
        }
        let found = det.scan(1.58);
        assert!(
            found
                .iter()
                .any(|a| a.kind == AnomalyKind::RateCollapse && a.metric == "eval_rate"),
            "{found:?}"
        );
    }

    #[test]
    fn homogeneous_fleet_is_quiet() {
        let mut det = AnomalyDetector::new(3, AnomalyConfig::default());
        for w in 0..3 {
            det.note_spawn(w, 0.0);
            for i in 1..=6u64 {
                det.observe(&beat(w, i as f64 * 0.02, i * 3));
            }
        }
        assert!(det.scan(0.13).is_empty());
    }
}
