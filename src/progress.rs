//! Live progress rendering for `dr-rules --progress`.
//!
//! [`ProgressRenderer`] subscribes to the run's [`dr_obs::EventSink`]
//! as an in-process [`EventObserver`] and folds the event stream into
//! one status line: current phase, traversals explored out of the space
//! (with an ETA), evaluation throughput, cache hit rate, quarantine and
//! retry counts, the best simulated time seen so far (with its
//! traversal hash), and the MCTS tree size/depth.
//!
//! Output goes to **stderr** through a [`LinePainter`], so stdout stays
//! machine-parsable. Rendering only *reads* event payloads — it can
//! never perturb the search, which is what makes `--progress` runs
//! bit-identical to silent ones.

use dr_obs::{Event, EventObserver, Field, LinePainter};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Default)]
struct State {
    phase: String,
    strategy: String,
    space: u64,
    records: u64,
    evals: u64,
    iterations: u64,
    tree_nodes: u64,
    max_depth: u64,
    best_s: f64,
    best_hash: String,
    shard: String,
    cache_hits: u64,
    cache_misses: u64,
    quarantined: u64,
    retries: u64,
    lint_schedules: u64,
    lint_errors: u64,
    lint_warnings: u64,
    lint_diags: u64,
    anomalies: u64,
    finished: bool,
}

/// Event observer that renders a live status line on stderr.
pub struct ProgressRenderer {
    /// The fold, and the painter that paints it.
    state: Mutex<(State, LinePainter)>,
    start: Instant,
}

impl Default for ProgressRenderer {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgressRenderer {
    /// A renderer writing to stderr, auto-detecting whether it is a TTY.
    pub fn new() -> Self {
        Self::painting(LinePainter::stderr())
    }

    /// A renderer with the TTY mode forced (tests use this to exercise
    /// both paint paths deterministically).
    pub fn with_tty(tty: bool) -> Self {
        Self::painting(LinePainter::with_tty(tty))
    }

    fn painting(painter: LinePainter) -> Self {
        let fold = State {
            best_s: f64::INFINITY,
            ..State::default()
        };
        ProgressRenderer {
            state: Mutex::new((fold, painter)),
            start: Instant::now(),
        }
    }

    /// The current status line (also the final line painted at
    /// `run-end`). Exposed so tests can assert on rendering without
    /// scraping stderr.
    pub fn snapshot_line(&self) -> String {
        let st = self.state.lock().expect("progress state poisoned");
        self.line(&st.0)
    }

    fn line(&self, st: &State) -> String {
        let elapsed = self.start.elapsed().as_secs_f64();
        let mut line = format!(
            "[{elapsed:6.1}s] {}",
            if st.phase.is_empty() {
                "starting"
            } else {
                &st.phase
            }
        );
        if !st.strategy.is_empty() {
            line.push_str(&format!(" ({})", st.strategy));
        }
        if !st.shard.is_empty() {
            line.push_str(&format!(" [shard {}]", st.shard));
        }
        if st.space > 0 {
            line.push_str(&format!(" | {}/{} traversals", st.records, st.space));
            if st.records > 0 && st.records < st.space && !st.finished {
                let eta = elapsed * (st.space - st.records) as f64 / st.records as f64;
                line.push_str(&format!(" (eta {eta:.0}s)"));
            }
        }
        if st.evals > 0 && elapsed > 0.0 {
            line.push_str(&format!(
                " | {} evals ({:.1}/s)",
                st.evals,
                st.evals as f64 / elapsed
            ));
        }
        let lookups = st.cache_hits + st.cache_misses;
        if lookups > 0 {
            line.push_str(&format!(
                " | cache {:.0}%",
                100.0 * st.cache_hits as f64 / lookups as f64
            ));
        }
        if st.quarantined > 0 || st.retries > 0 {
            line.push_str(&format!(" | q{} r{}", st.quarantined, st.retries));
        }
        if st.anomalies > 0 {
            line.push_str(&format!(" | anomalies {}", st.anomalies));
        }
        if st.best_s.is_finite() {
            line.push_str(&format!(" | best {:.1} µs", st.best_s * 1e6));
            if !st.best_hash.is_empty() {
                line.push_str(&format!(" @{}", &st.best_hash[..st.best_hash.len().min(8)]));
            }
        }
        if st.tree_nodes > 0 {
            line.push_str(&format!(
                " | tree {} nodes d{}",
                st.tree_nodes, st.max_depth
            ));
        }
        if st.lint_schedules > 0 {
            line.push_str(&format!(
                " | lint {} sched {}E/{}W {} diags",
                st.lint_schedules, st.lint_errors, st.lint_warnings, st.lint_diags
            ));
        }
        line
    }
}

fn u64_field(event: &Event, name: &str) -> Option<u64> {
    match event.field(name) {
        Some(Field::U64(v)) => Some(*v),
        _ => None,
    }
}

fn f64_field(event: &Event, name: &str) -> Option<f64> {
    match event.field(name) {
        Some(Field::F64(v)) => Some(*v),
        Some(Field::U64(v)) => Some(*v as f64),
        _ => None,
    }
}

fn str_field<'e>(event: &'e Event, name: &str) -> Option<&'e str> {
    match event.field(name) {
        Some(Field::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

impl EventObserver for ProgressRenderer {
    fn on_event(&self, event: &Event) {
        let mut guard = self.state.lock().expect("progress state poisoned");
        let (st, painter) = &mut *guard;
        let mut force = false;
        match event.kind.as_str() {
            "run-start" => {
                if let Some(s) = str_field(event, "strategy") {
                    st.strategy = s.to_string();
                }
                if let Some(n) = u64_field(event, "space") {
                    st.space = n;
                }
                force = true;
            }
            "phase-start" => {
                if let Some(p) = str_field(event, "phase") {
                    st.phase = p.to_string();
                }
                force = true;
            }
            "phase-end" if str_field(event, "phase") == Some("explore") => {
                if let Some(n) = u64_field(event, "records") {
                    st.records = n;
                }
                if let Some(n) = u64_field(event, "cache_hits") {
                    st.cache_hits = n;
                }
                if let Some(n) = u64_field(event, "cache_misses") {
                    st.cache_misses = n;
                }
                if let Some(n) = u64_field(event, "quarantined") {
                    st.quarantined = n;
                }
                if let Some(n) = u64_field(event, "retries") {
                    st.retries = n;
                }
                if let Some(n) = u64_field(event, "evals") {
                    st.evals = st.evals.max(n);
                }
            }
            "mcts-iter" => {
                if let Some(n) = u64_field(event, "iteration") {
                    st.iterations = st.iterations.max(n);
                }
                if let Some(n) = u64_field(event, "unique") {
                    st.records = st.records.max(n);
                }
                if let Some(n) = u64_field(event, "tree_nodes") {
                    st.tree_nodes = st.tree_nodes.max(n);
                }
                if let Some(n) = u64_field(event, "max_depth") {
                    st.max_depth = st.max_depth.max(n);
                }
                if let Some(t) = f64_field(event, "best_s") {
                    if t.is_finite() && t < st.best_s {
                        st.best_s = t;
                    }
                }
            }
            "eval" => {
                // The eval counter is cumulative across all watched
                // evaluators sharing the run's EvalWatch.
                if let Some(n) = u64_field(event, "eval") {
                    st.evals = st.evals.max(n);
                }
                if let (Some(t), Some(ok)) = (
                    f64_field(event, "time_s"),
                    match event.field("ok") {
                        Some(Field::Bool(b)) => Some(*b),
                        _ => None,
                    },
                ) {
                    if ok && t.is_finite() && t < st.best_s {
                        st.best_s = t;
                        if let Some(h) = str_field(event, "traversal") {
                            st.best_hash = h.to_string();
                        }
                    }
                }
            }
            "heartbeat" => {
                // Shard workers beat with their progress through the
                // shard's work list; fold it into the traversal counter.
                if let (Some(i), Some(of)) = (u64_field(event, "shard"), u64_field(event, "of")) {
                    st.shard = format!("{i}/{of}");
                }
                if let Some(n) = u64_field(event, "done") {
                    st.records = st.records.max(n);
                }
                if let Some(n) = u64_field(event, "total") {
                    st.space = st.space.max(n);
                }
                if st.phase.is_empty() {
                    st.phase = "explore".to_string();
                }
            }
            "shard-done" => {
                if let Some(n) = u64_field(event, "records") {
                    st.records = st.records.max(n);
                }
                st.finished = true;
                st.phase = "shard done".to_string();
                force = true;
            }
            "anomaly" => {
                // Structured detector verdicts (swarm coordinators emit
                // these when a worker leaves its statistical bands).
                st.anomalies += 1;
                force = true;
            }
            "lint-start" => {
                force = true;
            }
            "lint-diag" => {
                // One event per distinct diagnostic across the space
                // (the aggregator dedups; `schedules` carries the
                // multiplicity).
                st.lint_diags += 1;
            }
            "lint-end" => {
                if let Some(n) = u64_field(event, "schedules") {
                    st.lint_schedules = n;
                }
                if let Some(n) = u64_field(event, "errors") {
                    st.lint_errors = n;
                }
                if let Some(n) = u64_field(event, "warnings") {
                    st.lint_warnings = n;
                }
                if let Some(n) = u64_field(event, "distinct_diags") {
                    st.lint_diags = st.lint_diags.max(n);
                }
                force = true;
            }
            "run-end" => {
                st.finished = true;
                if let Some(n) = u64_field(event, "records") {
                    st.records = st.records.max(n);
                }
                st.phase = if event.field("error").is_some() {
                    "failed".to_string()
                } else {
                    "done".to_string()
                };
                force = true;
            }
            _ => {}
        }
        painter.paint(force, st.finished, || self.line(st));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: &str, fields: Vec<(String, Field)>) -> Event {
        Event {
            seq: 0,
            t_s: 0.0,
            kind: kind.to_string(),
            fields,
        }
    }

    #[test]
    fn folds_events_into_one_status_line() {
        let r = ProgressRenderer::with_tty(false);
        r.on_event(&event(
            "run-start",
            vec![
                ("strategy".into(), Field::Str("mcts".into())),
                ("space".into(), Field::U64(1600)),
            ],
        ));
        r.on_event(&event(
            "phase-start",
            vec![("phase".into(), Field::Str("explore".into()))],
        ));
        r.on_event(&event(
            "mcts-iter",
            vec![
                ("iteration".into(), Field::U64(17)),
                ("unique".into(), Field::U64(12)),
                ("tree_nodes".into(), Field::U64(40)),
                ("max_depth".into(), Field::U64(6)),
                ("best_s".into(), Field::F64(2.0e-4)),
            ],
        ));
        r.on_event(&event(
            "eval",
            vec![
                ("eval".into(), Field::U64(30)),
                ("traversal".into(), Field::Str("00ab00ab00ab00ab".into())),
                ("time_s".into(), Field::F64(1.5e-4)),
                ("ok".into(), Field::Bool(true)),
            ],
        ));
        let line = r.snapshot_line();
        assert!(line.contains("explore (mcts)"), "{line}");
        assert!(line.contains("12/1600 traversals"), "{line}");
        assert!(line.contains("30 evals"), "{line}");
        assert!(line.contains("best 150.0 µs @00ab00ab"), "{line}");
        assert!(line.contains("tree 40 nodes d6"), "{line}");
    }

    #[test]
    fn lint_events_fold_into_lint_counters() {
        let r = ProgressRenderer::with_tty(false);
        r.on_event(&event(
            "lint-start",
            vec![
                ("ops".into(), Field::U64(12)),
                ("max_schedules".into(), Field::U64(0)),
            ],
        ));
        r.on_event(&event(
            "lint-diag",
            vec![
                ("code".into(), Field::Str("RS002".into())),
                ("schedules".into(), Field::U64(640)),
            ],
        ));
        r.on_event(&event(
            "lint-diag",
            vec![
                ("code".into(), Field::Str("RS004".into())),
                ("schedules".into(), Field::U64(320)),
            ],
        ));
        r.on_event(&event(
            "lint-end",
            vec![
                ("schedules".into(), Field::U64(1600)),
                ("errors".into(), Field::U64(0)),
                ("warnings".into(), Field::U64(960)),
                ("distinct_diags".into(), Field::U64(2)),
            ],
        ));
        let line = r.snapshot_line();
        assert!(line.contains("lint 1600 sched 0E/960W 2 diags"), "{line}");
    }

    #[test]
    fn shard_heartbeats_fold_into_the_status_line() {
        let r = ProgressRenderer::with_tty(false);
        r.on_event(&event(
            "heartbeat",
            vec![
                ("shard".into(), Field::U64(1)),
                ("of".into(), Field::U64(3)),
                ("done".into(), Field::U64(4)),
                ("total".into(), Field::U64(9)),
            ],
        ));
        let line = r.snapshot_line();
        assert!(line.contains("explore"), "{line}");
        assert!(line.contains("[shard 1/3]"), "{line}");
        assert!(line.contains("4/9 traversals"), "{line}");
        r.on_event(&event(
            "shard-done",
            vec![
                ("shard".into(), Field::U64(1)),
                ("of".into(), Field::U64(3)),
                ("records".into(), Field::U64(9)),
            ],
        ));
        let line = r.snapshot_line();
        assert!(line.contains("shard done"), "{line}");
        assert!(line.contains("9/9 traversals"), "{line}");
    }

    #[test]
    fn failed_evals_never_become_best_and_run_end_finishes() {
        let r = ProgressRenderer::with_tty(false);
        r.on_event(&event(
            "eval",
            vec![
                ("eval".into(), Field::U64(1)),
                ("time_s".into(), Field::F64(f64::NAN)),
                ("ok".into(), Field::Bool(false)),
            ],
        ));
        assert!(!r.snapshot_line().contains("best"), "{}", r.snapshot_line());
        r.on_event(&event(
            "phase-end",
            vec![
                ("phase".into(), Field::Str("explore".into())),
                ("records".into(), Field::U64(25)),
                ("cache_hits".into(), Field::U64(75)),
                ("cache_misses".into(), Field::U64(25)),
                ("quarantined".into(), Field::U64(1)),
                ("retries".into(), Field::U64(2)),
                ("evals".into(), Field::U64(100)),
            ],
        ));
        r.on_event(&event("run-end", vec![("records".into(), Field::U64(25))]));
        let line = r.snapshot_line();
        assert!(line.contains("done"), "{line}");
        assert!(line.contains("cache 75%"), "{line}");
        assert!(line.contains("q1 r2"), "{line}");
        assert!(!line.contains("eta"), "finished runs need no ETA: {line}");
    }
}
