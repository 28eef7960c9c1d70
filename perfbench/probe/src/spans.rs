//! Span helpers for the traced run, over the repository's own tracer
//! (`dr-trace`).
//!
//! The traced run records on one `Lane` per phase and folds the spans
//! once it ends. A span's self time is its duration minus the part its
//! direct children cover, so the self times of a span tree add up to its
//! root's duration.

use cuda_mpi_design_rules::trace::{Lane, Snapshot, Span};
use std::cell::RefCell;
use std::collections::HashMap;

/// Runs `f` inside a span named `name` on `lane`. The lane is borrowed
/// only to open and to close the span, so `f` may record nested spans.
pub fn span<R>(lane: &RefCell<Lane>, name: &str, f: impl FnOnce() -> R) -> R {
    lane.borrow_mut().enter(name);
    let out = f();
    lane.borrow_mut().exit();
    out
}

fn duration(s: &Span) -> f64 {
    s.end_s.map_or(0.0, |e| e - s.start_s)
}

/// Durations and self times per span name, over the spans of one lane.
pub struct LaneTimes<'a> {
    spans: Vec<&'a Span>,
    self_s: HashMap<&'a str, f64>,
}

impl<'a> LaneTimes<'a> {
    /// Folds the spans `snap` holds on lane number `lane`.
    pub fn of(snap: &'a Snapshot, lane: usize) -> Self {
        let mut covered = vec![0.0f64; snap.spans.len()];
        for s in &snap.spans {
            if let Some(p) = s.parent {
                covered[p.0 as usize] += duration(s);
            }
        }
        let spans: Vec<&Span> = snap.spans.iter().filter(|s| s.lane == lane).collect();
        let mut self_s = HashMap::new();
        for s in &spans {
            *self_s.entry(s.name.as_str()).or_insert(0.0) += duration(s) - covered[s.id.0 as usize];
        }
        LaneTimes { spans, self_s }
    }

    /// Durations of every span named `name`, in opening order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| duration(s))
            .collect()
    }

    /// Summed durations of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.durations(name).len()
    }

    /// Summed self time of every span named `name`.
    pub fn self_time(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_mpi_design_rules::trace::Tracer;
    use std::time::Duration;

    #[test]
    fn self_times_of_a_tree_add_up_to_its_root() {
        let tracer = Tracer::new();
        let other = RefCell::new(tracer.lane("other"));
        let lane = RefCell::new(tracer.lane("main"));
        span(&other, "elsewhere", || {
            std::thread::sleep(Duration::from_millis(1))
        });
        span(&lane, "root", || {
            span(&lane, "a", || {
                span(&lane, "leaf", || {
                    std::thread::sleep(Duration::from_millis(2))
                })
            });
            span(&lane, "leaf", || {
                std::thread::sleep(Duration::from_millis(1))
            });
        });
        let snap = tracer.snapshot();
        let t = LaneTimes::of(&snap, lane.borrow().index());
        let sum: f64 = ["root", "a", "leaf"].iter().map(|n| t.self_time(n)).sum();
        assert!((sum - t.total("root")).abs() < 1e-9);
        assert_eq!(t.count("leaf"), 2);
        assert_eq!(t.count("elsewhere"), 0, "other lanes are not folded in");
        assert!(t.self_time("leaf") >= 0.003 - 1e-4);
        assert!(t.self_time("a") < t.self_time("leaf"));
    }

    #[test]
    fn quantile_uses_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
