//! # dr-bench — figure/table regeneration harness
//!
//! One binary per figure/table of the paper's evaluation (see DESIGN.md
//! for the index), plus Criterion microbenchmarks of the substrates.
//!
//! All binaries accept the environment variable `DR_SCALE=small` to run
//! on the scaled-down SpMV instance (fast, for smoke-testing the
//! harness); the default is the paper-scale instance (150 000-row banded
//! matrix, 4 ranks, 2 streams). `DR_SEED` overrides the master seed.
//! When `DR_ARTIFACTS=<dir>` is set, the `fig7`, `tables`, and
//! `ablation_search` binaries additionally write their run reports
//! (JSON) and per-iteration search telemetry (CSV) into that directory.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;

use dr_core::{explore, Strategy};
use dr_mcts::{ExploredRecord, SimEvaluator};
use dr_sim::BenchConfig;
use dr_spmv::SpmvScenario;

/// Master seed used by the harness unless `DR_SEED` overrides it.
pub const DEFAULT_SEED: u64 = 0xD5;

/// Reads the harness seed from `DR_SEED` (default [`DEFAULT_SEED`]).
#[allow(
    clippy::disallowed_methods,
    reason = "a harness knob; it goes with the harness"
)]
pub fn seed() -> u64 {
    std::env::var("DR_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// The harness scale name from `DR_SCALE`: `"small"` for the fast
/// variant, `"paper"` (the default) otherwise.
#[allow(
    clippy::disallowed_methods,
    reason = "a harness knob; it goes with the harness"
)]
pub fn scale() -> &'static str {
    match std::env::var("DR_SCALE").as_deref() {
        Ok("small") => "small",
        _ => "paper",
    }
}

/// Builds the demonstration scenario: paper scale by default,
/// `DR_SCALE=small` for the fast variant.
pub fn scenario() -> SpmvScenario {
    harness::scenario_for(scale(), seed())
}

/// Writes an observability artifact (run report, telemetry CSV) into the
/// `DR_ARTIFACTS` directory, creating it if necessary. A no-op when the
/// variable is unset; returns the path written to, if any.
#[allow(
    clippy::disallowed_methods,
    reason = "a harness knob; it goes with the harness"
)]
pub fn write_artifact(name: &str, contents: &str) -> Option<std::path::PathBuf> {
    let dir = std::path::PathBuf::from(std::env::var_os("DR_ARTIFACTS")?);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create artifact dir {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(name);
    match std::fs::write(&path, contents) {
        Ok(()) => {
            eprintln!("wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// Schema tag of committed benchmark histories (mirrors
/// `dr_core::BENCH_SCHEMA`; duplicated here so the harness does not
/// need the comparison layer).
pub const BENCH_SCHEMA: &str = "dr-bench/v1";

/// Appends one benchmark run (a JSON object) to the history file at
/// `path`, creating a fresh `{"schema":"dr-bench/v1","kind":…,
/// "entries":[…]}` history when the file is missing or not a
/// recognized history. Returns the number of entries after the append.
///
/// The append is plain string surgery on the trailing `]}` — the
/// histories are committed artifacts, so their byte layout is under our
/// control — and the result is validated before being written.
pub fn append_history(
    path: &std::path::Path,
    kind: &str,
    entry: &str,
) -> Result<usize, Box<dyn std::error::Error>> {
    dr_obs::json::validate(entry)?;
    let existing = std::fs::read_to_string(path).ok().filter(|text| {
        dr_obs::json::parse(text)
            .ok()
            .and_then(|v| {
                Some(v.get("schema")?.as_str()? == BENCH_SCHEMA && v.get("kind")?.as_str()? == kind)
            })
            .unwrap_or(false)
    });
    let updated = match existing {
        Some(text) => {
            let trimmed = text.trim_end();
            let body = trimmed
                .strip_suffix("]}")
                .ok_or("history does not end in ]}")?;
            format!("{body},{entry}]}}")
        }
        None => {
            format!("{{\"schema\":\"{BENCH_SCHEMA}\",\"kind\":\"{kind}\",\"entries\":[{entry}]}}")
        }
    };
    dr_obs::json::validate(&updated)?;
    let count = dr_obs::json::parse(&updated)?
        .get("entries")
        .and_then(|e| e.as_arr().map(|a| a.len()))
        .unwrap_or(0);
    std::fs::write(path, &updated)?;
    Ok(count)
}

/// Collects the exhaustive record set of the scenario — the canonical
/// dataset every figure derives from.
pub fn exhaustive_records(sc: &SpmvScenario) -> Vec<ExploredRecord> {
    let eval = SimEvaluator::new(
        &sc.space,
        &sc.workload,
        &sc.platform,
        BenchConfig::default(),
    );
    explore(&sc.space, eval, Strategy::Exhaustive).expect("SpMV scenario always executes")
}

/// Renders a crude ASCII plot of a series (for terminal-friendly figure
/// output), `height` rows tall.
pub fn ascii_plot(values: &[f64], height: usize, width: usize) -> String {
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(f64::MIN_POSITIVE);
    let cols: Vec<f64> = (0..width)
        .map(|c| {
            let i = c * values.len() / width;
            values[i]
        })
        .collect();
    let mut out = String::new();
    for row in (0..height).rev() {
        let lo = min + span * row as f64 / height as f64;
        for &v in &cols {
            out.push(if v >= lo { '█' } else { ' ' });
        }
        out.push('\n');
    }
    out
}

/// Formats seconds as microseconds with 2 decimals.
pub fn us(t: f64) -> String {
    format!("{:.2} µs", t * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_plot_has_requested_dimensions() {
        let p = ascii_plot(&[1.0, 2.0, 3.0, 4.0], 3, 10);
        let lines: Vec<&str> = p.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.chars().count() == 10));
    }

    #[test]
    fn ascii_plot_empty_is_empty() {
        assert_eq!(ascii_plot(&[], 3, 10), "");
    }

    #[test]
    fn us_formats() {
        assert_eq!(us(1.5e-4), "150.00 µs");
    }

    #[test]
    fn append_history_creates_then_grows_then_resets() {
        let path = std::env::temp_dir().join(format!("dr-bench-hist-{}.json", std::process::id()));
        std::fs::remove_file(&path).ok();
        let entry = "{\"scenario\":\"small\",\"legs\":[]}";
        assert_eq!(append_history(&path, "pipeline", entry).unwrap(), 1);
        assert_eq!(append_history(&path, "pipeline", entry).unwrap(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let v = dr_obs::json::parse(&text).unwrap();
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(BENCH_SCHEMA));
        assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("pipeline"));
        assert_eq!(v.get("entries").and_then(|e| e.as_arr()).unwrap().len(), 2);
        // A different kind (or garbage) starts a fresh history.
        assert_eq!(append_history(&path, "explore", entry).unwrap(), 1);
        std::fs::write(&path, "not json").unwrap();
        assert_eq!(append_history(&path, "pipeline", entry).unwrap(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_artifact_respects_env_gate() {
        // Unset: a silent no-op. (Env mutation is safe here: this is the
        // only test touching DR_ARTIFACTS, and cargo runs each test
        // binary's tests in one process.)
        std::env::remove_var("DR_ARTIFACTS");
        assert_eq!(write_artifact("x.txt", "data"), None);
        // Set: creates the directory and writes the file.
        let dir = std::env::temp_dir().join(format!("dr-artifacts-{}", std::process::id()));
        std::env::set_var("DR_ARTIFACTS", &dir);
        let path = write_artifact("x.txt", "data").expect("artifact written");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "data");
        std::env::remove_var("DR_ARTIFACTS");
        std::fs::remove_dir_all(&dir).ok();
    }
}
