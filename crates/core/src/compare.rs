//! Run-to-run regression comparison over ledger histories.
//!
//! [`compare_ledgers`] diffs two ledger histories (see [`crate::ledger`])
//! structurally and statistically:
//!
//! * **structural** — when the two head entries share a run identity
//!   (scenario, strategy, seed, iteration budget), the record-set
//!   fingerprints must match exactly (the engine is deterministic), the
//!   mined rule sets must agree, and resilience counters must not
//!   drift;
//! * **statistical** — per-phase wall-clock medians are compared with a
//!   noise band derived from the baseline history's MAD (median absolute
//!   deviation), so a ledger with several runs of the same config gets a
//!   calibrated band while single-run ledgers fall back to an absolute
//!   floor. A phase regresses only when it exceeds both the band and a
//!   relative threshold.
//!
//! The report separates hard `regressions` (worthy of a nonzero exit)
//! from informational `notes` (config drift that makes runs
//! incomparable, new/removed phases).

use dr_obs::json::{self, Value};
use dr_obs::{mad, median};
use std::path::Path;

use crate::ledger::{LEDGER_FILE, LEDGER_SCHEMA};

/// Schema tag of committed benchmark histories (`BENCH_pipeline.json`,
/// `BENCH_explore.json`): one JSON object holding a `kind` and an
/// `entries` array of benchmark runs, oldest first.
pub const BENCH_SCHEMA: &str = "dr-bench/v1";

/// Thresholds of the statistical comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareOptions {
    /// Relative threshold: a phase regresses only if its median exceeds
    /// `ratio` times the baseline median.
    pub ratio: f64,
    /// Absolute noise floor in seconds: deltas below this never regress
    /// (micro-benchmark phases jitter by scheduler noise).
    pub abs_floor_s: f64,
    /// Noise-band multiplier over the baseline history's MAD.
    pub noise_k: f64,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions {
            ratio: 3.0,
            abs_floor_s: 0.025,
            noise_k: 5.0,
        }
    }
}

/// Outcome of one ledger comparison.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Every comparison line, in report order.
    pub lines: Vec<String>,
    /// Hard regressions (nonzero-exit material).
    pub regressions: Vec<String>,
    /// Informational drift (config differences, new phases).
    pub notes: Vec<String>,
    /// Whether the head entries' record sets were bit-identical.
    pub identical_records: bool,
}

impl CompareReport {
    /// Whether any hard regression was found.
    pub fn is_regression(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Renders the full report as text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        if self.regressions.is_empty() {
            out.push_str("verdict: OK — no regression\n");
        } else {
            for r in &self.regressions {
                out.push_str(&format!("REGRESSION: {r}\n"));
            }
            out.push_str(&format!(
                "verdict: {} regression(s)\n",
                self.regressions.len()
            ));
        }
        out
    }
}

/// Loads a ledger from `path` — either a `ledger.jsonl` file or a
/// directory containing one — returning the parsed entries whose schema
/// this version understands, in file order.
pub fn load_ledger(path: &Path) -> Result<Vec<Value>, String> {
    let file = if path.is_dir() {
        path.join(LEDGER_FILE)
    } else {
        path.to_path_buf()
    };
    let text = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read ledger {}: {e}", file.display()))?;
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line)
            .map_err(|e| format!("{}:{}: invalid JSON: {e}", file.display(), lineno + 1))?;
        if v.get("schema").and_then(|s| s.as_str()) == Some(LEDGER_SCHEMA) {
            entries.push(v);
        }
    }
    if entries.is_empty() {
        return Err(format!(
            "{}: no entries with schema {LEDGER_SCHEMA}",
            file.display()
        ));
    }
    Ok(entries)
}

/// Whether `path` holds a benchmark history (schema [`BENCH_SCHEMA`])
/// rather than a ledger. Sniffs the first kilobyte, so it is safe to
/// call on arbitrary files.
pub fn is_bench_file(path: &Path) -> bool {
    std::fs::read_to_string(path)
        .map(|text| {
            text.get(..text.len().min(1024))
                .is_some_and(|head| head.contains(BENCH_SCHEMA))
        })
        .unwrap_or(false)
}

/// Loads a benchmark history file, returning its kind (`pipeline` or
/// `explore`) and the entries, oldest first.
pub fn load_bench(path: &Path) -> Result<(String, Vec<Value>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read bench history {}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))?;
    if v.get("schema").and_then(|s| s.as_str()) != Some(BENCH_SCHEMA) {
        return Err(format!("{}: not a {BENCH_SCHEMA} history", path.display()));
    }
    let kind = v
        .get("kind")
        .and_then(|k| k.as_str())
        .unwrap_or("unknown")
        .to_string();
    let entries = v
        .get("entries")
        .and_then(|e| e.as_arr())
        .map(|a| a.to_vec())
        .unwrap_or_default();
    if entries.is_empty() {
        return Err(format!("{}: history has no entries", path.display()));
    }
    Ok((kind, entries))
}

/// Whether `path` holds a merged fleet event stream (schema
/// `dr-fleet/v1`, see `dr_fleet::FLEET_SCHEMA`) rather than a ledger or
/// bench history. Sniffs the first kilobyte, so it is safe to call on
/// arbitrary files.
pub fn is_fleet_file(path: &Path) -> bool {
    std::fs::read_to_string(path)
        .map(|text| {
            text.get(..text.len().min(1024))
                .is_some_and(|head| head.contains(dr_fleet::FLEET_SCHEMA))
        })
        .unwrap_or(false)
}

/// Loads a merged `dr-fleet/v1` stream, returning the parsed merged
/// lines in file order. Lines with other schemas are skipped, matching
/// the ledger loader's forward-compatibility stance.
pub fn load_fleet(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read fleet stream {}: {e}", path.display()))?;
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line)
            .map_err(|e| format!("{}:{}: invalid JSON: {e}", path.display(), lineno + 1))?;
        if v.get("schema").and_then(|s| s.as_str()) == Some(dr_fleet::FLEET_SCHEMA) {
            entries.push(v);
        }
    }
    if entries.is_empty() {
        return Err(format!(
            "{}: no entries with schema {}",
            path.display(),
            dr_fleet::FLEET_SCHEMA
        ));
    }
    Ok(entries)
}

/// Structural facts of one fleet stream that are stable across timing:
/// worker set, per-worker completion records, and sequence integrity.
fn fleet_shape(entries: &[Value]) -> (Vec<u64>, Vec<(u64, u64)>, bool) {
    let mut workers: Vec<u64> = Vec::new();
    let mut completions: Vec<(u64, u64)> = Vec::new();
    let mut gapless = true;
    for (i, e) in entries.iter().enumerate() {
        if e.get("gseq").and_then(|g| g.as_u64()) != Some(i as u64) {
            gapless = false;
        }
        let Some(w) = e.get("worker").and_then(|w| w.as_u64()) else {
            continue;
        };
        if !workers.contains(&w) {
            workers.push(w);
        }
        if e.path(&["event", "kind"]).and_then(|k| k.as_str()) == Some("shard-done") {
            let records = e
                .path(&["event", "records"])
                .and_then(|r| r.as_u64())
                .unwrap_or_default();
            completions.push((w, records));
        }
    }
    workers.sort_unstable();
    completions.sort_unstable();
    (workers, completions, gapless)
}

/// Compares two merged fleet streams structurally: both must be gapless
/// globally-sequenced streams, cover the same worker set, and complete
/// each shard with the same record count. Event totals (heartbeat
/// cadence is timing-dependent) only ever produce notes.
pub fn compare_fleet(a: &[Value], b: &[Value]) -> CompareReport {
    let mut report = CompareReport {
        identical_records: true,
        ..CompareReport::default()
    };
    report.lines.push(format!(
        "fleet: baseline {} merged events, candidate {}",
        a.len(),
        b.len()
    ));
    let (wa, ca, ga) = fleet_shape(a);
    let (wb, cb, gb) = fleet_shape(b);
    for (name, gapless) in [("baseline", ga), ("candidate", gb)] {
        if !gapless {
            report
                .regressions
                .push(format!("{name} stream is not gapless (gseq has holes)"));
        }
    }
    if wa == wb {
        report
            .lines
            .push(format!("workers: identical ({} workers)", wa.len()));
    } else {
        report
            .regressions
            .push(format!("worker sets differ: {wa:?} vs {wb:?}"));
    }
    if ca == cb {
        report.lines.push(format!(
            "completions: identical ({} shard-done records)",
            ca.len()
        ));
    } else {
        report.identical_records = false;
        report
            .regressions
            .push(format!("shard completions differ: {ca:?} vs {cb:?}"));
    }
    if a.len() != b.len() {
        report
            .notes
            .push("merged event totals differ (heartbeat cadence is timing-dependent)".to_string());
    }
    report
}

/// Flattens one benchmark entry into named scalar series points. For
/// `pipeline` histories every leg contributes its total and per-phase
/// seconds (`mcts/explore`, …); for `explore` histories every leg
/// contributes its wall time (`exhaustive@4t`, …).
fn bench_series(kind: &str, entry: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let legs = entry.get("legs").and_then(|l| l.as_arr());
    for leg in legs.into_iter().flatten() {
        let strategy = leg
            .get("strategy")
            .and_then(|s| s.as_str())
            .unwrap_or("unknown");
        match kind {
            "pipeline" => {
                if let Some(total) = leg.get("total_s").and_then(|t| t.as_f64()) {
                    out.push((format!("{strategy}/total"), total));
                }
                if let Some(Value::Obj(phases)) = leg.get("phases") {
                    for (name, v) in phases {
                        if let Some(s) = v.as_f64() {
                            out.push((format!("{strategy}/{name}"), s));
                        }
                    }
                }
            }
            _ => {
                let threads = leg.get("threads").and_then(|t| t.as_u64()).unwrap_or(0);
                if let Some(wall) = leg.get("wall_s").and_then(|w| w.as_f64()) {
                    out.push((format!("{strategy}@{threads}t"), wall));
                }
            }
        }
    }
    out
}

/// The configuration a benchmark entry ran under; histories are only
/// statistically comparable within one configuration.
fn bench_identity(e: &Value) -> (String, u64) {
    (
        e.get("scenario")
            .and_then(|s| s.as_str())
            .unwrap_or("?")
            .to_string(),
        e.get("seed").and_then(|s| s.as_u64()).unwrap_or_default(),
    )
}

/// Compares two benchmark histories of one kind; `a` is the committed
/// baseline, `b` the fresh run (its last entry is the head). Wall-clock
/// series are compared with the same MAD noise bands as
/// [`compare_ledgers`] phases; entries whose scenario/seed differ from
/// the head's are excluded from the statistics.
pub fn compare_bench(kind: &str, a: &[Value], b: &[Value], opts: &CompareOptions) -> CompareReport {
    // Bench histories carry no record fingerprints; the flag reports
    // the structural side as not-applicable-but-clean.
    let mut report = CompareReport {
        identical_records: true,
        ..CompareReport::default()
    };
    let (Some(ha), Some(hb)) = (a.last(), b.last()) else {
        report.notes.push("one of the histories is empty".into());
        return report;
    };
    let ida = bench_identity(ha);
    let idb = bench_identity(hb);
    report.lines.push(format!(
        "bench {kind}: baseline {} entr{}, candidate {} entr{}",
        a.len(),
        if a.len() == 1 { "y" } else { "ies" },
        b.len(),
        if b.len() == 1 { "y" } else { "ies" }
    ));
    if ida != idb {
        report.notes.push(format!(
            "bench configurations differ (a: {ida:?}, b: {idb:?}); comparison skipped"
        ));
        return report;
    }
    let history = |entries: &[Value]| -> Vec<Vec<(String, f64)>> {
        entries
            .iter()
            .filter(|e| bench_identity(e) == ida)
            .map(|e| bench_series(kind, e))
            .collect()
    };
    let hist_a = history(a);
    let hist_b = history(b);
    let series = |hist: &[Vec<(String, f64)>], name: &str| -> Vec<f64> {
        hist.iter()
            .filter_map(|points| points.iter().find(|(n, _)| n == name).map(|(_, s)| *s))
            .collect()
    };
    let names: Vec<String> = bench_series(kind, ha).into_iter().map(|(n, _)| n).collect();
    for name in &names {
        let mut sa = series(&hist_a, name);
        let mut sb = series(&hist_b, name);
        if sa.is_empty() || sb.is_empty() {
            report
                .notes
                .push(format!("series {name}: missing from one history"));
            continue;
        }
        let med_a = median(&mut sa);
        let med_b = median(&mut sb);
        let band = (opts.noise_k * mad(&sa, med_a)).max(opts.abs_floor_s);
        let delta = med_b - med_a;
        let regressed = delta > band && med_b > opts.ratio * med_a && med_a >= 0.0;
        report.lines.push(format!(
            "{name}: a {:.3} ms, b {:.3} ms, delta {:+.3} ms (band ±{:.3} ms){}",
            med_a * 1e3,
            med_b * 1e3,
            delta * 1e3,
            band * 1e3,
            if regressed { " REGRESSED" } else { "" }
        ));
        if regressed {
            report.regressions.push(format!(
                "{name} slowed {:.3} ms -> {:.3} ms (x{:.1}, band ±{:.3} ms)",
                med_a * 1e3,
                med_b * 1e3,
                med_b / med_a.max(1e-12),
                band * 1e3
            ));
        }
    }
    for (name, _) in bench_series(kind, hb) {
        if !names.contains(&name) {
            report
                .notes
                .push(format!("series {name}: new in candidate history"));
        }
    }
    report
}

/// The run identity a ledger entry was filed under (used to decide
/// which history entries are statistically comparable).
fn identity(e: &Value) -> (String, String, u64, u64) {
    let s = |k: &str| {
        e.get(k)
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_string()
    };
    let n = |k: &str| e.get(k).and_then(|v| v.as_u64()).unwrap_or_default();
    (s("scenario"), s("strategy"), n("seed"), n("iterations"))
}

/// `(name, seconds)` pairs of an entry's phase table.
fn phases_of(e: &Value) -> Vec<(String, f64)> {
    match e.get("phases") {
        Some(Value::Obj(members)) => members
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|s| (k.clone(), s)))
            .collect(),
        _ => Vec::new(),
    }
}

/// The `resilience` counter block flattened to `(key, value)` pairs, or
/// `None` when the entry recorded `null`.
pub(crate) fn resilience_counters(e: &Value) -> Option<Vec<(String, u64)>> {
    match e.get("resilience") {
        Some(Value::Obj(members)) => Some(
            members
                .iter()
                .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                .collect(),
        ),
        _ => None,
    }
}

/// The head entry's rule sets as comparable strings.
fn rule_signatures(e: &Value) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(rules) = e.get("rules").and_then(|r| r.as_arr()) {
        for rs in rules {
            let class = rs.get("class").and_then(|c| c.as_u64()).unwrap_or_default();
            let phrases: Vec<&str> = rs
                .get("rules")
                .and_then(|p| p.as_arr())
                .into_iter()
                .flatten()
                .filter_map(|p| p.as_str())
                .collect();
            out.push(format!("class {class}: {}", phrases.join(" AND ")));
        }
    }
    out.sort();
    out
}

/// Compares two ledger histories; `a` is the baseline, `b` the
/// candidate. The last entry of each is the head; earlier entries with
/// the head's identity widen the statistical noise band.
pub fn compare_ledgers(a: &[Value], b: &[Value], opts: &CompareOptions) -> CompareReport {
    let mut report = CompareReport::default();
    let (Some(ha), Some(hb)) = (a.last(), b.last()) else {
        report.notes.push("one of the ledgers is empty".into());
        return report;
    };
    let run_id = |e: &Value| {
        e.path(&["provenance", "run_id"])
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string()
    };
    let git = |e: &Value| {
        e.path(&["provenance", "git"])
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string()
    };
    report.lines.push(format!(
        "a: {} (git {}), {} entr{}",
        run_id(ha),
        git(ha),
        a.len(),
        if a.len() == 1 { "y" } else { "ies" }
    ));
    report.lines.push(format!(
        "b: {} (git {}), {} entr{}",
        run_id(hb),
        git(hb),
        b.len(),
        if b.len() == 1 { "y" } else { "ies" }
    ));

    let ida = identity(ha);
    let idb = identity(hb);
    let comparable = ida == idb;
    if !comparable {
        report.notes.push(format!(
            "run identities differ (a: {ida:?}, b: {idb:?}); structural record checks skipped"
        ));
    }

    // Structural: record-set fingerprint. The engine is deterministic,
    // so under one identity the fingerprints must be bit-identical.
    let fp = |e: &Value| {
        e.path(&["records", "fingerprint"])
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string()
    };
    let count = |e: &Value| {
        e.path(&["records", "count"])
            .and_then(|v| v.as_u64())
            .unwrap_or_default()
    };
    report.identical_records = fp(ha) == fp(hb) && fp(ha) != "?";
    if comparable {
        if report.identical_records {
            report.lines.push(format!(
                "records: identical ({} records, fingerprint {})",
                count(ha),
                fp(ha)
            ));
        } else {
            report.regressions.push(format!(
                "record set diverged under one identity: {} records / {} vs {} records / {}",
                count(ha),
                fp(ha),
                count(hb),
                fp(hb)
            ));
        }
    }

    // Structural: mined rule sets.
    let ra = rule_signatures(ha);
    let rb = rule_signatures(hb);
    if ra == rb {
        report
            .lines
            .push(format!("rules: identical ({} rulesets)", ra.len()));
    } else {
        let gone: Vec<&String> = ra.iter().filter(|r| !rb.contains(r)).collect();
        let new: Vec<&String> = rb.iter().filter(|r| !ra.contains(r)).collect();
        let msg = format!(
            "rule sets differ: {} removed {gone:?}, {} added {new:?}",
            gone.len(),
            new.len()
        );
        if comparable && report.identical_records {
            report.regressions.push(msg);
        } else {
            report.notes.push(msg);
        }
    }

    // Structural: resilience counter drift. Resilience presence
    // flipping (clean run vs fault injection) is itself drift worth
    // failing on — it means the two runs measured different conditions.
    let ca = resilience_counters(ha);
    let cb = resilience_counters(hb);
    match (&ca, &cb) {
        (None, None) => report.lines.push("resilience: absent in both".into()),
        (Some(x), Some(y)) if x == y => {
            report.lines.push("resilience: counters identical".into());
        }
        (Some(x), Some(y)) => {
            let mut drift = Vec::new();
            for (k, va) in x {
                let vb = y
                    .iter()
                    .find(|(kb, _)| kb == k)
                    .map(|(_, v)| *v)
                    .unwrap_or_default();
                if *va != vb {
                    drift.push(format!("{k} {va} -> {vb}"));
                }
            }
            report
                .regressions
                .push(format!("resilience counters drifted: {}", drift.join(", ")));
        }
        _ => {
            report.regressions.push(format!(
                "resilience drift: present in {} only",
                if ca.is_some() { "a" } else { "b" }
            ));
        }
    }

    // Statistical: per-phase medians with a MAD noise band over the
    // baseline history (entries sharing the head's identity).
    let history = |entries: &[Value], id: &(String, String, u64, u64)| -> Vec<Vec<(String, f64)>> {
        entries
            .iter()
            .filter(|e| identity(e) == *id)
            .map(phases_of)
            .collect()
    };
    let hist_a = history(a, &ida);
    let hist_b = history(b, &idb);
    let series = |hist: &[Vec<(String, f64)>], name: &str| -> Vec<f64> {
        hist.iter()
            .filter_map(|phases| phases.iter().find(|(n, _)| n == name).map(|(_, s)| *s))
            .collect()
    };
    let phase_names: Vec<String> = phases_of(ha).into_iter().map(|(n, _)| n).collect();
    for name in &phase_names {
        let mut sa = series(&hist_a, name);
        let mut sb = series(&hist_b, name);
        if sa.is_empty() || sb.is_empty() {
            report
                .notes
                .push(format!("phase {name}: missing from one ledger"));
            continue;
        }
        let med_a = median(&mut sa);
        let med_b = median(&mut sb);
        let band = (opts.noise_k * mad(&sa, med_a)).max(opts.abs_floor_s);
        let delta = med_b - med_a;
        let regressed = delta > band && med_b > opts.ratio * med_a && med_a >= 0.0;
        report.lines.push(format!(
            "phase {name}: a {:.3} ms, b {:.3} ms, delta {:+.3} ms (band ±{:.3} ms){}",
            med_a * 1e3,
            med_b * 1e3,
            delta * 1e3,
            band * 1e3,
            if regressed { " REGRESSED" } else { "" }
        ));
        if regressed {
            report.regressions.push(format!(
                "phase {name} slowed {:.3} ms -> {:.3} ms (x{:.1}, band ±{:.3} ms)",
                med_a * 1e3,
                med_b * 1e3,
                med_b / med_a.max(1e-12),
                band * 1e3
            ));
        }
    }
    for (name, _) in phases_of(hb) {
        if !phase_names.contains(&name) {
            report
                .notes
                .push(format!("phase {name}: new in candidate ledger"));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seed: u64, explore_s: f64, fingerprint: &str, resilience: bool) -> Value {
        let res = if resilience {
            "{\"evaluations\":10,\"retries\":2,\"deadlocks\":0,\"budget_kills\":0,\"panics\":0,\"quarantined\":0}".to_string()
        } else {
            "null".to_string()
        };
        let line = format!(
            concat!(
                "{{\"schema\":\"dr-ledger/v1\",",
                "\"provenance\":{{\"run_id\":\"r{}\",\"git\":\"abc\",\"created_unix\":1}},",
                "\"scenario\":\"spmv\",\"strategy\":\"exhaustive\",\"seed\":{},\"iterations\":0,",
                "\"threads\":1,\"config\":{{\"faults_active\":{}}},",
                "\"phases\":{{\"explore\":{},\"train\":0.001}},",
                "\"records\":{{\"count\":8,\"fingerprint\":\"{}\"}},",
                "\"resilience\":{},",
                "\"rules\":[{{\"class\":0,\"samples\":4,\"pure\":true,\"rules\":[\"x\"],",
                "\"support\":[0],\"class_split\":[4,0]}}]}}"
            ),
            seed, seed, resilience, explore_s, fingerprint, res
        );
        json::parse(&line).unwrap()
    }

    #[test]
    fn identical_heads_pass() {
        let a = vec![entry(1, 0.010, "aaaa", false)];
        let b = vec![entry(1, 0.011, "aaaa", false)];
        let r = compare_ledgers(&a, &b, &CompareOptions::default());
        assert!(!r.is_regression(), "{:?}", r.regressions);
        assert!(r.identical_records);
    }

    #[test]
    fn fingerprint_divergence_regresses() {
        let a = vec![entry(1, 0.010, "aaaa", false)];
        let b = vec![entry(1, 0.010, "bbbb", false)];
        let r = compare_ledgers(&a, &b, &CompareOptions::default());
        assert!(r.is_regression());
        assert!(r.regressions[0].contains("record set diverged"));
    }

    #[test]
    fn phase_blowup_regresses_but_jitter_does_not() {
        let a = vec![entry(1, 0.010, "aaaa", false)];
        let slow = vec![entry(1, 10.0, "aaaa", false)];
        let r = compare_ledgers(&a, &slow, &CompareOptions::default());
        assert!(r.is_regression());
        assert!(r.regressions.iter().any(|m| m.contains("phase explore")));
        // Below the absolute floor: 12 ms vs 10 ms never regresses.
        let jitter = vec![entry(1, 0.012, "aaaa", false)];
        let r = compare_ledgers(&a, &jitter, &CompareOptions::default());
        assert!(!r.is_regression(), "{:?}", r.regressions);
    }

    #[test]
    fn resilience_presence_flip_is_drift() {
        let a = vec![entry(1, 0.010, "aaaa", false)];
        let b = vec![entry(1, 0.010, "aaaa", true)];
        let r = compare_ledgers(&a, &b, &CompareOptions::default());
        assert!(r.is_regression());
        assert!(r.regressions.iter().any(|m| m.contains("resilience")));
    }

    #[test]
    fn different_seeds_note_but_skip_structural() {
        let a = vec![entry(1, 0.010, "aaaa", false)];
        let b = vec![entry(2, 0.010, "bbbb", false)];
        let r = compare_ledgers(&a, &b, &CompareOptions::default());
        assert!(!r.is_regression(), "{:?}", r.regressions);
        assert!(!r.notes.is_empty());
    }

    fn bench_entry(explore_s: f64) -> Value {
        let line = format!(
            concat!(
                "{{\"scenario\":\"small\",\"seed\":213,\"mcts_budget\":400,",
                "\"space_traversals\":36,\"legs\":[",
                "{{\"strategy\":\"mcts\",\"threads\":1,\"records\":36,",
                "\"records_per_sec\":100.0,\"total_s\":{},",
                "\"phases\":{{\"explore\":{},\"train\":0.002}}}}]}}"
            ),
            explore_s + 0.002,
            explore_s
        );
        json::parse(&line).unwrap()
    }

    #[test]
    fn bench_history_within_band_passes() {
        let a: Vec<Value> = [0.010, 0.012, 0.011]
            .iter()
            .map(|s| bench_entry(*s))
            .collect();
        let b = vec![bench_entry(0.013)];
        let r = compare_bench("pipeline", &a, &b, &CompareOptions::default());
        assert!(!r.is_regression(), "{:?}", r.regressions);
        assert!(r.lines.iter().any(|l| l.contains("mcts/explore")));
    }

    #[test]
    fn bench_blowup_regresses() {
        let a: Vec<Value> = [0.010, 0.012, 0.011]
            .iter()
            .map(|s| bench_entry(*s))
            .collect();
        let b = vec![bench_entry(5.0)];
        let r = compare_bench("pipeline", &a, &b, &CompareOptions::default());
        assert!(r.is_regression());
        assert!(r.regressions.iter().any(|m| m.contains("mcts/explore")));
    }

    #[test]
    fn bench_config_drift_skips_comparison() {
        let a = vec![bench_entry(0.010)];
        let mut line = bench_entry(5.0);
        if let Value::Obj(members) = &mut line {
            for (k, v) in members.iter_mut() {
                if k == "seed" {
                    *v = Value::Num(999.0);
                }
            }
        }
        let r = compare_bench("pipeline", &a, &[line], &CompareOptions::default());
        assert!(!r.is_regression(), "{:?}", r.regressions);
        assert!(r.notes.iter().any(|n| n.contains("configurations differ")));
    }

    fn fleet_line(gseq: u64, worker: &str, kind: &str, records: u64) -> Value {
        let line = format!(
            concat!(
                "{{\"schema\":\"dr-fleet/v1\",\"gseq\":{},\"worker\":{},\"seen_s\":0.5,",
                "\"event\":{{\"schema\":\"dr-events/v1\",\"run\":\"r\",\"seq\":0,\"t_s\":0.1,",
                "\"kind\":\"{}\",\"records\":{}}}}}"
            ),
            gseq, worker, kind, records
        );
        json::parse(&line).unwrap()
    }

    #[test]
    fn fleet_streams_with_matching_shape_pass() {
        let a = vec![
            fleet_line(0, "null", "worker-spawn", 0),
            fleet_line(1, "0", "heartbeat", 0),
            fleet_line(2, "0", "shard-done", 9),
        ];
        let b = vec![
            fleet_line(0, "0", "heartbeat", 0),
            fleet_line(1, "0", "heartbeat", 0),
            fleet_line(2, "0", "shard-done", 9),
            fleet_line(3, "null", "swarm-done", 0),
        ];
        let r = compare_fleet(&a, &b);
        assert!(!r.is_regression(), "{:?}", r.regressions);
        assert!(r.notes.iter().any(|n| n.contains("totals differ")));
    }

    #[test]
    fn fleet_gaps_and_divergent_completions_regress() {
        let ok = vec![fleet_line(0, "0", "shard-done", 9)];
        let gappy = vec![
            fleet_line(0, "0", "heartbeat", 0),
            fleet_line(5, "0", "shard-done", 9),
        ];
        let r = compare_fleet(&ok, &gappy);
        assert!(
            r.regressions.iter().any(|m| m.contains("not gapless")),
            "{:?}",
            r.regressions
        );
        let fewer = vec![fleet_line(0, "0", "shard-done", 4)];
        let r = compare_fleet(&ok, &fewer);
        assert!(r
            .regressions
            .iter()
            .any(|m| m.contains("completions differ")));
        assert!(!r.identical_records);
    }

    #[test]
    fn mad_band_widens_with_history() {
        // Baseline history jitters between 10 and 90 ms; a 100 ms
        // candidate sits inside the calibrated noise band even though
        // it exceeds the absolute floor and ratio vs the low samples.
        let a: Vec<Value> = [0.010, 0.090, 0.050, 0.080, 0.020]
            .iter()
            .map(|s| entry(1, *s, "aaaa", false))
            .collect();
        let b = vec![entry(1, 0.100, "aaaa", false)];
        let r = compare_ledgers(&a, &b, &CompareOptions::default());
        assert!(!r.is_regression(), "{:?}", r.regressions);
    }
}
