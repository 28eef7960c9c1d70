//! Run analytics over a ledger history: list, filter, inspect, trend.
//!
//! The ledger (see [`crate::ledger`]) accumulates one self-describing
//! JSON line per instrumented run. This module is the query side:
//! filter entries by scenario / seed / git describe, render one-line
//! summaries and full views, and compute phase / cache / resilience
//! trends across the selected history. `runs diff` support is
//! deliberately thin — it selects two entries and hands them to
//! [`crate::compare_ledgers`] as single-entry histories, so its verdict
//! (and exit status) agrees with `compare` on the same entries by
//! construction.

use crate::compare::{compare_ledgers, resilience_counters, CompareOptions, CompareReport};
use dr_obs::json::Value;
use dr_obs::{mad, median};

/// Predicate over ledger entries; empty filter matches everything.
#[derive(Debug, Clone, Default)]
pub struct RunFilter {
    /// Exact scenario name to keep (`spmv`, `halo`, ...).
    pub scenario: Option<String>,
    /// Exact search seed to keep.
    pub seed: Option<u64>,
    /// Substring of the provenance git describe to keep.
    pub git: Option<String>,
}

fn str_at<'v>(e: &'v Value, path: &[&str]) -> &'v str {
    e.path(path).and_then(Value::as_str).unwrap_or("?")
}

fn u64_at(e: &Value, path: &[&str]) -> u64 {
    e.path(path).and_then(Value::as_u64).unwrap_or_default()
}

impl RunFilter {
    /// Whether the entry passes every set predicate.
    pub fn matches(&self, e: &Value) -> bool {
        if let Some(s) = &self.scenario {
            if str_at(e, &["scenario"]) != s {
                return false;
            }
        }
        if let Some(seed) = self.seed {
            if u64_at(e, &["seed"]) != seed {
                return false;
            }
        }
        if let Some(git) = &self.git {
            if !str_at(e, &["provenance", "git"]).contains(git.as_str()) {
                return false;
            }
        }
        true
    }
}

/// The filtered entries with their positions in the full history
/// (positions are what `runs show 3` selects).
pub fn select<'a>(entries: &'a [Value], filter: &RunFilter) -> Vec<(usize, &'a Value)> {
    entries
        .iter()
        .enumerate()
        .filter(|(_, e)| filter.matches(e))
        .collect()
}

/// Resolves a selector — a zero-based history index or a run-id prefix —
/// to one entry.
pub fn find_entry<'a>(entries: &'a [Value], selector: &str) -> Result<(usize, &'a Value), String> {
    if let Ok(idx) = selector.parse::<usize>() {
        return entries
            .get(idx)
            .map(|e| (idx, e))
            .ok_or_else(|| format!("no ledger entry {idx} (history has {})", entries.len()));
    }
    let hits: Vec<(usize, &Value)> = entries
        .iter()
        .enumerate()
        .filter(|(_, e)| str_at(e, &["provenance", "run_id"]).starts_with(selector))
        .collect();
    match hits.len() {
        0 => Err(format!("no ledger entry with run id {selector:?}")),
        1 => Ok(hits[0]),
        n => Err(format!("run id {selector:?} is ambiguous ({n} entries)")),
    }
}

/// One-line summary of an entry, for `runs list`.
pub fn summary_line(index: usize, e: &Value) -> String {
    let faults = if e.path(&["resilience"]).is_some_and(|r| !r.is_null()) {
        " faults"
    } else {
        ""
    };
    format!(
        "[{index}] {} git {} | {} {} seed {} iter {} | {} records fp {} | {} rulesets{faults}",
        str_at(e, &["provenance", "run_id"]),
        str_at(e, &["provenance", "git"]),
        str_at(e, &["scenario"]),
        str_at(e, &["strategy"]),
        u64_at(e, &["seed"]),
        u64_at(e, &["iterations"]),
        u64_at(e, &["records", "count"]),
        str_at(e, &["records", "fingerprint"]),
        e.get("rules")
            .and_then(Value::as_arr)
            .map_or(0, <[Value]>::len),
    )
}

/// Full text view of one entry, for `runs show`.
pub fn show_entry(index: usize, e: &Value) -> String {
    let mut out = String::new();
    out.push_str(&summary_line(index, e));
    out.push('\n');
    out.push_str(&format!(
        "  threads {} | created_unix {}\n",
        u64_at(e, &["threads"]),
        u64_at(e, &["provenance", "created_unix"]),
    ));
    if let Some(Value::Obj(phases)) = e.get("phases") {
        for (name, v) in phases {
            if let Some(s) = v.as_f64() {
                out.push_str(&format!("  phase {name}: {:.3} ms\n", s * 1e3));
            }
        }
    }
    let hits = u64_at(e, &["cache", "hits"]);
    let misses = u64_at(e, &["cache", "misses"]);
    if hits + misses > 0 {
        out.push_str(&format!(
            "  cache: {hits} hits / {misses} misses ({:.0}%)\n",
            hits as f64 / (hits + misses) as f64 * 100.0
        ));
    }
    if let Some(counters) = resilience_counters(e) {
        let body: Vec<String> = counters.iter().map(|(k, v)| format!("{k} {v}")).collect();
        out.push_str(&format!("  resilience: {}\n", body.join(", ")));
    }
    if let Some(rules) = e.get("rules").and_then(Value::as_arr) {
        for rs in rules {
            let phrases: Vec<&str> = rs
                .get("rules")
                .and_then(Value::as_arr)
                .into_iter()
                .flatten()
                .filter_map(Value::as_str)
                .collect();
            out.push_str(&format!(
                "  rule class {} ({} samples{}): {}\n",
                u64_at(rs, &["class"]),
                u64_at(rs, &["samples"]),
                if rs.get("pure").and_then(Value::as_bool) == Some(true) {
                    ", pure"
                } else {
                    ""
                },
                phrases.join(" AND ")
            ));
        }
    }
    out
}

/// Phase / cache / resilience trends across a selected history, for the
/// tail of `runs list`: per-phase median ± MAD, cache hit-rate sweep,
/// and total retries/quarantines across fault-injected entries.
pub fn trend_lines(entries: &[&Value]) -> Vec<String> {
    let mut out = Vec::new();
    if entries.is_empty() {
        return out;
    }
    let mut phase_names: Vec<String> = Vec::new();
    for e in entries {
        if let Some(Value::Obj(phases)) = e.get("phases") {
            for (name, _) in phases {
                if !phase_names.contains(name) {
                    phase_names.push(name.clone());
                }
            }
        }
    }
    for name in &phase_names {
        let mut xs: Vec<f64> = entries
            .iter()
            .filter_map(|e| e.path(&["phases", name]).and_then(Value::as_f64))
            .collect();
        if xs.is_empty() {
            continue;
        }
        let n = xs.len();
        let med = median(&mut xs);
        out.push(format!(
            "trend phase {name}: median {:.3} ms, mad {:.3} ms over {n} run{}",
            med * 1e3,
            mad(&xs, med) * 1e3,
            if n == 1 { "" } else { "s" }
        ));
    }
    let rates: Vec<f64> = entries
        .iter()
        .filter_map(|e| {
            let hits = u64_at(e, &["cache", "hits"]);
            let total = hits + u64_at(e, &["cache", "misses"]);
            (total > 0).then(|| hits as f64 / total as f64 * 100.0)
        })
        .collect();
    if let (Some(first), Some(last)) = (rates.first(), rates.last()) {
        out.push(format!(
            "trend cache hit rate: {first:.0}% -> {last:.0}% over {} run{}",
            rates.len(),
            if rates.len() == 1 { "" } else { "s" }
        ));
    }
    let mut retries = 0u64;
    let mut quarantined = 0u64;
    let mut faulted = 0usize;
    for e in entries {
        if let Some(counters) = resilience_counters(e) {
            faulted += 1;
            for (k, v) in counters {
                match k.as_str() {
                    "retries" => retries += v,
                    "quarantined" => quarantined += v,
                    _ => {}
                }
            }
        }
    }
    if faulted > 0 {
        out.push(format!(
            "trend resilience: {retries} retries, {quarantined} quarantined across {faulted} faulted run{}",
            if faulted == 1 { "" } else { "s" }
        ));
    }
    out
}

/// Diffs two selected entries by handing them to [`compare_ledgers`] as
/// single-entry histories: the baseline first, the candidate second.
/// The verdict matches what `compare` would report on the same entries.
pub fn diff_entries(a: &Value, b: &Value, opts: &CompareOptions) -> CompareReport {
    compare_ledgers(std::slice::from_ref(a), std::slice::from_ref(b), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_obs::json;

    fn entry(run: &str, git: &str, scenario: &str, seed: u64, explore_s: f64, fp: &str) -> Value {
        let line = format!(
            concat!(
                "{{\"schema\":\"dr-ledger/v1\",",
                "\"provenance\":{{\"run_id\":\"{}\",\"git\":\"{}\",\"created_unix\":1}},",
                "\"scenario\":\"{}\",\"strategy\":\"exhaustive\",\"seed\":{},\"iterations\":0,",
                "\"threads\":1,\"config\":{{\"faults_active\":false}},",
                "\"phases\":{{\"explore\":{},\"train\":0.001}},",
                "\"cache\":{{\"hits\":3,\"misses\":1}},",
                "\"records\":{{\"count\":8,\"fingerprint\":\"{}\"}},",
                "\"resilience\":null,",
                "\"rules\":[{{\"class\":0,\"samples\":4,\"pure\":true,\"rules\":[\"x\"],",
                "\"support\":[0],\"class_split\":[4,0]}}]}}"
            ),
            run, git, scenario, seed, explore_s, fp
        );
        json::parse(&line).unwrap()
    }

    #[test]
    fn filters_by_scenario_seed_and_git() {
        let entries = vec![
            entry("r1", "v1-g1", "spmv", 7, 0.01, "aaaa"),
            entry("r2", "v1-g2", "halo", 7, 0.01, "bbbb"),
            entry("r3", "v2-g3", "spmv", 9, 0.01, "cccc"),
        ];
        let f = RunFilter {
            scenario: Some("spmv".into()),
            ..RunFilter::default()
        };
        let hits = select(&entries, &f);
        assert_eq!(hits.iter().map(|(i, _)| *i).collect::<Vec<_>>(), [0, 2]);
        let f = RunFilter {
            seed: Some(7),
            git: Some("v1".into()),
            ..RunFilter::default()
        };
        assert_eq!(select(&entries, &f).len(), 2);
    }

    #[test]
    fn selectors_accept_index_and_run_id_prefix() {
        let entries = vec![
            entry("run-alpha", "g", "spmv", 1, 0.01, "aaaa"),
            entry("run-beta", "g", "spmv", 2, 0.01, "bbbb"),
        ];
        assert_eq!(find_entry(&entries, "1").unwrap().0, 1);
        assert_eq!(find_entry(&entries, "run-b").unwrap().0, 1);
        assert!(find_entry(&entries, "9").is_err());
        assert!(find_entry(&entries, "nope").is_err());
        assert!(find_entry(&entries, "run-").is_err(), "ambiguous prefix");
    }

    #[test]
    fn list_show_and_trends_render() {
        let entries = [
            entry("r1", "v1", "spmv", 7, 0.010, "aaaa"),
            entry("r2", "v1", "spmv", 7, 0.014, "aaaa"),
        ];
        let line = summary_line(0, &entries[0]);
        assert!(line.contains("[0] r1 git v1"), "{line}");
        assert!(line.contains("8 records fp aaaa"), "{line}");
        let show = show_entry(1, &entries[1]);
        assert!(show.contains("phase explore: 14.000 ms"), "{show}");
        assert!(show.contains("cache: 3 hits / 1 misses (75%)"), "{show}");
        assert!(show.contains("rule class 0 (4 samples, pure): x"), "{show}");
        let refs: Vec<&Value> = entries.iter().collect();
        let trends = trend_lines(&refs);
        assert!(
            trends.iter().any(|t| t.contains("trend phase explore")),
            "{trends:?}"
        );
        assert!(
            trends.iter().any(|t| t.contains("trend cache hit rate")),
            "{trends:?}"
        );
    }

    #[test]
    fn diff_agrees_with_compare_on_the_same_entries() {
        let a = entry("r1", "v1", "spmv", 7, 0.010, "aaaa");
        let b = entry("r2", "v1", "spmv", 7, 0.010, "bbbb");
        let opts = CompareOptions::default();
        let diff = diff_entries(&a, &b, &opts);
        let cmp = compare_ledgers(std::slice::from_ref(&a), std::slice::from_ref(&b), &opts);
        assert_eq!(diff.is_regression(), cmp.is_regression());
        assert!(diff.is_regression(), "fingerprint divergence regresses");
        let same = diff_entries(&a, &a, &opts);
        assert!(!same.is_regression());
    }
}
