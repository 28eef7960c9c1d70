//! The run ledger: an append-only JSONL record of pipeline runs.
//!
//! Every instrumented run can be distilled into one self-describing
//! JSON line — provenance, configuration, per-phase timings, search
//! telemetry summary, resilience counters, a fingerprint of the
//! record set, and the mined rule set with per-rule provenance (which
//! explored implementations support each ruleset, split by class).
//! Lines append to `ledger.jsonl` inside the directory named by the
//! `--ledger` flag (or the `DR_LEDGER` variable), so a ledger
//! accumulates history across runs and machines; the `compare` command
//! ([`crate::compare_ledgers`]) diffs two such histories for
//! regressions.
//!
//! The schema is versioned ([`LEDGER_SCHEMA`]): consumers skip lines
//! whose `schema` field they do not recognize, so the format can evolve
//! without invalidating old ledgers.

use crate::pipeline::InstrumentedRun;
use crate::synthesize::satisfies;
use dr_dag::DecisionSpace;
use dr_mcts::ExploredRecord;
use dr_obs::json;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Version tag of the ledger line format.
pub const LEDGER_SCHEMA: &str = "dr-ledger/v1";

/// File name of the ledger inside a ledger directory.
pub const LEDGER_FILE: &str = "ledger.jsonl";

/// The run identity a ledger entry is filed under (everything that must
/// match for two entries to be comparable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerContext<'a> {
    /// Scenario name (e.g. `spmv`, `halo`).
    pub scenario: &'a str,
    /// Strategy name (`exhaustive`, `mcts`, or `random`).
    pub strategy: &'a str,
    /// The search seed (0 for the seedless exhaustive strategy).
    pub seed: u64,
    /// The iteration budget (0 for exhaustive).
    pub iterations: u64,
}

/// Order-sensitive FNV-1a fingerprint of the record set: folds each
/// record's canonical traversal hash and the exact bits of its measured
/// time. Two runs with equal fingerprints measured the same
/// implementations to the same values in the same order.
pub fn records_fingerprint(records: &[ExploredRecord]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for r in records {
        mix(r.traversal.canonical_hash());
        mix(r.result.time().to_bits());
    }
    h
}

/// Renders one ledger line (no trailing newline) for an instrumented
/// run. The line is self-contained: schema tag, provenance, run
/// identity, configuration, phase timings, summaries, the record-set
/// fingerprint, and each mined ruleset with its supporting records.
pub fn ledger_entry_json(
    ctx: &LedgerContext<'_>,
    run: &InstrumentedRun,
    space: &DecisionSpace,
) -> String {
    let report = &run.report;
    let mut out = String::with_capacity(2048);
    out.push_str(&format!(
        "{{\"schema\":\"{}\",\"provenance\":{},\"scenario\":\"{}\",\"strategy\":\"{}\",\"seed\":{},\"iterations\":{},\"threads\":{}",
        LEDGER_SCHEMA,
        report.provenance.to_json(),
        json::escape(ctx.scenario),
        json::escape(ctx.strategy),
        ctx.seed,
        ctx.iterations,
        run.threads,
    ));
    out.push_str(&format!(",\"config\":{}", report.config_json()));
    out.push_str(&format!(",\"phases\":{}", report.phases.to_json()));
    out.push_str(&format!(",\"search\":{}", report.search.to_json()));
    out.push_str(&format!(
        ",\"cache\":{{\"hits\":{},\"misses\":{}}}",
        run.cache.hits, run.cache.misses
    ));
    out.push_str(&format!(
        ",\"records\":{{\"count\":{},\"fingerprint\":\"{:016x}\"}}",
        run.result.records.len(),
        records_fingerprint(&run.result.records)
    ));
    out.push_str(&format!(
        ",\"resilience\":{}",
        report
            .resilience
            .map_or("null".to_string(), |r| r.to_json())
    ));
    out.push_str(&format!(
        ",\"mining\":{{\"num_classes\":{},\"tree_error\":{},\"num_rulesets\":{}}}",
        report.mining.num_classes,
        json::number(report.mining.tree_error),
        report.mining.num_rulesets
    ));
    out.push_str(",\"rules\":[");
    for (i, rs) in run.result.rulesets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Per-rule provenance: which explored implementations satisfy
        // every condition of this ruleset, and how those supporters
        // split across the labeled performance classes.
        let mut support: Vec<usize> = Vec::new();
        let mut split = vec![0u64; run.result.labeling.num_classes];
        for (idx, rec) in run.result.records.iter().enumerate() {
            if satisfies(space, &rec.traversal, &rs.rules) {
                support.push(idx);
                let label = run.result.labeling.labels[idx];
                if label < split.len() {
                    split[label] += 1;
                }
            }
        }
        let phrases: Vec<String> = dr_ml::render_ruleset(rs, space)
            .into_iter()
            .map(|p| format!("\"{}\"", json::escape(&p)))
            .collect();
        let support_json: Vec<String> = support.iter().map(|s| s.to_string()).collect();
        let split_json: Vec<String> = split.iter().map(|s| s.to_string()).collect();
        out.push_str(&format!(
            "{{\"class\":{},\"samples\":{},\"pure\":{},\"rules\":[{}],\"support\":[{}],\"class_split\":[{}]}}",
            rs.class,
            rs.samples,
            rs.pure,
            phrases.join(","),
            support_json.join(","),
            split_json.join(",")
        ));
    }
    out.push_str("]}");
    debug_assert!(json::validate(&out).is_ok(), "ledger entry must be JSON");
    out
}

/// Appends one entry line to `<dir>/ledger.jsonl`, creating the
/// directory and file as needed, and returns the ledger file's path.
pub fn append_entry(dir: &Path, entry: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(LEDGER_FILE);
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    writeln!(f, "{entry}")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_and_value_sensitive() {
        // Fabricate two tiny record lists differing only in time bits.
        let t = dr_dag::Traversal { steps: vec![] };
        let mk = |time: f64| ExploredRecord {
            traversal: t.clone(),
            result: dr_sim::BenchResult {
                measurements: vec![time],
                percentiles: dr_sim::Percentiles {
                    p01: time,
                    p10: time,
                    p50: time,
                    p90: time,
                    p99: time,
                },
            },
        };
        let a = [mk(1.0), mk(2.0)];
        let b = [mk(2.0), mk(1.0)];
        let c = [mk(1.0), mk(2.0)];
        assert_eq!(records_fingerprint(&a), records_fingerprint(&c));
        assert_ne!(records_fingerprint(&a), records_fingerprint(&b));
        assert_ne!(records_fingerprint(&a), records_fingerprint(&a[..1]));
    }

    #[test]
    fn ledger_entry_serializes_a_real_run_with_rule_provenance() {
        use dr_dag::{CostKey, DagBuilder, OpSpec};
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        let space = dr_dag::DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let mut w = dr_sim::TableWorkload::new(1);
        w.cost_all("a", 5e-4)
            .cost_all("b", 5e-4)
            .cost_all("c", 1e-5);
        let platform = dr_sim::Platform {
            gpu_contention: 0.0,
            ..dr_sim::Platform::perlmutter_like().noiseless()
        };
        let run = crate::run_pipeline_instrumented(
            &space,
            &w,
            &platform,
            crate::Strategy::Exhaustive,
            &crate::PipelineConfig::quick(),
        )
        .unwrap();
        let ctx = LedgerContext {
            scenario: "test",
            strategy: "exhaustive",
            seed: 0,
            iterations: 0,
        };
        let entry = ledger_entry_json(&ctx, &run, &space);
        json::validate(&entry).unwrap();
        let v = json::parse(&entry).unwrap();
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some(LEDGER_SCHEMA)
        );
        assert_eq!(
            v.path(&["records", "count"]).and_then(|c| c.as_u64()),
            Some(run.result.records.len() as u64)
        );
        assert!(v
            .path(&["provenance", "run_id"])
            .and_then(|r| r.as_str())
            .is_some());
        // Every ruleset carries supporting records, and each supporter
        // list is consistent with its class split.
        let rules = v.get("rules").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(rules.len(), run.result.rulesets.len());
        for rs in rules {
            let support = rs.get("support").and_then(|s| s.as_arr()).unwrap();
            let split = rs.get("class_split").and_then(|s| s.as_arr()).unwrap();
            assert!(!support.is_empty(), "each leaf has supporters");
            let total: u64 = split.iter().filter_map(|x| x.as_u64()).sum();
            assert_eq!(total, support.len() as u64);
        }
        // Determinism: the same run serializes to the same entry.
        assert_eq!(entry, ledger_entry_json(&ctx, &run, &space));
    }

    #[test]
    fn append_creates_dir_and_accumulates_lines() {
        let dir = std::env::temp_dir().join(format!("dr-ledger-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p1 = append_entry(&dir, "{\"schema\":\"dr-ledger/v1\"}").unwrap();
        let p2 = append_entry(&dir, "{\"schema\":\"dr-ledger/v1\"}").unwrap();
        assert_eq!(p1, p2);
        let text = std::fs::read_to_string(&p1).unwrap();
        assert_eq!(text.lines().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
