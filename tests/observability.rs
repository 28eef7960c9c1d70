//! End-to-end exercise of the observability surface through the real
//! `dr-rules` binary: `--events`/`--progress` runs must produce the
//! bit-identical record set of a silent run (observation never perturbs
//! the search), event streams must parse line-by-line with gapless
//! sequence numbers under `DR_THREADS=4`, `explain` must render tree
//! statistics and per-rule provenance (text + `dr-explain/v1` JSON),
//! and `bench` must append comparable `BENCH_*.json` history entries
//! that pass the `compare` regression gate against themselves.

use cuda_mpi_design_rules::obs::json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_dr-rules")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dr-obs-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(args: &[&str], envs: &[(&str, &str)], cwd: &Path) -> Output {
    let out = Command::new(bin())
        .args(args)
        .current_dir(cwd)
        .env_remove("DR_FAULTS")
        .env_remove("DR_LEDGER")
        .env_remove("DR_THREADS")
        .env_remove("DR_SCALE")
        .env_remove("DR_SEED")
        .env_remove("DR_EVENTS_RATE")
        .env_remove("DR_RUN_ID")
        .envs(envs.iter().copied())
        .output()
        .expect("dr-rules spawns");
    assert!(
        out.status.success(),
        "dr-rules {args:?} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The `records.fingerprint` of the single entry in `dir`'s ledger.
fn ledger_fingerprint(dir: &Path) -> String {
    let text = std::fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
    let line = text.lines().next().expect("one ledger entry");
    let v = json::parse(line).unwrap();
    v.path(&["records", "fingerprint"])
        .and_then(|f| f.as_str())
        .expect("ledger entry carries a record fingerprint")
        .to_string()
}

#[test]
fn observed_runs_are_bit_identical_to_silent_runs() {
    let dir = scratch("bit-identity");
    let (silent, observed) = (dir.join("silent"), dir.join("observed"));
    let events = dir.join("events.ndjson");
    run_ok(
        &[
            "spmv",
            "explore",
            "--iterations",
            "30",
            "--seed",
            "2",
            "--ledger",
            &silent.display().to_string(),
        ],
        &[],
        &dir,
    );
    // The same run observed two ways at once: NDJSON stream + progress
    // renderer. The record set must not change by a single bit.
    let out = run_ok(
        &[
            "spmv",
            "explore",
            "--iterations",
            "30",
            "--seed",
            "2",
            "--ledger",
            &observed.display().to_string(),
            "--events",
            &events.display().to_string(),
            "--progress",
        ],
        &[],
        &dir,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("events to"), "{stdout}");
    assert_eq!(ledger_fingerprint(&silent), ledger_fingerprint(&observed));
    // Stderr carried plain progress lines (the test harness pipes
    // stderr, so the renderer is in non-TTY mode — no control codes).
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("traversals"), "{stderr}");
    assert!(
        !stderr.contains('\x1b'),
        "non-TTY must not emit ANSI: {stderr:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn event_stream_parses_with_gapless_seqs_under_four_threads() {
    let dir = scratch("events-threads");
    let events = dir.join("events.ndjson");
    run_ok(
        &[
            "spmv",
            "explore",
            "--iterations",
            "60",
            "--seed",
            "3",
            "--events",
            &events.display().to_string(),
        ],
        &[("DR_THREADS", "4"), ("DR_EVENTS_RATE", "4")],
        &dir,
    );
    let text = std::fs::read_to_string(&events).unwrap();
    let mut seqs: Vec<u64> = Vec::new();
    let mut kinds: Vec<String> = Vec::new();
    let mut runs: Vec<String> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("line {i} unparsable: {e}\n{line}"));
        assert_eq!(
            v.get("schema").and_then(json::Value::as_str),
            Some("dr-events/v1"),
            "{line}"
        );
        runs.push(
            v.get("run")
                .and_then(json::Value::as_str)
                .unwrap()
                .to_string(),
        );
        seqs.push(v.get("seq").and_then(json::Value::as_u64).unwrap());
        assert!(v.get("t_s").and_then(json::Value::as_f64).unwrap() >= 0.0);
        kinds.push(
            v.get("kind")
                .and_then(json::Value::as_str)
                .unwrap()
                .to_string(),
        );
    }
    // Every line names the same run; the sequence numbers are exactly
    // 0..n once sorted (worker threads may commit lines out of order,
    // but none may be lost or duplicated).
    assert!(runs.windows(2).all(|w| w[0] == w[1]), "mixed run ids");
    seqs.sort_unstable();
    assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<u64>>());
    for expected in [
        "run-start",
        "phase-start",
        "phase-end",
        "worker-start",
        "worker-end",
        "mcts-iter",
        "eval",
        "run-end",
    ] {
        assert!(
            kinds.iter().any(|k| k == expected),
            "missing {expected} in {kinds:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explain_renders_tree_and_rule_provenance_on_spmv() {
    let dir = scratch("explain");
    let report = dir.join("explain.json");
    let out = run_ok(
        &[
            "spmv",
            "explain",
            "--iterations",
            "60",
            "--seed",
            "2",
            "--report",
            &report.display().to_string(),
        ],
        &[],
        &dir,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "== MCTS tree",
        "top nodes by visits:",
        "principal variations:",
        "== rule provenance",
        "support class",
        "simulated time over",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }

    let text = std::fs::read_to_string(&report).unwrap();
    let v = json::parse(&text).unwrap();
    assert_eq!(
        v.get("schema").and_then(json::Value::as_str),
        Some("dr-explain/v1")
    );
    let records = v.get("records").and_then(json::Value::as_u64).unwrap();
    assert!(records > 0);
    assert!(
        v.path(&["tree", "nodes"])
            .and_then(json::Value::as_u64)
            .unwrap()
            > 0
    );
    assert!(
        v.path(&["tree", "rollouts"])
            .and_then(json::Value::as_u64)
            .unwrap()
            > 0
    );
    let pvs = v
        .get("principal_variations")
        .and_then(json::Value::as_arr)
        .unwrap();
    assert!(!pvs.is_empty(), "no principal variations");
    let rules = v.get("rules").and_then(json::Value::as_arr).unwrap();
    assert!(!rules.is_empty(), "no rule provenance");
    for rule in rules {
        let support = rule.get("support").and_then(json::Value::as_arr).unwrap();
        for class_indices in support {
            for idx in class_indices.as_arr().unwrap() {
                assert!(
                    idx.as_u64().unwrap() < records,
                    "support index out of range"
                );
            }
        }
        assert!(!rule
            .get("predicates")
            .and_then(json::Value::as_arr)
            .unwrap()
            .is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explain_renders_identical_stats_from_the_shared_arena() {
    // `--threads 4` makes `explain` search in batches of four rollouts
    // measured in parallel; the rendered statistics must keep the
    // one-thread shape (same needles, same `dr-explain/v1` schema) and be
    // bit-identical across repeated runs despite the racing workers.
    let dir = scratch("explain-shared");
    let report = dir.join("explain-shared.json");
    let args = [
        "spmv",
        "explain",
        "--iterations",
        "60",
        "--seed",
        "2",
        "--threads",
        "4",
        "--report",
        &report.display().to_string(),
    ];
    let first = run_ok(&args, &[], &dir);
    let first_stdout = String::from_utf8_lossy(&first.stdout).to_string();
    let first_json = std::fs::read_to_string(&report).unwrap();
    for needle in [
        "== MCTS tree (seed 2, 60 iterations requested",
        "nodes per depth:",
        "top nodes by visits:",
        "principal variations:",
        "== rule provenance",
        "support class",
    ] {
        assert!(
            first_stdout.contains(needle),
            "missing {needle:?} in:\n{first_stdout}"
        );
    }
    let v = json::parse(&first_json).unwrap();
    assert_eq!(
        v.get("schema").and_then(json::Value::as_str),
        Some("dr-explain/v1")
    );
    assert!(
        v.path(&["tree", "nodes"])
            .and_then(json::Value::as_u64)
            .unwrap()
            > 0
    );

    let again = run_ok(&args, &[], &dir);
    assert_eq!(
        first_stdout,
        String::from_utf8_lossy(&again.stdout),
        "batched explain must be deterministic"
    );
    assert_eq!(
        first_json,
        std::fs::read_to_string(&report).unwrap(),
        "batched explain JSON must be deterministic"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_appends_histories_that_pass_their_own_compare_gate() {
    let dir = scratch("bench");
    // `bench` writes into the working directory, so pin it to scratch —
    // the committed repo-root histories must not grow during tests.
    let out = run_ok(&["spmv", "bench"], &[], &dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("appended to BENCH_pipeline.json (1 entries)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("appended to BENCH_explore.json (1 entries)"),
        "{stdout}"
    );
    for file in ["BENCH_pipeline.json", "BENCH_explore.json"] {
        let text = std::fs::read_to_string(dir.join(file)).unwrap();
        let v = json::parse(&text).unwrap();
        assert_eq!(
            v.get("schema").and_then(json::Value::as_str),
            Some("dr-bench/v1"),
            "{file}"
        );
        assert_eq!(
            v.get("entries")
                .and_then(json::Value::as_arr)
                .unwrap()
                .len(),
            1
        );
    }
    // A history must compare clean against itself under the CI bands.
    let out = run_ok(
        &[
            "spmv",
            "compare",
            "BENCH_pipeline.json",
            "BENCH_pipeline.json",
            "--threshold",
            "25",
            "--abs-floor-ms",
            "250",
            "--noise-k",
            "8",
        ],
        &[],
        &dir,
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bench pipeline"), "{stdout}");
    assert!(stdout.contains("verdict: OK"), "{stdout}");
    // Mixed-kind comparisons are rejected up front.
    let out = Command::new(bin())
        .args([
            "spmv",
            "compare",
            "BENCH_pipeline.json",
            "BENCH_explore.json",
        ])
        .current_dir(&dir)
        .output()
        .expect("dr-rules spawns");
    assert!(!out.status.success(), "kind mismatch must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot compare"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
