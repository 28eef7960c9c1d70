//! End-to-end exercise of the run ledger and the `compare` regression
//! gate through the real `dr-rules` binary: same-seed runs must compare
//! clean (exit 0), while a fault-injected run must be flagged as
//! resilience drift (exit nonzero), and each entry's `config` block
//! records the settings the binary resolved from its environment. Also
//! covers the acceptance invocation `dr-rules spmv --trace out.json`
//! and the usage errors for a zero iteration budget and a malformed
//! `DR_*` variable.

use cuda_mpi_design_rules::obs::json;
use cuda_mpi_design_rules::sim::FaultConfig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_dr-rules")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dr-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let out = Command::new(bin())
        .args(args)
        .env_remove("DR_FAULTS")
        .env_remove("DR_LEDGER")
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

fn explore_into(ledger: &Path, seed: u64, envs: &[(&str, &str)]) {
    let ledger = ledger.display().to_string();
    let seed = seed.to_string();
    let args = [
        "spmv",
        "explore",
        "--iterations",
        "25",
        "--seed",
        &seed,
        "--ledger",
        &ledger,
    ];
    let out = run_ok(&args, envs);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("appended ledger entry"), "{stdout}");
}

fn compare(a: &Path, b: &Path) -> Output {
    Command::new(bin())
        .args([
            "spmv",
            "compare",
            &a.display().to_string(),
            &b.display().to_string(),
        ])
        .env_remove("DR_FAULTS")
        .output()
        .expect("dr-rules spawns")
}

#[test]
fn same_seed_runs_compare_identical_and_exit_zero() {
    let dir = scratch("same-seed");
    let (la, lb) = (dir.join("a"), dir.join("b"));
    explore_into(&la, 2, &[]);
    explore_into(&lb, 2, &[]);

    let out = compare(&la, &lb);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "compare regressed:\n{stdout}");
    assert!(stdout.contains("records: identical"), "{stdout}");
    assert!(stdout.contains("verdict: OK"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ledger_env_var_is_honored() {
    let dir = scratch("env-ledger");
    let ledger = dir.join("from-env");
    let out = run_ok(
        &["spmv", "explore", "--iterations", "25", "--seed", "2"],
        &[("DR_LEDGER", &ledger.display().to_string())],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("appended ledger entry"), "{stdout}");
    assert!(ledger.join("ledger.jsonl").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `config` block of the last entry in the ledger under `dir`.
fn ledger_config(dir: &Path) -> json::Value {
    let text = std::fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
    let entry = json::parse(text.lines().last().unwrap()).unwrap();
    entry.get("config").expect("config block").clone()
}

#[test]
fn faulted_run_is_flagged_as_regression_with_nonzero_exit() {
    let dir = scratch("faulted");
    let (clean, faulted) = (dir.join("clean"), dir.join("faulted"));
    explore_into(&clean, 2, &[("DR_THREADS", "2")]);
    // The same run under light fault injection: resilience counters
    // appear where the baseline had none — the compare gate must flag
    // the drift and exit nonzero.
    explore_into(
        &faulted,
        2,
        &[
            ("DR_FAULTS", "light"),
            ("DR_THREADS", "2"),
            ("DR_RETRY_MAX", "5"),
            ("DR_RETRY_BACKOFF_MS", "40"),
        ],
    );

    // Provenance: each entry records what the binary resolved.
    let clean_cfg = ledger_config(&clean);
    let faulted_cfg = ledger_config(&faulted);
    let text =
        |c: &json::Value, key: &str| c.get(key).and_then(json::Value::as_str).map(str::to_string);
    let num = |c: &json::Value, path: &[&str]| c.path(path).and_then(json::Value::as_u64);
    let flag = |c: &json::Value, key: &str| c.get(key).and_then(json::Value::as_bool);
    assert_eq!(text(&clean_cfg, "faults").as_deref(), Some("clean"));
    assert_eq!(flag(&clean_cfg, "faults_active"), Some(false));
    assert_eq!(num(&clean_cfg, &["retry", "max_retries"]), Some(2));
    let spec = text(&faulted_cfg, "faults").unwrap();
    assert_eq!(FaultConfig::parse(&spec), Ok(FaultConfig::light()));
    assert_eq!(flag(&faulted_cfg, "faults_active"), Some(true));
    for cfg in [&clean_cfg, &faulted_cfg] {
        assert_eq!(num(cfg, &["threads"]), Some(2));
    }
    for (key, want) in [
        ("max_retries", 5),
        ("backoff_base_ms", 40),
        ("backoff_cap_ms", 40),
    ] {
        assert_eq!(num(&faulted_cfg, &["retry", key]), Some(want), "{key}");
    }

    let out = compare(&clean, &faulted);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "fault drift must exit nonzero:\n{stdout}"
    );
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("resilience"), "{stdout}");
    assert!(stderr.contains("regression"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn omitted_command_with_trace_writes_merged_perfetto_json() {
    let dir = scratch("trace");
    let trace = dir.join("out.json");
    // The acceptance invocation: no command, just `--trace`.
    let out = run_ok(
        &[
            "spmv",
            "--trace",
            &trace.display().to_string(),
            "--iterations",
            "25",
            "--seed",
            "2",
            "--threads",
            "1",
        ],
        &[],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote merged trace"), "{stdout}");
    let json = std::fs::read_to_string(&trace).unwrap();
    cuda_mpi_design_rules::obs::json::validate(&json).unwrap();
    // Pipeline span rows and the simulated implementation's rank/stream
    // rows coexist in one file under distinct process names.
    assert!(json.contains("\"dr pipeline\""));
    assert!(json.contains("\"pipeline\""));
    assert!(json.contains("\"rank 0\""));
    assert!(json.contains("\"stream0\""));
    // The exact record set, as (pid, ph, name) with multiplicity: each of
    // the four simulated ranks, then the pipeline's own spans (one
    // `evaluate` per evaluation, `mcts-iter` at iterations 1 and 17).
    let mut expected: BTreeMap<(u64, String, String), usize> = BTreeMap::new();
    let mut pin = |pid: u64, ph: &str, name: &str, n: usize| {
        expected.insert((pid, ph.to_string(), name.to_string()), n);
    };
    for rank in 0..4 {
        pin(rank, "M", "process_name", 1);
        pin(rank, "M", "thread_name", 3);
        pin(rank, "C", "active", 15);
        for (name, n) in [
            ("CER-after-Pack", 1),
            ("CES-b4-PostSend", 1),
            ("End", 1),
            ("Pack", 2),
            ("PostRecv", 1),
            ("PostSend", 1),
            ("Unpack", 2),
            ("WaitRecv", 1),
            ("WaitSend", 1),
            ("yl", 2),
            ("yr", 2),
        ] {
            pin(rank, "X", name, n);
        }
    }
    let pipeline = 1_000_000;
    pin(pipeline, "M", "process_name", 1);
    pin(pipeline, "M", "thread_name", 3);
    for (name, n) in [
        ("evaluate", 25),
        ("explore", 1),
        ("featurize", 1),
        ("label", 1),
        ("mcts-dispatch", 1),
        ("mcts-iter", 2),
        ("pipeline", 1),
        ("rules", 1),
        ("train", 1),
    ] {
        pin(pipeline, "X", name, n);
    }
    pin(pipeline, "s", "follows", 1);
    pin(pipeline, "f", "follows", 1);
    let parsed = json::parse(&json).unwrap();
    let mut actual: BTreeMap<(u64, String, String), usize> = BTreeMap::new();
    for rec in parsed.as_arr().expect("a trace-event array") {
        let field = |k: &str| rec.get(k).unwrap_or_else(|| panic!("{k} missing"));
        let key = (
            field("pid").as_u64().expect("integer pid"),
            field("ph").as_str().expect("string ph").to_string(),
            field("name").as_str().expect("string name").to_string(),
        );
        *actual.entry(key).or_default() += 1;
    }
    assert_eq!(actual, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_iterations_is_a_usage_error() {
    // A zero budget explores nothing; it must be refused up front (exit
    // 2), not reported as a fault-injected run that lost every
    // measurement (exit 1).
    for command in ["explore", "rules"] {
        let out = Command::new(bin())
            .args(["spmv", command, "--iterations", "0"])
            .env_remove("DR_FAULTS")
            .output()
            .expect("dr-rules spawns");
        assert_eq!(out.status.code(), Some(2), "{command}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--iterations must be at least 1"),
            "{stderr}"
        );
        assert!(!stderr.contains("fault injection"), "{stderr}");
    }
}

#[test]
fn malformed_variables_are_usage_errors_naming_the_variable() {
    for (name, bad) in [
        ("DR_THREADS", "zero"),
        ("DR_THREADS", "0"),
        ("DR_RETRY_MAX", "abc"),
        ("DR_HEARTBEAT_MS", "abc"),
        ("DR_FAULTS", "bogus"),
    ] {
        let out = Command::new(bin())
            .args(["spmv", "info"])
            .env(name, bad)
            .output()
            .expect("dr-rules spawns");
        assert_eq!(out.status.code(), Some(2), "{name}={bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(name), "{name}={bad}: {stderr}");
    }
}
