//! End-to-end fleet-aggregation proof through the real `dr-rules`
//! binary: a `swarm --workers 3` run with full telemetry (merged
//! dr-fleet/v1 stream, swarm timeline, metrics snapshot) must commit a
//! ledger fingerprint bit-identical to a silent swarm run (aggregation
//! is inert), and the merged stream must be lossless — every line each
//! worker wrote appears in it exactly once, verbatim, under a gapless
//! global sequence. Also covers `compare` on fleet streams and the
//! `runs` ledger-analytics commands, whose `diff` exit status must
//! match `compare` on the same entries, and which still read entries
//! written in an earlier `dr-ledger/v1` layout.

use cuda_mpi_design_rules::obs::json;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const ITERATIONS: &str = "60";
const SEED: &str = "7";

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_dr-rules")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dr-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .env_remove("DR_FAULTS")
        .env_remove("DR_LEDGER")
        .env_remove("DR_SWARM_FAULT_SHARD")
        .env("DR_HEARTBEAT_MS", "20")
        .output()
        .expect("dr-rules spawns")
}

fn run_ok(args: &[&str]) -> String {
    let out = run(args);
    assert!(
        out.status.success(),
        "dr-rules {args:?} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The `"fingerprint"` hex field of the single entry in `dir/ledger.jsonl`.
fn ledger_fingerprint(dir: &Path) -> String {
    let text = std::fs::read_to_string(dir.join("ledger.jsonl")).expect("ledger exists");
    let tail = text
        .split("\"fingerprint\":\"")
        .nth(1)
        .unwrap_or_else(|| panic!("no fingerprint in ledger: {text}"));
    tail[..16].to_string()
}

/// Runs a 3-worker swarm over `store`, with or without the fleet
/// telemetry artifacts, and returns captured stdout.
fn swarm(store: &Path, with_fleet_artifacts: bool) -> String {
    let store_s = store.display().to_string();
    let fleet = store.join("fleet.ndjson").display().to_string();
    let trace = store.join("timeline.json").display().to_string();
    let metrics = store.join("metrics.prom").display().to_string();
    let mut args = vec![
        "spmv",
        "swarm",
        "--workers",
        "3",
        "--store",
        &store_s,
        "--iterations",
        ITERATIONS,
        "--seed",
        SEED,
    ];
    if with_fleet_artifacts {
        args.extend_from_slice(&[
            "--fleet-events",
            &fleet,
            "--trace",
            &trace,
            "--metrics-text",
            &metrics,
        ]);
    }
    run_ok(&args)
}

/// Splits one merged `dr-fleet/v1` line into (gseq, worker, embedded
/// original line). The embedded event is verbatim, so equality with
/// the worker's own file is a plain string check.
fn split_merged(line: &str) -> (u64, Option<usize>, String) {
    let v = json::parse(line).expect("merged line parses");
    assert_eq!(
        v.get("schema").and_then(|s| s.as_str()),
        Some("dr-fleet/v1"),
        "{line}"
    );
    let gseq = v.get("gseq").and_then(|g| g.as_u64()).expect("gseq");
    let worker = v
        .get("worker")
        .filter(|w| !w.is_null())
        .and_then(|w| w.as_u64())
        .map(|w| w as usize);
    let (_, embedded) = line.split_once("\"event\":").expect("event field");
    let embedded = embedded.strip_suffix('}').expect("wrapper brace");
    (gseq, worker, embedded.to_string())
}

#[test]
fn merged_stream_is_lossless_gapless_and_inert() {
    let with = scratch("loud");
    let silent = scratch("silent");
    let stdout = swarm(&with, true);
    swarm(&silent, false);

    // Inert: full aggregation changes nothing about the committed run.
    assert_eq!(
        ledger_fingerprint(&with),
        ledger_fingerprint(&silent),
        "aggregation perturbed the merged records"
    );
    assert!(stdout.contains("merged fleet events"), "{stdout}");
    assert!(stdout.contains("wrote swarm timeline"), "{stdout}");
    assert!(stdout.contains("wrote metrics snapshot"), "{stdout}");

    // Gapless: gseq is dense from 0 in file order.
    let merged = std::fs::read_to_string(with.join("fleet.ndjson")).unwrap();
    let mut per_worker: HashMap<usize, Vec<String>> = HashMap::new();
    let mut coordinator_events = 0usize;
    for (i, line) in merged.lines().enumerate() {
        let (gseq, worker, embedded) = split_merged(line);
        assert_eq!(gseq, i as u64, "gseq gap at line {i}: {line}");
        match worker {
            Some(w) => per_worker.entry(w).or_default().push(embedded),
            None => coordinator_events += 1,
        }
    }
    assert!(coordinator_events > 0, "coordinator events missing");
    assert_eq!(per_worker.len(), 3, "all three workers merged");

    // Lossless: every line of every worker's own stream appears in the
    // merged stream exactly once, verbatim, and nothing else does.
    for w in 0..3usize {
        let own = std::fs::read_to_string(with.join(format!("shard-{w}-of-3.events.ndjson")))
            .expect("worker stream exists");
        let own: Vec<&str> = own.lines().collect();
        let merged_w = per_worker.remove(&w).unwrap_or_default();
        assert_eq!(
            merged_w, own,
            "worker {w}: merged events differ from its stream"
        );
    }

    // The timeline is one valid JSON array with a process per worker
    // and issue→completion flow arrows.
    let timeline = std::fs::read_to_string(with.join("timeline.json")).unwrap();
    json::validate(&timeline).expect("timeline is valid JSON");
    for name in ["swarm coordinator", "shard 0/3", "shard 2/3", "fleet-flow"] {
        assert!(timeline.contains(name), "timeline missing {name}");
    }

    // The metrics snapshot is Prometheus text format with fleet totals
    // and per-worker series.
    let metrics = std::fs::read_to_string(with.join("metrics.prom")).unwrap();
    assert!(
        metrics.contains("# TYPE dr_fleet_merged_events_total counter"),
        "{metrics}"
    );
    assert!(
        metrics.contains("dr_fleet_worker_events_total{run=\"swarm-"),
        "{metrics}"
    );
    assert!(metrics.contains("worker=\"2\""), "{metrics}");

    let _ = std::fs::remove_dir_all(&with);
    let _ = std::fs::remove_dir_all(&silent);
}

/// The coordinator wakes when a worker exits and leaves its loop in the
/// pass that completes the last shard: `swarm-done` arrives within one
/// drain tick (50 ms) of the last worker's `shard-done`, where a
/// coordinator that sleeps between passes always trails by a full tick.
#[test]
fn swarm_ends_without_another_tick() {
    let store = scratch("tick");
    let store_s = store.display().to_string();
    let fleet = store.join("fleet.ndjson");
    let fleet_s = fleet.display().to_string();
    run_ok(&[
        "spmv",
        "swarm",
        "--workers",
        "2",
        "--store",
        &store_s,
        "--iterations",
        ITERATIONS,
        "--seed",
        SEED,
        "--fleet-events",
        &fleet_s,
    ]);
    let (mut last_shard_done, mut swarm_done) = (None::<f64>, None::<f64>);
    for line in std::fs::read_to_string(&fleet).unwrap().lines() {
        let v = json::parse(line).expect("merged line parses");
        let seen_s = v.get("seen_s").and_then(|t| t.as_f64()).expect("seen_s");
        let worker = v.get("worker").filter(|w| !w.is_null());
        match (worker, v.path(&["event", "kind"]).and_then(|k| k.as_str())) {
            (Some(_), Some("shard-done")) => {
                last_shard_done = Some(last_shard_done.map_or(seen_s, |t| t.max(seen_s)));
            }
            (None, Some("swarm-done")) => swarm_done = Some(seen_s),
            _ => {}
        }
    }
    let last_shard_done = last_shard_done.expect("workers report shard-done");
    let swarm_done = swarm_done.expect("coordinator reports swarm-done");
    let trail = swarm_done - last_shard_done;
    assert!(
        trail < 0.05,
        "swarm-done trails the last shard-done by {:.1} ms",
        trail * 1e3
    );
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn compare_gates_fleet_streams_and_rejects_kind_mixes() {
    let a = scratch("cmp-a");
    let b = scratch("cmp-b");
    swarm(&a, true);
    swarm(&b, true);
    let fa = a.join("fleet.ndjson").display().to_string();
    let fb = b.join("fleet.ndjson").display().to_string();

    // Two clean runs of the same swarm have the same shape: OK.
    let out = run_ok(&["spmv", "compare", &fa, &fb]);
    assert!(out.contains("verdict: OK"), "{out}");

    // Fleet stream vs run ledger is a kind mismatch, named clearly.
    let ledger = a.join("ledger.jsonl").display().to_string();
    let out = run(&["spmv", "compare", &fa, &ledger]);
    assert!(!out.status.success(), "kind mix must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("cannot compare a \"fleet\" history against a \"ledger\" history"),
        "{err}"
    );

    // A truncated candidate stream (dropped completions) regresses.
    let kept: String = std::fs::read_to_string(a.join("fleet.ndjson"))
        .unwrap()
        .lines()
        .filter(|l| !l.contains("\"kind\":\"shard-done\""))
        .map(|l| format!("{l}\n"))
        .collect();
    let torn = a.join("torn.ndjson");
    std::fs::write(&torn, kept).unwrap();
    let torn_s = torn.display().to_string();
    let out = run(&["spmv", "compare", &fa, &torn_s]);
    assert!(!out.status.success(), "torn stream must regress");

    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

#[test]
fn runs_commands_query_the_ledger_with_compare_parity() {
    let dir = scratch("runs");
    let ledger = dir.join("ledger");
    let ledger_s = ledger.display().to_string();
    for _ in 0..2 {
        run_ok(&[
            "spmv",
            "explore",
            "--iterations",
            "30",
            "--seed",
            "2",
            "--ledger",
            &ledger_s,
        ]);
    }

    // list: one summary per entry plus trends and a match count.
    let out = run_ok(&["spmv", "runs", "list", "--ledger", &ledger_s]);
    assert!(out.contains("[0]"), "{out}");
    assert!(out.contains("[1]"), "{out}");
    assert!(out.contains("2 of 2 ledger entries match"), "{out}");
    // A seed filter that matches nothing empties the listing.
    let out = run_ok(&[
        "spmv", "runs", "list", "--ledger", &ledger_s, "--seed", "999",
    ]);
    assert!(out.contains("0 of 2 ledger entries match"), "{out}");

    // show: full detail for one entry by index.
    let out = run_ok(&["spmv", "runs", "show", "0", "--ledger", &ledger_s]);
    assert!(out.contains("records fp "), "{out}");
    assert!(out.contains("phase explore:"), "{out}");

    // diff on identical entries: OK, like compare.
    let out = run_ok(&["spmv", "runs", "diff", "0", "1", "--ledger", &ledger_s]);
    assert!(out.contains("verdict: OK"), "{out}");

    // Forge a third entry whose explore phase blew up 100x; `runs diff`
    // and `compare` must agree the pair regresses (both exit nonzero).
    let text = std::fs::read_to_string(ledger.join("ledger.jsonl")).unwrap();
    let first = text.lines().next().unwrap().to_string();
    let v = json::parse(&first).unwrap();
    let explore = v
        .path(&["phases", "explore"])
        .and_then(|p| p.as_f64())
        .unwrap();
    let forged = first.replace(
        &format!("\"explore\":{}", json::number(explore)),
        &format!("\"explore\":{}", json::number(explore * 100.0 + 10.0)),
    );
    assert_ne!(forged, first, "forgery must change the entry");
    std::fs::write(ledger.join("ledger.jsonl"), format!("{text}{forged}\n")).unwrap();
    let diff = run(&["spmv", "runs", "diff", "0", "2", "--ledger", &ledger_s]);
    assert!(!diff.status.success(), "forged regression must fail diff");

    // Parity check: compare on single-entry ledgers built from the same
    // two entries reaches the same verdict.
    let (ca, cb) = (dir.join("only-a"), dir.join("only-b"));
    std::fs::create_dir_all(&ca).unwrap();
    std::fs::create_dir_all(&cb).unwrap();
    std::fs::write(ca.join("ledger.jsonl"), format!("{first}\n")).unwrap();
    std::fs::write(cb.join("ledger.jsonl"), format!("{forged}\n")).unwrap();
    let cmp = run(&[
        "spmv",
        "compare",
        &ca.display().to_string(),
        &cb.display().to_string(),
    ]);
    assert_eq!(
        diff.status.success(),
        cmp.status.success(),
        "runs diff and compare disagree on the same entries"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The counter block of an entry written while the pipeline still had a
/// per-evaluation lint stage.
const OLD_LINT_BLOCK: &str = concat!(
    "{\"schedules\":30,\"errors\":0,\"warnings\":0,\"races\":0,",
    "\"deadlocks\":0,\"redundant_syncs\":0,\"space_schedules\":1600,",
    "\"hb_expansions\":34230,\"cold_hb_expansions\":261600}"
);

#[test]
fn runs_and_compare_read_entries_with_a_lint_block() {
    // Ledgers are append-only across versions. An entry in the earlier
    // `dr-ledger/v1` layout carries a `lint` flag in its config and a
    // `lint` counter block; readers ignore both keys, so it lists, shows
    // and compares like the current entry it was derived from.
    let dir = scratch("old-ledger");
    let ledger = dir.join("ledger");
    let ledger_s = ledger.display().to_string();
    run_ok(&[
        "spmv",
        "explore",
        "--iterations",
        "30",
        "--seed",
        "2",
        "--ledger",
        &ledger_s,
    ]);
    let new = std::fs::read_to_string(ledger.join("ledger.jsonl")).unwrap();
    let new = new.trim_end();
    assert!(!new.contains("\"lint\""), "{new}");
    let old = new
        .replacen("\"config\":{", "\"config\":{\"lint\":false,", 1)
        .replacen(
            ",\"resilience\":",
            &format!(",\"lint\":{OLD_LINT_BLOCK},\"resilience\":"),
            1,
        );
    assert_eq!(old.matches("\"lint\":").count(), 2, "{old}");
    json::validate(&old).unwrap();
    std::fs::write(ledger.join("ledger.jsonl"), format!("{old}\n{new}\n")).unwrap();

    let out = run_ok(&["spmv", "runs", "list", "--ledger", &ledger_s]);
    assert!(out.contains("2 of 2 ledger entries match"), "{out}");
    let old_view = run_ok(&["spmv", "runs", "show", "0", "--ledger", &ledger_s]);
    assert!(old_view.contains("phase explore:"), "{old_view}");
    let new_view = run_ok(&["spmv", "runs", "show", "1", "--ledger", &ledger_s]);
    assert_eq!(
        old_view.replacen("[0]", "[1]", 1),
        new_view,
        "the old layout shows like the new one"
    );

    // No structural drift, through `runs diff` and through `compare`.
    let out = run_ok(&["spmv", "runs", "diff", "0", "1", "--ledger", &ledger_s]);
    assert!(out.contains("records: identical"), "{out}");
    assert!(out.contains("verdict: OK"), "{out}");
    let (ca, cb) = (dir.join("old"), dir.join("new"));
    std::fs::create_dir_all(&ca).unwrap();
    std::fs::create_dir_all(&cb).unwrap();
    std::fs::write(ca.join("ledger.jsonl"), format!("{old}\n")).unwrap();
    std::fs::write(cb.join("ledger.jsonl"), format!("{new}\n")).unwrap();
    let out = run_ok(&[
        "spmv",
        "compare",
        &ca.display().to_string(),
        &cb.display().to_string(),
    ]);
    assert!(out.contains("records: identical"), "{out}");
    assert!(out.contains("rules: identical"), "{out}");
    assert!(out.contains("resilience: absent in both"), "{out}");
    assert!(!out.contains("drift"), "{out}");
    assert!(out.contains("verdict: OK"), "{out}");

    let _ = std::fs::remove_dir_all(&dir);
}
