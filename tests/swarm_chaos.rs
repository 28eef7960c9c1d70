//! Kill-resume chaos proof for the sharded swarm, end to end through
//! the real `dr-rules` binary: SIGKILL a shard worker mid-run, tear the
//! shard's store segment tail, then let `swarm --workers 3` resume the
//! wreckage — the merged ledger fingerprint must be bit-identical to a
//! clean single-process run, and the resumed shard's manifest must
//! prove via its store hit counter that the committed prefix was never
//! re-simulated.

use cuda_mpi_design_rules::pipeline::{
    compare_ledgers, load_ledger, CompareOptions, ShardManifest,
};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const ITERATIONS: &str = "60";
const SEED: &str = "7";

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_dr-rules")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dr-swarm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(args: &[&str]) -> Output {
    let out = Command::new(bin())
        .args(args)
        .env_remove("DR_FAULTS")
        .env_remove("DR_LEDGER")
        .env("DR_HEARTBEAT_MS", "20")
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

/// The `"fingerprint"` hex field of the single entry in `dir/ledger.jsonl`.
fn ledger_fingerprint(dir: &Path) -> String {
    let text = std::fs::read_to_string(dir.join("ledger.jsonl")).expect("ledger exists");
    let tail = text
        .split("\"fingerprint\":\"")
        .nth(1)
        .unwrap_or_else(|| panic!("no fingerprint in ledger: {text}"));
    tail[..16].to_string()
}

/// Spawns the shard-0-of-3 worker exactly as the swarm coordinator
/// would, streaming events (and heartbeats) to its NDJSON file.
fn spawn_shard0_worker(store: &Path) -> std::process::Child {
    Command::new(bin())
        .args([
            "spmv",
            "explore",
            "--random",
            "--shard",
            "0/3",
            "--store",
            &store.display().to_string(),
            "--events",
            &store
                .join("shard-0-of-3.events.ndjson")
                .display()
                .to_string(),
            "--iterations",
            ITERATIONS,
            "--seed",
            SEED,
            "--threads",
            "1",
        ])
        .env_remove("DR_FAULTS")
        .env_remove("DR_LEDGER")
        .env("DR_HEARTBEAT_MS", "20")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("shard worker spawns")
}

/// Committed record count in a shard's store (opening performs the same
/// torn-tail recovery the resuming worker will).
fn committed_records(shard_dir: &Path) -> usize {
    cuda_mpi_design_rules::store::ResultStore::open(shard_dir)
        .expect("shard store opens")
        .len()
}

#[test]
fn sigkilled_worker_and_torn_segment_resume_to_the_baseline_fingerprint() {
    let root = scratch("chaos");
    let baseline_ledger = root.join("baseline");
    let swarm_ledger = root.join("swarm-ledger");
    let store = root.join("store");
    std::fs::create_dir_all(&store).unwrap();

    // 1. Clean unsharded baseline: one process, no store, no shards.
    let out = run_ok(&[
        "spmv",
        "explore",
        "--random",
        "--iterations",
        ITERATIONS,
        "--seed",
        SEED,
        "--ledger",
        &baseline_ledger.display().to_string(),
    ]);
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("appended ledger entry"),
        "baseline must land in the ledger"
    );
    let baseline_fp = ledger_fingerprint(&baseline_ledger);

    // 2. Genuine mid-shard SIGKILL: start the shard-0 worker and kill it
    //    the moment its store segment holds any bytes. On a fast machine
    //    the worker may still outrun the signal — step 3 shapes the
    //    crash state deterministically either way.
    let shard_dir = store.join("shard-0-of-3");
    let segment = shard_dir.join("segment-000.drs");
    let manifest_path = store.join("shard-0-of-3.manifest.json");
    let mut worker = spawn_shard0_worker(&store);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let grown = std::fs::metadata(&segment)
            .map(|m| m.len() > 8)
            .unwrap_or(false);
        let exited = worker.try_wait().expect("worker pollable").is_some();
        if grown || exited {
            break;
        }
        assert!(Instant::now() < deadline, "worker never wrote its segment");
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = worker.kill(); // SIGKILL on unix; no-op if it already exited
    let _ = worker.wait();

    // 3. Deterministic crash shaping. The kill may have landed anywhere
    //    — before the first commit, mid-record, or after the manifest
    //    was published. Guarantee the interesting state: a non-trivial
    //    committed prefix, a torn segment tail, and no commit marker.
    //    Counting records opens the store, which snaps the file to the
    //    committed boundary — so count BEFORE tearing the tail, never
    //    after (a later open would repair the tear we want the resuming
    //    worker to find).
    if committed_records(&shard_dir) < 2 {
        // Killed too early to leave a prefix worth resuming: let a
        // second worker attempt run to completion, then crash "later".
        let out = spawn_shard0_worker(&store)
            .wait_with_output()
            .expect("rerun worker");
        assert!(out.status.success(), "shard rerun must publish");
    }
    let committed = committed_records(&shard_dir);
    assert!(committed >= 2, "need at least two committed records");
    let _ = std::fs::remove_file(&manifest_path); // un-commit the shard
    let len = std::fs::metadata(&segment).expect("segment exists").len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .unwrap();
    f.set_len(len - 3).unwrap(); // tear the last committed record
    drop(f);
    // The tear costs exactly the final record; everything before it is
    // the prefix the resuming worker must answer from the store.
    let prefix = committed - 1;

    // 4. Resume: the swarm re-issues shard 0 (which replays the prefix
    //    from the store), runs shards 1 and 2 fresh, and merges.
    let out = run_ok(&[
        "spmv",
        "swarm",
        "--workers",
        "3",
        "--random",
        "--iterations",
        ITERATIONS,
        "--seed",
        SEED,
        "--store",
        &store.display().to_string(),
        "--ledger",
        &swarm_ledger.display().to_string(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("merged 3 shards"), "{stdout}");
    assert!(stdout.contains("appended ledger entry"), "{stdout}");

    // 5. The merged fingerprint is bit-identical to the clean run.
    let swarm_fp = ledger_fingerprint(&swarm_ledger);
    assert_eq!(
        swarm_fp, baseline_fp,
        "kill-resume must reproduce the baseline fingerprint bit for bit:\n{stdout}"
    );

    // 6. The store proves the committed prefix was never re-simulated:
    //    every prefix record was answered as a hit, only the torn tail
    //    was re-evaluated, and the tear itself was seen by recovery.
    let manifest = ShardManifest::from_json(
        &std::fs::read_to_string(&manifest_path).expect("resumed shard committed"),
    )
    .expect("manifest parses");
    assert!(
        manifest.store.hits >= prefix as u64,
        "resume must answer the {prefix}-record prefix from the store: {:?}",
        manifest.store
    );
    assert!(
        manifest.store.hits > 0
            && manifest.store.hits + manifest.store.appended == manifest.records as u64,
        "hits + appended must account for every record: {:?}",
        manifest.store
    );
    assert!(
        manifest.store.truncated_bytes > 0,
        "recovery must report the torn tail: {:?}",
        manifest.store
    );

    // 7. The regression gate's structural verdict agrees: identical
    //    records, identical rules, no counter drift. Its per-phase wall
    //    time verdict is left out — two runs of this size differ by more
    //    than the noise band now and then, and timing is the
    //    benchmark's to gate, not this test's.
    let report = compare_ledgers(
        &load_ledger(&baseline_ledger).expect("baseline ledger loads"),
        &load_ledger(&swarm_ledger).expect("swarm ledger loads"),
        &CompareOptions::default(),
    );
    let cmp = report.render_text();
    assert!(report.identical_records, "{cmp}");
    assert!(cmp.contains("records: identical"), "{cmp}");
    let structural: Vec<&String> = report
        .regressions
        .iter()
        .filter(|r| !r.starts_with("phase "))
        .collect();
    assert!(
        structural.is_empty(),
        "compare regressed: {structural:?}\n{cmp}"
    );

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn interrupted_swarm_rerun_resumes_completed_shards() {
    let root = scratch("resume");
    let store = root.join("store");
    std::fs::create_dir_all(&store).unwrap();
    let swarm_args = [
        "spmv",
        "swarm",
        "--workers",
        "2",
        "--random",
        "--iterations",
        ITERATIONS,
        "--seed",
        SEED,
        "--store",
        &store.display().to_string(),
    ];

    // First swarm run completes both shards and publishes manifests.
    run_ok(&swarm_args.clone());

    // A rerun over the same store must not respawn finished shards: the
    // manifests are the commit markers, so both resume instantly and
    // the merge replays entirely from the durable record set.
    let out = run_ok(&swarm_args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.matches("already complete").count() == 2,
        "both shards must resume without respawning:\n{stdout}"
    );
    assert!(!stdout.contains("worker spawned"), "{stdout}");
    assert!(stdout.contains("merged 2 shards"), "{stdout}");

    let _ = std::fs::remove_dir_all(&root);
}
