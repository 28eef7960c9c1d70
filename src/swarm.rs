//! Process-swarm coordinator for crash-safe sharded exploration.
//!
//! `dr-rules <scenario> swarm --workers K --store DIR` splits the
//! exploration into `K` shards and runs each as a **child process of
//! this same binary** (`explore --shard i/K --store DIR`). The
//! coordinator never trusts a worker to be alive just because the
//! process exists: each worker streams `dr-events/v1` NDJSON, and the
//! coordinator tails every stream through a [`dr_fleet::Aggregator`],
//! which validates each line against the run id pinned into the worker
//! (`DR_RUN_ID`) and the worker's own shard identity before it counts —
//! a stale stream from a previous run can neither pollute the merged
//! telemetry nor masquerade as liveness. A worker whose validated
//! stream goes quiet for longer than the stall timeout is SIGKILLed and
//! its shard re-issued. Because every shard writes through the durable
//! [`dr_store::ResultStore`], a re-issued worker resumes from the
//! already-committed prefix instead of re-simulating — the shard
//! manifest's `store.hits` counter proves it.
//!
//! Worker exits wake the coordinator: a thread per worker copies the
//! worker's stdout+stderr pipe into its log and, at EOF, sends an exit
//! notice. Between passes the coordinator waits for a notice or one
//! 50 ms drain tick, whichever comes first, and it ends in the pass
//! that settles the last shard.
//!
//! The merged streams also feed an online [`dr_fleet::AnomalyDetector`]
//! (straggler / rate-collapse / silent-worker, MAD bands over heartbeat
//! gaps and eval rates), so kill and re-issue decisions cite a
//! structured `anomaly` event instead of being taken blind, and an
//! optional fleet-wide `--progress` rollup. All merged telemetry is
//! retained and returned in a [`FleetOutcome`] for the `swarm --trace`
//! Perfetto export and the `--metrics-text` snapshot.
//!
//! Failure policy: a dead or stalled shard is re-spawned after capped
//! exponential backoff (200 ms base, doubling, capped at 3 s) and
//! quarantined after `DR_SWARM_MAX_ATTEMPTS` (default 3) failures; a
//! quarantined shard
//! fails the swarm, naming the shard and its worker log. The shard
//! manifest is the commit marker — a worker that exits zero without
//! publishing a valid manifest still counts as dead.
//!
//! Chaos levers: `DR_SWARM_FAULT_SHARD=<i>` plus `DR_SWARM_FAULTS=<spec>`
//! inject a `DR_FAULTS` spec into exactly one worker (all other workers
//! run clean), which combined with the `DR_RETRY_*` knobs turns a
//! single shard into a reproducible straggler for anomaly-detection
//! tests. All of these arrive resolved in the coordinator's
//! [`Settings`](crate::config::Settings); workers inherit the
//! environment and resolve their own.

use crate::cli::{strategy, CliOptions};
use crate::pipeline::{shard_manifest_path, strategy_identity, ShardManifest, ShardSpec};
use dr_fleet::{
    Aggregator, AnomalyConfig, AnomalyDetector, FleetProgress, FleetStats, MergedEvent,
};
use dr_obs::EventSink;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the coordinator learned from the merged telemetry: the
/// full globally-sequenced event list (timeline export material) and
/// the per-worker aggregation counters (metrics snapshot material).
pub struct FleetOutcome {
    /// Every merged event, in global-sequence order.
    pub events: Vec<MergedEvent>,
    /// Aggregation counters per worker plus coordinator totals.
    pub stats: FleetStats,
    /// The coordinator's own event-stream run id.
    pub run_id: String,
}

/// The coordinator's drain cadence: how often it reads heartbeats,
/// checks stalls, honours backoff and repaints progress when no worker
/// exits in between.
const DRAIN_TICK: Duration = Duration::from_millis(50);

/// A worker's exit notice, `(shard index, pid)`: sent by its log copier
/// when the worker's stdout+stderr pipe reaches EOF.
type ExitNotice = (usize, u32);

/// Base of the re-spawn backoff, in milliseconds.
const BACKOFF_BASE_MS: u64 = 200;

/// Capped exponential re-spawn backoff: `base · 2^(failures-1)`,
/// capped at 3 s.
fn backoff(failures: usize) -> Duration {
    let exp = BACKOFF_BASE_MS.saturating_mul(1u64 << (failures.saturating_sub(1)).min(10));
    Duration::from_millis(exp.min(3_000))
}

/// The per-worker event-stream path (heartbeats ride this file).
fn worker_events_path(store_root: &Path, spec: ShardSpec) -> PathBuf {
    store_root.join(format!("shard-{}.events.ndjson", spec.label()))
}

/// The per-worker captured stdout+stderr log (copied from the worker's
/// pipe).
fn worker_log_path(store_root: &Path, spec: ShardSpec) -> PathBuf {
    store_root.join(format!("shard-{}.log", spec.label()))
}

/// One shard's lifecycle inside the coordinator.
enum State {
    /// Waiting to (re-)spawn once `ready_at` passes.
    Pending { ready_at: Instant },
    /// A live child process being heartbeat-monitored.
    Running { child: Child, last_beat: Instant },
    /// Manifest published and validated.
    Done,
    /// Failed `max_attempts` times; never re-issued.
    Quarantined,
}

/// A shard's coordinator-side bookkeeping.
struct Shard {
    spec: ShardSpec,
    state: State,
    failures: usize,
}

/// True when `path` holds a manifest matching this run's identity; a
/// stale manifest from a different run is an error (the caller must not
/// silently mix record sets), reported through `Err`.
fn manifest_matches(
    path: &Path,
    opts: &CliOptions,
    spec: ShardSpec,
) -> Result<Option<ShardManifest>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(_) => return Ok(None),
    };
    let m = ShardManifest::from_json(&text)
        .map_err(|e| format!("unreadable shard manifest {}: {e}", path.display()))?;
    let (name, seed, iterations) = strategy_identity(&strategy(opts));
    if m.scenario != opts.scenario.name()
        || m.strategy != name
        || m.seed != seed
        || m.iterations != iterations
        || m.index != spec.index
        || m.count != spec.count
    {
        return Err(format!(
            "shard manifest {} belongs to a different run \
             ({} {} seed {} iterations {}); use a fresh --store directory",
            path.display(),
            m.scenario,
            m.strategy,
            m.seed,
            m.iterations
        ));
    }
    Ok(Some(m))
}

/// Spawns one shard worker: this same binary, `explore --shard i/N`,
/// serial, streaming events (heartbeats included) to its own NDJSON
/// file. Its stdout and stderr share one pipe, which a copier thread
/// drains into the worker log; at EOF the copier sends the worker's
/// [`ExitNotice`] on `exits`, which wakes the coordinator. The worker's
/// `DR_RUN_ID` is pinned to `run_id` so the aggregator can validate its
/// stream, and its eager events `File::create` truncates the previous
/// attempt's stream (the aggregator re-tails from zero on
/// `expect_worker`). Only the shard the swarm's fault targeting names
/// receives a `DR_FAULTS` spec; every other worker runs clean.
fn spawn_worker(
    opts: &CliOptions,
    store_root: &Path,
    spec: ShardSpec,
    run_id: &str,
    exits: &Sender<ExitNotice>,
) -> Result<(Child, JoinHandle<()>), String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the dr-rules binary: {e}"))?;
    let mut log = std::fs::File::create(worker_log_path(store_root, spec))
        .map_err(|e| format!("cannot create worker log: {e}"))?;
    let (mut output, output_w) =
        std::io::pipe().map_err(|e| format!("cannot create worker pipe: {e}"))?;
    let output_w_err = output_w
        .try_clone()
        .map_err(|e| format!("cannot clone worker pipe handle: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg(opts.scenario.name())
        .arg("explore")
        .arg("--shard")
        .arg(spec.to_string())
        .arg("--store")
        .arg(store_root)
        .arg("--events")
        .arg(worker_events_path(store_root, spec))
        .arg("--iterations")
        .arg(opts.iterations.to_string())
        .arg("--seed")
        .arg(opts.seed.to_string())
        .arg("--threads")
        .arg("1")
        .env("DR_RUN_ID", run_id)
        .env_remove("DR_FAULTS")
        .stdin(Stdio::null())
        .stdout(output_w)
        .stderr(output_w_err);
    if let Some((_, faults)) = opts
        .settings
        .swarm_fault_shard
        .filter(|&(target, _)| target == spec.index)
    {
        cmd.env("DR_FAULTS", faults.to_string());
    }
    if opts.random {
        cmd.arg("--random");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn shard worker {spec}: {e}"))?;
    // The command holds this process's copies of the pipe's write end;
    // the copier never sees EOF while they are open.
    drop(cmd);
    let notice = (spec.index, child.id());
    let exits = exits.clone();
    let copier = std::thread::Builder::new()
        .name(format!("shard-{}-log", spec.label()))
        .spawn(move || {
            // A failed log write must not close the pipe under a live
            // worker: keep draining to EOF.
            if std::io::copy(&mut output, &mut log).is_err() {
                let _ = std::io::copy(&mut output, &mut std::io::sink());
            }
            let _ = exits.send(notice);
        });
    match copier {
        Ok(copier) => Ok((child, copier)),
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("cannot start the log copier of shard {spec}: {e}"))
        }
    }
}

/// Reaps `child`, the running attempt of shard `index`, when `notices`
/// holds its exit notice. A notice naming another pid is a killed
/// predecessor's late EOF and leaves this attempt alone. The wait
/// blocks, but EOF on both stdio streams means the worker is already
/// exiting (it never closes them early), so it returns at once; a
/// single `try_wait` here would often still see it running.
fn reap(
    child: &mut Child,
    index: usize,
    notices: &[ExitNotice],
) -> std::io::Result<Option<ExitStatus>> {
    if notices.contains(&(index, child.id())) {
        child.wait().map(Some)
    } else {
        Ok(None)
    }
}

/// Drains every stream through the aggregator once: feeds the anomaly
/// detector and the progress rollup, and marks which workers produced a
/// validated liveness signal (heartbeat or completion).
fn drain(
    agg: &mut Aggregator,
    detector: &mut AnomalyDetector,
    progress: &mut Option<FleetProgress>,
    beat_seen: &mut [bool],
) {
    let range = agg.poll();
    for ev in &agg.events()[range] {
        if let Some(i) = ev.worker {
            if (ev.kind == "heartbeat" || ev.kind == "shard-done") && i < beat_seen.len() {
                beat_seen[i] = true;
            }
        }
        detector.observe(ev);
        if let Some(p) = progress.as_mut() {
            p.observe(ev);
        }
    }
}

/// Runs shard workers to completion: resumes shards whose manifest is
/// already published, spawns the rest with pinned run ids, merges every
/// worker stream plus its own events into one `dr-fleet/v1` sequence,
/// SIGKILLs stalled workers (citing the anomaly that flagged them),
/// re-issues dead shards with capped backoff, and quarantines a shard
/// after repeated failures. Between passes it waits for the next worker
/// exit, at most one drain tick, and it returns from the pass that
/// settles the last shard. Returns the merged fleet telemetry once
/// every shard's manifest is published — the caller then merges — or an
/// error naming the quarantined shards, in both cases with every worker
/// log complete.
pub fn coordinate(
    opts: &CliOptions,
    store_root: &Path,
    out: &mut impl Write,
) -> Result<FleetOutcome, String> {
    let io = |e: std::io::Error| format!("write failed: {e}");
    let count = opts.workers;
    let stall = Duration::from_millis(opts.settings.swarm_stall_ms);
    let attempts_cap = opts.settings.swarm_max_attempts;
    let coord_run = format!("swarm-{}", std::process::id());

    let mut agg = Aggregator::new(store_root, count);
    if let Some(path) = &opts.fleet_events {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create fleet events file {path:?}: {e}"))?;
        agg = agg.with_writer(Box::new(std::io::BufWriter::new(file)));
    }
    let sink = EventSink::new(&coord_run).with_writer(Box::new(agg.coordinator_queue()));
    let mut detector = AnomalyDetector::new(
        count,
        AnomalyConfig {
            // Flag a silent worker halfway to the kill decision, so the
            // anomaly event provably precedes (and explains) the kill.
            silent_after_s: (stall.as_secs_f64() / 2.0).max(0.05),
            ..AnomalyConfig::default()
        },
    );
    let mut progress = opts.progress.then(|| FleetProgress::new(count));
    let mut last_anomaly: Vec<Option<String>> = vec![None; count];

    let mut shards: Vec<Shard> = Vec::with_capacity(count);
    for index in 0..count {
        let spec = ShardSpec { index, count };
        // Resume: a valid manifest is the shard's commit marker.
        let state = match manifest_matches(&shard_manifest_path(store_root, spec), opts, spec)? {
            Some(m) => {
                writeln!(
                    out,
                    "shard {spec}: already complete ({} records, {} store hits) — resumed",
                    m.records, m.store.hits
                )
                .map_err(io)?;
                sink.emit(
                    "shard-resumed",
                    &[
                        ("shard", (spec.index as u64).into()),
                        ("of", (spec.count as u64).into()),
                        ("records", m.records.into()),
                        ("store_hits", m.store.hits.into()),
                    ],
                );
                State::Done
            }
            None => State::Pending {
                ready_at: Instant::now(),
            },
        };
        shards.push(Shard {
            spec,
            state,
            failures: 0,
        });
    }
    let (exit_tx, exit_rx) = mpsc::channel::<ExitNotice>();
    let mut notices: Vec<ExitNotice> = Vec::new();
    let mut copiers: Vec<JoinHandle<()>> = Vec::new();
    let result = loop {
        let mut beat_seen = vec![false; count];
        drain(&mut agg, &mut detector, &mut progress, &mut beat_seen);
        let now_s = agg.now_s();
        for a in detector.scan(now_s) {
            writeln!(
                out,
                "anomaly: worker {} {} — {} ({} = {:.3}, threshold {:.3})",
                a.worker,
                a.kind.name(),
                a.detail,
                a.metric,
                a.value,
                a.threshold
            )
            .map_err(io)?;
            sink.emit(
                "anomaly",
                &[
                    ("worker", (a.worker as u64).into()),
                    ("anomaly", a.kind.name().into()),
                    ("metric", a.metric.into()),
                    ("value", a.value.into()),
                    ("threshold", a.threshold.into()),
                    ("detail", a.detail.as_str().into()),
                ],
            );
            last_anomaly[a.worker] = Some(format!("{} ({})", a.kind.name(), a.metric));
        }
        for shard in shards.iter_mut() {
            let spec = shard.spec;
            match &mut shard.state {
                State::Done | State::Quarantined => continue,
                State::Pending { ready_at } => {
                    if Instant::now() < *ready_at {
                        continue;
                    }
                    let worker_run = format!("{coord_run}.shard-{}", spec.label());
                    let (child, copier) =
                        spawn_worker(opts, store_root, spec, &worker_run, &exit_tx)?;
                    copiers.push(copier);
                    agg.expect_worker(spec.index, &worker_run);
                    detector.note_spawn(spec.index, agg.now_s());
                    last_anomaly[spec.index] = None;
                    sink.emit(
                        "worker-spawn",
                        &[
                            ("shard", (spec.index as u64).into()),
                            ("of", (spec.count as u64).into()),
                            ("pid", u64::from(child.id()).into()),
                            ("attempt", (shard.failures as u64 + 1).into()),
                        ],
                    );
                    writeln!(
                        out,
                        "shard {spec}: worker spawned (pid {}, attempt {})",
                        child.id(),
                        shard.failures + 1
                    )
                    .map_err(io)?;
                    shard.state = State::Running {
                        child,
                        last_beat: Instant::now(),
                    };
                }
                State::Running { child, last_beat } => {
                    if beat_seen[spec.index] {
                        *last_beat = Instant::now();
                    }
                    let exited = reap(child, spec.index, &notices)
                        .map_err(|e| format!("cannot reap shard worker {spec}: {e}"))?;
                    let failed_how = match exited {
                        Some(status) => {
                            let manifest = manifest_matches(
                                &shard_manifest_path(store_root, spec),
                                opts,
                                spec,
                            )?;
                            match manifest {
                                Some(m) if status.success() => {
                                    writeln!(
                                        out,
                                        "shard {spec}: complete — {} records, fingerprint \
                                         {:016x}, {} store hits",
                                        m.records, m.fingerprint, m.store.hits
                                    )
                                    .map_err(io)?;
                                    sink.emit(
                                        "shard-complete",
                                        &[
                                            ("shard", (spec.index as u64).into()),
                                            ("of", (spec.count as u64).into()),
                                            ("records", m.records.into()),
                                            ("store_hits", m.store.hits.into()),
                                        ],
                                    );
                                    detector.note_exit(spec.index);
                                    shard.state = State::Done;
                                    continue;
                                }
                                _ => Some(format!("exited {status} without a valid manifest")),
                            }
                        }
                        None if last_beat.elapsed() > stall => {
                            // SIGKILL, not a polite shutdown: a stalled
                            // worker cannot be trusted to clean up, and
                            // the store makes the kill safe. The kill
                            // reason cites the anomaly that flagged this
                            // worker first (the detector fires at half
                            // the stall window).
                            let _ = child.kill();
                            let _ = child.wait();
                            let silent_s = last_beat.elapsed().as_secs_f64();
                            sink.emit(
                                "worker-kill",
                                &[
                                    ("shard", (spec.index as u64).into()),
                                    ("silent_s", silent_s.into()),
                                ],
                            );
                            let cited = last_anomaly[spec.index]
                                .as_deref()
                                .map(|a| format!("; after anomaly {a}"))
                                .unwrap_or_default();
                            Some(format!(
                                "stalled (no heartbeat for {silent_s:.1}s{cited}) — killed"
                            ))
                        }
                        None => None,
                    };
                    if let Some(how) = failed_how {
                        detector.note_exit(spec.index);
                        shard.failures += 1;
                        if shard.failures >= attempts_cap {
                            writeln!(
                                out,
                                "shard {spec}: {how}; quarantined after {} attempts (see {})",
                                shard.failures,
                                worker_log_path(store_root, spec).display()
                            )
                            .map_err(io)?;
                            sink.emit(
                                "shard-quarantined",
                                &[
                                    ("shard", (spec.index as u64).into()),
                                    ("attempts", (shard.failures as u64).into()),
                                ],
                            );
                            shard.state = State::Quarantined;
                        } else {
                            let delay = backoff(shard.failures);
                            writeln!(
                                out,
                                "shard {spec}: {how}; retrying in {} ms (attempt {} of \
                                 {attempts_cap})",
                                delay.as_millis(),
                                shard.failures + 1
                            )
                            .map_err(io)?;
                            sink.emit(
                                "shard-retry",
                                &[
                                    ("shard", (spec.index as u64).into()),
                                    ("attempt", (shard.failures as u64 + 1).into()),
                                    ("delay_ms", (delay.as_millis() as u64).into()),
                                ],
                            );
                            shard.state = State::Pending {
                                ready_at: Instant::now() + delay,
                            };
                        }
                    }
                }
            }
        }
        notices.clear();
        if let Some(p) = progress.as_mut() {
            p.paint(false);
        }
        // Decided after this pass's state changes, so the pass that
        // settles the last shard ends the loop.
        let open = shards
            .iter()
            .any(|s| matches!(s.state, State::Pending { .. } | State::Running { .. }));
        if !open {
            let quarantined: Vec<String> = shards
                .iter()
                .filter(|s| matches!(s.state, State::Quarantined))
                .map(|s| s.spec.to_string())
                .collect();
            if quarantined.is_empty() {
                break Ok(());
            }
            break Err(format!(
                "swarm failed: shard(s) {} quarantined after {attempts_cap} attempts each",
                quarantined.join(", ")
            ));
        }
        // Wake on the next worker exit, or after one drain tick.
        if let Ok(notice) = exit_rx.recv_timeout(DRAIN_TICK) {
            notices.push(notice);
        }
        notices.extend(exit_rx.try_iter());
    };
    // Never leak children, whatever the outcome.
    for shard in shards.iter_mut() {
        if let State::Running { child, .. } = &mut shard.state {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    // Every worker has exited or been killed: each copier reaches EOF,
    // so joining them leaves every log complete.
    for copier in copiers {
        copier
            .join()
            .expect("a log copier only copies bytes and sends its notice");
    }
    let quarantined = shards
        .iter()
        .filter(|s| matches!(s.state, State::Quarantined))
        .count() as u64;
    sink.emit(
        "swarm-done",
        &[
            ("shards", (count as u64).into()),
            ("quarantined", quarantined.into()),
        ],
    );
    sink.flush();
    // Final drain: the workers have exited (or been killed and waited
    // on), so their streams are complete; one more pass captures every
    // trailing line plus the coordinator's closing events.
    let mut beat_seen = vec![false; count];
    drain(&mut agg, &mut detector, &mut progress, &mut beat_seen);
    if let Some(p) = progress.as_mut() {
        p.finish();
    }
    agg.flush();
    let stats = agg.stats();
    let events = agg.into_events();
    result.map(|()| FleetOutcome {
        events,
        stats,
        run_id: coord_run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff(1), Duration::from_millis(200));
        assert_eq!(backoff(2), Duration::from_millis(400));
        assert_eq!(backoff(3), Duration::from_millis(800));
        assert_eq!(backoff(20), Duration::from_millis(3_000), "capped");
    }

    #[test]
    fn exit_notices_reap_only_the_attempt_they_name() {
        let mut child = Command::new("sleep").arg("30").spawn().unwrap();
        let pid = child.id();
        // A killed predecessor's late EOF, and a notice for another
        // shard carrying this pid: the running attempt stays running,
        // and the check does not block.
        let started = Instant::now();
        let stale = [(0, pid.wrapping_add(1)), (1, pid)];
        assert!(reap(&mut child, 0, &stale).unwrap().is_none());
        assert!(started.elapsed() < Duration::from_secs(1), "never blocks");
        assert!(child.try_wait().unwrap().is_none(), "still running");
        // The attempt's own notice reaps it.
        child.kill().unwrap();
        let status = reap(&mut child, 0, &[(0, pid)]).unwrap().expect("reaped");
        assert!(!status.success());
    }

    #[test]
    fn drain_counts_only_validated_liveness() {
        let dir = std::env::temp_dir().join(format!("dr-swarm-drain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut agg = Aggregator::new(&dir, 2);
        agg.expect_worker(0, "run.shard-0-of-2");
        agg.expect_worker(1, "run.shard-1-of-2");
        // Shard 0: a stale line from an old run plus one genuine beat.
        // Full-schema fixtures — the aggregator parses, it does not grep.
        std::fs::write(
            dir.join("shard-0-of-2.events.ndjson"),
            concat!(
                "{\"schema\":\"dr-events/v1\",\"run\":\"old-run\",\"seq\":0,\"t_s\":0.1,",
                "\"kind\":\"heartbeat\",\"shard\":0,\"of\":2,\"done\":1,\"total\":9}\n",
                "{\"schema\":\"dr-events/v1\",\"run\":\"run.shard-0-of-2\",\"seq\":0,\"t_s\":0.2,",
                "\"kind\":\"heartbeat\",\"shard\":0,\"of\":2,\"done\":2,\"total\":9}\n",
            ),
        )
        .unwrap();
        // Shard 1: a crossed stream carrying shard 0's identity — well
        // formed, right run prefix pattern, wrong shard: not liveness.
        std::fs::write(
            dir.join("shard-1-of-2.events.ndjson"),
            concat!(
                "{\"schema\":\"dr-events/v1\",\"run\":\"run.shard-1-of-2\",\"seq\":0,\"t_s\":0.2,",
                "\"kind\":\"heartbeat\",\"shard\":0,\"of\":2,\"done\":2,\"total\":9}\n",
            ),
        )
        .unwrap();
        let mut detector = AnomalyDetector::new(2, AnomalyConfig::default());
        let mut progress = None;
        let mut beat_seen = vec![false; 2];
        drain(&mut agg, &mut detector, &mut progress, &mut beat_seen);
        assert!(beat_seen[0], "validated heartbeat counts as liveness");
        assert!(!beat_seen[1], "crossed shard identity is not liveness");
        assert_eq!(agg.lag(0).unwrap().foreign, 1, "stale run rejected");
        assert_eq!(agg.lag(1).unwrap().foreign, 1, "crossed shard rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
