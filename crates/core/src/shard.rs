//! Deterministic shard execution and merge: split one exploration run
//! into `N` independently runnable, independently fingerprinted pieces
//! whose merge is bit-identical to the unsharded run.
//!
//! ## Shard determinism policy
//!
//! * **Exhaustive** — the canonical lazy enumeration order is the record
//!   order; shard `i/N` owns the contiguous range
//!   `[total·i/N, total·(i+1)/N)` of it. Concatenating the shards in
//!   index order reproduces the unsharded record sequence exactly.
//! * **Random** — the global dedup loop (rollout `iter` is a pure
//!   function of `(seed, iter)`) is replayed cheaply without simulating,
//!   and shard `i/N` owns the contiguous range of the resulting
//!   *unique-traversal* sequence. Again concatenation is bit-identical
//!   to the unsharded run, and no hash can appear in two shards.
//! * **MCTS** — shards search independently from decorrelated root seeds
//!   ([`dr_mcts::shard_root_seed`]) with [`dr_par::split_budget`]
//!   iteration budgets; each shard's record set is sorted by canonical
//!   hash and the merge is the hash-sorted union. A sharded search is a
//!   *different* (wider) search than the serial one, so MCTS merges are
//!   deterministic and resumable but not bit-identical to the unsharded
//!   trajectory; the bit-identity guarantee applies to the enumerable
//!   strategies.
//!
//! Every measurement is seeded by [`dr_dag::eval_seed`] over the
//! unsharded run's seed — a pure function of the traversal — so *which
//! shard* (or which attempt, after a crash) performs a measurement can
//! never change its value; an MCTS shard's root seed steers only its
//! search.
//!
//! A shard writes its records through the durable [`ResultStore`] under
//! `<store>/shard-<i>-of-<N>/` and, on completion, an atomically
//! published `shard-<i>-of-<N>.manifest.json` recording its identity,
//! record count, fingerprint, and store counters. The manifest is the
//! shard's commit point: a killed worker leaves a store (for resume) but
//! no manifest, so coordinators re-issue exactly the unfinished shards,
//! and resumed shards answer already-simulated traversals from disk.

use crate::explore::{random_rollouts, Strategy, EXHAUSTIVE_MASTER_SEED};
use crate::ledger::records_fingerprint;
use crate::pipeline::{RunCtx, StackParts};
use crate::resilient::Chaos;
use dr_dag::{eval_seed, DecisionSpace, Traversal};
use dr_mcts::{shard_root_seed, Evaluator, ExploredRecord, Mcts, MctsConfig};
use dr_obs::events::EventSink;
use dr_obs::{json, Stopwatch};
use dr_par::split_budget;
use dr_sim::{SimError, Workload};
use dr_store::{ResultStore, StoreStats};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Version tag of the shard manifest format.
pub const SHARD_SCHEMA: &str = "dr-shard/v1";

/// One shard's coordinates: `index` out of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index.
    pub index: usize,
    /// Total number of shards (≥ 1).
    pub count: usize,
}

impl ShardSpec {
    /// Parses the CLI form `i/N` (e.g. `0/3`), requiring `i < N` and
    /// `N ≥ 1`.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("invalid shard '{s}': expected i/N (e.g. 0/3)"))?;
        let index: usize = i
            .trim()
            .parse()
            .map_err(|_| format!("invalid shard index '{i}'"))?;
        let count: usize = n
            .trim()
            .parse()
            .map_err(|_| format!("invalid shard count '{n}'"))?;
        if count == 0 {
            return Err("shard count must be >= 1".to_string());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for count {count}"
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// The `<i>-of-<N>` tag used in store subdirectory and manifest
    /// names.
    pub fn label(&self) -> String {
        format!("{}-of-{}", self.index, self.count)
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The store directory of one shard under the shared store root.
pub fn shard_store_dir(store_root: &Path, spec: ShardSpec) -> PathBuf {
    store_root.join(format!("shard-{}", spec.label()))
}

/// The manifest path of one shard under the shared store root.
pub fn shard_manifest_path(store_root: &Path, spec: ShardSpec) -> PathBuf {
    store_root.join(format!("shard-{}.manifest.json", spec.label()))
}

/// The `(name, seed, iterations)` identity of a strategy, as recorded in
/// manifests and ledger entries (exhaustive is seedless and unbudgeted).
pub fn strategy_identity(strategy: &Strategy) -> (&'static str, u64, u64) {
    match strategy {
        Strategy::Exhaustive => ("exhaustive", 0, 0),
        Strategy::Mcts { iterations, config } => ("mcts", config.seed, *iterations as u64),
        Strategy::Random { iterations, seed } => ("random", *seed, *iterations as u64),
    }
}

/// A completed shard's self-description, published atomically next to
/// its store directory. The manifest doubles as the shard's commit
/// marker: its absence means the shard has not finished.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// Scenario name the shard belongs to.
    pub scenario: String,
    /// Strategy name (`exhaustive`, `mcts`, or `random`).
    pub strategy: String,
    /// The search seed (0 for exhaustive).
    pub seed: u64,
    /// The iteration budget of the *unsharded* run (0 for exhaustive).
    pub iterations: u64,
    /// This shard's index.
    pub index: usize,
    /// Total shard count.
    pub count: usize,
    /// Records in the shard's canonical record order.
    pub records: usize,
    /// Ledger-style fingerprint over those records.
    pub fingerprint: u64,
    /// Traversals quarantined by the resilient evaluator (dropped, not
    /// measured).
    pub failures: u64,
    /// Store counters at completion (hits prove resume reuse).
    pub store: StoreStats,
    /// Wall-clock seconds the shard spent.
    pub seconds: f64,
}

impl ShardManifest {
    /// Renders the manifest as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"schema\":\"{}\",\"scenario\":\"{}\",\"strategy\":\"{}\",",
                "\"seed\":{},\"iterations\":{},\"shard\":{{\"index\":{},\"count\":{}}},",
                "\"records\":{},\"fingerprint\":\"{:016x}\",\"failures\":{},",
                "\"store\":{{\"hits\":{},\"misses\":{},\"loaded\":{},\"appended\":{},",
                "\"truncated_bytes\":{}}},\"seconds\":{}}}"
            ),
            SHARD_SCHEMA,
            json::escape(&self.scenario),
            json::escape(&self.strategy),
            self.seed,
            self.iterations,
            self.index,
            self.count,
            self.records,
            self.fingerprint,
            self.failures,
            self.store.hits,
            self.store.misses,
            self.store.loaded,
            self.store.appended,
            self.store.truncated_bytes,
            json::number(self.seconds)
        )
    }

    /// Parses a manifest, rejecting unknown schemas and missing fields.
    pub fn from_json(text: &str) -> Result<ShardManifest, String> {
        let v = json::parse(text).map_err(|e| format!("unparsable manifest: {e}"))?;
        if v.get("schema").and_then(|s| s.as_str()) != Some(SHARD_SCHEMA) {
            return Err(format!("manifest schema is not {SHARD_SCHEMA}"));
        }
        let str_field = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("manifest missing '{k}'"))
        };
        let u64_path = |p: &[&str]| {
            v.path(p)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("manifest missing '{}'", p.join(".")))
        };
        let fingerprint_hex = str_field("fingerprint")?;
        let fingerprint = u64::from_str_radix(&fingerprint_hex, 16)
            .map_err(|_| format!("invalid fingerprint '{fingerprint_hex}'"))?;
        Ok(ShardManifest {
            scenario: str_field("scenario")?,
            strategy: str_field("strategy")?,
            seed: u64_path(&["seed"])?,
            iterations: u64_path(&["iterations"])?,
            index: u64_path(&["shard", "index"])? as usize,
            count: u64_path(&["shard", "count"])? as usize,
            records: u64_path(&["records"])? as usize,
            fingerprint,
            failures: u64_path(&["failures"])?,
            store: StoreStats {
                hits: u64_path(&["store", "hits"])?,
                misses: u64_path(&["store", "misses"])?,
                loaded: u64_path(&["store", "loaded"])?,
                appended: u64_path(&["store", "appended"])?,
                truncated_bytes: u64_path(&["store", "truncated_bytes"])?,
            },
            seconds: v
                .get("seconds")
                .and_then(|x| x.as_f64())
                .ok_or("manifest missing 'seconds'")?,
        })
    }
}

/// The contiguous `[lo, hi)` range shard `spec` owns out of `total`
/// canonical items (balanced to within one item, exact coverage).
fn slice_bounds(total: usize, spec: ShardSpec) -> (usize, usize) {
    let t = total as u128;
    let n = spec.count as u128;
    let i = spec.index as u128;
    (((t * i) / n) as usize, ((t * (i + 1)) / n) as usize)
}

/// The deterministic work list shard `spec` owns under `strategy`:
/// `None` for MCTS (which shards by search trajectory, not by a
/// pre-enumerable list). Shard work lists partition the unsharded record
/// sequence: their concatenation in index order is exactly the unsharded
/// order, and no traversal appears in two shards.
pub fn shard_work(
    space: &DecisionSpace,
    strategy: Strategy,
    spec: ShardSpec,
) -> Option<Vec<Traversal>> {
    match strategy {
        Strategy::Exhaustive => {
            let total = usize::try_from(space.count_traversals()).unwrap_or(usize::MAX);
            let (lo, hi) = slice_bounds(total, spec);
            Some(space.enumerate().skip(lo).take(hi - lo).collect())
        }
        Strategy::Random { iterations, seed } => {
            // The unsharded run's record order: rollout-discovery order.
            let (uniques, _) = random_rollouts(space, iterations, seed);
            let (lo, hi) = slice_bounds(uniques.len(), spec);
            Some(uniques[lo..hi].to_vec())
        }
        Strategy::Mcts { .. } => None,
    }
}

/// The evaluation master seed of a strategy (the value
/// [`dr_dag::eval_seed`] folds with each traversal's hash). Every shard
/// measures with it, whatever its share of the work.
fn eval_master_seed(strategy: Strategy) -> u64 {
    match strategy {
        Strategy::Exhaustive => EXHAUSTIVE_MASTER_SEED,
        Strategy::Random { seed, .. } => seed,
        Strategy::Mcts { config, .. } => config.seed,
    }
}

/// Default heartbeat cadence in milliseconds
/// ([`PipelineConfig::heartbeat_ms`](crate::PipelineConfig)). Shard
/// workers emit a `heartbeat` event on their `dr-events/v1` stream at
/// least this often while evaluating, and the swarm coordinator declares
/// a worker stalled when its stream goes quiet for much longer than this.
pub(crate) const DEFAULT_HEARTBEAT_MS: u64 = 200;

/// Time-gated heartbeat emitter over a shard's event stream. Each beat
/// is flushed immediately — a heartbeat that sits in a buffer while the
/// process hangs is worse than none.
struct Heartbeat<'a> {
    sink: Option<&'a EventSink>,
    spec: ShardSpec,
    last: std::time::Instant,
    interval: std::time::Duration,
}

impl<'a> Heartbeat<'a> {
    fn new(sink: Option<&'a EventSink>, spec: ShardSpec, interval_ms: u64) -> Self {
        Heartbeat {
            sink,
            spec,
            last: std::time::Instant::now(),
            interval: std::time::Duration::from_millis(interval_ms),
        }
    }

    fn emit(&mut self, done: usize, total: usize) {
        if let Some(sink) = self.sink {
            sink.emit(
                "heartbeat",
                &[
                    ("shard", self.spec.index.into()),
                    ("of", self.spec.count.into()),
                    ("done", done.into()),
                    ("total", total.into()),
                ],
            );
            sink.flush();
        }
        self.last = std::time::Instant::now();
    }

    fn maybe(&mut self, done: usize, total: usize) {
        if self.last.elapsed() >= self.interval {
            self.emit(done, total);
        }
    }
}

/// Everything one shard run produced.
#[derive(Debug, Clone)]
pub struct ShardRunOutcome {
    /// The shard's records in its canonical order.
    pub records: Vec<ExploredRecord>,
    /// The published manifest (already written to disk).
    pub manifest: ShardManifest,
    /// Path of the published manifest.
    pub manifest_path: PathBuf,
}

fn store_io_err(e: std::io::Error) -> SimError {
    SimError::Faulted {
        detail: format!("result store: {e}"),
    }
}

/// Where one shard runs: its coordinates, the shard-set directory it
/// publishes under, and the scenario name its manifest records.
#[derive(Debug, Clone, Copy)]
pub struct ShardTarget<'a> {
    /// Labels the manifest; all determinism flows from the space and
    /// the strategy.
    pub scenario: &'a str,
    /// This shard's coordinates.
    pub spec: ShardSpec,
    /// The shard-set directory: the shard's store and manifest live
    /// under it, where [`merge_shards`] reads them back.
    pub root: &'a Path,
}

/// Runs one shard to completion: opens (or resumes) its durable store
/// under `target.root`, evaluates exactly its deterministic share of the
/// strategy — answering already-committed traversals from disk —
/// compacts the store (the atomic-rotation path), and atomically
/// publishes the manifest. Heartbeats and the completion event go to
/// `ctx.events`. `ctx.store` is unused: a shard's store location is
/// fixed by its target, so that [`merge_shards`] finds it.
pub fn run_shard<W: Workload + Sync>(
    space: &DecisionSpace,
    workload: &W,
    platform: &dr_sim::Platform,
    strategy: Strategy,
    target: &ShardTarget<'_>,
    ctx: &RunCtx,
) -> Result<ShardRunOutcome, SimError> {
    let sw = Stopwatch::start();
    let cfg = &ctx.cfg;
    let spec = target.spec;
    let events = ctx.live_events();
    let store =
        Arc::new(ResultStore::open(&shard_store_dir(target.root, spec)).map_err(store_io_err)?);
    let chaos = Chaos::new(cfg.faults, cfg.retry);
    let resilient = chaos.is_some();
    let parts = StackParts {
        space,
        workload,
        platform,
        bench: cfg.bench,
        chaos,
        store: Some(store.clone()),
        watch: None,
    };
    let mut eval = parts.build(ctx.tracer.lane("shard"));
    let mut beat = Heartbeat::new(events, spec, cfg.heartbeat_ms);
    let mut failures = 0u64;
    let master = eval_master_seed(strategy);
    let records = match strategy {
        Strategy::Mcts { iterations, config } => {
            let budget = split_budget(iterations, spec.count)[spec.index];
            let mut config = MctsConfig {
                seed: shard_root_seed(config.seed, spec.index, spec.count),
                ..config
            };
            if resilient && config.max_failures == 0 {
                config.max_failures = budget;
            }
            beat.emit(0, budget);
            // The shard seed steers the search only: measurements keep the
            // unsharded run's seed, so overlapping shards measure a
            // traversal identically.
            let eval = move |t: &Traversal, _: u64| eval.evaluate(t, eval_seed(master, t));
            let mut mcts = Mcts::new(space, eval, config);
            // Chunked search so long budgets still beat regularly.
            let mut done = 0usize;
            while done < budget {
                let step = (budget - done).min(16);
                mcts.run(step)?;
                done += step;
                beat.maybe(done, budget);
                if mcts.is_exhausted() {
                    break;
                }
            }
            failures = mcts.failures() as u64;
            // The shard's canonical record order: its store contents
            // (first commit wins) sorted by canonical hash.
            let mut recs: Vec<ExploredRecord> = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for (hash, r) in store.records_in_order() {
                if seen.insert(hash) {
                    recs.push(ExploredRecord {
                        traversal: r.traversal,
                        result: r.result,
                    });
                }
            }
            recs.sort_by_key(|r| r.traversal.canonical_hash());
            recs
        }
        _ => {
            let work = shard_work(space, strategy, spec).expect("work-list strategy");
            beat.emit(0, work.len());
            let mut recs = Vec::with_capacity(work.len());
            for (done, t) in work.iter().enumerate() {
                match eval.evaluate(t, eval_seed(master, t)) {
                    Ok(result) => recs.push(ExploredRecord {
                        traversal: t.clone(),
                        result,
                    }),
                    // Mirror the unsharded run's failure policy: quarantine
                    // instead of aborting when fault injection is active.
                    Err(_) if resilient => failures += 1,
                    Err(e) => return Err(e),
                }
                beat.maybe(done + 1, work.len());
            }
            recs
        }
    };
    store.compact().map_err(store_io_err)?;
    let (strategy_name, seed, iterations) = strategy_identity(&strategy);
    let manifest = ShardManifest {
        scenario: target.scenario.to_string(),
        strategy: strategy_name.to_string(),
        seed,
        iterations,
        index: spec.index,
        count: spec.count,
        records: records.len(),
        fingerprint: records_fingerprint(&records),
        failures,
        store: store.stats(),
        seconds: sw.elapsed(),
    };
    let manifest_path = shard_manifest_path(target.root, spec);
    write_atomic(&manifest_path, manifest.to_json().as_bytes()).map_err(store_io_err)?;
    if let Some(sink) = events {
        sink.emit(
            "shard-done",
            &[
                ("shard", spec.index.into()),
                ("of", spec.count.into()),
                ("records", records.len().into()),
                ("store_hits", manifest.store.hits.into()),
                ("seconds", manifest.seconds.into()),
            ],
        );
        sink.flush();
    }
    Ok(ShardRunOutcome {
        records,
        manifest,
        manifest_path,
    })
}

/// Writes `bytes` to `path` atomically (temp file + rename), creating
/// parent directories as needed.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    let tmp = PathBuf::from(os);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// The merged result of a completed shard set.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// All shards' records in the canonical merged order (for the
    /// enumerable strategies: bit-identical to the unsharded run).
    pub records: Vec<ExploredRecord>,
    /// Ledger-style fingerprint over the merged records.
    pub fingerprint: u64,
    /// Number of shards merged.
    pub shards: usize,
    /// Store hit/miss totals summed over the shard manifests.
    pub store: StoreStats,
    /// Traversals quarantined across all shards.
    pub failures: u64,
    /// Wall-clock shard seconds summed over the manifests (total
    /// compute spent exploring, across all workers).
    pub seconds: f64,
    /// The slowest single shard's wall-clock seconds — the critical
    /// path. Swarm workers run concurrently, so this, not the sum, is
    /// the merged run's "explore" phase cost comparable to an unsharded
    /// run's wall-clock.
    pub critical_seconds: f64,
}

/// Loads every `shard-*.manifest.json` under `store_root`.
fn load_manifests(store_root: &Path) -> Result<Vec<ShardManifest>, String> {
    let mut manifests = Vec::new();
    let entries = std::fs::read_dir(store_root)
        .map_err(|e| format!("cannot read shard directory {}: {e}", store_root.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read shard directory entry: {e}"))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !(name.starts_with("shard-") && name.ends_with(".manifest.json")) {
            continue;
        }
        let text = std::fs::read_to_string(entry.path())
            .map_err(|e| format!("cannot read {}: {e}", entry.path().display()))?;
        let m = ShardManifest::from_json(&text)
            .map_err(|e| format!("{}: {e}", entry.path().display()))?;
        manifests.push(m);
    }
    manifests.sort_by_key(|m| m.index);
    Ok(manifests)
}

/// Validates a shard set's manifests and merges its record sets.
///
/// Checks performed, in order: manifest identity consistency (scenario,
/// strategy, seed, iterations, shard count must agree across manifests
/// and with the caller's arguments), exact index coverage (a missing
/// index is a **gap**, a repeated one an **overlap**), per-shard store
/// completeness and fingerprint match (the store must reproduce exactly
/// the manifest's committed record sequence), and cross-shard
/// **duplicate-hash conflicts** (the same canonical hash committed by
/// two shards — impossible for partitioned strategies unless stores were
/// corrupted or mixed; tolerated for MCTS only when the measurements are
/// bit-identical).
pub fn merge_shards(
    store_root: &Path,
    scenario: &str,
    space: &DecisionSpace,
    strategy: Strategy,
) -> Result<MergeOutcome, String> {
    let manifests = load_manifests(store_root)?;
    if manifests.is_empty() {
        return Err(format!(
            "no shard manifests found in {}",
            store_root.display()
        ));
    }
    let (strategy_name, seed, iterations) = strategy_identity(&strategy);
    let count = manifests[0].count;
    for m in &manifests {
        if m.scenario != scenario {
            return Err(format!(
                "shard {}/{} belongs to scenario '{}', expected '{scenario}'",
                m.index, m.count, m.scenario
            ));
        }
        if m.strategy != strategy_name || m.seed != seed || m.iterations != iterations {
            return Err(format!(
                "shard {}/{} ran {} seed {} iterations {}, expected {} seed {} iterations {}",
                m.index, m.count, m.strategy, m.seed, m.iterations, strategy_name, seed, iterations
            ));
        }
        if m.count != count {
            return Err(format!(
                "inconsistent shard counts: found both {} and {}",
                count, m.count
            ));
        }
    }
    // Exact coverage: indices 0..count, each exactly once.
    let mut present = vec![0usize; count];
    for m in &manifests {
        if m.index >= count {
            return Err(format!(
                "shard index {} out of range for count {count}",
                m.index
            ));
        }
        present[m.index] += 1;
    }
    let gaps: Vec<String> = present
        .iter()
        .enumerate()
        .filter(|(_, &c)| c == 0)
        .map(|(i, _)| format!("{i}/{count}"))
        .collect();
    if !gaps.is_empty() {
        return Err(format!("shard gap: missing {}", gaps.join(", ")));
    }
    let overlaps: Vec<String> = present
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 1)
        .map(|(i, _)| format!("{i}/{count}"))
        .collect();
    if !overlaps.is_empty() {
        return Err(format!(
            "shard overlap: duplicate manifests for {}",
            overlaps.join(", ")
        ));
    }
    // Reload each shard's records from its store in canonical order and
    // re-verify the manifest fingerprint from the bytes on disk.
    let is_mcts = matches!(strategy, Strategy::Mcts { .. });
    let mut merged: Vec<ExploredRecord> = Vec::new();
    let mut owner: HashMap<u64, (usize, u64)> = HashMap::new();
    let mut store_totals = StoreStats::default();
    let mut failures = 0u64;
    let mut seconds = 0.0;
    let mut critical_seconds = 0.0f64;
    for m in &manifests {
        let spec = ShardSpec {
            index: m.index,
            count,
        };
        let store = ResultStore::open(&shard_store_dir(store_root, spec))
            .map_err(|e| format!("shard {spec}: cannot open store: {e}"))?;
        let records: Vec<ExploredRecord> = if is_mcts {
            let mut recs: Vec<ExploredRecord> = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for (hash, r) in store.records_in_order() {
                if seen.insert(hash) {
                    recs.push(ExploredRecord {
                        traversal: r.traversal,
                        result: r.result,
                    });
                }
            }
            recs.sort_by_key(|r| r.traversal.canonical_hash());
            recs
        } else {
            let work = shard_work(space, strategy, spec).expect("work-list strategy");
            let mut recs = Vec::with_capacity(work.len());
            for t in work {
                if let Some(result) = store.lookup(&t) {
                    recs.push(ExploredRecord {
                        traversal: t,
                        result,
                    });
                }
                // A missing traversal is either a quarantined failure
                // (legitimate, counted in the manifest) or an incomplete
                // store; the count and fingerprint checks below tell
                // them apart.
            }
            recs
        };
        if records.len() != m.records {
            return Err(format!(
                "shard {spec} incomplete: store reproduces {} of {} committed records \
                 (re-run the shard to resume it)",
                records.len(),
                m.records
            ));
        }
        let fp = records_fingerprint(&records);
        if fp != m.fingerprint {
            return Err(format!(
                "shard {spec} fingerprint mismatch: store yields {fp:016x}, manifest says \
                 {:016x} (store corrupt or from a different run)",
                m.fingerprint
            ));
        }
        for r in &records {
            let hash = r.traversal.canonical_hash();
            let bits = r.result.time().to_bits();
            if let Some(&(other, other_bits)) = owner.get(&hash) {
                if !is_mcts {
                    return Err(format!(
                        "duplicate hash {hash:016x} in shards {other}/{count} and {}/{count}: \
                         partitioned strategies must be disjoint",
                        m.index
                    ));
                }
                if other_bits != bits {
                    return Err(format!(
                        "conflicting measurements for hash {hash:016x} between shards \
                         {other}/{count} and {}/{count}",
                        m.index
                    ));
                }
                continue; // identical MCTS duplicate: keep the first
            }
            owner.insert(hash, (m.index, bits));
            merged.push(r.clone());
        }
        store_totals.hits += m.store.hits;
        store_totals.misses += m.store.misses;
        store_totals.loaded += m.store.loaded;
        store_totals.appended += m.store.appended;
        store_totals.truncated_bytes += m.store.truncated_bytes;
        failures += m.failures;
        seconds += m.seconds;
        critical_seconds = critical_seconds.max(m.seconds);
    }
    if is_mcts {
        merged.sort_by_key(|r| r.traversal.canonical_hash());
    }
    let fingerprint = records_fingerprint(&merged);
    Ok(MergeOutcome {
        records: merged,
        fingerprint,
        shards: count,
        store: store_totals,
        failures,
        seconds,
        critical_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_dag::{CostKey, DagBuilder, OpSpec};
    use dr_sim::{Platform, TableWorkload};

    fn setup() -> (DecisionSpace, TableWorkload, Platform) {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        let space = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 5e-4)
            .cost_all("b", 5e-4)
            .cost_all("c", 1e-5);
        let platform = Platform {
            gpu_contention: 0.0,
            ..Platform::perlmutter_like().noiseless()
        };
        (space, w, platform)
    }

    /// Runs shard `index/count` of `strategy` over the shared setup
    /// into `root`.
    fn shard(root: &Path, strategy: Strategy, index: usize, count: usize) -> ShardRunOutcome {
        let (space, w, platform) = setup();
        let target = ShardTarget {
            scenario: "test",
            spec: ShardSpec { index, count },
            root,
        };
        let ctx = RunCtx::new(crate::PipelineConfig::quick());
        run_shard(&space, &w, &platform, strategy, &target, &ctx).unwrap()
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dr-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn spec_parses_and_rejects() {
        assert_eq!(
            ShardSpec::parse("0/3").unwrap(),
            ShardSpec { index: 0, count: 3 }
        );
        assert_eq!(
            ShardSpec::parse("2/3").unwrap(),
            ShardSpec { index: 2, count: 3 }
        );
        for bad in ["3/3", "1/0", "x/2", "1-2", "2"] {
            assert!(ShardSpec::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn work_lists_partition_the_unsharded_order() {
        let (space, _, _) = setup();
        for strategy in [
            Strategy::Exhaustive,
            Strategy::Random {
                iterations: 40,
                seed: 9,
            },
        ] {
            let full = shard_work(&space, strategy, ShardSpec { index: 0, count: 1 }).unwrap();
            for count in 1..=5usize {
                let mut concat = Vec::new();
                for index in 0..count {
                    concat
                        .extend(shard_work(&space, strategy, ShardSpec { index, count }).unwrap());
                }
                assert_eq!(concat, full, "{} N={count}", strategy.name());
            }
        }
    }

    #[test]
    fn manifest_roundtrips_through_json() {
        let m = ShardManifest {
            scenario: "spmv".into(),
            strategy: "random".into(),
            seed: 7,
            iterations: 64,
            index: 1,
            count: 3,
            records: 12,
            fingerprint: 0xDEAD_BEEF_0123_4567,
            failures: 1,
            store: StoreStats {
                hits: 3,
                misses: 9,
                loaded: 3,
                appended: 9,
                truncated_bytes: 17,
            },
            seconds: 1.5,
        };
        let js = m.to_json();
        json::validate(&js).unwrap();
        assert_eq!(ShardManifest::from_json(&js).unwrap(), m);
        assert!(ShardManifest::from_json("{\"schema\":\"nope\"}").is_err());
    }

    #[test]
    fn rerun_answers_from_the_store_and_merge_detects_gaps() {
        let (space, _, _) = setup();
        let strategy = Strategy::Exhaustive;
        let dir = scratch("resume");
        let cold = shard(&dir, strategy, 0, 2);
        assert_eq!(cold.manifest.store.hits, 0);
        assert!(cold.manifest.store.appended > 0);
        // Re-running the same shard simulates nothing.
        let warm = shard(&dir, strategy, 0, 2);
        assert_eq!(warm.manifest.fingerprint, cold.manifest.fingerprint);
        assert_eq!(warm.manifest.store.appended, 0);
        assert_eq!(warm.manifest.store.hits as usize, warm.records.len());
        // Shard 1/2 never ran: the merge names the gap.
        let err = merge_shards(&dir, "test", &space, strategy).unwrap_err();
        assert!(err.contains("gap") && err.contains("1/2"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_identity_mismatches() {
        let (space, _, _) = setup();
        let strategy = Strategy::Random {
            iterations: 20,
            seed: 1,
        };
        let dir = scratch("identity");
        for index in 0..2 {
            shard(&dir, strategy, index, 2);
        }
        // Wrong seed.
        let err = merge_shards(
            &dir,
            "test",
            &space,
            Strategy::Random {
                iterations: 20,
                seed: 2,
            },
        )
        .unwrap_err();
        assert!(err.contains("seed"), "{err}");
        // Wrong scenario.
        let err = merge_shards(&dir, "other", &space, strategy).unwrap_err();
        assert!(err.contains("scenario"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_detects_torn_then_incomplete_stores() {
        let (space, _, _) = setup();
        let strategy = Strategy::Exhaustive;
        let dir = scratch("torn");
        for index in 0..2 {
            shard(&dir, strategy, index, 2);
        }
        // Tear the tail off shard 1's segment: recovery drops its final
        // record, so the merge reports the shard as incomplete.
        let seg =
            shard_store_dir(&dir, ShardSpec { index: 1, count: 2 }).join(dr_store::SEGMENT_FILE);
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let err = merge_shards(&dir, "test", &space, strategy).unwrap_err();
        assert!(err.contains("incomplete"), "{err}");
        // Resuming the shard repairs it (only the torn record re-runs),
        // and the merge then succeeds.
        let resumed = shard(&dir, strategy, 1, 2);
        assert!(resumed.manifest.store.hits > 0, "resume reuses the store");
        assert_eq!(
            resumed.manifest.store.appended, 1,
            "only the torn record re-ran"
        );
        let merged = merge_shards(&dir, "test", &space, strategy).unwrap();
        let full = shard(&scratch("torn-ref"), strategy, 0, 1);
        assert_eq!(merged.fingerprint, full.manifest.fingerprint);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
