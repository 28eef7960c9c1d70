//! The guarantee matrix. The design rules are learned from one dataset,
//! the `(traversal, time)` record set exploration collects, and every
//! layer wrapped around exploration promises not to change it. This
//! property runs random decision spaces through all 48 points of
//!
//! * threads {1, 4}
//! * store {none, cold, warm}
//! * observation {silent, events + trace}
//! * shards {1, 3 merged}
//! * faults {clean, `light` at a fixed seed}
//!
//! for an exhaustive, a random and an MCTS strategy, through the entry
//! points users reach: `run_pipeline_stored`, or `run_shard` three times
//! plus `merge_shards`. Every point must fingerprint exactly like the
//! canonical silent serial run under the same faults. Two cells differ
//! by design:
//!
//! * MCTS at 4 threads follows a different trajectory and returns its
//!   records in canonical-hash order, so it is compared with the
//!   canonical record set, sorted, at an exhausting budget.
//! * MCTS × 3 shards searches from decorrelated shard seeds and merges
//!   a hash-sorted union, so its record set is not the serial one. The
//!   cell asserts what still holds: no duplicate traversal, every
//!   traversal valid, every clean measurement equal to the canonical
//!   one, and one merged fingerprint for every point of the cell.
//!
//! The test reads no `DR_*` variable, so every environment runs the same
//! matrix.

mod common;

use common::{arb_small_space, sim_counters, strategies, workload_for};
use cuda_mpi_design_rules::dag::DecisionSpace;
use cuda_mpi_design_rules::mcts::ExploredRecord;
use cuda_mpi_design_rules::obs::{EventSink, SharedBuf};
use cuda_mpi_design_rules::pipeline::{
    merge_shards, records_fingerprint, run_pipeline_stored, run_shard, InstrumentedRun,
    PipelineConfig, RunCtx, ShardSpec, ShardTarget, Strategy,
};
use cuda_mpi_design_rules::sim::{FaultConfig, Platform, TableWorkload};
use cuda_mpi_design_rules::store::{ResultStore, StoreStats};
use cuda_mpi_design_rules::trace::Tracer;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The fault seed of every faulty point.
const FAULT_SEED: u64 = 7;

/// Where a run's measurements persist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Store {
    /// No store.
    None,
    /// A fresh store the run fills.
    Cold,
    /// The store the matching cold point filled.
    Warm,
}

/// One configuration of the matrix.
#[derive(Debug, Clone, Copy)]
struct Point {
    threads: usize,
    store: Store,
    observed: bool,
    shards: usize,
    faults: bool,
}

impl Point {
    /// All 48 points. The store varies fastest, so each cold point runs
    /// right before the warm point that reuses its store.
    fn all() -> Vec<Point> {
        let mut points = Vec::new();
        for faults in [false, true] {
            for shards in [1, 3] {
                for threads in [1, 4] {
                    for observed in [false, true] {
                        for store in [Store::None, Store::Cold, Store::Warm] {
                            points.push(Point {
                                threads,
                                store,
                                observed,
                                shards,
                                faults,
                            });
                        }
                    }
                }
            }
        }
        points
    }

    /// The silent serial run every point under `faults` is held to.
    fn canonical(faults: bool) -> Point {
        Point {
            threads: 1,
            store: Store::None,
            observed: false,
            shards: 1,
            faults,
        }
    }

    fn ctx(&self) -> RunCtx {
        let faults = if self.faults {
            FaultConfig::light().with_seed(FAULT_SEED)
        } else {
            FaultConfig::clean()
        };
        let mut ctx = RunCtx::new(PipelineConfig {
            threads: self.threads,
            faults,
            ..PipelineConfig::quick()
        });
        if self.observed {
            ctx.tracer = Tracer::new();
            ctx.events = Some(EventSink::new("matrix").with_writer(Box::new(SharedBuf::new())));
        }
        ctx
    }

    /// The point's store directory, shared by its cold and warm runs. A
    /// shard always writes a store, so a sharded point without one
    /// writes a throwaway store of its own.
    fn dir(&self, root: &Path) -> PathBuf {
        let persisted = if self.store == Store::None {
            "none"
        } else {
            "kept"
        };
        root.join(format!(
            "t{}-o{}-s{}-f{}-{persisted}",
            self.threads, self.observed as u8, self.shards, self.faults as u8
        ))
    }
}

/// What one point produced.
struct Outcome {
    records: Vec<ExploredRecord>,
    /// The pipeline's run (`None` for a sharded point).
    run: Option<InstrumentedRun>,
    /// The run's store counters (summed over shards).
    store: Option<StoreStats>,
    /// Records the run committed (summed over shards, which may overlap).
    committed: usize,
}

fn run_point(
    space: &DecisionSpace,
    w: &TableWorkload,
    platform: &Platform,
    strategy: Strategy,
    p: Point,
    root: &Path,
) -> Outcome {
    let mut ctx = p.ctx();
    let dir = p.dir(root);
    if p.store != Store::Warm {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let out = if p.shards == 1 {
        ctx.store = (p.store != Store::None)
            .then(|| Arc::new(ResultStore::open(&dir).expect("store opens")));
        let run = run_pipeline_stored(space, w, platform, strategy, &ctx)
            .unwrap_or_else(|e| panic!("{p:?}: {e}"));
        Outcome {
            records: run.result.records.clone(),
            store: ctx.store.as_ref().map(|s| s.stats()),
            committed: run.result.records.len(),
            run: Some(run),
        }
    } else {
        let mut committed = 0;
        for index in 0..p.shards {
            let target = ShardTarget {
                scenario: "matrix",
                spec: ShardSpec {
                    index,
                    count: p.shards,
                },
                root: &dir,
            };
            committed += run_shard(space, w, platform, strategy, &target, &ctx)
                .unwrap_or_else(|e| panic!("{p:?}: {e}"))
                .manifest
                .records;
        }
        let merged =
            merge_shards(&dir, "matrix", space, strategy).unwrap_or_else(|e| panic!("{p:?}: {e}"));
        assert_eq!(merged.shards, p.shards);
        assert_eq!(merged.failures, 0, "{p:?}: light faults never kill a run");
        assert_eq!(merged.fingerprint, records_fingerprint(&merged.records));
        Outcome {
            records: merged.records,
            run: None,
            store: Some(merged.store),
            committed,
        }
    };
    if p.observed {
        assert!(ctx.events.as_ref().unwrap().seq() > 0, "{p:?}: no events");
        assert!(ctx.tracer.span_count() > 0, "{p:?}: no spans");
    }
    out
}

/// The simulator's `u64` counters of a pipeline run.
fn run_counters(run: &InstrumentedRun) -> [u64; 6] {
    run.report.sim.as_ref().map_or([0; 6], sim_counters)
}

fn sorted_by_hash(records: &[ExploredRecord]) -> Vec<ExploredRecord> {
    let mut sorted = records.to_vec();
    sorted.sort_by_key(|r| r.traversal.canonical_hash());
    sorted
}

/// What the points under one fault setting are held to.
struct Expected {
    canonical: InstrumentedRun,
    /// Fingerprint of the canonical records in their listed order.
    listed: u64,
    /// Fingerprint of the canonical records in canonical-hash order.
    sorted: u64,
    /// The canonical measurement of each traversal, by hash.
    times: HashMap<u64, u64>,
    /// The first 4-thread MCTS run: an MCTS trajectory, and with it the
    /// telemetry, is only comparable at equal batch width.
    wide: Option<InstrumentedRun>,
    /// The merged fingerprint of the MCTS × shards cell.
    mcts_shards: Option<u64>,
}

impl Expected {
    fn new(canonical: InstrumentedRun) -> Self {
        let records = &canonical.result.records;
        Expected {
            listed: records_fingerprint(records),
            sorted: records_fingerprint(&sorted_by_hash(records)),
            times: records
                .iter()
                .map(|r| (r.traversal.canonical_hash(), r.result.time().to_bits()))
                .collect(),
            canonical,
            wide: None,
            mcts_shards: None,
        }
    }
}

/// Checks one pipeline point against the canonical run.
fn check_pipeline(p: Point, strategy: Strategy, out: &Outcome, exp: &mut Expected) {
    let run = out.run.as_ref().unwrap();
    let canonical = &exp.canonical;
    let wide_mcts = matches!(strategy, Strategy::Mcts { .. }) && p.threads > 1;
    assert_eq!(run.threads, p.threads, "{p:?}");
    let telemetry_ref = if wide_mcts {
        // Above one thread the records come back in canonical-hash order;
        // at an exhausting budget they are the canonical set.
        assert!(canonical.report.search.exhausted && run.report.search.exhausted);
        assert_eq!(records_fingerprint(&out.records), exp.sorted, "{p:?}");
        exp.wide.get_or_insert_with(|| run.clone())
    } else {
        assert_eq!(records_fingerprint(&out.records), exp.listed, "{p:?}");
        // Equal records mine equal rules.
        let (a, b) = (&run.result, &canonical.result);
        assert_eq!(a.labeling.labels, b.labeling.labels, "{p:?}");
        assert_eq!(a.labeling.num_classes, b.labeling.num_classes, "{p:?}");
        assert_eq!(a.search.error.to_bits(), b.search.error.to_bits(), "{p:?}");
        canonical
    };
    assert_eq!(
        run.telemetry.to_csv(),
        telemetry_ref.telemetry.to_csv(),
        "{p:?}"
    );
    if matches!(strategy, Strategy::Mcts { .. }) {
        assert!(run.report.search.tree.is_some(), "{p:?}");
        assert_eq!(run.cache.misses as usize, out.records.len(), "{p:?}");
    }
    // Each traversal is simulated once per run whatever the width; a
    // warm run simulates nothing.
    let sims = run_counters(run);
    if p.store == Store::Warm {
        assert_eq!(sims[0], 0, "{p:?}: a warm run ran the simulator");
    } else {
        assert_eq!(sims, run_counters(canonical), "{p:?}");
    }
    check_store(p, out);
}

/// Checks one sharded point.
fn check_shards(
    p: Point,
    strategy: Strategy,
    space: &DecisionSpace,
    out: &Outcome,
    exp: &mut Expected,
) {
    if !matches!(strategy, Strategy::Mcts { .. }) {
        // Exhaustive and random shards partition the serial record
        // sequence: the merge is the serial run, bit for bit.
        assert_eq!(records_fingerprint(&out.records), exp.listed, "{p:?}");
        check_store(p, out);
        return;
    }
    // The expected difference: each MCTS shard searches the whole space
    // from its own root seed, so the merge is a hash-sorted union, not
    // the serial trajectory.
    let hashes: Vec<u64> = out
        .records
        .iter()
        .map(|r| r.traversal.canonical_hash())
        .collect();
    assert!(
        hashes.windows(2).all(|w| w[0] < w[1]),
        "{p:?}: merged MCTS records are hash-sorted and duplicate-free"
    );
    for r in &out.records {
        space
            .validate(&r.traversal)
            .expect("merged traversal is valid");
        if !p.faults {
            let hash = r.traversal.canonical_hash();
            assert_eq!(
                Some(&r.result.time().to_bits()),
                exp.times.get(&hash),
                "{p:?}: shard measurement of {hash:016x} differs from the canonical one"
            );
        }
    }
    let fingerprint = records_fingerprint(&out.records);
    assert_eq!(
        *exp.mcts_shards.get_or_insert(fingerprint),
        fingerprint,
        "{p:?}"
    );
    check_store(p, out);
}

/// A cold store answers nothing and commits every record; a warm one
/// answers every record and commits nothing.
fn check_store(p: Point, out: &Outcome) {
    let Some(stats) = out.store else {
        assert_eq!(p.store, Store::None, "{p:?}");
        return;
    };
    let (hits, appended) = match p.store {
        Store::Warm => (out.committed, 0),
        _ => (0, out.committed),
    };
    assert_eq!(stats.hits as usize, hits, "{p:?}");
    assert_eq!(stats.appended as usize, appended, "{p:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every point of the matrix, for every strategy, collects the
    /// canonical run's record set (MCTS × shards: the named difference).
    #[test]
    fn every_point_collects_the_canonical_record_set(
        space in arb_small_space(4, 200),
        seed in 0u64..1_000,
    ) {
        let points = Point::all();
        prop_assert_eq!(points.len(), 48);
        let w = workload_for(&space);
        // Noise stays on, and the faulty points draw their outliers from
        // each evaluation's seed, so seed drift shows in their time bits.
        let platform = Platform::perlmutter_like();
        let root = std::env::temp_dir().join(format!(
            "dr-guarantee-matrix-{}-{seed}",
            std::process::id()
        ));
        for strategy in strategies(seed, &space) {
            let _ = std::fs::remove_dir_all(&root);
            // The canonical points are matrix points too, so the matrix
            // also reruns each of them.
            let mut expected = [false, true].map(|faults| {
                let p = Point::canonical(faults);
                Expected::new(run_point(&space, &w, &platform, strategy, p, &root).run.unwrap())
            });
            for &p in &points {
                let out = run_point(&space, &w, &platform, strategy, p, &root);
                let exp = &mut expected[usize::from(p.faults)];
                if p.shards == 1 {
                    check_pipeline(p, strategy, &out, exp);
                } else {
                    check_shards(p, strategy, &space, &out, exp);
                }
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
