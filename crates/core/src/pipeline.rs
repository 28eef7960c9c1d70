//! The end-to-end design-rule pipeline (paper Fig. 2): explore → label →
//! featurize → train → extract rules.

use crate::explore::{explore_parallel, ExploreCtx, Strategy, DEFAULT_EVENTS_RATE};
use crate::report::{RunReport, SearchSummary};
use crate::resilient::{Chaos, Measure, RetrySchedule};
use crate::shard::DEFAULT_HEARTBEAT_MS;
use crate::storestage::StoredEvaluator;
use crate::watch::{EvalWatch, WatchedEvaluator};
use dr_dag::{DecisionSpace, Traversal};
use dr_fault::FaultConfig;
use dr_mcts::{ExploredRecord, SearchTelemetry};
use dr_ml::{
    algorithm1, extract_rulesets, featurize, label_times, FeatureSet, HyperSearch, Labeling,
    LabelingConfig, RuleSet, TrainConfig,
};
use dr_obs::events::{EventSink, Field};
use dr_obs::{Phases, Stopwatch};
use dr_par::{CacheStats, FailurePolicy};
use dr_sim::{BenchConfig, Platform, SimError, Workload};
use dr_trace::{Lane, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pipeline parameters (defaults mirror the paper). A config arrives
/// resolved: the pipeline reads no environment, so every knob that
/// changes a run is a field here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Class-labeling parameters (Section IV-A).
    pub labeling: LabelingConfig,
    /// Decision-tree parameters (Table IV); `max_leaf_nodes`/`max_depth`
    /// are chosen by Algorithm 1.
    pub train: TrainConfig,
    /// Measurement protocol (Section III-C-3).
    pub bench: BenchConfig,
    /// Exploration worker threads (default 1; `0` is treated as `1`).
    pub threads: usize,
    /// Deterministic fault injection (chaos mode). Inactive (clean) by
    /// default. An active config measures with the resilient evaluator
    /// (retry-with-reseed under a watchdog budget, panic isolation),
    /// explores under [`FailurePolicy::Quarantine`] instead of aborting,
    /// and labels robustly (MAD-screened).
    pub faults: FaultConfig,
    /// How the resilient evaluator retries a fault-killed evaluation
    /// (unused on clean runs).
    pub retry: RetrySchedule,
    /// Event sampling: one `mcts-iter` / `eval` event every
    /// `events_rate` occurrences (default 16, minimum 1).
    pub events_rate: usize,
    /// Shard workers emit a `heartbeat` event at least this often
    /// (milliseconds, default 200).
    pub heartbeat_ms: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            labeling: LabelingConfig::default(),
            train: TrainConfig::default(),
            bench: BenchConfig::default(),
            threads: 1,
            faults: FaultConfig::clean(),
            retry: RetrySchedule::default(),
            events_rate: DEFAULT_EVENTS_RATE,
            heartbeat_ms: DEFAULT_HEARTBEAT_MS,
        }
    }
}

impl PipelineConfig {
    /// Cheap settings for tests and examples.
    pub fn quick() -> Self {
        PipelineConfig {
            bench: BenchConfig::quick(),
            ..Default::default()
        }
    }
}

/// Everything the pipeline produces for one exploration run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The explored implementations with their measurements.
    pub records: Vec<ExploredRecord>,
    /// Performance-class labeling of the records.
    pub labeling: Labeling,
    /// The pruned feature matrix of the records.
    pub features: FeatureSet,
    /// Algorithm 1's hyperparameter search (the tree is
    /// `search.tree`).
    pub search: HyperSearch,
    /// One ruleset per decision-tree leaf.
    pub rulesets: Vec<RuleSet>,
}

impl PipelineResult {
    /// Predicts the performance class of an arbitrary traversal of the
    /// same space using the learned tree.
    pub fn classify(&self, space: &DecisionSpace, t: &Traversal) -> usize {
        let x = self.features.vector_of(space, t);
        self.search.tree.predict(&x)
    }

    /// The scalar time of each record (median measurement), parallel to
    /// `records`.
    pub fn times(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.result.time()).collect()
    }
}

/// Runs the full pipeline over a decision space and workload.
pub fn run_pipeline<W: Workload + Sync>(
    space: &DecisionSpace,
    workload: &W,
    platform: &Platform,
    strategy: Strategy,
    cfg: &PipelineConfig,
) -> Result<PipelineResult, SimError> {
    run_pipeline_instrumented(space, workload, platform, strategy, cfg).map(|r| r.result)
}

/// Result plus observability artifacts of one instrumented pipeline run.
#[derive(Debug, Clone)]
pub struct InstrumentedRun {
    /// The pipeline's mined output.
    pub result: PipelineResult,
    /// Aggregated run report (phase timings, sim stats, search and
    /// mining summaries).
    pub report: RunReport,
    /// Per-iteration search telemetry (one row per exploration
    /// iteration).
    pub telemetry: SearchTelemetry,
    /// Repeat accounting of the MCTS tree (all zero for the non-MCTS
    /// strategies).
    pub cache: CacheStats,
    /// Number of exploration worker threads actually used.
    pub threads: usize,
}

/// Like [`run_pipeline`], additionally producing a [`RunReport`] and the
/// per-iteration [`SearchTelemetry`]. Exploration uses
/// [`PipelineConfig::threads`] workers; mining is always serial.
pub fn run_pipeline_instrumented<W: Workload + Sync>(
    space: &DecisionSpace,
    workload: &W,
    platform: &Platform,
    strategy: Strategy,
    cfg: &PipelineConfig,
) -> Result<InstrumentedRun, SimError> {
    run_pipeline_stored(space, workload, platform, strategy, &RunCtx::new(*cfg))
}

/// Everything a run needs besides the problem and the strategy: the
/// resolved configuration plus the run's observation and persistence
/// channels. A disabled tracer, a `None` or disabled sink, and a `None`
/// store each switch their channel off; none of them ever changes the
/// mined result.
#[derive(Clone)]
pub struct RunCtx {
    /// The resolved configuration.
    pub cfg: PipelineConfig,
    /// Causal tracing.
    pub tracer: Tracer,
    /// Live `dr-events/v1` stream.
    pub events: Option<EventSink>,
    /// Durable result store.
    pub store: Option<Arc<dr_store::ResultStore>>,
}

impl RunCtx {
    /// A silent run without a store under `cfg`.
    pub fn new(cfg: PipelineConfig) -> Self {
        RunCtx {
            cfg,
            tracer: Tracer::disabled(),
            events: None,
            store: None,
        }
    }

    /// The event sink, when present and enabled.
    pub(crate) fn live_events(&self) -> Option<&EventSink> {
        self.events.as_ref().filter(|s| s.is_enabled())
    }
}

/// One worker's evaluator stack, outermost first: watch → store →
/// measure. The watch layer's `evaluate` span and `eval` wall time cover
/// store lookups, fault retries, and the simulator run.
pub(crate) type EvalStack<'a, W> = WatchedEvaluator<StoredEvaluator<Measure<'a, W>>>;

/// What every worker's [`EvalStack`] is built from. Each optional part
/// switches its layer off when absent, leaving a pass-through.
pub(crate) struct StackParts<'a, W: Workload> {
    pub space: &'a DecisionSpace,
    pub workload: &'a W,
    pub platform: &'a Platform,
    pub bench: BenchConfig,
    /// Fault injection: selects the resilient measuring layer.
    pub chaos: Option<Chaos>,
    pub store: Option<Arc<dr_store::ResultStore>>,
    pub watch: Option<EvalWatch>,
}

impl<W: Workload> StackParts<'_, W> {
    /// Builds one worker's stack, recording `evaluate` spans on `lane`.
    pub fn build(&self, lane: Lane) -> EvalStack<'_, W> {
        let measure = Measure::new(
            self.space,
            self.workload,
            self.platform,
            self.bench,
            self.chaos.as_ref(),
        );
        WatchedEvaluator::new(
            StoredEvaluator::new(measure, self.store.clone()),
            lane,
            self.watch.clone(),
        )
    }
}

/// Emits an event when a live sink is present (the pipeline's phase and
/// run lifecycle events all go through here).
fn emit(events: Option<&EventSink>, kind: &str, fields: &[(&str, Field)]) {
    if let Some(sink) = events {
        sink.emit(kind, fields);
    }
}

/// [`run_pipeline_instrumented`] with every observation channel and a
/// durable store, as `ctx` selects them.
///
/// * **Tracing.** A root `pipeline` span covers the run, each phase
///   (`explore`, `label`, `featurize`, `train`, `rules`) becomes a child
///   span, every worker's evaluator stack records one `evaluate` span per
///   benchmark call, and the exploration engine adds worker/chunk/
///   iteration spans linked to the explore span via `follows_from`
///   edges.
/// * **Events** (schema `dr-events/v1`). `run-start`/`run-end` bracket
///   the run, `phase-start`/`phase-end` bracket each pipeline phase (the
///   explore end event carries record, cache, and quarantine counters),
///   workers emit lifecycle events, and MCTS iterations and evaluations
///   are sampled ([`PipelineConfig::events_rate`]). The report's provenance
///   run id is taken from the sink so the event stream, report, and
///   ledger entry all name the same run.
/// * **Store.** Every evaluator stack consults the
///   [`dr_store::ResultStore`] before simulating and commits each fresh
///   measurement to disk before returning it, so a re-run over the same
///   store answers every already-measured traversal from disk
///   (`store.stats().hits` proves it) and a crash mid-run loses at most
///   the in-flight record. The store sits *inside* the watch layer, so
///   observability counters are identical between cold and warm runs;
///   only the simulator is skipped.
///
/// # Errors
/// The first failed evaluation under [`FailurePolicy::Abort`], or
/// [`SimError::Faulted`] when quarantine dropped every measurement.
///
/// # Panics
/// When the exploration measured nothing without quarantining anything
/// (a zero budget): rules cannot be mined from zero records.
pub fn run_pipeline_stored<W: Workload + Sync>(
    space: &DecisionSpace,
    workload: &W,
    platform: &Platform,
    strategy: Strategy,
    ctx: &RunCtx,
) -> Result<InstrumentedRun, SimError> {
    let events = ctx.live_events();
    let mut main = ctx.tracer.lane("pipeline");
    main.enter("pipeline");
    main.annotate("strategy", strategy.name());
    let sw = Stopwatch::start();
    emit(
        events,
        "run-start",
        &[
            ("strategy", strategy.name().into()),
            (
                "space",
                (space.count_traversals().min(u64::MAX as u128) as u64).into(),
            ),
        ],
    );
    let out = run_pipeline_spanned(space, workload, platform, strategy, ctx, &mut main);
    match &out {
        Ok(run) => emit(
            events,
            "run-end",
            &[
                ("seconds", sw.elapsed().into()),
                ("records", run.result.records.len().into()),
                ("rulesets", run.result.rulesets.len().into()),
                ("classes", run.result.labeling.num_classes.into()),
                ("ok", true.into()),
            ],
        ),
        Err(e) => emit(
            events,
            "run-end",
            &[
                ("seconds", sw.elapsed().into()),
                ("error", e.to_string().into()),
                ("ok", false.into()),
            ],
        ),
    }
    if let Some(sink) = events {
        sink.flush();
    }
    match &out {
        Ok(run) => {
            main.annotate("records", run.result.records.len());
            main.annotate("rulesets", run.result.rulesets.len());
            main.annotate("cache_hits", run.cache.hits);
            main.annotate("cache_misses", run.cache.misses);
            if let Some(r) = &run.report.resilience {
                main.annotate("quarantined", r.quarantined);
                main.annotate("retries", r.retries);
            }
        }
        Err(e) => main.annotate("error", e),
    }
    main.exit();
    out
}

/// The traced pipeline's body; `main` carries the open root span.
fn run_pipeline_spanned<W: Workload + Sync>(
    space: &DecisionSpace,
    workload: &W,
    platform: &Platform,
    strategy: Strategy,
    ctx: &RunCtx,
    main: &mut Lane,
) -> Result<InstrumentedRun, SimError> {
    let cfg = &ctx.cfg;
    let tracer = &ctx.tracer;
    let events = ctx.live_events();
    let mut phases = Phases::new();
    let threads = cfg.threads.max(1);
    let chaos = Chaos::new(cfg.faults, cfg.retry);
    let resilience = chaos.as_ref().map(|c| c.totals.clone());
    // With faults active, exploration quarantines instead of aborting.
    let policy = if chaos.is_some() {
        FailurePolicy::Quarantine
    } else {
        FailurePolicy::Abort
    };
    let parts = StackParts {
        space,
        workload,
        platform,
        bench: cfg.bench,
        chaos,
        store: ctx.store.clone(),
        watch: events.map(|s| EvalWatch::new(s.clone(), cfg.events_rate)),
    };
    main.annotate("threads", threads);
    main.annotate("faults_active", resilience.is_some());
    main.enter("explore");
    let ctx = ExploreCtx {
        tracer: tracer.clone(),
        dispatch: main.current(),
        events: events.cloned(),
        events_rate: cfg.events_rate,
        policy,
        ..ExploreCtx::new(threads)
    };
    emit(
        events,
        "phase-start",
        &[("phase", "explore".into()), ("threads", threads.into())],
    );
    // Each worker's evaluator stack gets its own `eval-{n}` lane.
    let eval_ix = AtomicUsize::new(0);
    let sw = Stopwatch::start();
    let explored = explore_parallel(
        space,
        || {
            let n = eval_ix.fetch_add(1, Ordering::Relaxed);
            parts.build(tracer.lane(&format!("eval-{n}")))
        },
        strategy,
        &ctx,
    );
    let explored = match explored {
        Ok(e) => {
            main.annotate("explored_records", e.records.len());
            main.annotate("cache_hits", e.cache.hits);
            main.exit();
            e
        }
        Err(err) => {
            main.annotate("error", &err);
            main.exit();
            return Err(err);
        }
    };
    phases.add("explore", sw.elapsed());
    emit(
        events,
        "phase-end",
        &[
            ("phase", "explore".into()),
            ("seconds", sw.elapsed().into()),
            ("records", explored.records.len().into()),
            ("cache_hits", explored.cache.hits.into()),
            ("cache_misses", explored.cache.misses.into()),
            ("quarantined", explored.quarantined.into()),
            (
                "retries",
                resilience
                    .as_ref()
                    .map_or(0, |t| t.summary().retries)
                    .into(),
            ),
            (
                "evals",
                parts.watch.as_ref().map_or(0, |w| w.count()).into(),
            ),
        ],
    );
    if let Some(totals) = &resilience {
        totals.note_quarantined(explored.quarantined);
    }
    if explored.records.is_empty() && explored.quarantined > 0 {
        return Err(SimError::Faulted {
            detail: format!(
                "no measurements survived: {} traversals quarantined",
                explored.quarantined
            ),
        });
    }
    // Chaos runs label robustly unless the caller already opted in.
    let mine_cfg = match &resilience {
        Some(_) if cfg.labeling.outlier_mad_k == 0.0 => PipelineConfig {
            labeling: dr_ml::LabelingConfig {
                outlier_mad_k: dr_ml::LabelingConfig::robust().outlier_mad_k,
                ..cfg.labeling
            },
            ..*cfg
        },
        _ => *cfg,
    };
    let result = mine_rules_watched(
        space,
        explored.records,
        &mine_cfg,
        &mut phases,
        main,
        events,
    );
    let search = SearchSummary::from_telemetry(strategy.name(), &explored.telemetry)
        .with_tree(explored.tree, explored.exhausted);
    let mut report = RunReport::new(phases, explored.sim, search, &result, cfg);
    // The event stream, report, and ledger entry must all name the same
    // run.
    if let Some(sink) = events {
        report.provenance.run_id = sink.run_id().to_string();
    }
    report.resilience = resilience.map(|totals| totals.summary());
    Ok(InstrumentedRun {
        result,
        report,
        telemetry: explored.telemetry,
        cache: explored.cache,
        threads: explored.threads,
    })
}

/// The mining half of the pipeline, reusable when records were collected
/// elsewhere (e.g. shared between experiments).
pub fn mine_rules(
    space: &DecisionSpace,
    records: Vec<ExploredRecord>,
    cfg: &PipelineConfig,
) -> PipelineResult {
    mine_rules_timed(space, records, cfg, &mut Phases::new())
}

/// [`mine_rules`], recording each stage's wall-clock duration into
/// `phases` under the names `label`, `featurize`, `train`, and `rules`.
pub fn mine_rules_timed(
    space: &DecisionSpace,
    records: Vec<ExploredRecord>,
    cfg: &PipelineConfig,
    phases: &mut Phases,
) -> PipelineResult {
    let tracer = Tracer::disabled();
    mine_rules_watched(space, records, cfg, phases, &mut tracer.lane("mine"), None)
}

/// [`mine_rules_timed`] with one span per mining stage on `lane`
/// (annotated with each stage's headline outcome) and
/// `phase-start`/`phase-end` events on `events`.
fn mine_rules_watched(
    space: &DecisionSpace,
    records: Vec<ExploredRecord>,
    cfg: &PipelineConfig,
    phases: &mut Phases,
    lane: &mut Lane,
    events: Option<&EventSink>,
) -> PipelineResult {
    assert!(!records.is_empty(), "cannot mine rules from zero records");
    let phase_end = |phases: &Phases, name: &str, out: Field| {
        emit(
            events,
            "phase-end",
            &[
                ("phase", name.into()),
                ("seconds", phases.get(name).unwrap_or(0.0).into()),
                ("out", out),
            ],
        );
    };
    let times: Vec<f64> = records.iter().map(|r| r.result.time()).collect();
    lane.enter("label");
    emit(events, "phase-start", &[("phase", "label".into())]);
    let labeling = phases.time("label", || label_times(&times, &cfg.labeling));
    lane.annotate("classes", labeling.num_classes);
    lane.exit();
    phase_end(phases, "label", labeling.num_classes.into());
    let traversals: Vec<&Traversal> = records.iter().map(|r| &r.traversal).collect();
    lane.enter("featurize");
    emit(events, "phase-start", &[("phase", "featurize".into())]);
    let features = phases.time("featurize", || featurize(space, &traversals));
    lane.annotate("features", features.features.len());
    lane.exit();
    phase_end(phases, "featurize", features.features.len().into());
    lane.enter("train");
    emit(events, "phase-start", &[("phase", "train".into())]);
    let search = phases.time("train", || {
        algorithm1(
            &features.matrix,
            &labeling.labels,
            labeling.num_classes,
            &cfg.train,
        )
    });
    lane.annotate("tree_error", dr_obs::json::number(search.error));
    lane.exit();
    phase_end(phases, "train", search.error.into());
    lane.enter("rules");
    emit(events, "phase-start", &[("phase", "rules".into())]);
    let rulesets = phases.time("rules", || extract_rulesets(&search.tree, &features));
    lane.annotate("rulesets", rulesets.len());
    lane.exit();
    phase_end(phases, "rules", rulesets.len().into());
    PipelineResult {
        records,
        labeling,
        features,
        search,
        rulesets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_dag::{CostKey, DagBuilder, OpSpec};
    use dr_sim::TableWorkload;

    /// A space with a strong, learnable performance cliff: two big
    /// kernels either overlap (different streams) or serialize.
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
        let platform = dr_sim::Platform {
            gpu_contention: 0.0,
            ..Platform::perlmutter_like().noiseless()
        };
        (space, w, platform)
    }

    #[test]
    fn faulted_means_quarantine_dropped_every_measurement() {
        // No cost for "c": every traversal fails, and the chaos config
        // quarantines each failure instead of aborting.
        let (space, _, platform) = setup();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 5e-4).cost_all("b", 5e-4);
        let cfg = PipelineConfig {
            faults: dr_fault::FaultConfig::light().with_seed(7),
            ..PipelineConfig::quick()
        };
        let err = run_pipeline_instrumented(&space, &w, &platform, Strategy::Exhaustive, &cfg)
            .unwrap_err();
        let quarantined = format!("{} traversals quarantined", space.count_traversals());
        assert!(
            matches!(&err, SimError::Faulted { detail } if detail.contains(&quarantined)),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "cannot mine rules from zero records")]
    fn a_zero_budget_is_not_reported_as_fault_injection() {
        let (space, w, platform) = setup();
        let strategy = Strategy::Mcts {
            iterations: 0,
            config: dr_mcts::MctsConfig::default(),
        };
        let _ =
            run_pipeline_instrumented(&space, &w, &platform, strategy, &PipelineConfig::quick());
    }

    #[test]
    fn exhaustive_pipeline_learns_the_stream_rule() {
        let (space, w, platform) = setup();
        let result = run_pipeline(
            &space,
            &w,
            &platform,
            Strategy::Exhaustive,
            &PipelineConfig::quick(),
        )
        .unwrap();
        // Two regimes: overlapped (~0.5 ms) vs serialized (~1 ms).
        assert_eq!(
            result.labeling.num_classes, 2,
            "{:?}",
            result.labeling.boundaries
        );
        assert_eq!(
            result.search.error, 0.0,
            "cliff must be perfectly learnable"
        );
        // The discriminating feature is the stream assignment.
        let stream_rules = result
            .rulesets
            .iter()
            .flat_map(|rs| rs.rules.iter())
            .filter(|r| matches!(r.kind, dr_ml::FeatureKind::SameStream(_, _)))
            .count();
        assert!(stream_rules > 0, "rules: {:?}", result.rulesets);
    }

    #[test]
    fn classify_agrees_with_training_labels() {
        let (space, w, platform) = setup();
        let result = run_pipeline(
            &space,
            &w,
            &platform,
            Strategy::Exhaustive,
            &PipelineConfig::quick(),
        )
        .unwrap();
        for (rec, &label) in result.records.iter().zip(&result.labeling.labels) {
            assert_eq!(result.classify(&space, &rec.traversal), label);
        }
    }

    #[test]
    fn mcts_pipeline_runs_on_a_budget() {
        let (space, w, platform) = setup();
        let strategy = Strategy::Mcts {
            iterations: 8,
            config: dr_mcts::MctsConfig::default(),
        };
        let result =
            run_pipeline(&space, &w, &platform, strategy, &PipelineConfig::quick()).unwrap();
        assert!(!result.records.is_empty());
        assert!(!result.rulesets.is_empty());
    }

    #[test]
    fn instrumented_pipeline_reports_phases_stats_and_telemetry() {
        let (space, w, platform) = setup();
        let strategy = Strategy::Mcts {
            iterations: 8,
            config: dr_mcts::MctsConfig::default(),
        };
        let run =
            run_pipeline_instrumented(&space, &w, &platform, strategy, &PipelineConfig::quick())
                .unwrap();
        // Every pipeline phase was timed.
        for name in ["explore", "label", "featurize", "train", "rules"] {
            assert!(
                run.report.phases.get(name).is_some(),
                "missing phase {name}"
            );
        }
        // Telemetry: one row per iteration, summarized faithfully.
        assert_eq!(run.telemetry.len(), 8);
        assert_eq!(run.report.search.strategy, "mcts");
        assert_eq!(run.report.search.iterations, 8);
        assert_eq!(
            run.report.search.unique_traversals,
            run.result.records.len()
        );
        // The SimEvaluator accumulated simulator statistics.
        let sim = run.report.sim.as_ref().expect("sim stats present");
        assert!(sim.runs > 0 && sim.instructions > 0);
        // The JSON rendering is syntactically valid.
        dr_obs::json::validate(&run.report.to_json()).unwrap();
        let text = run.report.render_text();
        assert!(text.contains("explore") && text.contains("mining:"));
    }

    #[test]
    fn chaos_pipeline_reports_resilience() {
        let (space, w, platform) = setup();
        let cfg = PipelineConfig {
            faults: dr_fault::FaultConfig::light().with_seed(7),
            ..PipelineConfig::quick()
        };
        let a =
            run_pipeline_instrumented(&space, &w, &platform, Strategy::Exhaustive, &cfg).unwrap();
        let r = a.report.resilience.expect("resilience block present");
        assert!(r.evaluations >= a.result.records.len() as u64);
        assert_eq!(r.quarantined, 0, "light faults never kill an execution");
        // Light faults are outlier-only: the median survives, so the
        // stream cliff still labels into two perfectly learnable classes.
        assert_eq!(a.result.labeling.num_classes, 2);
        assert_eq!(a.result.search.error, 0.0);
        // Injected outliers show up in the merged simulator counters.
        let sim = a.report.sim.as_ref().expect("sim stats present");
        assert!(sim.faults.outliers > 0, "{:?}", sim.faults);
        assert_eq!(sim.faults.drops, 0);
        // The JSON report carries the resilience block.
        let json = a.report.to_json();
        dr_obs::json::validate(&json).unwrap();
        assert!(json.contains("\"resilience\":{\"evaluations\":"));
        assert!(a.report.render_text().contains("resilience:"));
        // Fault-free runs keep the pre-chaos shape.
        let clean = run_pipeline_instrumented(
            &space,
            &w,
            &platform,
            Strategy::Exhaustive,
            &PipelineConfig::quick(),
        )
        .unwrap();
        assert!(clean.report.resilience.is_none());
        assert!(clean.report.to_json().contains("\"resilience\":null"));
    }

    #[test]
    #[should_panic(expected = "zero records")]
    fn mining_zero_records_panics() {
        let (space, _, _) = setup();
        mine_rules(&space, Vec::new(), &PipelineConfig::quick());
    }

    #[test]
    fn traced_pipeline_records_spans() {
        let (space, w, platform) = setup();
        let cfg = PipelineConfig {
            threads: 2,
            ..PipelineConfig::quick()
        };
        let tracer = Tracer::new();
        let ctx = RunCtx {
            tracer: tracer.clone(),
            ..RunCtx::new(cfg)
        };
        let traced =
            run_pipeline_stored(&space, &w, &platform, Strategy::Exhaustive, &ctx).unwrap();
        // The trace covers the whole pipeline: root, phases, and
        // per-evaluation spans, all closed.
        let snap = tracer.snapshot();
        for name in [
            "pipeline",
            "explore",
            "label",
            "featurize",
            "train",
            "rules",
            "evaluate",
            "worker",
        ] {
            assert!(
                snap.spans.iter().any(|s| s.name == name),
                "missing span {name}"
            );
        }
        assert!(
            snap.spans.iter().all(|s| s.end_s.is_some()),
            "all spans closed"
        );
        // The explore phase is a child of the root pipeline span, and
        // every evaluation counted one span.
        let root = snap.spans.iter().find(|s| s.name == "pipeline").unwrap();
        let explore = snap.spans.iter().find(|s| s.name == "explore").unwrap();
        assert_eq!(explore.parent, Some(root.id));
        let evals = snap.spans.iter().filter(|s| s.name == "evaluate").count();
        assert_eq!(evals, traced.result.records.len());
        // Workers link back to the explore dispatch span.
        assert!(snap.follows.iter().any(|(pred, _)| *pred == explore.id));
        // The Chrome export is valid JSON.
        let chrome = tracer.to_chrome_json(dr_trace::PIPELINE_PID, "dr pipeline");
        dr_obs::json::validate(&chrome).unwrap();
    }

    #[test]
    fn traced_mcts_pipeline_samples_iteration_spans() {
        let (space, w, platform) = setup();
        let strategy = Strategy::Mcts {
            iterations: 8,
            config: dr_mcts::MctsConfig::default(),
        };
        let tracer = Tracer::new();
        let ctx = RunCtx {
            tracer: tracer.clone(),
            ..RunCtx::new(PipelineConfig::quick())
        };
        let run = run_pipeline_stored(&space, &w, &platform, strategy, &ctx).unwrap();
        assert!(!run.result.records.is_empty());
        let snap = tracer.snapshot();
        assert!(
            snap.spans.iter().any(|s| s.name == "mcts-iter"),
            "sampled MCTS iteration spans present"
        );
        assert!(snap.lanes.iter().any(|l| l.starts_with("mcts-")));
    }

    #[test]
    fn watched_pipeline_streams_events() {
        let (space, w, platform) = setup();
        let strategy = Strategy::Mcts {
            iterations: 100,
            config: dr_mcts::MctsConfig::default(),
        };
        let cfg = PipelineConfig {
            threads: 2,
            ..PipelineConfig::quick()
        };
        let buf = dr_obs::SharedBuf::new();
        let sink = EventSink::new("run-test").with_writer(Box::new(buf.clone()));
        let ctx = RunCtx {
            events: Some(sink),
            ..RunCtx::new(cfg)
        };
        let watched = run_pipeline_stored(&space, &w, &platform, strategy, &ctx).unwrap();
        // The report names the same run as the event stream.
        assert_eq!(watched.report.provenance.run_id, "run-test");
        // Every line parses, sequence numbers are a gapless permutation
        // (worker threads may commit lines slightly out of order), and
        // all lifecycle kinds appear.
        let text = buf.contents();
        let mut seqs = Vec::new();
        let mut kinds = std::collections::HashSet::new();
        for line in text.lines() {
            let v = dr_obs::json::parse(line).unwrap();
            assert_eq!(
                v.path(&["schema"]).and_then(|s| s.as_str()),
                Some(dr_obs::EVENTS_SCHEMA)
            );
            assert_eq!(v.path(&["run"]).and_then(|s| s.as_str()), Some("run-test"));
            seqs.push(v.path(&["seq"]).and_then(|s| s.as_u64()).unwrap());
            kinds.insert(
                v.path(&["kind"])
                    .and_then(|k| k.as_str())
                    .unwrap()
                    .to_string(),
            );
        }
        seqs.sort_unstable();
        assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<_>>());
        for k in [
            "run-start",
            "phase-start",
            "phase-end",
            "mcts-iter",
            "eval",
            "worker-start",
            "worker-end",
            "run-end",
        ] {
            assert!(kinds.contains(k), "missing event kind {k}: {kinds:?}");
        }
        // The engine's merged tree statistics are surfaced.
        let tree = watched.report.search.tree.expect("tree stats present");
        assert!(tree.nodes > 0 && tree.rollouts > 0);
        assert!(watched.report.search.exhausted, "budget exhausts the space");
        assert!(watched.report.to_json().contains("\"exhausted\":true"));
    }
}
