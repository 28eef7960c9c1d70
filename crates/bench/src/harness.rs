//! Library form of the benchmark binaries: the `pipeline_bench` and
//! `explore_scaling` measurements as reusable functions, so both the
//! standalone binaries and the `dr-rules <scenario> bench` subcommand
//! run the exact same protocol (and therefore produce entries that are
//! comparable across the committed `BENCH_*.json` histories).
//!
//! Each function renders its progress table to `out`, validates the
//! report JSON, and returns it; callers append it to the matching
//! history with [`crate::append_history`].

use dr_core::{
    explore_parallel, run_pipeline_instrumented, ExploreCtx, ExploreOutput, InstrumentedRun,
    PipelineConfig, Strategy,
};
use dr_mcts::{MctsConfig, SimEvaluator};
use dr_obs::json;
use dr_spmv::SpmvScenario;
use std::io::Write;
use std::time::Instant;

/// MCTS rollout budget used by both benchmarks' search legs.
pub const MCTS_BUDGET: usize = 400;

/// Worker-thread counts swept by the exploration-scaling benchmark.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Builds the benchmark scenario for a scale name (`"small"` or
/// anything else for paper scale).
pub fn scenario_for(scale: &str, seed: u64) -> SpmvScenario {
    match scale {
        "small" => SpmvScenario::small(seed),
        _ => SpmvScenario::paper(seed),
    }
}

type BoxError = Box<dyn std::error::Error>;

/// End-to-end pipeline benchmark: one full explore→label→featurize→
/// train run per search strategy (exhaustive, MCTS, random), per-phase
/// wall-clock times, exploration throughput, under `cfg`'s threads and
/// faults on the quick measurement protocol. Renders a progress table
/// to `out` and returns the validated report JSON (one history entry).
pub fn pipeline_report(
    scale: &str,
    seed: u64,
    cfg: &PipelineConfig,
    out: &mut dyn Write,
) -> Result<String, BoxError> {
    let sc = scenario_for(scale, seed);
    writeln!(out, "== Pipeline phase benchmark ==")?;
    writeln!(out, "space: {} traversals", sc.space.count_traversals())?;

    let legs = [
        ("exhaustive", Strategy::Exhaustive),
        (
            "mcts",
            Strategy::Mcts {
                iterations: MCTS_BUDGET,
                config: MctsConfig {
                    seed,
                    ..Default::default()
                },
            },
        ),
        (
            "random",
            Strategy::Random {
                iterations: MCTS_BUDGET,
                seed,
            },
        ),
    ];

    let mut legs_json: Vec<String> = Vec::new();
    for (name, strategy) in legs {
        // The quick measurement protocol: this benchmark times the
        // pipeline machinery per phase, not the simulated measurements.
        let run = run_pipeline_instrumented(
            &sc.space,
            &sc.workload,
            &sc.platform,
            strategy,
            &PipelineConfig {
                bench: PipelineConfig::quick().bench,
                ..*cfg
            },
        )?;
        let explore_s = run.report.phases.get("explore").unwrap_or(0.0);
        writeln!(
            out,
            "{name:>10}: {} records in {:.3} s explore ({:.1} records/s), total {:.3} s",
            run.result.records.len(),
            explore_s,
            run.result.records.len() as f64 / explore_s.max(f64::MIN_POSITIVE),
            run.report.phases.total()
        )?;
        write!(out, "{}", run.report.phases.render_text())?;
        legs_json.push(pipeline_leg_json(&run, name));
    }

    let report = format!(
        "{{\"scenario\": \"{}\", \"seed\": {seed}, \"mcts_budget\": {MCTS_BUDGET}, \
         \"space_traversals\": {}, \"legs\": [{}]}}",
        json::escape(scale),
        sc.space.count_traversals(),
        legs_json.join(", ")
    );
    json::validate(&report)?;
    Ok(report)
}

fn pipeline_leg_json(run: &InstrumentedRun, strategy: &str) -> String {
    let explore_s = run.report.phases.get("explore").unwrap_or(0.0);
    let records = run.result.records.len();
    let throughput = if explore_s > 0.0 {
        records as f64 / explore_s
    } else {
        0.0
    };
    format!(
        "{{\"strategy\": \"{}\", \"threads\": {}, \"records\": {records}, \
         \"records_per_sec\": {}, \"total_s\": {}, \"phases\": {}}}",
        json::escape(strategy),
        run.threads,
        json::number(throughput),
        json::number(run.report.phases.total()),
        run.report.phases.to_json()
    )
}

struct ScalingLeg {
    strategy: &'static str,
    threads: usize,
    wall_s: f64,
    samples: usize,
    cache_hits: u64,
    cache_misses: u64,
}

fn scaling_leg(
    sc: &SpmvScenario,
    strategy: Strategy,
    threads: usize,
) -> Result<(ScalingLeg, ExploreOutput), dr_sim::SimError> {
    let start = Instant::now();
    // The quick measurement protocol: this benchmark times the engine
    // (queueing, caching, merging), not the measurements themselves, and
    // the full protocol would only scale every leg by a constant.
    let cfg = dr_sim::BenchConfig::quick();
    let out = explore_parallel(
        &sc.space,
        || SimEvaluator::new(&sc.space, &sc.workload, &sc.platform, cfg),
        strategy,
        &ExploreCtx::new(threads),
    )?;
    let wall_s = start.elapsed().as_secs_f64();
    let leg = ScalingLeg {
        strategy: strategy.name(),
        threads,
        wall_s,
        samples: out.records.len(),
        cache_hits: out.cache.hits,
        cache_misses: out.cache.misses,
    };
    Ok((leg, out))
}

fn record_set(out: &ExploreOutput) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = out
        .records
        .iter()
        .map(|r| (r.traversal.canonical_hash(), r.result.time().to_bits()))
        .collect();
    v.sort_unstable();
    v
}

/// Thread-scaling benchmark of the parallel exploration engine:
/// exhaustive sweeps at 1/2/4/8 worker threads plus a 4-thread MCTS
/// leg, verifying every leg reproduces the serial record set.
/// Renders a progress table to `out` and returns the validated report
/// JSON (one history entry).
pub fn explore_report(scale: &str, seed: u64, out: &mut dyn Write) -> Result<String, BoxError> {
    let sc = scenario_for(scale, seed);
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    writeln!(out, "== Parallel exploration scaling ==")?;
    writeln!(
        out,
        "space: {} traversals; host parallelism: {available}",
        sc.space.count_traversals()
    )?;

    let mut legs: Vec<ScalingLeg> = Vec::new();
    let mut serial_wall = f64::NAN;
    let mut serial_set: Vec<(u64, u64)> = Vec::new();
    writeln!(
        out,
        "{:>10}  {:>7}  {:>9}  {:>11}  {:>7}  {:>10}",
        "strategy", "threads", "wall [s]", "samples/s", "speedup", "cache h/m"
    )?;
    for &threads in &THREAD_COUNTS {
        let (leg, exp) = scaling_leg(&sc, Strategy::Exhaustive, threads)?;
        if threads == 1 {
            serial_wall = leg.wall_s;
            serial_set = record_set(&exp);
        } else if record_set(&exp) != serial_set {
            return Err("parallel exhaustive diverged from the serial record set".into());
        }
        writeln!(
            out,
            "{:>10}  {:>7}  {:>9.3}  {:>11.1}  {:>6.2}x  {:>4}/{:<5}",
            leg.strategy,
            leg.threads,
            leg.wall_s,
            leg.samples as f64 / leg.wall_s,
            serial_wall / leg.wall_s,
            leg.cache_hits,
            leg.cache_misses
        )?;
        legs.push(leg);
    }

    // 4-thread MCTS leg: its "cache" counters are the tree's repeat
    // accounting, so the hit rate is the share of rollouts that landed on
    // an already-measured traversal (and were not re-simulated).
    let mcts = Strategy::Mcts {
        iterations: MCTS_BUDGET,
        config: MctsConfig {
            seed,
            ..Default::default()
        },
    };
    let (mcts_leg, mcts_out) = scaling_leg(&sc, mcts, 4)?;
    writeln!(
        out,
        "{:>10}  {:>7}  {:>9.3}  {:>11.1}  {:>7}  {:>4}/{:<5}",
        "mcts",
        mcts_leg.threads,
        mcts_leg.wall_s,
        mcts_leg.samples as f64 / mcts_leg.wall_s,
        "-",
        mcts_leg.cache_hits,
        mcts_leg.cache_misses
    )?;
    writeln!(
        out,
        "mcts cache hit rate: {:.1}% over {} evaluation requests",
        mcts_out.cache.hit_rate() * 100.0,
        mcts_out.cache.hits + mcts_out.cache.misses
    )?;

    let mut legs_json: Vec<String> = legs
        .iter()
        .map(|l| scaling_leg_json(l, serial_wall / l.wall_s))
        .collect();
    legs_json.push(scaling_leg_json(&mcts_leg, f64::NAN));
    let report = format!(
        "{{\"scenario\": \"{}\", \"seed\": {seed}, \"available_parallelism\": {available}, \
         \"space_traversals\": {}, \"mcts_budget\": {MCTS_BUDGET}, \
         \"mcts_cache_hit_rate\": {}, \"legs\": [{}]}}",
        json::escape(scale),
        sc.space.count_traversals(),
        json::number(mcts_out.cache.hit_rate()),
        legs_json.join(", ")
    );
    json::validate(&report)?;
    Ok(report)
}

fn scaling_leg_json(l: &ScalingLeg, speedup: f64) -> String {
    format!(
        "{{\"strategy\": \"{}\", \"threads\": {}, \"wall_s\": {}, \"samples\": {}, \
         \"samples_per_sec\": {}, \"speedup_vs_serial\": {}, \
         \"cache_hits\": {}, \"cache_misses\": {}}}",
        json::escape(l.strategy),
        l.threads,
        json::number(l.wall_s),
        l.samples,
        json::number(l.samples as f64 / l.wall_s),
        if speedup.is_nan() {
            "null".to_string()
        } else {
            json::number(speedup)
        },
        l.cache_hits,
        l.cache_misses
    )
}
