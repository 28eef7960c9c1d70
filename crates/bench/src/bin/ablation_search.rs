//! Search-strategy ablation (paper Section VI future work): MCTS versus
//! uniform random sampling at equal rollout budgets, scored by Fig.-7
//! labeling accuracy and by coverage of the fastest class.

use dr_core::{labeling_accuracy, mine_rules, run_pipeline_instrumented, PipelineConfig, Strategy};
use dr_mcts::MctsConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sc = dr_bench::scenario();
    let total = sc.space.count_traversals() as usize;
    eprintln!("building the exhaustive ground truth ({total} implementations) …");
    let records = dr_bench::exhaustive_records(&sc);
    let ground_truth: Vec<_> = records
        .iter()
        .map(|r| (r.traversal.clone(), r.result.time()))
        .collect();
    let canonical = mine_rules(&sc.space, records, &PipelineConfig::default());
    let fastest_hi = canonical.labeling.class_ranges[0].1;

    println!("== Ablation: MCTS vs uniform random sampling ==");
    println!(
        "{:>10}  {:>18}  {:>18}",
        "budget", "mcts acc/expl/fast", "random acc/expl/fast"
    );
    for budget in [50usize, 100, 200, 400, 800] {
        let mut row = format!("{budget:>10}");
        for strategy in [
            Strategy::Mcts {
                iterations: budget,
                config: MctsConfig {
                    seed: dr_bench::seed(),
                    ..Default::default()
                },
            },
            Strategy::Random {
                iterations: budget,
                seed: dr_bench::seed(),
            },
        ] {
            let run = run_pipeline_instrumented(
                &sc.space,
                &sc.workload,
                &sc.platform,
                strategy,
                &PipelineConfig::default(),
            )?;
            // The per-iteration telemetry is the convergence curve
            // (best_time vs iteration) used by EXPERIMENTS.md.
            dr_bench::write_artifact(
                &format!("ablation_{}_{budget}.csv", strategy.name()),
                &run.telemetry.to_csv(),
            );
            let result = run.result;
            let report = labeling_accuracy(&sc.space, &result, &ground_truth, 0.02);
            // How many implementations of the true fastest class did the
            // strategy actually visit?
            let fast_seen = result
                .records
                .iter()
                .filter(|r| r.result.time() <= fastest_hi * 1.001)
                .count();
            row.push_str(&format!(
                "  {:>6.1}% {:>4} {:>4}",
                report.accuracy() * 100.0,
                result.records.len(),
                fast_seen
            ));
        }
        println!("{row}");
    }
    println!();
    println!("acc = Fig.-7 labeling accuracy; expl = distinct implementations");
    println!("explored; fast = explored implementations in the true fastest class");
    Ok(())
}
