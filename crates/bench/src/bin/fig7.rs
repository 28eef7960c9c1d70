//! Figure 7: effect of MCTS iterations on labeling accuracy. Rules are
//! mined from a budgeted MCTS exploration, every implementation in the
//! space is classified with them, and the accuracy is the proportion
//! whose exhaustively-measured time falls inside the predicted class's
//! performance range.

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

    println!("== Figure 7: MCTS iterations vs labeling accuracy ==");
    println!(
        "{:>10}  {:>9}  {:>8}  {:>8}",
        "iterations", "explored", "classes", "accuracy"
    );
    let budgets = [50usize, 100, 200, 400, 800, total];
    for &budget in &budgets {
        let result = if budget >= total {
            mine_rules(&sc.space, records.clone(), &PipelineConfig::default())
        } else {
            let strategy = Strategy::Mcts {
                iterations: budget,
                config: MctsConfig {
                    seed: dr_bench::seed(),
                    ..Default::default()
                },
            };
            let run = run_pipeline_instrumented(
                &sc.space,
                &sc.workload,
                &sc.platform,
                strategy,
                &PipelineConfig::default(),
            )?;
            dr_bench::write_artifact(&format!("fig7_report_{budget}.json"), &run.report.to_json());
            dr_bench::write_artifact(
                &format!("fig7_telemetry_{budget}.csv"),
                &run.telemetry.to_csv(),
            );
            run.result
        };
        let report = labeling_accuracy(&sc.space, &result, &ground_truth, 0.02);
        println!(
            "{:>10}  {:>9}  {:>8}  {:>7.1}%",
            budget,
            result.records.len(),
            result.labeling.num_classes,
            report.accuracy() * 100.0
        );
    }
    println!();
    println!("(paper: accuracy approaches ~100% by 200 iterations on its space)");
    Ok(())
}
