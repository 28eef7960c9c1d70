//! MCTS exploitation-policy ablation (paper Section VI): the paper's
//! coverage-range exploitation against classic minimizing UCT and pure
//! exploration, at equal rollout budgets. Coverage-range is designed to
//! map the *landscape* (good labels → good rules), while MeanTime is
//! designed to find a single *optimum* — this harness quantifies the
//! difference on both axes.

use dr_core::{labeling_accuracy, mine_rules, run_pipeline, PipelineConfig, Strategy};
use dr_mcts::{Exploitation, MctsConfig};

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
    let true_fastest = canonical.labeling.class_ranges[0].0;

    let policies = [
        ("coverage (paper)", Exploitation::CoverageRange),
        ("mean-time (UCT)", Exploitation::MeanTime),
        ("constant", Exploitation::Constant),
    ];
    println!("== Ablation: exploitation policy ==");
    println!(
        "{:>8}  {:<18} {:>9} {:>10} {:>12}",
        "budget", "policy", "accuracy", "best (µs)", "gap to opt"
    );
    for budget in [100usize, 200, 400] {
        for (name, policy) in policies {
            let result = run_pipeline(
                &sc.space,
                &sc.workload,
                &sc.platform,
                Strategy::Mcts {
                    iterations: budget,
                    config: MctsConfig {
                        exploitation: policy,
                        seed: dr_bench::seed(),
                        ..Default::default()
                    },
                },
                &PipelineConfig::default(),
            )?;
            let report = labeling_accuracy(&sc.space, &result, &ground_truth, 0.02);
            let best = result.times().into_iter().fold(f64::INFINITY, f64::min);
            println!(
                "{:>8}  {:<18} {:>8.1}% {:>10.2} {:>11.1}%",
                budget,
                name,
                report.accuracy() * 100.0,
                best * 1e6,
                (best / true_fastest - 1.0) * 100.0
            );
        }
        println!();
    }
    Ok(())
}
