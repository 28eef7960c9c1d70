//! Tables V, VI, VII: the design rulesets generated for each performance
//! class at various MCTS iteration budgets, annotated for consistency
//! with the canonical (exhaustive-search) rulesets:
//!
//! * `[extra]`   — overconstrained: a harmless condition the canonical
//!   ruleset does not require (blue in the paper);
//! * `missing:`  — underconstrained: a canonical condition the budgeted
//!   ruleset lacks (red / "insufficient rules" in the paper).

use dr_core::{mine_rules, run_pipeline_instrumented, PipelineConfig, PipelineResult, Strategy};
use dr_mcts::MctsConfig;
use dr_ml::{compare_to_canonical, rulesets_for_class};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sc = dr_bench::scenario();
    let total = sc.space.count_traversals() as usize;
    eprintln!("building the canonical exhaustive dataset ({total} implementations) …");
    let records = dr_bench::exhaustive_records(&sc);
    let canonical = mine_rules(&sc.space, records, &PipelineConfig::default());
    let num_classes = canonical.labeling.num_classes;

    let budgets = [50usize, 100, 200, 400];
    let mut results: Vec<(usize, PipelineResult)> = Vec::new();
    for &budget in &budgets {
        eprintln!("MCTS with {budget} iterations …");
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
        dr_bench::write_artifact(
            &format!("tables_report_{budget}.json"),
            &run.report.to_json(),
        );
        dr_bench::write_artifact(
            &format!("tables_telemetry_{budget}.csv"),
            &run.telemetry.to_csv(),
        );
        results.push((budget, run.result));
    }
    results.push((total, canonical.clone()));

    for class in 0..num_classes {
        println!();
        println!(
            "===== Table {}: rulesets for performance class {} (0 = fastest) =====",
            ["V", "VI", "VII", "VII+"].get(class).unwrap_or(&"?"),
            class + 1
        );
        for (budget, result) in &results {
            println!("--- {budget} iterations ---");
            let sets = rulesets_for_class(&result.rulesets, class);
            if sets.is_empty() {
                println!("  (no ruleset discovered for this class)");
                continue;
            }
            for rs in sets.iter().take(3) {
                let comparison = compare_to_canonical(rs, &canonical.rulesets);
                match comparison {
                    Some(c) if *budget < total => {
                        for r in &c.shared {
                            println!("  {}", r.phrase(&sc.space));
                        }
                        for r in &c.extra {
                            println!("  {}  [extra]", r.phrase(&sc.space));
                        }
                        for r in &c.missing {
                            println!("  missing: {}", r.phrase(&sc.space));
                        }
                    }
                    _ => {
                        for line in dr_ml::render_ruleset(rs, &sc.space) {
                            println!("  {line}");
                        }
                    }
                }
                if !rs.pure {
                    println!("  (impure leaf: insufficient rules)");
                }
                println!("  · samples: {}", rs.samples);
                println!();
            }
        }
    }
    Ok(())
}
