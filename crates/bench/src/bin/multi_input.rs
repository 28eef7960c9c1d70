//! Multi-input rule generalization (paper future work §VI): explore three
//! banded matrices with different bandwidths — which shifts the
//! local/remote balance and the message sizes — and train one decision
//! tree whose feature vectors include *input features*. The harness
//! reports whether the tree actually needs them.

use dr_core::{explore, mine_rules_multi, InputFeature, InputRun, PipelineConfig, Strategy};
use dr_mcts::{MctsConfig, SimEvaluator};
use dr_sim::BenchConfig;
use dr_spmv::{banded_matrix, BandedSpec, DistributedSpmv, GpuModel, SpmvDagConfig, SpmvScenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = dr_bench::seed();
    let small = dr_bench::scale() == "small";
    let base = if small {
        BandedSpec::small(seed)
    } else {
        BandedSpec::paper(seed)
    };
    let iterations = 400;

    // Three inputs: narrow, paper, and wide band.
    let variants = [
        ("bandwidth n/16", base.bandwidth / 4),
        ("bandwidth n/4 (paper)", base.bandwidth),
        ("bandwidth n/2", base.bandwidth * 2),
    ];

    let mut runs = Vec::new();
    let mut reference_space = None;
    for (tag, bandwidth) in variants {
        eprintln!("exploring {tag} …");
        let spec = BandedSpec { bandwidth, ..base };
        let sc = SpmvScenario::build(
            &spec,
            4,
            2,
            &SpmvDagConfig::default(),
            &GpuModel::default(),
            dr_sim::Platform::perlmutter_like(),
        );
        // Input features from the decomposition's real statistics.
        let a = banded_matrix(&spec);
        let dist = DistributedSpmv::new(&a, 4);
        let interior = &dist.ranks[1];
        let remote_dominant = interior.a_r.nnz() > interior.a_l.nnz();
        let max_msg = interior
            .send_lists
            .iter()
            .map(|(_, l)| l.len() as u64 * 8)
            .max()
            .unwrap_or(0);
        let eager = max_msg <= sc.platform.eager_threshold;
        let eval = SimEvaluator::new(
            &sc.space,
            &sc.workload,
            &sc.platform,
            BenchConfig::default(),
        );
        let records = explore(
            &sc.space,
            eval,
            Strategy::Mcts {
                iterations,
                config: MctsConfig {
                    seed,
                    ..Default::default()
                },
            },
        )?;
        runs.push(InputRun {
            tag: tag.to_string(),
            records,
            input_features: vec![
                InputFeature {
                    name: "remote-dominant".into(),
                    value: remote_dominant,
                },
                InputFeature {
                    name: "messages-eager".into(),
                    value: eager,
                },
            ],
        });
        reference_space.get_or_insert(sc.space);
    }
    let space = reference_space.ok_or("no inputs were explored")?;

    let result = mine_rules_multi(&space, &runs, &PipelineConfig::default());
    println!("== Multi-input rule generalization ==");
    for (run, labeling) in runs.iter().zip(&result.labelings) {
        println!(
            "  {:<24} {} records, {} classes, input features: {:?}",
            run.tag,
            run.records.len(),
            labeling.num_classes,
            run.input_features
                .iter()
                .map(|f| (f.name.as_str(), f.value))
                .collect::<Vec<_>>()
        );
    }
    println!();
    println!(
        "pooled tree: {} leaves, depth {}, training error {:.4}",
        result.search.tree.num_leaves(),
        result.search.tree.depth(),
        result.search.error
    );
    let used = result.used_input_features();
    if used.is_empty() {
        println!("input features unused: one ruleset fits all three inputs");
    } else {
        println!("input features the tree splits on: {used:?}");
        println!("(the rules are input-conditional, as the paper anticipated)");
    }
    Ok(())
}
