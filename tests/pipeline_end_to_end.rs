//! End-to-end integration: the full Fig.-2 pipeline on the SpMV
//! demonstration workload, spanning every crate in the workspace.

mod common;

use cuda_mpi_design_rules::mcts::MctsConfig;
use cuda_mpi_design_rules::ml::FeatureKind;
use cuda_mpi_design_rules::pipeline::{labeling_accuracy, run_pipeline, PipelineConfig, Strategy};
use cuda_mpi_design_rules::sim::BenchConfig;
use cuda_mpi_design_rules::spmv::SpmvScenario;

fn fast_config() -> PipelineConfig {
    PipelineConfig {
        bench: BenchConfig {
            t_measure: 1e-4,
            num_measurements: 3,
            max_samples: 3,
        },
        ..common::env_config()
    }
}

#[test]
fn spmv_space_is_paper_scale() {
    let sc = SpmvScenario::small(1);
    let count = sc.space.count_traversals();
    assert_eq!(count, 1600, "documented demonstration space size");
}

#[test]
fn mcts_pipeline_discovers_multiple_classes_and_learns_them() {
    let sc = SpmvScenario::small(3);
    let result = run_pipeline(
        &sc.space,
        &sc.workload,
        &sc.platform,
        Strategy::Mcts {
            iterations: 250,
            config: MctsConfig {
                seed: 3,
                ..Default::default()
            },
        },
        &fast_config(),
    )
    .unwrap();
    assert!(
        result.labeling.num_classes >= 2,
        "the SpMV landscape is multi-modal"
    );
    assert!(
        result.search.error < 0.05,
        "orderings/streams explain the classes: err {}",
        result.search.error
    );
    // The rules must reference both ordering and stream features.
    let kinds: Vec<FeatureKind> = result
        .rulesets
        .iter()
        .flat_map(|rs| rs.rules.iter().map(|r| r.kind))
        .collect();
    assert!(kinds.iter().any(|k| matches!(k, FeatureKind::Before(_, _))));
    assert!(kinds
        .iter()
        .any(|k| matches!(k, FeatureKind::SameStream(_, _))));
}

#[test]
fn subset_rules_classify_their_own_records_perfectly() {
    let sc = SpmvScenario::small(5);
    let result = run_pipeline(
        &sc.space,
        &sc.workload,
        &sc.platform,
        Strategy::Mcts {
            iterations: 120,
            config: MctsConfig {
                seed: 5,
                ..Default::default()
            },
        },
        &fast_config(),
    )
    .unwrap();
    if result.search.error == 0.0 {
        let truth: Vec<_> = result
            .records
            .iter()
            .map(|r| (r.traversal.clone(), r.result.time()))
            .collect();
        let report = labeling_accuracy(&sc.space, &result, &truth, 0.0);
        assert_eq!(report.accuracy(), 1.0);
    }
}

#[test]
fn more_iterations_never_reduce_explored_count() {
    let sc = SpmvScenario::small(9);
    let mut prev = 0usize;
    for iters in [20usize, 60, 120] {
        let result = run_pipeline(
            &sc.space,
            &sc.workload,
            &sc.platform,
            Strategy::Mcts {
                iterations: iters,
                config: MctsConfig {
                    seed: 9,
                    ..Default::default()
                },
            },
            &fast_config(),
        )
        .unwrap();
        assert!(result.records.len() >= prev);
        assert!(result.records.len() <= iters);
        prev = result.records.len();
    }
}

#[test]
fn random_strategy_also_supports_the_pipeline() {
    let sc = SpmvScenario::small(13);
    let result = run_pipeline(
        &sc.space,
        &sc.workload,
        &sc.platform,
        Strategy::Random {
            iterations: 100,
            seed: 13,
        },
        &fast_config(),
    )
    .unwrap();
    assert!(!result.records.is_empty());
    assert!(!result.rulesets.is_empty());
    // Every ruleset's class is a valid label.
    for rs in &result.rulesets {
        assert!(rs.class < result.labeling.num_classes);
    }
}

#[test]
fn fastest_class_rules_actually_produce_fast_implementations() {
    // Mine rules, then check them *forward*: traversals satisfying the
    // fastest class's dominant ruleset must benchmark inside (or near)
    // that class's range — the paper's intended use of the rules.
    let sc = SpmvScenario::small(17);
    let result = run_pipeline(
        &sc.space,
        &sc.workload,
        &sc.platform,
        Strategy::Mcts {
            iterations: 300,
            config: MctsConfig {
                seed: 17,
                ..Default::default()
            },
        },
        &fast_config(),
    )
    .unwrap();
    if result.search.error > 0.0 {
        return; // tree imperfect; forward guarantee does not apply
    }
    let (_, hi) = result.labeling.class_ranges[0];
    let all: Vec<_> = sc.space.enumerate().collect();
    let mut checked = 0;
    // Step must be coprime-ish with the space layout and small enough that
    // the sweep hits class-0 members regardless of the rng stream.
    for t in all.iter().step_by(7) {
        if result.classify(&sc.space, t) == 0 {
            let time = sc.benchmark(t, &fast_config().bench, 1234).unwrap().time();
            assert!(
                time <= hi * 1.10,
                "claimed-fast implementation measured {time}, class-0 max {hi}"
            );
            checked += 1;
        }
    }
    assert!(
        checked > 0,
        "the sweep must hit at least one fast implementation"
    );
}

#[test]
fn synthesized_implementations_obey_their_rulesets() {
    use cuda_mpi_design_rules::ml::rulesets_for_class;
    use cuda_mpi_design_rules::pipeline::{satisfies, synthesize};
    let sc = SpmvScenario::small(23);
    let result = run_pipeline(
        &sc.space,
        &sc.workload,
        &sc.platform,
        Strategy::Mcts {
            iterations: 150,
            config: MctsConfig {
                seed: 23,
                ..Default::default()
            },
        },
        &fast_config(),
    )
    .unwrap();
    for class in 0..result.labeling.num_classes {
        for rs in rulesets_for_class(&result.rulesets, class).iter().take(2) {
            let t = synthesize(&sc.space, &rs.rules)
                .expect("rules mined from real traversals are satisfiable");
            assert!(satisfies(&sc.space, &t, &rs.rules));
            sc.space.validate(&t).unwrap();
            // The learned tree classifies the synthesized implementation
            // into the ruleset's class (the path conditions pin it down,
            // provided the synthesized vector matches the leaf).
            if rs.pure && result.search.error == 0.0 {
                assert_eq!(result.classify(&sc.space, &t), class);
            }
        }
    }
}
