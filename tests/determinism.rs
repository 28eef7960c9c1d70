//! Reproducibility: every stochastic component is seed-deterministic, so
//! the whole pipeline is bit-for-bit repeatable.

mod common;

use cuda_mpi_design_rules::mcts::MctsConfig;
use cuda_mpi_design_rules::pipeline::{run_pipeline, PipelineConfig, Strategy};
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

fn fingerprint(seed: u64) -> (Vec<f64>, Vec<usize>, usize, f64) {
    let sc = SpmvScenario::small(seed);
    let result = run_pipeline(
        &sc.space,
        &sc.workload,
        &sc.platform,
        Strategy::Mcts {
            iterations: 60,
            config: MctsConfig {
                seed,
                ..Default::default()
            },
        },
        &fast_config(),
    )
    .unwrap();
    (
        result.times(),
        result.labeling.labels.clone(),
        result.labeling.num_classes,
        result.search.error,
    )
}

#[test]
fn pipeline_is_bit_for_bit_reproducible() {
    assert_eq!(fingerprint(21), fingerprint(21));
}

#[test]
fn different_seeds_give_different_explorations() {
    let a = fingerprint(21);
    let b = fingerprint(22);
    assert_ne!(a.0, b.0, "different seeds must explore/measure differently");
}

#[test]
fn matrix_generation_is_independent_of_call_order() {
    use cuda_mpi_design_rules::spmv::{banded_matrix, BandedSpec};
    let spec = BandedSpec::small(33);
    let a = banded_matrix(&spec);
    let _unrelated = banded_matrix(&BandedSpec::small(99));
    let b = banded_matrix(&spec);
    assert_eq!(a, b);
}
