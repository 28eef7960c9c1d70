//! Integration tests for the halo-exchange workload: numeric correctness
//! of the scheduled algorithm plus end-to-end rule mining on a space far
//! too large to enumerate.

mod common;

use cuda_mpi_design_rules::halo::{jacobi_step, DistributedGrid, Grid3, HaloScenario, RankGrid};
use cuda_mpi_design_rules::mcts::MctsConfig;
use cuda_mpi_design_rules::pipeline::{run_pipeline, PipelineConfig, Strategy};
use cuda_mpi_design_rules::sim::BenchConfig;

fn fast_config() -> PipelineConfig {
    PipelineConfig {
        bench: BenchConfig {
            t_measure: 1e-4,
            num_measurements: 2,
            max_samples: 2,
        },
        ..common::env_config()
    }
}

#[test]
fn distributed_jacobi_is_exact_on_asymmetric_topologies() {
    let g = Grid3::from_fn([12, 6, 4], |x, y, z| ((x + 2 * y + 3 * z) % 7) as f64 - 3.0);
    let mut serial = g.clone();
    let mut d = DistributedGrid::from_global(&g, RankGrid::new([4, 3, 2]));
    for _ in 0..3 {
        serial = jacobi_step(&serial);
        d.exchange_ghosts();
        d.jacobi_step();
    }
    let got = d.gather();
    for (i, (a, b)) in got.data.iter().zip(&serial.data).enumerate() {
        assert!((a - b).abs() < 1e-12, "cell {i}: {a} vs {b}");
    }
}

#[test]
fn halo_space_is_searchable_but_not_enumerable() {
    let sc = HaloScenario::cube2(1);
    assert!(sc.space.count_traversals() > 1_000_000_000_000u128);
    assert!(sc.space.num_ops() <= 64);
}

#[test]
fn mcts_mines_rules_on_the_halo_space() {
    let sc = HaloScenario::cube2(3);
    let result = run_pipeline(
        &sc.space,
        &sc.workload,
        &sc.platform,
        Strategy::Mcts {
            iterations: 120,
            config: MctsConfig {
                seed: 3,
                ..Default::default()
            },
        },
        &fast_config(),
    )
    .unwrap();
    assert!(result.records.len() > 50);
    assert!(result.labeling.num_classes >= 2);
    assert!(!result.rulesets.is_empty());
    // Interior-kernel placement should matter: at least one rule should
    // mention Interior (ordering or stream).
    let interior = sc.space.op_by_name("Interior").unwrap();
    let mentions_interior = result
        .rulesets
        .iter()
        .flat_map(|rs| &rs.rules)
        .any(|r| match r.kind {
            cuda_mpi_design_rules::ml::FeatureKind::Before(u, v) => u == interior || v == interior,
            cuda_mpi_design_rules::ml::FeatureKind::SameStream(u, v) => {
                u == interior || v == interior
            }
        });
    assert!(mentions_interior, "rules: {:?}", result.rulesets.len());
}

#[test]
fn one_dimensional_halo_pipeline_runs_exhaustively_sampled() {
    // The 1D variant has an enumerable space; run the pipeline on a
    // random subset for speed and sanity-check the outputs.
    let sc = HaloScenario::line2(5);
    let result = run_pipeline(
        &sc.space,
        &sc.workload,
        &sc.platform,
        Strategy::Random {
            iterations: 80,
            seed: 5,
        },
        &fast_config(),
    )
    .unwrap();
    assert!(!result.records.is_empty());
    for rs in &result.rulesets {
        assert!(rs.class < result.labeling.num_classes);
    }
}

/// Runs one `dr-rules` command line, independent of the process's
/// `DR_*` variables, and returns its output.
fn dr_rules(line: &str) -> Result<String, String> {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    let opts = cuda_mpi_design_rules::cli::parse(&args)?;
    let mut out = Vec::new();
    cuda_mpi_design_rules::cli::run(&opts, &mut out)?;
    Ok(String::from_utf8(out).expect("utf-8 output"))
}

#[test]
fn halo_rules_synthesize_and_certify() {
    // Seed 5's fastest-class ruleset implies a "different stream" pair
    // that no single rule names.
    let s = dr_rules("halo synthesize --iterations 300 --seed 5").unwrap();
    assert!(s.contains("synthesized implementation"), "{s}");
    let s = dr_rules("halo verify-rules --iterations 300 --seed 0 --max-schedules 64").unwrap();
    assert!(s.starts_with("certifying "), "{s}");
}
