//! Shared helpers for the integration tests: proptest generators, and
//! the pipeline configuration the process environment selects. Each
//! test binary uses a different subset.
#![allow(dead_code)]

use cuda_mpi_design_rules::config::{resolve, Env};
use cuda_mpi_design_rules::dag::{CostKey, DagBuilder, DecisionSpace, OpSpec, ProgramDag};
use cuda_mpi_design_rules::mcts::MctsConfig;
use cuda_mpi_design_rules::pipeline::{self, PipelineConfig};
use cuda_mpi_design_rules::sim::{SimStats, TableWorkload};
use proptest::prelude::*;

/// The pipeline configuration this process's `DR_*` variables select
/// (`DR_THREADS`, `DR_FAULTS`, `DR_RETRY_*`, ...), resolved by the CLI's
/// own resolver. This is how CI's thread and chaos legs reach the
/// in-process tests that opt in.
///
/// # Panics
/// When a `DR_*` variable is malformed.
#[allow(
    clippy::disallowed_methods,
    reason = "CI's thread and chaos legs set DR_*"
)]
pub fn env_config() -> PipelineConfig {
    let env: Env = std::env::vars().collect();
    resolve(&env, None, None)
        .unwrap_or_else(|e| panic!("{e}"))
        .pipeline
}

/// A random DAG of up to `max_n` CPU/GPU compute vertices. Edges only go
/// from lower to higher vertex ids, so the graph is acyclic by
/// construction; the builder adds Start/End.
pub fn arb_dag(max_n: usize) -> impl Strategy<Value = ProgramDag> {
    (2..=max_n)
        .prop_flat_map(|n| {
            let kinds = proptest::collection::vec(any::<bool>(), n);
            let edges = proptest::collection::vec(any::<bool>(), n * (n - 1) / 2);
            (Just(n), kinds, edges)
        })
        .prop_map(|(n, kinds, edges)| {
            let mut b = DagBuilder::new();
            let ids: Vec<_> = (0..n)
                .map(|i| {
                    let name = format!("v{i}");
                    let key = CostKey::new(name.clone());
                    if kinds[i] {
                        b.add(name, OpSpec::GpuKernel(key))
                    } else {
                        b.add(name, OpSpec::CpuWork(key))
                    }
                })
                .collect();
            let mut e = 0;
            for i in 0..n {
                for j in i + 1..n {
                    if edges[e] {
                        b.edge(ids[i], ids[j]);
                    }
                    e += 1;
                }
            }
            b.build().expect("forward edges are always acyclic")
        })
}

/// A random decision space over a random DAG with 1–3 streams, filtered
/// to spaces small enough to enumerate.
pub fn arb_small_space(max_n: usize, max_traversals: u128) -> impl Strategy<Value = DecisionSpace> {
    (arb_dag(max_n), 1usize..=3)
        .prop_map(|(dag, streams)| DecisionSpace::new(dag, streams).expect("few ops"))
        .prop_filter("space must be enumerable", move |sp| {
            sp.count_traversals() <= max_traversals
        })
}

/// Per-op costs for a generated space.
pub fn workload_for(space: &DecisionSpace) -> TableWorkload {
    let mut w = TableWorkload::new(1);
    for (i, op) in space.ops().iter().enumerate() {
        w.cost_all(op.name.clone(), 1e-5 * (i as f64 + 1.0));
    }
    w
}

/// One strategy of each kind for a generated space: exhaustive, random,
/// and MCTS with a budget that exhausts the space.
pub fn strategies(seed: u64, space: &DecisionSpace) -> [pipeline::Strategy; 3] {
    [
        pipeline::Strategy::Exhaustive,
        pipeline::Strategy::Random {
            iterations: 40,
            seed,
        },
        pipeline::Strategy::Mcts {
            iterations: 20 * space.count_traversals() as usize + 100,
            config: MctsConfig {
                seed,
                ..Default::default()
            },
        },
    ]
}

/// The simulator's `u64` counters (floating-point sums may differ in the
/// last bits with summation order).
pub fn sim_counters(s: &SimStats) -> [u64; 6] {
    [
        s.runs,
        s.instructions,
        s.eager_msgs,
        s.rendezvous_msgs,
        s.bytes_moved,
        s.collective_ops,
    ]
}
