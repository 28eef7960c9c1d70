//! Shared helpers for the integration tests: proptest generators, and
//! the pipeline configuration the process environment selects. Each
//! test binary uses a different subset.
#![allow(dead_code)]

use cuda_mpi_design_rules::config::{resolve, Env};
use cuda_mpi_design_rules::dag::{CommKey, CostKey, DagBuilder, DecisionSpace, OpSpec, ProgramDag};
use cuda_mpi_design_rules::lint::CommTopology;
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

/// A random space whose DAG mixes GPU kernels with MPI ops over 1–3
/// comm keys `k0..k2`, paired with a random topology of 2–4 ranks, and
/// filtered to spaces small enough to enumerate.
///
/// A key gets an `AllReduce` or point-to-point ops: half the time the
/// whole exchange, a quarter both posts with some of the waits, a
/// quarter any subset (which may wait on a post that never happens).
/// A key's ops join the DAG while it holds at most six ops. Random
/// forward edges over a shuffled vertex order leave some orders waiting
/// before their own post. A point-to-point key's pattern is mostly
/// all-to-all or a ring, and sometimes asymmetric (rank 0 receives
/// nothing) or missing; a collective key's is mostly a valid
/// collective. Messages are eager (512 B) or rendezvous (1 MiB) against
/// a 1024 B threshold, and one in six topologies loses the message
/// `k0: 0 -> 1`.
pub fn arb_comm_space(
    max_traversals: u128,
) -> impl Strategy<Value = (DecisionSpace, CommTopology)> {
    (
        1usize..=3,
        2usize..=4,
        1usize..=2,
        proptest::collection::vec(any::<u32>(), 64),
    )
        .prop_map(|(keys, ranks, streams, draws)| {
            let mut draws = draws.into_iter();
            let mut pick = |n: u32| draws.next().expect("enough draws") % n;

            let mut topo = CommTopology::new(ranks).with_eager_threshold(1024);
            let mut specs = Vec::new();
            for k in 0..keys {
                let key = CommKey::new(format!("k{k}"));
                let bytes = if pick(2) == 0 { 512 } else { 1 << 20 };
                if pick(4) == 0 {
                    if pick(5) == 0 {
                        topo.all_to_all(key.clone(), bytes);
                    } else {
                        topo.collective(key.clone(), 8);
                    }
                    if specs.len() < 6 {
                        specs.push(OpSpec::AllReduce(key));
                    }
                    continue;
                }
                match pick(8) {
                    0..=3 => {
                        topo.all_to_all(key.clone(), bytes);
                    }
                    4 | 5 => {
                        for r in 0..ranks {
                            let next = (r + 1) % ranks;
                            let prev = (r + ranks - 1) % ranks;
                            topo.set(key.clone(), r, vec![(next, bytes)], vec![(prev, bytes)]);
                        }
                    }
                    6 => {
                        topo.all_to_all(key.clone(), bytes);
                        let sends = topo.pattern(&key).expect("just set")[0].sends.clone();
                        topo.set(key.clone(), 0, sends, vec![]);
                    }
                    _ => {} // no pattern for the key
                }
                // Bits: PostSends, PostRecvs, WaitSends, WaitRecvs.
                let mask = match pick(4) {
                    0 | 1 => 0b1111,
                    2 => 0b0011 | pick(4) << 2,
                    _ => 1 + pick(15),
                };
                let p2p = [
                    OpSpec::PostSends(key.clone()),
                    OpSpec::PostRecvs(key.clone()),
                    OpSpec::WaitSends(key.clone()),
                    OpSpec::WaitRecvs(key),
                ];
                if specs.len() + mask.count_ones() as usize <= 6 {
                    specs.extend(
                        p2p.into_iter()
                            .enumerate()
                            .filter(|&(bit, _)| mask >> bit & 1 == 1)
                            .map(|(_, spec)| spec),
                    );
                }
            }
            if pick(6) == 0 {
                topo.add_lost_send(CommKey::new("k0"), 0, 1);
            }
            for g in 0..pick(3) {
                if specs.len() < 6 {
                    specs.push(OpSpec::GpuKernel(CostKey::new(format!("g{g}"))));
                }
            }
            for i in (1..specs.len()).rev() {
                specs.swap(i, pick(i as u32 + 1) as usize);
            }

            let mut b = DagBuilder::new();
            let ids: Vec<_> = specs
                .into_iter()
                .enumerate()
                .map(|(i, spec)| b.add(format!("v{i}"), spec))
                .collect();
            for i in 0..ids.len() {
                for j in i + 1..ids.len() {
                    if pick(3) == 0 {
                        b.edge(ids[i], ids[j]);
                    }
                }
            }
            let dag = b.build().expect("forward edges are always acyclic");
            let space = DecisionSpace::new(dag, streams).expect("few ops");
            (space, topo)
        })
        .prop_filter("space must be enumerable", move |(sp, _)| {
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
