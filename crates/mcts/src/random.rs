//! Uniform random-sampling search baseline.
//!
//! The paper's future work (Section VI) calls for comparing the MCTS
//! strategy against a search that randomly samples the design space; this
//! module provides that baseline for the ablation benchmark. Traversals
//! are generated by picking uniformly among eligible placements at each
//! step (uniform over *decisions*, the natural memoryless sampler — not
//! exactly uniform over complete traversals), deduplicated, and
//! benchmarked with the same protocol as MCTS rollouts.

use crate::eval::Evaluator;
use crate::telemetry::{SearchTelemetry, TelemetryRow};
use crate::tree::ExploredRecord;
use dr_dag::{eval_seed, DecisionSpace, Traversal};
use dr_sim::SimError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// The `iter`-th rollout of a random search seeded `seed`: a pure
/// function of `(space, seed, iter)`, independent of every other
/// iteration. This independence is what lets the parallel exploration
/// engine partition iterations across workers arbitrarily while
/// producing the identical traversal sequence — and it is why the rng is
/// re-derived per iteration instead of threading one stream through the
/// loop.
pub fn random_rollout(space: &DecisionSpace, seed: u64, iter: u64) -> Traversal {
    let mut rng = SmallRng::seed_from_u64(
        seed.wrapping_add(0x9E37_79B9_7F4A_7C15) ^ iter.wrapping_mul(0x2545_F491_4F6C_DD1D),
    );
    let mut prefix = space.empty_prefix();
    space.complete_with(&mut prefix, |elig| rng.gen_range(0..elig.len()))
}

/// The decorrelated MCTS search seed of shard `index` out of `count`:
/// shard 0 of a single-shard (unsharded) run keeps the configured seed
/// unchanged, every other shard mixes its index in so sharded searches
/// explore from independent trajectories instead of `count` copies of
/// the same one. A pure function of its inputs, so a re-issued or
/// resumed shard searches the identical trajectory.
pub fn shard_root_seed(seed: u64, index: usize, count: usize) -> u64 {
    if count <= 1 {
        seed
    } else {
        seed ^ (index as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)
    }
}

/// Runs `iterations` random rollouts (each one is a full traversal, like
/// one MCTS iteration) and returns the distinct explored implementations
/// with one [`TelemetryRow`] per iteration (duplicates included: a
/// repeated rollout still advances the iteration counter, as in MCTS).
pub fn random_search_telemetry<E: Evaluator>(
    space: &DecisionSpace,
    mut eval: E,
    iterations: usize,
    seed: u64,
) -> Result<(Vec<ExploredRecord>, SearchTelemetry), SimError> {
    let mut seen: HashSet<Traversal> = HashSet::new();
    let mut records: Vec<ExploredRecord> = Vec::new();
    let mut telemetry = SearchTelemetry::new();
    let mut best = f64::INFINITY;
    let mut worst = f64::NEG_INFINITY;
    for iter in 0..iterations {
        let t = random_rollout(space, seed, iter as u64);
        let rollout_len = t.steps.len();
        if seen.insert(t.clone()) {
            let result = eval.evaluate(&t, eval_seed(seed, &t))?;
            best = best.min(result.time());
            worst = worst.max(result.time());
            records.push(ExploredRecord {
                traversal: t,
                result,
            });
        }
        telemetry.push(TelemetryRow {
            iteration: iter as u64 + 1,
            unique_traversals: records.len(),
            best_time: best,
            worst_time: worst,
            tree_nodes: 0,
            max_depth: 0,
            rollout_len,
        });
    }
    Ok((records, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::SimEvaluator;
    use dr_dag::{CostKey, DagBuilder, OpSpec};
    use dr_sim::{BenchConfig, Platform, TableWorkload};

    fn space() -> DecisionSpace {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        DecisionSpace::new(b.build().unwrap(), 2).unwrap()
    }

    #[test]
    fn random_search_returns_valid_unique_records() {
        let sp = space();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 1e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
        let (records, _) = random_search_telemetry(&sp, eval, 200, 11).unwrap();
        assert!(!records.is_empty());
        let set: HashSet<_> = records.iter().map(|r| &r.traversal).collect();
        assert_eq!(set.len(), records.len(), "records must be deduplicated");
        for r in &records {
            sp.validate(&r.traversal).unwrap();
            assert!(r.result.time() > 0.0);
        }
        // 200 random rollouts over a 12-element space should see most of it.
        assert!(records.len() >= 8);
    }

    #[test]
    fn telemetry_has_one_row_per_iteration_including_duplicates() {
        let sp = space();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 1e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
        let iterations = 50;
        let (records, telemetry) = random_search_telemetry(&sp, eval, iterations, 7).unwrap();
        assert_eq!(telemetry.len(), iterations);
        let rows = telemetry.rows();
        assert!(
            records.len() < iterations,
            "duplicates occur in a 12-element space"
        );
        assert_eq!(rows.last().unwrap().unique_traversals, records.len());
        for w in rows.windows(2) {
            assert!(w[1].unique_traversals >= w[0].unique_traversals);
            assert!(w[1].best_time <= w[0].best_time);
        }
        // CSV export matches the iteration count (header + rows).
        assert_eq!(telemetry.to_csv().lines().count(), iterations + 1);
    }

    #[test]
    fn random_search_is_seed_deterministic() {
        let sp = space();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 1e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        let run = |seed| {
            let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
            random_search_telemetry(&sp, eval, 20, seed)
                .unwrap()
                .0
                .into_iter()
                .map(|r| r.traversal)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
    }
}
