//! Property tests on the lint layer: every schedule the lowering emits —
//! for arbitrary DAGs and for the built-in scenarios — must verify clean
//! under the happens-before checker and the deadlock detector. The
//! lowering inserts synchronization for every dependency edge, so an
//! error here is a bug in either the lowering or the verifier.

mod common;

use common::{arb_comm_space, arb_small_space};
use cuda_mpi_design_rules::dag::Traversal;
use cuda_mpi_design_rules::halo::HaloScenario;
use cuda_mpi_design_rules::lint::{lint_space_incremental, lint_traversal, LintReport};
use cuda_mpi_design_rules::pipeline::topology_from_workload;
use cuda_mpi_design_rules::spmv::SpmvScenario;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_enumerated_schedule_verifies_clean(space in arb_small_space(5, 600)) {
        for t in space.enumerate() {
            let report = lint_traversal(&space, &t, None);
            prop_assert_eq!(
                report.errors().count(),
                0,
                "traversal {:?}:\n{}",
                t,
                report.render_text()
            );
        }
    }

    #[test]
    fn random_rollouts_of_large_spaces_verify_clean(
        space in arb_small_space(6, u128::MAX),
        picks in proptest::collection::vec(any::<u32>(), 64),
    ) {
        // Covers spaces far too large to enumerate via adversarial
        // rollout completion, like the dag-layer property test does.
        let mut i = 0;
        let mut prefix = space.empty_prefix();
        let t = space.complete_with(&mut prefix, |elig| {
            let k = picks.get(i % picks.len()).copied().unwrap_or(0) as usize;
            i += 1;
            k % elig.len()
        });
        let report = lint_traversal(&space, &t, None);
        prop_assert_eq!(report.errors().count(), 0, "{}", report.render_text());
    }

    #[test]
    fn incremental_space_lint_is_bit_identical_to_cold_lint(
        space in arb_small_space(5, 600),
    ) {
        // The checkpointed walk shares happens-before state along common
        // prefixes; the per-schedule reports must nevertheless match a
        // from-scratch lint of each enumerated traversal exactly.
        let cold: Vec<LintReport> = space
            .enumerate()
            .map(|t| lint_traversal(&space, &t, None))
            .collect();
        let mut inc: Vec<(u64, LintReport)> = Vec::new();
        let stats = lint_space_incremental(
            &space,
            None,
            0,
            None,
            &mut |i, _prefix, report| inc.push((i, report.clone())),
        );
        prop_assert_eq!(stats.schedules as usize, cold.len());
        prop_assert_eq!(inc.len(), cold.len());
        for (i, report) in &inc {
            prop_assert_eq!(report, &cold[*i as usize], "schedule #{}", i);
        }
        prop_assert!(
            stats.hb_expansions <= stats.cold_hb_expansions,
            "sharing can never cost more than cold: {} > {}",
            stats.hb_expansions,
            stats.cold_hb_expansions
        );
    }

    #[test]
    fn incremental_comm_space_lint_is_bit_identical_to_cold_lint(
        (space, topo) in arb_comm_space(720),
    ) {
        // Random MPI programs against random topologies: the walk's
        // prefix-incremental deadlock matcher must agree with the cold
        // detector at every leaf, whether the leaf is clean, waits
        // before its own post, deadlocks, or sits in a space that fails
        // an order-free check.
        let traversals: Vec<Traversal> = space.enumerate().collect();
        let stats = lint_space_incremental(&space, Some(&topo), 0, None, &mut |i, _, report| {
            let cold = lint_traversal(&space, &traversals[i as usize], Some(&topo));
            prop_assert_eq!(report, &cold, "schedule #{}", i);
        });
        prop_assert_eq!(stats.schedules as usize, traversals.len());
    }
}

#[test]
fn full_spmv_space_lints_free_of_errors() {
    let sc = SpmvScenario::small(3);
    let topo = topology_from_workload(&sc.space, &sc.workload, &sc.platform);
    let mut n = 0;
    for t in sc.space.enumerate() {
        let report = lint_traversal(&sc.space, &t, Some(&topo));
        assert_eq!(report.errors().count(), 0, "{}", report.render_text());
        n += 1;
    }
    assert_eq!(n, 1600, "the whole space was covered");
}

#[test]
fn halo_schedules_lint_free_of_errors() {
    let sc = HaloScenario::cube2(1);
    let topo = topology_from_workload(&sc.space, &sc.workload, &sc.platform);
    for t in sc.space.enumerate().take(128) {
        let report = lint_traversal(&sc.space, &t, Some(&topo));
        assert_eq!(report.errors().count(), 0, "{}", report.render_text());
    }
}

#[test]
fn incremental_spmv_lint_is_bit_identical_and_measurably_cheaper() {
    // The acceptance bar: over the full 1600-schedule SpMV space the
    // incremental walk must reproduce every cold report exactly while
    // expanding measurably fewer happens-before rows.
    let sc = SpmvScenario::small(3);
    let topo = topology_from_workload(&sc.space, &sc.workload, &sc.platform);
    let cold: Vec<LintReport> = sc
        .space
        .enumerate()
        .map(|t| lint_traversal(&sc.space, &t, Some(&topo)))
        .collect();
    assert_eq!(cold.len(), 1600);
    let mut inc: Vec<LintReport> = Vec::new();
    let stats = lint_space_incremental(&sc.space, Some(&topo), 0, None, &mut |_, _, report| {
        inc.push(report.clone())
    });
    assert_eq!(stats.schedules, 1600);
    assert!(!stats.truncated);
    assert_eq!(inc, cold, "incremental reports diverge from cold lint");
    assert!(
        stats.hb_expansions < stats.cold_hb_expansions,
        "prefix sharing saved nothing: {} vs cold {}",
        stats.hb_expansions,
        stats.cold_hb_expansions
    );
}

#[test]
fn incremental_halo_lint_is_bit_identical_and_measurably_cheaper() {
    let sc = HaloScenario::cube2(1);
    let topo = topology_from_workload(&sc.space, &sc.workload, &sc.platform);
    let cold: Vec<LintReport> = sc
        .space
        .enumerate()
        .take(128)
        .map(|t| lint_traversal(&sc.space, &t, Some(&topo)))
        .collect();
    let mut inc: Vec<LintReport> = Vec::new();
    let stats = lint_space_incremental(&sc.space, Some(&topo), 128, None, &mut |_, _, report| {
        inc.push(report.clone())
    });
    assert_eq!(stats.schedules, 128);
    assert_eq!(inc, cold, "incremental reports diverge from cold lint");
    assert!(
        stats.hb_expansions < stats.cold_hb_expansions,
        "prefix sharing saved nothing: {} vs cold {}",
        stats.hb_expansions,
        stats.cold_hb_expansions
    );
}
