//! Property tests on compiled rule constraints: over random small
//! decision spaces and random rulesets, compiling, admitting,
//! synthesizing and the certification walk must agree exactly with a
//! brute-force filter of the enumerated space.

mod common;

use common::arb_small_space;
use cuda_mpi_design_rules::dag::{DecisionSpace, Placement, Traversal};
use cuda_mpi_design_rules::lint::lint_space_incremental;
use cuda_mpi_design_rules::ml::{
    extract_rulesets, feature_universe, featurize, DecisionTree, Feature, FeatureKind, Rule,
    RuleSet, TrainConfig,
};
use cuda_mpi_design_rules::pipeline::{certify_rulesets, satisfies, synthesize, Constraints};
use proptest::prelude::*;
use std::collections::HashSet;

/// A random enumerable space with one to five rules drawn from its
/// feature universe, as mined rules are. Half the draws pick a
/// `SameStream` feature when the space has one, since `Before` features
/// far outnumber them and implied stream constraints need several.
fn arb_ruled_space() -> impl Strategy<Value = (DecisionSpace, Vec<Rule>)> {
    (
        arb_small_space(6, 3000),
        collection::vec((any::<u32>(), any::<bool>(), any::<bool>()), 1..=5),
    )
        .prop_map(|(space, picks)| {
            let (same, before): (Vec<Feature>, Vec<Feature>) = feature_universe(&space)
                .into_iter()
                .partition(|f| matches!(f.kind, FeatureKind::SameStream(..)));
            let rules = picks
                .iter()
                .map(|&(k, stream, value)| {
                    let pool = if stream && !same.is_empty() {
                        &same
                    } else {
                        &before
                    };
                    Rule {
                        kind: pool[k as usize % pool.len()].kind,
                        value,
                    }
                })
                .collect();
            (space, rules)
        })
}

/// Checks compile, synthesize, admits and the certification walk of
/// `rules` against a brute-force filter of the enumerated space.
fn check_exact(space: &DecisionSpace, rules: Vec<Rule>) {
    let all: Vec<Traversal> = space.enumerate().collect();
    let sat: Vec<&Traversal> = all.iter().filter(|t| satisfies(space, t, &rules)).collect();
    let compiled = Constraints::compile(space, &rules);
    assert_eq!(compiled.is_err(), sat.is_empty(), "{:?}", compiled.err());
    assert_eq!(
        synthesize(space, &rules).ok().as_ref(),
        sat.first().copied(),
        "synthesize must return the first satisfying traversal"
    );
    let Ok(constraints) = compiled else {
        return;
    };

    // `admits` accepts a step exactly when a satisfying traversal
    // extends the prefix through it.
    let extendable: HashSet<&[Placement]> = sat
        .iter()
        .flat_map(|t| (1..=t.steps.len()).map(|i| &t.steps[..i]))
        .collect();
    for t in &all {
        let mut prefix = space.empty_prefix();
        for (i, &p) in t.steps.iter().enumerate() {
            let admitted = constraints.admits(&prefix, p);
            assert_eq!(
                admitted,
                extendable.contains(&t.steps[..=i]),
                "step {i} of {t:?} under {rules:?}"
            );
            if !admitted {
                break;
            }
            space.apply(&mut prefix, p);
        }
    }

    // The certification walk visits exactly the satisfying traversals,
    // in enumeration order.
    let mut leaves: Vec<Traversal> = Vec::new();
    lint_space_incremental(
        space,
        None,
        0,
        Some(&mut |prefix, p| constraints.admits(prefix, p)),
        &mut |_, prefix, _| {
            leaves.push(Traversal {
                steps: prefix.steps().to_vec(),
            })
        },
    );
    assert_eq!(leaves.iter().collect::<Vec<_>>(), sat);
    let ruleset = RuleSet {
        rules,
        class: 0,
        samples: 1,
        class_counts: vec![1],
        pure: true,
    };
    let cert = certify_rulesets(space, None, &[ruleset], 1, 0);
    assert_eq!(cert.rulesets[0].schedules_checked as usize, sat.len());
    assert!(cert.rulesets[0].certified);
}

/// Mines rulesets from hashed labels on a hashed two-thirds of the space
/// and checks that each admits every step of every training traversal
/// that satisfies it.
fn check_mined(space: &DecisionSpace, classes: usize, salt: u64) {
    let hash = |t: &Traversal| t.canonical_hash() ^ salt;
    let train: Vec<Traversal> = space.enumerate().filter(|t| hash(t) % 3 != 0).collect();
    if train.len() < 2 {
        return;
    }
    let refs: Vec<&Traversal> = train.iter().collect();
    let fs = featurize(space, &refs);
    let y: Vec<usize> = train
        .iter()
        .map(|t| (hash(t) >> 8) as usize % classes)
        .collect();
    let tree = DecisionTree::fit(&fs.matrix, &y, classes, &TrainConfig::default());
    for rs in extract_rulesets(&tree, &fs) {
        let constraints = Constraints::compile(space, &rs.rules)
            .unwrap_or_else(|why| panic!("mined ruleset {:?} refused: {why}", rs.rules));
        let support: Vec<&Traversal> = train
            .iter()
            .filter(|t| satisfies(space, t, &rs.rules))
            .collect();
        assert!(support.len() >= rs.samples);
        for t in support {
            let mut prefix = space.empty_prefix();
            for &p in &t.steps {
                assert!(
                    constraints.admits(&prefix, p),
                    "step {} of {t:?}",
                    prefix.len()
                );
                space.apply(&mut prefix, p);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compiled_constraints_are_exact((space, rules) in arb_ruled_space()) {
        check_exact(&space, rules);
    }

    #[test]
    fn mined_rulesets_admit_their_supporting_traversals(
        space in arb_small_space(6, 3000),
        classes in 2usize..=3,
        salt in any::<u64>(),
    ) {
        check_mined(&space, classes, salt);
    }
}
