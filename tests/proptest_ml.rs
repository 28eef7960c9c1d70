//! Property tests on the rule-mining pipeline: labeling, features, and
//! the CART implementation obey their invariants on arbitrary inputs.

mod common;

use common::arb_small_space;
use cuda_mpi_design_rules::dag::Traversal;
use cuda_mpi_design_rules::ml::{
    algorithm1, featurize, label_times, signal, BitRow, Criterion, DecisionTree, HyperSearch,
    LabelingConfig, TrainConfig,
};
use proptest::prelude::*;

/// Up to 200 binary rows of up to 8 features with 2–4 classes. Rows are
/// drawn from a small pool, so duplicates (often with different labels)
/// make impure leaves and tied split improvements common.
fn arb_training_set() -> impl Strategy<Value = (Vec<BitRow>, Vec<usize>, usize)> {
    (2usize..=4, 1usize..=8)
        .prop_flat_map(|(k, width)| {
            let pool =
                proptest::collection::vec(proptest::collection::vec(any::<bool>(), width), 1..16);
            let picks = proptest::collection::vec((0usize..64, 0usize..k), 2..200);
            (Just(k), pool, picks)
        })
        .prop_map(|(k, pool, picks)| {
            let x = picks
                .iter()
                .map(|&(i, _)| BitRow::from_bools(&pool[i % pool.len()]))
                .collect();
            let y = picks.iter().map(|&(_, c)| c).collect();
            (x, y, k)
        })
}

/// A training configuration over both criteria, weighted or not.
fn arb_train_config() -> impl Strategy<Value = TrainConfig> {
    (any::<bool>(), any::<bool>()).prop_map(|(gini, balanced)| TrainConfig {
        criterion: if gini {
            Criterion::Gini
        } else {
            Criterion::Entropy
        },
        balanced,
        ..TrainConfig::default()
    })
}

/// Algorithm 1 as the paper states it: every probe refits a fresh tree
/// with `max_leaf_nodes = m` and `max_depth = m - 1`.
fn refit_every_probe(x: &[BitRow], y: &[usize], k: usize, base: &TrainConfig) -> String {
    let train = |mln: usize| {
        let cfg = TrainConfig {
            max_leaf_nodes: Some(mln),
            max_depth: Some(mln - 1),
            ..*base
        };
        let t = DecisionTree::fit(x, y, k, &cfg);
        (t.error(x, y), t)
    };
    let mut history = Vec::new();
    let mut mln = 2;
    let mut err = f64::INFINITY;
    let (mut cur, mut clf) = train(mln);
    history.push((mln, cur.to_bits(), clf.depth(), clf.num_leaves(), true));
    while cur < err {
        err = cur;
        for i in 1..=5 {
            let (e, t) = train(mln + i);
            let accepted = e < err;
            history.push((mln + i, e.to_bits(), t.depth(), t.num_leaves(), accepted));
            if accepted {
                clf = t;
                mln += i;
                cur = e;
                break;
            }
        }
    }
    format!(
        "{clf:?}\n{mln} {:016x}\n{history:?}",
        err.min(cur).to_bits()
    )
}

/// `refit_every_probe`'s rendering of a search: `Debug` prints floats in
/// shortest round-trip form, so equal strings mean bit-equal trees.
fn render(s: &HyperSearch) -> String {
    let history: Vec<_> = s
        .history
        .iter()
        .map(|h| {
            (
                h.max_leaf_nodes,
                h.error.to_bits(),
                h.depth,
                h.leaves,
                h.accepted,
            )
        })
        .collect();
    format!(
        "{:?}\n{} {:016x}\n{history:?}",
        s.tree,
        s.max_leaf_nodes,
        s.error.to_bits()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn labeling_partitions_the_samples(
        times in proptest::collection::vec(1e-6f64..1.0, 1..400),
    ) {
        let l = label_times(&times, &LabelingConfig::default());
        prop_assert_eq!(l.labels.len(), times.len());
        prop_assert_eq!(l.num_classes, l.boundaries.len() + 1);
        prop_assert_eq!(l.class_ranges.len(), l.num_classes);
        // Boundaries strictly increase and stay interior.
        for w in l.boundaries.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        if let (Some(&first), Some(&last)) = (l.boundaries.first(), l.boundaries.last()) {
            prop_assert!(first > 0 && last < times.len());
        }
        // Every class is non-empty and labels cover 0..num_classes.
        for c in 0..l.num_classes {
            prop_assert!(l.labels.contains(&c), "class {} empty", c);
        }
        // Faster samples never get a slower class than slower samples.
        let mut idx: Vec<usize> = (0..times.len()).collect();
        idx.sort_by(|&a, &b| times[a].partial_cmp(&times[b]).unwrap());
        for w in idx.windows(2) {
            prop_assert!(l.labels[w[0]] <= l.labels[w[1]]);
        }
        // Class ranges are ordered and consistent with membership.
        for (c, &(lo, hi)) in l.class_ranges.iter().enumerate() {
            prop_assert!(lo <= hi);
            for (i, &t) in times.iter().enumerate() {
                if l.labels[i] == c {
                    prop_assert!(t >= lo && t <= hi);
                }
            }
        }
    }

    #[test]
    fn percentile_is_monotone_and_bounded(
        mut data in proptest::collection::vec(-1e3f64..1e3, 1..100),
        q1 in 0.0f64..100.0,
        q2 in 0.0f64..100.0,
    ) {
        data.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let p_lo = signal::percentile(&data, lo);
        let p_hi = signal::percentile(&data, hi);
        prop_assert!(p_lo <= p_hi + 1e-12);
        prop_assert!(p_lo >= data[0] - 1e-12);
        prop_assert!(p_hi <= data[data.len() - 1] + 1e-12);
    }

    #[test]
    fn peaks_are_interior_local_maxima_with_positive_prominence(
        data in proptest::collection::vec(-10.0f64..10.0, 3..200),
    ) {
        let peaks = signal::find_peaks(&data);
        let proms = signal::peak_prominences(&data, &peaks);
        for (&p, &prom) in peaks.iter().zip(&proms) {
            prop_assert!(p > 0 && p < data.len() - 1);
            prop_assert!(prom > 0.0, "peak {} has prominence {}", p, prom);
            prop_assert!(prom <= data[p] - data.iter().cloned().fold(f64::INFINITY, f64::min) + 1e-12);
        }
    }

    #[test]
    fn cart_beats_or_matches_the_majority_baseline(
        rows in proptest::collection::vec(
            (proptest::collection::vec(any::<bool>(), 4), 0usize..3),
            4..120,
        ),
    ) {
        let x: Vec<BitRow> = rows.iter().map(|(f, _)| BitRow::from_bools(f)).collect();
        let y: Vec<usize> = rows.iter().map(|(_, c)| *c).collect();
        let tree = DecisionTree::fit(&x, &y, 3, &TrainConfig::default());
        // Weighted error of predicting the best single class everywhere.
        let cfg = TrainConfig { max_leaf_nodes: Some(1), ..Default::default() };
        let stump = DecisionTree::fit(&x, &y, 3, &cfg);
        prop_assert!(tree.error(&x, &y) <= stump.error(&x, &y) + 1e-12);
        // Depth/leaf invariants.
        prop_assert!(tree.num_leaves() >= 1);
        prop_assert!(tree.depth() < tree.num_leaves().max(2));
    }

    #[test]
    fn cart_respects_leaf_budget(
        rows in proptest::collection::vec(
            (proptest::collection::vec(any::<bool>(), 3), 0usize..2),
            4..80,
        ),
        budget in 1usize..6,
    ) {
        let x: Vec<BitRow> = rows.iter().map(|(f, _)| BitRow::from_bools(f)).collect();
        let y: Vec<usize> = rows.iter().map(|(_, c)| *c).collect();
        let cfg = TrainConfig { max_leaf_nodes: Some(budget), ..Default::default() };
        let tree = DecisionTree::fit(&x, &y, 2, &cfg);
        prop_assert!(tree.num_leaves() <= budget.max(1));
    }

    #[test]
    fn feature_matrix_has_no_constant_or_duplicate_columns(
        space in arb_small_space(4, 300),
    ) {
        let all: Vec<_> = space.enumerate().collect();
        let refs: Vec<&Traversal> = all.iter().collect();
        let fs = featurize(&space, &refs);
        prop_assert_eq!(fs.num_samples(), all.len());
        for j in 0..fs.num_features() {
            let col: Vec<bool> = fs.matrix.iter().map(|r| r[j]).collect();
            prop_assert!(col.iter().any(|&b| b) && col.iter().any(|&b| !b));
            for k in j + 1..fs.num_features() {
                let col_k: Vec<bool> = fs.matrix.iter().map(|r| r[k]).collect();
                prop_assert_ne!(&col, &col_k);
            }
        }
        // vector_of round-trips every sample.
        for (s, t) in all.iter().enumerate() {
            prop_assert_eq!(&fs.vector_of(&space, t), &fs.matrix[s]);
        }
    }

    #[test]
    fn algorithm1_equals_a_refit_at_every_probe(
        (x, y, k) in arb_training_set(),
        cfg in arb_train_config(),
    ) {
        prop_assert_eq!(render(&algorithm1(&x, &y, k, &cfg)), refit_every_probe(&x, &y, k, &cfg));
    }

    #[test]
    fn a_depth_cap_of_leaves_minus_one_never_binds(
        (x, y, k) in arb_training_set(),
        cfg in arb_train_config(),
    ) {
        for m in 2..=12 {
            let capped = TrainConfig { max_leaf_nodes: Some(m), max_depth: Some(m - 1), ..cfg };
            let free = TrainConfig { max_leaf_nodes: Some(m), max_depth: None, ..cfg };
            prop_assert_eq!(
                format!("{:?}", DecisionTree::fit(&x, &y, k, &capped)),
                format!("{:?}", DecisionTree::fit(&x, &y, k, &free))
            );
        }
    }
}
