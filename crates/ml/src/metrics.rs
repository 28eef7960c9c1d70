//! Classifier diagnostics: Gini feature importances, used to interpret
//! the mined rules ("which design decisions carry the discriminating
//! power?").

use crate::tree::{DecisionTree, TrainConfig};

/// Gini (mean-decrease-impurity) feature importances, normalized to sum
/// to 1 (all zeros when the tree has no splits): the total weighted
/// impurity decrease contributed by each feature's splits, as
/// scikit-learn's `feature_importances_` reports.
pub fn feature_importances(
    tree: &DecisionTree,
    num_features: usize,
    cfg: &TrainConfig,
) -> Vec<f64> {
    let mut imp = vec![0.0f64; num_features];
    for n in tree.nodes() {
        let Some(f) = n.feature else { continue };
        let w: f64 = n.weighted_counts.iter().sum();
        let wl: f64 = tree.nodes()[n.left].weighted_counts.iter().sum();
        let wr: f64 = tree.nodes()[n.right].weighted_counts.iter().sum();
        let decrease = w * cfg.criterion_impurity(&n.weighted_counts)
            - wl * cfg.criterion_impurity(&tree.nodes()[n.left].weighted_counts)
            - wr * cfg.criterion_impurity(&tree.nodes()[n.right].weighted_counts);
        imp[f] += decrease.max(0.0);
    }
    let total: f64 = imp.iter().sum();
    if total > 0.0 {
        for v in &mut imp {
            *v /= total;
        }
    }
    imp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitrow::BitRow;
    use crate::tree::DecisionTree;

    fn data() -> (Vec<BitRow>, Vec<usize>) {
        // Feature 0 decides the class; feature 1 is pure noise.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..40 {
            let f0 = i % 2 == 0;
            let f1 = i % 3 == 0;
            x.push(BitRow::from_bools(&[f0, f1]));
            y.push(usize::from(f0));
        }
        (x, y)
    }

    #[test]
    fn informative_feature_dominates_importances() {
        let (x, y) = data();
        let cfg = TrainConfig::default();
        let tree = DecisionTree::fit(&x, &y, 2, &cfg);
        let imp = feature_importances(&tree, 2, &cfg);
        assert!(imp[0] > 0.99, "{imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stump_has_zero_importances() {
        let x = vec![BitRow::from_bools(&[true]); 4];
        let y = vec![0; 4];
        let cfg = TrainConfig::default();
        let tree = DecisionTree::fit(&x, &y, 1, &cfg);
        assert_eq!(feature_importances(&tree, 1, &cfg), vec![0.0]);
    }
}
