//! Decision-tree hyperparameter search (paper Algorithm 1, Fig. 5).
//!
//! The paths to leaf nodes become design rules, so a maximally accurate
//! tree is wanted without concern for overfitting. Starting from two leaf
//! nodes, the leaf budget is increased (probing up to five steps ahead)
//! until the training error stops shrinking; `max_depth` is always one
//! less than the leaf budget.
//!
//! All probes read one resumable best-first growth instead of refitting.
//! The depth cap never binds: a node at depth m − 1 exists only after
//! m − 1 splits, which already make the budget's m leaves. Growth splits
//! the best frontier leaf under a total order (improvement, then lower
//! node id) and budgets only increase, so probe m is exactly the first
//! m − 1 splits of the uncapped tree. Each probe costs one
//! [`DecisionTree::error`] pass; only accepted probes clone the tree.

use crate::bitrow::BitRow;
use crate::tree::{DecisionTree, Grower, TrainConfig};

/// One probe of the search, for Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchStep {
    /// `max_leaf_nodes` used.
    pub max_leaf_nodes: usize,
    /// Training error of the resulting tree.
    pub error: f64,
    /// Depth actually reached (may be below the allowance).
    pub depth: usize,
    /// Leaves actually grown.
    pub leaves: usize,
    /// Whether the step was accepted as the new best.
    pub accepted: bool,
}

/// Result of Algorithm 1.
#[derive(Debug, Clone)]
pub struct HyperSearch {
    /// The selected classifier.
    pub tree: DecisionTree,
    /// The selected `max_leaf_nodes`.
    pub max_leaf_nodes: usize,
    /// Its training error.
    pub error: f64,
    /// Every probe, in execution order (Fig. 5 plots these).
    pub history: Vec<SearchStep>,
}

/// Runs Algorithm 1: iteratively grow the leaf budget while training
/// error shrinks. `base` supplies criterion/weighting; its
/// `max_leaf_nodes`/`max_depth` are ignored (see the module doc).
pub fn algorithm1(
    x: &[BitRow],
    y: &[usize],
    num_classes: usize,
    base: &TrainConfig,
) -> HyperSearch {
    let uncapped = TrainConfig {
        max_depth: None,
        ..*base
    };
    let mut grower = Grower::new(x, y, num_classes, uncapped);
    let mut history = Vec::new();
    // Probe budget `mln`: its error, and a snapshot if it beats `best`.
    let mut probe = |mln: usize, best: f64| {
        let t = grower.grow_to(Some(mln));
        let error = t.error(x, y);
        let accepted = error < best;
        history.push(SearchStep {
            max_leaf_nodes: mln,
            error,
            depth: t.depth(),
            leaves: t.num_leaves(),
            accepted,
        });
        (error, accepted.then(|| t.clone()))
    };

    let mut mln = 2usize;
    let (mut err, first) = probe(mln, f64::INFINITY);
    let mut clf = first.expect("a finite error beats infinity");
    'search: loop {
        for i in 1..=5 {
            if let (e, Some(t)) = probe(mln + i, err) {
                (clf, mln, err) = (t, mln + i, e);
                continue 'search;
            }
        }
        break; // no probe improved
    }
    HyperSearch {
        tree: clf,
        max_leaf_nodes: mln,
        error: err,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three classes separable with 3 leaves: f0 splits class 2, f1
    /// splits 0 from 1.
    fn data() -> (Vec<BitRow>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..10 {
            x.push(BitRow::from_bools(&[true, false]));
            y.push(2);
            x.push(BitRow::from_bools(&[false, false]));
            y.push(0);
            x.push(BitRow::from_bools(&[false, true]));
            y.push(1);
        }
        (x, y)
    }

    #[test]
    fn search_reaches_zero_error_with_minimal_leaves() {
        let (x, y) = data();
        let s = algorithm1(&x, &y, 3, &TrainConfig::default());
        assert_eq!(s.error, 0.0);
        assert_eq!(s.tree.num_leaves(), 3);
        assert!(s.max_leaf_nodes >= 3);
        // History starts at the mandatory mln=2 probe.
        assert_eq!(s.history[0].max_leaf_nodes, 2);
        assert!(s.history[0].error > 0.0);
    }

    #[test]
    fn search_history_is_monotone_in_accepted_steps() {
        let (x, y) = data();
        let s = algorithm1(&x, &y, 3, &TrainConfig::default());
        let accepted: Vec<f64> = s
            .history
            .iter()
            .filter(|h| h.accepted)
            .map(|h| h.error)
            .collect();
        for w in accepted.windows(2) {
            assert!(w[1] < w[0], "accepted errors must strictly decrease");
        }
    }

    #[test]
    fn trivial_problem_stops_immediately() {
        // Perfectly separable with 2 leaves: the mln=2 tree already has
        // zero error, probes 3..7 cannot improve, search stops.
        let x: Vec<BitRow> = [[false], [true], [false], [true]]
            .iter()
            .map(|b| BitRow::from_bools(b))
            .collect();
        let y = vec![0, 1, 0, 1];
        let s = algorithm1(&x, &y, 2, &TrainConfig::default());
        assert_eq!(s.error, 0.0);
        assert_eq!(s.max_leaf_nodes, 2);
        // 1 initial + 5 failed probes.
        assert_eq!(s.history.len(), 6);
    }

    #[test]
    fn depth_is_capped_at_leaves_minus_one() {
        let (x, y) = data();
        let s = algorithm1(&x, &y, 3, &TrainConfig::default());
        for h in &s.history {
            assert!(h.depth <= h.max_leaf_nodes.saturating_sub(1).max(1));
        }
    }
}
