//! CART decision-tree classifier (paper Section IV-C, Table IV).
//!
//! A from-scratch reimplementation of the scikit-learn
//! `DecisionTreeClassifier` configuration the paper uses: CART with the
//! Gini (or entropy) criterion, best-first growth honouring
//! `max_leaf_nodes`, a `max_depth` cap, and `class_weight="balanced"`.
//! Features are binary (the Section IV-B vectors), so every split is
//! "feature = 0 goes left, feature = 1 goes right".
//!
//! Training works on word-packed bit masks: the row-major [`BitRow`]
//! input is transposed once into per-feature column masks and per-class
//! membership masks over the samples, a node's sample subset is itself a
//! mask, and every split candidate's class counts reduce to
//! `popcount(node ∧ class ∧ ¬column)` — no per-sample branching.

use crate::bitrow::BitRow;

/// Split-quality criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Gini impurity — the paper's choice ("simpler and faster, no
    /// difference for test cases").
    Gini,
    /// Shannon entropy.
    Entropy,
}

impl Criterion {
    /// Impurity of a weighted class-count vector under this criterion.
    pub fn impurity(&self, counts: &[f64]) -> f64 {
        let total: f64 = counts.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        match self {
            Criterion::Gini => {
                1.0 - counts
                    .iter()
                    .map(|&c| (c / total) * (c / total))
                    .sum::<f64>()
            }
            Criterion::Entropy => -counts
                .iter()
                .filter(|&&c| c > 0.0)
                .map(|&c| {
                    let p = c / total;
                    p * p.log2()
                })
                .sum::<f64>(),
        }
    }
}

/// Training parameters (defaults mirror the paper's Table IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Split criterion.
    pub criterion: Criterion,
    /// Maximum number of leaves (best-first growth); `None` = unlimited.
    pub max_leaf_nodes: Option<usize>,
    /// Maximum tree depth; `None` = unlimited.
    pub max_depth: Option<usize>,
    /// Weight all classes equally regardless of how many samples carry
    /// each label (`class_weight="balanced"`).
    pub balanced: bool,
}

impl TrainConfig {
    /// Impurity of a weighted class-count vector under this config's
    /// criterion (convenience for diagnostics like feature importances).
    pub fn criterion_impurity(&self, counts: &[f64]) -> f64 {
        self.criterion.impurity(counts)
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            criterion: Criterion::Gini,
            max_leaf_nodes: None,
            max_depth: None,
            balanced: true,
        }
    }
}

/// A tree node; leaves have `feature == None`.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Split feature, `None` for leaves.
    pub feature: Option<usize>,
    /// Child for `feature == false` (valid when `feature` is `Some`).
    pub left: usize,
    /// Child for `feature == true`.
    pub right: usize,
    /// Class-weighted sample counts reaching this node.
    pub weighted_counts: Vec<f64>,
    /// Raw sample counts reaching this node.
    pub raw_counts: Vec<usize>,
    /// Depth (root = 0).
    pub depth: usize,
}

impl Node {
    /// Majority class by weighted counts (ties → lowest class id).
    pub fn class(&self) -> usize {
        let mut best = 0;
        for (c, &w) in self.weighted_counts.iter().enumerate() {
            if w > self.weighted_counts[best] {
                best = c;
            }
        }
        best
    }

    /// True when all samples at this node share one label.
    pub fn is_pure(&self) -> bool {
        self.raw_counts.iter().filter(|&&c| c > 0).count() <= 1
    }
}

/// A trained CART classifier over binary features.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    num_classes: usize,
    class_weights: Vec<f64>,
}

/// One root-to-leaf path: the conjunction of feature conditions plus the
/// leaf reached.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafPath {
    /// `(feature, value)` conditions on the path, root first.
    pub conditions: Vec<(usize, bool)>,
    /// Index of the leaf node in the tree.
    pub node: usize,
}

/// A frontier leaf and its best split.
struct Candidate {
    node: usize,
    mask: BitRow,
    feature: usize,
    improvement: f64,
}

/// Resumable best-first growth. The column and class masks are built
/// once and the frontier persists between [`Grower::grow_to`] calls, so
/// growing to `m` leaves and then on to `m + k` gives exactly the tree
/// of one growth to `m + k`: each split takes the frontier leaf with the
/// largest weighted impurity decrease (ties: lower node id), and a cap
/// only decides when to stop.
pub(crate) struct Grower {
    cfg: TrainConfig,
    cols: Vec<BitRow>,
    class_masks: Vec<BitRow>,
    frontier: Vec<Candidate>,
    tree: DecisionTree,
}

impl Grower {
    /// A one-leaf tree over `x`/`y`; `cfg.max_leaf_nodes` is not read
    /// (the cap is [`Grower::grow_to`]'s argument).
    pub(crate) fn new(x: &[BitRow], y: &[usize], num_classes: usize, cfg: TrainConfig) -> Self {
        assert_eq!(x.len(), y.len(), "sample/label length mismatch");
        assert!(!x.is_empty(), "cannot fit on an empty sample set");
        assert!(y.iter().all(|&c| c < num_classes), "label out of range");
        let n = x.len();

        // Transpose once: column masks over samples (bit s of `cols[f]`
        // is sample s's feature f) and class-membership masks.
        let mut cols = vec![BitRow::zeros(n); x[0].len()];
        for (s, row) in x.iter().enumerate() {
            for (f, col) in cols.iter_mut().enumerate() {
                col.set(s, row.get(f));
            }
        }
        let mut class_masks = vec![BitRow::zeros(n); num_classes];
        for (s, &c) in y.iter().enumerate() {
            class_masks[c].set(s, true);
        }

        // class_weight="balanced": w_c = n / (k * count_c).
        let class_weights = class_masks
            .iter()
            .map(|cm| match cm.count_ones() {
                _ if !cfg.balanced => 1.0,
                0 => 0.0,
                c => n as f64 / (num_classes as f64 * c as f64),
            })
            .collect();
        let mut grower = Grower {
            cfg,
            cols,
            class_masks,
            frontier: Vec::new(),
            tree: DecisionTree {
                nodes: Vec::new(),
                num_classes,
                class_weights,
            },
        };
        grower.add_leaf(BitRow::ones(n), 0);
        grower
    }

    /// Appends a leaf over the sample subset `mask` and queues it for
    /// splitting unless it is pure, at the depth cap, or inseparable.
    fn add_leaf(&mut self, mask: BitRow, depth: usize) -> usize {
        let node = self.tree.nodes.len();
        let leaf = self.tree.make_node(&mask, &self.class_masks, depth);
        let open = !leaf.is_pure() && self.cfg.max_depth.is_none_or(|d| depth < d);
        self.tree.nodes.push(leaf);
        let split = open.then(|| {
            self.tree
                .best_split(&mask, &self.cols, &self.class_masks, &self.cfg)
        });
        if let Some((feature, improvement)) = split.flatten() {
            self.frontier.push(Candidate {
                node,
                mask,
                feature,
                improvement,
            });
        }
        node
    }

    /// Splits until the tree has `cap` leaves (`None` = no cap) or no
    /// leaf can be split, and returns the tree so far.
    pub(crate) fn grow_to(&mut self, cap: Option<usize>) -> &DecisionTree {
        // s splits make 2s + 1 nodes and s + 1 leaves.
        while !self.frontier.is_empty() && cap.is_none_or(|c| self.tree.nodes.len() / 2 + 1 < c) {
            // Extract the best candidate (frontiers are tiny; linear scan).
            let best = (0..self.frontier.len())
                .max_by(|&a, &b| {
                    let (a, b) = (&self.frontier[a], &self.frontier[b]);
                    a.improvement
                        .partial_cmp(&b.improvement)
                        .expect("improvements are finite")
                        // Deterministic tie-break: earlier node id wins.
                        .then(b.node.cmp(&a.node))
                })
                .expect("frontier non-empty");
            let cand = self.frontier.swap_remove(best);

            let col = &self.cols[cand.feature];
            let (ls, rs) = (cand.mask.and_not(col), cand.mask.and(col));
            let depth = self.tree.nodes[cand.node].depth + 1;
            let left = self.add_leaf(ls, depth);
            let right = self.add_leaf(rs, depth);
            let parent = &mut self.tree.nodes[cand.node];
            parent.feature = Some(cand.feature);
            (parent.left, parent.right) = (left, right);
        }
        &self.tree
    }
}

impl DecisionTree {
    /// Fits a tree on binary features `x` (row-major) with labels `y` in
    /// `0..num_classes`.
    pub fn fit(x: &[BitRow], y: &[usize], num_classes: usize, cfg: &TrainConfig) -> Self {
        let mut grower = Grower::new(x, y, num_classes, *cfg);
        grower.grow_to(cfg.max_leaf_nodes);
        grower.tree
    }

    fn make_node(&self, mask: &BitRow, class_masks: &[BitRow], depth: usize) -> Node {
        let raw: Vec<usize> = class_masks.iter().map(|cm| mask.and_count(cm)).collect();
        let weighted: Vec<f64> = raw
            .iter()
            .zip(&self.class_weights)
            .map(|(&c, &w)| c as f64 * w)
            .collect();
        Node {
            feature: None,
            left: 0,
            right: 0,
            weighted_counts: weighted,
            raw_counts: raw,
            depth,
        }
    }

    /// Best split of a sample subset (given as a mask): the feature
    /// maximizing the weighted impurity decrease. Returns `None` when no
    /// feature separates the samples with positive improvement. Class
    /// counts on each side are popcounts of `mask ∧ class ∧ ¬column`.
    fn best_split(
        &self,
        mask: &BitRow,
        cols: &[BitRow],
        class_masks: &[BitRow],
        cfg: &TrainConfig,
    ) -> Option<(usize, f64)> {
        let parent: Vec<f64> = class_masks
            .iter()
            .zip(&self.class_weights)
            .map(|(cm, &w)| mask.and_count(cm) as f64 * w)
            .collect();
        let w_parent: f64 = parent.iter().sum();
        let imp_parent = cfg.criterion.impurity(&parent);
        let mut best: Option<(usize, f64)> = None;
        for (f, col) in cols.iter().enumerate() {
            let left: Vec<f64> = class_masks
                .iter()
                .zip(&self.class_weights)
                .map(|(cm, &w)| mask.count_and_not(cm, col) as f64 * w)
                .collect();
            let w_left: f64 = left.iter().sum();
            let w_right = w_parent - w_left;
            if w_left <= 0.0 || w_right <= 0.0 {
                continue; // split does not separate anything
            }
            let right: Vec<f64> = parent.iter().zip(&left).map(|(&p, &l)| p - l).collect();
            let improvement = w_parent * imp_parent
                - w_left * cfg.criterion.impurity(&left)
                - w_right * cfg.criterion.impurity(&right);
            // Any separating split is acceptable (scikit-learn splits
            // every impure node; improvement only ranks candidates), so a
            // zero-improvement split — e.g. the first level of XOR — is
            // still taken when nothing better exists.
            if best.is_none_or(|(_, b)| improvement > b) {
                best = Some((f, improvement));
            }
        }
        best
    }

    /// All nodes (root is index 0).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of classes the tree was trained with.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Predicted class of one feature vector.
    pub fn predict(&self, x: &BitRow) -> usize {
        let mut node = 0usize;
        while let Some(f) = self.nodes[node].feature {
            node = if x[f] {
                self.nodes[node].right
            } else {
                self.nodes[node].left
            };
        }
        self.nodes[node].class()
    }

    /// Number of leaf nodes.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.feature.is_none()).count()
    }

    /// Maximum depth reached (root = 0).
    pub fn depth(&self) -> usize {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Class-weighted misclassification rate on a labelled set (plain
    /// rate when the tree was trained unweighted). Weighting keeps small
    /// classes relevant in Algorithm 1's error minimization, matching the
    /// `class_weight="balanced"` intent.
    pub fn error(&self, x: &[BitRow], y: &[usize]) -> f64 {
        let mut wrong = 0.0;
        let mut total = 0.0;
        for (xi, &yi) in x.iter().zip(y) {
            let w = self.class_weights[yi];
            total += w;
            if self.predict(xi) != yi {
                wrong += w;
            }
        }
        if total == 0.0 {
            0.0
        } else {
            wrong / total
        }
    }

    /// Every root-to-leaf path (pre-order).
    pub fn leaf_paths(&self) -> Vec<LeafPath> {
        let mut out = Vec::new();
        let mut stack = vec![(0usize, Vec::new())];
        while let Some((node, conds)) = stack.pop() {
            match self.nodes[node].feature {
                None => out.push(LeafPath {
                    conditions: conds,
                    node,
                }),
                Some(f) => {
                    let mut right = conds.clone();
                    right.push((f, true));
                    stack.push((self.nodes[node].right, right));
                    let mut left = conds;
                    left.push((f, false));
                    stack.push((self.nodes[node].left, left));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(bits: &[&[bool]]) -> Vec<BitRow> {
        bits.iter().map(|b| BitRow::from_bools(b)).collect()
    }

    fn xor_data() -> (Vec<BitRow>, Vec<usize>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in [false, true] {
            for b in [false, true] {
                for _ in 0..5 {
                    x.push(BitRow::from_bools(&[a, b]));
                    y.push(usize::from(a ^ b));
                }
            }
        }
        (x, y)
    }

    #[test]
    fn learns_xor_exactly() {
        let (x, y) = xor_data();
        let tree = DecisionTree::fit(&x, &y, 2, &TrainConfig::default());
        assert_eq!(tree.error(&x, &y), 0.0);
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(tree.predict(xi), yi);
        }
        assert_eq!(tree.num_leaves(), 4);
        assert_eq!(tree.depth(), 2);
    }

    #[test]
    fn single_feature_split() {
        let x = rows(&[&[false], &[false], &[true], &[true]]);
        let y = vec![0, 0, 1, 1];
        let tree = DecisionTree::fit(&x, &y, 2, &TrainConfig::default());
        assert_eq!(tree.num_leaves(), 2);
        assert_eq!(tree.predict(&BitRow::from_bools(&[false])), 0);
        assert_eq!(tree.predict(&BitRow::from_bools(&[true])), 1);
    }

    #[test]
    fn max_leaf_nodes_caps_growth() {
        let (x, y) = xor_data();
        let cfg = TrainConfig {
            max_leaf_nodes: Some(3),
            ..Default::default()
        };
        let tree = DecisionTree::fit(&x, &y, 2, &cfg);
        assert_eq!(tree.num_leaves(), 3);
    }

    #[test]
    fn max_depth_caps_growth() {
        let (x, y) = xor_data();
        let cfg = TrainConfig {
            max_depth: Some(1),
            ..Default::default()
        };
        let tree = DecisionTree::fit(&x, &y, 2, &cfg);
        assert!(tree.depth() <= 1);
        assert!(tree.num_leaves() <= 2);
    }

    #[test]
    fn pure_node_stops_splitting() {
        let x = vec![BitRow::from_bools(&[false, true]); 6];
        let y = vec![1; 6];
        let tree = DecisionTree::fit(&x, &y, 3, &TrainConfig::default());
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.predict(&BitRow::from_bools(&[true, false])), 1);
    }

    #[test]
    fn balanced_weights_protect_minority_class() {
        // 1 minority sample distinguishable by feature 0; 99 majority.
        let mut x = vec![BitRow::from_bools(&[true])];
        let mut y = vec![1usize];
        for _ in 0..99 {
            x.push(BitRow::from_bools(&[false]));
            y.push(0);
        }
        let balanced = DecisionTree::fit(&x, &y, 2, &TrainConfig::default());
        assert_eq!(
            balanced.predict(&BitRow::from_bools(&[true])),
            1,
            "minority class must be found"
        );
        assert_eq!(balanced.error(&x, &y), 0.0);
    }

    #[test]
    fn entropy_criterion_also_learns() {
        let (x, y) = xor_data();
        let cfg = TrainConfig {
            criterion: Criterion::Entropy,
            ..Default::default()
        };
        let tree = DecisionTree::fit(&x, &y, 2, &cfg);
        assert_eq!(tree.error(&x, &y), 0.0);
    }

    #[test]
    fn impurity_values() {
        assert_eq!(Criterion::Gini.impurity(&[5.0, 5.0]), 0.5);
        assert_eq!(Criterion::Gini.impurity(&[10.0, 0.0]), 0.0);
        assert!((Criterion::Entropy.impurity(&[5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert_eq!(Criterion::Entropy.impurity(&[10.0]), 0.0);
        assert_eq!(Criterion::Gini.impurity(&[]), 0.0);
    }

    #[test]
    fn leaf_paths_partition_the_feature_space() {
        let (x, y) = xor_data();
        let tree = DecisionTree::fit(&x, &y, 2, &TrainConfig::default());
        let paths = tree.leaf_paths();
        assert_eq!(paths.len(), tree.num_leaves());
        // Every sample follows exactly one path.
        for xi in &x {
            let matching = paths
                .iter()
                .filter(|p| p.conditions.iter().all(|&(f, v)| xi[f] == v))
                .count();
            assert_eq!(matching, 1);
        }
    }

    #[test]
    fn fit_is_deterministic() {
        let (x, y) = xor_data();
        let a = DecisionTree::fit(&x, &y, 2, &TrainConfig::default());
        let b = DecisionTree::fit(&x, &y, 2, &TrainConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn three_class_problem() {
        // Class = number of true features (0, 1, 2).
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in [false, true] {
            for b in [false, true] {
                x.push(BitRow::from_bools(&[a, b]));
                y.push(usize::from(a) + usize::from(b));
            }
        }
        let tree = DecisionTree::fit(&x, &y, 3, &TrainConfig::default());
        assert_eq!(tree.error(&x, &y), 0.0);
        assert_eq!(tree.predict(&BitRow::from_bools(&[true, true])), 2);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_labels_rejected() {
        DecisionTree::fit(
            &[BitRow::from_bools(&[true])],
            &[5],
            2,
            &TrainConfig::default(),
        );
    }
}
