//! # dr-ml — design-rule mining
//!
//! Implements Section IV of the paper: turning the `(sequence, time)`
//! pairs collected during design-space exploration into human-readable
//! design rules.
//!
//! * [`label_times`] — automatic performance-class labeling by sorting,
//!   step-kernel convolution, and prominence-screened peak detection
//!   (Fig. 4);
//! * [`featurize`] — the sequence-to-vector transform: pairwise ordering
//!   and same-stream features, with constant/duplicate column pruning,
//!   packed into word-backed [`BitRow`] vectors;
//! * [`DecisionTree`] — CART from scratch (gini/entropy, best-first
//!   `max_leaf_nodes` growth, `class_weight="balanced"`), plus
//!   [`algorithm1`], the paper's leaf-budget hyperparameter search
//!   (Fig. 5);
//! * [`extract_rulesets`] / [`compare_to_canonical`] — root-to-leaf paths
//!   as rulesets, with the overconstrained/underconstrained consistency
//!   analysis of Tables V–VII.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bitrow;
pub mod export;
mod features;
mod hyper;
mod label;
mod metrics;
mod rules;
pub mod signal;
mod tree;

pub use bitrow::BitRow;
pub use export::tree_to_dot;
pub use features::{feature_universe, featurize, Feature, FeatureKind, FeatureSet};
pub use hyper::{algorithm1, HyperSearch, SearchStep};
pub use label::{label_times, Labeling, LabelingConfig};
pub use metrics::feature_importances;
pub use rules::{
    compare_to_canonical, extract_rulesets, render_ruleset, rulesets_for_class, Consistency, Rule,
    RuleSet,
};
pub use tree::{Criterion, DecisionTree, LeafPath, Node, TrainConfig};
