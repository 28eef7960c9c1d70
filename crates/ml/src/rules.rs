//! Design-rule extraction and cross-budget comparison
//! (paper Sections IV-D and V, Tables V–VII).
//!
//! Every root-to-leaf path of the trained decision tree is a conjunction
//! of feature conditions — a *ruleset*. An implementation satisfying all
//! rules of a ruleset lands in that leaf and therefore (to the extent the
//! leaf is pure) in its performance class. Rulesets mined from a partial
//! exploration are compared against the *canonical* rulesets mined from
//! the exhaustive search: extra conditions are harmless
//! (*overconstrained*, blue in the paper's tables), missing conditions
//! are accuracy losses (*underconstrained*, red).

use crate::features::{Feature, FeatureKind, FeatureSet};
use crate::tree::DecisionTree;
use dr_dag::DecisionSpace;

/// One condition of a ruleset, normalized to be comparable across
/// feature sets derived from different sample subsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rule {
    /// The semantic feature (operand order normalized).
    pub kind: FeatureKind,
    /// Required value of the feature.
    pub value: bool,
}

impl Rule {
    /// Human-readable phrasing, as printed in the paper's tables.
    pub fn phrase(&self, space: &DecisionSpace) -> String {
        Feature {
            kind: self.kind,
            name: String::new(),
        }
        .phrase(space, self.value)
    }
}

/// A ruleset: the conditions of one root-to-leaf path.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSet {
    /// Conditions, root-first.
    pub rules: Vec<Rule>,
    /// Performance class of the leaf (majority by weighted counts).
    pub class: usize,
    /// Training samples in the leaf.
    pub samples: usize,
    /// Raw per-class sample counts in the leaf.
    pub class_counts: Vec<usize>,
    /// Whether the leaf holds a single class.
    pub pure: bool,
}

/// Extracts one ruleset per leaf from a trained tree.
pub fn extract_rulesets(tree: &DecisionTree, features: &FeatureSet) -> Vec<RuleSet> {
    tree.leaf_paths()
        .into_iter()
        .map(|p| {
            let node = &tree.nodes()[p.node];
            RuleSet {
                rules: p
                    .conditions
                    .iter()
                    .map(|&(f, v)| Rule {
                        kind: features.features[f].kind,
                        value: v,
                    })
                    .collect(),
                class: node.class(),
                samples: node.raw_counts.iter().sum(),
                class_counts: node.raw_counts.clone(),
                pure: node.is_pure(),
            }
        })
        .collect()
}

/// Rulesets of one class, sorted by descending training-sample support
/// (the paper's tables list the top three).
pub fn rulesets_for_class(rulesets: &[RuleSet], class: usize) -> Vec<&RuleSet> {
    let mut v: Vec<&RuleSet> = rulesets.iter().filter(|r| r.class == class).collect();
    v.sort_by_key(|r| std::cmp::Reverse(r.samples));
    v
}

/// Consistency of one ruleset against the canonical rulesets of the same
/// class (paper Section V).
#[derive(Debug, Clone, PartialEq)]
pub struct Consistency {
    /// Index of the best-matching canonical ruleset.
    pub matched: usize,
    /// Conditions shared with the match.
    pub shared: Vec<Rule>,
    /// Harmless extra conditions (overconstrained, blue).
    pub extra: Vec<Rule>,
    /// Canonical conditions this ruleset lacks (underconstrained, red).
    pub missing: Vec<Rule>,
}

/// Compares `candidate` against the canonical rulesets of its class,
/// choosing the canonical set sharing the most conditions. Returns `None`
/// when the canonical mining produced no ruleset for that class.
pub fn compare_to_canonical(candidate: &RuleSet, canonical: &[RuleSet]) -> Option<Consistency> {
    let same_class: Vec<(usize, &RuleSet)> = canonical
        .iter()
        .enumerate()
        .filter(|(_, c)| c.class == candidate.class)
        .collect();
    if same_class.is_empty() {
        return None;
    }
    let cand: std::collections::HashSet<Rule> = candidate.rules.iter().copied().collect();
    let (matched, best) = same_class
        .into_iter()
        .max_by_key(|(_, c)| c.rules.iter().filter(|r| cand.contains(r)).count())
        .expect("non-empty");
    let canon: std::collections::HashSet<Rule> = best.rules.iter().copied().collect();
    let shared = candidate
        .rules
        .iter()
        .copied()
        .filter(|r| canon.contains(r))
        .collect();
    let extra = candidate
        .rules
        .iter()
        .copied()
        .filter(|r| !canon.contains(r))
        .collect();
    let missing = best
        .rules
        .iter()
        .copied()
        .filter(|r| !cand.contains(r))
        .collect();
    Some(Consistency {
        matched,
        shared,
        extra,
        missing,
    })
}

/// Renders a ruleset as the paper's tables do: one condition per line.
pub fn render_ruleset(rs: &RuleSet, space: &DecisionSpace) -> Vec<String> {
    rs.rules.iter().map(|r| r.phrase(space)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::featurize;
    use crate::tree::TrainConfig;
    use dr_dag::{CostKey, DagBuilder, OpSpec, Traversal};

    fn space() -> DecisionSpace {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        DecisionSpace::new(b.build().unwrap(), 2).unwrap()
    }

    /// Labels derived from a simple ground truth: class 1 iff a and b
    /// share a stream.
    fn labelled_data(sp: &DecisionSpace) -> (Vec<Traversal>, Vec<usize>) {
        let all: Vec<_> = sp.enumerate().collect();
        let a = sp.op_by_name("a").unwrap();
        let b = sp.op_by_name("b").unwrap();
        let y: Vec<usize> = all
            .iter()
            .map(|t| {
                let st = t.streams(sp.num_ops());
                usize::from(st[a] == st[b])
            })
            .collect();
        (all, y)
    }

    #[test]
    fn extracted_rules_recover_ground_truth() {
        let sp = space();
        let (all, y) = labelled_data(&sp);
        let refs: Vec<&Traversal> = all.iter().collect();
        let fs = featurize(&sp, &refs);
        let tree = DecisionTree::fit(&fs.matrix, &y, 2, &TrainConfig::default());
        assert_eq!(tree.error(&fs.matrix, &y), 0.0);
        let rulesets = extract_rulesets(&tree, &fs);
        assert_eq!(rulesets.len(), 2);
        // Each class has one pure ruleset with exactly one stream rule.
        for class in 0..2 {
            let rs = rulesets_for_class(&rulesets, class);
            assert_eq!(rs.len(), 1);
            assert!(rs[0].pure);
            assert_eq!(rs[0].rules.len(), 1);
            let rule = rs[0].rules[0];
            assert!(matches!(rule.kind, FeatureKind::SameStream(_, _)));
            assert_eq!(rule.value, class == 1);
        }
    }

    #[test]
    fn phrase_matches_paper_style() {
        let sp = space();
        let a = sp.op_by_name("a").unwrap();
        let b = sp.op_by_name("b").unwrap();
        let r = Rule {
            kind: FeatureKind::SameStream(a, b),
            value: false,
        };
        assert_eq!(r.phrase(&sp), "a different stream than b");
        let r2 = Rule {
            kind: FeatureKind::Before(a, b),
            value: false,
        };
        assert_eq!(r2.phrase(&sp), "b before a");
    }

    #[test]
    fn comparison_classifies_extra_and_missing() {
        let k1 = FeatureKind::Before(0, 1);
        let k2 = FeatureKind::Before(0, 2);
        let k3 = FeatureKind::SameStream(0, 1);
        let canon = vec![RuleSet {
            rules: vec![
                Rule {
                    kind: k1,
                    value: true,
                },
                Rule {
                    kind: k2,
                    value: true,
                },
            ],
            class: 0,
            samples: 10,
            class_counts: vec![10],
            pure: true,
        }];
        // Overconstrained: superset of the canonical conditions.
        let over = RuleSet {
            rules: vec![
                Rule {
                    kind: k1,
                    value: true,
                },
                Rule {
                    kind: k2,
                    value: true,
                },
                Rule {
                    kind: k3,
                    value: false,
                },
            ],
            class: 0,
            samples: 5,
            class_counts: vec![5],
            pure: true,
        };
        let c = compare_to_canonical(&over, &canon).unwrap();
        assert!(c.missing.is_empty());
        assert_eq!(c.extra.len(), 1);
        assert_eq!(c.shared.len(), 2);
        // Underconstrained: misses a canonical condition.
        let under = RuleSet {
            rules: vec![Rule {
                kind: k1,
                value: true,
            }],
            class: 0,
            samples: 5,
            class_counts: vec![5],
            pure: true,
        };
        let c = compare_to_canonical(&under, &canon).unwrap();
        assert_eq!(
            c.missing,
            vec![Rule {
                kind: k2,
                value: true
            }]
        );
    }

    #[test]
    fn comparison_requires_matching_class() {
        let canon = vec![RuleSet {
            rules: vec![],
            class: 1,
            samples: 1,
            class_counts: vec![0, 1],
            pure: true,
        }];
        let cand = RuleSet {
            rules: vec![],
            class: 0,
            samples: 1,
            class_counts: vec![1, 0],
            pure: true,
        };
        assert!(compare_to_canonical(&cand, &canon).is_none());
    }

    #[test]
    fn rulesets_sorted_by_support() {
        let mk = |samples| RuleSet {
            rules: vec![],
            class: 0,
            samples,
            class_counts: vec![samples],
            pure: true,
        };
        let sets = vec![mk(3), mk(10), mk(7)];
        let sorted = rulesets_for_class(&sets, 0);
        let counts: Vec<usize> = sorted.iter().map(|r| r.samples).collect();
        assert_eq!(counts, vec![10, 7, 3]);
    }
}
