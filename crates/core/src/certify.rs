//! Static rule certification: proving that following a mined ruleset
//! cannot produce a schedule the linter rejects.
//!
//! The paper's contract is that an implementor who follows every rule of
//! a fast-class ruleset lands in the fast performance class. This module
//! checks the *safety* half of that contract statically: for each mined
//! ruleset, the incremental space-level linter walks exactly the
//! schedules satisfying the ruleset (its compiled [`Constraints`] filter
//! the decision-space walk, which descends only into subtrees holding a
//! satisfying schedule) and verifies each one is free of
//! error-severity diagnostics — races, deadlocks, malformed schedules.
//! A ruleset whose every satisfying schedule lints clean is *certified*;
//! the first offending schedule otherwise becomes the counterexample.

use crate::synthesize::Constraints;
use dr_dag::DecisionSpace;
use dr_lint::{lint_space_incremental, CommTopology, LintCounters, SpaceLintStats};
use dr_ml::RuleSet;

/// Certification verdict of one mined ruleset.
#[derive(Debug, Clone)]
pub struct RulesetCertificate {
    /// Performance class of the ruleset's leaf (0 = fastest).
    pub class: usize,
    /// Training samples behind the ruleset.
    pub samples: usize,
    /// Whether the leaf held a single class.
    pub pure: bool,
    /// Human-readable conditions, root-first.
    pub predicates: Vec<String>,
    /// Schedules satisfying the ruleset that were linted.
    pub schedules_checked: u64,
    /// Whether the walk stopped at the schedule cap (an inconclusive,
    /// therefore uncertified, verdict).
    pub truncated: bool,
    /// Error-severity diagnostics across the satisfying schedules.
    pub errors: u64,
    /// Warning-severity diagnostics (do not block certification).
    pub warnings: u64,
    /// Happens-before races among the errors.
    pub races: u64,
    /// MPI deadlocks among the errors.
    pub deadlocks: u64,
    /// Certified: at least one schedule satisfies the ruleset, every
    /// satisfying schedule was checked, and none had an error-severity
    /// diagnostic.
    pub certified: bool,
    /// The first offending schedule's first error, rendered (`None` when
    /// certified).
    pub first_counterexample: Option<String>,
}

/// Outcome of certifying a whole mined ruleset collection.
#[derive(Debug, Clone)]
pub struct Certification {
    /// Number of performance classes in the mining.
    pub classes: usize,
    /// One certificate per mined ruleset, in mining order.
    pub rulesets: Vec<RulesetCertificate>,
    /// Whether every fast-class (class 0) ruleset is certified — the
    /// CI gate. Vacuously true when the mining produced no fast-class
    /// ruleset.
    pub all_fast_certified: bool,
}

impl Certification {
    /// Certificates of uncertified fast-class rulesets (the gate's
    /// offenders).
    pub fn uncertified_fast(&self) -> impl Iterator<Item = &RulesetCertificate> {
        self.rulesets
            .iter()
            .filter(|c| c.class == 0 && !c.certified)
    }
}

/// Certifies every ruleset in `rulesets` against `space`: for each, the
/// incremental linter walks the schedules satisfying the ruleset's
/// conditions (up to `max_schedules`; `0` = unlimited) and checks them
/// for error-severity diagnostics. Pass a [`CommTopology`] to include
/// deadlock detection — without one only happens-before and redundancy
/// analyses run.
pub fn certify_rulesets(
    space: &DecisionSpace,
    topo: Option<&CommTopology>,
    rulesets: &[RuleSet],
    classes: usize,
    max_schedules: u64,
) -> Certification {
    let certificates: Vec<RulesetCertificate> = rulesets
        .iter()
        .map(|rs| certify_one(space, topo, rs, max_schedules))
        .collect();
    let all_fast_certified = certificates
        .iter()
        .filter(|c| c.class == 0)
        .all(|c| c.certified);
    Certification {
        classes,
        rulesets: certificates,
        all_fast_certified,
    }
}

fn certify_one(
    space: &DecisionSpace,
    topo: Option<&CommTopology>,
    rs: &RuleSet,
    max_schedules: u64,
) -> RulesetCertificate {
    let mut counters = LintCounters::default();
    let mut first_counterexample: Option<String> = None;
    // An unsatisfiable ruleset walks nothing and checks nothing.
    let stats = match Constraints::compile(space, &rs.rules) {
        Ok(constraints) => lint_space_incremental(
            space,
            topo,
            max_schedules,
            Some(&mut |prefix, p| constraints.admits(prefix, p)),
            &mut |i, _prefix, report| {
                if first_counterexample.is_none() {
                    if let Some(d) = report.errors().next() {
                        first_counterexample = Some(format!("schedule #{i}: {}", d.render()));
                    }
                }
                counters.absorb(report);
            },
        ),
        Err(_) => SpaceLintStats::default(),
    };
    let certified = counters.errors == 0 && !stats.truncated && stats.schedules > 0;
    RulesetCertificate {
        class: rs.class,
        samples: rs.samples,
        pure: rs.pure,
        predicates: rs.rules.iter().map(|r| r.phrase(space)).collect(),
        schedules_checked: stats.schedules,
        truncated: stats.truncated,
        errors: counters.errors,
        warnings: counters.warnings,
        races: counters.races,
        deadlocks: counters.deadlocks,
        certified,
        first_counterexample,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_dag::{CommKey, CostKey, DagBuilder, OpSpec};
    use dr_ml::{FeatureKind, Rule};

    fn kernel_space() -> DecisionSpace {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        DecisionSpace::new(b.build().unwrap(), 2).unwrap()
    }

    fn ruleset(rules: Vec<Rule>, class: usize) -> RuleSet {
        RuleSet {
            rules,
            class,
            samples: 10,
            class_counts: vec![10],
            pure: true,
        }
    }

    #[test]
    fn clean_space_certifies_every_ruleset() {
        let sp = kernel_space();
        let a = sp.op_by_name("a").unwrap();
        let b = sp.op_by_name("b").unwrap();
        let sets = vec![
            ruleset(vec![], 0),
            ruleset(
                vec![Rule {
                    kind: FeatureKind::Before(a, b),
                    value: true,
                }],
                1,
            ),
        ];
        let cert = certify_rulesets(&sp, None, &sets, 2, 0);
        assert_eq!(cert.classes, 2);
        assert!(cert.all_fast_certified);
        for c in &cert.rulesets {
            assert!(c.certified, "{:?}", c.first_counterexample);
            assert_eq!(c.errors, 0);
            assert!(!c.truncated);
            assert!(c.first_counterexample.is_none());
        }
        // The empty ruleset admits the whole space; the constrained one
        // admits a strict subset.
        assert_eq!(
            cert.rulesets[0].schedules_checked as u128,
            sp.count_traversals()
        );
        assert!(cert.rulesets[1].schedules_checked < cert.rulesets[0].schedules_checked);
        assert!(cert.rulesets[1].schedules_checked > 0);
        assert_eq!(cert.rulesets[1].predicates.len(), 1);
    }

    #[test]
    fn deadlocking_subset_fails_certification_with_a_counterexample() {
        // Rendezvous exchange: orders where WaitSends precedes the
        // remote PostRecvs deadlock. A ruleset that *requires* the wait
        // before the post admits only deadlocked schedules.
        let key = CommKey::new("x");
        let mut b = DagBuilder::new();
        let ps = b.add("ps", OpSpec::PostSends(key.clone()));
        let pr = b.add("pr", OpSpec::PostRecvs(key.clone()));
        let ws = b.add("ws", OpSpec::WaitSends(key.clone()));
        let wr = b.add("wr", OpSpec::WaitRecvs(key.clone()));
        b.edge(ps, ws);
        b.edge(pr, wr);
        b.edge(ps, wr);
        let sp = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let mut topo = CommTopology::new(2).with_eager_threshold(1024);
        topo.all_to_all(key, 1 << 20);
        let ws_op = sp.op_by_name("ws").unwrap();
        let pr_op = sp.op_by_name("pr").unwrap();
        let doomed = ruleset(
            vec![Rule {
                kind: FeatureKind::Before(pr_op, ws_op),
                value: false, // ws before pr: every completion deadlocks
            }],
            0,
        );
        let safe = ruleset(
            vec![Rule {
                kind: FeatureKind::Before(pr_op, ws_op),
                value: true,
            }],
            0,
        );
        let cert = certify_rulesets(&sp, Some(&topo), &[doomed, safe], 1, 0);
        assert!(!cert.all_fast_certified);
        let d = &cert.rulesets[0];
        assert!(!d.certified);
        assert!(d.deadlocks > 0);
        assert!(d
            .first_counterexample
            .as_deref()
            .is_some_and(|s| s.contains("MPI")));
        let s = &cert.rulesets[1];
        assert!(s.certified, "{:?}", s.first_counterexample);
        assert_eq!(cert.uncertified_fast().count(), 1);
    }

    #[test]
    fn unsatisfiable_rulesets_are_not_certified() {
        let sp = kernel_space();
        let a = sp.op_by_name("a").unwrap();
        let b = sp.op_by_name("b").unwrap();
        let contradiction = ruleset(
            [true, false]
                .into_iter()
                .map(|value| Rule {
                    kind: FeatureKind::Before(a, b),
                    value,
                })
                .collect(),
            0,
        );
        let cert = certify_rulesets(&sp, None, &[contradiction], 1, 0);
        let c = &cert.rulesets[0];
        assert_eq!(c.schedules_checked, 0);
        assert!(!c.truncated);
        assert!(!c.certified, "nothing was checked");
        assert!(!cert.all_fast_certified);
    }

    #[test]
    fn a_cap_equal_to_the_satisfying_count_certifies() {
        // `a before b` holds on 6 of the 12 kernel-space schedules. A cap
        // of 6 checks all of them, so the walk is complete even though
        // refused candidates remain after the sixth; a cap of 5 leaves a
        // satisfying schedule unchecked.
        let sp = kernel_space();
        let a = sp.op_by_name("a").unwrap();
        let b = sp.op_by_name("b").unwrap();
        let sets = vec![ruleset(
            vec![Rule {
                kind: FeatureKind::Before(a, b),
                value: true,
            }],
            0,
        )];
        let full = certify_rulesets(&sp, None, &sets, 1, 0);
        assert_eq!(full.rulesets[0].schedules_checked, 6);
        let at_cap = certify_rulesets(&sp, None, &sets, 1, 6);
        let c = &at_cap.rulesets[0];
        assert_eq!(c.schedules_checked, 6);
        assert!(!c.truncated, "every satisfying schedule was checked");
        assert!(c.certified);
        let below = certify_rulesets(&sp, None, &sets, 1, 5);
        let c = &below.rulesets[0];
        assert_eq!(c.schedules_checked, 5);
        assert!(c.truncated);
        assert!(!c.certified);
    }

    #[test]
    fn truncated_walks_are_not_certified() {
        let sp = kernel_space();
        let sets = vec![ruleset(vec![], 0)];
        let cert = certify_rulesets(&sp, None, &sets, 1, 1);
        assert!(cert.rulesets[0].truncated);
        assert!(!cert.rulesets[0].certified);
        assert!(!cert.all_fast_certified);
    }
}
