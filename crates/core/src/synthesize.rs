//! Rule application: constructing an implementation that follows a mined
//! ruleset (paper Section V: "program implementors may take any ruleset
//! that corresponds to the desired performance class and follow the rules
//! in their implementation. Doing so will ensure the performance of the
//! implementation falls within that class.").
//!
//! A ruleset is compiled once into [`Constraints`] on the decision space.
//! Canonical stream numbering only relabels streams, so a traversal's
//! order and its stream binding are independent choices and the rules
//! split into two exact problems: `Before` rules add precedence edges to
//! the DAG (satisfiable iff the union stays acyclic), and `SameStream`
//! rules become stream classes with "different stream" edges between
//! them (satisfiable iff the classes can be coloured with the available
//! streams). [`Constraints::admits`] tells whether a satisfying traversal
//! still extends a prefix by one more placement, so a walk filtered by
//! it only enters subtrees that hold a satisfying leaf.

use dr_dag::{DecisionSpace, OpId, Placement, Prefix, StreamId, Traversal};
use dr_ml::{FeatureKind, Rule};

/// A ruleset compiled against one decision space.
#[derive(Debug)]
pub struct Constraints {
    /// Per op: bitmask of the ops the rules require before it.
    after: Vec<u64>,
    /// Per op: its stream class, for ops named by a `SameStream` rule.
    class_of: Vec<Option<usize>>,
    /// Per class: bitmask of its member ops.
    members: Vec<u64>,
    /// Per class: the classes it must not share a stream with.
    apart: Vec<Vec<usize>>,
    num_streams: usize,
}

impl Constraints {
    /// Compiles `rules`, drawn from [`dr_ml::feature_universe`] of
    /// `space` as mined rules are, into constraints. Fails, naming the
    /// reason, exactly when no traversal of `space` satisfies every rule.
    pub fn compile(space: &DecisionSpace, rules: &[Rule]) -> Result<Self, String> {
        let n = space.num_ops();
        let name = |op: OpId| space.ops()[op].name.as_str();
        let mut after = vec![0u64; n];
        let mut root: Vec<OpId> = (0..n).collect();
        let mut apart_ops = Vec::new();
        let mut in_rule = 0u64;
        for r in rules {
            match r.kind {
                FeatureKind::Before(u, v) => {
                    let (first, second) = if r.value { (u, v) } else { (v, u) };
                    after[second] |= 1 << first;
                }
                FeatureKind::SameStream(u, v) => {
                    in_rule |= 1 << u | 1 << v;
                    if r.value {
                        let (a, b) = (find(&mut root, u), find(&mut root, v));
                        root[a] = b;
                    } else {
                        apart_ops.push((u, v));
                    }
                }
            }
        }

        // Kahn's algorithm over DAG ∪ rule edges, one ready layer at a
        // time: every op must become ready once its predecessors are done.
        let preds: Vec<u64> = (0..n)
            .map(|op| {
                space
                    .op_preds(op)
                    .iter()
                    .fold(after[op], |m, &u| m | 1 << u)
            })
            .collect();
        let mut done = 0u64;
        loop {
            let ready = (0..n)
                .filter(|&op| done >> op & 1 == 0 && preds[op] & !done == 0)
                .fold(0u64, |m, op| m | 1 << op);
            if ready == 0 {
                break;
            }
            done |= ready;
        }
        if done.count_ones() as usize != n {
            let stuck: Vec<&str> = (0..n).filter(|&op| done >> op & 1 == 0).map(name).collect();
            return Err(format!(
                "the order rules form a cycle with the DAG; no order places {}",
                stuck.join(", ")
            ));
        }

        let mut class_of = vec![None; n];
        let mut members: Vec<u64> = Vec::new();
        for op in (0..n).filter(|&op| in_rule >> op & 1 == 1) {
            let r = find(&mut root, op);
            let class = *class_of[r].get_or_insert_with(|| {
                members.push(0);
                members.len() - 1
            });
            class_of[op] = Some(class);
            members[class] |= 1 << op;
        }
        let mut apart = vec![Vec::new(); members.len()];
        for (u, v) in apart_ops {
            let (Some(cu), Some(cv)) = (class_of[u], class_of[v]) else {
                unreachable!("every op of a SameStream rule has a class");
            };
            if cu == cv {
                return Err(format!(
                    "{} and {} must share a stream and must not",
                    name(u),
                    name(v)
                ));
            }
            apart[cu].push(cv);
            apart[cv].push(cu);
        }
        let c = Constraints {
            after,
            class_of,
            members,
            apart,
            num_streams: space.num_streams(),
        };
        if !c.colourable(&mut vec![None; c.members.len()]) {
            return Err(format!(
                "the stream rules need more than {} stream(s)",
                c.num_streams
            ));
        }
        Ok(c)
    }

    /// Whether some traversal satisfying every rule extends `prefix`
    /// followed by `p`. Exact for prefixes built from placements this
    /// method admitted, which is every prefix of a walk filtered by it.
    pub fn admits(&self, prefix: &Prefix, p: Placement) -> bool {
        if prefix.placed_mask() & self.after[p.op] != self.after[p.op] {
            return false;
        }
        let (Some(class), Some(stream)) = (self.class_of[p.op], p.stream) else {
            return true;
        };
        let mut colour: Vec<Option<StreamId>> = self
            .members
            .iter()
            .map(|&m| match m & prefix.placed_mask() {
                0 => None,
                placed => prefix.stream_of(placed.trailing_zeros() as usize),
            })
            .collect();
        match colour[class] {
            Some(s) => s == stream,
            None => {
                self.fits(&colour, class, stream) && {
                    colour[class] = Some(stream);
                    self.colourable(&mut colour)
                }
            }
        }
    }

    /// Whether `class` may take `stream` next to the coloured classes.
    fn fits(&self, colour: &[Option<StreamId>], class: usize, stream: StreamId) -> bool {
        self.apart[class].iter().all(|&d| colour[d] != Some(stream))
    }

    /// Whether the uncoloured classes can take streams that keep every
    /// "different stream" pair apart, the coloured classes kept as they
    /// are. Backtracking; rulesets name few classes.
    fn colourable(&self, colour: &mut [Option<StreamId>]) -> bool {
        let Some(class) = colour.iter().position(Option::is_none) else {
            return true;
        };
        for s in 0..self.num_streams {
            if self.fits(colour, class, s) {
                colour[class] = Some(s);
                if self.colourable(colour) {
                    return true;
                }
            }
        }
        colour[class] = None;
        false
    }
}

/// Union-find root of `op`, halving paths on the way.
fn find(root: &mut [OpId], mut op: OpId) -> OpId {
    while root[op] != op {
        root[op] = root[root[op]];
        op = root[op];
    }
    op
}

/// Builds the first traversal, in canonical enumeration order, that
/// satisfies every rule: a greedy descent through the placements
/// [`Constraints::admits`] accepts, which never needs to backtrack.
/// Fails, naming the reason, when no traversal satisfies the rules.
pub fn synthesize(space: &DecisionSpace, rules: &[Rule]) -> Result<Traversal, String> {
    let constraints = Constraints::compile(space, rules)?;
    let mut prefix = space.empty_prefix();
    while prefix.len() < space.num_ops() {
        let p = space
            .eligible(&prefix)
            .into_iter()
            .find(|&p| constraints.admits(&prefix, p))
            .expect("an admitted prefix has an admitted next placement");
        space.apply(&mut prefix, p);
    }
    Ok(Traversal {
        steps: prefix.steps().to_vec(),
    })
}

/// Checks a complete traversal against a ruleset.
pub fn satisfies(space: &DecisionSpace, t: &Traversal, rules: &[Rule]) -> bool {
    let pos = t.positions(space.num_ops());
    let streams = t.streams(space.num_ops());
    rules.iter().all(|r| match r.kind {
        FeatureKind::Before(u, v) => (pos[u] < pos[v]) == r.value,
        FeatureKind::SameStream(u, v) => (streams[u] == streams[v]) == r.value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_dag::{CostKey, DagBuilder, OpSpec};

    fn space() -> DecisionSpace {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        DecisionSpace::new(b.build().unwrap(), 2).unwrap()
    }

    fn rule(kind: FeatureKind, value: bool) -> Rule {
        Rule { kind, value }
    }

    #[test]
    fn synthesizes_ordering_rules() {
        let sp = space();
        let a = sp.op_by_name("a").unwrap();
        let b = sp.op_by_name("b").unwrap();
        let rules = vec![rule(FeatureKind::Before(a, b), false)]; // b before a
        let t = synthesize(&sp, &rules).expect("satisfiable");
        assert!(satisfies(&sp, &t, &rules));
        sp.validate(&t).unwrap();
        let pos = t.positions(sp.num_ops());
        assert!(pos[b] < pos[a]);
    }

    #[test]
    fn synthesizes_stream_rules() {
        let sp = space();
        let a = sp.op_by_name("a").unwrap();
        let b = sp.op_by_name("b").unwrap();
        for value in [true, false] {
            let rules = vec![rule(FeatureKind::SameStream(a, b), value)];
            let t = synthesize(&sp, &rules).expect("satisfiable");
            assert!(satisfies(&sp, &t, &rules), "value={value}");
        }
    }

    #[test]
    fn contradictory_rules_are_unsatisfiable() {
        let sp = space();
        let a = sp.op_by_name("a").unwrap();
        let b = sp.op_by_name("b").unwrap();
        let rules = vec![
            rule(FeatureKind::Before(a, b), true),
            rule(FeatureKind::Before(a, b), false),
        ];
        assert!(synthesize(&sp, &rules).is_err());
    }

    #[test]
    fn dag_constrained_rules_are_unsatisfiable() {
        let sp = space();
        let a = sp.op_by_name("a").unwrap();
        let c = sp.op_by_name("c").unwrap();
        // c before a contradicts the DAG edge a -> c.
        let rules = vec![rule(FeatureKind::Before(a, c), false)];
        assert!(synthesize(&sp, &rules).is_err());
    }

    #[test]
    fn contradictory_stream_rules_are_unsatisfiable() {
        let sp = space();
        let a = sp.op_by_name("a").unwrap();
        let b = sp.op_by_name("b").unwrap();
        let both = vec![
            rule(FeatureKind::SameStream(a, b), true),
            rule(FeatureKind::SameStream(a, b), false),
        ];
        let why = synthesize(&sp, &both).unwrap_err();
        assert!(why.contains("must share a stream and must not"), "{why}");
        let one_stream = DecisionSpace::new(sp.dag().clone(), 1).unwrap();
        let apart = vec![rule(FeatureKind::SameStream(a, b), false)];
        let why = synthesize(&one_stream, &apart).unwrap_err();
        assert!(why.contains("more than 1 stream"), "{why}");
    }

    #[test]
    fn implied_stream_constraints_are_seen_before_the_dead_end() {
        // Halo's pattern: `x`, `z` and `pz` share a stream and `i` must
        // differ from `x`, so `i` and `pz` differ too, though no rule
        // names that pair. Eight unordered kernels sit between `pz` and
        // `x` (8! orders times 2^8 bindings), so the implied constraint
        // must be seen when `pz` is placed, not searched out below it.
        let mut b = DagBuilder::new();
        let i = b.add("i", OpSpec::GpuKernel(CostKey::new("i")));
        let pz = b.add("pz", OpSpec::GpuKernel(CostKey::new("pz")));
        let z = b.add("z", OpSpec::GpuKernel(CostKey::new("z")));
        let x = b.add("x", OpSpec::GpuKernel(CostKey::new("x")));
        b.edge(i, pz);
        for k in 0..8 {
            let f = b.add(format!("f{k}"), OpSpec::GpuKernel(CostKey::new("f")));
            b.edge(pz, f);
            b.edge(f, z);
        }
        b.edge(z, x);
        let sp = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let op = |n: &str| sp.op_by_name(n).unwrap();
        let rules = vec![
            rule(FeatureKind::SameStream(op("pz"), op("z")), true),
            rule(FeatureKind::SameStream(op("z"), op("x")), true),
            rule(FeatureKind::SameStream(op("i"), op("x")), false),
        ];
        let t = synthesize(&sp, &rules).expect("satisfiable");
        assert!(satisfies(&sp, &t, &rules));
        let streams = t.streams(sp.num_ops());
        assert_ne!(streams[op("i")], streams[op("pz")]);
        // The exact filter refuses `pz` on `i`'s stream at once.
        let c = Constraints::compile(&sp, &rules).unwrap();
        let mut prefix = sp.empty_prefix();
        let on = |op, s| Placement {
            op,
            stream: Some(s),
        };
        sp.apply(&mut prefix, on(op("i"), 0));
        assert!(!c.admits(&prefix, on(op("pz"), 0)));
        assert!(c.admits(&prefix, on(op("pz"), 1)));
    }

    #[test]
    fn empty_ruleset_synthesizes_any_traversal() {
        let sp = space();
        let t = synthesize(&sp, &[]).expect("any traversal works");
        sp.validate(&t).unwrap();
    }

    #[test]
    fn combined_rules_are_respected() {
        let sp = space();
        let a = sp.op_by_name("a").unwrap();
        let b = sp.op_by_name("b").unwrap();
        let cer_a = sp.op_by_name("CER-after-a").unwrap();
        let rules = vec![
            rule(FeatureKind::Before(a, b), false),
            rule(FeatureKind::SameStream(a, b), false),
            rule(FeatureKind::Before(b, cer_a), true),
        ];
        let t = synthesize(&sp, &rules).expect("satisfiable");
        assert!(satisfies(&sp, &t, &rules));
    }
}
