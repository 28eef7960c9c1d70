//! Monte-Carlo tree search over traversal prefixes (paper Section III-C).
//!
//! The tree's nodes are placements; a node's ancestors form the prefix
//! `P_k` taken to reach it. Each iteration runs four phases:
//!
//! 1. **Selection** — recursively pick the child maximizing
//!    `exploration + exploitation`, where exploration is the UCT term
//!    `c·sqrt(ln N / n)` (−∞ for fully explored subtrees) and exploitation
//!    is the *coverage ratio* `V = (t_max^c − t_min^c)/(t_max^p − t_min^p)`
//!    (1 until both sides have two observations). Selection stops at any
//!    node with an unvisited child.
//! 2. **Expansion** — materialize one zero-rollout child of the selected
//!    node.
//! 3. **Rollout** — randomly complete the prefix into a full traversal,
//!    benchmark it, and record the measurement percentiles alongside the
//!    sequence. The rollout's nodes are added to the tree to retain their
//!    performance information.
//! 4. **Backpropagation** — update `(n, t_min, t_max)` on every node along
//!    the path.
//!
//! For MPI programs, the paper executes the search on a single rank with
//! all ranks participating in measurements; here the "measurement" is the
//! platform simulator, so the search is just a sequential loop.

use crate::eval::Evaluator;
use crate::telemetry::{SearchTelemetry, TelemetryRow};
use dr_dag::{eval_seed, DecisionSpace, Placement, Prefix, Traversal};
use dr_obs::events::EventSink;
use dr_sim::{BenchResult, SimError};
use dr_trace::Lane;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The exploitation term of the selection rule. The paper uses
/// [`Exploitation::CoverageRange`]; the alternatives are the baselines its
/// future work calls for ("other MCTS strategies should be considered").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Exploitation {
    /// Paper Section III-C-1: the child's observed time range as a
    /// fraction of the parent's — favors subtrees where design decisions
    /// have a large performance impact.
    #[default]
    CoverageRange,
    /// Classic minimizing UCT: `(t_max^root − mean_child) / (t_max^root −
    /// t_min^root)` — favors *fast* subtrees, the usual choice when MCTS
    /// hunts a single optimum rather than mapping the landscape.
    MeanTime,
    /// Constant 1: selection degenerates to pure UCT exploration.
    Constant,
}

/// Search hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MctsConfig {
    /// Exploration constant `c` (paper: √2).
    pub exploration_c: f64,
    /// Exploitation signal (paper: coverage range).
    pub exploitation: Exploitation,
    /// Seed for rollout randomness and per-evaluation noise seeds.
    pub seed: u64,
    /// Evaluator errors tolerated before the search aborts. Each failing
    /// traversal is quarantined (its subtree is marked fully explored, no
    /// record is added, no statistics are backpropagated) and the search
    /// continues; once more than `max_failures` distinct traversals have
    /// failed, the next error propagates. `0` (the default) keeps the
    /// pre-chaos fail-fast behavior.
    pub max_failures: usize,
}

impl Default for MctsConfig {
    fn default() -> Self {
        MctsConfig {
            exploration_c: std::f64::consts::SQRT_2,
            exploitation: Exploitation::default(),
            seed: 0,
            max_failures: 0,
        }
    }
}

/// Aggregate statistics of an MCTS search tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeStats {
    /// Materialized tree nodes.
    pub nodes: usize,
    /// Deepest materialized node (root = 0).
    pub max_depth: usize,
    /// Nodes whose subtrees are fully benchmarked.
    pub fully_explored: usize,
    /// Total rollouts backpropagated through the root.
    pub rollouts: u64,
    /// Fastest time observed anywhere.
    pub t_min: f64,
    /// Slowest time observed anywhere.
    pub t_max: f64,
}

/// Statistics of one materialized tree node, exported by
/// [`Mcts::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStat {
    /// Depth below the root (root = 0).
    pub depth: usize,
    /// The placement on the incoming edge (`None` for the root).
    pub action: Option<Placement>,
    /// Rollouts backpropagated through this node.
    pub visits: u64,
    /// Fastest simulated time observed in this node's subtree.
    pub t_min: f64,
    /// Slowest simulated time observed in this node's subtree.
    pub t_max: f64,
    /// Mean simulated time over the node's rollouts (NaN when
    /// unvisited).
    pub t_mean: f64,
    /// Materialized children.
    pub children: usize,
    /// Whether the subtree is fully benchmarked.
    pub fully_explored: bool,
}

/// One principal variation: a root-to-leaf path following the
/// most-visited materialized child at every level.
#[derive(Debug, Clone, PartialEq)]
pub struct PrincipalVariation {
    /// The placements along the path, root first.
    pub steps: Vec<Placement>,
    /// Visit count of the opening placement (the ranking key).
    pub visits: u64,
    /// Fastest time observed at the path's end.
    pub t_min: f64,
    /// Mean time over the opening placement's rollouts.
    pub t_mean: f64,
}

/// A full introspection snapshot of the search tree, exported by
/// [`Mcts::snapshot`] for the `explain` command.
#[derive(Debug, Clone)]
pub struct TreeSnapshot {
    /// Aggregate tree statistics (same as [`Mcts::stats`]).
    pub stats: TreeStats,
    /// Whether every traversal in the space has been benchmarked.
    pub exhausted: bool,
    /// Iterations executed so far.
    pub iterations: u64,
    /// Distinct traversals quarantined after evaluator errors.
    pub failures: usize,
    /// Materialized node count per depth (index = depth; `[0]` is 1).
    pub depth_profile: Vec<usize>,
    /// The most-visited nodes, visit-count descending (capped by the
    /// `max_nodes` argument).
    pub nodes: Vec<NodeStat>,
    /// Top-k principal variations, opening-visits descending.
    pub principal_variations: Vec<PrincipalVariation>,
}

/// One explored implementation: the traversal and its measurements.
#[derive(Debug, Clone)]
pub struct ExploredRecord {
    /// The complete traversal.
    pub traversal: Traversal,
    /// The measurement record (percentiles over measurements).
    pub result: BenchResult,
}

/// A static prefix filter installed via [`Mcts::set_prune`]: return
/// `true` when *every* completion of the prefix is provably worthless
/// (e.g. statically deadlocked), and the search retires the subtree
/// without spending a single evaluation in it. The hook owns its data
/// (`'static`) so the same closure serves serial and shared-tree
/// searches.
pub type PruneHook = std::sync::Arc<dyn Fn(&Prefix) -> bool + Send + Sync>;

/// Outcome of one search iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A rollout completed; `record` indexes [`Mcts::records`], `new` is
    /// false when the rollout regenerated an already-benchmarked
    /// traversal (its cached measurement is reused).
    Explored {
        /// Index into the record list.
        record: usize,
        /// Whether this traversal was first seen this iteration.
        new: bool,
    },
    /// Every traversal in the space has been benchmarked.
    Exhausted,
    /// The rollout's evaluation failed and the traversal was quarantined
    /// (tolerated under [`MctsConfig::max_failures`]): no record was
    /// added, no statistics were backpropagated, and the offending
    /// subtree was marked fully explored so the search moves on.
    Quarantined,
    /// The expanded prefix was rejected by the [`PruneHook`]: its whole
    /// subtree was retired without a rollout or an evaluation.
    Pruned,
}

type NodeId = usize;

struct Node {
    children: Vec<(Placement, NodeId)>,
    /// Number of eligible placements at this node's prefix.
    num_actions: usize,
    /// Children whose subtrees are fully explored.
    fully_explored_children: usize,
    fully_explored: bool,
    /// Whether this node's fully-explored state has been counted in its
    /// parent's `fully_explored_children` (each child counts once).
    counted_in_parent: bool,
    n: u64,
    t_min: f64,
    t_max: f64,
    t_sum: f64,
}

impl Node {
    fn new(num_actions: usize) -> Self {
        Node {
            children: Vec::new(),
            num_actions,
            fully_explored_children: 0,
            fully_explored: num_actions == 0,
            counted_in_parent: false,
            n: 0,
            t_min: f64::INFINITY,
            t_max: f64::NEG_INFINITY,
            t_sum: 0.0,
        }
    }

    fn child(&self, p: Placement) -> Option<NodeId> {
        self.children
            .iter()
            .find(|&&(q, _)| q == p)
            .map(|&(_, id)| id)
    }
}

/// The Monte-Carlo tree search state.
pub struct Mcts<'a, E: Evaluator> {
    space: &'a DecisionSpace,
    eval: E,
    cfg: MctsConfig,
    nodes: Vec<Node>,
    records: Vec<ExploredRecord>,
    /// Canonical-hash index into `records` (values are candidate record
    /// indices; equality is re-checked, so a hash collision costs a probe
    /// and never a misattributed measurement). Keyed by hash rather than
    /// by owned `Traversal` so recording a rollout moves the traversal
    /// into its record instead of cloning it.
    seen: HashMap<u64, Vec<usize>>,
    /// Canonical-hash index of quarantined traversals (same
    /// collision-tolerant layout as `seen`): re-rolling a known-failed
    /// traversal is skipped without re-evaluating it or consuming
    /// another failure credit.
    failed: HashMap<u64, Vec<Traversal>>,
    failures: usize,
    rng: SmallRng,
    iterations: u64,
    telemetry: SearchTelemetry,
    /// Deepest materialized node, maintained incrementally so telemetry
    /// rows avoid the full-tree walk [`Mcts::stats`] performs.
    max_depth: usize,
    /// Sampled per-iteration tracing: `(lane, every)` set by
    /// [`Mcts::set_trace`]. `None` (the default) costs nothing.
    trace: Option<(Lane, usize)>,
    /// Sampled per-iteration event emission: `(sink, every)` set by
    /// [`Mcts::set_events`]. `None` (the default) costs nothing.
    events: Option<(EventSink, usize)>,
    /// Static prefix filter set by [`Mcts::set_prune`]. `None` (the
    /// default) costs nothing.
    prune: Option<PruneHook>,
    /// Subtrees retired by the prune hook.
    pruned: u64,
}

impl<'a, E: Evaluator> Mcts<'a, E> {
    /// Creates a search over `space` using `eval` to measure rollouts.
    pub fn new(space: &'a DecisionSpace, eval: E, cfg: MctsConfig) -> Self {
        let root_actions = space.eligible(&space.empty_prefix()).len();
        Mcts {
            space,
            eval,
            cfg,
            nodes: vec![Node::new(root_actions)],
            records: Vec::new(),
            seen: HashMap::new(),
            failed: HashMap::new(),
            failures: 0,
            rng: SmallRng::seed_from_u64(cfg.seed),
            iterations: 0,
            telemetry: SearchTelemetry::new(),
            max_depth: 0,
            trace: None,
            events: None,
            prune: None,
            pruned: 0,
        }
    }

    /// Enables sampled iteration tracing: every `every`-th iteration
    /// (starting with the first) records an `mcts-iter` span on `lane`,
    /// annotated with the iteration number, unique-traversal count, tree
    /// size, and the iteration's outcome. Sampling keeps the span volume
    /// proportional to `budget / every` so deep searches stay cheap to
    /// trace; `every` is clamped to at least 1.
    pub fn set_trace(&mut self, lane: Lane, every: usize) {
        self.trace = Some((lane, every.max(1)));
    }

    /// Enables sampled iteration event emission (`mcts-iter` events on
    /// `sink`): the same sampling schedule as [`Mcts::set_trace`] —
    /// iterations 1, 1+`every`, 1+2·`every`, … — carrying the iteration
    /// number, unique-traversal count, tree size/depth, best time, and
    /// the iteration's outcome. Emission only reads search state, so it
    /// cannot perturb the search.
    pub fn set_events(&mut self, sink: EventSink, every: usize) {
        self.events = Some((sink, every.max(1)));
    }

    /// Installs a static prune hook: when expansion materializes a new
    /// child whose prefix the hook rejects, the child's subtree is
    /// immediately marked fully explored — no rollout, no evaluation —
    /// and the iteration reports [`StepOutcome::Pruned`]. The hook must
    /// only reject prefixes whose *every* completion is worthless
    /// (soundness is the caller's obligation; see
    /// `dr-lint`'s `PrefixDeadlockOracle`).
    pub fn set_prune(&mut self, hook: PruneHook) {
        self.prune = Some(hook);
    }

    /// Subtrees retired by the prune hook so far.
    pub fn pruned(&self) -> u64 {
        self.pruned
    }

    /// All explored implementations, in discovery order.
    pub fn records(&self) -> &[ExploredRecord] {
        &self.records
    }

    /// Consumes the search and returns the explored records.
    pub fn into_records(self) -> Vec<ExploredRecord> {
        self.records
    }

    /// Per-iteration telemetry rows (one per [`Mcts::step`] that ran a
    /// rollout).
    pub fn telemetry(&self) -> &SearchTelemetry {
        &self.telemetry
    }

    /// Consumes the search, returning the explored records together with
    /// the telemetry history and the evaluator (whose accumulated
    /// simulator statistics outlive the search).
    pub fn into_parts(self) -> (Vec<ExploredRecord>, SearchTelemetry, E) {
        (self.records, self.telemetry, self.eval)
    }

    /// True when every traversal of the space has been benchmarked.
    pub fn is_exhausted(&self) -> bool {
        self.nodes[0].fully_explored
    }

    /// Number of iterations executed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Number of distinct traversals quarantined after evaluator errors
    /// (bounded by [`MctsConfig::max_failures`]).
    pub fn failures(&self) -> usize {
        self.failures
    }

    /// Number of tree nodes materialized.
    pub fn tree_size(&self) -> usize {
        self.nodes.len()
    }

    /// Aggregate statistics of the search tree.
    pub fn stats(&self) -> TreeStats {
        let mut max_depth = 0usize;
        let mut stack = vec![(0usize, 0usize)];
        let mut fully_explored = 0usize;
        while let Some((id, depth)) = stack.pop() {
            max_depth = max_depth.max(depth);
            if self.nodes[id].fully_explored {
                fully_explored += 1;
            }
            for &(_, c) in &self.nodes[id].children {
                stack.push((c, depth + 1));
            }
        }
        TreeStats {
            nodes: self.nodes.len(),
            max_depth,
            fully_explored,
            rollouts: self.nodes[0].n,
            t_min: self.nodes[0].t_min,
            t_max: self.nodes[0].t_max,
        }
    }

    /// Exports an introspection snapshot of the search tree: aggregate
    /// statistics, the per-depth node profile, the `max_nodes`
    /// most-visited nodes, and the top-`top_k` principal variations.
    ///
    /// A principal variation starts at one of the root's children
    /// (ranked by visit count, descending) and follows the most-visited
    /// materialized child at every level — the search's preferred
    /// completion of that opening decision. Ties break toward the
    /// earlier-materialized child, so the export is deterministic.
    pub fn snapshot(&self, top_k: usize, max_nodes: usize) -> TreeSnapshot {
        // One BFS walk computes depths for stats, profile, and export.
        let mut depth_of = vec![0usize; self.nodes.len()];
        let mut depth_profile: Vec<usize> = Vec::new();
        let mut queue = std::collections::VecDeque::from([0usize]);
        let mut order: Vec<NodeId> = Vec::new();
        while let Some(id) = queue.pop_front() {
            order.push(id);
            let d = depth_of[id];
            if depth_profile.len() <= d {
                depth_profile.resize(d + 1, 0);
            }
            depth_profile[d] += 1;
            for &(_, c) in &self.nodes[id].children {
                depth_of[c] = d + 1;
                queue.push_back(c);
            }
        }

        let action_of = |id: NodeId| -> Option<Placement> {
            // Parent links are not stored; recover the incoming edge by
            // scanning (snapshotting is a once-per-run export, so the
            // quadratic scan is confined to the exported node set).
            self.nodes
                .iter()
                .find_map(|n| n.children.iter().find(|&&(_, c)| c == id).map(|&(p, _)| p))
        };
        let mut ranked: Vec<NodeId> = order.clone();
        ranked.sort_by(|&a, &b| {
            self.nodes[b]
                .n
                .cmp(&self.nodes[a].n)
                .then(depth_of[a].cmp(&depth_of[b]))
                .then(a.cmp(&b))
        });
        let nodes: Vec<NodeStat> = ranked
            .into_iter()
            .take(max_nodes)
            .map(|id| {
                let n = &self.nodes[id];
                NodeStat {
                    depth: depth_of[id],
                    action: if id == 0 { None } else { action_of(id) },
                    visits: n.n,
                    t_min: n.t_min,
                    t_max: n.t_max,
                    t_mean: if n.n > 0 {
                        n.t_sum / n.n as f64
                    } else {
                        f64::NAN
                    },
                    children: n.children.len(),
                    fully_explored: n.fully_explored,
                }
            })
            .collect();

        // Principal variations: top-k root children by visits, each
        // greedily completed along most-visited children.
        let mut openings: Vec<(Placement, NodeId)> = self.nodes[0].children.clone();
        openings.sort_by(|&(_, a), &(_, b)| self.nodes[b].n.cmp(&self.nodes[a].n).then(a.cmp(&b)));
        let principal_variations: Vec<PrincipalVariation> = openings
            .into_iter()
            .take(top_k)
            .filter(|&(_, id)| self.nodes[id].n > 0)
            .map(|(p, id)| {
                let mut steps = vec![p];
                let mut node = id;
                loop {
                    let next = self.nodes[node]
                        .children
                        .iter()
                        .filter(|&&(_, c)| self.nodes[c].n > 0)
                        .max_by(|&&(_, a), &&(_, b)| {
                            self.nodes[a].n.cmp(&self.nodes[b].n).then(b.cmp(&a))
                        })
                        .copied();
                    match next {
                        Some((q, c)) => {
                            steps.push(q);
                            node = c;
                        }
                        None => break,
                    }
                }
                PrincipalVariation {
                    visits: self.nodes[id].n,
                    t_min: self.nodes[node].t_min,
                    t_mean: if self.nodes[id].n > 0 {
                        self.nodes[id].t_sum / self.nodes[id].n as f64
                    } else {
                        f64::NAN
                    },
                    steps,
                }
            })
            .collect();

        TreeSnapshot {
            stats: self.stats(),
            exhausted: self.is_exhausted(),
            iterations: self.iterations,
            failures: self.failures,
            depth_profile,
            nodes,
            principal_variations,
        }
    }

    /// Runs up to `iterations` search iterations (stopping early if the
    /// space is exhausted) and returns the number of *new* traversals
    /// discovered.
    pub fn run(&mut self, iterations: usize) -> Result<usize, SimError> {
        let mut new = 0;
        for _ in 0..iterations {
            match self.step()? {
                StepOutcome::Explored { new: true, .. } => new += 1,
                StepOutcome::Explored { new: false, .. }
                | StepOutcome::Quarantined
                | StepOutcome::Pruned => {}
                StepOutcome::Exhausted => break,
            }
        }
        Ok(new)
    }

    /// Executes one selection → expansion → rollout → backpropagation
    /// iteration.
    pub fn step(&mut self) -> Result<StepOutcome, SimError> {
        // `iterations` is pre-increment here, so iterations 1, 1+every,
        // 1+2·every, … are the sampled ones (both for tracing and for
        // event emission; the two samplers are independent).
        let pre_iter = self.iterations;
        let live = !self.is_exhausted();
        let trace_sampled = match &self.trace {
            Some((_, every)) => live && pre_iter.is_multiple_of(*every as u64),
            None => false,
        };
        let events_sampled = match &self.events {
            Some((sink, every)) => {
                live && sink.is_enabled() && pre_iter.is_multiple_of(*every as u64)
            }
            None => false,
        };
        if trace_sampled {
            if let Some((lane, _)) = &mut self.trace {
                lane.enter("mcts-iter");
            }
        }
        let out = self.step_impl();
        let outcome_name = match &out {
            Ok(StepOutcome::Explored { new: true, .. }) => "new",
            Ok(StepOutcome::Explored { new: false, .. }) => "repeat",
            Ok(StepOutcome::Exhausted) => "exhausted",
            Ok(StepOutcome::Quarantined) => "quarantined",
            Ok(StepOutcome::Pruned) => "pruned",
            Err(_) => "error",
        };
        if trace_sampled {
            if let Some((lane, _)) = &mut self.trace {
                lane.annotate("iteration", self.iterations);
                lane.annotate("unique", self.records.len());
                lane.annotate("tree_nodes", self.nodes.len());
                lane.annotate("outcome", outcome_name);
                lane.exit();
            }
        }
        if events_sampled {
            if let Some((sink, _)) = &self.events {
                sink.emit(
                    "mcts-iter",
                    &[
                        ("iteration", self.iterations.into()),
                        ("unique", self.records.len().into()),
                        ("tree_nodes", self.nodes.len().into()),
                        ("max_depth", self.max_depth.into()),
                        ("best_s", self.nodes[0].t_min.into()),
                        ("outcome", outcome_name.into()),
                    ],
                );
            }
        }
        out
    }

    fn step_impl(&mut self) -> Result<StepOutcome, SimError> {
        if self.is_exhausted() {
            return Ok(StepOutcome::Exhausted);
        }
        self.iterations += 1;

        let mut prefix = self.space.empty_prefix();
        let mut path: Vec<NodeId> = vec![0];
        let mut node: NodeId = 0;

        // Selection: descend while every eligible child exists, has a
        // rollout, and at least one is not fully explored.
        loop {
            let elig = self.space.eligible(&prefix);
            if elig.is_empty() {
                break; // reached a complete traversal
            }
            // Quarantined subtrees are fully explored with zero visits;
            // they don't count as unvisited (nothing left to measure).
            let unvisited_exists = elig.iter().any(|&p| {
                self.nodes[node]
                    .child(p)
                    .is_none_or(|c| self.nodes[c].n == 0 && !self.nodes[c].fully_explored)
            });
            if unvisited_exists {
                break;
            }
            // A node on the selection path is never fully explored (the
            // rule below assigns −∞ to explored subtrees), so at least one
            // selectable child exists.
            let best = self
                .select_child(node, &elig)
                .expect("non-fully-explored node has a selectable child");
            let child = self.nodes[node].child(best).expect("selected child exists");
            self.space.apply(&mut prefix, best);
            path.push(child);
            node = child;
        }

        // Expansion: materialize one zero-rollout child (if the selected
        // node is not itself a complete traversal).
        {
            let elig = self.space.eligible(&prefix);
            if !elig.is_empty() {
                let candidates: Vec<Placement> = elig
                    .iter()
                    .copied()
                    .filter(|&p| {
                        self.nodes[node]
                            .child(p)
                            .is_none_or(|c| self.nodes[c].n == 0 && !self.nodes[c].fully_explored)
                    })
                    .collect();
                let pick = candidates[self.rng.gen_range(0..candidates.len())];
                let child = self.get_or_create_child(node, pick, &mut prefix);
                path.push(child);
                node = child;
                // Static prune: a rejected prefix dooms every completion,
                // so retire the freshly-expanded subtree before spending a
                // rollout on it. (The serial `mark_fully_explored` only
                // propagates; the leaf flag is set explicitly.)
                if let Some(hook) = &self.prune {
                    if hook(&prefix) {
                        self.nodes[node].fully_explored = true;
                        self.mark_fully_explored(&path);
                        self.pruned += 1;
                        return Ok(StepOutcome::Pruned);
                    }
                }
            }
        }

        // Rollout: randomly complete the prefix, materializing nodes.
        let mut rollout_len = 0usize;
        while prefix.len() < self.space.num_ops() {
            let elig = self.space.eligible(&prefix);
            let pick = elig[self.rng.gen_range(0..elig.len())];
            let child = self.get_or_create_child(node, pick, &mut prefix);
            path.push(child);
            node = child;
            rollout_len += 1;
        }

        let traversal = Traversal {
            steps: prefix.steps().to_vec(),
        };
        let hash = traversal.canonical_hash();

        // A rollout can regenerate a traversal that already failed; skip
        // it without re-evaluating or consuming another failure credit.
        if self
            .failed
            .get(&hash)
            .into_iter()
            .flatten()
            .any(|t| *t == traversal)
        {
            self.mark_fully_explored(&path);
            return Ok(StepOutcome::Quarantined);
        }

        let found = self
            .seen
            .get(&hash)
            .into_iter()
            .flatten()
            .copied()
            .find(|&idx| self.records[idx].traversal == traversal);
        let (record_idx, new) = match found {
            Some(idx) => (idx, false),
            None => {
                // Seeded by the traversal's identity (not the discovery
                // index): the measurement is the same wherever and
                // whenever this traversal is rolled out, which is what
                // keeps serial, shared-tree, and sharded searches
                // measuring identically.
                let outcome = self
                    .eval
                    .evaluate(&traversal, eval_seed(self.cfg.seed, &traversal));
                let result = match outcome {
                    Ok(r) => r,
                    Err(e) => {
                        if self.failures >= self.cfg.max_failures {
                            return Err(e);
                        }
                        self.failures += 1;
                        self.failed.entry(hash).or_default().push(traversal);
                        // The terminal node is fully explored at
                        // creation; propagating that up retires the
                        // poisoned subtree so exhaustion accounting
                        // still converges.
                        self.mark_fully_explored(&path);
                        return Ok(StepOutcome::Quarantined);
                    }
                };
                let idx = self.records.len();
                self.records.push(ExploredRecord { traversal, result });
                self.seen.entry(hash).or_default().push(idx);
                (idx, true)
            }
        };
        let t = self.records[record_idx].result.time();

        // Backpropagation: stats on every node along the path, then
        // fully-explored marking bottom-up.
        for &id in &path {
            let n = &mut self.nodes[id];
            n.n += 1;
            n.t_min = n.t_min.min(t);
            n.t_max = n.t_max.max(t);
            n.t_sum += t;
        }
        self.mark_fully_explored(&path);

        self.max_depth = self.max_depth.max(path.len() - 1);
        self.telemetry.push(TelemetryRow {
            iteration: self.iterations,
            unique_traversals: self.records.len(),
            best_time: self.nodes[0].t_min,
            worst_time: self.nodes[0].t_max,
            tree_nodes: self.nodes.len(),
            max_depth: self.max_depth,
            rollout_len,
        });

        Ok(StepOutcome::Explored {
            record: record_idx,
            new,
        })
    }

    /// Bottom-up fully-explored propagation along the iteration path.
    /// A node is fully explored once all `num_actions` children exist and
    /// are fully explored; leaves are fully explored at creation.
    fn mark_fully_explored(&mut self, path: &[NodeId]) {
        for i in (1..path.len()).rev() {
            let child = path[i];
            let parent = path[i - 1];
            if self.nodes[child].fully_explored && !self.nodes[child].counted_in_parent {
                self.nodes[child].counted_in_parent = true;
                self.nodes[parent].fully_explored_children += 1;
            }
            let p = &self.nodes[parent];
            if !p.fully_explored
                && p.children.len() == p.num_actions
                && p.fully_explored_children == p.num_actions
            {
                self.nodes[parent].fully_explored = true;
            }
        }
    }

    /// The explore/exploit selection rule.
    fn select_child(&self, parent: NodeId, elig: &[Placement]) -> Option<Placement> {
        let pn = &self.nodes[parent];
        let parent_range = pn.t_max - pn.t_min;
        let mut best: Option<(f64, Placement)> = None;
        for &p in elig {
            let c = pn
                .child(p)
                .expect("selection only runs with all children visited");
            let ch = &self.nodes[c];
            let explore = if ch.fully_explored {
                f64::NEG_INFINITY
            } else {
                self.cfg.exploration_c * ((pn.n as f64).ln() / ch.n as f64).sqrt()
            };
            let exploit = match self.cfg.exploitation {
                Exploitation::CoverageRange => {
                    if ch.n >= 2 && pn.n >= 2 && parent_range > 0.0 {
                        ((ch.t_max - ch.t_min) / parent_range).clamp(0.0, 1.0)
                    } else {
                        1.0
                    }
                }
                Exploitation::MeanTime => {
                    let root = &self.nodes[0];
                    let root_range = root.t_max - root.t_min;
                    if ch.n >= 1 && root_range > 0.0 {
                        let mean = ch.t_sum / ch.n as f64;
                        ((root.t_max - mean) / root_range).clamp(0.0, 1.0)
                    } else {
                        1.0
                    }
                }
                Exploitation::Constant => 1.0,
            };
            let value = explore + exploit;
            if best.is_none_or(|(bv, _)| value > bv) && value > f64::NEG_INFINITY {
                best = Some((value, p));
            }
        }
        best.map(|(_, p)| p)
    }

    fn get_or_create_child(
        &mut self,
        parent: NodeId,
        p: Placement,
        prefix: &mut dr_dag::Prefix,
    ) -> NodeId {
        if let Some(c) = self.nodes[parent].child(p) {
            self.space.apply(prefix, p);
            return c;
        }
        self.space.apply(prefix, p);
        let num_actions = self.space.eligible(prefix).len();
        let id = self.nodes.len();
        self.nodes.push(Node::new(num_actions));
        self.nodes[parent].children.push((p, id));
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::SimEvaluator;
    use dr_dag::{CostKey, DagBuilder, OpSpec};
    use dr_sim::{BenchConfig, Platform, TableWorkload};

    fn small_space() -> DecisionSpace {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        DecisionSpace::new(b.build().unwrap(), 2).unwrap()
    }

    fn small_workload() -> TableWorkload {
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 5e-5);
        w
    }

    #[test]
    fn search_exhausts_a_small_space_and_finds_all_traversals() {
        let space = small_space();
        let total = space.count_traversals() as usize;
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let mut mcts = Mcts::new(&space, eval, MctsConfig::default());
        let new = mcts.run(10_000).unwrap();
        assert_eq!(new, total, "all {total} traversals must be discovered");
        assert!(mcts.is_exhausted());
        assert_eq!(mcts.records().len(), total);
        // Exhausted searches are no-ops.
        assert_eq!(mcts.step().unwrap(), StepOutcome::Exhausted);
    }

    #[test]
    fn records_are_unique_traversals() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let mut mcts = Mcts::new(
            &space,
            eval,
            MctsConfig {
                seed: 3,
                ..Default::default()
            },
        );
        mcts.run(50).unwrap();
        let set: std::collections::HashSet<_> =
            mcts.records().iter().map(|r| &r.traversal).collect();
        assert_eq!(set.len(), mcts.records().len());
        for r in mcts.records() {
            space.validate(&r.traversal).unwrap();
        }
    }

    #[test]
    fn search_is_seed_deterministic() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like();
        let run = |seed| {
            let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
            let mut mcts = Mcts::new(
                &space,
                eval,
                MctsConfig {
                    seed,
                    ..Default::default()
                },
            );
            mcts.run(20).unwrap();
            mcts.into_records()
                .into_iter()
                .map(|r| (r.traversal, r.result.time()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    fn fake_result(t: f64) -> BenchResult {
        BenchResult {
            measurements: vec![t],
            percentiles: dr_sim::Percentiles {
                p01: t,
                p10: t,
                p50: t,
                p90: t,
                p99: t,
            },
        }
    }

    #[test]
    fn prune_everything_retires_the_root_without_evaluating() {
        // A hook that condemns every prefix prunes each root child at its
        // first expansion: the search exhausts with zero records and zero
        // evaluator calls.
        let space = small_space();
        let calls = std::cell::Cell::new(0usize);
        let eval = |t: &Traversal, _seed: u64| -> Result<BenchResult, SimError> {
            calls.set(calls.get() + 1);
            Ok(fake_result(1.0 + t.canonical_hash() as f64 * 1e-20))
        };
        let mut mcts = Mcts::new(&space, eval, MctsConfig::default());
        mcts.set_prune(std::sync::Arc::new(|_: &Prefix| true));
        let new = mcts.run(1_000).unwrap();
        assert_eq!(new, 0, "no traversal survives a prune-everything hook");
        assert!(mcts.is_exhausted());
        assert_eq!(
            mcts.pruned(),
            space.eligible(&space.empty_prefix()).len() as u64,
            "exactly one prune per root child"
        );
        assert!(mcts.records().is_empty());
        assert_eq!(calls.get(), 0, "pruned subtrees are never evaluated");
    }

    #[test]
    fn selective_prune_still_exhausts_the_remainder() {
        let space = small_space();
        let first = space.eligible(&space.empty_prefix())[0];
        let eval = |t: &Traversal, _seed: u64| -> Result<BenchResult, SimError> {
            Ok(fake_result(1.0 + t.canonical_hash() as f64 * 1e-20))
        };
        let mut mcts = Mcts::new(&space, eval, MctsConfig::default());
        mcts.set_prune(std::sync::Arc::new(move |prefix: &Prefix| {
            prefix.steps().first() == Some(&first)
        }));
        mcts.run(10_000).unwrap();
        assert!(mcts.is_exhausted());
        assert_eq!(mcts.pruned(), 1, "only the condemned opening is cut");
        let total = space.count_traversals() as usize;
        assert!(!mcts.records().is_empty());
        assert!(
            mcts.records().len() < total,
            "the pruned subtree's traversals stay unexplored"
        );
        for r in mcts.records() {
            assert_ne!(r.traversal.steps[0], first);
        }
    }

    #[test]
    fn max_failures_quarantines_poisoned_traversals_and_continues() {
        let space = small_space();
        let all: Vec<Traversal> = space.enumerate().collect();
        let poisoned = all[0].clone();
        let eval = |t: &Traversal, _seed: u64| -> Result<BenchResult, SimError> {
            if *t == poisoned {
                Err(SimError::Panicked {
                    detail: "injected".into(),
                })
            } else {
                Ok(fake_result(1.0 + t.canonical_hash() as f64 * 1e-20))
            }
        };
        let mut mcts = Mcts::new(
            &space,
            eval,
            MctsConfig {
                max_failures: 1,
                ..Default::default()
            },
        );
        let new = mcts.run(10_000).unwrap();
        assert_eq!(new, all.len() - 1, "all healthy traversals discovered");
        assert!(mcts.is_exhausted(), "quarantine must not stall exhaustion");
        assert_eq!(mcts.failures(), 1);
        assert!(mcts.records().iter().all(|r| r.traversal != poisoned));
    }

    #[test]
    fn failures_beyond_the_cap_propagate() {
        let space = small_space();
        let eval = |_: &Traversal, _: u64| -> Result<BenchResult, SimError> {
            Err(SimError::Panicked {
                detail: "always".into(),
            })
        };
        // Default max_failures = 0: the very first error is fatal,
        // exactly the pre-chaos behavior.
        let mut mcts = Mcts::new(&space, eval, MctsConfig::default());
        assert!(mcts.run(100).is_err());
    }

    #[test]
    fn quarantine_tolerates_an_entirely_poisoned_space() {
        let space = small_space();
        let total = space.count_traversals() as usize;
        let eval = |_: &Traversal, _: u64| -> Result<BenchResult, SimError> {
            Err(SimError::Panicked {
                detail: "always".into(),
            })
        };
        let mut mcts = Mcts::new(
            &space,
            eval,
            MctsConfig {
                max_failures: total,
                ..Default::default()
            },
        );
        let new = mcts.run(10_000).unwrap();
        assert_eq!(new, 0);
        assert!(mcts.is_exhausted());
        assert_eq!(mcts.failures(), total);
        assert!(mcts.records().is_empty());
    }

    #[test]
    fn sampled_tracing_records_every_nth_iteration_without_perturbing_search() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let run = |trace: Option<(&dr_trace::Tracer, usize)>| {
            let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
            let mut mcts = Mcts::new(&space, eval, MctsConfig::default());
            if let Some((tracer, every)) = trace {
                mcts.set_trace(tracer.lane("mcts-0"), every);
            }
            mcts.run(9).unwrap();
            mcts.into_records()
                .into_iter()
                .map(|r| (r.traversal, r.result.time()))
                .collect::<Vec<_>>()
        };
        let tracer = dr_trace::Tracer::new();
        let traced = run(Some((&tracer, 4)));
        let plain = run(None);
        assert_eq!(traced, plain, "tracing must not change the search");
        let snap = tracer.snapshot();
        let iters: Vec<String> = snap
            .spans
            .iter()
            .filter(|s| s.name == "mcts-iter")
            .map(|s| {
                s.notes
                    .iter()
                    .find(|(k, _)| k == "iteration")
                    .unwrap()
                    .1
                    .clone()
            })
            .collect();
        assert_eq!(iters, vec!["1", "5", "9"], "iterations 1, 1+4, 1+8 sampled");
        assert!(snap
            .spans
            .iter()
            .all(|s| s.name != "mcts-iter" || s.end_s.is_some()));
    }

    #[test]
    fn iterations_count_rollouts_not_discoveries() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let eval = SimEvaluator::new(&space, &w, &platform, BenchConfig::quick());
        let mut mcts = Mcts::new(&space, eval, MctsConfig::default());
        for _ in 0..30 {
            let _ = mcts.step().unwrap();
        }
        assert!(mcts.iterations() <= 30);
        assert!(mcts.records().len() <= 30);
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;
    use crate::eval::SimEvaluator;
    use dr_dag::{CostKey, DagBuilder, OpSpec};
    use dr_sim::{BenchConfig, Platform, TableWorkload};

    fn space() -> DecisionSpace {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        DecisionSpace::new(b.build().unwrap(), 2).unwrap()
    }

    #[test]
    fn one_row_per_iteration_with_monotone_progress() {
        let sp = space();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
        let mut mcts = Mcts::new(&sp, eval, MctsConfig::default());
        mcts.run(25).unwrap();
        let telemetry = mcts.telemetry();
        assert_eq!(telemetry.len() as u64, mcts.iterations());
        let rows = telemetry.rows();
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.iteration, i as u64 + 1);
            assert!(r.best_time <= r.worst_time);
            assert!(r.tree_nodes >= 1);
            assert!(r.max_depth <= sp.num_ops());
            assert!(r.rollout_len <= sp.num_ops());
        }
        for w in rows.windows(2) {
            assert!(w[1].unique_traversals >= w[0].unique_traversals);
            assert!(w[1].tree_nodes >= w[0].tree_nodes);
            assert!(w[1].best_time <= w[0].best_time);
            assert!(w[1].worst_time >= w[0].worst_time);
        }
        // Incremental max depth agrees with the full-tree walk.
        assert_eq!(rows.last().unwrap().max_depth, mcts.stats().max_depth);
    }

    #[test]
    fn exhausted_steps_do_not_add_rows() {
        let sp = space();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
        let mut mcts = Mcts::new(&sp, eval, MctsConfig::default());
        mcts.run(10_000).unwrap();
        assert!(mcts.is_exhausted());
        let rows_before = mcts.telemetry().len();
        mcts.step().unwrap();
        assert_eq!(mcts.telemetry().len(), rows_before);
    }

    #[test]
    fn evaluator_stats_survive_into_parts() {
        let sp = space();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
        let mut mcts = Mcts::new(&sp, eval, MctsConfig::default());
        mcts.run(10).unwrap();
        assert!(Evaluator::sim_stats(&mcts.eval).is_some());
        let (records, telemetry, eval) = mcts.into_parts();
        let stats = eval.stats();
        assert!(stats.runs > 0, "each evaluation runs simulator samples");
        assert!(stats.instructions > 0);
        assert!(!records.is_empty());
        assert!(!telemetry.is_empty());
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::eval::SimEvaluator;
    use dr_dag::{CostKey, DagBuilder, OpSpec};
    use dr_sim::{BenchConfig, Platform, TableWorkload};

    fn space() -> DecisionSpace {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        DecisionSpace::new(b.build().unwrap(), 2).unwrap()
    }

    #[test]
    fn every_exploitation_policy_exhausts_the_space() {
        let sp = space();
        let total = sp.count_traversals() as usize;
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        for policy in [
            Exploitation::CoverageRange,
            Exploitation::MeanTime,
            Exploitation::Constant,
        ] {
            let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
            let cfg = MctsConfig {
                exploitation: policy,
                ..Default::default()
            };
            let mut mcts = Mcts::new(&sp, eval, cfg);
            let new = mcts.run(10_000).unwrap();
            assert_eq!(new, total, "{policy:?} must still cover the space");
            assert!(mcts.is_exhausted());
        }
    }

    #[test]
    fn policies_explore_in_different_orders() {
        let sp = space();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        let order = |policy| {
            let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
            let cfg = MctsConfig {
                exploitation: policy,
                seed: 4,
                ..Default::default()
            };
            let mut mcts = Mcts::new(&sp, eval, cfg);
            mcts.run(8).unwrap();
            mcts.into_records()
                .into_iter()
                .map(|r| r.traversal)
                .collect::<Vec<_>>()
        };
        // Not guaranteed in general, but with this seed the paper policy
        // and classic UCT provably diverge on this space.
        assert_ne!(
            order(Exploitation::CoverageRange),
            order(Exploitation::MeanTime)
        );
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use crate::eval::SimEvaluator;
    use dr_dag::{CostKey, DagBuilder, OpSpec};
    use dr_sim::{BenchConfig, Platform, TableWorkload};

    #[test]
    fn stats_reflect_search_progress() {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        let sp = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
        let mut mcts = Mcts::new(&sp, eval, MctsConfig::default());
        let s0 = mcts.stats();
        assert_eq!(s0.rollouts, 0);
        assert_eq!(s0.nodes, 1);
        mcts.run(10_000).unwrap();
        let s = mcts.stats();
        assert_eq!(
            s.max_depth,
            sp.num_ops(),
            "exhausted tree reaches the leaves"
        );
        assert!(s.fully_explored >= 1);
        assert!(s.t_max >= s.t_min && s.t_min > 0.0);
        assert!(s.rollouts >= sp.count_traversals() as u64);
    }

    #[test]
    fn snapshot_exports_hot_nodes_and_principal_variations() {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        let sp = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
        let mut mcts = Mcts::new(&sp, eval, MctsConfig::default());
        mcts.run(10_000).unwrap();
        let snap = mcts.snapshot(3, 5);
        assert_eq!(snap.stats, mcts.stats());
        assert!(snap.exhausted);
        assert_eq!(snap.iterations, mcts.iterations());
        // The depth profile covers the whole tree and starts at the root.
        assert_eq!(snap.depth_profile[0], 1);
        assert_eq!(snap.depth_profile.iter().sum::<usize>(), mcts.tree_size());
        assert_eq!(snap.depth_profile.len() - 1, snap.stats.max_depth);
        // Hot nodes are capped, visit-sorted, and lead with the root.
        assert_eq!(snap.nodes.len(), 5.min(mcts.tree_size()));
        assert!(snap.nodes[0].action.is_none(), "root is most visited");
        assert_eq!(snap.nodes[0].visits, snap.stats.rollouts);
        for pair in snap.nodes.windows(2) {
            assert!(pair[0].visits >= pair[1].visits);
        }
        for n in &snap.nodes[1..] {
            assert!(n.action.is_some(), "non-root nodes recover their edge");
        }
        // PVs: capped at top_k, visit-ranked, each a valid full traversal
        // of this exhausted space.
        assert!(!snap.principal_variations.is_empty());
        assert!(snap.principal_variations.len() <= 3);
        for pair in snap.principal_variations.windows(2) {
            assert!(pair[0].visits >= pair[1].visits);
        }
        for pv in &snap.principal_variations {
            assert_eq!(pv.steps.len(), sp.num_ops());
            sp.validate(&Traversal {
                steps: pv.steps.clone(),
            })
            .unwrap();
            assert!(pv.t_min >= snap.stats.t_min);
        }
        // Deterministic export.
        let again = mcts.snapshot(3, 5);
        assert_eq!(again.nodes, snap.nodes);
        assert_eq!(again.principal_variations, snap.principal_variations);
    }

    #[test]
    fn empty_tree_snapshot_is_well_formed() {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        let sp = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let eval = |_: &Traversal, _: u64| -> Result<BenchResult, SimError> { unreachable!() };
        let mcts = Mcts::new(&sp, eval, MctsConfig::default());
        let snap = mcts.snapshot(3, 10);
        assert_eq!(snap.depth_profile, vec![1]);
        assert_eq!(snap.nodes.len(), 1);
        assert!(snap.principal_variations.is_empty());
        assert!(!snap.exhausted);
    }
}

#[cfg(test)]
mod event_tests {
    use super::*;
    use crate::eval::SimEvaluator;
    use dr_dag::{CostKey, DagBuilder, OpSpec};
    use dr_obs::events::SharedBuf;
    use dr_obs::json;
    use dr_sim::{BenchConfig, Platform, TableWorkload};

    #[test]
    fn sampled_events_mirror_tracing_without_perturbing_search() {
        let mut b = DagBuilder::new();
        let a = b.add("a", OpSpec::GpuKernel(CostKey::new("a")));
        let g = b.add("b", OpSpec::GpuKernel(CostKey::new("b")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(a, c);
        b.edge(g, c);
        let sp = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let mut w = TableWorkload::new(1);
        w.cost_all("a", 1e-4)
            .cost_all("b", 2e-4)
            .cost_all("c", 1e-5);
        let platform = Platform::perlmutter_like().noiseless();
        let run = |sink: Option<EventSink>| {
            let eval = SimEvaluator::new(&sp, &w, &platform, BenchConfig::quick());
            let mut mcts = Mcts::new(&sp, eval, MctsConfig::default());
            if let Some(s) = sink {
                mcts.set_events(s, 4);
            }
            mcts.run(9).unwrap();
            mcts.into_records()
                .into_iter()
                .map(|r| (r.traversal, r.result.time()))
                .collect::<Vec<_>>()
        };
        let buf = SharedBuf::new();
        let sink = EventSink::new("run-evt").with_writer(Box::new(buf.clone()));
        let observed = run(Some(sink));
        let silent = run(None);
        assert_eq!(observed, silent, "event emission must not change search");
        let text = buf.contents();
        let iters: Vec<u64> = text
            .lines()
            .map(|l| {
                let v = json::parse(l).unwrap();
                assert_eq!(
                    v.get("kind").and_then(json::Value::as_str),
                    Some("mcts-iter")
                );
                assert!(v.get("outcome").and_then(json::Value::as_str).is_some());
                v.get("iteration").and_then(json::Value::as_u64).unwrap()
            })
            .collect();
        assert_eq!(iters, vec![1, 5, 9], "iterations 1, 1+4, 1+8 sampled");
    }
}
