//! The search tree: one arena of nodes searched in batches (paper
//! Section III-C).
//!
//! The tree's nodes are placements; a node's ancestors form the prefix
//! `P_k` taken to reach it. Nodes live in a flat arena (index links
//! only). Every search — at any batch width — runs the same three steps,
//! driven by [`Mcts`](crate::Mcts):
//!
//! 1. **Assembly** ([`Arena::select_batch`]): up to `width` descents,
//!    each the paper's *selection* → *expansion* → *rollout*, run one
//!    after another on the calling thread. Every node on a descent's
//!    path gets a *virtual loss*: a pending path looks
//!    recently-visited-and-unproductive, so the next descent of the same
//!    batch diverges toward a different leaf. Rollouts that regenerate an
//!    already-measured traversal backpropagate the cached time
//!    immediately; rollouts that hit a quarantined traversal retire their
//!    subtree immediately; everything else becomes a [`PendingEval`].
//! 2. **Evaluation** (the driver): the pending traversals are measured —
//!    each carries its deterministic `eval_seed`, so a result is the same
//!    whichever evaluator slot or thread measures it.
//! 3. **Commit** ([`Arena::commit`]): results are folded back in batch
//!    order — records appended, statistics backpropagated (the paper's
//!    *backpropagation* of `(n, t_min, t_max)`), virtual losses released,
//!    failures quarantined under [`MctsConfig::max_failures`].
//!
//! Selection is the paper's UCT rule with virtual loss folded into the
//! visit counts: `Q·n/n_eff + c·√(ln N_eff / n_eff)` with
//! `n_eff = n + virtual_loss` (−∞ for fully explored subtrees). `Q` is
//! the [`Exploitation`] signal — by default the *coverage ratio*
//! `V = (t_max^c − t_min^c)/(t_max^p − t_min^p)`, 1 until both sides have
//! two observations. Selection stops at any node with a claimable
//! child (unmaterialized, or with no visit, no pending rollout and no
//! retired subtree), which expansion then claims. At batch width 1 no virtual
//! loss is ever outstanding when a descent runs, so the rule is exactly
//! `Q + c·√(ln N / n)` and the search is the paper's serial MCTS.
//!
//! **Determinism policy.** Evaluations are keyed by
//! [`eval_seed`]`(cfg.seed, traversal)` — a pure function of the
//! traversal — so although batch width changes *which* iteration
//! discovers a traversal, it never changes the traversal's measurement.
//! At exhaustion every non-quarantined traversal has been measured
//! exactly once, hence the record *set* is identical across batch widths.

use crate::telemetry::{SearchTelemetry, TelemetryRow};
use crate::tree::{
    Exploitation, ExploredRecord, MctsConfig, NodeStat, PrincipalVariation, TreeSnapshot, TreeStats,
};
use dr_dag::{eval_seed, DecisionSpace, Placement, Traversal};
use dr_obs::events::EventSink;
use dr_sim::{BenchResult, SimError};
use dr_trace::Lane;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

type NodeId = usize;

const ROOT: NodeId = 0;

/// Sampled per-iteration observation: a zero-length `mcts-iter` span on
/// the lane and an `mcts-iter` event on the sink, at iterations 1,
/// 1+every, 1+2·every, ….
struct IterWatch {
    lane: Option<Lane>,
    events: Option<EventSink>,
    every: u64,
}

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
    /// Outstanding virtual losses: rollouts through this node that have
    /// been selected but not yet committed.
    vl: u32,
    t_min: f64,
    t_max: f64,
    t_sum: f64,
}

impl Node {
    // A leaf is NOT born fully explored: it stays *pending* until its
    // batch commits — were it marked explored at birth, a descent
    // arriving while it is pending would find no selectable child.
    // Leaves flip to fully explored at resolution time (commit or inline
    // resolution).
    fn new(num_actions: usize) -> Self {
        Node {
            children: Vec::new(),
            num_actions,
            fully_explored_children: 0,
            fully_explored: false,
            counted_in_parent: false,
            n: 0,
            vl: 0,
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

    fn t_mean(&self) -> f64 {
        if self.n > 0 {
            self.t_sum / self.n as f64
        } else {
            f64::NAN
        }
    }
}

/// Bookkeeping of one rollout that produced (or regenerated) a pending
/// traversal.
#[derive(Debug, Clone, Copy)]
struct RolloutMeta {
    iteration: u64,
    rollout_len: usize,
}

/// One traversal awaiting evaluation. The driver measures
/// [`PendingEval::traversal`] with [`PendingEval::eval_seed`] and hands
/// the result to [`Arena::commit`] at the same batch position.
#[derive(Debug)]
pub(crate) struct PendingEval {
    /// The complete traversal to measure.
    pub(crate) traversal: Traversal,
    /// Deterministic evaluation seed (`eval_seed(cfg.seed, traversal)`).
    pub(crate) eval_seed: u64,
    hash: u64,
    /// The unique root-to-leaf node path of this traversal (children are
    /// keyed by placement, so equal traversals share one path).
    path: Vec<NodeId>,
    /// One entry per rollout that landed on this traversal within the
    /// batch (duplicates share the evaluation but each counts as an
    /// iteration and backpropagates once).
    rollouts: Vec<RolloutMeta>,
}

/// The output of one assembly pass: traversals to evaluate plus the
/// iterations already resolved inline.
#[derive(Debug, Default)]
pub(crate) struct Batch {
    /// Distinct traversals awaiting evaluation, in selection order.
    pub(crate) pending: Vec<PendingEval>,
    /// Total iterations this assembly consumed: those resolved inline
    /// (cached repeats, quarantined regenerations) plus
    /// one per rollout behind every pending entry.
    pub(crate) iterations: usize,
}

/// The search state. Owned by the coordinating thread; evaluators only
/// ever see [`PendingEval`]s.
pub(crate) struct Arena<'a> {
    space: &'a DecisionSpace,
    cfg: MctsConfig,
    nodes: Vec<Node>,
    records: Vec<ExploredRecord>,
    /// Canonical-hash index into `records` (values are candidate record
    /// indices; equality is re-checked, so a hash collision costs a probe
    /// and never a misattributed measurement).
    seen: HashMap<u64, Vec<usize>>,
    /// Canonical-hash index of quarantined traversals (same layout):
    /// re-rolling a known-failed traversal retires it without
    /// re-evaluating it or consuming another failure credit.
    failed: HashMap<u64, Vec<Traversal>>,
    failures: usize,
    rng: SmallRng,
    iterations: u64,
    /// Rollouts that regenerated an already-measured traversal (seen-map
    /// hits plus in-batch duplicates).
    repeats: u64,
    telemetry: SearchTelemetry,
    /// Deepest backpropagated path, maintained incrementally so telemetry
    /// rows avoid the full-tree walk [`Arena::stats`] performs.
    max_depth: usize,
    watch: Option<IterWatch>,
}

impl<'a> Arena<'a> {
    pub(crate) fn new(space: &'a DecisionSpace, cfg: MctsConfig) -> Self {
        let root_actions = space.eligible(&space.empty_prefix()).len();
        Arena {
            space,
            cfg,
            nodes: vec![Node::new(root_actions)],
            records: Vec::new(),
            seen: HashMap::new(),
            failed: HashMap::new(),
            failures: 0,
            rng: SmallRng::seed_from_u64(cfg.seed),
            iterations: 0,
            repeats: 0,
            telemetry: SearchTelemetry::new(),
            max_depth: 0,
            watch: None,
        }
    }

    pub(crate) fn set_observer(
        &mut self,
        lane: Option<Lane>,
        events: Option<EventSink>,
        every: usize,
    ) {
        self.watch = Some(IterWatch {
            lane,
            events,
            every: every.max(1) as u64,
        });
    }

    pub(crate) fn records(&self) -> &[ExploredRecord] {
        &self.records
    }

    pub(crate) fn telemetry(&self) -> &SearchTelemetry {
        &self.telemetry
    }

    pub(crate) fn into_parts(self) -> (Vec<ExploredRecord>, SearchTelemetry) {
        (self.records, self.telemetry)
    }

    pub(crate) fn is_exhausted(&self) -> bool {
        self.nodes[ROOT].fully_explored
    }

    pub(crate) fn iterations(&self) -> u64 {
        self.iterations
    }

    pub(crate) fn failures(&self) -> usize {
        self.failures
    }

    pub(crate) fn repeats(&self) -> u64 {
        self.repeats
    }

    pub(crate) fn tree_size(&self) -> usize {
        self.nodes.len()
    }

    /// Assembles up to `width` distinct traversals for evaluation,
    /// consuming at most `budget` iterations. Rollouts that need no
    /// evaluation (cached repeats, quarantined regenerations) are resolved
    /// inline.
    ///
    /// Every node on a pending path carries one virtual loss per rollout
    /// until [`Arena::commit`] releases it; the caller must commit the
    /// batch (even an all-failure one) before assembling the next.
    ///
    /// Assembly consumes at most `4·width` iterations per call even when
    /// `budget` allows more: near exhaustion every descent funnels into
    /// the few remaining pending paths (virtual loss can only steer
    /// *around* explored subtrees, not conjure unexplored ones), and the
    /// cap bounds that duplicate spinning instead of looping until the
    /// batch fills.
    pub(crate) fn select_batch(&mut self, width: usize, budget: u64) -> Batch {
        let width = width.max(1);
        let cap = budget.min(4 * width as u64);
        let mut batch = Batch::default();
        while batch.pending.len() < width && (batch.iterations as u64) < cap && !self.is_exhausted()
        {
            self.iterations += 1;
            batch.iterations += 1;
            let iteration = self.iterations;
            let (path, traversal, rollout_len) = self.descend();
            let hash = traversal.canonical_hash();

            // Known-failed traversal: retire its subtree (no record, no
            // statistics).
            if self
                .failed
                .get(&hash)
                .into_iter()
                .flatten()
                .any(|t| *t == traversal)
            {
                self.release_virtual_loss(&path, 1);
                self.mark_fully_explored(&path);
                self.observe(iteration, "quarantined");
                continue;
            }

            // Already-measured traversal: backpropagate the cached time
            // now — no evaluation slot needed.
            let found = self
                .seen
                .get(&hash)
                .into_iter()
                .flatten()
                .copied()
                .find(|&idx| self.records[idx].traversal == traversal);
            if let Some(idx) = found {
                let t = self.records[idx].result.time();
                self.release_virtual_loss(&path, 1);
                self.backprop(&path, t, 1);
                self.mark_fully_explored(&path);
                self.repeats += 1;
                self.push_row(iteration, rollout_len);
                self.observe(iteration, "repeat");
                continue;
            }

            // In-batch duplicate: share the pending evaluation. Equal
            // traversals descend the same child edges, so the node path
            // is identical — the extra rollout just deepens the virtual
            // loss and adds one backpropagation at commit.
            let meta = RolloutMeta {
                iteration,
                rollout_len,
            };
            if let Some(pe) = batch
                .pending
                .iter_mut()
                .find(|pe| pe.hash == hash && pe.traversal == traversal)
            {
                pe.rollouts.push(meta);
                continue;
            }

            batch.pending.push(PendingEval {
                eval_seed: eval_seed(self.cfg.seed, &traversal),
                traversal,
                hash,
                path,
                rollouts: vec![meta],
            });
        }
        batch
    }

    /// Folds evaluation `results` (one per [`Batch::pending`] entry, same
    /// order) back into the tree: records appended in batch order,
    /// statistics backpropagated once per rollout, virtual losses
    /// released, failures quarantined under [`MctsConfig::max_failures`].
    /// An error beyond the failure budget propagates immediately (the
    /// search is then poisoned).
    pub(crate) fn commit(
        &mut self,
        batch: Batch,
        results: Vec<Result<BenchResult, SimError>>,
    ) -> Result<(), SimError> {
        assert_eq!(
            results.len(),
            batch.pending.len(),
            "one result per pending evaluation"
        );
        for (pe, res) in batch.pending.into_iter().zip(results) {
            let count = pe.rollouts.len();
            self.release_virtual_loss(&pe.path, count as u32);
            match res {
                Ok(result) => {
                    let t = result.time();
                    let idx = self.records.len();
                    self.records.push(ExploredRecord {
                        traversal: pe.traversal,
                        result,
                    });
                    self.seen.entry(pe.hash).or_default().push(idx);
                    self.backprop(&pe.path, t, count);
                    self.mark_fully_explored(&pe.path);
                    self.repeats += count as u64 - 1;
                    for (i, meta) in pe.rollouts.iter().enumerate() {
                        self.push_row(meta.iteration, meta.rollout_len);
                        self.observe(meta.iteration, if i == 0 { "new" } else { "repeat" });
                    }
                }
                Err(e) => {
                    if self.failures >= self.cfg.max_failures {
                        for meta in &pe.rollouts {
                            self.observe(meta.iteration, "error");
                        }
                        return Err(e);
                    }
                    self.failures += 1;
                    self.failed.entry(pe.hash).or_default().push(pe.traversal);
                    // Retiring the poisoned leaf lets exhaustion
                    // accounting still converge.
                    self.mark_fully_explored(&pe.path);
                    for meta in &pe.rollouts {
                        self.observe(meta.iteration, "quarantined");
                    }
                }
            }
        }
        Ok(())
    }

    /// Aggregate statistics of the search tree.
    pub(crate) fn stats(&self) -> TreeStats {
        let mut max_depth = 0usize;
        let mut fully_explored = 0usize;
        let mut stack = vec![(ROOT, 0usize)];
        while let Some((id, depth)) = stack.pop() {
            max_depth = max_depth.max(depth);
            if self.nodes[id].fully_explored {
                fully_explored += 1;
            }
            for &(_, c) in &self.nodes[id].children {
                stack.push((c, depth + 1));
            }
        }
        let root = &self.nodes[ROOT];
        TreeStats {
            nodes: self.tree_size(),
            max_depth,
            fully_explored,
            rollouts: root.n,
            t_min: root.t_min,
            t_max: root.t_max,
        }
    }

    /// See [`Mcts::snapshot`](crate::Mcts::snapshot).
    pub(crate) fn snapshot(&self, top_k: usize, max_nodes: usize) -> TreeSnapshot {
        // One BFS walk computes depths for the profile and the export.
        let mut depth_of = vec![0usize; self.nodes.len()];
        let mut depth_profile: Vec<usize> = Vec::new();
        let mut queue = std::collections::VecDeque::from([ROOT]);
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
        let mut ranked: Vec<NodeId> = order;
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
                    action: if id == ROOT { None } else { action_of(id) },
                    visits: n.n,
                    t_min: n.t_min,
                    t_max: n.t_max,
                    t_mean: n.t_mean(),
                    children: n.children.len(),
                    fully_explored: n.fully_explored,
                }
            })
            .collect();

        // Principal variations: top-k root children by visits, each
        // greedily completed along most-visited children.
        let mut openings: Vec<(Placement, NodeId)> = self.nodes[ROOT].children.clone();
        openings.sort_by(|&(_, a), &(_, b)| self.nodes[b].n.cmp(&self.nodes[a].n).then(a.cmp(&b)));
        let principal_variations: Vec<PrincipalVariation> = openings
            .into_iter()
            .take(top_k)
            .filter(|&(_, id)| self.nodes[id].n > 0)
            .map(|(p, id)| {
                let mut steps = vec![p];
                let mut node = id;
                while let Some((q, c)) = self.nodes[node]
                    .children
                    .iter()
                    .filter(|&&(_, c)| self.nodes[c].n > 0)
                    .max_by(|&&(_, a), &&(_, b)| {
                        self.nodes[a].n.cmp(&self.nodes[b].n).then(b.cmp(&a))
                    })
                    .copied()
                {
                    steps.push(q);
                    node = c;
                }
                PrincipalVariation {
                    visits: self.nodes[id].n,
                    t_min: self.nodes[node].t_min,
                    t_mean: self.nodes[id].t_mean(),
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

    /// One selection → expansion → rollout descent, applying one virtual
    /// loss to every node on the returned path.
    fn descend(&mut self) -> (Vec<NodeId>, Traversal, usize) {
        let mut prefix = self.space.empty_prefix();
        let mut path = vec![ROOT];
        let mut node = ROOT;

        // Selection: descend while no eligible child is claimable.
        loop {
            let elig = self.space.eligible(&prefix);
            if elig.is_empty() {
                break; // complete traversal
            }
            if elig.iter().any(|&p| self.claimable(node, p)) {
                break;
            }
            // A node on the selection path is never fully explored, so at
            // least one selectable child exists.
            let best = self
                .select_child(node, &elig)
                .expect("non-fully-explored node has a selectable child");
            let child = self.nodes[node].child(best).expect("selected child exists");
            self.space.apply(&mut prefix, best);
            path.push(child);
            node = child;
        }

        // Expansion: materialize (or claim) one claimable child. A child
        // under virtual loss is not claimable — that is what steers
        // consecutive descents apart.
        let elig = self.space.eligible(&prefix);
        if !elig.is_empty() {
            let candidates: Vec<Placement> = elig
                .iter()
                .copied()
                .filter(|&p| self.claimable(node, p))
                .collect();
            let pick = candidates[self.rng.gen_range(0..candidates.len())];
            node = self.get_or_create_child(node, pick, &mut prefix);
            path.push(node);
        }

        // Rollout: randomly complete the prefix, materializing nodes so
        // their performance information is retained.
        let mut rollout_len = 0usize;
        while prefix.len() < self.space.num_ops() {
            let elig = self.space.eligible(&prefix);
            let pick = elig[self.rng.gen_range(0..elig.len())];
            node = self.get_or_create_child(node, pick, &mut prefix);
            path.push(node);
            rollout_len += 1;
        }

        for &id in &path {
            self.nodes[id].vl += 1;
        }
        let traversal = Traversal {
            steps: prefix.steps().to_vec(),
        };
        (path, traversal, rollout_len)
    }

    /// The paper's explore/exploit rule over materialized children, with
    /// virtual loss folded into the visit counts:
    /// `Q·n/n_eff + c·√(ln N_eff / n_eff)`. Fully explored children are
    /// never selected. Ties break toward the first eligible placement.
    fn select_child(&self, parent: NodeId, elig: &[Placement]) -> Option<Placement> {
        let pn = &self.nodes[parent];
        let parent_range = pn.t_max - pn.t_min;
        let ln_parent = ((pn.n + pn.vl as u64) as f64).ln();
        let mut best: Option<(f64, Placement)> = None;
        for &p in elig {
            let c = pn
                .child(p)
                .expect("selection only runs with all children materialized");
            let ch = &self.nodes[c];
            if ch.fully_explored {
                continue;
            }
            let q = match self.cfg.exploitation {
                Exploitation::CoverageRange => {
                    if ch.n >= 2 && pn.n >= 2 && parent_range > 0.0 {
                        ((ch.t_max - ch.t_min) / parent_range).clamp(0.0, 1.0)
                    } else {
                        1.0
                    }
                }
                Exploitation::MeanTime => {
                    let root = &self.nodes[ROOT];
                    let root_range = root.t_max - root.t_min;
                    if ch.n >= 1 && root_range > 0.0 {
                        ((root.t_max - ch.t_mean()) / root_range).clamp(0.0, 1.0)
                    } else {
                        1.0
                    }
                }
                Exploitation::Constant => 1.0,
            };
            // A child whose visits are all pending contributes no
            // exploitation value until its results commit; with no
            // virtual loss `n / n_eff` is exactly 1.
            let n_eff = (ch.n + ch.vl as u64) as f64;
            let explore = self.cfg.exploration_c * (ln_parent / n_eff).sqrt();
            let value = explore + q * (ch.n as f64 / n_eff);
            if best.is_none_or(|(bv, _)| value > bv) {
                best = Some((value, p));
            }
        }
        best.map(|(_, p)| p)
    }

    /// Whether expansion may claim `parent`'s child for `p`: not yet
    /// materialized, or neither visited, nor pending, nor retired.
    fn claimable(&self, parent: NodeId, p: Placement) -> bool {
        self.nodes[parent].child(p).is_none_or(|c| {
            let ch = &self.nodes[c];
            ch.n == 0 && ch.vl == 0 && !ch.fully_explored
        })
    }

    fn get_or_create_child(
        &mut self,
        parent: NodeId,
        p: Placement,
        prefix: &mut dr_dag::Prefix,
    ) -> NodeId {
        self.space.apply(prefix, p);
        if let Some(c) = self.nodes[parent].child(p) {
            return c;
        }
        let num_actions = self.space.eligible(prefix).len();
        let id = self.nodes.len();
        self.nodes.push(Node::new(num_actions));
        self.nodes[parent].children.push((p, id));
        id
    }

    fn release_virtual_loss(&mut self, path: &[NodeId], count: u32) {
        for &id in path {
            self.nodes[id].vl -= count;
        }
    }

    /// Backpropagates `count` rollouts of time `t` along `path`.
    fn backprop(&mut self, path: &[NodeId], t: f64, count: usize) {
        for &id in path {
            let n = &mut self.nodes[id];
            n.n += count as u64;
            n.t_min = n.t_min.min(t);
            n.t_max = n.t_max.max(t);
            n.t_sum += t * count as f64;
        }
        self.max_depth = self.max_depth.max(path.len() - 1);
    }

    /// Bottom-up fully-explored propagation along a resolved root-to-leaf
    /// path: the path's last node is retired,
    /// and a parent is fully explored once all `num_actions` children
    /// exist and are fully explored.
    fn mark_fully_explored(&mut self, path: &[NodeId]) {
        if let Some(&last) = path.last() {
            self.nodes[last].fully_explored = true;
        }
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

    fn push_row(&mut self, iteration: u64, rollout_len: usize) {
        let root = &self.nodes[ROOT];
        let row = TelemetryRow {
            iteration,
            unique_traversals: self.records.len(),
            best_time: root.t_min,
            worst_time: root.t_max,
            tree_nodes: self.tree_size(),
            max_depth: self.max_depth,
            rollout_len,
        };
        self.telemetry.push(row);
    }

    /// Sampled span/event emission for one resolved rollout (see
    /// [`IterWatch`]). Emission only reads search state, so it cannot
    /// perturb the search.
    fn observe(&mut self, iteration: u64, outcome: &str) {
        let unique = self.records.len();
        let tree_nodes = self.tree_size();
        let max_depth = self.max_depth;
        let best_s = self.nodes[ROOT].t_min;
        let Some(watch) = &mut self.watch else {
            return;
        };
        if !(iteration - 1).is_multiple_of(watch.every) {
            return;
        }
        if let Some(lane) = &mut watch.lane {
            lane.enter("mcts-iter");
            lane.annotate("iteration", iteration);
            lane.annotate("unique", unique);
            lane.annotate("tree_nodes", tree_nodes);
            lane.annotate("outcome", outcome);
            lane.exit();
        }
        if let Some(sink) = &watch.events {
            sink.emit(
                "mcts-iter",
                &[
                    ("iteration", iteration.into()),
                    ("unique", unique.into()),
                    ("tree_nodes", tree_nodes.into()),
                    ("max_depth", max_depth.into()),
                    ("best_s", best_s.into()),
                    ("outcome", outcome.into()),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::SimEvaluator;
    use crate::tree::Mcts;
    use dr_dag::{CostKey, DagBuilder, OpSpec};
    use dr_sim::{BenchConfig, Percentiles, Platform, TableWorkload};

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

    fn fake_result(t: f64) -> BenchResult {
        BenchResult {
            measurements: vec![t],
            percentiles: Percentiles {
                p01: t,
                p10: t,
                p50: t,
                p90: t,
                p99: t,
            },
        }
    }

    /// A pure-function evaluator: time derived from the traversal alone.
    fn hash_eval(t: &Traversal, _: u64) -> Result<BenchResult, SimError> {
        Ok(fake_result(
            1e-4 + (t.canonical_hash() % 1009) as f64 * 1e-7,
        ))
    }

    fn record_set(records: &[ExploredRecord]) -> Vec<(u64, u64)> {
        let mut set: Vec<(u64, u64)> = records
            .iter()
            .map(|r| (r.traversal.canonical_hash(), r.result.time().to_bits()))
            .collect();
        set.sort_unstable();
        set
    }

    #[test]
    fn virtual_loss_marks_pending_paths_and_commit_clears_it() {
        let space = small_space();
        let mut tree = Arena::new(&space, MctsConfig::default());
        let batch = tree.select_batch(1, u64::MAX);
        assert_eq!(batch.pending.len(), 1);
        assert_eq!(batch.iterations, 1);
        let path = batch.pending[0].path.clone();
        assert!(path.len() > 1, "path spans root to leaf");
        for &id in &path {
            assert_eq!(tree.nodes[id].vl, 1, "pending path carries virtual loss");
            assert_eq!(tree.nodes[id].n, 0, "no real visits before commit");
        }
        tree.commit(batch, vec![Ok(fake_result(1e-4))]).unwrap();
        for &id in &path {
            assert_eq!(tree.nodes[id].vl, 0, "commit releases virtual loss");
            assert_eq!(tree.nodes[id].n, 1, "commit backpropagates the visit");
        }
        assert_eq!(tree.records().len(), 1);
        assert_eq!(tree.telemetry().len(), 1);
    }

    #[test]
    fn virtual_loss_steers_batched_descents_apart() {
        // With the whole tree untouched, two consecutive descents must
        // diverge at the root: the first leaves virtual loss on its
        // opening child, which then no longer counts as claimable, so
        // the second expansion picks a different opening.
        let space = small_space();
        let mut tree = Arena::new(&space, MctsConfig::default());
        let batch = tree.select_batch(2, u64::MAX);
        assert_eq!(batch.pending.len(), 2);
        let a = &batch.pending[0];
        let b = &batch.pending[1];
        assert_ne!(
            a.traversal.steps[0], b.traversal.steps[0],
            "divergence happens at the opening move"
        );
        assert_eq!(tree.nodes[ROOT].vl, 2, "root carries one loss per rollout");
        let results = vec![Ok(fake_result(1e-4)), Ok(fake_result(2e-4))];
        tree.commit(batch, results).unwrap();
        assert_eq!(tree.nodes[ROOT].vl, 0);
        assert_eq!(tree.nodes[ROOT].n, 2);
    }

    #[test]
    fn a_node_under_virtual_loss_is_deprioritized_until_commit() {
        // Directly exercise the UCT rule with virtual loss: two siblings
        // with identical statistics, one carrying a virtual loss.
        // Selection must prefer the unencumbered sibling; after the loss
        // clears, the tie is restored.
        let mut b = DagBuilder::new();
        b.add("x", OpSpec::GpuKernel(CostKey::new("x")));
        b.add("y", OpSpec::GpuKernel(CostKey::new("y")));
        let space = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let elig = space.eligible(&space.empty_prefix());
        assert_eq!(elig.len(), 2, "two independent ops give two openings");
        let mut tree = Arena::new(&space, MctsConfig::default());
        // Materialize both children with one committed visit each.
        for &p in &elig {
            let mut prefix = space.empty_prefix();
            let id = tree.get_or_create_child(ROOT, p, &mut prefix);
            tree.backprop(&[ROOT, id], 1e-4, 1);
        }
        let loaded = tree.nodes[ROOT].child(elig[0]).unwrap();
        tree.nodes[loaded].vl = 1;
        assert_eq!(
            tree.select_child(ROOT, &elig),
            Some(elig[1]),
            "virtual loss deprioritizes the pending child"
        );
        tree.nodes[loaded].vl = 0;
        assert_eq!(
            tree.select_child(ROOT, &elig),
            Some(elig[0]),
            "ties break to the first child once cleared"
        );
    }

    #[test]
    fn width_one_selection_is_the_papers_uct_rule() {
        // No virtual loss outstanding: the rule is exactly
        // `Q + c·√(ln N / n)`. Child 0 spans the parent's whole time
        // range (Q = 1) over 50 visits; child 1 is constant (Q = 0) over
        // 4. With N = 54, UCT scores them 1 + √2·√(ln 54 / 50) ≈ 1.399
        // and √2·√(ln 54 / 4) ≈ 1.412, so the rarely-visited child wins.
        let mut b = DagBuilder::new();
        b.add("x", OpSpec::GpuKernel(CostKey::new("x")));
        b.add("y", OpSpec::GpuKernel(CostKey::new("y")));
        let space = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let elig = space.eligible(&space.empty_prefix());
        let mut tree = Arena::new(&space, MctsConfig::default());
        let ids: Vec<NodeId> = elig
            .iter()
            .map(|&p| tree.get_or_create_child(ROOT, p, &mut space.empty_prefix()))
            .collect();
        tree.backprop(&[ROOT, ids[0]], 1e-4, 1);
        tree.backprop(&[ROOT, ids[0]], 3e-4, 49);
        tree.backprop(&[ROOT, ids[1]], 2e-4, 4);
        let c = std::f64::consts::SQRT_2;
        let uct = |q: f64, n: f64| q + c * (54f64.ln() / n).sqrt();
        assert!(uct(0.0, 4.0) > uct(1.0, 50.0));
        assert_eq!(tree.select_child(ROOT, &elig), Some(elig[1]));
    }

    #[test]
    fn record_set_is_batch_width_invariant() {
        let space = small_space();
        let total = space.count_traversals() as usize;
        let mut sets = Vec::new();
        for width in [1usize, 2, 4] {
            let mut mcts = Mcts::batched(&space, vec![hash_eval; width], MctsConfig::default());
            mcts.run(usize::MAX).unwrap();
            assert!(mcts.is_exhausted());
            assert_eq!(
                mcts.records().len(),
                total,
                "width {width} measures each once"
            );
            assert_eq!(mcts.repeats() + total as u64, mcts.iterations());
            sets.push(record_set(mcts.records()));
        }
        assert_eq!(sets[0], sets[1]);
        assert_eq!(sets[1], sets[2]);
    }

    #[test]
    fn batched_search_is_seed_deterministic() {
        let space = small_space();
        let run = |seed: u64| {
            let cfg = MctsConfig {
                seed,
                ..Default::default()
            };
            let mut mcts = Mcts::batched(&space, vec![hash_eval; 3], cfg);
            mcts.run(usize::MAX).unwrap();
            let telemetry_len = mcts.telemetry().len();
            let records: Vec<_> = mcts
                .records()
                .iter()
                .map(|r| (r.traversal.clone(), r.result.time()))
                .collect();
            (records, telemetry_len)
        };
        assert_eq!(run(5), run(5), "same seed, same commit order");
    }

    #[test]
    fn failures_quarantine_up_to_the_budget_then_propagate() {
        let space = small_space();
        let total = space.count_traversals() as usize;
        let failing = |_: &Traversal, _: u64| -> Result<BenchResult, SimError> {
            Err(SimError::Panicked {
                detail: "always".into(),
            })
        };
        let cfg = MctsConfig {
            max_failures: total,
            ..Default::default()
        };
        let mut poisoned = Mcts::batched(&space, vec![failing; 2], cfg);
        poisoned.run(usize::MAX).unwrap();
        assert!(poisoned.is_exhausted());
        assert_eq!(poisoned.failures(), total);
        assert!(poisoned.records().is_empty());
        assert!(
            poisoned.telemetry().is_empty(),
            "quarantined rollouts leave no telemetry rows"
        );

        // Default budget (0): the first error is fatal.
        let mut strict = Arena::new(&space, MctsConfig::default());
        let batch = strict.select_batch(1, u64::MAX);
        let results = vec![Err(SimError::Panicked {
            detail: "fatal".into(),
        })];
        assert!(strict.commit(batch, results).is_err());
    }

    #[test]
    fn snapshot_ranks_nodes_and_principal_variations_of_a_batched_search() {
        let space = small_space();
        let w = small_workload();
        let platform = Platform::perlmutter_like().noiseless();
        let evals = (0..2)
            .map(|_| SimEvaluator::new(&space, &w, &platform, BenchConfig::quick()))
            .collect();
        let mut mcts = Mcts::batched(&space, evals, MctsConfig::default());
        mcts.run(usize::MAX).unwrap();

        let snap = mcts.snapshot(5, 12);
        assert!(snap.exhausted);
        assert_eq!(snap.stats.nodes, mcts.tree_size());
        assert_eq!(snap.depth_profile[0], 1, "exactly one root");
        assert_eq!(snap.depth_profile.iter().sum::<usize>(), mcts.tree_size());
        assert!(snap.nodes.len() <= 12);
        assert!(snap.nodes[0].action.is_none(), "root ranks first");
        for pair in snap.nodes.windows(2) {
            assert!(pair[0].visits >= pair[1].visits, "ranked by visits");
        }
        assert!(!snap.principal_variations.is_empty());
        for pv in &snap.principal_variations {
            assert_eq!(pv.steps.len(), space.num_ops(), "PVs reach a leaf");
            assert!(pv.visits > 0);
        }
        assert_eq!(snap.iterations, mcts.iterations());
    }

    #[test]
    fn in_batch_duplicates_share_one_evaluation_slot() {
        // A 1-op, 1-stream space has a single traversal: any batch wider
        // than 1 must fold every extra rollout into the same pending
        // entry rather than requesting duplicate evaluations.
        let mut b = DagBuilder::new();
        b.add("only", OpSpec::GpuKernel(CostKey::new("only")));
        let space = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let mut tree = Arena::new(&space, MctsConfig::default());
        let batch = tree.select_batch(4, u64::MAX);
        assert_eq!(batch.pending.len(), 1, "one distinct traversal exists");
        let dup = batch.pending[0].rollouts.len();
        assert!(dup >= 2, "extra rollouts became duplicates");
        assert_eq!(batch.iterations, dup);
        tree.commit(batch, vec![Ok(fake_result(1e-4))]).unwrap();
        assert_eq!(tree.records().len(), 1);
        assert_eq!(tree.repeats(), dup as u64 - 1);
        assert!(tree.is_exhausted());
        assert_eq!(
            tree.telemetry().len(),
            dup,
            "each rollout (first + repeats) logs a telemetry row"
        );
    }
}
