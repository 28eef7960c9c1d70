//! Space-level incremental lint: one shared analysis over every
//! schedule of a [`DecisionSpace`].
//!
//! Linting a space cold re-runs every analysis from scratch per
//! schedule, yet schedules sharing a traversal prefix share their entire
//! lowering prefix — and therefore the happens-before state of every
//! prefix item. This module walks the space's prefix tree depth-first
//! with three checkpointed structures growing and rewinding in lockstep:
//!
//! * the incremental lowering ([`dr_dag::ScheduleBuilder`]), pushed and
//!   popped one placement at a time;
//! * an *ancestor-bitset* happens-before representation: per graph node
//!   a bitset of every node that reaches it. All happens-before edges
//!   point from earlier to later items, so each appended item's three
//!   node rows are unions of already-final rows — rows never mutate
//!   after creation, and rewinding is truncation. `a` happens-before
//!   `b` iff bit `a` of `b`'s row is set, exactly the relation the cold
//!   closure answers;
//! * the op→item map feeding dependency-edge coverage.
//!
//! At each leaf only the terminal `End` item is appended (3 node rows),
//! the HB001 verdicts are read off the shared rows, and the deadlock and
//! redundant-sync passes run on the complete schedule buffer — producing
//! a [`LintReport`] bit-identical to [`crate::lint_traversal`], while
//! the happens-before pass expands O(distinct prefix items) node rows
//! instead of O(schedules × items).
//!
//! A caller's [`PrefixFilter`] restricts the walk to a subset of the
//! space; rule certification passes a ruleset's compiled constraints,
//! which admit a placement only when a satisfying schedule lies below it.

use crate::deadlock::detect_deadlocks;
use crate::diag::{Diagnostic, LintReport, RuleCode};
use crate::redundant::find_redundant_syncs;
use crate::topo::CommTopology;
use dr_dag::{
    DecisionKind, DecisionSpace, OpId, Placement, Prefix, ScheduleAction, ScheduleBuilder,
    ScheduledItem,
};

/// Counters of one space-level lint walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceLintStats {
    /// Schedules actually linted (leaves visited).
    pub schedules: u64,
    /// True when the walk stopped at the schedule cap with another
    /// schedule (one the filter admits) still to lint.
    pub truncated: bool,
    /// Happens-before node rows expanded by the incremental engine
    /// (three per distinct prefix item, plus three per leaf for the
    /// terminal `End`).
    pub hb_expansions: u64,
    /// Node expansions the cold per-schedule pass would have performed
    /// for the same leaves (three per item per schedule).
    pub cold_hb_expansions: u64,
    /// Subtrees skipped by the caller's prefix filter.
    pub filtered_subtrees: u64,
}

/// Placement filter consulted before each descent of the incremental
/// walk: `(current prefix, candidate placement) -> keep?`. Returning
/// `false` skips the candidate's whole subtree.
pub type PrefixFilter<'a> = &'a mut dyn FnMut(&Prefix, Placement) -> bool;

/// Lints every schedule of `space` incrementally, invoking `on_leaf`
/// with `(schedule index, prefix, report)` for each leaf in canonical
/// enumeration order — the same order and the same reports as linting
/// [`DecisionSpace::enumerate`] output cold, one schedule at a time.
/// The walk stops after `max_schedules` schedules (0 = lint the whole
/// space).
///
/// `filter` (when given) is consulted before each descent with the
/// current prefix and the candidate placement; returning `false` skips
/// that subtree (used to restrict the walk to schedules satisfying a
/// rule set). Leaf indices count visited leaves.
pub fn lint_space_incremental(
    space: &DecisionSpace,
    topo: Option<&CommTopology>,
    max_schedules: u64,
    mut filter: Option<PrefixFilter<'_>>,
    on_leaf: &mut dyn FnMut(u64, &Prefix, &LintReport),
) -> SpaceLintStats {
    let mut engine = Engine {
        space,
        topo,
        builder: ScheduleBuilder::new(space),
        hb: IncrementalHb::new(max_items_bound(space)),
        edges: static_dependency_edges(space),
        item_of_op: vec![None; space.num_ops()],
        stats: SpaceLintStats::default(),
        max_schedules,
    };
    let mut prefix = space.empty_prefix();
    engine.walk(&mut prefix, &mut filter, on_leaf);
    engine.stats
}

/// Upper bound on the items of any schedule of `space`: one main item
/// per op, at worst one glued record plus one stream wait per GPU
/// predecessor edge, plus the terminal `End`.
fn max_items_bound(space: &DecisionSpace) -> usize {
    let dag = space.dag();
    let mut bound = 1; // End
    for d in space.ops() {
        bound += 1;
        if let DecisionKind::Gpu(v) = d.kind {
            bound += 2 * dag.preds(v).len();
        }
    }
    bound
}

/// A dependency edge in terms of decision ops, precomputed in the exact
/// order `hb::dependency_edges` enumerates: `v_op == None` marks an edge
/// into the artificial `End`.
struct StaticEdge {
    u_op: OpId,
    v_op: Option<OpId>,
    name: String,
}

fn static_dependency_edges(space: &DecisionSpace) -> Vec<StaticEdge> {
    let dag = space.dag();
    let mut edges = Vec::new();
    for v in dag.user_vertices() {
        let Some(v_op) = space.op_of_vertex(v) else {
            continue;
        };
        for &u in dag.preds(v) {
            let Some(u_op) = space.op_of_vertex(u) else {
                continue;
            };
            edges.push(StaticEdge {
                u_op,
                v_op: Some(v_op),
                name: format!("{} -> {}", dag.vertex(u).name, dag.vertex(v).name),
            });
        }
    }
    for &u in dag.preds(dag.end()) {
        if let Some(u_op) = space.op_of_vertex(u) {
            edges.push(StaticEdge {
                u_op,
                v_op: None,
                name: format!("{} -> End", dag.vertex(u).name),
            });
        }
    }
    edges
}

struct Engine<'a> {
    space: &'a DecisionSpace,
    topo: Option<&'a CommTopology>,
    builder: ScheduleBuilder<'a>,
    hb: IncrementalHb,
    edges: Vec<StaticEdge>,
    item_of_op: Vec<Option<usize>>,
    stats: SpaceLintStats,
    max_schedules: u64,
}

impl Engine<'_> {
    fn capped(&self) -> bool {
        self.max_schedules != 0 && self.stats.schedules >= self.max_schedules
    }

    fn walk(
        &mut self,
        prefix: &mut Prefix,
        filter: &mut Option<PrefixFilter<'_>>,
        on_leaf: &mut dyn FnMut(u64, &Prefix, &LintReport),
    ) {
        let elig = self.space.eligible(prefix);
        if elig.is_empty() {
            self.lint_leaf(prefix, on_leaf);
            return;
        }
        for p in elig {
            if let Some(f) = filter.as_deref_mut() {
                if !f(prefix, p) {
                    self.stats.filtered_subtrees += 1;
                    continue;
                }
            }
            // Checked after the filter: a walk is truncated only when a
            // schedule it would have linted is left out.
            if self.capped() {
                self.stats.truncated = true;
                return;
            }
            self.space.apply(prefix, p);
            let range = self.builder.push_step(p);
            let (from, to) = (range.start, range.end);
            for i in from..to {
                // The builder's item buffer is borrowed immutably while
                // the HB state mutates, so split via raw index.
                let item = self.builder.items()[i].clone();
                self.hb.append_item(i, &item, &mut self.stats.hb_expansions);
            }
            debug_assert!(to > from, "every step lowers at least one item");
            self.item_of_op[p.op] = Some(to - 1);
            self.walk(prefix, filter, on_leaf);
            self.item_of_op[p.op] = None;
            for _ in from..to {
                self.hb.pop_item();
            }
            self.builder.pop_step();
            self.space.unapply(prefix);
            if self.stats.truncated {
                return;
            }
        }
    }

    /// Produces the leaf's [`LintReport`] exactly as the cold
    /// [`crate::lint`] would: HB001 race verdicts from the shared
    /// ancestor rows (the structural `SCHED`/`HB002` diagnostics are
    /// vacuous for schedules produced by our own lowering), then the
    /// deadlock and redundant-sync passes over the complete schedule.
    fn lint_leaf(&mut self, prefix: &Prefix, on_leaf: &mut dyn FnMut(u64, &Prefix, &LintReport)) {
        let end_idx = self.builder.items().len();
        let end_item = ScheduledItem {
            name: "End".into(),
            action: ScheduleAction::DeviceSync,
            source: None,
        };
        self.hb
            .append_item(end_idx, &end_item, &mut self.stats.hb_expansions);

        let mut diags = Vec::new();
        let end_node = end(end_idx);
        for e in &self.edges {
            let iu = self.item_of_op[e.u_op].expect("all ops placed at a leaf");
            let (covered, items) = match e.v_op {
                None => (
                    end(iu) == end_node || self.hb.reaches(end(iu), end_node),
                    vec![iu],
                ),
                Some(v_op) => {
                    let iv = self.item_of_op[v_op].expect("all ops placed at a leaf");
                    (self.hb.reaches(end(iu), start(iv)), vec![iu, iv])
                }
            };
            if !covered {
                diags.push(
                    Diagnostic::new(
                        RuleCode::Hb001,
                        format!(
                            "dependency {} is not enforced by any synchronization",
                            e.name
                        ),
                    )
                    .with_items(items),
                );
            }
        }

        let space = self.space;
        let topo = self.topo;
        let items_with_end = self.builder.with_complete_schedule(|s| {
            if let Some(topo) = topo {
                diags.extend(detect_deadlocks(s, topo));
            }
            diags.extend(find_redundant_syncs(space, s));
            s.items.len()
        });

        let report = LintReport::new(diags);
        let idx = self.stats.schedules;
        self.stats.schedules += 1;
        self.stats.cold_hb_expansions += 3 * items_with_end as u64;
        on_leaf(idx, prefix, &report);
        self.hb.pop_item();
    }
}

fn issue(i: usize) -> usize {
    3 * i
}
fn start(i: usize) -> usize {
    3 * i + 1
}
fn end(i: usize) -> usize {
    3 * i + 2
}

/// Per-item rewind record of [`IncrementalHb`].
struct HbUndo {
    stream_prev: Option<(usize, Option<usize>)>,
    record_prev: Option<(usize, Option<usize>)>,
    device_pushed: bool,
}

/// Checkpointed happens-before state along the current lowering prefix.
///
/// Instead of the cold pass's successor-closure (recomputed per
/// schedule), each of an item's three nodes gets an *ancestor* bitset
/// row: the union of its in-neighbors' rows plus their bits. In-edges
/// only ever come from already-appended nodes, so rows are final at
/// creation and rewinding truncates.
struct IncrementalHb {
    words: usize,
    /// Row-major ancestor bitsets, one row per node, `words` u64 each.
    anc: Vec<u64>,
    nodes: usize,
    /// Per appended item: whether it blocks the host (no stream).
    host_blocking: Vec<bool>,
    last_in_stream: Vec<Option<usize>>,
    latest_record: Vec<Option<usize>>,
    device_items: Vec<usize>,
    undo: Vec<HbUndo>,
}

impl IncrementalHb {
    fn new(max_items: usize) -> Self {
        let words = (3 * max_items).div_ceil(64);
        IncrementalHb {
            words,
            anc: Vec::new(),
            nodes: 0,
            host_blocking: Vec::new(),
            last_in_stream: Vec::new(),
            latest_record: Vec::new(),
            device_items: Vec::new(),
            undo: Vec::new(),
        }
    }

    /// Whether node `from` happens-before node `to` (same strict
    /// relation as the cold `HbGraph::reaches`).
    fn reaches(&self, from: usize, to: usize) -> bool {
        self.anc[to * self.words + from / 64] >> (from % 64) & 1 == 1
    }

    /// Allocates the next node row and returns its index.
    fn push_node(&mut self) -> usize {
        let node = self.nodes;
        self.nodes += 1;
        self.anc.resize(self.nodes * self.words, 0);
        node
    }

    /// Adds edge `from → to` (`from < to`): `to`'s row absorbs `from`'s
    /// row and `from`'s bit.
    fn edge(&mut self, from: usize, to: usize) {
        debug_assert!(from < to, "happens-before edges must point forward");
        let w = self.words;
        let (head, tail) = self.anc.split_at_mut(to * w);
        let src = &head[from * w..from * w + w];
        let dst = &mut tail[..w];
        for (d, s) in dst.iter_mut().zip(src) {
            *d |= *s;
        }
        dst[from / 64] |= 1 << (from % 64);
    }

    /// Appends item `i`'s three nodes, mirroring the cold `build_hb`
    /// edge construction. Items must arrive with consecutive indices and
    /// reference only already-recorded events (true for every schedule
    /// our own lowering produces).
    fn append_item(&mut self, i: usize, item: &ScheduledItem, expansions: &mut u64) {
        debug_assert_eq!(self.nodes, 3 * i, "items must append in order");
        let mut u = HbUndo {
            stream_prev: None,
            record_prev: None,
            device_pushed: false,
        };

        let iss = self.push_node();
        if i > 0 {
            self.edge(issue(i - 1), iss);
            if self.host_blocking[i - 1] {
                self.edge(end(i - 1), iss);
            }
        }

        let stream = match &item.action {
            ScheduleAction::KernelLaunch { stream, .. }
            | ScheduleAction::EventRecord { stream, .. }
            | ScheduleAction::StreamWaitEvent { stream, .. } => Some(*stream),
            _ => None,
        };

        let st = self.push_node();
        self.edge(iss, st);
        if let Some(s) = stream {
            if s >= self.last_in_stream.len() {
                self.last_in_stream.resize(s + 1, None);
            }
            if let Some(prev) = self.last_in_stream[s] {
                self.edge(end(prev), st);
            }
            u.stream_prev = Some((s, self.last_in_stream[s]));
            self.last_in_stream[s] = Some(i);
            self.device_items.push(i);
            u.device_pushed = true;
        }

        let en = self.push_node();
        self.edge(st, en);
        match &item.action {
            ScheduleAction::EventRecord { event, .. } => {
                if *event >= self.latest_record.len() {
                    self.latest_record.resize(event + 1, None);
                }
                u.record_prev = Some((*event, self.latest_record[*event]));
                self.latest_record[*event] = Some(i);
            }
            ScheduleAction::StreamWaitEvent { event, .. } => {
                if let Some(rec) = self.latest_record.get(*event).copied().flatten() {
                    self.edge(end(rec), en);
                }
            }
            ScheduleAction::EventSync { events } => {
                for ev in events {
                    if let Some(rec) = self.latest_record.get(*ev).copied().flatten() {
                        self.edge(end(rec), en);
                    }
                }
            }
            ScheduleAction::DeviceSync => {
                for d in 0..self.device_items.len() {
                    self.edge(end(self.device_items[d]), en);
                }
            }
            _ => {}
        }

        self.host_blocking.push(stream.is_none());
        self.undo.push(u);
        *expansions += 3;
    }

    /// Rewinds the most recent [`IncrementalHb::append_item`].
    fn pop_item(&mut self) {
        let u = self.undo.pop().expect("pop_item on an empty HB state");
        if let Some((s, prev)) = u.stream_prev {
            self.last_in_stream[s] = prev;
        }
        if let Some((ev, prev)) = u.record_prev {
            self.latest_record[ev] = prev;
        }
        if u.device_pushed {
            self.device_items.pop();
        }
        self.host_blocking.pop();
        self.nodes -= 3;
        self.anc.truncate(self.nodes * self.words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_traversal;
    use dr_dag::{CommKey, CostKey, DagBuilder, OpSpec, Traversal};

    /// The canonical exchange: post sends/recvs, waits, plus a kernel to
    /// widen the space.
    fn exchange_space() -> DecisionSpace {
        let key = CommKey::new("x");
        let mut b = DagBuilder::new();
        let ps = b.add("ps", OpSpec::PostSends(key.clone()));
        let pr = b.add("pr", OpSpec::PostRecvs(key.clone()));
        let ws = b.add("ws", OpSpec::WaitSends(key.clone()));
        let wr = b.add("wr", OpSpec::WaitRecvs(key));
        let g = b.add("g", OpSpec::GpuKernel(CostKey::new("g")));
        b.edge(ps, ws);
        b.edge(pr, wr);
        b.edge(ps, wr);
        b.edge(g, wr);
        DecisionSpace::new(b.build().unwrap(), 2).unwrap()
    }

    fn topo(bytes: u64) -> CommTopology {
        let mut t = CommTopology::new(2).with_eager_threshold(1024);
        t.all_to_all(CommKey::new("x"), bytes);
        t
    }

    #[test]
    fn incremental_reports_match_cold_lint_bit_for_bit() {
        let sp = exchange_space();
        let topo = topo(1 << 20); // rendezvous: some orders deadlock
        let traversals: Vec<Traversal> = sp.enumerate().collect();
        let mut i = 0usize;
        let stats =
            lint_space_incremental(&sp, Some(&topo), 0, None, &mut |idx, prefix, report| {
                assert_eq!(idx as usize, i);
                let t = Traversal {
                    steps: prefix.steps().to_vec(),
                };
                assert_eq!(t, traversals[i], "leaf order must match enumeration");
                let cold = lint_traversal(&sp, &t, Some(&topo));
                assert_eq!(
                    report.diagnostics, cold.diagnostics,
                    "schedule #{i} diverged"
                );
                i += 1;
            });
        assert_eq!(stats.schedules as usize, traversals.len());
        assert!(
            stats.hb_expansions < stats.cold_hb_expansions,
            "prefix sharing must beat the cold pass: {} vs {}",
            stats.hb_expansions,
            stats.cold_hb_expansions
        );
    }

    #[test]
    fn max_schedules_truncates_the_walk() {
        let sp = exchange_space();
        let topo = topo(512);
        let mut seen = 0u64;
        let stats = lint_space_incremental(&sp, Some(&topo), 3, None, &mut |_, _, _| seen += 1);
        assert_eq!(seen, 3);
        assert_eq!(stats.schedules, 3);
        assert!(stats.truncated);
    }

    #[test]
    fn prefix_filter_restricts_the_walk() {
        let sp = exchange_space();
        let topo = topo(512);
        let ws = sp.op_by_name("ws").unwrap();
        // Forbid placing `ws` as long as `pr` is unplaced: every visited
        // leaf must order pr before ws.
        let pr = sp.op_by_name("pr").unwrap();
        let mut filter = |prefix: &Prefix, p: Placement| p.op != ws || prefix.is_placed(pr);
        let mut total = 0u64;
        let stats = lint_space_incremental(
            &sp,
            Some(&topo),
            0,
            Some(&mut filter),
            &mut |_, prefix, _| {
                let pos_pr = prefix.steps().iter().position(|s| s.op == pr).unwrap();
                let pos_ws = prefix.steps().iter().position(|s| s.op == ws).unwrap();
                assert!(pos_pr < pos_ws);
                total += 1;
            },
        );
        assert!(total > 0);
        assert!(stats.filtered_subtrees > 0);
        assert!(total < sp.count_traversals() as u64);
    }
}
