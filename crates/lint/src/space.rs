//! Space-level incremental lint: one shared analysis over every
//! schedule of a [`DecisionSpace`].
//!
//! Linting a space cold re-runs every analysis from scratch per
//! schedule, yet schedules sharing a traversal prefix share their entire
//! lowering prefix — and therefore the happens-before state of every
//! prefix item. This module walks the space's prefix tree depth-first
//! with four checkpointed structures growing and rewinding in lockstep:
//!
//! * the incremental lowering ([`dr_dag::ScheduleBuilder`]), pushed and
//!   popped one placement at a time;
//! * an *ancestor-bitset* happens-before representation: per graph node
//!   a bitset of every node that reaches it, plus the node's in-edges.
//!   All happens-before edges point from earlier to later items, so each
//!   appended item's three node rows are unions of already-final rows —
//!   rows never mutate after creation, and rewinding is truncation. `a`
//!   happens-before `b` iff bit `a` of `b`'s row is set, exactly the
//!   relation the cold closure answers;
//! * the op→item map feeding dependency-edge coverage;
//! * with a topology, an MPI matcher: the prefix's comm instructions with
//!   interned keys, and each rank's program counter settled to
//!   quiescence under the cold detector's blocking predicate.
//!
//! At each leaf only the terminal `End` item is appended (3 node rows)
//! and the HB001 verdicts are read off the shared rows. The
//! redundant-sync pass probes each sync effect against the same rows:
//! removing the record→waiter edges into `end(i)` can only change rows
//! from `end(i)` on, so a probe recomputes just that suffix from the
//! stored in-edges and checks that every dependency edge covered before
//! is still covered. The deadlock pass reads the matcher: every leaf
//! holds the same comm instructions, so the order-free MPI checks run
//! once per walk, and a leaf that passes them, has no wait before its
//! own post and leaves every rank finished gets no MPI diagnostic. Any
//! other leaf runs the cold [`detect_deadlocks`] on the complete
//! schedule buffer, so MPI diagnostic text has one producer. The
//! [`LintReport`] is bit-identical to [`crate::lint_traversal`]'s.
//!
//! A caller's [`PrefixFilter`] restricts the walk to a subset of the
//! space; rule certification passes a ruleset's compiled constraints,
//! which admit a placement only when a satisfying schedule lies below it.

use crate::deadlock::{detect_deadlocks, intern, order_free_checks, Blocking, CommOp, CommProgram};
use crate::diag::{Diagnostic, LintReport, RuleCode};
use crate::topo::CommTopology;
use dr_dag::{
    DecisionKind, DecisionSpace, EventId, OpId, Placement, Prefix, ScheduleAction, ScheduleBuilder,
};

/// Counters of one space-level lint walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceLintStats {
    /// Schedules actually linted (leaves visited).
    pub schedules: u64,
    /// True when the walk stopped at the schedule cap with another
    /// schedule (one the filter admits) still to lint.
    pub truncated: bool,
    /// Happens-before node rows computed by the incremental engine:
    /// three per distinct prefix item, three per leaf for the terminal
    /// `End`, and the suffix rows each redundant-sync probe recomputes.
    pub hb_expansions: u64,
    /// Node rows the cold per-schedule passes would have computed for
    /// the same leaves: three per item per happens-before build, with
    /// one build for the race pass and `1 + k` for the redundant-sync
    /// pass (a baseline plus one per sync effect it tests).
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
        builder: ScheduleBuilder::new(space),
        hb: IncrementalHb::new(max_items_bound(space)),
        mpi: topo.map(|topo| (topo, IncrementalMatch::new(space, topo))),
        edges: static_dependency_edges(space),
        item_of_op: vec![None; space.num_ops()],
        covered: Vec::new(),
        scratch: Vec::new(),
        events: Vec::new(),
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
    builder: ScheduleBuilder<'a>,
    hb: IncrementalHb,
    /// The topology and its deadlock matcher, when one is given.
    mpi: Option<(&'a CommTopology, IncrementalMatch)>,
    edges: Vec<StaticEdge>,
    item_of_op: Vec<Option<usize>>,
    /// The current leaf's covered dependency edges as `(from, to)` node
    /// pairs, the set a redundant-sync probe must preserve.
    covered: Vec<(usize, usize)>,
    /// Suffix rows of the current redundant-sync probe.
    scratch: Vec<u64>,
    /// Distinct events of the `EventSync` being probed.
    events: Vec<EventId>,
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
            for (i, item) in (from..).zip(&self.builder.items()[from..to]) {
                self.hb
                    .append_item(i, &item.action, &mut self.stats.hb_expansions);
            }
            debug_assert!(to > from, "every step lowers at least one item");
            self.item_of_op[p.op] = Some(to - 1);
            if let Some((_, mpi)) = &mut self.mpi {
                mpi.push(p.op);
            }
            self.walk(prefix, filter, on_leaf);
            if let Some((_, mpi)) = &mut self.mpi {
                mpi.pop(p.op);
            }
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
    /// vacuous for schedules produced by our own lowering), the
    /// deadlock verdict from the matcher — the cold pass over the
    /// complete schedule only when it may find something — then the
    /// redundant-sync verdicts from probes of the shared rows.
    fn lint_leaf(&mut self, prefix: &Prefix, on_leaf: &mut dyn FnMut(u64, &Prefix, &LintReport)) {
        let end_idx = self.builder.items().len();
        self.hb.append_item(
            end_idx,
            &ScheduleAction::DeviceSync,
            &mut self.stats.hb_expansions,
        );

        let mut diags = Vec::new();
        let end_node = end(end_idx);
        self.covered.clear();
        for e in &self.edges {
            let iu = self.item_of_op[e.u_op].expect("all ops placed at a leaf");
            let iv = e
                .v_op
                .map(|v_op| self.item_of_op[v_op].expect("all ops placed at a leaf"));
            let to = iv.map_or(end_node, start);
            if self.hb.reaches(end(iu), to) {
                self.covered.push((end(iu), to));
            } else {
                diags.push(
                    Diagnostic::new(
                        RuleCode::Hb001,
                        format!(
                            "dependency {} is not enforced by any synchronization",
                            e.name
                        ),
                    )
                    .with_items(iv.map_or_else(|| vec![iu], |iv| vec![iu, iv])),
                );
            }
        }

        if let Some((topo, mpi)) = self.mpi.as_ref() {
            if !mpi.clean() {
                self.builder
                    .with_complete_schedule(|s| diags.extend(detect_deadlocks(s, topo)));
            }
        }
        self.covered.sort_unstable_by_key(|&(_, to)| to);
        let cold_builds = 2 + self.redundant_syncs(&mut diags);

        let report = LintReport::new(diags);
        let idx = self.stats.schedules;
        self.stats.schedules += 1;
        self.stats.cold_hb_expansions += 3 * (end_idx as u64 + 1) * cold_builds;
        on_leaf(idx, prefix, &report);
        self.hb.pop_item();
    }

    /// Appends the leaf's `RS001`–`RS004` diagnostics in
    /// [`crate::find_redundant_syncs`]' order and wording: per sync item
    /// in issue order, then every record no wait or sync consumes.
    /// Returns how many sync effects were tested, i.e. the number of
    /// happens-before rebuilds the cold pass makes beyond its baseline.
    fn redundant_syncs(&mut self, diags: &mut Vec<Diagnostic>) -> u64 {
        let items = self.builder.items();
        let mut tested = 0;
        let mut dominated = |i: usize, event: Option<EventId>| {
            tested += 1;
            self.hb.covers_without(
                i,
                event,
                &self.covered,
                &mut self.scratch,
                &mut self.stats.hb_expansions,
            )
        };
        for (i, item) in items.iter().enumerate() {
            match &item.action {
                ScheduleAction::StreamWaitEvent { event, .. } if dominated(i, None) => {
                    diags.push(
                        Diagnostic::new(
                            RuleCode::Rs001,
                            format!(
                                "StreamWaitEvent {:?} (event {event}) is dominated by the \
                                 existing partial order",
                                item.name
                            ),
                        )
                        .with_items(vec![i]),
                    );
                }
                ScheduleAction::EventSync { .. } if dominated(i, None) => {
                    diags.push(
                        Diagnostic::new(
                            RuleCode::Rs002,
                            format!(
                                "EventSync {:?} is wholly dominated by the existing \
                                 partial order",
                                item.name
                            ),
                        )
                        .with_items(vec![i]),
                    );
                }
                ScheduleAction::EventSync { events } => {
                    self.events.clone_from(events);
                    self.events.sort_unstable();
                    self.events.dedup();
                    for &ev in &self.events {
                        if dominated(i, Some(ev)) {
                            diags.push(
                                Diagnostic::new(
                                    RuleCode::Rs003,
                                    format!("event {ev} in EventSync {:?} is redundant", item.name),
                                )
                                .with_items(vec![i]),
                            );
                        }
                    }
                }
                _ => {}
            }
        }

        for (i, item) in items.iter().enumerate() {
            if matches!(item.action, ScheduleAction::EventRecord { .. }) && !self.hb.consumed(i) {
                diags.push(
                    Diagnostic::new(
                        RuleCode::Rs004,
                        format!(
                            "EventRecord {:?} is never consumed by a wait or sync",
                            item.name
                        ),
                    )
                    .with_items(vec![i]),
                );
            }
        }
        tested
    }
}

/// Checkpointed deadlock matcher along the current lowering prefix.
///
/// Every schedule of a space holds the same comm instructions, one per
/// comm op, so the order-free checks run once per walk. The ordered part
/// follows the prefix: each placed comm op is appended to a
/// [`CommProgram`], noted when it waits before its own post (`MPI101`),
/// and every rank is settled to quiescence through the cold detector's
/// [`Blocking`] predicate. Settling is monotone, so resuming from the
/// prefix's settled state reaches the cold round-robin's final state; a
/// pop restores the program counters saved before the push.
struct IncrementalMatch {
    blocking: Blocking,
    /// Per decision op: its comm instruction with the key interned.
    op_comm: Vec<Option<CommOp<usize>>>,
    program: CommProgram,
    /// Each rank's settled program counter into `program`.
    pc: Vec<usize>,
    /// `pc` before each op of `program`, one row of ranks per op.
    saved: Vec<usize>,
    /// Waits of the prefix placed before their own post (`MPI101`).
    early_waits: usize,
    /// Whether the space's comm instructions pass every order-free check.
    order_free_clean: bool,
}

impl IncrementalMatch {
    fn new(space: &DecisionSpace, topo: &CommTopology) -> Self {
        let dag = space.dag();
        let ops: Vec<(OpId, CommOp<_>)> = space
            .ops()
            .iter()
            .enumerate()
            .filter_map(|(op, d)| match d.kind {
                DecisionKind::Cpu(v) => CommOp::of_spec(&dag.vertex(v).spec).map(|c| (op, c)),
                _ => None,
            })
            .collect();
        let (blocking, interned) = intern(ops.iter().map(|&(_, c)| c), topo);
        let mut op_comm = vec![None; space.num_ops()];
        for (&(op, _), c) in ops.iter().zip(interned) {
            op_comm[op] = Some(c);
        }
        IncrementalMatch {
            program: CommProgram::new(blocking.keys()),
            pc: vec![0; topo.num_ranks()],
            saved: Vec::new(),
            early_waits: 0,
            order_free_clean: order_free_checks(&ops, topo).is_empty(),
            blocking,
            op_comm,
        }
    }

    /// Appends placed op `op`'s comm instruction, if it has one, and
    /// settles every rank.
    fn push(&mut self, op: OpId) {
        let Some(c) = self.op_comm[op] else {
            return;
        };
        self.saved.extend_from_slice(&self.pc);
        self.program.push(c);
        if self.program.waits_before_post(self.program.len() - 1) {
            self.early_waits += 1;
        }
        self.blocking.settle(&self.program, &mut self.pc, |_| false);
    }

    /// Rewinds the [`IncrementalMatch::push`] of `op`.
    fn pop(&mut self, op: OpId) {
        if self.op_comm[op].is_none() {
            return;
        }
        if self.program.waits_before_post(self.program.len() - 1) {
            self.early_waits -= 1;
        }
        self.program.pop();
        let at = self.saved.len() - self.pc.len();
        self.pc.copy_from_slice(&self.saved[at..]);
        self.saved.truncate(at);
    }

    /// Whether the cold detector would find nothing in the complete
    /// schedule: every order-free check passes, no wait precedes its own
    /// post, and every rank runs to the end.
    fn clean(&self) -> bool {
        self.order_free_clean
            && self.early_waits == 0
            && self.pc.iter().all(|&pc| pc == self.program.len())
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

/// One happens-before in-edge: its source node and, for a
/// record→waiter edge of a `StreamWaitEvent` or `EventSync`, the event
/// it carries.
#[derive(Clone, Copy)]
struct InEdge {
    from: usize,
    event: Option<EventId>,
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
/// creation and rewinding truncates. Every edge targets the newest
/// node, so the in-edges sit in one flat list, contiguous per node, and
/// rewind by truncation too.
struct IncrementalHb {
    words: usize,
    /// Row-major ancestor bitsets, one row per node, `words` u64 each.
    anc: Vec<u64>,
    nodes: usize,
    /// Every node's in-edges, grouped by target node.
    in_edges: Vec<InEdge>,
    /// Per node: the offset of its first in-edge in `in_edges`.
    in_start: Vec<usize>,
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
            in_edges: Vec::new(),
            in_start: Vec::new(),
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

    /// The in-edges of `node`.
    fn in_edges(&self, node: usize) -> &[InEdge] {
        let hi = self
            .in_start
            .get(node + 1)
            .copied()
            .unwrap_or(self.in_edges.len());
        &self.in_edges[self.in_start[node]..hi]
    }

    /// Whether some wait or sync resolved to the record at item `i`.
    fn consumed(&self, i: usize) -> bool {
        self.in_edges
            .iter()
            .any(|e| e.event.is_some() && e.from == end(i))
    }

    /// Allocates the next node row and returns its index.
    fn push_node(&mut self) -> usize {
        let node = self.nodes;
        self.nodes += 1;
        self.anc.resize(self.nodes * self.words, 0);
        self.in_start.push(self.in_edges.len());
        node
    }

    /// Adds edge `from → to` into the newest node `to`, carrying `event`
    /// when it is a record→waiter edge: `to`'s row absorbs `from`'s row
    /// and `from`'s bit.
    fn edge(&mut self, from: usize, to: usize, event: Option<EventId>) {
        debug_assert!(from < to, "happens-before edges must point forward");
        debug_assert_eq!(to + 1, self.nodes, "edges target the newest node");
        self.in_edges.push(InEdge { from, event });
        let w = self.words;
        let (head, tail) = self.anc.split_at_mut(to * w);
        let src = &head[from * w..from * w + w];
        let dst = &mut tail[..w];
        for (d, s) in dst.iter_mut().zip(src) {
            *d |= *s;
        }
        dst[from / 64] |= 1 << (from % 64);
    }

    /// Whether every `(from, to)` pair of `covered` (sorted by `to`)
    /// stays ordered once the record→waiter edges into `end(i)` are
    /// removed: all of them, or only those carrying `event`. Removing
    /// edges into `end(i)` changes no row before it, so only rows from
    /// `end(i)` on are recomputed, into `scratch`, and only up to the
    /// first pair lost or the last pair checked; `expansions` counts
    /// those rows.
    fn covers_without(
        &self,
        i: usize,
        event: Option<EventId>,
        covered: &[(usize, usize)],
        scratch: &mut Vec<u64>,
        expansions: &mut u64,
    ) -> bool {
        let base = end(i);
        let masked = |e: &InEdge| e.event.is_some() && (event.is_none() || e.event == event);
        if !self.in_edges(base).iter().any(masked) {
            return true; // nothing removed, nothing lost
        }
        let mut pending = &covered[covered.partition_point(|&(_, to)| to < base)..];
        let w = self.words;
        scratch.clear();
        scratch.resize((self.nodes - base) * w, 0);
        for node in base..self.nodes {
            if pending.is_empty() {
                return true;
            }
            let (done, rest) = scratch.split_at_mut((node - base) * w);
            let dst = &mut rest[..w];
            for e in self.in_edges(node) {
                if node == base && masked(e) {
                    continue;
                }
                let src = match e.from.checked_sub(base) {
                    Some(r) => &done[r * w..r * w + w],
                    None => &self.anc[e.from * w..e.from * w + w],
                };
                for (d, s) in dst.iter_mut().zip(src) {
                    *d |= *s;
                }
                dst[e.from / 64] |= 1 << (e.from % 64);
            }
            *expansions += 1;
            while let Some((&(from, to), rest)) = pending.split_first() {
                if to != node {
                    break;
                }
                if dst[from / 64] >> (from % 64) & 1 == 0 {
                    return false;
                }
                pending = rest;
            }
        }
        true
    }

    /// Appends item `i`'s three nodes, mirroring the cold `build_hb`
    /// edge construction. Items must arrive with consecutive indices and
    /// reference only already-recorded events (true for every schedule
    /// our own lowering produces).
    fn append_item(&mut self, i: usize, action: &ScheduleAction, expansions: &mut u64) {
        debug_assert_eq!(self.nodes, 3 * i, "items must append in order");
        let mut u = HbUndo {
            stream_prev: None,
            record_prev: None,
            device_pushed: false,
        };

        let iss = self.push_node();
        if i > 0 {
            self.edge(issue(i - 1), iss, None);
            if self.host_blocking[i - 1] {
                self.edge(end(i - 1), iss, None);
            }
        }

        let stream = match action {
            ScheduleAction::KernelLaunch { stream, .. }
            | ScheduleAction::EventRecord { stream, .. }
            | ScheduleAction::StreamWaitEvent { stream, .. } => Some(*stream),
            _ => None,
        };

        let st = self.push_node();
        self.edge(iss, st, None);
        if let Some(s) = stream {
            if s >= self.last_in_stream.len() {
                self.last_in_stream.resize(s + 1, None);
            }
            if let Some(prev) = self.last_in_stream[s] {
                self.edge(end(prev), st, None);
            }
            u.stream_prev = Some((s, self.last_in_stream[s]));
            self.last_in_stream[s] = Some(i);
            self.device_items.push(i);
            u.device_pushed = true;
        }

        let en = self.push_node();
        self.edge(st, en, None);
        match action {
            ScheduleAction::EventRecord { event, .. } => {
                if *event >= self.latest_record.len() {
                    self.latest_record.resize(event + 1, None);
                }
                u.record_prev = Some((*event, self.latest_record[*event]));
                self.latest_record[*event] = Some(i);
            }
            ScheduleAction::StreamWaitEvent { event, .. } => {
                if let Some(rec) = self.latest_record.get(*event).copied().flatten() {
                    self.edge(end(rec), en, Some(*event));
                }
            }
            ScheduleAction::EventSync { events } => {
                for &ev in events {
                    if let Some(rec) = self.latest_record.get(ev).copied().flatten() {
                        self.edge(end(rec), en, Some(ev));
                    }
                }
            }
            ScheduleAction::DeviceSync => {
                for d in 0..self.device_items.len() {
                    self.edge(end(self.device_items[d]), en, None);
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
        self.in_edges.truncate(self.in_start[self.nodes]);
        self.in_start.truncate(self.nodes);
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

    /// A space of GPU kernels `g*` and CPU ops `c*` on two streams.
    fn kernel_space(ops: &[&str], edges: &[(&str, &str)]) -> DecisionSpace {
        let mut b = DagBuilder::new();
        let ids: Vec<_> = ops
            .iter()
            .map(|&name| {
                let spec = if name.starts_with('g') {
                    OpSpec::GpuKernel(CostKey::new(name))
                } else {
                    OpSpec::CpuWork(CostKey::new(name))
                };
                b.add(name, spec)
            })
            .collect();
        let id = |name: &str| ids[ops.iter().position(|&o| o == name).unwrap()];
        for &(u, v) in edges {
            b.edge(id(u), id(v));
        }
        DecisionSpace::new(b.build().unwrap(), 2).unwrap()
    }

    /// The redundant-sync probes against the cold removal analysis, leaf
    /// for leaf, over spaces that fire each redundancy the lowering can
    /// produce: a same-stream join `g1, g2 → c` (RS003: stream FIFO
    /// orders g1 before g2's event), a kernel feeding a later kernel and
    /// two CPU ops (RS001: the host already synced g1 before g2's stream
    /// wait; RS002: the second CPU op's sync repeats the first's), and
    /// the exchange. No lowering can produce RS004: the lowering emits a
    /// record only as a `CER-after-*` op, which a `CES-b4-*` successor
    /// always syncs, or glued right before the stream wait that consumes
    /// it. Only the cold analysis's unit test on a hand-edited schedule
    /// (`redundant::tests::unused_record_is_rs004`) exercises that rule.
    #[test]
    fn redundant_sync_probes_match_the_cold_analysis() {
        let spaces = [
            kernel_space(&["g1", "g2", "c"], &[("g1", "c"), ("g2", "c")]),
            kernel_space(
                &["g1", "g2", "c1", "c2"],
                &[("g1", "g2"), ("g1", "c1"), ("g1", "c2")],
            ),
            exchange_space(),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for sp in &spaces {
            let traversals: Vec<Traversal> = sp.enumerate().collect();
            let stats = lint_space_incremental(sp, None, 0, None, &mut |idx, _, report| {
                let cold = lint_traversal(sp, &traversals[idx as usize], None);
                assert_eq!(report.diagnostics, cold.diagnostics, "schedule #{idx}");
                seen.extend(report.diagnostics.iter().map(|d| d.code));
            });
            assert_eq!(stats.schedules as usize, traversals.len());
            assert!(stats.hb_expansions <= stats.cold_hb_expansions);
        }
        for code in [RuleCode::Rs001, RuleCode::Rs002, RuleCode::Rs003] {
            assert!(seen.contains(&code), "{code:?} never fired: {seen:?}");
        }
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
