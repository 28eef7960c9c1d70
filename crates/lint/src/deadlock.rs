//! MPI deadlock detection over the lowered schedule.
//!
//! The program is SPMD — every rank executes the same instruction list —
//! but ranks differ in their communication patterns, so blocking can be
//! asymmetric. The detector mirrors the simulator's blocking semantics
//! (`crates/sim/src/exec.rs`) abstractly, with no clock:
//!
//! * `WaitRecvs(c)` blocks until every peer the rank receives from has
//!   executed `PostSends(c)`;
//! * `WaitSends(c)` blocks until every peer of a *rendezvous* send has
//!   executed `PostRecvs(c)` (eager sends never block);
//! * `AllReduce` blocks until every rank has reached it.
//!
//! Ranks advance round-robin until quiescence; unfinished ranks at
//! quiescence are deadlocked (`MPI104`), and the wait-for sets in the
//! diagnostic name who blocks whom. Static pre-checks catch the cases
//! that never need execution: waits with no preceding own post
//! (`MPI101`, the simulator's `WaitBeforePost`), asymmetric
//! point-to-point patterns (`MPI102`), waits whose matching remote post
//! instruction does not exist at all (`MPI103`), keys used both
//! point-to-point and collectively (`MPI105`), and malformed collective
//! patterns (`MPI107`).
//!
//! Only `MPI101` and `MPI104` depend on the order of the comm
//! instructions; the other checks see just which instructions the
//! schedule holds ([`order_free_checks`]). The ordered part runs on a
//! [`CommProgram`] through one blocking predicate ([`Blocking`]), which
//! the space walk's incremental matcher (`crate::space`) shares.

use crate::diag::{Diagnostic, RuleCode};
use crate::topo::CommTopology;
use dr_dag::{CommKey, OpSpec, Schedule, ScheduleAction};
use std::collections::{BTreeMap, BTreeSet};

/// A communication instruction, keyed by `K`: the [`CommKey`] itself, or
/// its index once interned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CommOp<K> {
    PostSends(K),
    PostRecvs(K),
    WaitSends(K),
    WaitRecvs(K),
    AllReduce(K),
}

impl<K> CommOp<K> {
    fn key(self) -> K {
        match self {
            CommOp::PostSends(k)
            | CommOp::PostRecvs(k)
            | CommOp::WaitSends(k)
            | CommOp::WaitRecvs(k)
            | CommOp::AllReduce(k) => k,
        }
    }

    fn map<L>(self, f: impl FnOnce(K) -> L) -> CommOp<L> {
        match self {
            CommOp::PostSends(k) => CommOp::PostSends(f(k)),
            CommOp::PostRecvs(k) => CommOp::PostRecvs(f(k)),
            CommOp::WaitSends(k) => CommOp::WaitSends(f(k)),
            CommOp::WaitRecvs(k) => CommOp::WaitRecvs(f(k)),
            CommOp::AllReduce(k) => CommOp::AllReduce(f(k)),
        }
    }
}

impl<'a> CommOp<&'a CommKey> {
    /// The comm instruction a DAG vertex lowers to, if any.
    pub(crate) fn of_spec(spec: &'a OpSpec) -> Option<Self> {
        Some(match spec {
            OpSpec::PostSends(c) => CommOp::PostSends(c),
            OpSpec::PostRecvs(c) => CommOp::PostRecvs(c),
            OpSpec::WaitSends(c) => CommOp::WaitSends(c),
            OpSpec::WaitRecvs(c) => CommOp::WaitRecvs(c),
            OpSpec::AllReduce(c) => CommOp::AllReduce(c),
            _ => return None,
        })
    }
}

/// The communication instructions of the schedule, by item index.
fn comm_ops(schedule: &Schedule) -> Vec<(usize, CommOp<&CommKey>)> {
    schedule
        .items
        .iter()
        .enumerate()
        .filter_map(|(i, item)| {
            let op = match &item.action {
                ScheduleAction::PostSends(c) => CommOp::PostSends(c),
                ScheduleAction::PostRecvs(c) => CommOp::PostRecvs(c),
                ScheduleAction::WaitSends(c) => CommOp::WaitSends(c),
                ScheduleAction::WaitRecvs(c) => CommOp::WaitRecvs(c),
                ScheduleAction::AllReduce(c) => CommOp::AllReduce(c),
                _ => return None,
            };
            Some((i, op))
        })
        .collect()
}

/// Statically detects unmatched and cyclically-blocked MPI communication.
pub fn detect_deadlocks(schedule: &Schedule, topo: &CommTopology) -> Vec<Diagnostic> {
    let ops = comm_ops(schedule);
    if ops.is_empty() {
        return Vec::new();
    }
    let (blocking, interned) = intern(ops.iter().map(|&(_, op)| op), topo);
    let mut program = CommProgram::new(blocking.keys());
    for op in interned {
        program.push(op);
    }

    let mut diags = key_checks(&ops, topo);
    // SPMD, so one pass over the shared instruction list suffices.
    for (j, &(i, op)) in ops.iter().enumerate() {
        if program.waits_before_post(j) {
            let (wait, post) = match op {
                CommOp::WaitSends(_) => ("WaitSends", "PostSends"),
                _ => ("WaitRecvs", "PostRecvs"),
            };
            let c = op.key();
            diags.push(
                Diagnostic::new(
                    RuleCode::Mpi101,
                    format!("{wait}({c}) at item {i} before any {post}({c})"),
                )
                .with_items(vec![i]),
            );
        }
        never_satisfied(&ops, i, op, topo, &mut diags);
    }

    // Abstract round-robin execution to quiescence (MPI104). Only comm
    // instructions matter; everything else is free progress.
    let ranks = topo.num_ranks();
    if ranks == 0 {
        return diags;
    }
    // A wait already reported as never-satisfiable (MPI101/MPI103) would
    // make the simulator error out rather than block; treat it as
    // non-blocking so MPI104 reports only genuine cross-rank cycles.
    let unsatisfiable: BTreeSet<usize> = diags
        .iter()
        .filter(|d| matches!(d.code, RuleCode::Mpi101 | RuleCode::Mpi103))
        .flat_map(|d| d.items.iter().copied())
        .collect();
    let mut pc = vec![0usize; ranks]; // index into `ops`, not items
    blocking.settle(&program, &mut pc, |j| unsatisfiable.contains(&ops[j].0));

    let blocked: Vec<usize> = (0..ranks).filter(|&r| pc[r] < ops.len()).collect();
    if !blocked.is_empty() {
        let mut parts = Vec::new();
        let mut items = Vec::new();
        for &r in &blocked {
            let (item_idx, _) = ops[pc[r]];
            let peers: Vec<usize> = blocking.waiting_on(&program, r, &pc).collect();
            parts.push(format!(
                "rank {r} blocked at {:?} (item {item_idx}) waiting on ranks {peers:?}",
                schedule.items[item_idx].name
            ));
            items.push(item_idx);
        }
        items.sort_unstable();
        items.dedup();
        diags.push(
            Diagnostic::new(RuleCode::Mpi104, format!("deadlock: {}", parts.join("; ")))
                .with_items(items),
        );
    }

    diags
}

/// The checks whose verdict depends only on which comm instructions a
/// schedule holds, not on their order: `MPI102`, `MPI103`, `MPI105`,
/// `MPI106` and `MPI107`. `ops` pairs each instruction with the item
/// index its diagnostics name.
pub(crate) fn order_free_checks(
    ops: &[(usize, CommOp<&CommKey>)],
    topo: &CommTopology,
) -> Vec<Diagnostic> {
    let mut diags = key_checks(ops, topo);
    for &(i, op) in ops {
        never_satisfied(ops, i, op, topo, &mut diags);
    }
    diags
}

/// Key usage and pattern matching: `MPI105`, `MPI106`, `MPI102` and
/// `MPI107`, in that order.
fn key_checks(ops: &[(usize, CommOp<&CommKey>)], topo: &CommTopology) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // Key usage: point-to-point vs collective must not mix (MPI105), and
    // keys without topology information cannot be analyzed (MPI106).
    let mut p2p_keys: BTreeMap<&CommKey, usize> = BTreeMap::new();
    let mut coll_keys: BTreeMap<&CommKey, usize> = BTreeMap::new();
    for &(i, op) in ops {
        match op {
            CommOp::AllReduce(c) => {
                coll_keys.entry(c).or_insert(i);
            }
            CommOp::PostSends(c)
            | CommOp::PostRecvs(c)
            | CommOp::WaitSends(c)
            | CommOp::WaitRecvs(c) => {
                p2p_keys.entry(c).or_insert(i);
            }
        }
    }
    for (key, &i) in &p2p_keys {
        if let Some(&j) = coll_keys.get(key) {
            diags.push(
                Diagnostic::new(
                    RuleCode::Mpi105,
                    format!("comm key {key} used both point-to-point and collectively"),
                )
                .with_items(vec![i.min(j), i.max(j)]),
            );
        }
    }
    let known = |key: &CommKey| topo.pattern(key).is_some();
    for (&key, &i) in p2p_keys.iter().chain(coll_keys.iter()) {
        if !known(key) {
            diags.push(
                Diagnostic::new(
                    RuleCode::Mpi106,
                    format!("no topology for comm key {key}; its analysis is skipped"),
                )
                .with_items(vec![i]),
            );
        }
    }

    // Pattern-level matching (MPI102 / MPI107), independent of order.
    for &key in p2p_keys.keys() {
        let Some(pat) = topo.pattern(key) else {
            continue;
        };
        for (src, traffic) in pat.iter().enumerate() {
            for &(dst, bytes) in &traffic.sends {
                let matched = dst < pat.len()
                    && pat[dst]
                        .recvs
                        .iter()
                        .filter(|&&(p, b)| p == src && b == bytes)
                        .count()
                        >= traffic
                            .sends
                            .iter()
                            .filter(|&&(p, b)| p == dst && b == bytes)
                            .count();
                if !matched {
                    diags.push(Diagnostic::new(
                        RuleCode::Mpi102,
                        format!(
                            "{key}: rank {src} sends {bytes} B to rank {dst} with no matching recv"
                        ),
                    ));
                }
            }
            for &(src_peer, bytes) in &traffic.recvs {
                let matched = src_peer < pat.len()
                    && pat[src_peer]
                        .sends
                        .iter()
                        .filter(|&&(p, b)| p == src && b == bytes)
                        .count()
                        >= traffic
                            .recvs
                            .iter()
                            .filter(|&&(p, b)| p == src_peer && b == bytes)
                            .count();
                if !matched {
                    diags.push(Diagnostic::new(
                        RuleCode::Mpi102,
                        format!(
                            "{key}: rank {src} expects {bytes} B from rank {src_peer} \
                             with no matching send"
                        ),
                    ));
                }
            }
        }
    }
    for &key in coll_keys.keys() {
        let Some(pat) = topo.pattern(key) else {
            continue;
        };
        for (rank, traffic) in pat.iter().enumerate() {
            if traffic.sends.len() != 1 || !traffic.recvs.is_empty() {
                diags.push(Diagnostic::new(
                    RuleCode::Mpi107,
                    format!(
                        "collective {key}: rank {rank} must contribute exactly one send \
                         and no recvs"
                    ),
                ));
            }
        }
    }

    diags
}

/// `MPI103` for the wait `op` at item `i`: the matching remote post never
/// appears in `ops`, or a message the wait depends on is lost in transit.
fn never_satisfied(
    ops: &[(usize, CommOp<&CommKey>)],
    i: usize,
    op: CommOp<&CommKey>,
    topo: &CommTopology,
    diags: &mut Vec<Diagnostic>,
) {
    let exists = |want: CommOp<&CommKey>| ops.iter().any(|&(_, o)| o == want);
    match op {
        CommOp::WaitSends(c) => {
            let needs_remote_recv = topo.pattern(c).is_some_and(|pat| {
                pat.iter()
                    .any(|t| t.sends.iter().any(|&(_, b)| !topo.is_eager(b)))
            });
            if needs_remote_recv && !exists(CommOp::PostRecvs(c)) {
                diags.push(
                    Diagnostic::new(
                        RuleCode::Mpi103,
                        format!(
                            "WaitSends({c}) at item {i} needs rendezvous receives, \
                             but no rank ever posts PostRecvs({c})"
                        ),
                    )
                    .with_items(vec![i]),
                );
            }
            // A lost rendezvous send never completes its handshake,
            // so the sender's wait can never be satisfied. Lost
            // eager sends complete locally and do not block here.
            if let Some(pat) = topo.pattern(c) {
                let lost: Vec<(usize, usize)> = pat
                    .iter()
                    .enumerate()
                    .flat_map(|(src, t)| {
                        t.sends
                            .iter()
                            .filter(move |&&(dst, bytes)| {
                                !topo.is_eager(bytes) && topo.is_lost(c, src, dst)
                            })
                            .map(move |&(dst, _)| (src, dst))
                    })
                    .collect();
                if let Some(&(src, dst)) = lost.first() {
                    diags.push(
                        Diagnostic::new(
                            RuleCode::Mpi103,
                            format!(
                                "WaitSends({c}) at item {i}: {} rendezvous message(s) \
                                 lost in transit (first: rank {src} -> rank {dst}); \
                                 the wait can never complete",
                                lost.len()
                            ),
                        )
                        .with_items(vec![i]),
                    );
                }
            }
        }
        CommOp::WaitRecvs(c) => {
            let expects_data = topo
                .pattern(c)
                .is_some_and(|pat| pat.iter().any(|t| !t.recvs.is_empty()));
            if expects_data && !exists(CommOp::PostSends(c)) {
                diags.push(
                    Diagnostic::new(
                        RuleCode::Mpi103,
                        format!(
                            "WaitRecvs({c}) at item {i} expects messages, \
                             but no rank ever posts PostSends({c})"
                        ),
                    )
                    .with_items(vec![i]),
                );
            }
            // A lost message never reaches its receiver — eager or
            // rendezvous alike — so the receiving wait is stranded.
            if let Some(pat) = topo.pattern(c) {
                let lost: Vec<(usize, usize)> = pat
                    .iter()
                    .enumerate()
                    .flat_map(|(dst, t)| {
                        t.recvs
                            .iter()
                            .filter(move |&&(src, _)| topo.is_lost(c, src, dst))
                            .map(move |&(src, _)| (src, dst))
                    })
                    .collect();
                if let Some(&(src, dst)) = lost.first() {
                    diags.push(
                        Diagnostic::new(
                            RuleCode::Mpi103,
                            format!(
                                "WaitRecvs({c}) at item {i}: {} expected message(s) \
                                 lost in transit (first: rank {src} -> rank {dst}); \
                                 the wait can never complete",
                                lost.len()
                            ),
                        )
                        .with_items(vec![i]),
                    );
                }
            }
        }
        _ => {}
    }
}

/// Interns the keys of `ops` to small indices in order of first use.
/// Returns the blocking facts of `topo` over those keys and each op with
/// its key interned.
pub(crate) fn intern<'a>(
    ops: impl IntoIterator<Item = CommOp<&'a CommKey>>,
    topo: &CommTopology,
) -> (Blocking, Vec<CommOp<usize>>) {
    let mut index: BTreeMap<&CommKey, usize> = BTreeMap::new();
    let mut keys = Vec::new();
    let interned = ops
        .into_iter()
        .map(|op| {
            op.map(|c| {
                *index.entry(c).or_insert_with(|| {
                    keys.push(c);
                    keys.len() - 1
                })
            })
        })
        .collect();
    (Blocking::new(topo, &keys), interned)
}

/// Who a wait waits for, per interned key and rank — the facts of the
/// topology the blocking predicate reads.
#[derive(Debug)]
pub(crate) struct Blocking {
    ranks: usize,
    keys: usize,
    /// `[key * ranks + rank]`: the peer of each message the rank
    /// receives, which its `WaitRecvs` waits to see post its sends.
    recv_from: Vec<Vec<usize>>,
    /// `[key * ranks + rank]`: the peer of each *rendezvous* message the
    /// rank sends, which its `WaitSends` waits to see post its receives.
    rendezvous_to: Vec<Vec<usize>>,
    /// Every rank, the peers of an `AllReduce`.
    all_ranks: Vec<usize>,
}

impl Blocking {
    /// Peers outside `0..num_ranks` are dropped, and a key with no
    /// pattern blocks no wait.
    fn new(topo: &CommTopology, keys: &[&CommKey]) -> Self {
        let ranks = topo.num_ranks();
        let mut recv_from = Vec::with_capacity(keys.len() * ranks);
        let mut rendezvous_to = Vec::with_capacity(keys.len() * ranks);
        for &key in keys {
            let pat = topo.pattern(key);
            for rank in 0..ranks {
                let traffic = pat.map(|p| &p[rank]);
                recv_from.push(
                    traffic
                        .iter()
                        .flat_map(|t| &t.recvs)
                        .map(|&(peer, _)| peer)
                        .filter(|&peer| peer < ranks)
                        .collect(),
                );
                rendezvous_to.push(
                    traffic
                        .iter()
                        .flat_map(|t| &t.sends)
                        .filter(|&&(_, bytes)| !topo.is_eager(bytes))
                        .map(|&(peer, _)| peer)
                        .filter(|&peer| peer < ranks)
                        .collect(),
                );
            }
        }
        Blocking {
            ranks,
            keys: keys.len(),
            recv_from,
            rendezvous_to,
            all_ranks: (0..ranks).collect(),
        }
    }

    /// The number of interned keys.
    pub(crate) fn keys(&self) -> usize {
        self.keys
    }

    /// The ranks `rank` waits for at its current op `program[pc[rank]]`,
    /// one per unmet message in pattern order; none when it may proceed.
    /// This is the one statement of the blocking semantics.
    pub(crate) fn waiting_on<'s>(
        &'s self,
        program: &'s CommProgram,
        rank: usize,
        pc: &'s [usize],
    ) -> impl Iterator<Item = usize> + 's {
        let op = program.ops[pc[rank]];
        let peers: &[usize] = match op {
            CommOp::WaitRecvs(k) => &self.recv_from[k * self.ranks + rank],
            CommOp::WaitSends(k) => &self.rendezvous_to[k * self.ranks + rank],
            CommOp::AllReduce(_) => &self.all_ranks,
            CommOp::PostSends(_) | CommOp::PostRecvs(_) => &[],
        };
        // A peer has posted once its program counter is past the first
        // post of the key.
        peers.iter().copied().filter(move |&peer| match op {
            CommOp::WaitRecvs(k) => pc[peer] <= program.first_sends[k],
            CommOp::WaitSends(k) => pc[peer] <= program.first_recvs[k],
            _ => pc[peer] < pc[rank],
        })
    }

    /// Advances every rank round-robin until none can move. `exempt(j)`
    /// lets a rank pass op `j` without blocking. Blocking is monotone —
    /// program counters only grow, and a rank's blockers only shrink as
    /// others advance — so the quiescent state is unique, and settling
    /// a program extended after an earlier settle reaches the state
    /// settling it from scratch would.
    pub(crate) fn settle(
        &self,
        program: &CommProgram,
        pc: &mut [usize],
        exempt: impl Fn(usize) -> bool,
    ) {
        let n = program.len();
        loop {
            let mut progressed = false;
            for rank in 0..pc.len() {
                while pc[rank] < n
                    && (exempt(pc[rank]) || self.waiting_on(program, rank, pc).next().is_none())
                {
                    pc[rank] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }
}

/// An SPMD comm instruction list with interned keys, plus the position
/// of each key's first `PostSends` and first `PostRecvs`. A rank has
/// posted a side of a key once its program counter is past that
/// position, so the ranks' program counters are the whole execution
/// state. Ops push and pop at the end.
#[derive(Debug)]
pub(crate) struct CommProgram {
    ops: Vec<CommOp<usize>>,
    /// Per key: the first `PostSends` position, `usize::MAX` if none.
    first_sends: Vec<usize>,
    /// Per key: the first `PostRecvs` position, `usize::MAX` if none.
    first_recvs: Vec<usize>,
}

impl CommProgram {
    /// An empty program over `keys` interned keys.
    pub(crate) fn new(keys: usize) -> Self {
        CommProgram {
            ops: Vec::new(),
            first_sends: vec![usize::MAX; keys],
            first_recvs: vec![usize::MAX; keys],
        }
    }

    /// The number of ops.
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    /// Appends `op`.
    pub(crate) fn push(&mut self, op: CommOp<usize>) {
        let at = self.ops.len();
        match op {
            CommOp::PostSends(k) => self.first_sends[k] = self.first_sends[k].min(at),
            CommOp::PostRecvs(k) => self.first_recvs[k] = self.first_recvs[k].min(at),
            _ => {}
        }
        self.ops.push(op);
    }

    /// Removes the last op.
    pub(crate) fn pop(&mut self) {
        let op = self.ops.pop().expect("pop on an empty comm program");
        let at = self.ops.len();
        let first = match op {
            CommOp::PostSends(k) => &mut self.first_sends[k],
            CommOp::PostRecvs(k) => &mut self.first_recvs[k],
            _ => return,
        };
        if *first == at {
            *first = usize::MAX;
        }
    }

    /// Whether the op at `j` is a wait with no own matching post before
    /// it (`MPI101`).
    pub(crate) fn waits_before_post(&self, j: usize) -> bool {
        match self.ops[j] {
            CommOp::WaitSends(k) => self.first_sends[k] > j,
            CommOp::WaitRecvs(k) => self.first_recvs[k] > j,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_dag::ScheduledItem;

    fn item(name: &str, action: ScheduleAction) -> ScheduledItem {
        ScheduledItem {
            name: name.into(),
            action,
            source: None,
        }
    }

    fn schedule_of(actions: Vec<(&str, ScheduleAction)>) -> Schedule {
        Schedule {
            items: actions.into_iter().map(|(n, a)| item(n, a)).collect(),
            num_events: 0,
            num_streams: 1,
        }
    }

    fn exchange_topology(bytes: u64) -> CommTopology {
        let mut topo = CommTopology::new(2).with_eager_threshold(1024);
        topo.all_to_all(CommKey::new("x"), bytes);
        topo
    }

    #[test]
    fn well_ordered_exchange_is_clean() {
        let c = CommKey::new("x");
        let s = schedule_of(vec![
            ("pr", ScheduleAction::PostRecvs(c.clone())),
            ("ps", ScheduleAction::PostSends(c.clone())),
            ("ws", ScheduleAction::WaitSends(c.clone())),
            ("wr", ScheduleAction::WaitRecvs(c)),
        ]);
        let diags = detect_deadlocks(&s, &exchange_topology(1 << 20));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn wait_before_own_post_is_mpi101() {
        let c = CommKey::new("x");
        let s = schedule_of(vec![
            ("wr", ScheduleAction::WaitRecvs(c.clone())),
            ("pr", ScheduleAction::PostRecvs(c.clone())),
            ("ps", ScheduleAction::PostSends(c.clone())),
            ("ws", ScheduleAction::WaitSends(c)),
        ]);
        let diags = detect_deadlocks(&s, &exchange_topology(1 << 20));
        assert!(
            diags.iter().any(|d| d.code == RuleCode::Mpi101),
            "{diags:?}"
        );
    }

    #[test]
    fn rendezvous_wait_before_remote_recv_deadlocks() {
        // Mirror of the simulator's rendezvous deadlock test: everyone
        // waits for sends to drain before anyone posts receives — with
        // the receive post entirely absent, that is MPI103 (never posted).
        let c = CommKey::new("x");
        let s = schedule_of(vec![
            ("ps", ScheduleAction::PostSends(c.clone())),
            ("ws", ScheduleAction::WaitSends(c)),
        ]);
        let diags = detect_deadlocks(&s, &exchange_topology(1 << 20));
        assert!(
            diags.iter().any(|d| d.code == RuleCode::Mpi103),
            "{diags:?}"
        );
    }

    #[test]
    fn eager_sends_do_not_block() {
        let c = CommKey::new("x");
        let s = schedule_of(vec![
            ("ps", ScheduleAction::PostSends(c.clone())),
            ("ws", ScheduleAction::WaitSends(c.clone())),
            ("pr", ScheduleAction::PostRecvs(c.clone())),
            ("wr", ScheduleAction::WaitRecvs(c)),
        ]);
        // 512 B <= 1024 B threshold: the sends complete eagerly, so
        // waiting on them before anyone posts receives is fine.
        let diags = detect_deadlocks(&s, &exchange_topology(512));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unmatched_pattern_is_mpi102() {
        let c = CommKey::new("x");
        let mut topo = CommTopology::new(2);
        topo.set(c.clone(), 0, vec![(1, 100)], vec![]);
        topo.set(c.clone(), 1, vec![], vec![]); // rank 1 never receives
        let s = schedule_of(vec![
            ("pr", ScheduleAction::PostRecvs(c.clone())),
            ("ps", ScheduleAction::PostSends(c.clone())),
            ("ws", ScheduleAction::WaitSends(c.clone())),
            ("wr", ScheduleAction::WaitRecvs(c)),
        ]);
        let diags = detect_deadlocks(&s, &topo);
        assert!(
            diags.iter().any(|d| d.code == RuleCode::Mpi102),
            "{diags:?}"
        );
    }

    #[test]
    fn collective_after_unreceived_rendezvous_deadlocks() {
        // Rank order forces: wait for rendezvous sends (needs remote
        // PostRecvs) but the receive post comes only after an AllReduce
        // nobody can reach. Classic cyclic block -> MPI104.
        let c = CommKey::new("x");
        let r = CommKey::new("sum");
        let mut topo = exchange_topology(1 << 20);
        topo.collective(r.clone(), 8);
        let s = schedule_of(vec![
            ("ps", ScheduleAction::PostSends(c.clone())),
            ("ws", ScheduleAction::WaitSends(c.clone())),
            ("ar", ScheduleAction::AllReduce(r)),
            ("pr", ScheduleAction::PostRecvs(c.clone())),
            ("wr", ScheduleAction::WaitRecvs(c)),
        ]);
        let diags = detect_deadlocks(&s, &topo);
        assert!(
            diags.iter().any(|d| d.code == RuleCode::Mpi104),
            "{diags:?}"
        );
    }

    #[test]
    fn mixed_key_use_is_mpi105() {
        let c = CommKey::new("x");
        let mut topo = exchange_topology(512);
        topo.collective(c.clone(), 8); // overwrites, but usage mix is the point
        let s = schedule_of(vec![
            ("ps", ScheduleAction::PostSends(c.clone())),
            ("ws", ScheduleAction::WaitSends(c.clone())),
            ("ar", ScheduleAction::AllReduce(c)),
        ]);
        let diags = detect_deadlocks(&s, &topo);
        assert!(
            diags.iter().any(|d| d.code == RuleCode::Mpi105),
            "{diags:?}"
        );
    }

    #[test]
    fn unknown_key_is_skipped_with_mpi106() {
        let c = CommKey::new("mystery");
        let s = schedule_of(vec![
            ("pr", ScheduleAction::PostRecvs(c.clone())),
            ("ps", ScheduleAction::PostSends(c.clone())),
            ("wr", ScheduleAction::WaitRecvs(c)),
        ]);
        let diags = detect_deadlocks(&s, &CommTopology::new(2));
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, RuleCode::Mpi106);
    }

    #[test]
    fn invalid_collective_pattern_is_mpi107() {
        let r = CommKey::new("sum");
        let mut topo = CommTopology::new(2);
        topo.set(r.clone(), 0, vec![(0, 8)], vec![]);
        topo.set(r.clone(), 1, vec![], vec![(0, 8)]); // recvs: invalid
        let s = schedule_of(vec![("ar", ScheduleAction::AllReduce(r))]);
        let diags = detect_deadlocks(&s, &topo);
        assert!(
            diags.iter().any(|d| d.code == RuleCode::Mpi107),
            "{diags:?}"
        );
    }

    #[test]
    fn lost_rendezvous_message_strands_both_waits() {
        let c = CommKey::new("x");
        let mut topo = exchange_topology(1 << 20); // rendezvous at 1 MiB
        topo.add_lost_send(c.clone(), 0, 1);
        let s = schedule_of(vec![
            ("pr", ScheduleAction::PostRecvs(c.clone())),
            ("ps", ScheduleAction::PostSends(c.clone())),
            ("ws", ScheduleAction::WaitSends(c.clone())),
            ("wr", ScheduleAction::WaitRecvs(c)),
        ]);
        let diags = detect_deadlocks(&s, &topo);
        let mpi103: Vec<_> = diags
            .iter()
            .filter(|d| d.code == RuleCode::Mpi103)
            .collect();
        assert_eq!(mpi103.len(), 2, "{diags:?}");
        assert!(mpi103.iter().any(|d| d.message.contains("WaitSends")));
        assert!(mpi103.iter().any(|d| d.message.contains("WaitRecvs")));
    }

    #[test]
    fn lost_eager_message_strands_only_the_receiver() {
        let c = CommKey::new("x");
        let mut topo = exchange_topology(512); // under the 1024 B threshold
        topo.add_lost_send(c.clone(), 0, 1);
        let s = schedule_of(vec![
            ("pr", ScheduleAction::PostRecvs(c.clone())),
            ("ps", ScheduleAction::PostSends(c.clone())),
            ("ws", ScheduleAction::WaitSends(c.clone())),
            ("wr", ScheduleAction::WaitRecvs(c)),
        ]);
        let diags = detect_deadlocks(&s, &topo);
        let mpi103: Vec<_> = diags
            .iter()
            .filter(|d| d.code == RuleCode::Mpi103)
            .collect();
        // The lost send completed eagerly at the sender, so only the
        // receive wait is stranded; nothing else deadlocks.
        assert_eq!(mpi103.len(), 1, "{diags:?}");
        assert!(mpi103[0].message.contains("WaitRecvs"));
        assert!(
            !diags.iter().any(|d| d.code == RuleCode::Mpi104),
            "{diags:?}"
        );
    }

    #[test]
    fn allreduce_alone_converges() {
        let r = CommKey::new("sum");
        let mut topo = CommTopology::new(4);
        topo.collective(r.clone(), 8);
        let s = schedule_of(vec![("ar", ScheduleAction::AllReduce(r))]);
        let diags = detect_deadlocks(&s, &topo);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
