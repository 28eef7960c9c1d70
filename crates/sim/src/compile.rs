//! Compilation of an executable [`Schedule`] against a [`Workload`]:
//! symbolic keys are resolved once into per-rank instruction lists so that
//! the hot benchmarking loop never touches strings or hash maps.

use crate::workload::Workload;
use dr_dag::{CommKey, CostKey, Schedule, ScheduleAction};

/// Simulation errors: compilation failures, malformed programs, and
/// runtime deadlock.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The workload does not define a duration for this key on this rank.
    MissingCost {
        /// Rank whose cost lookup failed.
        rank: usize,
        /// The unresolved key.
        key: CostKey,
    },
    /// The workload does not define a communication pattern for this key.
    MissingComm {
        /// Rank whose pattern lookup failed.
        rank: usize,
        /// The unresolved key.
        key: CommKey,
    },
    /// Rank `src` sends to `dst` under `key` but `dst` posts no matching
    /// receive (or sizes disagree).
    AsymmetricComm {
        /// The communication key.
        key: CommKey,
        /// Sending rank.
        src: usize,
        /// Receiving rank with no matching receive.
        dst: usize,
    },
    /// A wait executed before the matching post on the same rank — the
    /// schedule is malformed (the DAG should order posts before waits).
    WaitBeforePost {
        /// Rank where the malformed order was observed.
        rank: usize,
        /// Name of the offending instruction.
        name: String,
    },
    /// No rank can make progress: every unfinished rank is blocked waiting
    /// for a message whose sender never posts. The paper avoids this by
    /// construction (DAG edges); the simulator detects it.
    Deadlock {
        /// Human-readable description of the blocked ranks.
        detail: String,
    },
    /// The schedule references more ranks than the workload provides.
    NoRanks,
    /// A communication key is used by both point-to-point operations and
    /// a collective; the matching semantics are incompatible.
    MixedCommKey {
        /// The offending key.
        key: CommKey,
    },
    /// A collective key's pattern must be exactly one `sends` entry
    /// (the contribution size) and no `recvs`.
    InvalidCollective {
        /// The offending key.
        key: CommKey,
        /// Rank whose pattern is malformed.
        rank: usize,
    },
    /// The execution watchdog fired: the run exceeded the platform's
    /// step budget (a fault-induced livelock or runaway schedule) and
    /// was killed instead of spinning.
    Budget {
        /// Instructions retired when the watchdog fired.
        steps: u64,
        /// Which limit was exceeded, human-readable.
        detail: String,
    },
    /// An evaluation panicked and was caught by a resilience layer; the
    /// payload is preserved as text.
    Panicked {
        /// The stringified panic payload.
        detail: String,
    },
    /// A chaos run could not produce a usable result: the fault
    /// configuration was invalid, or fault injection quarantined every
    /// evaluation.
    Faulted {
        /// Human-readable description of what went wrong.
        detail: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::MissingCost { rank, key } => {
                write!(f, "no cost for key {key} on rank {rank}")
            }
            SimError::MissingComm { rank, key } => {
                write!(f, "no communication pattern for key {key} on rank {rank}")
            }
            SimError::AsymmetricComm { key, src, dst } => {
                write!(
                    f,
                    "comm {key}: rank {src} sends to {dst} with no matching receive"
                )
            }
            SimError::WaitBeforePost { rank, name } => {
                write!(f, "rank {rank}: {name} executed before its matching post")
            }
            SimError::Deadlock { detail } => write!(f, "deadlock: {detail}"),
            SimError::NoRanks => write!(f, "workload must have at least one rank"),
            SimError::MixedCommKey { key } => {
                write!(f, "comm key {key} mixes point-to-point and collective use")
            }
            SimError::Budget { steps, detail } => {
                write!(
                    f,
                    "execution budget exhausted after {steps} steps: {detail}"
                )
            }
            SimError::Panicked { detail } => {
                write!(f, "evaluation panicked: {detail}")
            }
            SimError::Faulted { detail } => {
                write!(f, "fault injection: {detail}")
            }
            SimError::InvalidCollective { key, rank } => {
                write!(
                    f,
                    "collective {key}: rank {rank} must have one send and no recvs"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A fully resolved instruction (durations in seconds).
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Synchronous CPU work.
    CpuWork {
        /// Duration the CPU is busy.
        dur: f64,
    },
    /// Kernel launch into a stream.
    KernelLaunch {
        /// Target stream.
        stream: usize,
        /// Noiseless kernel body duration.
        dur: f64,
    },
    /// Post all sends of a communication pattern.
    PostSends {
        /// Index into [`CompiledProgram::comms`].
        comm: usize,
    },
    /// Post all receives of a communication pattern.
    PostRecvs {
        /// Index into [`CompiledProgram::comms`].
        comm: usize,
    },
    /// Block until all sends of the pattern complete.
    WaitSends {
        /// Index into [`CompiledProgram::comms`].
        comm: usize,
    },
    /// Block until all receives of the pattern complete.
    WaitRecvs {
        /// Index into [`CompiledProgram::comms`].
        comm: usize,
    },
    /// Blocking collective reduction; completes once every rank has
    /// entered and the reduction tree has run.
    AllReduce {
        /// Index into [`CompiledProgram::comms`].
        comm: usize,
    },
    /// `cudaEventRecord`.
    EventRecord {
        /// Recorded event.
        event: usize,
        /// Stream whose tail is captured.
        stream: usize,
    },
    /// `cudaEventSynchronize` over several events.
    EventSync {
        /// Events that must complete.
        events: Box<[usize]>,
    },
    /// `cudaStreamWaitEvent`.
    StreamWaitEvent {
        /// Waiting stream.
        stream: usize,
        /// Event waited on.
        event: usize,
    },
    /// Device-wide synchronization (program end).
    DeviceSync,
}

/// One communication pattern resolved for every rank.
#[derive(Debug, Clone)]
pub struct CommTable {
    /// The symbolic key, kept for error messages.
    pub key: CommKey,
    /// Per rank: `(peer, bytes)` sends.
    pub sends: Vec<Vec<(usize, u64)>>,
    /// Per rank: `(peer, bytes)` receives.
    pub recvs: Vec<Vec<(usize, u64)>>,
}

/// A schedule resolved against a workload: ready to execute repeatedly.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Number of SPMD ranks.
    pub num_ranks: usize,
    /// Streams referenced by the schedule.
    pub num_streams: usize,
    /// CUDA events referenced by the schedule.
    pub num_events: usize,
    /// Per-rank instruction list (same length and structure across ranks;
    /// only durations differ).
    pub instrs: Vec<Vec<Instr>>,
    /// Instruction names (shared across ranks), parallel to each rank's
    /// instruction list.
    pub names: Vec<String>,
    /// Resolved communication tables.
    pub comms: Vec<CommTable>,
}

impl CompiledProgram {
    /// Resolves `schedule` against `workload`, validating that every key
    /// exists and that send/receive patterns match pairwise.
    pub fn compile(schedule: &Schedule, workload: &dyn Workload) -> Result<Self, SimError> {
        let num_ranks = workload.num_ranks();
        if num_ranks == 0 {
            return Err(SimError::NoRanks);
        }

        // Collect communication keys in first-use order.
        let mut comm_keys: Vec<CommKey> = Vec::new();
        let comm_idx = |key: &CommKey, comm_keys: &mut Vec<CommKey>| -> usize {
            if let Some(i) = comm_keys.iter().position(|k| k == key) {
                i
            } else {
                comm_keys.push(key.clone());
                comm_keys.len() - 1
            }
        };

        let mut names = Vec::with_capacity(schedule.items.len());
        let mut proto: Vec<(usize, &ScheduleAction)> = Vec::with_capacity(schedule.items.len());
        for (i, item) in schedule.items.iter().enumerate() {
            names.push(item.name.clone());
            proto.push((i, &item.action));
        }

        let mut instrs: Vec<Vec<Instr>> = Vec::with_capacity(num_ranks);
        for rank in 0..num_ranks {
            let mut list = Vec::with_capacity(proto.len());
            for &(_, action) in &proto {
                let instr = match action {
                    ScheduleAction::CpuWork(key) => Instr::CpuWork {
                        dur: workload
                            .cost(rank, key)
                            .ok_or_else(|| SimError::MissingCost {
                                rank,
                                key: key.clone(),
                            })?,
                    },
                    ScheduleAction::KernelLaunch { stream, cost } => Instr::KernelLaunch {
                        stream: *stream,
                        dur: workload
                            .cost(rank, cost)
                            .ok_or_else(|| SimError::MissingCost {
                                rank,
                                key: cost.clone(),
                            })?,
                    },
                    ScheduleAction::PostSends(key) => Instr::PostSends {
                        comm: comm_idx(key, &mut comm_keys),
                    },
                    ScheduleAction::PostRecvs(key) => Instr::PostRecvs {
                        comm: comm_idx(key, &mut comm_keys),
                    },
                    ScheduleAction::WaitSends(key) => Instr::WaitSends {
                        comm: comm_idx(key, &mut comm_keys),
                    },
                    ScheduleAction::WaitRecvs(key) => Instr::WaitRecvs {
                        comm: comm_idx(key, &mut comm_keys),
                    },
                    ScheduleAction::AllReduce(key) => Instr::AllReduce {
                        comm: comm_idx(key, &mut comm_keys),
                    },
                    ScheduleAction::EventRecord { event, stream } => Instr::EventRecord {
                        event: *event,
                        stream: *stream,
                    },
                    ScheduleAction::EventSync { events } => Instr::EventSync {
                        events: events.clone().into_boxed_slice(),
                    },
                    ScheduleAction::StreamWaitEvent { stream, event } => Instr::StreamWaitEvent {
                        stream: *stream,
                        event: *event,
                    },
                    ScheduleAction::DeviceSync => Instr::DeviceSync,
                };
                list.push(instr);
            }
            instrs.push(list);
        }

        // Classify each communication key by how the program uses it:
        // point-to-point matching and collectives validate differently.
        let mut p2p_use = vec![false; comm_keys.len()];
        let mut coll_use = vec![false; comm_keys.len()];
        for instr in &instrs[0] {
            match instr {
                Instr::PostSends { comm }
                | Instr::PostRecvs { comm }
                | Instr::WaitSends { comm }
                | Instr::WaitRecvs { comm } => p2p_use[*comm] = true,
                Instr::AllReduce { comm } => coll_use[*comm] = true,
                _ => {}
            }
        }
        for (i, key) in comm_keys.iter().enumerate() {
            if p2p_use[i] && coll_use[i] {
                return Err(SimError::MixedCommKey { key: key.clone() });
            }
        }

        // Resolve and validate communication tables.
        let mut comms = Vec::with_capacity(comm_keys.len());
        for (key_idx, key) in comm_keys.iter().enumerate() {
            let mut sends = Vec::with_capacity(num_ranks);
            let mut recvs = Vec::with_capacity(num_ranks);
            for rank in 0..num_ranks {
                let pat = workload
                    .comm(rank, key)
                    .ok_or_else(|| SimError::MissingComm {
                        rank,
                        key: key.clone(),
                    })?;
                sends.push(pat.sends);
                recvs.push(pat.recvs);
            }
            if coll_use[key_idx] {
                // Collective: one contribution-size entry per rank.
                for rank in 0..num_ranks {
                    if sends[rank].len() != 1 || !recvs[rank].is_empty() {
                        return Err(SimError::InvalidCollective {
                            key: key.clone(),
                            rank,
                        });
                    }
                }
                comms.push(CommTable {
                    key: key.clone(),
                    sends,
                    recvs,
                });
                continue;
            }
            // Pairwise matching: each send must have a matching receive.
            #[allow(clippy::needless_range_loop)] // indices are the clearest form here
            for src in 0..num_ranks {
                for &(dst, bytes) in &sends[src] {
                    let matched =
                        dst < num_ranks && recvs[dst].iter().any(|&(p, b)| p == src && b == bytes);
                    if !matched {
                        return Err(SimError::AsymmetricComm {
                            key: key.clone(),
                            src,
                            dst,
                        });
                    }
                }
            }
            #[allow(clippy::needless_range_loop)] // indices are the clearest form here
            for dst in 0..num_ranks {
                for &(src, bytes) in &recvs[dst] {
                    let matched =
                        src < num_ranks && sends[src].iter().any(|&(p, b)| p == dst && b == bytes);
                    if !matched {
                        return Err(SimError::AsymmetricComm {
                            key: key.clone(),
                            src: dst,
                            dst: src,
                        });
                    }
                }
            }
            comms.push(CommTable {
                key: key.clone(),
                sends,
                recvs,
            });
        }

        Ok(CompiledProgram {
            num_ranks,
            num_streams: schedule.num_streams,
            num_events: schedule.num_events,
            instrs,
            names,
            comms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{CommPattern, TableWorkload};
    use dr_dag::{build_schedule, DagBuilder, DecisionSpace, OpSpec};

    fn mini_schedule() -> (DecisionSpace, Schedule) {
        let mut b = DagBuilder::new();
        let k = b.add("k", OpSpec::GpuKernel(CostKey::new("k")));
        let ps = b.add("PostSends", OpSpec::PostSends(CommKey::new("x")));
        let pr = b.add("PostRecvs", OpSpec::PostRecvs(CommKey::new("x")));
        let ws = b.add("WaitSends", OpSpec::WaitSends(CommKey::new("x")));
        let wr = b.add("WaitRecvs", OpSpec::WaitRecvs(CommKey::new("x")));
        b.edge(k, ps);
        b.edge(ps, ws);
        b.edge(pr, wr);
        b.edge(ps, wr);
        let sp = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let t = sp.enumerate().next().unwrap();
        let s = build_schedule(&sp, &t);
        (sp, s)
    }

    fn mini_workload() -> TableWorkload {
        let mut w = TableWorkload::new(2);
        w.cost_all("k", 1e-3);
        w.comm_all_to_all("x", 4096);
        w
    }

    #[test]
    fn compiles_and_shares_structure_across_ranks() {
        let (_, s) = mini_schedule();
        let p = CompiledProgram::compile(&s, &mini_workload()).unwrap();
        assert_eq!(p.num_ranks, 2);
        assert_eq!(p.instrs[0].len(), p.instrs[1].len());
        assert_eq!(p.names.len(), p.instrs[0].len());
        assert_eq!(p.comms.len(), 1);
    }

    #[test]
    fn missing_cost_is_reported() {
        let (_, s) = mini_schedule();
        let mut w = TableWorkload::new(2);
        w.comm_all_to_all("x", 4096);
        match CompiledProgram::compile(&s, &w) {
            Err(SimError::MissingCost { key, .. }) => assert_eq!(key, CostKey::new("k")),
            other => panic!("expected MissingCost, got {other:?}"),
        }
    }

    #[test]
    fn missing_comm_is_reported() {
        let (_, s) = mini_schedule();
        let mut w = TableWorkload::new(2);
        w.cost_all("k", 1e-3);
        assert!(matches!(
            CompiledProgram::compile(&s, &w),
            Err(SimError::MissingComm { .. })
        ));
    }

    #[test]
    fn asymmetric_comm_is_rejected() {
        let (_, s) = mini_schedule();
        let mut w = TableWorkload::new(2);
        w.cost_all("k", 1e-3);
        w.comm_on(
            0,
            "x",
            CommPattern {
                sends: vec![(1, 100)],
                recvs: vec![(1, 100)],
            },
        );
        // Rank 1 receives the wrong size.
        w.comm_on(
            1,
            "x",
            CommPattern {
                sends: vec![(0, 100)],
                recvs: vec![(0, 999)],
            },
        );
        assert!(matches!(
            CompiledProgram::compile(&s, &w),
            Err(SimError::AsymmetricComm { .. })
        ));
    }

    #[test]
    fn zero_rank_workload_rejected() {
        let (_, s) = mini_schedule();
        let w = TableWorkload::new(0);
        assert!(matches!(
            CompiledProgram::compile(&s, &w),
            Err(SimError::NoRanks)
        ));
    }
}
