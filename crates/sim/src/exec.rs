//! Discrete-event execution of a compiled program across all ranks.
//!
//! Every rank is an SPMD copy of the same instruction list. Ranks are
//! advanced round-robin; a rank blocks when it reaches an `MPI_Wait` whose
//! matching remote post has not executed yet. If no rank can advance, the
//! program deadlocks (e.g. all ranks waiting on receives before any rank
//! has posted its sends) and the executor reports it instead of hanging.
//!
//! Execution runs in two passes:
//!
//! * **Lowering** ([`Tape::lower`]) plays that round-robin control flow
//!   once per program and platform. None of it depends on a timing: the
//!   retirement order, every blocking decision, the eager/rendezvous
//!   split, every fault-plan decision (stragglers and spikes are keyed by
//!   rank and pc, delays and drops by message), every integer
//!   [`SimStats`] count and the `WaitBeforePost`, `Deadlock` and
//!   step-budget errors are functions of the program alone, so lowering
//!   returns every error and a replay cannot fail. The pass records the
//!   retirement order as a flat tape of ops with pre-resolved rank,
//!   stream, event and message slots and constant durations, wire times
//!   and fault factors.
//! * **Replay** ([`Tape::replay`]) is one simulated invocation: it walks
//!   the tape over flat per-rank state that is reset in place, so a
//!   multi-sample protocol lowers once and then replays without
//!   allocating. One pass can replay up to [`LANES`] invocations at once
//!   ([`Tape::replay_lanes`]): every state slot holds one value per lane
//!   and each lane performs exactly the operations a one-lane pass
//!   would, so lane `l` of a pass equals a replay of its seed alone.
//!
//! Noise is *position-keyed*: one `sample_seed` is drawn per invocation
//! (from the caller's RNG) and every noisy quantity is a pure function of
//! `(sample_seed, position)` — `(rank, pc)` for instruction durations,
//! `(comm, src, dst)` for wire times. Replay therefore draws the same
//! factors in tape order as the round-robin interleaving would, and it
//! performs the same floating-point operations in the same order, so a
//! replay is bit-identical to executing the ranks round-robin.

use crate::compile::{CompiledProgram, Instr, SimError};
use crate::platform::{NoiseModel, Platform};
use crate::stats::SimStats;
use crate::trace::{Resource, Trace, TraceEvent};
use rand::rngs::SmallRng;
use rand::RngCore;
use std::ops::Range;

/// Domain tag for instruction-duration noise keys.
const NK_INSTR: u64 = 1 << 62;
/// Domain tag for wire-time noise keys.
const NK_WIRE: u64 = 2 << 62;

/// Noise key of the instruction at `(rank, pc)`.
#[inline]
fn instr_key(r: usize, pc: usize) -> u64 {
    NK_INSTR | ((r as u64) << 32) | pc as u64
}

/// Noise key of the wire `src → dst` under `comm`.
#[inline]
fn wire_key(comm: usize, src: usize, dst: usize) -> u64 {
    NK_WIRE | ((comm as u64) << 32) | ((src as u64) << 16) | dst as u64
}

/// The widest replay pass.
pub(crate) const LANES: usize = 8;

/// A dense cache of position-keyed noise factors, addressed by noise key
/// and by the memoized protocol's cell id.
///
/// [`NoiseModel::factor_keyed`] is a pure function of `(seed, key)`, so
/// its draws can be tabulated once and replayed bit-identically — and the
/// memoized bench protocol reuses the *same* per-cell sample seeds for
/// every schedule it evaluates, so the tables amortize across an entire
/// exploration. Slots hold `f64::NAN` until first use (`factor_keyed`
/// never returns NaN: its `u1` uniform is clamped above zero, so the
/// Box-Muller draw is always finite).
///
/// The slots are grouped in blocks of [`LANES`] consecutive cell ids.
/// Within a block, each key owns one row of [`LANES`] slots: instruction
/// rows `rank * stride + pc` first, then wire rows
/// `(comm * ranks + src) * ranks + dst`. A pass reads each lane's slot
/// of the op's row; most passes cover consecutive ids of one block, so
/// their lanes share one row. Each block is its own allocation, so a
/// shape change copies one block at a time. The factor for a given
/// `(rank, pc)` row depends only on the key, not the instruction
/// occupying it, so tables are shared across sibling schedules of one
/// decision space — including schedules of *different lengths*
/// (stream-binding choices change how many sync instructions lowering
/// inserts), which is why [`fit`] grows the table in place instead of
/// resetting it.
///
/// [`fit`]: NoiseTable::fit
#[derive(Debug, Default)]
pub(crate) struct NoiseTable {
    /// One slot array per block, `rows` rows of [`LANES`] slots each.
    blocks: Vec<Vec<f64>>,
    rows: usize,
    /// The program shape the rows cover: ranks, instruction rows per
    /// rank and communication patterns.
    ranks: usize,
    stride: usize,
    comms: usize,
}

impl NoiseTable {
    /// Grows the table to cover `prog`'s shape and every cell id below
    /// `cells`, keeping every factor already drawn (rows are
    /// key-addressed, so entries stay valid across programs of any shape
    /// with the same rank count; new blocks are appended). Only a
    /// rank-count change — which never happens within one exploration —
    /// renumbers the rows and resets the table.
    pub(crate) fn fit(&mut self, prog: &CompiledProgram, cells: usize) {
        let ranks = prog.num_ranks;
        if ranks != self.ranks {
            *self = NoiseTable {
                ranks,
                ..NoiseTable::default()
            };
        }
        let (stride, comms) = (
            prog.names.len().max(self.stride),
            prog.comms.len().max(self.comms),
        );
        if stride > self.stride || comms > self.comms {
            let (old, rows) = (self.stride, ranks * stride + comms * ranks * ranks);
            // Instruction row `r * old + pc` moves to `r * stride + pc`;
            // wire rows keep their order after the instruction rows.
            let at = |i: usize| match i.checked_sub(ranks * old) {
                None => i / old * stride + i % old,
                Some(wire) => ranks * stride + wire,
            };
            for block in &mut self.blocks {
                let mut grown = vec![f64::NAN; rows * LANES];
                for (i, row) in block.chunks(LANES).enumerate() {
                    grown[at(i) * LANES..][..LANES].copy_from_slice(row);
                }
                *block = grown;
            }
            (self.rows, self.stride, self.comms) = (rows, stride, comms);
        }
        let blocks = cells.div_ceil(LANES);
        while self.blocks.len() < blocks {
            self.blocks.push(vec![f64::NAN; self.rows * LANES]);
        }
    }
}

/// The noise source of one `W`-lane pass: each lane's sample seed, plus
/// the memo's table and each lane's place in it when there is one. The
/// table is purely a fast path — it replays exactly what `factor_keyed`
/// would return.
pub(crate) struct Noise<'n, const W: usize> {
    model: NoiseModel,
    seeds: [u64; W],
    table: Option<Tabled<'n, W>>,
}

/// A pass's view of the table.
struct Tabled<'n, const W: usize> {
    tab: &'n mut NoiseTable,
    /// Lane `l`'s block and slot in the block's rows.
    at: [(usize, usize); W],
}

impl<'n, const W: usize> Noise<'n, W> {
    /// Noise for `seeds` on `platform`, lane `l` looked up in the table
    /// at cell id `ids[l]` if given.
    pub(crate) fn new(
        platform: &Platform,
        seeds: [u64; W],
        table: Option<(&'n mut NoiseTable, [usize; W])>,
    ) -> Self {
        let table = table.map(|(tab, ids)| {
            assert!(
                ids.iter().all(|&c| c < tab.blocks.len() * LANES),
                "a pass's cells fit the table"
            );
            let at = ids.map(|c| (c / LANES, c % LANES));
            Tabled { tab, at }
        });
        Noise {
            model: platform.noise,
            seeds,
            table,
        }
    }

    /// Per-lane factors of the instruction at `(rank, pc)`.
    #[inline]
    fn instr(&mut self, r: usize, pc: usize) -> [f64; W] {
        let key = instr_key(r, pc);
        match self.table.as_mut() {
            None => draw(self.model, &self.seeds, key),
            Some(t) => {
                let row = r * t.tab.stride + pc;
                t.cached(row, self.model, &self.seeds, key)
            }
        }
    }

    /// Per-lane factors of the wire `src → dst` under `comm`.
    #[inline]
    fn wire(&mut self, comm: usize, src: usize, dst: usize) -> [f64; W] {
        let key = wire_key(comm, src, dst);
        match self.table.as_mut() {
            None => draw(self.model, &self.seeds, key),
            Some(t) => {
                let ranks = t.tab.ranks;
                let row = ranks * t.tab.stride + (comm * ranks + src) * ranks + dst;
                t.cached(row, self.model, &self.seeds, key)
            }
        }
    }
}

impl<const W: usize> Tabled<'_, W> {
    /// The factors of `key` from its row, drawing the lanes not yet
    /// tabulated.
    #[inline]
    fn cached(&mut self, row: usize, model: NoiseModel, seeds: &[u64; W], key: u64) -> [f64; W] {
        let blocks = &mut self.tab.blocks;
        std::array::from_fn(|l| {
            let (block, slot) = self.at[l];
            let cell = &mut blocks[block][row * LANES + slot];
            if cell.is_nan() {
                *cell = model.factor_keyed(seeds[l], key);
            }
            *cell
        })
    }
}

/// Draws the factor of `key` for every lane's seed.
#[inline]
fn draw<const W: usize>(model: NoiseModel, seeds: &[u64; W], key: u64) -> [f64; W] {
    std::array::from_fn(|l| model.factor_keyed(seeds[l], key))
}

/// Completion times of one simulated program invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// Finish time of each rank, seconds from program start.
    pub rank_times: Vec<f64>,
}

impl ExecOutcome {
    /// Program time: the slowest rank.
    pub fn time(&self) -> f64 {
        self.rank_times.iter().copied().fold(0.0, f64::max)
    }
}

/// Executes one invocation of `prog` on `platform`, drawing measurement
/// noise from `rng`. Returns per-rank completion times.
pub fn execute(
    prog: &CompiledProgram,
    platform: &Platform,
    rng: &mut SmallRng,
) -> Result<ExecOutcome, SimError> {
    execute_seeded(prog, platform, rng.next_u64()).map(|(o, _)| o)
}

/// Like [`execute`], additionally recording a per-operation [`Trace`]
/// (host spans and kernel stream spans) for timeline inspection.
pub fn execute_traced(
    prog: &CompiledProgram,
    platform: &Platform,
    rng: &mut SmallRng,
) -> Result<(ExecOutcome, Trace), SimError> {
    let mut trace = Trace::default();
    let (outcome, _) = Tape::lower(prog, platform)?.replay(rng.next_u64(), Some(&mut trace));
    Ok((outcome, trace))
}

/// The position-keyed execution primitive: one invocation whose noise is
/// entirely determined by `sample_seed`, with its [`SimStats`]
/// (instruction counts, message protocol split, bytes moved, sync-op
/// counts per kind, per-resource busy time). [`execute`] and
/// [`execute_traced`] draw the seed from their RNG.
pub fn execute_seeded(
    prog: &CompiledProgram,
    platform: &Platform,
    sample_seed: u64,
) -> Result<(ExecOutcome, SimStats), SimError> {
    Ok(Tape::lower(prog, platform)?.replay(sample_seed, None))
}

/// One tape entry. Instruction ops retire the instruction at `pc` of
/// `rank`; `Transfer` and `Enter` are bookkeeping.
#[derive(Debug)]
struct Op {
    rank: usize,
    pc: usize,
    kind: Kind,
}

/// Flat slots: `tail` and stream-busy slots are `rank * streams +
/// stream`, event slots `rank * events + event`, collective-entry slots
/// `comm * ranks + rank`; post-time, message and kernel slots are
/// numbered by lowering. `Range`s index [`Tape::idx`].
#[derive(Debug)]
enum Kind {
    /// Synchronous CPU work.
    Cpu { dur: f64, straggle: f64 },
    /// A kernel launch; `contenders` are the kernel slots of earlier
    /// launches on other streams of the same GPU, in the order the
    /// contention sum visits them.
    Kernel {
        stream: usize,
        tail: usize,
        slot: usize,
        dur: f64,
        straggle: f64,
        spike: f64,
        contenders: Range<usize>,
    },
    /// `cudaEventRecord`.
    Record { event: usize, tail: usize },
    /// `cudaEventSynchronize` over event slots.
    Sync { events: Range<usize> },
    /// `cudaStreamWaitEvent`.
    StreamWait {
        event: usize,
        tail: usize,
        cross_gpu: bool,
    },
    /// Posts of one pattern: each costs `overhead` and stamps a post-time
    /// slot (repeated peers stamp a sink slot nobody reads).
    Post { overhead: f64, slots: Range<usize> },
    /// Waits for the arrivals of messages.
    WaitRecvs { msgs: Range<usize> },
    /// Waits for the send completions of messages.
    WaitSends { msgs: Range<usize> },
    /// Blocking collective over its entry slots.
    AllReduce { entries: Range<usize>, time: f64 },
    /// Device-wide synchronization over the rank's tail slots.
    DeviceSync { tails: Range<usize> },
    /// Computes a message's arrival and send completion, once, before the
    /// first wait that needs them.
    Transfer { msg: usize },
    /// The rank entered a collective: its entry time is its current time.
    Enter { slot: usize },
}

/// One point-to-point message `(comm, src, dst)`.
#[derive(Debug)]
struct Msg {
    comm: usize,
    src: usize,
    dst: usize,
    /// Post-time slots of the send and the receive.
    send: usize,
    recv: usize,
    bytes: u64,
    /// Noiseless wire time.
    wire: f64,
    /// Extra wire seconds from the fault plan.
    delay: Option<f64>,
    eager: bool,
}

/// Per-pass state in one buffer. Each slot holds one value per lane: at
/// pass width `W`, slot `i` of a region is `[i * W, (i + 1) * W)` of it,
/// and the regions follow each other in [`Slots`] order. The buffer grows
/// to the widest pass run so far. `cpu`, `tail` and the busy counters
/// accumulate and are reset by every pass; every other slot is written
/// before it is read within one pass, which the lowering guarantees.
#[derive(Debug)]
struct State {
    /// Slots per region.
    slots: [usize; 11],
    /// Width of the last pass.
    width: usize,
    buf: Vec<f64>,
}

/// Positions in [`Slots`] of the regions read back after a pass.
const CPU: usize = 0;
const CPU_BUSY: usize = 9;
const STREAM_BUSY: usize = 10;

/// One pass's view of the state regions.
struct Slots<'s> {
    cpu: &'s mut [f64],
    tail: &'s mut [f64],
    events: &'s mut [f64],
    posts: &'s mut [f64],
    /// Arrival and send completion per message.
    arrival: &'s mut [f64],
    sent: &'s mut [f64],
    entries: &'s mut [f64],
    /// Execution interval per kernel slot.
    kstart: &'s mut [f64],
    kend: &'s mut [f64],
    cpu_busy: &'s mut [f64],
    stream_busy: &'s mut [f64],
}

impl State {
    /// The regions of a `W`-lane pass; accumulators are left unreset.
    fn pass<const W: usize>(&mut self) -> Slots<'_> {
        let need = self.slots.iter().sum::<usize>() * W;
        if self.buf.len() < need {
            self.buf.resize(need, 0.0);
        }
        self.width = W;
        let mut rest = &mut self.buf[..];
        let mut region = |k: usize| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(self.slots[k] * W);
            rest = tail;
            head
        };
        Slots {
            cpu: region(CPU),
            tail: region(1),
            events: region(2),
            posts: region(3),
            arrival: region(4),
            sent: region(5),
            entries: region(6),
            kstart: region(7),
            kend: region(8),
            cpu_busy: region(CPU_BUSY),
            stream_busy: region(STREAM_BUSY),
        }
    }

    /// Region `k` (its position in [`Slots`]) of the last pass.
    fn region(&self, k: usize) -> &[f64] {
        let start = self.slots[..k].iter().sum::<usize>() * self.width;
        &self.buf[start..][..self.slots[k] * self.width]
    }
}

/// The `W` lanes of slot `i`.
#[inline]
fn get<const W: usize>(v: &[f64], i: usize) -> [f64; W] {
    v[i * W..][..W].try_into().expect("W lanes")
}

/// The `W` lanes of slot `i`, mutably.
#[inline]
fn lanes<const W: usize>(v: &mut [f64], i: usize) -> &mut [f64; W] {
    (&mut v[i * W..][..W]).try_into().expect("W lanes")
}

/// Adds `x` to every lane.
#[inline]
fn add<const W: usize>(v: &mut [f64; W], x: f64) {
    for lane in v {
        *lane += x;
    }
}

/// Lane-wise maximum of two slots' values.
#[inline]
fn max<const W: usize>(a: [f64; W], b: [f64; W]) -> [f64; W] {
    std::array::from_fn(|l| a[l].max(b[l]))
}

/// A compiled program lowered for one platform: the structural half of
/// execution, recorded once and replayed for every sample, up to eight
/// per pass (see the module docs). The replay state lives in the tape
/// and is reset in place, so replaying sample `k` gives the same result
/// whatever was replayed before it, and at whatever width.
pub struct Tape<'a> {
    prog: &'a CompiledProgram,
    platform: &'a Platform,
    ops: Vec<Op>,
    /// Index lists the ops' ranges point into.
    idx: Vec<usize>,
    msgs: Vec<Msg>,
    /// One run's counters (busy vectors empty, `runs` = 1).
    counts: SimStats,
    state: State,
}

impl<'a> Tape<'a> {
    /// Plays the round-robin control flow of `prog` on `platform` and
    /// records it, or returns the error every replay would end in: a
    /// wait before its post, a deadlock or an exhausted step budget.
    pub fn lower(prog: &'a CompiledProgram, platform: &'a Platform) -> Result<Self, SimError> {
        let (nr, ns, ne) = (prog.num_ranks, prog.num_streams, prog.num_events);
        let nc = prog.comms.len();
        let plan = platform.faults.as_ref();
        let mut counts = SimStats {
            runs: 1,
            ..SimStats::default()
        };

        // One message per (comm, src, dst), first send entry wins; the
        // fault plan's drops are counted over every table entry.
        let pair = |c: usize, src: usize, dst: usize| (c * nr + src) * nr + dst;
        let mut msg_of = vec![usize::MAX; nc * nr * nr];
        let mut dropped = vec![false; nc * nr * nr];
        let mut msgs: Vec<Msg> = Vec::new();
        for (c, table) in prog.comms.iter().enumerate() {
            let key = dr_fault::key_hash(&table.key.0);
            for (src, sends) in table.sends.iter().enumerate() {
                for &(dst, bytes) in sends {
                    let fault = plan.and_then(|p| p.message(key, src, dst));
                    let p = pair(c, src, dst);
                    if fault == Some(dr_fault::MessageFault::Drop)
                        && !std::mem::replace(&mut dropped[p], true)
                    {
                        counts.faults.drops += 1;
                    }
                    if msg_of[p] == usize::MAX {
                        msg_of[p] = msgs.len();
                        msgs.push(Msg {
                            comm: c,
                            src,
                            dst,
                            send: 2 * msgs.len(),
                            recv: 2 * msgs.len() + 1,
                            bytes,
                            wire: platform.wire_time(bytes),
                            delay: match fault {
                                Some(dr_fault::MessageFault::Delay(extra)) => Some(extra),
                                _ => None,
                            },
                            eager: platform.is_eager(bytes),
                        });
                    }
                }
            }
        }
        let sink = 2 * msgs.len();

        let mut ops: Vec<Op> = Vec::new();
        let mut idx: Vec<usize> = Vec::new();
        let mut pcs = vec![0usize; nr];
        let mut sent = vec![false; nr * nc];
        let mut received = vec![false; nr * nc];
        let mut entered = vec![false; nc * nr];
        let mut recorded: Vec<Option<usize>> = vec![None; nr * ne];
        let mut moved = vec![false; msgs.len()];
        let mut launched: Vec<Vec<usize>> = vec![Vec::new(); nr * ns];
        let mut kernels = 0usize;
        let mut noted_progress = false;

        loop {
            let mut progressed = false;
            let mut all_done = true;
            for r in 0..nr {
                while pcs[r] < prog.instrs[r].len() {
                    let pc = pcs[r];
                    if platform.max_steps > 0 && counts.instructions >= platform.max_steps {
                        return Err(SimError::Budget {
                            steps: counts.instructions,
                            detail: format!("step limit {} reached", platform.max_steps),
                        });
                    }
                    let instr = &prog.instrs[r][pc];
                    // Blocking checks first (nothing retires on a blocked
                    // step).
                    let blocked = match *instr {
                        Instr::WaitRecvs { comm } => {
                            if !received[r * nc + comm] {
                                return Err(SimError::WaitBeforePost {
                                    rank: r,
                                    name: prog.names[pc].clone(),
                                });
                            }
                            // A dropped send never arrives: the receiver
                            // blocks forever and the deadlock detector
                            // reports it.
                            prog.comms[comm].recvs[r].iter().any(|&(peer, _)| {
                                !sent[peer * nc + comm] || dropped[pair(comm, peer, r)]
                            })
                        }
                        Instr::WaitSends { comm } => {
                            if !sent[r * nc + comm] {
                                return Err(SimError::WaitBeforePost {
                                    rank: r,
                                    name: prog.names[pc].clone(),
                                });
                            }
                            // A rendezvous send whose message is dropped
                            // can never complete its handshake; eager
                            // sends are buffered and complete locally
                            // even when lost.
                            prog.comms[comm].sends[r].iter().any(|&(peer, bytes)| {
                                !platform.is_eager(bytes)
                                    && (!received[peer * nc + comm] || dropped[pair(comm, r, peer)])
                            })
                        }
                        Instr::AllReduce { comm } => {
                            // Register this rank's entry once; complete
                            // only when all ranks have entered.
                            if !std::mem::replace(&mut entered[comm * nr + r], true) {
                                ops.push(Op {
                                    rank: r,
                                    pc,
                                    kind: Kind::Enter {
                                        slot: comm * nr + r,
                                    },
                                });
                                noted_progress = true;
                            }
                            entered[comm * nr..(comm + 1) * nr].contains(&false)
                        }
                        _ => false,
                    };
                    if blocked {
                        all_done = false;
                        break;
                    }

                    let kind = match *instr {
                        Instr::CpuWork { dur } => {
                            let straggle = plan.map_or(1.0, |p| p.rank_factor(r));
                            if straggle != 1.0 {
                                counts.faults.stragglers += 1;
                            }
                            Kind::Cpu { dur, straggle }
                        }
                        Instr::KernelLaunch { stream, dur } => {
                            let straggle = plan.map_or(1.0, |p| p.rank_factor(r));
                            if straggle != 1.0 {
                                counts.faults.stragglers += 1;
                            }
                            let spike = plan.map_or(1.0, |p| p.kernel_spike(r, pc));
                            if spike != 1.0 {
                                counts.faults.spikes += 1;
                            }
                            // Kernels already placed in other streams of
                            // the same GPU, stream by stream.
                            let from = idx.len();
                            if platform.gpu_contention != 0.0 {
                                let gpu = platform.gpu_of(stream);
                                for s in
                                    (0..ns).filter(|&s| s != stream && platform.gpu_of(s) == gpu)
                                {
                                    idx.extend_from_slice(&launched[r * ns + s]);
                                }
                            }
                            launched[r * ns + stream].push(kernels);
                            kernels += 1;
                            Kind::Kernel {
                                stream,
                                tail: r * ns + stream,
                                slot: kernels - 1,
                                dur,
                                straggle,
                                spike,
                                contenders: from..idx.len(),
                            }
                        }
                        Instr::EventRecord { event, stream } => {
                            counts.sync_cer += 1;
                            recorded[r * ne + event] = Some(stream);
                            Kind::Record {
                                event: r * ne + event,
                                tail: r * ns + stream,
                            }
                        }
                        Instr::EventSync { ref events } => {
                            counts.sync_ces += 1;
                            let from = idx.len();
                            for &e in events.iter() {
                                recorded[r * ne + e].expect("schedule orders records before syncs");
                                idx.push(r * ne + e);
                            }
                            Kind::Sync {
                                events: from..idx.len(),
                            }
                        }
                        Instr::StreamWaitEvent { stream, event } => {
                            counts.sync_cswe += 1;
                            let src_stream = recorded[r * ne + event]
                                .expect("schedule orders records before stream waits");
                            Kind::StreamWait {
                                event: r * ne + event,
                                tail: r * ns + stream,
                                // Peer synchronization crosses the GPU
                                // interconnect.
                                cross_gpu: platform.gpu_of(src_stream) != platform.gpu_of(stream),
                            }
                        }
                        Instr::PostSends { comm } | Instr::PostRecvs { comm } => {
                            let sends = matches!(instr, Instr::PostSends { .. });
                            let (posted, list, overhead) = if sends {
                                (
                                    &mut sent,
                                    &prog.comms[comm].sends[r],
                                    platform.isend_overhead,
                                )
                            } else {
                                (
                                    &mut received,
                                    &prog.comms[comm].recvs[r],
                                    platform.irecv_overhead,
                                )
                            };
                            posted[r * nc + comm] = true;
                            let from = idx.len();
                            for (i, &(peer, _)) in list.iter().enumerate() {
                                let first = !list[..i].iter().any(|&(p, _)| p == peer);
                                idx.push(match (first, sends) {
                                    (false, _) => sink,
                                    (true, true) => msgs[msg_of[pair(comm, r, peer)]].send,
                                    (true, false) => msgs[msg_of[pair(comm, peer, r)]].recv,
                                });
                            }
                            Kind::Post {
                                overhead,
                                slots: from..idx.len(),
                            }
                        }
                        Instr::WaitRecvs { comm } | Instr::WaitSends { comm } => {
                            let recvs = matches!(instr, Instr::WaitRecvs { .. });
                            let table = &prog.comms[comm];
                            let list = if recvs {
                                &table.recvs[r]
                            } else {
                                &table.sends[r]
                            };
                            let from = idx.len();
                            for &(peer, _) in list {
                                let m = if recvs {
                                    msg_of[pair(comm, peer, r)]
                                } else {
                                    msg_of[pair(comm, r, peer)]
                                };
                                if !std::mem::replace(&mut moved[m], true) {
                                    counts.bytes_moved += msgs[m].bytes;
                                    if msgs[m].eager {
                                        counts.eager_msgs += 1;
                                    } else {
                                        counts.rendezvous_msgs += 1;
                                    }
                                    if msgs[m].delay.is_some() {
                                        counts.faults.delays += 1;
                                    }
                                    ops.push(Op {
                                        rank: r,
                                        pc,
                                        kind: Kind::Transfer { msg: m },
                                    });
                                }
                                idx.push(m);
                            }
                            let msgs = from..idx.len();
                            if recvs {
                                Kind::WaitRecvs { msgs }
                            } else {
                                Kind::WaitSends { msgs }
                            }
                        }
                        Instr::AllReduce { comm } => {
                            let bytes = prog.comms[comm].sends[r]
                                .first()
                                .map(|&(_, b)| b)
                                .expect("collective pattern validated at compile time");
                            counts.collective_ops += 1;
                            counts.bytes_moved += bytes;
                            Kind::AllReduce {
                                entries: comm * nr..(comm + 1) * nr,
                                time: platform.collective_time(nr, bytes),
                            }
                        }
                        Instr::DeviceSync => Kind::DeviceSync {
                            tails: r * ns..(r + 1) * ns,
                        },
                    };
                    ops.push(Op { rank: r, pc, kind });
                    counts.instructions += 1;
                    pcs[r] += 1;
                    progressed = true;
                }
            }
            if all_done {
                break;
            }
            progressed |= std::mem::take(&mut noted_progress);
            if !progressed {
                let blocked: Vec<String> = (0..nr)
                    .filter(|&r| pcs[r] < prog.instrs[r].len())
                    .map(|r| format!("rank {r} at {}", prog.names[pcs[r]]))
                    .collect();
                return Err(SimError::Deadlock {
                    detail: blocked.join("; "),
                });
            }
        }

        let slots = [
            nr,
            nr * ns,
            nr * ne,
            sink + 1,
            msgs.len(),
            msgs.len(),
            nc * nr,
            kernels,
            kernels,
            nr,
            nr * ns,
        ];
        let state = State {
            slots,
            width: 1,
            buf: vec![0.0; slots.iter().sum()],
        };
        Ok(Tape {
            prog,
            platform,
            ops,
            idx,
            msgs,
            counts,
            state,
        })
    }

    /// One invocation whose noise is entirely determined by
    /// `sample_seed`, returning its outcome and statistics and pushing a
    /// span per retired instruction (and per kernel) into `trace` if
    /// given.
    pub fn replay(
        &mut self,
        sample_seed: u64,
        trace: Option<&mut Trace>,
    ) -> (ExecOutcome, SimStats) {
        self.run(Noise::new(self.platform, [sample_seed], None), trace);
        self.lane(0)
    }

    /// `W` invocations in one pass, lane `l` under `sample_seeds[l]`:
    /// lane `l` of the result equals `replay(sample_seeds[l], None)`.
    pub fn replay_lanes<const W: usize>(
        &mut self,
        sample_seeds: [u64; W],
    ) -> [(ExecOutcome, SimStats); W] {
        self.run(Noise::new(self.platform, sample_seeds, None), None);
        std::array::from_fn(|l| self.lane(l))
    }

    /// Lane `l` of the last pass: its outcome and statistics.
    fn lane(&self, l: usize) -> (ExecOutcome, SimStats) {
        let mut stats = SimStats::for_shape(self.prog.num_ranks, self.prog.num_streams);
        self.fold_stats(1, self.busy(l), &mut stats);
        let rank_times = self.rank_times(l).collect();
        (ExecOutcome { rank_times }, stats)
    }

    /// The allocation-free core of [`replay`](Tape::replay): one pass of
    /// `W` invocations under `noise`, leaving their results in the tape's
    /// state. Only a one-lane pass records a trace.
    pub(crate) fn run<const W: usize>(
        &mut self,
        mut noise: Noise<'_, W>,
        mut trace: Option<&mut Trace>,
    ) {
        assert!(W == 1 || trace.is_none(), "a trace records one lane");
        let p = self.platform;
        let idx = &self.idx;
        let st = self.state.pass::<W>();
        st.cpu.fill(0.0);
        st.tail.fill(0.0);
        st.cpu_busy.fill(0.0);
        st.stream_busy.fill(0.0);
        for op in &self.ops {
            let r = op.rank;
            let cpu_before = get::<W>(st.cpu, r);
            let mut kernel_span: Option<(usize, usize, [f64; W], [f64; W])> = None;
            match op.kind {
                Kind::Cpu { dur, straggle } => {
                    let f = noise.instr(r, op.pc);
                    let cpu = lanes::<W>(st.cpu, r);
                    for l in 0..W {
                        cpu[l] += dur * f[l] * straggle;
                    }
                }
                Kind::Kernel {
                    stream,
                    tail,
                    slot,
                    dur,
                    straggle,
                    spike,
                    ref contenders,
                } => {
                    let f = noise.instr(r, op.pc);
                    let cpu = lanes::<W>(st.cpu, r);
                    add(cpu, p.kernel_launch_overhead);
                    let start = max(*cpu, get(st.tail, tail));
                    let end = contended_end(
                        (st.kstart, st.kend),
                        p.gpu_contention,
                        &idx[contenders.clone()],
                        start,
                        f.map(|f| dur * f * straggle * spike),
                    );
                    *lanes(st.tail, tail) = end;
                    *lanes(st.kstart, slot) = start;
                    *lanes(st.kend, slot) = end;
                    kernel_span = Some((stream, tail, start, end));
                }
                Kind::Record { event, tail } => {
                    let cpu = lanes::<W>(st.cpu, r);
                    add(cpu, p.event_record_overhead);
                    // The record is an in-stream marker: it completes when
                    // everything enqueued in the stream so far has
                    // completed.
                    let cpu = *cpu;
                    *lanes(st.events, event) = max(get(st.tail, tail), cpu);
                }
                Kind::Sync { ref events } => {
                    let mut t = get::<W>(st.cpu, r).map(|c| c + p.event_sync_overhead);
                    for &e in &idx[events.clone()] {
                        t = max(t, get(st.events, e));
                    }
                    *lanes(st.cpu, r) = t;
                }
                Kind::StreamWait {
                    event,
                    tail,
                    cross_gpu,
                } => {
                    add(lanes::<W>(st.cpu, r), p.stream_wait_overhead);
                    let mut et = get::<W>(st.events, event);
                    if cross_gpu {
                        add(&mut et, p.cross_gpu_sync_latency);
                    }
                    let t = lanes(st.tail, tail);
                    *t = max(*t, et);
                }
                Kind::Post {
                    overhead,
                    ref slots,
                } => {
                    for &s in &idx[slots.clone()] {
                        let cpu = lanes::<W>(st.cpu, r);
                        add(cpu, overhead);
                        let cpu = *cpu;
                        *lanes(st.posts, s) = cpu;
                    }
                }
                Kind::WaitRecvs { ref msgs } => {
                    let mut t = get::<W>(st.cpu, r).map(|c| c + p.wait_overhead);
                    for &m in &idx[msgs.clone()] {
                        t = max(t, get(st.arrival, m));
                    }
                    *lanes(st.cpu, r) = t;
                }
                Kind::WaitSends { ref msgs } => {
                    let mut t = get::<W>(st.cpu, r).map(|c| c + p.wait_overhead);
                    for &m in &idx[msgs.clone()] {
                        t = max(t, get(st.sent, m));
                    }
                    *lanes(st.cpu, r) = t;
                }
                Kind::AllReduce { ref entries, time } => {
                    let mut entered = [0.0; W];
                    for e in entries.clone() {
                        entered = max(entered, get(st.entries, e));
                    }
                    let f = noise.instr(r, op.pc);
                    let cpu = lanes::<W>(st.cpu, r);
                    for l in 0..W {
                        cpu[l] = entered[l].max(cpu[l]) + p.wait_overhead + time * f[l];
                    }
                }
                Kind::DeviceSync { ref tails } => {
                    let mut tail_max = [0.0; W];
                    for t in tails.clone() {
                        tail_max = max(tail_max, get(st.tail, t));
                    }
                    let cpu = lanes::<W>(st.cpu, r);
                    *cpu = max(*cpu, tail_max);
                }
                Kind::Transfer { msg } => {
                    let m = &self.msgs[msg];
                    let send_post = get::<W>(st.posts, m.send);
                    let mut wire = noise.wire(m.comm, m.src, m.dst).map(|f| m.wire * f);
                    if let Some(extra) = m.delay {
                        add(&mut wire, extra);
                    }
                    let arrival: [f64; W] = if m.eager {
                        // Eager: payload leaves immediately and the send
                        // completes at once (buffered). The receiver's
                        // wait clamps the arrival to its own timeline,
                        // which is already past its receive post.
                        *lanes(st.sent, msg) = send_post;
                        std::array::from_fn(|l| send_post[l] + wire[l])
                    } else {
                        // Rendezvous: the transfer starts once both sides
                        // have posted.
                        let both = max(send_post, get(st.posts, m.recv));
                        let arrival = std::array::from_fn(|l| both[l] + wire[l]);
                        *lanes(st.sent, msg) = arrival;
                        arrival
                    };
                    *lanes(st.arrival, msg) = arrival;
                    continue;
                }
                Kind::Enter { slot } => {
                    *lanes(st.entries, slot) = cpu_before;
                    continue;
                }
            }
            let (cpu, busy) = (get::<W>(st.cpu, r), lanes::<W>(st.cpu_busy, r));
            for l in 0..W {
                busy[l] += cpu[l] - cpu_before[l];
            }
            if let Some((_, slot, start, end)) = kernel_span {
                let busy = lanes::<W>(st.stream_busy, slot);
                for l in 0..W {
                    busy[l] += end[l] - start[l];
                }
            }
            if let Some(trace) = trace.as_deref_mut() {
                let name = &self.prog.names[op.pc];
                trace.events.push(TraceEvent {
                    rank: r,
                    name: name.clone(),
                    resource: Resource::Cpu,
                    start: cpu_before[0],
                    end: cpu[0],
                });
                if let Some((stream, _, start, end)) = kernel_span {
                    trace.events.push(TraceEvent {
                        rank: r,
                        name: name.clone(),
                        resource: Resource::Stream(stream),
                        start: start[0],
                        end: end[0],
                    });
                }
            }
        }
    }

    /// Lane `l`'s per-rank finish times in the last pass.
    pub(crate) fn rank_times(&self, l: usize) -> impl Iterator<Item = f64> + '_ {
        let w = self.state.width;
        self.state.region(CPU).chunks_exact(w).map(move |c| c[l])
    }

    /// Lane `l`'s busy times in the last pass: per-rank CPU busy time,
    /// then per-rank, per-stream kernel time.
    pub(crate) fn busy(&self, l: usize) -> impl Iterator<Item = f64> + '_ {
        let w = self.state.width;
        let lane = move |k: usize| self.state.region(k).chunks_exact(w).map(move |c| c[l]);
        lane(CPU_BUSY).chain(lane(STREAM_BUSY))
    }

    /// Folds `runs` runs' statistics into `stats`, which must be shaped
    /// for this program: the counts every run shares, once per run, and
    /// `busy`, the runs' summed [`busy`](Tape::busy) times.
    pub(crate) fn fold_stats(
        &self,
        runs: u64,
        busy: impl IntoIterator<Item = f64>,
        stats: &mut SimStats,
    ) {
        for _ in 0..runs {
            stats.merge(&self.counts);
        }
        let cells = stats
            .cpu_busy
            .iter_mut()
            .chain(stats.stream_busy.iter_mut().flatten());
        for (a, b) in cells.zip(busy) {
            *a += b;
        }
    }
}

/// The kernel end time of every lane under the inter-stream contention
/// model: a kernel accrues `c` extra seconds per second of overlap with
/// the `contenders` (kernels already placed in other streams of the same
/// GPU), whose intervals are read from `W`-lane `kstart` and `kend`.
/// Solved by a short fixed point: extending the kernel can only add
/// bounded overlap. All lanes iterate together; a lane that has
/// converged is masked, so each lane performs the float operations of a
/// one-lane solve in the same order and stops at the same iteration.
fn contended_end<const W: usize>(
    (kstart, kend): (&[f64], &[f64]),
    c: f64,
    contenders: &[usize],
    start: [f64; W],
    dur: [f64; W],
) -> [f64; W] {
    let mut end: [f64; W] = std::array::from_fn(|l| start[l] + dur[l]);
    if c == 0.0 {
        return end;
    }
    let mut open = [true; W];
    for _ in 0..8 {
        let mut overlap = [0.0; W];
        for &k in contenders {
            let (a, b) = (get::<W>(kstart, k), get::<W>(kend, k));
            for l in 0..W {
                overlap[l] += (end[l].min(b[l]) - start[l].max(a[l])).max(0.0);
            }
        }
        for l in 0..W {
            if open[l] {
                let new_end = start[l] + dur[l] + c * overlap[l];
                let converged = (new_end - end[l]).abs() < 1e-12;
                open[l] = !converged;
                end[l] = new_end;
            }
        }
        if !open.contains(&true) {
            break;
        }
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledProgram;
    use crate::workload::{CommPattern, TableWorkload};
    use dr_dag::{build_schedule, CommKey, CostKey, DagBuilder, DecisionSpace, OpSpec, Schedule};
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0)
    }

    fn compile(
        build: impl FnOnce(&mut DagBuilder),
        pick: impl Fn(&DecisionSpace) -> dr_dag::Traversal,
        workload: &TableWorkload,
    ) -> (CompiledProgram, Schedule) {
        let mut b = DagBuilder::new();
        build(&mut b);
        let sp = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let t = pick(&sp);
        let s = build_schedule(&sp, &t);
        (CompiledProgram::compile(&s, workload).unwrap(), s)
    }

    #[test]
    fn single_cpu_op_takes_its_duration() {
        let mut w = TableWorkload::new(1);
        w.cost_all("c", 3e-3);
        let (p, _) = compile(
            |b| {
                b.add("c", OpSpec::CpuWork(CostKey::new("c")));
            },
            |sp| sp.enumerate().next().unwrap(),
            &w,
        );
        let platform = Platform::perlmutter_like().noiseless();
        let out = execute(&p, &platform, &mut rng()).unwrap();
        assert!((out.time() - 3e-3).abs() < 1e-12);
    }

    #[test]
    fn same_stream_kernels_serialize_different_streams_overlap() {
        let mut w = TableWorkload::new(1);
        w.cost_all("k1", 1e-3).cost_all("k2", 1e-3);
        let platform = Platform {
            gpu_contention: 0.0,
            ..Platform::perlmutter_like().noiseless()
        };
        let build = |b: &mut DagBuilder| {
            b.add("k1", OpSpec::GpuKernel(CostKey::new("k1")));
            b.add("k2", OpSpec::GpuKernel(CostKey::new("k2")));
        };
        let same = |sp: &DecisionSpace| {
            sp.traversal_from_names(&[("k1", Some(0)), ("k2", Some(0))])
                .unwrap()
        };
        let diff = |sp: &DecisionSpace| {
            sp.traversal_from_names(&[("k1", Some(0)), ("k2", Some(1))])
                .unwrap()
        };
        let (p_same, _) = compile(build, same, &w);
        let (p_diff, _) = compile(build, diff, &w);
        let t_same = execute(&p_same, &platform, &mut rng()).unwrap().time();
        let t_diff = execute(&p_diff, &platform, &mut rng()).unwrap().time();
        assert!(t_same > 1.9e-3, "serialized kernels: {t_same}");
        assert!(t_diff < 1.2e-3, "overlapped kernels: {t_diff}");
    }

    #[test]
    fn contention_slows_overlapped_kernels() {
        let mut w = TableWorkload::new(1);
        w.cost_all("k1", 1e-3).cost_all("k2", 1e-3);
        let build = |b: &mut DagBuilder| {
            b.add("k1", OpSpec::GpuKernel(CostKey::new("k1")));
            b.add("k2", OpSpec::GpuKernel(CostKey::new("k2")));
        };
        let diff = |sp: &DecisionSpace| {
            sp.traversal_from_names(&[("k1", Some(0)), ("k2", Some(1))])
                .unwrap()
        };
        let free = Platform {
            gpu_contention: 0.0,
            ..Platform::perlmutter_like().noiseless()
        };
        let contended = Platform {
            gpu_contention: 0.5,
            ..free.clone()
        };
        let (p, _) = compile(build, diff, &w);
        let t_free = execute(&p, &free, &mut rng()).unwrap().time();
        let t_cont = execute(&p, &contended, &mut rng()).unwrap().time();
        assert!(
            t_cont > t_free,
            "contention must cost time: {t_cont} vs {t_free}"
        );
        // Still cheaper than full serialization (contention 0.5 < 1.0).
        assert!(t_cont < 2e-3);
    }

    #[test]
    fn event_sync_blocks_cpu_until_kernel_done() {
        let mut w = TableWorkload::new(1);
        w.cost_all("k", 5e-3).cost_all("c", 1e-6);
        let build = |b: &mut DagBuilder| {
            let k = b.add("k", OpSpec::GpuKernel(CostKey::new("k")));
            let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
            b.edge(k, c);
        };
        let (p, _) = compile(
            build,
            |sp| {
                sp.traversal_from_names(&[
                    ("k", Some(0)),
                    ("CER-after-k", None),
                    ("CES-b4-c", None),
                    ("c", None),
                ])
                .unwrap()
            },
            &w,
        );
        let platform = Platform::perlmutter_like().noiseless();
        let out = execute(&p, &platform, &mut rng()).unwrap();
        assert!(
            out.time() >= 5e-3,
            "CPU op must wait for the kernel: {}",
            out.time()
        );
    }

    #[test]
    fn cross_stream_wait_orders_kernels() {
        let mut w = TableWorkload::new(1);
        w.cost_all("k1", 2e-3).cost_all("k2", 2e-3);
        let platform = Platform {
            gpu_contention: 0.0,
            ..Platform::perlmutter_like().noiseless()
        };
        let build = |b: &mut DagBuilder| {
            let a = b.add("k1", OpSpec::GpuKernel(CostKey::new("k1")));
            let c = b.add("k2", OpSpec::GpuKernel(CostKey::new("k2")));
            b.edge(a, c);
        };
        let (p, _) = compile(
            build,
            |sp| {
                sp.traversal_from_names(&[("k1", Some(0)), ("k2", Some(1))])
                    .unwrap()
            },
            &w,
        );
        let out = execute(&p, &platform, &mut rng()).unwrap();
        // Dependent kernels serialize even across streams.
        assert!(out.time() >= 4e-3, "{}", out.time());
    }

    #[test]
    fn device_sync_waits_for_all_streams() {
        let mut w = TableWorkload::new(1);
        w.cost_all("k", 7e-3);
        let (p, _) = compile(
            |b| {
                b.add("k", OpSpec::GpuKernel(CostKey::new("k")));
            },
            |sp| sp.enumerate().next().unwrap(),
            &w,
        );
        let platform = Platform::perlmutter_like().noiseless();
        let out = execute(&p, &platform, &mut rng()).unwrap();
        assert!(out.time() >= 7e-3);
    }

    fn exchange_build(b: &mut DagBuilder) {
        let key = CommKey::new("x");
        let ps = b.add("PostSends", OpSpec::PostSends(key.clone()));
        let pr = b.add("PostRecvs", OpSpec::PostRecvs(key.clone()));
        let ws = b.add("WaitSends", OpSpec::WaitSends(key.clone()));
        let wr = b.add("WaitRecvs", OpSpec::WaitRecvs(key));
        b.edge(ps, ws);
        b.edge(pr, wr);
        b.edge(ps, wr);
    }

    #[test]
    fn exchange_completes_and_charges_wire_time() {
        let mut w = TableWorkload::new(2);
        let bytes = 1 << 20; // rendezvous-sized
        w.comm_all_to_all("x", bytes);
        let (p, _) = compile(
            exchange_build,
            |sp| {
                sp.traversal_from_names(&[
                    ("PostRecvs", None),
                    ("PostSends", None),
                    ("WaitSends", None),
                    ("WaitRecvs", None),
                ])
                .unwrap()
            },
            &w,
        );
        let platform = Platform::perlmutter_like().noiseless();
        let out = execute(&p, &platform, &mut rng()).unwrap();
        assert!(out.time() >= platform.wire_time(bytes), "{}", out.time());
        assert_eq!(out.rank_times.len(), 2);
    }

    #[test]
    fn eager_messages_do_not_need_recv_for_send_completion() {
        let mut w = TableWorkload::new(2);
        w.comm_all_to_all("x", 512); // below eager threshold
        let (p, _) = compile(
            exchange_build,
            |sp| {
                sp.traversal_from_names(&[
                    ("PostSends", None),
                    ("WaitSends", None),
                    ("PostRecvs", None),
                    ("WaitRecvs", None),
                ])
                .unwrap()
            },
            &w,
        );
        let platform = Platform::perlmutter_like().noiseless();
        // Sends complete before receives are posted: must not deadlock.
        let out = execute(&p, &platform, &mut rng()).unwrap();
        assert!(out.time() > 0.0);
    }

    #[test]
    fn rendezvous_wait_before_remote_recv_deadlocks_when_recv_never_posts() {
        // Both ranks: PostSends then WaitSends (rendezvous) with the recv
        // posts scheduled *after* the send wait. SPMD symmetry means no
        // rank ever posts receives before blocking: deadlock.
        let mut w = TableWorkload::new(2);
        w.comm_all_to_all("x", 1 << 20);
        let (p, _) = compile(
            exchange_build,
            |sp| {
                sp.traversal_from_names(&[
                    ("PostSends", None),
                    ("WaitSends", None),
                    ("PostRecvs", None),
                    ("WaitRecvs", None),
                ])
                .unwrap()
            },
            &w,
        );
        let platform = Platform::perlmutter_like().noiseless();
        match execute(&p, &platform, &mut rng()) {
            Err(SimError::Deadlock { .. }) => {}
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn asymmetric_sizes_by_rank_are_supported() {
        // Rank 0 sends 1 MiB to rank 1; rank 1 sends 2 MiB back.
        let mut w = TableWorkload::new(2);
        w.comm_on(
            0,
            "x",
            CommPattern {
                sends: vec![(1, 1 << 20)],
                recvs: vec![(1, 2 << 20)],
            },
        );
        w.comm_on(
            1,
            "x",
            CommPattern {
                sends: vec![(0, 2 << 20)],
                recvs: vec![(0, 1 << 20)],
            },
        );
        let (p, _) = compile(
            exchange_build,
            |sp| {
                sp.traversal_from_names(&[
                    ("PostRecvs", None),
                    ("PostSends", None),
                    ("WaitSends", None),
                    ("WaitRecvs", None),
                ])
                .unwrap()
            },
            &w,
        );
        let platform = Platform::perlmutter_like().noiseless();
        let out = execute(&p, &platform, &mut rng()).unwrap();
        // Rank 0 waits for the 2 MiB message; both finish after its wire time.
        assert!(out.rank_times[0] >= platform.wire_time(2 << 20));
    }

    #[test]
    fn noiseless_execution_is_exactly_reproducible() {
        let mut w = TableWorkload::new(2);
        w.comm_all_to_all("x", 1 << 16);
        let (p, _) = compile(
            exchange_build,
            |sp| {
                sp.traversal_from_names(&[
                    ("PostRecvs", None),
                    ("PostSends", None),
                    ("WaitSends", None),
                    ("WaitRecvs", None),
                ])
                .unwrap()
            },
            &w,
        );
        let platform = Platform::perlmutter_like().noiseless();
        let a = execute(&p, &platform, &mut rng()).unwrap();
        let b = execute(&p, &platform, &mut rng()).unwrap();
        assert_eq!(a, b);
    }

    /// The one-lane fixed point that the lane-parallel `contended_end`
    /// replaced, solving lane `l` alone; also whether it hit the
    /// iteration cap.
    fn scalar_contended_end<const W: usize>(
        (kstart, kend, l): (&[f64], &[f64], usize),
        c: f64,
        contenders: &[usize],
        start: f64,
        dur: f64,
    ) -> (f64, bool) {
        if c == 0.0 {
            return (start + dur, false);
        }
        let mut end = start + dur;
        for _ in 0..8 {
            let mut overlap = 0.0;
            for &k in contenders {
                let (a, b) = (kstart[k * W + l], kend[k * W + l]);
                overlap += (end.min(b) - start.max(a)).max(0.0);
            }
            let new_end = start + dur + c * overlap;
            if (new_end - end).abs() < 1e-12 {
                return (new_end, false);
            }
            end = new_end;
        }
        (end, true)
    }

    #[test]
    fn lane_parallel_contention_equals_the_scalar_fixed_point() {
        const W: usize = 8;
        let mut rng = SmallRng::seed_from_u64(7);
        let mut unit = move || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let (mut capped, mut converged) = (0, 0);
        for case in 0..300 {
            // Up to six placed kernels per lane, some long enough to
            // keep a slow fixed point from converging in eight steps.
            let kernels = case % 7;
            let kstart: Vec<f64> = (0..kernels * W).map(|_| unit() * 1e-3).collect();
            let kend: Vec<f64> = kstart
                .iter()
                .map(|&a| a + unit() * if case % 3 == 0 { 1e-2 } else { 1e-3 })
                .collect();
            let contenders: Vec<usize> = (0..kernels).filter(|_| unit() < 0.7).collect();
            let c = match case % 5 {
                0 => 0.0,
                1 => 0.99,
                _ => unit(),
            };
            let start: [f64; W] = std::array::from_fn(|_| unit() * 1e-3);
            let dur: [f64; W] = std::array::from_fn(|_| unit() * 1e-3);
            let lanes = contended_end((&kstart, &kend), c, &contenders, start, dur);
            for l in 0..W {
                let (end, cap) = scalar_contended_end::<W>(
                    (&kstart, &kend, l),
                    c,
                    &contenders,
                    start[l],
                    dur[l],
                );
                assert_eq!(lanes[l].to_bits(), end.to_bits(), "case {case} lane {l}");
                if cap {
                    capped += 1;
                } else if c != 0.0 && !contenders.is_empty() {
                    converged += 1;
                }
            }
        }
        assert!(
            capped > 0 && converged > 0,
            "{capped} capped, {converged} converged"
        );
    }

    #[test]
    fn noisy_execution_is_seed_deterministic() {
        let mut w = TableWorkload::new(2);
        w.comm_all_to_all("x", 1 << 16);
        let (p, _) = compile(
            exchange_build,
            |sp| {
                sp.traversal_from_names(&[
                    ("PostRecvs", None),
                    ("PostSends", None),
                    ("WaitSends", None),
                    ("WaitRecvs", None),
                ])
                .unwrap()
            },
            &w,
        );
        let platform = Platform::perlmutter_like(); // noisy
        let a = execute(&p, &platform, &mut SmallRng::seed_from_u64(9)).unwrap();
        let b = execute(&p, &platform, &mut SmallRng::seed_from_u64(9)).unwrap();
        let c = execute(&p, &platform, &mut SmallRng::seed_from_u64(10)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::bench::{benchmark, benchmark_instrumented, BenchConfig};
    use crate::workload::TableWorkload;
    use dr_dag::{build_schedule, CommKey, CostKey, DagBuilder, DecisionSpace, OpSpec};
    use dr_fault::{FaultConfig, FaultPlan};
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0)
    }

    fn cpu_program(dur: f64) -> CompiledProgram {
        let mut b = DagBuilder::new();
        b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        let sp = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let t = sp.enumerate().next().unwrap();
        let s = build_schedule(&sp, &t);
        let mut w = TableWorkload::new(2);
        w.cost_all("c", dur);
        CompiledProgram::compile(&s, &w).unwrap()
    }

    fn exchange_program(bytes: u64) -> CompiledProgram {
        let key = CommKey::new("x");
        let mut b = DagBuilder::new();
        let ps = b.add("PostSends", OpSpec::PostSends(key.clone()));
        let pr = b.add("PostRecvs", OpSpec::PostRecvs(key.clone()));
        let ws = b.add("WaitSends", OpSpec::WaitSends(key.clone()));
        let wr = b.add("WaitRecvs", OpSpec::WaitRecvs(key));
        b.edge(ps, ws);
        b.edge(pr, wr);
        b.edge(ps, wr);
        let sp = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let t = sp
            .traversal_from_names(&[
                ("PostRecvs", None),
                ("PostSends", None),
                ("WaitSends", None),
                ("WaitRecvs", None),
            ])
            .unwrap();
        let s = build_schedule(&sp, &t);
        let mut w = TableWorkload::new(2);
        w.comm_all_to_all("x", bytes);
        CompiledProgram::compile(&s, &w).unwrap()
    }

    #[test]
    fn clean_plan_leaves_execution_bit_for_bit_identical() {
        let prog = exchange_program(1 << 16);
        let base = Platform::perlmutter_like();
        let faulted = base
            .clone()
            .with_faults(FaultPlan::derive(&FaultConfig::clean(), 7));
        let a = execute(&prog, &base, &mut SmallRng::seed_from_u64(3)).unwrap();
        let b = execute(&prog, &faulted, &mut SmallRng::seed_from_u64(3)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn straggler_rank_slows_the_program() {
        let prog = cpu_program(1e-3);
        let base = Platform::perlmutter_like().noiseless();
        let cfg = FaultConfig {
            straggler_prob: 1.0,
            straggler_factor: 3.0,
            ..FaultConfig::clean()
        };
        let faulted = base.clone().with_faults(FaultPlan::derive(&cfg, 1));
        let t_base = execute(&prog, &base, &mut rng()).unwrap().time();
        let (out, stats) = execute_seeded(&prog, &faulted, rng().next_u64()).unwrap();
        assert!(
            (out.time() - 3.0 * t_base).abs() < 1e-9,
            "{} vs {}",
            out.time(),
            t_base
        );
        assert_eq!(stats.faults.stragglers, 2, "one scaled op per rank");
    }

    #[test]
    fn delayed_message_adds_wire_time() {
        let prog = exchange_program(1 << 20);
        let base = Platform::perlmutter_like().noiseless();
        let cfg = FaultConfig {
            delay_prob: 1.0,
            delay_seconds: 5e-3,
            ..FaultConfig::clean()
        };
        let faulted = base.clone().with_faults(FaultPlan::derive(&cfg, 1));
        let t_base = execute(&prog, &base, &mut rng()).unwrap().time();
        let (out, stats) = execute_seeded(&prog, &faulted, rng().next_u64()).unwrap();
        assert!(out.time() >= t_base + 5e-3, "{} vs {}", out.time(), t_base);
        assert_eq!(stats.faults.delays, 2, "both directions delayed");
    }

    #[test]
    fn dropped_message_becomes_structured_deadlock() {
        let prog = exchange_program(1 << 20);
        let cfg = FaultConfig {
            drop_prob: 1.0,
            ..FaultConfig::clean()
        };
        let faulted = Platform::perlmutter_like()
            .noiseless()
            .with_faults(FaultPlan::derive(&cfg, 1));
        match execute(&prog, &faulted, &mut rng()) {
            Err(SimError::Deadlock { detail }) => {
                assert!(detail.contains("rank"), "{detail}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn eager_dropped_message_still_deadlocks_the_receiver() {
        // Eager sends complete locally even when the payload is lost;
        // only the receiver's wait can never finish.
        let prog = exchange_program(512);
        let cfg = FaultConfig {
            drop_prob: 1.0,
            ..FaultConfig::clean()
        };
        let faulted = Platform::perlmutter_like()
            .noiseless()
            .with_faults(FaultPlan::derive(&cfg, 1));
        match execute(&prog, &faulted, &mut rng()) {
            Err(SimError::Deadlock { detail }) => {
                assert!(detail.contains("WaitRecvs"), "{detail}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn step_budget_kills_long_runs() {
        let prog = cpu_program(1e-3);
        let platform = Platform::perlmutter_like().noiseless().with_budget(1);
        match execute(&prog, &platform, &mut rng()) {
            Err(SimError::Budget { steps, .. }) => assert_eq!(steps, 1),
            other => panic!("expected budget kill, got {other:?}"),
        }
    }

    #[test]
    fn generous_budget_does_not_perturb_results() {
        let prog = exchange_program(1 << 16);
        let base = Platform::perlmutter_like();
        let budgeted = base.clone().with_budget(1_000_000);
        let a = execute(&prog, &base, &mut SmallRng::seed_from_u64(3)).unwrap();
        let b = execute(&prog, &budgeted, &mut SmallRng::seed_from_u64(3)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn outliers_contaminate_measurements_not_the_median() {
        let prog = cpu_program(1e-4);
        let base = Platform::perlmutter_like().noiseless();
        let cfg = FaultConfig {
            outlier_prob: 0.2,
            outlier_factor: 100.0,
            ..FaultConfig::clean()
        };
        let faulted = base.clone().with_faults(FaultPlan::derive(&cfg, 3));
        let bench = BenchConfig {
            t_measure: 1e-4,
            num_measurements: 25,
            max_samples: 4,
        };
        let clean = benchmark(&prog, &base, &bench, 5).unwrap();
        let (noisy, stats) = benchmark_instrumented(&prog, &faulted, &bench, 5).unwrap();
        assert!(stats.faults.outliers > 0, "some outliers must fire");
        assert!(
            stats.faults.outliers < bench.num_measurements as u64,
            "not every measurement is an outlier"
        );
        assert!(noisy.percentiles.p99 > 50.0 * clean.percentiles.p99);
        // The median survives 20% contamination.
        assert!((noisy.time() - clean.time()).abs() / clean.time() < 1e-9);
    }

    #[test]
    fn fault_decisions_are_identical_across_executions() {
        let prog = exchange_program(1 << 20);
        let cfg = FaultConfig::heavy().with_seed(11);
        let faulted = Platform::perlmutter_like()
            .noiseless()
            .with_faults(FaultPlan::derive(&cfg, 99));
        let a = execute(&prog, &faulted, &mut rng());
        let b = execute(&prog, &faulted, &mut rng());
        assert_eq!(a, b, "fault application must be pure");
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::trace::Resource;
    use crate::workload::TableWorkload;
    use dr_dag::{build_schedule, CostKey, DagBuilder, DecisionSpace, OpSpec};
    use rand::SeedableRng;

    #[test]
    fn traced_execution_matches_untraced_and_covers_ops() {
        let mut b = DagBuilder::new();
        let k = b.add("k", OpSpec::GpuKernel(CostKey::new("k")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(k, c);
        let sp = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let t = sp.enumerate().next().unwrap();
        let s = build_schedule(&sp, &t);
        let mut w = TableWorkload::new(2);
        w.cost_all("k", 1e-4).cost_all("c", 2e-5);
        let prog = CompiledProgram::compile(&s, &w).unwrap();
        let platform = Platform::perlmutter_like().noiseless();
        let plain = execute(&prog, &platform, &mut SmallRng::seed_from_u64(3)).unwrap();
        let (traced, trace) =
            execute_traced(&prog, &platform, &mut SmallRng::seed_from_u64(3)).unwrap();
        assert_eq!(plain, traced, "tracing must not perturb timing");
        // Every instruction appears as a CPU span on every rank, and the
        // kernel additionally as a stream span.
        for rank in 0..2 {
            let cpu_spans = trace
                .rank(rank)
                .filter(|e| e.resource == Resource::Cpu)
                .count();
            assert_eq!(cpu_spans, prog.names.len());
            let kernel_spans: Vec<_> = trace
                .rank(rank)
                .filter(|e| matches!(e.resource, Resource::Stream(_)))
                .collect();
            assert_eq!(kernel_spans.len(), 1);
            assert_eq!(kernel_spans[0].name, "k");
            assert!((kernel_spans[0].duration() - 1e-4).abs() < 1e-12);
        }
        // Spans are within the makespan and ordered sanely.
        let makespan = trace.makespan();
        assert!((makespan - traced.time()).abs() < 1e-12);
        for e in &trace.events {
            assert!(e.start <= e.end);
            assert!(e.end <= makespan + 1e-15);
        }
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use crate::workload::TableWorkload;
    use dr_dag::{build_schedule, CommKey, CostKey, DagBuilder, DecisionSpace, OpSpec};
    use rand::SeedableRng;

    #[test]
    fn instrumented_execution_counts_sync_ops_and_matches_untraced() {
        // kernel -> cpu dependency forces a CER + CES pair on each rank.
        let mut b = DagBuilder::new();
        let k = b.add("k", OpSpec::GpuKernel(CostKey::new("k")));
        let c = b.add("c", OpSpec::CpuWork(CostKey::new("c")));
        b.edge(k, c);
        let sp = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let t = sp.enumerate().next().unwrap();
        let s = build_schedule(&sp, &t);
        let mut w = TableWorkload::new(2);
        w.cost_all("k", 1e-4).cost_all("c", 2e-5);
        let prog = CompiledProgram::compile(&s, &w).unwrap();
        let platform = Platform::perlmutter_like().noiseless();
        let plain = execute(&prog, &platform, &mut SmallRng::seed_from_u64(3)).unwrap();
        let (out, stats) =
            execute_seeded(&prog, &platform, SmallRng::seed_from_u64(3).next_u64()).unwrap();
        assert_eq!(plain, out, "instrumentation must not perturb timing");
        assert_eq!(stats.runs, 1);
        assert_eq!(
            stats.instructions as usize,
            prog.names.len() * 2,
            "2 SPMD ranks"
        );
        assert_eq!(stats.sync_cer, 2, "one record per rank");
        assert_eq!(stats.sync_ces, 2, "one sync per rank");
        assert_eq!(stats.sync_cswe, 0);
        assert_eq!(
            stats.eager_msgs + stats.rendezvous_msgs,
            0,
            "no messaging here"
        );
        // Each rank's kernel ran for 1e-4 s on stream 0.
        for r in 0..2 {
            assert!((stats.stream_busy[r][0] - 1e-4).abs() < 1e-12);
            assert!((stats.cpu_busy[r] - out.rank_times[r]).abs() < 1e-12);
        }
    }

    #[test]
    fn instrumented_execution_classifies_message_protocols() {
        let mut b = DagBuilder::new();
        let key = CommKey::new("x");
        let ps = b.add("PostSends", OpSpec::PostSends(key.clone()));
        let pr = b.add("PostRecvs", OpSpec::PostRecvs(key.clone()));
        let ws = b.add("WaitSends", OpSpec::WaitSends(key.clone()));
        let wr = b.add("WaitRecvs", OpSpec::WaitRecvs(key));
        b.edge(ps, ws);
        b.edge(pr, wr);
        b.edge(ps, wr);
        let sp = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let t = sp
            .traversal_from_names(&[
                ("PostRecvs", None),
                ("PostSends", None),
                ("WaitSends", None),
                ("WaitRecvs", None),
            ])
            .unwrap();
        let s = build_schedule(&sp, &t);
        let platform = Platform::perlmutter_like().noiseless();
        for (bytes, eager) in [(512u64, true), (1u64 << 20, false)] {
            let mut w = TableWorkload::new(2);
            w.comm_all_to_all("x", bytes);
            let prog = CompiledProgram::compile(&s, &w).unwrap();
            let (_, stats) =
                execute_seeded(&prog, &platform, SmallRng::seed_from_u64(1).next_u64()).unwrap();
            // One message each way between the two ranks.
            if eager {
                assert_eq!(stats.eager_msgs, 2);
                assert_eq!(stats.rendezvous_msgs, 0);
            } else {
                assert_eq!(stats.eager_msgs, 0);
                assert_eq!(stats.rendezvous_msgs, 2);
            }
            assert_eq!(stats.bytes_moved, 2 * bytes);
        }
    }

    #[test]
    fn collective_contributions_are_counted() {
        use crate::workload::CommPattern;
        let mut b = DagBuilder::new();
        b.add("dot", OpSpec::AllReduce(CommKey::new("dot")));
        let sp = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let t = sp.enumerate().next().unwrap();
        let s = build_schedule(&sp, &t);
        let mut w = TableWorkload::new(4);
        for r in 0..4 {
            w.comm_on(
                r,
                "dot",
                CommPattern {
                    sends: vec![(0, 8)],
                    recvs: vec![],
                },
            );
        }
        let prog = CompiledProgram::compile(&s, &w).unwrap();
        let platform = Platform::perlmutter_like().noiseless();
        let (_, stats) =
            execute_seeded(&prog, &platform, SmallRng::seed_from_u64(1).next_u64()).unwrap();
        assert_eq!(stats.collective_ops, 4, "one completion per rank");
        assert_eq!(stats.bytes_moved, 4 * 8);
    }
}

#[cfg(test)]
mod multi_gpu_tests {
    use super::*;
    use crate::workload::TableWorkload;
    use dr_dag::{build_schedule, CostKey, DagBuilder, DecisionSpace, OpSpec};
    use rand::SeedableRng;

    fn two_kernel_prog(streams: (usize, usize), dep: bool, w: &TableWorkload) -> CompiledProgram {
        let mut b = DagBuilder::new();
        let k1 = b.add("k1", OpSpec::GpuKernel(CostKey::new("k1")));
        let k2 = b.add("k2", OpSpec::GpuKernel(CostKey::new("k2")));
        if dep {
            b.edge(k1, k2);
        }
        let sp = DecisionSpace::new(b.build().unwrap(), 4).unwrap();
        let t = sp
            .traversal_from_names(&[("k1", Some(streams.0)), ("k2", Some(streams.1))])
            .unwrap();
        let s = build_schedule(&sp, &t);
        CompiledProgram::compile(&s, w).unwrap()
    }

    fn workload() -> TableWorkload {
        let mut w = TableWorkload::new(1);
        w.cost_all("k1", 1e-3).cost_all("k2", 1e-3);
        w
    }

    #[test]
    fn separate_gpus_do_not_contend() {
        let w = workload();
        let platform = Platform {
            gpu_contention: 0.5,
            streams_per_gpu: 1, // stream 0 -> GPU 0, stream 1 -> GPU 1
            ..Platform::perlmutter_like().noiseless()
        };
        // Same-GPU contention baseline: both streams on GPU 0.
        let same_gpu = Platform {
            streams_per_gpu: 2,
            ..platform.clone()
        };
        let prog = two_kernel_prog((0, 1), false, &w);
        let t_sep = execute(&prog, &platform, &mut SmallRng::seed_from_u64(1))
            .unwrap()
            .time();
        let t_same = execute(&prog, &same_gpu, &mut SmallRng::seed_from_u64(1))
            .unwrap()
            .time();
        assert!(
            t_sep < t_same,
            "separate GPUs avoid contention: {t_sep} vs {t_same}"
        );
        assert!(
            (t_sep - 1e-3).abs() < 2e-5,
            "fully parallel on 2 GPUs: {t_sep}"
        );
    }

    #[test]
    fn cross_gpu_dependency_pays_peer_sync_latency() {
        let w = workload();
        let base = Platform {
            gpu_contention: 0.0,
            streams_per_gpu: 1,
            cross_gpu_sync_latency: 50e-6,
            ..Platform::perlmutter_like().noiseless()
        };
        let prog_cross = two_kernel_prog((0, 1), true, &w);
        let prog_local = two_kernel_prog((0, 0), true, &w);
        let t_cross = execute(&prog_cross, &base, &mut SmallRng::seed_from_u64(1))
            .unwrap()
            .time();
        let t_local = execute(&prog_local, &base, &mut SmallRng::seed_from_u64(1))
            .unwrap()
            .time();
        assert!(
            t_cross >= t_local + 45e-6,
            "peer sync latency must show: {t_cross} vs {t_local}"
        );
    }

    #[test]
    fn single_gpu_default_is_unchanged() {
        let p = Platform::perlmutter_like();
        for s in 0..16 {
            assert_eq!(p.gpu_of(s), 0);
        }
    }
}

#[cfg(test)]
mod collective_tests {
    use super::*;
    use crate::workload::{CommPattern, TableWorkload};
    use dr_dag::{build_schedule, CommKey, CostKey, DagBuilder, DecisionSpace, OpSpec};
    use rand::SeedableRng;

    fn contribution(w: &mut TableWorkload, ranks: usize, key: &str, bytes: u64) {
        for r in 0..ranks {
            w.comm_on(
                r,
                key,
                CommPattern {
                    sends: vec![(0, bytes)],
                    recvs: vec![],
                },
            );
        }
    }

    /// Per-rank skewed work followed by a blocking allreduce.
    fn program(ranks: usize) -> (CompiledProgram, f64) {
        let mut b = DagBuilder::new();
        let work = b.add("work", OpSpec::CpuWork(CostKey::new("work")));
        let red = b.add("dot", OpSpec::AllReduce(CommKey::new("dot")));
        b.edge(work, red);
        let sp = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let t = sp.enumerate().next().unwrap();
        let s = build_schedule(&sp, &t);
        let mut w = TableWorkload::new(ranks);
        let slowest = 1e-3 * ranks as f64;
        for r in 0..ranks {
            w.cost_on(r, "work", 1e-3 * (r + 1) as f64);
        }
        contribution(&mut w, ranks, "dot", 8);
        (CompiledProgram::compile(&s, &w).unwrap(), slowest)
    }

    #[test]
    fn allreduce_synchronizes_all_ranks() {
        let (prog, slowest) = program(4);
        let platform = Platform::perlmutter_like().noiseless();
        let out = execute(&prog, &platform, &mut SmallRng::seed_from_u64(1)).unwrap();
        // Every rank finishes after the slowest rank's work plus the tree.
        let tree = platform.collective_time(4, 8);
        for rt in &out.rank_times {
            assert!(*rt >= slowest + tree, "{rt} < {slowest} + {tree}");
        }
        // The fast ranks do not finish much later than the slow one.
        let spread = out.rank_times.iter().copied().fold(0.0f64, f64::max)
            - out.rank_times.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(spread < 1e-5, "collective aligns ranks: spread {spread}");
    }

    #[test]
    fn collective_time_scales_logarithmically() {
        let p = Platform::perlmutter_like();
        assert_eq!(p.collective_time(1, 1024), 0.0);
        let t2 = p.collective_time(2, 1024);
        let t8 = p.collective_time(8, 1024);
        assert!((t8 / t2 - 3.0).abs() < 1e-9, "log2(8) = 3 rounds");
    }

    #[test]
    fn single_rank_allreduce_is_free() {
        let (prog, _) = program(1);
        let platform = Platform::perlmutter_like().noiseless();
        let out = execute(&prog, &platform, &mut SmallRng::seed_from_u64(1)).unwrap();
        assert!((out.time() - 1e-3 - platform.wait_overhead).abs() < 1e-9);
    }

    #[test]
    fn mixed_key_use_is_rejected() {
        let mut b = DagBuilder::new();
        let red = b.add("dot", OpSpec::AllReduce(CommKey::new("x")));
        let ps = b.add("PostSends", OpSpec::PostSends(CommKey::new("x")));
        b.edge(red, ps);
        let sp = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let t = sp.enumerate().next().unwrap();
        let s = build_schedule(&sp, &t);
        let mut w = TableWorkload::new(2);
        contribution(&mut w, 2, "x", 8);
        assert!(matches!(
            CompiledProgram::compile(&s, &w),
            Err(SimError::MixedCommKey { .. })
        ));
    }

    #[test]
    fn malformed_collective_pattern_is_rejected() {
        let mut b = DagBuilder::new();
        b.add("dot", OpSpec::AllReduce(CommKey::new("x")));
        let sp = DecisionSpace::new(b.build().unwrap(), 1).unwrap();
        let t = sp.enumerate().next().unwrap();
        let s = build_schedule(&sp, &t);
        let mut w = TableWorkload::new(2);
        // recvs must be empty for a collective key.
        w.comm_on(
            0,
            "x",
            CommPattern {
                sends: vec![(0, 8)],
                recvs: vec![(1, 8)],
            },
        );
        w.comm_on(
            1,
            "x",
            CommPattern {
                sends: vec![(0, 8)],
                recvs: vec![],
            },
        );
        assert!(matches!(
            CompiledProgram::compile(&s, &w),
            Err(SimError::InvalidCollective { rank: 0, .. })
        ));
    }
}
