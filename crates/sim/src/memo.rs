//! Tabulated position-keyed noise, shared across an exploration.
//!
//! Every noise factor is a pure function of `(sample_seed, position
//! key)` (see [`crate::exec`]), and the memoized bench protocol reuses
//! the same per-cell sample seeds for every schedule (see
//! [`crate::bench::benchmark_memo_instrumented`]). The Box-Muller draw
//! behind each factor (`ln`/`sqrt`/`cos`/`exp`) dominates short
//! executions, so the memo tabulates factors by cell id and replays them
//! bit-identically.

use crate::compile::CompiledProgram;
use crate::exec::NoiseTable;
use crate::platform::Platform;

/// The noise-factor table of the memoized protocol's cells, addressed by
/// cell id `s · M + m` (sample `s` of measurement `m`, `M` measurements).
/// A pure lookup cache: the table replays exactly what `factor_keyed`
/// would compute, so it can never change results — only wall time. A
/// cell id names the same seed for every schedule measured with the same
/// `M`; the table is flushed whenever `M` or the platform's noise sigma
/// changes (one memo may serve differently-configured protocols and
/// platforms across tests). One per worker thread, so it never needs
/// locking.
#[derive(Debug, Default)]
pub struct SimMemo {
    sigma: f64,
    measurements: usize,
    /// Cell ids `0..cells` have been replayed through the table.
    cells: usize,
    table: NoiseTable,
}

impl SimMemo {
    /// Number of distinct sample seeds whose noise factors the memo
    /// holds: one per cell id below the highest the protocol has
    /// replayed.
    pub fn noise_tables(&self) -> usize {
        self.cells
    }

    /// The table for cell ids below `cells` of a protocol with
    /// `measurements` measurements on `platform`, fitted to `prog`'s
    /// shape; `None` when the platform is noiseless (every factor is 1.0
    /// — a table would only add work).
    pub(crate) fn table(
        &mut self,
        platform: &Platform,
        prog: &CompiledProgram,
        measurements: usize,
        cells: usize,
    ) -> Option<&mut NoiseTable> {
        let sigma = platform.noise.sigma;
        if sigma == 0.0 {
            return None;
        }
        if sigma != self.sigma || measurements != self.measurements {
            *self = SimMemo {
                sigma,
                measurements,
                ..SimMemo::default()
            };
        }
        self.cells = self.cells.max(cells);
        self.table.fit(prog, cells);
        Some(&mut self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_seeded, Noise, Tape};
    use crate::workload::TableWorkload;
    use dr_dag::{build_schedule, CommKey, CostKey, DagBuilder, DecisionSpace, OpSpec};

    /// A 3-rank program with kernels and a halo exchange.
    fn halo_program() -> CompiledProgram {
        let mut b = DagBuilder::new();
        let key = CommKey::new("halo");
        let pre = b.add("pre", OpSpec::CpuWork(CostKey::new("pre")));
        let k1 = b.add("k1", OpSpec::GpuKernel(CostKey::new("k1")));
        let k2 = b.add("k2", OpSpec::GpuKernel(CostKey::new("k2")));
        let ps = b.add("PostSends", OpSpec::PostSends(key.clone()));
        let pr = b.add("PostRecvs", OpSpec::PostRecvs(key.clone()));
        let ws = b.add("WaitSends", OpSpec::WaitSends(key.clone()));
        let wr = b.add("WaitRecvs", OpSpec::WaitRecvs(key));
        let post = b.add("post", OpSpec::CpuWork(CostKey::new("post")));
        b.edge(pre, k1);
        b.edge(pre, k2);
        b.edge(k1, ps);
        b.edge(k2, ps);
        b.edge(ps, ws);
        b.edge(pr, wr);
        b.edge(ps, wr);
        b.edge(wr, post);
        let sp = DecisionSpace::new(b.build().unwrap(), 2).unwrap();
        let t = sp.enumerate().next().unwrap();
        let s = build_schedule(&sp, &t);
        let mut w = TableWorkload::new(3);
        w.cost_all("pre", 4e-5);
        w.cost_all("k1", 8e-5);
        w.cost_all("k2", 6e-5);
        w.cost_all("post", 3e-5);
        w.comm_all_to_all("halo", 1 << 16);
        CompiledProgram::compile(&s, &w).unwrap()
    }

    /// One pass of `prog` over `seeds`, lane `l` at cell id `ids[l]` of
    /// the memo's table for `measurements`-measurement protocols; the
    /// per-rank times of every lane.
    fn tabled<const W: usize>(
        prog: &CompiledProgram,
        platform: &Platform,
        (measurements, ids): (usize, [usize; W]),
        seeds: [u64; W],
        memo: &mut SimMemo,
    ) -> Vec<Vec<f64>> {
        let mut tape = Tape::lower(prog, platform).unwrap();
        let cells = ids.iter().max().map_or(0, |&c| c + 1);
        let table = memo.table(platform, prog, measurements, cells);
        tape.run(Noise::new(platform, seeds, table.map(|t| (t, ids))), None);
        (0..W).map(|l| tape.rank_times(l).collect()).collect()
    }

    /// The scalar replay of every seed.
    fn direct(prog: &CompiledProgram, platform: &Platform, seeds: &[u64]) -> Vec<Vec<f64>> {
        let run = |&seed: &u64| execute_seeded(prog, platform, seed).unwrap().0.rank_times;
        seeds.iter().map(run).collect()
    }

    #[test]
    fn tabled_noise_is_bit_identical_to_direct_draws() {
        let prog = halo_program();
        let platform = Platform::perlmutter_like(); // noisy
        let mut memo = SimMemo::default();
        // Cell id `c` holds seed `3 + c`. A full-width pass fills ids
        // 0..8; a narrower pass replays two of them, gathering passes
        // mix tabulated and fresh ids, one of them across two blocks,
        // and a far id grows the table.
        let ids: [usize; 8] = std::array::from_fn(|l| l);
        let wide = tabled(
            &prog,
            &platform,
            (9, ids),
            ids.map(|c| 3 + c as u64),
            &mut memo,
        );
        assert_eq!(wide, direct(&prog, &platform, &[3, 4, 5, 6, 7, 8, 9, 10]));
        let pair = tabled(&prog, &platform, (9, [6, 7]), [9, 10], &mut memo);
        assert_eq!(pair, direct(&prog, &platform, &[9, 10]));
        let gather = tabled(
            &prog,
            &platform,
            (9, [1, 4, 11, 12]),
            [4, 7, 14, 15],
            &mut memo,
        );
        assert_eq!(gather, direct(&prog, &platform, &[4, 7, 14, 15]));
        let straddle = tabled(
            &prog,
            &platform,
            (9, [6, 7, 8, 9]),
            [9, 10, 11, 12],
            &mut memo,
        );
        assert_eq!(straddle, direct(&prog, &platform, &[9, 10, 11, 12]));
        let far = tabled(&prog, &platform, (9, [40]), [43], &mut memo);
        assert_eq!(far, direct(&prog, &platform, &[43]));
        assert_eq!(memo.noise_tables(), 41, "ids 0..=40 replayed");
    }

    #[test]
    fn noise_tables_flush_when_sigma_or_measurements_change() {
        // One memo serving platforms with different noise sigmas, or
        // protocols whose cell ids name different seeds, must not replay
        // factors drawn under the other setting.
        let prog = halo_program();
        let noisy = Platform::perlmutter_like();
        let mut louder = Platform::perlmutter_like();
        louder.noise.sigma *= 3.0;
        let mut memo = SimMemo::default();
        let cases = [
            (&noisy, 9, 11),
            (&louder, 9, 11),
            (&noisy, 9, 11),
            (&noisy, 5, 21),
        ];
        for (platform, measurements, seed) in cases {
            let seeds = [seed, seed + 1];
            let memoed = tabled(&prog, platform, (measurements, [0, 1]), seeds, &mut memo);
            assert_eq!(
                memoed,
                direct(&prog, platform, &seeds),
                "a setting change leaked stale factors"
            );
        }
    }

    #[test]
    fn noiseless_platforms_build_no_tables() {
        let prog = halo_program();
        let platform = Platform::perlmutter_like().noiseless();
        let mut memo = SimMemo::default();
        let memoed = tabled(&prog, &platform, (9, [0, 1, 2, 3]), [5, 6, 7, 8], &mut memo);
        assert_eq!(memoed, direct(&prog, &platform, &[5, 6, 7, 8]));
        assert_eq!(memo.noise_tables(), 0);
    }
}
