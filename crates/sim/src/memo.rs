//! Tabulated position-keyed noise, shared across an exploration.
//!
//! Every noise factor is a pure function of `(sample_seed, position
//! key)` (see [`crate::exec`]), and the memoized bench protocol reuses
//! the same per-cell sample seeds for every schedule (see
//! [`crate::bench::benchmark_memo_instrumented`]). The Box-Muller draw
//! behind each factor (`ln`/`sqrt`/`cos`/`exp`) dominates short
//! executions, so the memo tabulates factors per block of consecutive
//! cell seeds and replays them bit-identically.

use crate::compile::CompiledProgram;
use crate::exec::{NoiseTable, LANES};
use crate::platform::Platform;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a block's first seed as itself: cell seeds are already
/// avalanched.
#[derive(Debug, Default)]
struct SeedHasher(u64);

impl Hasher for SeedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 seeds are hashed")
    }

    fn write_u64(&mut self, seed: u64) {
        self.0 = seed;
    }
}

/// Noise-factor tables, one per block of [`LANES`] consecutive cell
/// seeds. A pure lookup cache: tables replay exactly what `factor_keyed`
/// would compute, so they can never change results — only wall time.
/// Keyed by the block's first seed because the memoized protocol cycles
/// through a fixed set of per-cell seeds; flushed whenever the platform's
/// noise sigma changes (one memo may serve differently-configured
/// platforms across tests). One per worker thread, so it never needs
/// locking.
#[derive(Debug, Default)]
pub struct SimMemo {
    sigma: f64,
    tables: HashMap<u64, NoiseTable, BuildHasherDefault<SeedHasher>>,
}

impl SimMemo {
    /// Number of distinct sample seeds whose noise factors the memo
    /// holds: [`LANES`] per block table.
    pub fn noise_tables(&self) -> usize {
        self.tables.len() * LANES
    }

    /// The table of the block whose first seed is `block_seed` on
    /// `platform`, fitted to `prog`'s shape; `None` when the platform is
    /// noiseless (every factor is 1.0 — a table would only add work).
    pub(crate) fn table(
        &mut self,
        platform: &Platform,
        prog: &CompiledProgram,
        block_seed: u64,
    ) -> Option<&mut NoiseTable> {
        let sigma = platform.noise.sigma;
        if sigma == 0.0 {
            return None;
        }
        if sigma != self.sigma {
            self.tables.clear();
            self.sigma = sigma;
        }
        let tab = self.tables.entry(block_seed).or_default();
        tab.fit(prog);
        Some(tab)
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

    /// One pass of `prog` over `seeds`, lanes `first..first + W` of the
    /// block table keyed by `block`; the per-rank times of every lane.
    fn tabled<const W: usize>(
        prog: &CompiledProgram,
        platform: &Platform,
        (block, first): (u64, usize),
        seeds: [u64; W],
        memo: &mut SimMemo,
    ) -> Vec<Vec<f64>> {
        let mut tape = Tape::lower(prog, platform);
        let table = memo.table(platform, prog, block).map(|t| (t, first));
        for end in tape.run(Noise::new(platform, seeds, table), None) {
            end.unwrap();
        }
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
        let block: [u64; 8] = std::array::from_fn(|l| 3 + l as u64);
        // A full-width pass fills the block; narrower passes at other
        // lanes replay its factors, and a pass over a fresh block draws.
        let wide = tabled(&prog, &platform, (3, 0), block, &mut memo);
        assert_eq!(wide, direct(&prog, &platform, &block));
        let pair = tabled(&prog, &platform, (3, 6), [9, 10], &mut memo);
        assert_eq!(pair, direct(&prog, &platform, &[9, 10]));
        let one = tabled(&prog, &platform, (u64::MAX, 0), [u64::MAX], &mut memo);
        assert_eq!(one, direct(&prog, &platform, &[u64::MAX]));
        assert_eq!(memo.noise_tables(), 16, "8 seeds per block table");
    }

    #[test]
    fn noise_tables_flush_when_sigma_changes() {
        // One memo serving platforms with different noise sigmas must not
        // replay factors drawn under the other sigma.
        let prog = halo_program();
        let noisy = Platform::perlmutter_like();
        let mut louder = Platform::perlmutter_like();
        louder.noise.sigma *= 3.0;
        let mut memo = SimMemo::default();
        for platform in [&noisy, &louder, &noisy] {
            let memoed = tabled(&prog, platform, (11, 0), [11, 12], &mut memo);
            assert_eq!(
                memoed,
                direct(&prog, platform, &[11, 12]),
                "sigma change leaked stale factors"
            );
        }
    }

    #[test]
    fn noiseless_platforms_build_no_tables() {
        let prog = halo_program();
        let platform = Platform::perlmutter_like().noiseless();
        let mut memo = SimMemo::default();
        let memoed = tabled(&prog, &platform, (5, 0), [5, 6, 7, 8], &mut memo);
        assert_eq!(memoed, direct(&prog, &platform, &[5, 6, 7, 8]));
        assert_eq!(memo.noise_tables(), 0);
    }
}
