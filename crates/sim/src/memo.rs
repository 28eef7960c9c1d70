//! Tabulated position-keyed noise, shared across an exploration.
//!
//! Every noise factor is a pure function of `(sample_seed, position
//! key)` (see [`crate::exec`]), and the memoized bench protocol reuses
//! the same per-cell sample seeds for every schedule (see
//! [`crate::bench::benchmark_memo`]). The Box-Muller draw behind each
//! factor (`ln`/`sqrt`/`cos`/`exp`) dominates short executions, so the
//! memo tabulates factors per seed and replays them bit-identically.

use crate::compile::CompiledProgram;
use crate::exec::NoiseTable;
use crate::platform::Platform;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a sample seed as itself: cell seeds are already avalanched.
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

/// Per-`sample_seed` noise-factor tables. A pure lookup cache: tables
/// replay exactly what `factor_keyed` would compute, so they can never
/// change results — only wall time. Keyed by seed because the memoized
/// protocol cycles through a fixed set of per-cell seeds; flushed
/// whenever the platform's noise sigma changes (one memo may serve
/// differently-configured platforms across tests). One per worker
/// thread, so it never needs locking.
#[derive(Debug, Default)]
pub struct SimMemo {
    sigma: f64,
    tables: HashMap<u64, NoiseTable, BuildHasherDefault<SeedHasher>>,
}

impl SimMemo {
    /// Number of per-seed noise-factor tables currently held.
    pub fn noise_tables(&self) -> usize {
        self.tables.len()
    }

    /// The table for `sample_seed` on `platform`, fitted to `prog`'s
    /// shape; `None` when the platform is noiseless (every factor is 1.0
    /// — a table would only add work).
    pub(crate) fn table(
        &mut self,
        platform: &Platform,
        prog: &CompiledProgram,
        sample_seed: u64,
    ) -> Option<&mut NoiseTable> {
        let sigma = platform.noise.sigma;
        if sigma == 0.0 {
            return None;
        }
        if sigma != self.sigma {
            self.tables.clear();
            self.sigma = sigma;
        }
        let tab = self.tables.entry(sample_seed).or_default();
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

    /// One replay of `prog` at `seed` with noise from `memo`'s table.
    fn tabled(
        prog: &CompiledProgram,
        platform: &Platform,
        seed: u64,
        memo: &mut SimMemo,
    ) -> Vec<f64> {
        let mut tape = Tape::lower(prog, platform);
        let noise = Noise::new(platform, seed, memo.table(platform, prog, seed));
        tape.run(noise, None).unwrap();
        tape.rank_times().to_vec()
    }

    #[test]
    fn tabled_noise_is_bit_identical_to_direct_draws() {
        let prog = halo_program();
        let platform = Platform::perlmutter_like(); // noisy
        let mut memo = SimMemo::default();
        for seed in [3u64, 4, 3, u64::MAX] {
            let (direct, _) = execute_seeded(&prog, &platform, seed).unwrap();
            let memoed = tabled(&prog, &platform, seed, &mut memo);
            assert_eq!(memoed, direct.rank_times, "seed {seed} diverged");
        }
        assert_eq!(memo.noise_tables(), 3, "one table per distinct seed");
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
            let (direct, _) = execute_seeded(&prog, platform, 11).unwrap();
            let memoed = tabled(&prog, platform, 11, &mut memo);
            assert_eq!(
                memoed, direct.rank_times,
                "sigma change leaked stale factors"
            );
        }
    }

    #[test]
    fn noiseless_platforms_build_no_tables() {
        let prog = halo_program();
        let platform = Platform::perlmutter_like().noiseless();
        let mut memo = SimMemo::default();
        let (direct, _) = execute_seeded(&prog, &platform, 5).unwrap();
        assert_eq!(tabled(&prog, &platform, 5, &mut memo), direct.rank_times);
        assert_eq!(memo.noise_tables(), 0);
    }
}
