//! dr-fault: deterministic, seed-derived fault injection plans.
//!
//! The paper's pipeline assumes every explored implementation yields a
//! usable `(sequence, time)` pair. Real clusters disagree: ranks straggle,
//! messages stall or vanish, kernels spike, and timers report nonsense.
//! This crate makes those failure modes a *reproducible input*: a
//! [`FaultConfig`] describes fault rates and magnitudes, and a
//! [`FaultPlan`] derived from `(config, evaluation seed)` answers every
//! injection question as a **pure function** of the plan seed and the
//! entity's identity (rank, message endpoints, instruction index,
//! measurement index). No RNG state is threaded anywhere, so fault
//! decisions are independent of evaluation order and thread count — the
//! serial==parallel determinism contract of the exploration engine
//! survives under injected chaos.
//!
//! Fault taxonomy:
//!
//! * **Straggler ranks** — a rank's compute (CPU work and kernel time) is
//!   scaled by `straggler_factor`.
//! * **Message delay** — a point-to-point transfer's wire time gains
//!   `delay_seconds`.
//! * **Message drop** — a send is lost: the receiver (and a rendezvous
//!   sender) can never complete the wait, driving the simulator's MPI
//!   engine into a structured deadlock report.
//! * **Kernel spikes** — one kernel launch site runs `spike_factor`
//!   slower (GPU clock throttling, ECC scrubbing, ...).
//! * **Measurement outliers** — one benchmarking measurement is scaled by
//!   `outlier_factor` (heavy-tailed timer contamination).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01B3;

/// One FNV-1a mixing step over a 64-bit word.
fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// SplitMix64-style finalizer: avalanches the FNV accumulator so that
/// nearby inputs (rank 0 vs rank 1) produce decorrelated draws.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Maps a hash to a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (avalanche(h) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Hashes an arbitrary identifier string (e.g. a comm key's display form)
/// into the 64-bit identity used by [`FaultPlan::message`]. Both the
/// simulator and the static lint pass hash keys through this function, so
/// their drop-fault decisions agree by construction.
pub fn key_hash(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in s.as_bytes() {
        h = mix(h, u64::from(b));
    }
    h
}

// Domain tags keep the per-channel draws independent even when the raw
// coordinates collide (rank 3 vs measurement 3).
const TAG_STRAGGLER: u64 = 0x5354_5241_4747;
const TAG_MESSAGE: u64 = 0x4D_4553_5341_4745;
const TAG_SPIKE: u64 = 0x53_5049_4B45;
const TAG_OUTLIER: u64 = 0x4F_5554_4C49_4552;

/// Fault rates and magnitudes. All probabilities are per-entity (per
/// rank, per message, per launch site, per measurement); the all-zero
/// default injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Base seed mixed into every derived plan; sweeping it sweeps the
    /// whole fault landscape while keeping each plan reproducible.
    pub seed: u64,
    /// Probability that a rank is a straggler.
    pub straggler_prob: f64,
    /// Compute-time multiplier applied to straggler ranks (>= 1).
    pub straggler_factor: f64,
    /// Probability that a point-to-point message is delayed.
    pub delay_prob: f64,
    /// Extra wire seconds added to delayed messages.
    pub delay_seconds: f64,
    /// Probability that a point-to-point message is dropped outright.
    pub drop_prob: f64,
    /// Probability that a kernel launch site spikes.
    pub spike_prob: f64,
    /// Kernel-time multiplier at spiking launch sites (>= 1).
    pub spike_factor: f64,
    /// Probability that a benchmark measurement is an outlier.
    pub outlier_prob: f64,
    /// Multiplier applied to outlier measurements (heavy tail).
    pub outlier_factor: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::clean()
    }
}

impl FaultConfig {
    /// No faults at all; [`FaultConfig::is_active`] is `false`.
    pub fn clean() -> Self {
        FaultConfig {
            seed: 0,
            straggler_prob: 0.0,
            straggler_factor: 1.0,
            delay_prob: 0.0,
            delay_seconds: 0.0,
            drop_prob: 0.0,
            spike_prob: 0.0,
            spike_factor: 1.0,
            outlier_prob: 0.0,
            outlier_factor: 1.0,
        }
    }

    /// Gentle contamination: rare measurement outliers only. Intended to
    /// be survivable by the benchmarking protocol's median without any
    /// special handling, so a full test suite stays green under it.
    pub fn light() -> Self {
        FaultConfig {
            outlier_prob: 0.02,
            outlier_factor: 10.0,
            ..FaultConfig::clean()
        }
    }

    /// Aggressive but non-fatal faults: stragglers, delays, spikes, and
    /// frequent outliers — everything except message loss.
    pub fn heavy() -> Self {
        FaultConfig {
            straggler_prob: 0.15,
            straggler_factor: 2.5,
            delay_prob: 0.10,
            delay_seconds: 5e-4,
            spike_prob: 0.10,
            spike_factor: 4.0,
            outlier_prob: 0.05,
            outlier_factor: 50.0,
            ..FaultConfig::clean()
        }
    }

    /// Message-loss faults: a quarter of point-to-point messages vanish,
    /// driving schedules into rendezvous stalls and deadlocks.
    pub fn drops() -> Self {
        FaultConfig {
            drop_prob: 0.25,
            ..FaultConfig::clean()
        }
    }

    /// Whether any fault channel has a nonzero rate.
    pub fn is_active(&self) -> bool {
        self.straggler_prob > 0.0
            || self.delay_prob > 0.0
            || self.drop_prob > 0.0
            || self.spike_prob > 0.0
            || self.outlier_prob > 0.0
    }

    /// Returns a copy with `seed` replaced.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Parses a fault spec: a preset name (`clean`, `light`, `heavy`,
    /// `drops`), `key=value` overrides, or both, comma-separated — e.g.
    /// `"heavy,seed=7"` or `"drop_prob=0.3,delay_prob=0.1"`. Overrides
    /// apply on top of the preset (default `clean`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut cfg = FaultConfig::clean();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part {
                "clean" => cfg = FaultConfig::clean(),
                "light" => cfg = FaultConfig::light(),
                "heavy" => cfg = FaultConfig::heavy(),
                "drops" => cfg = FaultConfig::drops(),
                _ => {
                    let (key, value) = part
                        .split_once('=')
                        .ok_or_else(|| format!("bad fault spec segment {part:?}"))?;
                    let key = key.trim();
                    let value = value.trim();
                    if key == "seed" {
                        cfg.seed = value
                            .parse()
                            .map_err(|e| format!("bad fault seed {value:?}: {e}"))?;
                        continue;
                    }
                    let num: f64 = value
                        .parse()
                        .map_err(|e| format!("bad fault value {value:?} for {key}: {e}"))?;
                    if !num.is_finite() || num < 0.0 {
                        return Err(format!("fault value for {key} must be finite and >= 0"));
                    }
                    let (_, field) = FIELDS
                        .iter()
                        .find(|(k, _)| *k == key)
                        .ok_or_else(|| format!("unknown fault key {key:?}"))?;
                    *field(&mut cfg) = num;
                }
            }
        }
        Ok(cfg)
    }
}

/// What, if anything, happens to one point-to-point message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MessageFault {
    /// The transfer's wire time gains this many extra seconds.
    Delay(f64),
    /// The send is lost; the receiver never observes it.
    Drop,
}

/// A concrete fault assignment, derived from `(config, evaluation seed)`.
///
/// Every query is a pure function of the plan and its arguments: calling
/// [`FaultPlan::rank_factor`] for rank 3 returns the same answer no
/// matter which thread asks, how many times, or in what order. Deriving
/// a plan from the same `(config, seed)` pair always yields the same
/// plan, which is what makes chaos runs replayable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    cfg: FaultConfig,
    seed: u64,
}

impl FaultPlan {
    /// Derives the plan for one evaluation. `eval_seed` is the
    /// evaluation's own seed (in the pipeline: a pure function of the
    /// traversal hash), so distinct traversals draw distinct faults
    /// while repeated evaluations of the same traversal replay exactly.
    pub fn derive(cfg: &FaultConfig, eval_seed: u64) -> Self {
        FaultPlan {
            cfg: *cfg,
            seed: avalanche(mix(mix(FNV_OFFSET, cfg.seed), eval_seed)),
        }
    }

    /// The configuration the plan was derived from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The derived plan seed (diagnostic).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn draw(&self, tag: u64, coords: &[u64]) -> f64 {
        let mut h = mix(self.seed, tag);
        for &c in coords {
            h = mix(h, c);
        }
        unit(h)
    }

    /// Compute-time multiplier for `rank`: `straggler_factor` when the
    /// rank straggles under this plan, `1.0` otherwise.
    pub fn rank_factor(&self, rank: usize) -> f64 {
        if self.cfg.straggler_prob > 0.0
            && self.draw(TAG_STRAGGLER, &[rank as u64]) < self.cfg.straggler_prob
        {
            self.cfg.straggler_factor
        } else {
            1.0
        }
    }

    /// Fault affecting the message `src -> dst` under the comm key whose
    /// [`key_hash`] is `key`. Drop takes precedence over delay (a single
    /// draw decides: `[0, drop_prob)` drops, the next `delay_prob` span
    /// delays).
    pub fn message(&self, key: u64, src: usize, dst: usize) -> Option<MessageFault> {
        if self.cfg.drop_prob <= 0.0 && self.cfg.delay_prob <= 0.0 {
            return None;
        }
        let u = self.draw(TAG_MESSAGE, &[key, src as u64, dst as u64]);
        if u < self.cfg.drop_prob {
            Some(MessageFault::Drop)
        } else if u < self.cfg.drop_prob + self.cfg.delay_prob {
            Some(MessageFault::Delay(self.cfg.delay_seconds))
        } else {
            None
        }
    }

    /// Kernel-time multiplier for the launch at instruction index `pc`
    /// on `rank`: `spike_factor` when the site spikes, `1.0` otherwise.
    pub fn kernel_spike(&self, rank: usize, pc: usize) -> f64 {
        if self.cfg.spike_prob > 0.0
            && self.draw(TAG_SPIKE, &[rank as u64, pc as u64]) < self.cfg.spike_prob
        {
            self.cfg.spike_factor
        } else {
            1.0
        }
    }

    /// Multiplier for benchmark measurement number `measurement`:
    /// `outlier_factor` when the measurement is contaminated, `1.0`
    /// otherwise.
    pub fn outlier(&self, measurement: usize) -> f64 {
        if self.cfg.outlier_prob > 0.0
            && self.draw(TAG_OUTLIER, &[measurement as u64]) < self.cfg.outlier_prob
        {
            self.cfg.outlier_factor
        } else {
            1.0
        }
    }
}

/// Counts of faults actually injected during a run (as opposed to the
/// *rates* in [`FaultConfig`]). Accumulated by the simulator and summed
/// across workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Straggler scalings applied to compute time.
    pub stragglers: u64,
    /// Messages delayed.
    pub delays: u64,
    /// Messages dropped.
    pub drops: u64,
    /// Kernel launches spiked.
    pub spikes: u64,
    /// Measurements contaminated.
    pub outliers: u64,
}

impl FaultCounters {
    /// Total faults injected across all channels.
    pub fn total(&self) -> u64 {
        self.stragglers + self.delays + self.drops + self.spikes + self.outliers
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.stragglers += other.stragglers;
        self.delays += other.delays;
        self.drops += other.drops;
        self.spikes += other.spikes;
        self.outliers += other.outliers;
    }
}

/// A [`FaultConfig`] rate or magnitude, by its spec key.
type Field = fn(&mut FaultConfig) -> &mut f64;

/// Every rate and magnitude by spec key ([`FaultConfig::parse`]).
const FIELDS: [(&str, Field); 9] = [
    ("straggler_prob", |c| &mut c.straggler_prob),
    ("straggler_factor", |c| &mut c.straggler_factor),
    ("delay_prob", |c| &mut c.delay_prob),
    ("delay_seconds", |c| &mut c.delay_seconds),
    ("drop_prob", |c| &mut c.drop_prob),
    ("spike_prob", |c| &mut c.spike_prob),
    ("spike_factor", |c| &mut c.spike_factor),
    ("outlier_prob", |c| &mut c.outlier_prob),
    ("outlier_factor", |c| &mut c.outlier_factor),
];

/// Renders the config as a spec [`FaultConfig::parse`] reads back:
/// `clean`, or the `key=value` overrides of the clean preset.
impl fmt::Display for FaultConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (mut this, mut clean) = (*self, FaultConfig::clean());
        let mut parts: Vec<String> = FIELDS
            .iter()
            .filter_map(|(k, field)| {
                let v = *field(&mut this);
                (v != *field(&mut clean)).then(|| format!("{k}={v}"))
            })
            .collect();
        if self.seed != 0 {
            parts.push(format!("seed={}", self.seed));
        }
        if parts.is_empty() {
            f.write_str("clean")
        } else {
            f.write_str(&parts.join(","))
        }
    }
}

impl fmt::Display for FaultCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stragglers {} delays {} drops {} spikes {} outliers {}",
            self.stragglers, self.delays, self.drops, self.spikes, self.outliers
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_injects_nothing() {
        let plan = FaultPlan::derive(&FaultConfig::clean(), 12345);
        for rank in 0..64 {
            assert_eq!(plan.rank_factor(rank), 1.0);
            assert_eq!(plan.kernel_spike(rank, rank * 3), 1.0);
            assert_eq!(plan.outlier(rank), 1.0);
            assert_eq!(plan.message(key_hash("x"), rank, rank + 1), None);
        }
        assert!(!FaultConfig::clean().is_active());
        assert!(FaultConfig::light().is_active());
    }

    #[test]
    fn plan_queries_are_pure_and_seed_sensitive() {
        let cfg = FaultConfig::heavy().with_seed(9);
        let a = FaultPlan::derive(&cfg, 42);
        let b = FaultPlan::derive(&cfg, 42);
        assert_eq!(a, b);
        for rank in 0..32 {
            assert_eq!(a.rank_factor(rank), b.rank_factor(rank));
            assert_eq!(a.kernel_spike(rank, 7), b.kernel_spike(rank, 7));
            assert_eq!(a.outlier(rank), b.outlier(rank));
        }
        // A different evaluation seed must produce a different landscape
        // somewhere in a reasonable window.
        let c = FaultPlan::derive(&cfg, 43);
        let differs = (0..256).any(|i| {
            a.rank_factor(i) != c.rank_factor(i)
                || a.outlier(i) != c.outlier(i)
                || a.kernel_spike(i, 0) != c.kernel_spike(i, 0)
        });
        assert!(differs, "seed 42 and 43 landscapes are identical");
    }

    #[test]
    fn drop_rate_is_roughly_honored() {
        let cfg = FaultConfig::drops().with_seed(1);
        let plan = FaultPlan::derive(&cfg, 7);
        let key = key_hash("exchange");
        let dropped = (0..1000)
            .filter(|&i| plan.message(key, i, (i + 1) % 1000) == Some(MessageFault::Drop))
            .count();
        // drop_prob = 0.25; allow a wide deterministic tolerance.
        assert!((150..=350).contains(&dropped), "dropped {dropped}/1000");
    }

    #[test]
    fn message_drop_takes_precedence_over_delay() {
        let cfg = FaultConfig {
            drop_prob: 1.0,
            delay_prob: 1.0,
            delay_seconds: 1.0,
            ..FaultConfig::clean()
        };
        let plan = FaultPlan::derive(&cfg, 0);
        assert_eq!(plan.message(key_hash("x"), 0, 1), Some(MessageFault::Drop));
        let delay_only = FaultConfig {
            delay_prob: 1.0,
            delay_seconds: 2e-3,
            ..FaultConfig::clean()
        };
        let plan = FaultPlan::derive(&delay_only, 0);
        assert_eq!(
            plan.message(key_hash("x"), 0, 1),
            Some(MessageFault::Delay(2e-3))
        );
    }

    #[test]
    fn parse_presets_and_overrides() {
        assert_eq!(FaultConfig::parse("").unwrap(), FaultConfig::clean());
        assert_eq!(FaultConfig::parse("light").unwrap(), FaultConfig::light());
        assert_eq!(
            FaultConfig::parse("heavy,seed=11").unwrap(),
            FaultConfig::heavy().with_seed(11)
        );
        let custom =
            FaultConfig::parse("drop_prob=0.5,delay_prob=0.25,delay_seconds=1e-3").unwrap();
        assert_eq!(custom.drop_prob, 0.5);
        assert_eq!(custom.delay_prob, 0.25);
        assert_eq!(custom.delay_seconds, 1e-3);
        assert!(FaultConfig::parse("bogus").is_err());
        assert!(FaultConfig::parse("drop_prob=minus").is_err());
        assert!(FaultConfig::parse("drop_prob=-1").is_err());
        assert!(FaultConfig::parse("drop_prob=inf").is_err());
    }

    #[test]
    fn display_round_trips_through_parse() {
        assert_eq!(FaultConfig::clean().to_string(), "clean");
        assert_eq!(
            FaultConfig::light().to_string(),
            "outlier_prob=0.02,outlier_factor=10"
        );
        for cfg in [
            FaultConfig::clean(),
            FaultConfig::light(),
            FaultConfig::heavy().with_seed(11),
            FaultConfig::drops().with_seed(u64::MAX),
        ] {
            assert_eq!(FaultConfig::parse(&cfg.to_string()).unwrap(), cfg);
        }
    }

    #[test]
    fn counters_merge_and_total() {
        let mut a = FaultCounters {
            stragglers: 1,
            delays: 2,
            drops: 3,
            spikes: 4,
            outliers: 5,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.total(), 30);
        assert_eq!(a.drops, 6);
        assert!(a.to_string().contains("drops 6"));
    }

    #[test]
    fn key_hash_distinguishes_keys() {
        assert_ne!(key_hash("x"), key_hash("y"));
        assert_eq!(key_hash("halo"), key_hash("halo"));
    }
}
