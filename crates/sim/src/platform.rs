//! Platform cost model: the simulator's substitute for the paper's
//! Perlmutter node (Table I).
//!
//! The reproduction has no A100s or Cray-MPICH; instead the platform is a
//! parametric first-order model of the behaviours that make operation
//! order and stream assignment matter: host-side launch overheads, stream
//! FIFO serialization, inter-stream kernel contention, eager/rendezvous
//! point-to-point messaging, and blocking waits.
//!
//! The platform also carries the *fault hook*: an optional
//! [`FaultPlan`](dr_fault::FaultPlan) consulted by the execution engine
//! (stragglers, message delay/drop, kernel spikes) and the benchmarking
//! protocol (measurement outliers), plus a watchdog budget bounding any
//! single execution. Both default to "off", leaving fault-free behavior
//! bit-for-bit unchanged.

use dr_fault::FaultPlan;

/// Multiplicative log-normal measurement noise. Real benchmarks jitter;
/// the labeling pipeline (convolution + peak prominence) is designed to be
/// robust to it, so the simulator reproduces it deterministically from a
/// seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Standard deviation of `ln(factor)`; 0 disables noise.
    pub sigma: f64,
}

impl NoiseModel {
    /// No measurement noise (exact repeatable timings).
    pub const NONE: NoiseModel = NoiseModel { sigma: 0.0 };

    /// Draws a multiplicative noise factor `exp(sigma · z)`, `z ~ N(0,1)`,
    /// using the Box-Muller transform on two uniform draws.
    pub fn factor(&self, rng: &mut impl rand::Rng) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (self.sigma * z).exp()
    }

    /// Position-keyed variant of [`factor`](NoiseModel::factor): the same
    /// log-normal factor, but derived purely from `(seed, key)` with a
    /// splitmix64 avalanche instead of a sequential generator. Because
    /// the draw is a pure function of its position key, it is independent
    /// of execution interleaving — the property that lets a replay tape
    /// draw factors in its own order and still reproduce round-robin
    /// execution bit for bit.
    pub fn factor_keyed(&self, seed: u64, key: u64) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        let mut s = seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        // Uniforms on (0, 1] / [0, 1): same 53-bit mantissa construction
        // as the `rand` shim's `Standard` f64 distribution.
        let u1 = (((a >> 11) as f64) * F64_UNIT).max(f64::MIN_POSITIVE);
        let u2 = ((b >> 11) as f64) * F64_UNIT;
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (self.sigma * z).exp()
    }
}

/// `2^-53`: converts a 53-bit integer into a uniform f64 in `[0, 1)`.
const F64_UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// The splitmix64 step: advances `state` and returns an avalanched output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// First-order cost model of a multi-rank GPU node. All times are seconds,
/// bandwidths bytes/second.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// CPU time consumed by launching a kernel (`cudaLaunchKernel`).
    pub kernel_launch_overhead: f64,
    /// CPU time consumed by `cudaEventRecord`.
    pub event_record_overhead: f64,
    /// CPU time consumed by `cudaEventSynchronize` beyond the actual wait.
    pub event_sync_overhead: f64,
    /// CPU time consumed by `cudaStreamWaitEvent`.
    pub stream_wait_overhead: f64,
    /// CPU time consumed by posting one `MPI_Isend`.
    pub isend_overhead: f64,
    /// CPU time consumed by posting one `MPI_Irecv`.
    pub irecv_overhead: f64,
    /// CPU time consumed by an `MPI_Wait` call beyond the actual wait.
    pub wait_overhead: f64,
    /// Per-message network/PCIe latency.
    pub net_latency: f64,
    /// Link bandwidth for message payloads.
    pub net_bandwidth: f64,
    /// Messages at or below this size use the eager protocol (the send
    /// buffer is captured immediately and the send completes without a
    /// matching receive); larger messages rendezvous (the transfer starts
    /// only once both sides have posted).
    pub eager_threshold: u64,
    /// Inter-stream kernel contention: while a kernel overlaps a kernel in
    /// another stream *of the same GPU*, it accrues `contention` extra
    /// seconds per second of overlap (0 = perfect concurrency, 1 = no
    /// benefit over serialization).
    pub gpu_contention: f64,
    /// Streams per GPU: streams `0..streams_per_gpu` live on GPU 0, the
    /// next block on GPU 1, and so on (paper future work: "extending
    /// resource assignment to include multiple GPUs or NUMA nodes").
    /// `usize::MAX` (the default) models a single GPU.
    pub streams_per_gpu: usize,
    /// Extra latency of a `cudaStreamWaitEvent` whose event was recorded
    /// on a *different GPU* (peer synchronization crosses NVLink/PCIe).
    pub cross_gpu_sync_latency: f64,
    /// Measurement noise applied to kernel/CPU durations and transfers.
    pub noise: NoiseModel,
    /// Deterministic fault-injection plan consulted during execution and
    /// benchmarking; `None` (the default) injects nothing.
    pub faults: Option<FaultPlan>,
    /// Watchdog: maximum instructions a single execution may retire
    /// before it is killed with [`SimError::Budget`](crate::SimError);
    /// `0` = unlimited.
    pub max_steps: u64,
}

impl Platform {
    /// A Perlmutter-like single node: A100-class GPUs on PCIe 4.0, one
    /// NIC, Cray-MPICH-like eager threshold. Values are first-order
    /// magnitudes from public microbenchmarks, not measurements; the
    /// reproduction's target is the *shape* of the design-space landscape.
    pub fn perlmutter_like() -> Self {
        Platform {
            kernel_launch_overhead: 5e-6,
            event_record_overhead: 1e-6,
            event_sync_overhead: 2e-6,
            stream_wait_overhead: 1e-6,
            isend_overhead: 1.5e-6,
            irecv_overhead: 1.0e-6,
            wait_overhead: 1.0e-6,
            net_latency: 4e-6,
            net_bandwidth: 12e9,
            eager_threshold: 8 * 1024,
            gpu_contention: 0.25,
            streams_per_gpu: usize::MAX,
            cross_gpu_sync_latency: 8e-6,
            noise: NoiseModel { sigma: 0.02 },
            faults: None,
            max_steps: 0,
        }
    }

    /// The same platform with a fault plan installed.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The same platform with a watchdog budget: at most `max_steps`
    /// retired instructions per execution (`0` = unlimited).
    pub fn with_budget(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// The GPU a stream belongs to.
    pub fn gpu_of(&self, stream: usize) -> usize {
        stream / self.streams_per_gpu.max(1)
    }

    /// The same platform with noise disabled (for deterministic tests and
    /// golden outputs).
    pub fn noiseless(mut self) -> Self {
        self.noise = NoiseModel::NONE;
        self
    }

    /// Transfer duration for a payload once the transfer has started.
    pub fn wire_time(&self, bytes: u64) -> f64 {
        self.net_latency + bytes as f64 / self.net_bandwidth
    }

    /// Whether a message of this size is sent eagerly.
    pub fn is_eager(&self, bytes: u64) -> bool {
        bytes <= self.eager_threshold
    }

    /// Duration of a tree-based collective reduction across `ranks`
    /// participants once all have entered: `ceil(log2 P)` rounds of one
    /// message each.
    pub fn collective_time(&self, ranks: usize, bytes: u64) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        let rounds = (ranks as f64).log2().ceil();
        rounds * self.wire_time(bytes)
    }
}

impl Default for Platform {
    fn default() -> Self {
        Platform::perlmutter_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zero_sigma_noise_is_identity() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(NoiseModel::NONE.factor(&mut rng), 1.0);
    }

    #[test]
    fn noise_is_positive_and_near_one() {
        let mut rng = SmallRng::seed_from_u64(7);
        let nm = NoiseModel { sigma: 0.05 };
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let f = nm.factor(&mut rng);
            assert!(f > 0.0);
            sum += f;
        }
        let mean = sum / 10_000.0;
        assert!(
            (mean - 1.0).abs() < 0.01,
            "lognormal mean ~ exp(sigma^2/2): {mean}"
        );
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let nm = NoiseModel { sigma: 0.1 };
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(nm.factor(&mut a), nm.factor(&mut b));
        }
    }

    #[test]
    fn keyed_noise_is_pure_positive_and_near_one() {
        let nm = NoiseModel { sigma: 0.05 };
        // Pure: same (seed, key) always yields the same factor.
        assert_eq!(nm.factor_keyed(42, 7), nm.factor_keyed(42, 7));
        // Distinct keys and seeds decorrelate.
        assert_ne!(nm.factor_keyed(42, 7), nm.factor_keyed(42, 8));
        assert_ne!(nm.factor_keyed(42, 7), nm.factor_keyed(43, 7));
        // Log-normal shape: positive, mean near exp(sigma^2/2) ~ 1.
        let mut sum = 0.0;
        for key in 0..10_000u64 {
            let f = nm.factor_keyed(9, key);
            assert!(f > 0.0);
            sum += f;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 1.0).abs() < 0.01, "lognormal mean: {mean}");
        // Zero sigma stays exact.
        assert_eq!(NoiseModel::NONE.factor_keyed(1, 2), 1.0);
    }

    #[test]
    fn wire_time_scales_with_bytes() {
        let p = Platform::perlmutter_like();
        assert!(p.wire_time(1 << 20) > p.wire_time(1 << 10));
        assert!((p.wire_time(0) - p.net_latency).abs() < 1e-15);
    }

    #[test]
    fn eager_threshold_boundary() {
        let p = Platform::perlmutter_like();
        assert!(p.is_eager(p.eager_threshold));
        assert!(!p.is_eager(p.eager_threshold + 1));
    }
}
