//! Golden values of the simulator: exact record-set fingerprints,
//! measurements, statistics, traces and error messages, pinned so that
//! any change to the execution engine must reproduce the reference
//! interpreter's outputs bit for bit.
//!
//! The exploration pins drive the explore engine directly with a
//! `SimEvaluator` (no pipeline), so no environment variable
//! (`DR_FAULTS`, `DR_THREADS`) can change them. The fault and budget pins cover paths the benchmark
//! workloads never exercise.

use cuda_mpi_design_rules::dag::{
    build_schedule, CommKey, CostKey, Schedule, ScheduleAction, ScheduledItem,
};
use cuda_mpi_design_rules::halo::HaloScenario;
use cuda_mpi_design_rules::mcts::{MctsConfig, SimEvaluator};
use cuda_mpi_design_rules::pipeline::{
    explore_instrumented, explore_parallel, records_fingerprint, ExploreCtx, PipelineConfig,
    Strategy,
};
use cuda_mpi_design_rules::sim::{
    benchmark_instrumented, benchmark_memo_instrumented, execute, execute_traced, BenchConfig,
    CommPattern, CompiledProgram, FaultConfig, FaultPlan, Platform, Resource, SimMemo, SimStats,
    TableWorkload,
};
use cuda_mpi_design_rules::spmv::SpmvScenario;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench() -> BenchConfig {
    PipelineConfig::quick().bench
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The first enumerated halo implementation of `HaloScenario::cube2(1)`.
fn halo_program() -> (CompiledProgram, Platform) {
    let h = HaloScenario::cube2(1);
    let t = h.space.enumerate().next().expect("non-empty space");
    let prog = CompiledProgram::compile(&build_schedule(&h.space, &t), &h.workload).unwrap();
    (prog, h.platform)
}

/// `benchmark_instrumented` at `seed`, rendered exactly: the `Debug` form
/// of the result (shortest round-trip floats) plus the stats JSON, or the
/// error's `Display` string.
fn bench_pin(prog: &CompiledProgram, platform: &Platform, seed: u64) -> String {
    match benchmark_instrumented(prog, platform, &bench(), seed) {
        Ok((result, stats)) => format!("{result:?}\n{}", stats.to_json()),
        Err(e) => format!("error: {e}"),
    }
}

/// The sample count, instruction count and a hash of the exact JSON of
/// aggregate simulator statistics.
fn stats_pin(stats: &SimStats) -> String {
    let json = stats.to_json();
    format!(
        "{} runs, {} instructions, json {:016x}",
        stats.runs,
        stats.instructions,
        fnv(json.bytes().map(u64::from))
    )
}

#[test]
fn exhaustive_spmv_record_set_is_pinned() {
    let sc = SpmvScenario::small(1);
    let eval = SimEvaluator::new(&sc.space, &sc.workload, &sc.platform, bench());
    let (records, _, stats) = explore_instrumented(&sc.space, eval, Strategy::Exhaustive).unwrap();
    assert_eq!(records.len(), 1600);
    assert_eq!(
        format!("{:016x}", records_fingerprint(&records)),
        "2e48aeace4734253"
    );
    assert_eq!(
        stats_pin(&stats.unwrap()),
        "407510 runs, 19512680 instructions, json 36e6489671802687"
    );
}

#[test]
fn halo_mcts_record_set_is_pinned() {
    let h = HaloScenario::cube2(1);
    let eval = SimEvaluator::new(&h.space, &h.workload, &h.platform, bench());
    let strategy = Strategy::Mcts {
        iterations: 300,
        config: MctsConfig {
            seed: 1,
            ..Default::default()
        },
    };
    let (records, _, stats) = explore_instrumented(&h.space, eval, strategy).unwrap();
    assert_eq!(records.len(), 300);
    assert_eq!(
        format!("{:016x}", records_fingerprint(&records)),
        "439d6886db06b6e5"
    );
    assert_eq!(
        stats_pin(&stats.unwrap()),
        "5768 runs, 1384880 instructions, json b0d606b68fb8214b"
    );
}

#[test]
fn halo_four_thread_mcts_record_set_is_pinned() {
    // A partial budget at batch width 4: the trajectory depends on the
    // selection rule under virtual loss, so this pins the rule itself.
    let h = HaloScenario::cube2(1);
    let strategy = Strategy::Mcts {
        iterations: 300,
        config: MctsConfig {
            seed: 1,
            ..Default::default()
        },
    };
    let out = explore_parallel(
        &h.space,
        || SimEvaluator::new(&h.space, &h.workload, &h.platform, bench()),
        strategy,
        &ExploreCtx::new(4),
    )
    .unwrap();
    assert_eq!(out.records.len(), 300);
    assert_eq!(
        format!("{:016x}", records_fingerprint(&out.records)),
        "bef9343aaec36e8b"
    );
    assert_eq!(out.cache.hits, 0);
}

#[test]
fn halo_benchmark_under_light_faults_is_pinned() {
    let (prog, platform) = halo_program();
    let faulted = platform.with_faults(FaultPlan::derive(&FaultConfig::light(), 5));
    assert_eq!(
        bench_pin(&prog, &faulted, 5),
        "BenchResult { measurements: [0.0006197647152084401, \
         0.0006228227863517465, 0.0006202601369443542, 0.0006258865541443274, \
         0.000632145793017485, 0.0006267945488810617, 0.0006203043965827544, \
         0.006243771403839388, 0.0006225190561353735], \
         percentiles: Percentiles { p01: 0.0006198043489473132, \
         p10: 0.0006201610525971713, p50: 0.0006228227863517465, \
         p90: 0.0017544709151818666, p99: 0.005794841354973635 } }\n{\"runs\":18,\
         \"instructions\":3888,\"eager_msgs\":0,\"rendezvous_msgs\":432,\
         \"bytes_moved\":127401984,\"collective_ops\":0,\"sync_cer\":432,\
         \"sync_ces\":432,\"sync_cswe\":0,\"faults\":{\"stragglers\":0,\
         \"delays\":0,\"drops\":0,\"spikes\":0,\"outliers\":1},\
         \"cpu_busy\":[0.011127770080555823,0.011072365735898902,\
         0.011076688432508572,0.011087478270918008,0.011156569771281823,\
         0.011073201461404947,0.011103172771152046,0.011115436590130479],\
         \"stream_busy\":[[0.00971709764539372],[0.009678529483451822],\
         [0.009619353601981363],[0.009667837392749212],[0.009753211874915266],\
         [0.00965162763135269],[0.009697697125459629],[0.0097279608007696]]}"
    );
}

#[test]
fn halo_benchmark_under_heavy_faults_is_pinned() {
    let (prog, platform) = halo_program();
    let faulted = platform.with_faults(FaultPlan::derive(&FaultConfig::heavy(), 8));
    assert_eq!(
        bench_pin(&prog, &faulted, 8),
        "BenchResult { measurements: [0.004653883530231241, \
         0.004387016903539253, 0.004532027181240413, 0.004533127797138585, \
         0.004620566395553324, 0.004467150699026849, 0.2309208603966414, \
         0.22515348232774088, 0.0044731132613866605], \
         percentiles: Percentiles { p01: 0.00439342760717826, \
         p10: 0.00445112393992933, p50: 0.004533127797138585, \
         p90: 0.22630695794152098, p99: 0.23045947015112936 } }\n{\"runs\":9,\
         \"instructions\":1944,\"eager_msgs\":0,\"rendezvous_msgs\":216,\
         \"bytes_moved\":63700992,\"collective_ops\":0,\"sync_cer\":216,\
         \"sync_ces\":216,\"sync_cswe\":0,\"faults\":{\"stragglers\":216,\
         \"delays\":27,\"drops\":0,\"spikes\":90,\"outliers\":2},\
         \"cpu_busy\":[0.018385209876233717,0.039649777595974815,\
         0.03952283745630136,0.04078837262260397,0.01847879656443835,\
         0.01935935947602418,0.017342719035177624,0.03977758979696189],\
         \"stream_busy\":[[0.016856729908368825],[0.005290278518396142],\
         [0.004848336694441693],[0.04010373034716555],[0.013294403105339872],\
         [0.013352125444016504],[0.0053146152736818966],[0.00579850674959683]]}"
    );
    // The memoized protocol under the same plan: position-keyed noise
    // cells instead of a sequential generator.
    let (result, stats) =
        benchmark_memo_instrumented(&prog, &faulted, &bench(), &mut SimMemo::default()).unwrap();
    assert_eq!(
        format!("{result:?}\n{}", stats.to_json()),
        "BenchResult { measurements: [0.004426146296265804, \
         0.004447289379890096, 0.004378167011360586, 0.004547675531674334, \
         0.00446072870654592, 0.004402028748883812, 0.22449549260553292, \
         0.22852115305035678, 0.004631618718781064], \
         percentiles: Percentiles { p01: 0.004380075950362444, \
         p10: 0.004397256401379167, p50: 0.00446072870654592, \
         p90: 0.2253006246944977, p99: 0.22819910021477088 } }\n{\"runs\":9,\
         \"instructions\":1944,\"eager_msgs\":0,\"rendezvous_msgs\":216,\
         \"bytes_moved\":63700992,\"collective_ops\":0,\"sync_cer\":216,\
         \"sync_ces\":216,\"sync_cswe\":0,\"faults\":{\"stragglers\":216,\
         \"delays\":27,\"drops\":0,\"spikes\":90,\"outliers\":2},\
         \"cpu_busy\":[0.018480177393285297,0.03920930732586976,\
         0.039085365521807636,0.04035398730651941,0.018536357602790113,\
         0.01939914327092583,0.01739948319186228,0.03934341256576725],\
         \"stream_busy\":[[0.017161191960403204],[0.005307276363227201],\
         [0.004812708612292016],[0.03966677425400197],[0.01334516282979147],\
         [0.01324238206138071],[0.0053063877741151184],[0.005795110794105659]]}"
    );
}

#[test]
fn halo_benchmark_under_a_drop_plan_is_pinned() {
    let (prog, platform) = halo_program();
    let faulted = platform.with_faults(FaultPlan::derive(&FaultConfig::drops(), 11));
    assert_eq!(
        bench_pin(&prog, &faulted, 11),
        "error: deadlock: rank 1 at WaitRecv-y; rank 3 at WaitSend-y; rank 5 at WaitRecv-y; rank 7 at WaitSend-y"
    );
}

#[test]
fn budget_errors_are_pinned() {
    let (prog, platform) = halo_program();
    let steps = platform.clone().with_budget(40, 0.0);
    assert_eq!(
        bench_pin(&prog, &steps, 1),
        "error: execution budget exhausted after 40 steps: step limit 40 reached"
    );
    let vt = platform.with_budget(0, 2e-5);
    assert_eq!(
        bench_pin(&prog, &vt, 1),
        "error: execution budget exhausted after 127 steps: virtual time 0.000619s exceeds limit 0.000020s"
    );
}

/// A two-rank exchange lowered by hand, in an order no DAG would
/// produce.
fn exchange(order: &[&str], bytes: u64) -> CompiledProgram {
    let key = CommKey::new("x");
    let items = order
        .iter()
        .map(|&name| ScheduledItem {
            name: name.to_string(),
            action: match name {
                "work" => ScheduleAction::CpuWork(CostKey::new("work")),
                "PostSends" => ScheduleAction::PostSends(key.clone()),
                "PostRecvs" => ScheduleAction::PostRecvs(key.clone()),
                "WaitSends" => ScheduleAction::WaitSends(key.clone()),
                "WaitRecvs" => ScheduleAction::WaitRecvs(key.clone()),
                other => panic!("unknown item {other}"),
            },
            source: None,
        })
        .collect();
    let schedule = Schedule {
        items,
        num_events: 0,
        num_streams: 1,
    };
    let mut w = TableWorkload::new(2);
    w.cost_all("work", 1e-5);
    for r in 0..2 {
        w.comm_on(
            r,
            "x",
            CommPattern {
                sends: vec![(1 - r, bytes)],
                recvs: vec![(1 - r, bytes)],
            },
        );
    }
    CompiledProgram::compile(&schedule, &w).unwrap()
}

#[test]
fn deadlock_and_wait_before_post_errors_are_pinned() {
    let platform = Platform::perlmutter_like();
    let mut rng = SmallRng::seed_from_u64(1);
    // Rendezvous sends waited on before any rank posts its receives.
    let deadlock = exchange(
        &["work", "PostSends", "WaitSends", "PostRecvs", "WaitRecvs"],
        1 << 20,
    );
    assert_eq!(
        execute(&deadlock, &platform, &mut rng)
            .unwrap_err()
            .to_string(),
        "deadlock: rank 0 at WaitSends; rank 1 at WaitSends"
    );
    // A receive wait with no receive posted on the same rank.
    let early = exchange(
        &["work", "PostSends", "WaitRecvs", "PostRecvs", "WaitSends"],
        64,
    );
    assert_eq!(
        execute(&early, &platform, &mut rng)
            .unwrap_err()
            .to_string(),
        "rank 0: WaitRecvs executed before its matching post"
    );
}

#[test]
fn traced_spmv_execution_is_pinned() {
    let sc = SpmvScenario::small(1);
    let t = sc
        .space
        .enumerate()
        .nth(37)
        .expect("space has 1600 traversals");
    let prog = CompiledProgram::compile(&build_schedule(&sc.space, &t), &sc.workload).unwrap();
    let (outcome, trace) =
        execute_traced(&prog, &sc.platform, &mut SmallRng::seed_from_u64(1)).unwrap();
    let words = trace.events.iter().flat_map(|e| {
        let res = match e.resource {
            Resource::Cpu => 0,
            Resource::Stream(s) => 1 + s as u64,
        };
        let name = fnv(e.name.bytes().map(u64::from));
        [e.rank as u64, name, res, e.start.to_bits(), e.end.to_bits()]
    });
    assert_eq!(trace.events.len(), 68);
    assert_eq!(format!("{:016x}", fnv(words)), "d67144e7fd96affa");
    assert_eq!(
        format!("{:?}", outcome.rank_times),
        "[3.663269472302578e-5, 3.679914824891367e-5, 3.822541157630549e-5, 3.818058932503102e-5]"
    );
}
