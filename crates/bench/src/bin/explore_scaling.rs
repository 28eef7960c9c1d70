//! Thread-scaling benchmark of the parallel exploration engine: times
//! the exhaustive sweep of the canonical SpMV space at 1/2/4/8 worker
//! threads plus a 4-thread MCTS leg (whose cache counters
//! are the tree's repeat accounting), verifies every leg reproduces the
//! serial record set,
//! and appends the measurements to the `BENCH_explore.json` history.
//!
//! `DR_SCALE=small` runs on the scaled-down instance; `DR_SEED`
//! overrides the master seed. Honest-measurement note: the JSON records
//! `available_parallelism` alongside the speedups — on a single-CPU
//! container the engine cannot (and does not pretend to) run faster
//! than serial. The measurement protocol lives in
//! [`dr_bench::harness::explore_report`], shared with the
//! `dr-rules <scenario> bench` subcommand.

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let report = dr_bench::harness::explore_report(
        dr_bench::scale(),
        dr_bench::seed(),
        &mut std::io::stdout(),
    )?;
    let entries = dr_bench::append_history(
        std::path::Path::new("BENCH_explore.json"),
        "explore",
        &report,
    )?;
    println!("appended to BENCH_explore.json ({entries} entries)");
    dr_bench::write_artifact("BENCH_explore.json", &report);
    Ok(())
}
