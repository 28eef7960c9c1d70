//! End-to-end pipeline benchmark: runs the full explore→label→
//! featurize→train pipeline on the SpMV scenario once per search
//! strategy (exhaustive, MCTS, random), reports per-phase wall-clock
//! times and exploration throughput, and appends the measurements to
//! the `BENCH_pipeline.json` history (also written as a single-run
//! artifact into `DR_ARTIFACTS` when set).
//!
//! `DR_SCALE=small` runs on the scaled-down instance; `DR_SEED`
//! overrides the master seed. The measurement protocol lives in
//! [`dr_bench::harness::pipeline_report`], shared with the
//! `dr-rules <scenario> bench` subcommand, so entries appended here and
//! there are directly comparable.

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let report = dr_bench::harness::pipeline_report(
        dr_bench::scale(),
        dr_bench::seed(),
        &dr_core::PipelineConfig::quick(),
        &mut std::io::stdout(),
    )?;
    let entries = dr_bench::append_history(
        std::path::Path::new("BENCH_pipeline.json"),
        "pipeline",
        &report,
    )?;
    println!("appended to BENCH_pipeline.json ({entries} entries)");
    dr_bench::write_artifact("BENCH_pipeline.json", &report);
    Ok(())
}
