//! `spawn` mode: run one command and report its wall time and peak RSS.
//!
//! The runner (`run.py`) is a Python process of ~20 MB. A child it forks
//! keeps the runner's resident set in its peak-RSS counter (`ru_maxrss`
//! keeps the high-water mark from before `exec`), which would hide
//! `dr-rules`' own ~6 MB. This small process launches the command instead, so
//! `RUSAGE_CHILDREN` reports the command's peak, or that of a child it
//! reaped, such as a swarm worker.

use cuda_mpi_design_rules::obs::json::number;
use std::os::unix::process::ExitStatusExt;
use std::process::Command;
use std::time::Instant;

/// Linux `struct rusage`: two `timeval`s, then 14 `long`s, `ru_maxrss`
/// (KiB) first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set, in KiB, of the largest child this process reaped.
fn children_maxrss_kib() -> Result<i64, String> {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // `struct rusage` on 64-bit Linux (repr(C), 18 eight-byte fields), and
    // `RUSAGE_CHILDREN` is a valid `who`; the call writes only into it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err(format!(
            "getrusage failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(usage.maxrss)
}

/// Runs `argv` with inherited stdio, writes
/// `{"code", "wall_s", "maxrss_kib"}` to `report`, and returns the
/// command's exit code (128 + signal when a signal ended it).
pub fn spawn(report: &str, argv: &[String]) -> Result<i32, String> {
    let (prog, args) = argv.split_first().ok_or("spawn needs a command")?;
    let t0 = Instant::now();
    let status = Command::new(prog)
        .args(args)
        .status()
        .map_err(|e| format!("cannot run {prog}: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let code = status
        .code()
        .unwrap_or_else(|| 128 + status.signal().unwrap_or(0));
    let json = format!(
        "{{\"code\":{code},\"wall_s\":{},\"maxrss_kib\":{}}}\n",
        number(wall_s),
        children_maxrss_kib()?
    );
    std::fs::write(report, json).map_err(|e| format!("cannot write {report}: {e}"))?;
    Ok(code)
}
