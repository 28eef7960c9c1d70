//! Run configuration, resolved once per process. Every `DR_*` variable
//! the `dr-rules` driver honours is read here, from an explicit map,
//! and nowhere else: the library crates receive the resolved values in
//! a [`PipelineConfig`] and read no environment. A flag that shadows a
//! variable (`--threads`, `--ledger`) wins over it. An empty variable
//! means unset; any other value that does not parse, or falls below the
//! variable's minimum, is a usage error naming the variable.

use crate::pipeline::{PipelineConfig, RetrySchedule};
use crate::sim::FaultConfig;
use std::collections::HashMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

/// Environment variables by name.
pub type Env = HashMap<String, String>;

/// The process environment's `DR_*` variables, for [`resolve`].
#[allow(
    clippy::disallowed_methods,
    reason = "the resolver is the one environment read"
)]
pub fn process_env() -> Env {
    std::env::vars_os()
        .filter_map(|(k, v)| {
            let k = k.into_string().ok().filter(|k| k.starts_with("DR_"))?;
            Some((k, v.to_string_lossy().into_owned()))
        })
        .collect()
}

/// Everything a run depends on besides its command-line flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Settings {
    /// The pipeline configuration: threads, faults, retry schedule,
    /// event sampling and heartbeat cadence resolved, on the quick
    /// measurement protocol.
    pub pipeline: PipelineConfig,
    /// Ledger directory (`--ledger`, else `DR_LEDGER`).
    pub ledger: Option<PathBuf>,
    /// Run id pinned by `DR_RUN_ID` (the swarm pins each worker's).
    pub run_id: Option<String>,
    /// Swarm: heartbeat silence after which a worker is SIGKILLed, in
    /// milliseconds (`DR_SWARM_STALL_MS`, default 10000, minimum 100).
    pub swarm_stall_ms: u64,
    /// Swarm: spawn attempts per shard before quarantine
    /// (`DR_SWARM_MAX_ATTEMPTS`, default 3, minimum 1).
    pub swarm_max_attempts: usize,
    /// Swarm chaos lever: run only this shard's worker under these faults
    /// (`DR_SWARM_FAULT_SHARD` plus `DR_SWARM_FAULTS`; both must be set).
    pub swarm_fault_shard: Option<(usize, FaultConfig)>,
}

impl Default for Settings {
    /// The settings of an empty environment and no shadowing flags.
    fn default() -> Self {
        resolve(&Env::new(), None, None).expect("defaults resolve")
    }
}

/// Resolves the settings from `env`, with the `--threads` and
/// `--ledger` flag values overriding `DR_THREADS` and `DR_LEDGER`.
///
/// # Errors
/// A set variable whose value does not parse or is below its minimum.
pub fn resolve(
    env: &Env,
    threads: Option<usize>,
    ledger: Option<&str>,
) -> Result<Settings, String> {
    let base = PipelineConfig::quick();
    let retry = RetrySchedule::default();
    let env_threads = number(env, "DR_THREADS", 1)?;
    let pipeline = PipelineConfig {
        threads: threads.or(env_threads).unwrap_or(base.threads),
        faults: faults(env, "DR_FAULTS")?.unwrap_or(base.faults),
        retry: RetrySchedule {
            max_retries: number(env, "DR_RETRY_MAX", 0)?.unwrap_or(retry.max_retries),
            backoff_base_ms: number(env, "DR_RETRY_BACKOFF_MS", 0)?
                .unwrap_or(retry.backoff_base_ms),
        },
        events_rate: number(env, "DR_EVENTS_RATE", 1)?.unwrap_or(base.events_rate),
        heartbeat_ms: number(env, "DR_HEARTBEAT_MS", 10)?.unwrap_or(base.heartbeat_ms),
        ..base
    };
    let fault_shard = number(env, "DR_SWARM_FAULT_SHARD", 0)?;
    let shard_faults = faults(env, "DR_SWARM_FAULTS")?;
    Ok(Settings {
        pipeline,
        ledger: ledger.or(text(env, "DR_LEDGER")).map(PathBuf::from),
        run_id: text(env, "DR_RUN_ID").map(str::to_string),
        swarm_stall_ms: number(env, "DR_SWARM_STALL_MS", 100)?.unwrap_or(10_000),
        swarm_max_attempts: number(env, "DR_SWARM_MAX_ATTEMPTS", 1)?.unwrap_or(3),
        swarm_fault_shard: fault_shard.zip(shard_faults),
    })
}

/// `name`'s value, `None` when unset or empty.
fn text<'a>(env: &'a Env, name: &str) -> Option<&'a str> {
    env.get(name).map(|v| v.trim()).filter(|v| !v.is_empty())
}

/// `name`'s value as a whole number of at least `min`.
fn number<T: FromStr + PartialOrd + Display>(
    env: &Env,
    name: &str,
    min: T,
) -> Result<Option<T>, String> {
    let Some(raw) = text(env, name) else {
        return Ok(None);
    };
    match raw.parse::<T>() {
        Ok(v) if v >= min => Ok(Some(v)),
        _ => Err(format!(
            "invalid {name}={raw:?}: expected a whole number >= {min}"
        )),
    }
}

/// `name`'s value as a fault spec ([`FaultConfig::parse`]).
fn faults(env: &Env, name: &str) -> Result<Option<FaultConfig>, String> {
    text(env, name)
        .map(|raw| FaultConfig::parse(raw).map_err(|e| format!("invalid {name}={raw:?}: {e}")))
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&str, &str)]) -> Env {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn an_empty_environment_resolves_to_the_defaults() {
        let s = resolve(&Env::new(), None, None).unwrap();
        assert_eq!(s.pipeline, PipelineConfig::quick());
        assert_eq!(s.pipeline.threads, 1);
        assert!(!s.pipeline.faults.is_active());
        assert_eq!(s.ledger, None);
        assert_eq!(s.run_id, None);
        assert_eq!(s.swarm_stall_ms, 10_000);
        assert_eq!(s.swarm_max_attempts, 3);
        assert_eq!(s.swarm_fault_shard, None);
        assert_eq!(s, Settings::default());
    }

    #[test]
    fn variables_resolve_and_flags_win() {
        let e = env(&[
            ("DR_THREADS", "4"),
            ("DR_FAULTS", "heavy,seed=7"),
            ("DR_RETRY_MAX", "10"),
            ("DR_RETRY_BACKOFF_MS", " 50 "),
            ("DR_EVENTS_RATE", "2"),
            ("DR_HEARTBEAT_MS", "20"),
            ("DR_LEDGER", "runs"),
            ("DR_RUN_ID", "ci-1"),
            ("DR_SWARM_STALL_MS", "1000"),
            ("DR_SWARM_MAX_ATTEMPTS", "1"),
            ("DR_SWARM_FAULT_SHARD", "1"),
            ("DR_SWARM_FAULTS", "drop_prob=0.08"),
        ]);
        let s = resolve(&e, None, None).unwrap();
        let p = s.pipeline;
        assert_eq!(p.threads, 4);
        assert_eq!(p.faults, FaultConfig::heavy().with_seed(7));
        assert_eq!(
            p.retry,
            RetrySchedule {
                max_retries: 10,
                backoff_base_ms: 50
            }
        );
        assert_eq!((p.events_rate, p.heartbeat_ms), (2, 20));
        assert_eq!(s.ledger, Some(PathBuf::from("runs")));
        assert_eq!(s.run_id.as_deref(), Some("ci-1"));
        assert_eq!((s.swarm_stall_ms, s.swarm_max_attempts), (1000, 1));
        let (shard, faults) = s.swarm_fault_shard.unwrap();
        assert_eq!((shard, faults.drop_prob), (1, 0.08));
        let flagged = resolve(&e, Some(2), Some("elsewhere")).unwrap();
        assert_eq!(flagged.pipeline.threads, 2);
        assert_eq!(flagged.ledger, Some(PathBuf::from("elsewhere")));
    }

    #[test]
    fn empty_values_mean_unset() {
        let e = env(&[("DR_THREADS", ""), ("DR_FAULTS", " "), ("DR_LEDGER", "")]);
        assert_eq!(resolve(&e, None, None).unwrap(), Settings::default());
    }

    #[test]
    fn malformed_values_are_errors_naming_the_variable() {
        for (name, bad) in [
            ("DR_THREADS", "zero"),
            ("DR_THREADS", "0"),
            ("DR_THREADS", "-1"),
            ("DR_RETRY_MAX", "abc"),
            ("DR_RETRY_BACKOFF_MS", "1.5"),
            ("DR_EVENTS_RATE", "0"),
            ("DR_HEARTBEAT_MS", "abc"),
            ("DR_HEARTBEAT_MS", "5"),
            ("DR_SWARM_STALL_MS", "fast"),
            ("DR_SWARM_MAX_ATTEMPTS", "0"),
            ("DR_SWARM_FAULT_SHARD", "one"),
            ("DR_FAULTS", "bogus"),
            ("DR_SWARM_FAULTS", "drop_prob=-1"),
        ] {
            let err = resolve(&env(&[(name, bad)]), None, None).unwrap_err();
            assert!(err.contains(name), "{name}={bad}: {err}");
        }
        // A flag does not excuse a malformed variable it shadows.
        assert!(resolve(&env(&[("DR_THREADS", "zero")]), Some(2), None).is_err());
    }

    #[test]
    fn swarm_fault_targeting_needs_both_variables() {
        for e in [
            env(&[("DR_SWARM_FAULT_SHARD", "0")]),
            env(&[("DR_SWARM_FAULTS", "light")]),
        ] {
            assert_eq!(resolve(&e, None, None).unwrap().swarm_fault_shard, None);
        }
    }
}
