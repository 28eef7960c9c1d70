//! Property tests on the command-line parser: `cli::parse` never panics,
//! whatever argv it is given, every rejection says why, and any argv
//! built from the documented vocabulary with valid values is accepted.

use cuda_mpi_design_rules::cli::parse;
use proptest::prelude::*;

const SCENARIOS: &[&str] = &["spmv", "spmv-paper", "spmv-fine", "halo"];

const COMMANDS: &[&str] = &[
    "info",
    "explore",
    "rules",
    "synthesize",
    "timeline",
    "lint",
    "chaos",
    "compare",
    "explain",
    "bench",
    "verify-rules",
    "merge",
    "swarm",
    "runs",
];

const FLAGS: &[&str] = &[
    "--iterations",
    "--seed",
    "--random",
    "--threads",
    "--report",
    "--telemetry",
    "--max-schedules",
    "--plans",
    "--trace",
    "--ledger",
    "--threshold",
    "--abs-floor-ms",
    "--noise-k",
    "--progress",
    "--events",
    "--store",
    "--shard",
    "--workers",
    "--fleet-events",
    "--metrics-text",
    "--git",
];

/// Values a user might mistype: empty, non-numeric, negative, zero,
/// overflowing, non-finite, malformed shards and stray dashes.
const JUNK: &[&str] = &[
    "",
    " ",
    "nan",
    "NaN",
    "inf",
    "-inf",
    "-1",
    "-0",
    "0",
    "1",
    "2",
    "0.5",
    "1e309",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999",
    "0/0",
    "1/0",
    "3/2",
    "0/3",
    "a/b",
    "/",
    "-",
    "--",
    "--bogus",
    "list",
    "show",
    "diff",
    "out.json",
    "é",
];

/// A token from one of the four pools (`pool % 4`), picked by `i`.
fn token(pool: usize, i: usize) -> String {
    let p = [SCENARIOS, COMMANDS, FLAGS, JUNK][pool % 4];
    p[i % p.len()].to_string()
}

/// A valid value for `flag`, derived from `v`.
fn value(flag: &str, v: u64) -> Option<String> {
    Some(match flag {
        "--random" | "--progress" => return None,
        "--iterations" => (1 + v % 100_000).to_string(),
        "--seed" => v.to_string(),
        "--threads" => (1 + v % 64).to_string(),
        "--max-schedules" => (v % 100_000).to_string(),
        "--plans" => (2 + v % 100).to_string(),
        "--workers" => (1 + v % 16).to_string(),
        "--threshold" | "--abs-floor-ms" | "--noise-k" => ((v % 10_000) as f64 / 100.0).to_string(),
        "--shard" => {
            let n = 1 + (v >> 8) % 8;
            format!("{}/{n}", v % n)
        }
        "--git" => "v0.1".to_string(),
        _ => format!("out/{v}"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics_and_every_error_says_why(
        scenario in 0usize..=SCENARIOS.len(),
        command in 0usize..=COMMANDS.len(),
        tail in proptest::collection::vec((0usize..4, 0usize..64), 0..10),
    ) {
        // A valid prefix (past the end: omitted) reaches the flag loop,
        // which arbitrary tokens alone rarely would.
        let mut argv: Vec<String> = Vec::new();
        argv.extend(SCENARIOS.get(scenario).map(|s| s.to_string()));
        argv.extend(COMMANDS.get(command).map(|s| s.to_string()));
        argv.extend(tail.iter().map(|&(pool, i)| token(pool, i)));
        if let Err(msg) = parse(&argv) {
            prop_assert!(!msg.trim().is_empty(), "empty error for {:?}", argv);
        }
    }

    #[test]
    fn argv_from_valid_vocabulary_parses(
        scenario in 0usize..SCENARIOS.len(),
        command in 0usize..COMMANDS.len(),
        omit_explore in any::<bool>(),
        flags in proptest::collection::vec((0usize..64, any::<u64>()), 0..8),
    ) {
        let cmd = COMMANDS[command];
        let mut rest: Vec<String> = Vec::new();
        for &(f, v) in &flags {
            let flag = FLAGS[f % FLAGS.len()];
            // Flags restricted to one command are only drawn for it.
            if (flag == "--shard" && cmd != "explore") || (flag == "--fleet-events" && cmd != "swarm") {
                continue;
            }
            rest.push(flag.to_string());
            rest.extend(value(flag, v));
        }
        let has = |flag: &str| rest.iter().any(|a| a == flag);
        if (cmd == "swarm" || has("--shard")) && !has("--store") {
            rest.extend(["--store".to_string(), "store".to_string()]);
        }
        let mut argv = vec![SCENARIOS[scenario].to_string()];
        // `explore` may be omitted when a flag follows the scenario.
        if !(cmd == "explore" && omit_explore && !rest.is_empty()) {
            argv.push(cmd.to_string());
        }
        match cmd {
            "compare" => argv.extend(["a.jsonl".to_string(), "b.jsonl".to_string()]),
            "merge" => argv.push("shards".to_string()),
            "runs" => argv.extend(match flags.len() % 3 {
                0 => vec!["list".to_string()],
                1 => vec!["show".to_string(), "0".to_string()],
                _ => vec!["diff".to_string(), "0".to_string(), "1".to_string()],
            }),
            _ => {}
        }
        argv.extend(rest);
        match parse(&argv) {
            Ok(opts) => prop_assert_eq!(opts.scenario.name(), SCENARIOS[scenario]),
            Err(e) => prop_assert!(false, "{:?} rejected: {}", argv, e),
        }
    }
}
