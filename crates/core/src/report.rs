//! Run reports: one aggregated observability artifact per pipeline run.
//!
//! A [`RunReport`] collects everything the instrumented pipeline
//! observed — wall-clock phase timings (explore → label → featurize →
//! train → rules), accumulated simulator statistics, the search's final
//! telemetry row, and the mined-rule summary — rendered either as
//! human-readable text or as a single JSON object for downstream
//! tooling.

use crate::pipeline::{PipelineConfig, PipelineResult};
use dr_mcts::{SearchTelemetry, TreeStats};
use dr_obs::{json, Phases};
use dr_sim::SimStats;
use std::sync::OnceLock;

/// Identity of one pipeline run: who produced this artifact, from which
/// source tree, and when. Reports and ledger entries carry it so runs
/// can be compared across machines and commits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Run identifier: the caller's (the CLI resolves `DR_RUN_ID`), or a
    /// generated `run-<unix>-<nanos>-<pid>` value.
    pub run_id: String,
    /// `git describe --always --dirty` of the working tree (`unknown`
    /// when git or the repository is unavailable).
    pub git: String,
    /// Capture time, seconds since the Unix epoch.
    pub created_unix: u64,
}

impl Provenance {
    /// Captures the current run's identity under `run_id`, generating one
    /// when `None`. The git description is resolved once per process (it
    /// forks `git`).
    pub fn capture(run_id: Option<&str>) -> Self {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap_or_default();
        let created_unix = now.as_secs();
        let run_id = run_id.map(str::to_string).unwrap_or_else(|| {
            format!(
                "run-{created_unix}-{}-{}",
                now.subsec_nanos(),
                std::process::id()
            )
        });
        Provenance {
            run_id,
            git: git_describe(),
            created_unix,
        }
    }

    /// Renders the provenance as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"run_id\":\"{}\",\"git\":\"{}\",\"created_unix\":{}}}",
            json::escape(&self.run_id),
            json::escape(&self.git),
            self.created_unix
        )
    }
}

/// `git describe --always --dirty`, resolved once per process.
fn git_describe() -> String {
    static GIT: OnceLock<String> = OnceLock::new();
    GIT.get_or_init(|| {
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
    .clone()
}

/// The search's final state, condensed from its telemetry history.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSummary {
    /// Strategy name (`exhaustive`, `mcts`, or `random`).
    pub strategy: String,
    /// Iterations executed.
    pub iterations: u64,
    /// Distinct traversals benchmarked.
    pub unique_traversals: usize,
    /// Fastest measured time (seconds).
    pub best_time: f64,
    /// Slowest measured time (seconds).
    pub worst_time: f64,
    /// Materialized tree nodes (0 for tree-less strategies).
    pub tree_nodes: usize,
    /// Deepest materialized tree node.
    pub max_depth: usize,
    /// Final tree statistics straight from the search engine (`None`
    /// for tree-less strategies). Unlike `tree_nodes`/`max_depth` —
    /// which come from the last telemetry row — these are taken after
    /// the search finished.
    pub tree: Option<TreeStats>,
    /// Whether the run provably covered the whole design space.
    pub exhausted: bool,
}

impl SearchSummary {
    /// Condenses a telemetry history into its final state. Callers that
    /// have the engine's final [`TreeStats`] should attach them via
    /// [`SearchSummary::with_tree`].
    pub fn from_telemetry(strategy: &str, telemetry: &SearchTelemetry) -> Self {
        let last = telemetry.last();
        SearchSummary {
            strategy: strategy.to_string(),
            iterations: last.map_or(0, |r| r.iteration),
            unique_traversals: last.map_or(0, |r| r.unique_traversals),
            best_time: last.map_or(f64::NAN, |r| r.best_time),
            worst_time: last.map_or(f64::NAN, |r| r.worst_time),
            tree_nodes: last.map_or(0, |r| r.tree_nodes),
            max_depth: last.map_or(0, |r| r.max_depth),
            tree: None,
            exhausted: false,
        }
    }

    /// Attaches the engine's final tree statistics and exhaustion
    /// verdict; when present, the merged counts supersede the
    /// worker-local `tree_nodes`/`max_depth` telemetry values.
    pub fn with_tree(mut self, tree: Option<TreeStats>, exhausted: bool) -> Self {
        if let Some(t) = &tree {
            self.tree_nodes = t.nodes;
            self.max_depth = t.max_depth;
        }
        self.tree = tree;
        self.exhausted = exhausted;
        self
    }

    pub(crate) fn to_json(&self) -> String {
        let tree = self.tree.map_or("null".to_string(), |t| {
            format!(
                concat!(
                    "{{\"nodes\":{},\"max_depth\":{},\"fully_explored\":{},",
                    "\"rollouts\":{},\"t_min\":{},\"t_max\":{}}}"
                ),
                t.nodes,
                t.max_depth,
                t.fully_explored,
                t.rollouts,
                json::number(t.t_min),
                json::number(t.t_max)
            )
        });
        format!(
            concat!(
                "{{\"strategy\":\"{}\",\"iterations\":{},\"unique_traversals\":{},",
                "\"best_time\":{},\"worst_time\":{},\"tree_nodes\":{},\"max_depth\":{},",
                "\"tree\":{},\"exhausted\":{}}}"
            ),
            json::escape(&self.strategy),
            self.iterations,
            self.unique_traversals,
            json::number(self.best_time),
            json::number(self.worst_time),
            self.tree_nodes,
            self.max_depth,
            tree,
            self.exhausted
        )
    }
}

/// Aggregate resilience counters of one chaos run (absent unless fault
/// injection was active).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilienceSummary {
    /// Benchmark attempts under the fault plan (including retries).
    pub evaluations: u64,
    /// Reseeded retry attempts after a failed evaluation.
    pub retries: u64,
    /// Fault-induced deadlocks absorbed by the retry layer.
    pub deadlocks: u64,
    /// Watchdog budget terminations absorbed by the retry layer.
    pub budget_kills: u64,
    /// Panics caught and converted to structured errors.
    pub panics: u64,
    /// Traversals dropped after exhausting their retry budget.
    pub quarantined: u64,
    /// Total milliseconds of capped-exponential retry backoff. The
    /// delays are derived deterministically from evaluation seeds, so
    /// this total is reproducible and comparable across runs.
    pub retry_delay_ms: u64,
}

impl ResilienceSummary {
    pub(crate) fn to_json(self) -> String {
        format!(
            concat!(
                "{{\"evaluations\":{},\"retries\":{},\"deadlocks\":{},",
                "\"budget_kills\":{},\"panics\":{},\"quarantined\":{},",
                "\"retry_delay_ms\":{}}}"
            ),
            self.evaluations,
            self.retries,
            self.deadlocks,
            self.budget_kills,
            self.panics,
            self.quarantined,
            self.retry_delay_ms
        )
    }
}

/// Mined-rule outcomes worth reporting alongside the run.
#[derive(Debug, Clone, PartialEq)]
pub struct MiningSummary {
    /// Performance classes found by labeling.
    pub num_classes: usize,
    /// Decision-tree training error (0 = perfect).
    pub tree_error: f64,
    /// Rulesets extracted (decision-tree leaves).
    pub num_rulesets: usize,
}

/// One pipeline run's aggregated observability artifact.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Identity of the run (run id, git description, capture time).
    pub provenance: Provenance,
    /// The resolved configuration the run executed under.
    pub config: PipelineConfig,
    /// Wall-clock seconds per pipeline phase.
    pub phases: Phases,
    /// Simulator statistics summed across every benchmark sample of the
    /// exploration (absent when the evaluator did not run the
    /// simulator).
    pub sim: Option<SimStats>,
    /// Final search state.
    pub search: SearchSummary,
    /// Mined-rule outcomes.
    pub mining: MiningSummary,
    /// Resilience counters (absent unless fault injection was active).
    pub resilience: Option<ResilienceSummary>,
}

impl RunReport {
    /// Assembles a report from the instrumented pipeline's pieces.
    pub fn new(
        phases: Phases,
        sim: Option<SimStats>,
        search: SearchSummary,
        result: &PipelineResult,
        config: &PipelineConfig,
    ) -> Self {
        RunReport {
            provenance: Provenance::capture(None),
            config: *config,
            phases,
            sim,
            search,
            mining: MiningSummary {
                num_classes: result.labeling.num_classes,
                tree_error: result.search.error,
                num_rulesets: result.rulesets.len(),
            },
            resilience: None,
        }
    }

    /// The run's configuration block (also a ledger entry's `config`):
    /// whether fault injection engaged, then the resolved settings that
    /// can change the run.
    pub fn config_json(&self) -> String {
        let c = &self.config;
        format!(
            "{{\"faults_active\":{},\"threads\":{},\"faults\":\"{}\",\
             \"retry\":{{\"max_retries\":{},\"backoff_base_ms\":{},\"backoff_cap_ms\":{}}},\
             \"events_rate\":{},\"heartbeat_ms\":{}}}",
            self.resilience.is_some(),
            c.threads.max(1),
            json::escape(&c.faults.to_string()),
            c.retry.max_retries,
            c.retry.backoff_base_ms,
            c.retry.backoff_cap_ms(),
            c.events_rate,
            c.heartbeat_ms
        )
    }

    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"provenance\":{},\"config\":{},\"phases\":{},\"sim\":{},\"search\":{},\"mining\":{{\"num_classes\":{},\"tree_error\":{},\"num_rulesets\":{}}},\"resilience\":{}}}",
            self.provenance.to_json(),
            self.config_json(),
            self.phases.to_json(),
            self.sim.as_ref().map_or("null".to_string(), |s| s.to_json()),
            self.search.to_json(),
            self.mining.num_classes,
            json::number(self.mining.tree_error),
            self.mining.num_rulesets,
            self.resilience
                .map_or("null".to_string(), |r| r.to_json())
        )
    }

    /// Renders the report as human-readable text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "run: {} (git {})\n",
            self.provenance.run_id, self.provenance.git
        ));
        out.push_str("phases:\n");
        out.push_str(&self.phases.render_text());
        out.push_str(&format!(
            "search: {} — {} iterations, {} unique traversals\n",
            self.search.strategy, self.search.iterations, self.search.unique_traversals
        ));
        out.push_str(&format!(
            "  time range {:.1} µs .. {:.1} µs, tree {} nodes (depth {})\n",
            self.search.best_time * 1e6,
            self.search.worst_time * 1e6,
            self.search.tree_nodes,
            self.search.max_depth
        ));
        if let Some(t) = &self.search.tree {
            out.push_str(&format!(
                "  tree: {} rollouts, {} fully explored nodes, space {}\n",
                t.rollouts,
                t.fully_explored,
                if self.search.exhausted {
                    "exhausted"
                } else {
                    "not exhausted"
                }
            ));
        }
        if let Some(sim) = &self.sim {
            out.push_str(&format!(
                "simulator: {} runs, {} instructions, {} eager / {} rendezvous msgs, {} bytes\n",
                sim.runs, sim.instructions, sim.eager_msgs, sim.rendezvous_msgs, sim.bytes_moved
            ));
            out.push_str(&format!(
                "  sync ops: {} CER, {} CES, {} CSWE; {} collective\n",
                sim.sync_cer, sim.sync_ces, sim.sync_cswe, sim.collective_ops
            ));
        }
        if let Some(r) = &self.resilience {
            out.push_str(&format!(
                "resilience: {} evaluations ({} retries, {} ms backoff) — \
                 {} deadlocks, {} budget kills, {} panics, {} quarantined\n",
                r.evaluations,
                r.retries,
                r.retry_delay_ms,
                r.deadlocks,
                r.budget_kills,
                r.panics,
                r.quarantined
            ));
        }
        out.push_str(&format!(
            "mining: {} classes, tree error {:.4}, {} rulesets\n",
            self.mining.num_classes, self.mining.tree_error, self.mining.num_rulesets
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_mcts::TelemetryRow;

    fn telemetry() -> SearchTelemetry {
        let mut t = SearchTelemetry::new();
        t.push(TelemetryRow {
            iteration: 4,
            unique_traversals: 3,
            best_time: 1e-4,
            worst_time: 4e-4,
            tree_nodes: 9,
            max_depth: 3,
            rollout_len: 2,
        });
        t
    }

    #[test]
    fn summary_condenses_last_row() {
        let s = SearchSummary::from_telemetry("mcts", &telemetry());
        assert_eq!(s.strategy, "mcts");
        assert_eq!(s.iterations, 4);
        assert_eq!(s.unique_traversals, 3);
        assert_eq!(s.tree_nodes, 9);
    }

    #[test]
    fn empty_telemetry_yields_zeroed_summary() {
        let s = SearchSummary::from_telemetry("random", &SearchTelemetry::new());
        assert_eq!(s.iterations, 0);
        assert!(s.best_time.is_nan());
    }

    #[test]
    fn provenance_is_valid_json_with_a_run_id() {
        let p = Provenance::capture(None);
        assert!(!p.run_id.is_empty());
        assert_eq!(Provenance::capture(Some("ci-7")).run_id, "ci-7");
        assert!(!p.git.is_empty());
        let js = p.to_json();
        json::validate(&js).expect("provenance JSON validates");
        let v = json::parse(&js).expect("provenance JSON parses");
        assert!(v.path(&["run_id"]).and_then(|r| r.as_str()).is_some());
        assert!(v.path(&["created_unix"]).and_then(|c| c.as_u64()).is_some());
    }
}
