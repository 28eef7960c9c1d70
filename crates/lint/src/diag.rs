//! Diagnostics: stable rule codes, severities, reports, and aggregate
//! counters, rendered as human-readable text or JSON.

use dr_dag::OpId;
use std::collections::BTreeMap;
use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Pure-overhead or analysis-coverage findings; the schedule is still
    /// correct.
    Warning,
    /// The schedule is (or may be) incorrect: a race, a deadlock, or a
    /// malformed lowering.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable identifier of one lint rule.
///
/// Codes are grouped by analysis: `SCHED*` (schedule well-formedness),
/// `HB*` (happens-before verification), `MPI1*` (deadlock detection),
/// `RS*` (redundant synchronization). Codes never change meaning across
/// versions; new rules get new codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // each variant is documented via `description`
pub enum RuleCode {
    Sched001,
    Sched002,
    Sched003,
    Hb001,
    Hb002,
    Mpi101,
    Mpi102,
    Mpi103,
    Mpi104,
    Mpi105,
    Mpi106,
    Mpi107,
    Rs001,
    Rs002,
    Rs003,
    Rs004,
}

impl RuleCode {
    /// The stable textual code, e.g. `"HB001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleCode::Sched001 => "SCHED001",
            RuleCode::Sched002 => "SCHED002",
            RuleCode::Sched003 => "SCHED003",
            RuleCode::Hb001 => "HB001",
            RuleCode::Hb002 => "HB002",
            RuleCode::Mpi101 => "MPI101",
            RuleCode::Mpi102 => "MPI102",
            RuleCode::Mpi103 => "MPI103",
            RuleCode::Mpi104 => "MPI104",
            RuleCode::Mpi105 => "MPI105",
            RuleCode::Mpi106 => "MPI106",
            RuleCode::Mpi107 => "MPI107",
            RuleCode::Rs001 => "RS001",
            RuleCode::Rs002 => "RS002",
            RuleCode::Rs003 => "RS003",
            RuleCode::Rs004 => "RS004",
        }
    }

    /// One-line description of what the rule detects.
    pub fn description(self) -> &'static str {
        match self {
            RuleCode::Sched001 => "decision op missing from (or duplicated in) the schedule",
            RuleCode::Sched002 => "event or stream id out of the schedule's declared range",
            RuleCode::Sched003 => "traversal is not a valid completion of the decision space",
            RuleCode::Hb001 => "DAG dependency edge not covered by the happens-before order",
            RuleCode::Hb002 => "wait/sync references an event with no preceding record",
            RuleCode::Mpi101 => "blocking wait issued before its own matching post",
            RuleCode::Mpi102 => "asymmetric point-to-point pattern (unmatched message)",
            RuleCode::Mpi103 => "blocking wait whose matching remote post never appears",
            RuleCode::Mpi104 => "cross-rank deadlock: ranks blocked with no possible progress",
            RuleCode::Mpi105 => "comm key used both point-to-point and collectively",
            RuleCode::Mpi106 => "comm key without topology information (analysis skipped)",
            RuleCode::Mpi107 => "invalid collective pattern (need one send, no recvs per rank)",
            RuleCode::Rs001 => "StreamWaitEvent dominated by the existing partial order",
            RuleCode::Rs002 => "EventSync wholly dominated by the existing partial order",
            RuleCode::Rs003 => "redundant event within an otherwise-needed EventSync",
            RuleCode::Rs004 => "EventRecord never consumed by a wait or sync",
        }
    }

    /// The severity this rule always reports at.
    pub fn severity(self) -> Severity {
        match self {
            RuleCode::Sched001
            | RuleCode::Sched002
            | RuleCode::Sched003
            | RuleCode::Hb001
            | RuleCode::Hb002
            | RuleCode::Mpi101
            | RuleCode::Mpi102
            | RuleCode::Mpi103
            | RuleCode::Mpi104
            | RuleCode::Mpi105
            | RuleCode::Mpi107 => Severity::Error,
            RuleCode::Mpi106
            | RuleCode::Rs001
            | RuleCode::Rs002
            | RuleCode::Rs003
            | RuleCode::Rs004 => Severity::Warning,
        }
    }

    /// Whether the rule reports a happens-before race.
    pub fn is_race(self) -> bool {
        matches!(self, RuleCode::Hb001 | RuleCode::Hb002)
    }

    /// Whether the rule reports an MPI deadlock (as opposed to a merely
    /// malformed communication pattern).
    pub fn is_deadlock(self) -> bool {
        matches!(self, RuleCode::Mpi103 | RuleCode::Mpi104)
    }

    /// Whether the rule reports redundant synchronization.
    pub fn is_redundant_sync(self) -> bool {
        matches!(
            self,
            RuleCode::Rs001 | RuleCode::Rs002 | RuleCode::Rs003 | RuleCode::Rs004
        )
    }
}

impl fmt::Display for RuleCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One finding of one rule on one schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub code: RuleCode,
    /// Human-readable explanation, naming the offending items.
    pub message: String,
    /// Indices into `Schedule::items` of the offending instructions.
    pub items: Vec<usize>,
    /// Decision ops involved, when the items map back to ops.
    pub ops: Vec<OpId>,
}

impl Diagnostic {
    /// Creates a diagnostic with no item/op anchors.
    pub fn new(code: RuleCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            message: message.into(),
            items: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Anchors the diagnostic to schedule items.
    pub fn with_items(mut self, items: Vec<usize>) -> Self {
        self.items = items;
        self
    }

    /// Anchors the diagnostic to decision ops.
    pub fn with_ops(mut self, ops: Vec<OpId>) -> Self {
        self.ops = ops;
        self
    }

    /// The rule's severity.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Renders as `severity CODE: message [items ...]`.
    pub fn render(&self) -> String {
        let mut s = format!("{} {}: {}", self.severity(), self.code, self.message);
        if !self.items.is_empty() {
            s.push_str(&format!(" [items {:?}]", self.items));
        }
        s
    }

    fn to_json(&self) -> String {
        let items: Vec<String> = self.items.iter().map(|i| i.to_string()).collect();
        let ops: Vec<String> = self.ops.iter().map(|o| o.to_string()).collect();
        format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\"items\":[{}],\"ops\":[{}]}}",
            self.code,
            self.severity(),
            escape(&self.message),
            items.join(","),
            ops.join(",")
        )
    }
}

/// All findings of one lint pass over one schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// Every diagnostic, in analysis order (well-formedness, then
    /// happens-before, then MPI, then redundancy).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Wraps a diagnostic list.
    pub fn new(diagnostics: Vec<Diagnostic>) -> Self {
        LintReport { diagnostics }
    }

    /// Error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// Warning-severity diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
    }

    /// True when no error-severity diagnostic fired (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Whether any diagnostic carries the given code.
    pub fn has_code(&self, code: RuleCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Happens-before races reported.
    pub fn races(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.code.is_race()).count()
    }

    /// Deadlocks reported.
    pub fn deadlocks(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.code.is_deadlock())
            .count()
    }

    /// Redundant synchronizations reported.
    pub fn redundant_syncs(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.code.is_redundant_sync())
            .count()
    }

    /// Renders every diagnostic, one per line.
    pub fn render_text(&self) -> String {
        if self.diagnostics.is_empty() {
            return "clean: no diagnostics\n".to_string();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out
    }

    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> String {
        let diags: Vec<String> = self.diagnostics.iter().map(|d| d.to_json()).collect();
        format!(
            "{{\"errors\":{},\"warnings\":{},\"diagnostics\":[{}]}}",
            self.errors().count(),
            self.warnings().count(),
            diags.join(",")
        )
    }
}

/// Aggregate counters across many linted schedules (e.g. a whole
/// enumerated decision space, or every evaluation of a pipeline run).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintCounters {
    /// Schedules linted.
    pub schedules: u64,
    /// Error-severity diagnostics.
    pub errors: u64,
    /// Warning-severity diagnostics.
    pub warnings: u64,
    /// Happens-before races (`HB*`).
    pub races: u64,
    /// Deadlocks (`MPI103`/`MPI104`).
    pub deadlocks: u64,
    /// Redundant synchronizations (`RS*`).
    pub redundant_syncs: u64,
    /// Diagnostic count per rule code.
    pub by_code: BTreeMap<&'static str, u64>,
}

impl LintCounters {
    /// Folds one schedule's report into the counters.
    pub fn absorb(&mut self, report: &LintReport) {
        self.schedules += 1;
        self.errors += report.errors().count() as u64;
        self.warnings += report.warnings().count() as u64;
        self.races += report.races() as u64;
        self.deadlocks += report.deadlocks() as u64;
        self.redundant_syncs += report.redundant_syncs() as u64;
        for d in &report.diagnostics {
            *self.by_code.entry(d.code.as_str()).or_insert(0) += 1;
        }
    }

    /// Merges another counter set (e.g. from a parallel worker).
    pub fn merge(&mut self, other: &LintCounters) {
        self.schedules += other.schedules;
        self.errors += other.errors;
        self.warnings += other.warnings;
        self.races += other.races;
        self.deadlocks += other.deadlocks;
        self.redundant_syncs += other.redundant_syncs;
        for (code, n) in &other.by_code {
            *self.by_code.entry(code).or_insert(0) += n;
        }
    }

    /// Renders the counters as human-readable text.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "schedules {}: {} errors, {} warnings\n  races {}, deadlocks {}, redundant syncs {}\n",
            self.schedules,
            self.errors,
            self.warnings,
            self.races,
            self.deadlocks,
            self.redundant_syncs
        );
        for (code, n) in &self.by_code {
            out.push_str(&format!("  {code} x {n}\n"));
        }
        out
    }

    /// Renders the counters as one JSON object.
    pub fn to_json(&self) -> String {
        let by_code: Vec<String> = self
            .by_code
            .iter()
            .map(|(code, n)| format!("\"{code}\":{n}"))
            .collect();
        format!(
            concat!(
                "{{\"schedules\":{},\"errors\":{},\"warnings\":{},\"races\":{},",
                "\"deadlocks\":{},\"redundant_syncs\":{},\"by_code\":{{{}}}}}"
            ),
            self.schedules,
            self.errors,
            self.warnings,
            self.races,
            self.deadlocks,
            self.redundant_syncs,
            by_code.join(",")
        )
    }
}

/// One deduplicated diagnostic across many schedules of a space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregatedDiag {
    /// The underlying diagnostic (one representative occurrence).
    pub diag: Diagnostic,
    /// Number of schedules it fired in.
    pub schedules: u64,
    /// Index of the first schedule it fired in.
    pub first_schedule: u64,
}

impl AggregatedDiag {
    /// Renders as `severity CODE: message [items ...] (N schedules, first #i)`.
    pub fn render(&self) -> String {
        format!(
            "{} ({} schedule{}, first #{})",
            self.diag.render(),
            self.schedules,
            if self.schedules == 1 { "" } else { "s" },
            self.first_schedule
        )
    }
}

/// Aggregation state: `(representative, schedule count, first schedule,
/// last schedule counted)`. The trailing marker makes a diagnostic that
/// fires several times within one schedule count that schedule once.
type DiagSlot = (Diagnostic, u64, u64, u64);

/// Slots nested by `(code, items, message)`, the sort and dedup key: a
/// lookup borrows the diagnostic's own fields, and iteration visits the
/// key order.
type DiagIndex = BTreeMap<&'static str, BTreeMap<Vec<usize>, BTreeMap<String, DiagSlot>>>;

/// Deduplicates diagnostics across a schedule space: the same finding
/// (code + items + message) reports once with a schedule count instead
/// of once per schedule, and the output is stably sorted by
/// `(code, items, message)`.
#[derive(Debug, Clone, Default)]
pub struct DiagAggregator {
    map: DiagIndex,
}

impl DiagAggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one schedule's report in; `schedule` is the schedule's
    /// index in enumeration order (absorb in nondecreasing order). A
    /// diagnostic firing several times in one schedule counts that
    /// schedule once.
    pub fn absorb(&mut self, schedule: u64, report: &LintReport) {
        for d in &report.diagnostics {
            let by_items = self.map.entry(d.code.as_str()).or_default();
            match by_items
                .get_mut(d.items.as_slice())
                .and_then(|by_message| by_message.get_mut(d.message.as_str()))
            {
                None => {
                    by_items
                        .entry(d.items.clone())
                        .or_default()
                        .insert(d.message.clone(), (d.clone(), 1, schedule, schedule));
                }
                Some(entry) => {
                    if entry.3 != schedule {
                        entry.1 += 1;
                        entry.3 = schedule;
                    }
                }
            }
        }
    }

    /// Every slot in `(code, items, message)` order.
    fn slots(&self) -> impl Iterator<Item = &DiagSlot> {
        self.map
            .values()
            .flat_map(BTreeMap::values)
            .flat_map(BTreeMap::values)
    }

    /// The deduplicated findings, stably sorted by (code, items, message).
    pub fn entries(&self) -> Vec<AggregatedDiag> {
        self.slots()
            .map(|(diag, schedules, first, _)| AggregatedDiag {
                diag: diag.clone(),
                schedules: *schedules,
                first_schedule: *first,
            })
            .collect()
    }

    /// Number of distinct findings.
    pub fn len(&self) -> usize {
        self.slots().count()
    }

    /// True when nothing fired.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Renders every deduplicated finding, one per line.
    pub fn render_text(&self) -> String {
        if self.map.is_empty() {
            return "clean: no diagnostics\n".to_string();
        }
        let mut out = String::new();
        for e in self.entries() {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_classify() {
        for code in [
            RuleCode::Sched001,
            RuleCode::Sched002,
            RuleCode::Sched003,
            RuleCode::Hb001,
            RuleCode::Hb002,
            RuleCode::Mpi101,
            RuleCode::Mpi102,
            RuleCode::Mpi103,
            RuleCode::Mpi104,
            RuleCode::Mpi105,
            RuleCode::Mpi106,
            RuleCode::Mpi107,
            RuleCode::Rs001,
            RuleCode::Rs002,
            RuleCode::Rs003,
            RuleCode::Rs004,
        ] {
            assert!(!code.as_str().is_empty());
            assert!(!code.description().is_empty());
            // Redundant-sync rules are pure-overhead findings, never errors.
            if code.is_redundant_sync() {
                assert_eq!(code.severity(), Severity::Warning);
            }
            if code.is_race() || code.is_deadlock() {
                assert_eq!(code.severity(), Severity::Error);
            }
        }
    }

    #[test]
    fn report_partitions_by_severity() {
        let report = LintReport::new(vec![
            Diagnostic::new(RuleCode::Hb001, "race").with_items(vec![1, 2]),
            Diagnostic::new(RuleCode::Rs001, "redundant wait"),
        ]);
        assert_eq!(report.errors().count(), 1);
        assert_eq!(report.warnings().count(), 1);
        assert!(!report.is_clean());
        assert_eq!(report.races(), 1);
        assert_eq!(report.redundant_syncs(), 1);
        assert!(report.has_code(RuleCode::Hb001));
        assert!(!report.has_code(RuleCode::Mpi104));
        let text = report.render_text();
        assert!(text.contains("error HB001: race [items [1, 2]]"));
        assert!(text.contains("warning RS001"));
    }

    #[test]
    fn counters_absorb_and_merge() {
        let report = LintReport::new(vec![
            Diagnostic::new(RuleCode::Hb001, "race"),
            Diagnostic::new(RuleCode::Rs003, "redundant event"),
        ]);
        let mut a = LintCounters::default();
        a.absorb(&report);
        let mut b = LintCounters::default();
        b.absorb(&report);
        b.absorb(&LintReport::default());
        a.merge(&b);
        assert_eq!(a.schedules, 3);
        assert_eq!(a.errors, 2);
        assert_eq!(a.warnings, 2);
        assert_eq!(a.by_code["HB001"], 2);
        let json = a.to_json();
        assert!(json.contains("\"schedules\":3"));
        assert!(json.contains("\"HB001\":2"));
    }

    #[test]
    fn aggregator_dedups_and_sorts_stably() {
        let race = Diagnostic::new(RuleCode::Hb001, "race").with_items(vec![1, 2]);
        let rs = Diagnostic::new(RuleCode::Rs003, "redundant event").with_items(vec![4]);
        let mut agg = DiagAggregator::new();
        // The race fires twice within schedule 0 (counts once), then in
        // schedules 2 and 5; the RS only in schedule 2.
        agg.absorb(0, &LintReport::new(vec![race.clone(), race.clone()]));
        agg.absorb(1, &LintReport::default());
        agg.absorb(2, &LintReport::new(vec![race.clone(), rs.clone()]));
        agg.absorb(5, &LintReport::new(vec![race.clone()]));
        let entries = agg.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].diag.code, RuleCode::Hb001);
        assert_eq!(entries[0].schedules, 3);
        assert_eq!(entries[0].first_schedule, 0);
        assert_eq!(entries[1].diag.code, RuleCode::Rs003);
        assert_eq!(entries[1].schedules, 1);
        assert_eq!(entries[1].first_schedule, 2);
        let text = agg.render_text();
        assert!(text.contains("(3 schedules, first #0)"), "{text}");
        assert!(text.contains("(1 schedule, first #2)"), "{text}");
    }

    #[test]
    fn json_escapes_quotes() {
        let d = Diagnostic::new(RuleCode::Hb001, "edge \"a\" -> \"b\"");
        let json = LintReport::new(vec![d]).to_json();
        assert!(json.contains("\\\"a\\\""));
    }
}
