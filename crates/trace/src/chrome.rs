//! Chrome/Perfetto trace-event JSON: the workspace's one record writer,
//! the span exporter, and fragment merging.
//!
//! Every trace-event record any exporter writes is a [`Record`] rendered
//! by [`render`]: `"M"` metadata naming processes and thread rows,
//! `"X"` complete-duration spans, `"s"`/`"f"` flow arrows, `"C"`
//! counter samples and `"i"` instants. Three exporters build on it:
//! [`chrome_json`] for the pipeline's own spans (annotations in `args`,
//! `follows_from` edges as flows), `dr_sim::Trace::to_chrome_json` for
//! simulated programs, and `dr_fleet::swarm_chrome_json` for swarm
//! timelines.
//!
//! Simulated timelines use the MPI rank as the process id, so the
//! pipeline's own spans are exported under [`PIPELINE_PID`] — far above
//! any plausible rank — and [`merge_chrome_json`] splices both into one
//! array: Perfetto then shows "the search" and "what it searched" as
//! separate process groups on a shared clock.

use crate::span::{Snapshot, Span, SpanId};
use dr_obs::json;

/// Process id given to the pipeline's own spans in merged traces, far
/// above any simulated MPI rank (which use `pid = rank`).
pub const PIPELINE_PID: u64 = 1_000_000;

/// One trace-event record. The constructors fix the phase and its
/// required members; [`Record::cat`], [`Record::tid`] and
/// [`Record::args`] add optional ones. Times are given in seconds and
/// written in the format's microseconds.
#[derive(Debug)]
pub struct Record {
    /// The rendered members, without the enclosing braces.
    members: String,
}

impl Record {
    fn new(name: &str, ph: &str, pid: u64) -> Self {
        Record {
            members: format!(
                "\"name\": \"{}\", \"ph\": \"{ph}\", \"pid\": {pid}",
                json::escape(name)
            ),
        }
    }

    /// Appends `"key": value`, with `value` already in JSON form.
    fn member(mut self, key: &str, value: &str) -> Self {
        self.members.push_str(&format!(", \"{key}\": {value}"));
        self
    }

    fn at(self, key: &str, seconds: f64) -> Self {
        self.member(key, &json::number(seconds * 1e6))
    }

    /// `"M"` record naming process `pid`.
    pub fn process_name(pid: u64, label: &str) -> Self {
        Record::new("process_name", "M", pid).args(&[("name", label)])
    }

    /// `"M"` record naming thread row `tid` of process `pid`.
    pub fn thread_name(pid: u64, tid: u64, label: &str) -> Self {
        Record::new("thread_name", "M", pid)
            .tid(tid)
            .args(&[("name", label)])
    }

    /// `"X"` span on row `tid` of process `pid`, from `start_s` for
    /// `dur_s` seconds.
    pub fn span(name: &str, pid: u64, tid: u64, start_s: f64, dur_s: f64) -> Self {
        Record::new(name, "X", pid)
            .tid(tid)
            .at("ts", start_s)
            .at("dur", dur_s)
    }

    /// `"i"` instant at `t_s` with scope `scope` (`"t"` thread, `"p"`
    /// process, `"g"` global).
    pub fn instant(name: &str, scope: &str, pid: u64, tid: u64, t_s: f64) -> Self {
        Record::new(name, "i", pid)
            .tid(tid)
            .at("ts", t_s)
            .member("s", &format!("\"{scope}\""))
    }

    /// `"C"` counter sample of process `pid` at `t_s`: one numeric
    /// series per `(key, value)`.
    pub fn counter(name: &str, pid: u64, t_s: f64, series: &[(&str, i64)]) -> Self {
        let series: Vec<String> = series
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", json::escape(k)))
            .collect();
        Record::new(name, "C", pid)
            .at("ts", t_s)
            .member("args", &format!("{{{}}}", series.join(", ")))
    }

    /// A flow arrow `id` as its `"s"` and `"f"` records: departing row
    /// `from = (pid, tid)` at `from_s`, landing on the slice enclosing
    /// `to_s` on row `to`.
    pub fn flow(
        name: &str,
        id: u64,
        from: (u64, u64),
        from_s: f64,
        to: (u64, u64),
        to_s: f64,
    ) -> [Self; 2] {
        let id = id.to_string();
        [
            Record::new(name, "s", from.0)
                .tid(from.1)
                .member("id", &id)
                .at("ts", from_s),
            Record::new(name, "f", to.0)
                .tid(to.1)
                .member("id", &id)
                .at("ts", to_s)
                .member("bp", "\"e\""),
        ]
    }

    /// Sets the category.
    pub fn cat(self, cat: &str) -> Self {
        self.member("cat", &format!("\"{}\"", json::escape(cat)))
    }

    /// Sets the thread row.
    pub fn tid(self, tid: u64) -> Self {
        self.member("tid", &tid.to_string())
    }

    /// Sets string-valued `args` (an empty slice writes `{}`).
    pub fn args<K: AsRef<str>, V: AsRef<str>>(self, args: &[(K, V)]) -> Self {
        let args: Vec<String> = args
            .iter()
            .map(|(k, v)| {
                format!(
                    "\"{}\": \"{}\"",
                    json::escape(k.as_ref()),
                    json::escape(v.as_ref())
                )
            })
            .collect();
        self.member("args", &format!("{{{}}}", args.join(", ")))
    }
}

/// Renders records as one trace-event JSON array, one record per line.
pub fn render(records: &[Record]) -> String {
    let recs: Vec<String> = records
        .iter()
        .map(|r| format!("{{{}}}", r.members))
        .collect();
    format!("[{}]", recs.join(",\n "))
}

fn span_end_s(s: &Span, now_s: f64) -> f64 {
    s.end_s.unwrap_or(now_s).max(s.start_s)
}

/// Render a snapshot as a Chrome trace-event JSON array.
///
/// Times are exported in microseconds since the tracer epoch. Spans
/// still open at capture time are drawn up to the capture instant.
pub fn chrome_json(snap: &Snapshot, pid: u64, process_name: &str) -> String {
    let mut recs = Vec::with_capacity(snap.spans.len() + snap.lanes.len() + 2);
    recs.push(Record::process_name(pid, process_name).tid(0));
    for (tid, lane) in snap.lanes.iter().enumerate() {
        recs.push(Record::thread_name(pid, tid as u64, lane));
    }
    for s in &snap.spans {
        let dur_s = span_end_s(s, snap.now_s) - s.start_s;
        recs.push(
            Record::span(&s.name, pid, s.lane as u64, s.start_s, dur_s)
                .cat("span")
                .args(&s.notes),
        );
    }
    for (flow_id, (from, to)) in snap.follows.iter().enumerate() {
        let (Some(src), Some(dst)) = (span_of(snap, *from), span_of(snap, *to)) else {
            continue;
        };
        // Flow arrows bind to the slice enclosing `ts` on the given
        // track: depart from the predecessor's end, land on the
        // successor's start.
        let arrow = Record::flow(
            "follows",
            flow_id as u64,
            (pid, src.lane as u64),
            span_end_s(src, snap.now_s),
            (pid, dst.lane as u64),
            dst.start_s,
        );
        recs.extend(arrow.map(|r| r.cat("flow")));
    }
    render(&recs)
}

fn span_of(snap: &Snapshot, id: SpanId) -> Option<&Span> {
    snap.spans.get(id.0 as usize)
}

/// Splice several Chrome trace-event JSON arrays into one. Each
/// fragment must be a JSON array (possibly empty); the result is a
/// single array holding every record, in fragment order.
pub fn merge_chrome_json(fragments: &[&str]) -> String {
    let mut bodies: Vec<&str> = Vec::with_capacity(fragments.len());
    for frag in fragments {
        let t = frag.trim();
        let inner = t
            .strip_prefix('[')
            .and_then(|t| t.strip_suffix(']'))
            .unwrap_or(t)
            .trim();
        if !inner.is_empty() {
            bodies.push(inner);
        }
    }
    format!("[{}]", bodies.join(",\n "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn sample_tracer() -> Tracer {
        let tracer = Tracer::new();
        let mut main = tracer.lane("main");
        let root = main.enter("pipeline").unwrap();
        main.annotate("strategy", "mcts");
        let mut worker = tracer.lane("worker-0");
        let mut g = worker.span("chunk");
        g.follows_from(root);
        g.annotate("first", 0);
        drop(g);
        main.exit();
        tracer
    }

    #[test]
    fn every_record_kind_renders_its_members() {
        let mut recs = vec![
            Record::process_name(3, "p \"q\""),
            Record::thread_name(3, 1, "t"),
            Record::span("x", 3, 1, 1e-6, 2e-6)
                .cat("c")
                .args(&[("k", "v")]),
            Record::instant("i", "p", 3, 0, 0.5),
            Record::counter("n", 3, 0.25, &[("busy", 2)]),
        ];
        recs.extend(Record::flow("f", 7, (3, 1), 1.0, (4, 0), 2.0));
        let out = json::parse(&render(&recs)).expect("valid chrome json");
        let recs = out.as_arr().unwrap();
        let get = |i: usize, key: &str| recs[i].get(key).cloned().unwrap_or(json::Value::Null);
        let text = |i: usize, path: &[&str]| {
            recs[i]
                .path(path)
                .and_then(|v| v.as_str().map(String::from))
        };
        assert_eq!(text(0, &["args", "name"]).as_deref(), Some("p \"q\""));
        assert!(get(0, "tid").is_null(), "process_name carries no tid");
        assert_eq!(get(1, "tid").as_u64(), Some(1));
        assert_eq!(text(2, &["ph"]).as_deref(), Some("X"));
        assert_eq!(get(2, "ts").as_f64(), Some(1.0));
        assert_eq!(get(2, "dur").as_f64(), Some(2.0));
        assert_eq!(text(2, &["args", "k"]).as_deref(), Some("v"));
        assert_eq!(text(3, &["s"]).as_deref(), Some("p"));
        assert_eq!(recs[4].path(&["args", "busy"]).unwrap().as_u64(), Some(2));
        assert_eq!(get(4, "ts").as_f64(), Some(250000.0));
        assert_eq!(text(5, &["ph"]).as_deref(), Some("s"));
        assert_eq!(get(6, "pid").as_u64(), Some(4));
        assert_eq!(text(6, &["bp"]).as_deref(), Some("e"));
        assert_eq!(get(5, "id").as_u64(), get(6, "id").as_u64());
    }

    #[test]
    fn export_is_valid_json_with_flows() {
        let out = sample_tracer().to_chrome_json(PIPELINE_PID, "dr pipeline");
        json::validate(&out).expect("valid chrome json");
        assert!(out.contains("\"ph\": \"X\""));
        assert!(out.contains("\"ph\": \"s\""));
        assert!(out.contains("\"ph\": \"f\""));
        assert!(out.contains("\"name\": \"worker-0\""));
        assert!(out.contains("\"strategy\": \"mcts\""));
        assert!(out.contains(&format!("\"pid\": {PIPELINE_PID}")));
    }

    #[test]
    fn open_spans_export_with_capture_end() {
        let tracer = Tracer::new();
        let mut lane = tracer.lane("main");
        lane.enter("still-open");
        let out = tracer.to_chrome_json(1, "p");
        json::validate(&out).expect("valid chrome json");
        assert!(out.contains("\"name\": \"still-open\""));
    }

    #[test]
    fn merge_concatenates_fragments() {
        let a = sample_tracer().to_chrome_json(PIPELINE_PID, "dr pipeline");
        let b = "[{\"name\": \"kernel\", \"ph\": \"X\", \"pid\": 0, \"tid\": 1, \
                  \"ts\": 0, \"dur\": 5}]";
        let merged = merge_chrome_json(&[&a, b, "[]", "  "]);
        json::validate(&merged).expect("valid merged json");
        assert!(merged.contains("\"name\": \"kernel\""));
        assert!(merged.contains("\"name\": \"pipeline\""));
        assert_eq!(merged.matches('[').count(), 1 + a.matches('[').count() - 1);
    }

    #[test]
    fn merge_of_empties_is_empty_array() {
        assert_eq!(merge_chrome_json(&[]), "[]");
        assert_eq!(merge_chrome_json(&["[]", "[ ]"]), "[]");
    }
}
