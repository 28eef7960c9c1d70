//! Execution traces: per-operation timelines of one simulated invocation.
//!
//! The design rules tell an implementer *what* to do; a trace shows *why*
//! it is fast or slow — which waits blocked the host, how kernels
//! overlapped across streams, when messages actually moved. Traces are
//! the simulator's analogue of an Nsight/`mpiP` timeline.

use dr_trace::chrome::Record;

/// Where an operation executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The rank's host thread.
    Cpu,
    /// A CUDA stream on the rank's GPU.
    Stream(usize),
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Resource::Cpu => write!(f, "cpu"),
            Resource::Stream(s) => write!(f, "stream{s}"),
        }
    }
}

/// One operation instance in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Rank the operation ran on.
    pub rank: usize,
    /// Instruction name (from the schedule).
    pub name: String,
    /// Resource the span occupies.
    pub resource: Resource,
    /// Span start (seconds from program start).
    pub start: f64,
    /// Span end.
    pub end: f64,
}

impl TraceEvent {
    /// Span duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A complete invocation trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// All spans, in emission (host-issue) order per rank.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Events of one rank.
    pub fn rank(&self, rank: usize) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.rank == rank)
    }

    /// The last completion time across all spans.
    pub fn makespan(&self) -> f64 {
        self.events.iter().map(|e| e.end).fold(0.0, f64::max)
    }

    /// Renders an ASCII Gantt chart of one rank: one row per resource,
    /// `width` columns across the makespan. Busy cells show `█`, and the
    /// first letter of the operation name marks each span start.
    pub fn ascii_gantt(&self, rank: usize, width: usize) -> String {
        let events: Vec<&TraceEvent> = self.rank(rank).collect();
        if events.is_empty() {
            return String::new();
        }
        let makespan = self.makespan().max(f64::MIN_POSITIVE);
        let mut resources: Vec<Resource> = events.iter().map(|e| e.resource).collect();
        resources.sort_by_key(|r| match r {
            Resource::Cpu => 0,
            Resource::Stream(s) => 1 + s,
        });
        resources.dedup();
        let mut out = String::new();
        for res in resources {
            let mut row = vec![' '; width];
            for e in events.iter().filter(|e| e.resource == res) {
                let a = ((e.start / makespan) * width as f64) as usize;
                let b = (((e.end / makespan) * width as f64).ceil() as usize).min(width);
                for cell in row.iter_mut().take(b).skip(a) {
                    *cell = '█';
                }
                if a < width {
                    row[a] = e.name.chars().next().unwrap_or('?');
                }
            }
            out.push_str(&format!("{:>8} |", res.to_string()));
            out.extend(row);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rank: usize, name: &str, resource: Resource, start: f64, end: f64) -> TraceEvent {
        TraceEvent {
            rank,
            name: name.into(),
            resource,
            start,
            end,
        }
    }

    #[test]
    fn makespan_is_last_end() {
        let t = Trace {
            events: vec![
                ev(0, "a", Resource::Cpu, 0.0, 1.0),
                ev(0, "k", Resource::Stream(0), 0.5, 3.0),
            ],
        };
        assert_eq!(t.makespan(), 3.0);
        assert_eq!(t.events[1].duration(), 2.5);
    }

    #[test]
    fn rank_filter_works() {
        let t = Trace {
            events: vec![
                ev(0, "a", Resource::Cpu, 0.0, 1.0),
                ev(1, "b", Resource::Cpu, 0.0, 2.0),
            ],
        };
        assert_eq!(t.rank(1).count(), 1);
        assert_eq!(t.rank(2).count(), 0);
    }

    #[test]
    fn gantt_rows_cover_resources() {
        let t = Trace {
            events: vec![
                ev(0, "work", Resource::Cpu, 0.0, 1.0),
                ev(0, "kern", Resource::Stream(1), 1.0, 2.0),
            ],
        };
        let g = t.ascii_gantt(0, 20);
        assert_eq!(g.lines().count(), 2);
        assert!(g.contains("cpu"));
        assert!(g.contains("stream1"));
        assert!(g.contains('w'));
        assert!(g.contains('k'));
    }

    #[test]
    fn gantt_of_missing_rank_is_empty() {
        let t = Trace::default();
        assert_eq!(t.ascii_gantt(3, 10), "");
    }
}

fn tid_of(resource: Resource) -> u64 {
    match resource {
        Resource::Cpu => 0,
        Resource::Stream(s) => s as u64 + 1,
    }
}

impl Trace {
    /// Serializes the trace in Chrome trace-event format (the JSON array
    /// flavour readable by `chrome://tracing` and Perfetto), through
    /// [`dr_trace::chrome::Record`]. Each rank maps to a process, each
    /// resource to a thread.
    ///
    /// Beyond the `"X"` duration spans, the stream carries `"M"`
    /// metadata naming each process (`rank R`) and thread (`cpu`,
    /// `streamN`) so Perfetto labels tracks, and a per-rank `"C"` counter
    /// track (`active`) sampling how many resources are busy at each span
    /// boundary.
    pub fn to_chrome_json(&self) -> String {
        let mut records: Vec<Record> = Vec::with_capacity(self.events.len() * 2);
        // Metadata: one process_name per rank, one thread_name per
        // (rank, resource) seen in the trace.
        let mut threads: Vec<(usize, Resource)> =
            self.events.iter().map(|e| (e.rank, e.resource)).collect();
        threads.sort_by_key(|&(rank, res)| (rank, tid_of(res)));
        threads.dedup();
        let mut last_rank = usize::MAX;
        for &(rank, res) in &threads {
            if rank != last_rank {
                records.push(Record::process_name(rank as u64, &format!("rank {rank}")));
                last_rank = rank;
            }
            records.push(Record::thread_name(
                rank as u64,
                tid_of(res),
                &res.to_string(),
            ));
        }
        // Duration spans.
        for e in &self.events {
            records.push(Record::span(
                &e.name,
                e.rank as u64,
                tid_of(e.resource),
                e.start,
                e.duration(),
            ));
        }
        // Counter track: busy resources per rank, sampled at span
        // boundaries. Deltas at equal timestamps coalesce to one sample.
        let mut ranks: Vec<usize> = self.events.iter().map(|e| e.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        for rank in ranks {
            let mut deltas: Vec<(f64, i64)> = Vec::new();
            for e in self.events.iter().filter(|e| e.rank == rank) {
                deltas.push((e.start, 1));
                deltas.push((e.end, -1));
            }
            deltas.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("trace times are finite"));
            let mut active = 0i64;
            let mut i = 0;
            while i < deltas.len() {
                let t = deltas[i].0;
                while i < deltas.len() && deltas[i].0 == t {
                    active += deltas[i].1;
                    i += 1;
                }
                records.push(Record::counter(
                    "active",
                    rank as u64,
                    t,
                    &[("busy", active)],
                ));
            }
        }
        dr_trace::chrome::render(&records)
    }
}

#[cfg(test)]
mod chrome_tests {
    use super::*;
    use dr_obs::json::{self, Value};

    /// The exported records, parsed.
    fn records(t: &Trace) -> Vec<Value> {
        let out = json::parse(&t.to_chrome_json()).expect("valid chrome json");
        out.as_arr().expect("a record array").to_vec()
    }

    fn str_of<'a>(r: &'a Value, key: &str) -> &'a str {
        r.get(key).and_then(Value::as_str).unwrap_or_default()
    }

    fn num_of(r: &Value, key: &str) -> f64 {
        r.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
    }

    fn phase<'a>(recs: &'a [Value], ph: &str) -> Vec<&'a Value> {
        recs.iter().filter(|r| str_of(r, "ph") == ph).collect()
    }

    #[test]
    fn chrome_json_is_wellformed_and_complete() {
        let t = Trace {
            events: vec![
                TraceEvent {
                    rank: 0,
                    name: "Pack".into(),
                    resource: Resource::Stream(1),
                    start: 1e-6,
                    end: 3e-6,
                },
                TraceEvent {
                    rank: 2,
                    name: "CES-b4-\"x\"".into(),
                    resource: Resource::Cpu,
                    start: 0.0,
                    end: 5e-7,
                },
            ],
        };
        let recs = records(&t);
        let spans = phase(&recs, "X");
        assert_eq!(spans.len(), 2);
        let pack = spans[0];
        assert_eq!(str_of(pack, "name"), "Pack");
        assert_eq!(num_of(pack, "pid"), 0.0);
        assert_eq!(num_of(pack, "tid"), 2.0, "stream 1 -> tid 2");
        assert!((num_of(pack, "ts") - 1.0).abs() < 1e-9, "µs timestamps");
        assert!((num_of(pack, "dur") - 2.0).abs() < 1e-9);
        let ces = spans[1];
        assert_eq!(num_of(ces, "pid"), 2.0);
        assert_eq!(str_of(ces, "name"), "CES-b4-\"x\"", "quotes escaped");
    }

    #[test]
    fn empty_trace_is_empty_array() {
        assert_eq!(Trace::default().to_chrome_json(), "[]");
    }

    #[test]
    fn metadata_names_processes_and_threads() {
        let t = Trace {
            events: vec![
                TraceEvent {
                    rank: 1,
                    name: "k".into(),
                    resource: Resource::Stream(0),
                    start: 0.0,
                    end: 1e-6,
                },
                TraceEvent {
                    rank: 1,
                    name: "c".into(),
                    resource: Resource::Cpu,
                    start: 0.0,
                    end: 1e-6,
                },
            ],
        };
        let recs = records(&t);
        let meta = phase(&recs, "M");
        assert_eq!(meta.len(), 3, "1 process + 2 threads");
        let labels: Vec<&str> = meta
            .iter()
            .map(|r| r.path(&["args", "name"]).and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(labels, ["rank 1", "cpu", "stream0"]);
        // Metadata precedes the spans.
        let first = |ph: &str| recs.iter().position(|r| str_of(r, "ph") == ph).unwrap();
        assert!(first("M") < first("X"));
    }

    #[test]
    fn counter_track_follows_span_boundaries() {
        // Two overlapping spans: busy count goes 1, 2, 1, 0.
        let t = Trace {
            events: vec![
                TraceEvent {
                    rank: 0,
                    name: "a".into(),
                    resource: Resource::Cpu,
                    start: 0.0,
                    end: 2e-6,
                },
                TraceEvent {
                    rank: 0,
                    name: "k".into(),
                    resource: Resource::Stream(0),
                    start: 1e-6,
                    end: 3e-6,
                },
            ],
        };
        let recs = records(&t);
        let busy: Vec<f64> = phase(&recs, "C")
            .iter()
            .map(|r| r.path(&["args", "busy"]).and_then(Value::as_f64).unwrap())
            .collect();
        assert_eq!(busy.len(), 4);
        assert!(busy.contains(&2.0));
        // The final boundary returns to zero.
        assert!(busy.contains(&0.0));
    }
}
