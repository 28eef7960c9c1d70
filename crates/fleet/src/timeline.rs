//! Merged swarm Perfetto export: one process per worker, flow arrows
//! from shard issue to shard completion.
//!
//! Each source stream carries its own monotonic clock (`t_s` is seconds
//! since *that* sink started, and workers start at spawn time, not at
//! swarm start). The merged stream's `seen_s` stamps give a shared
//! coordinator clock, so each worker attempt is rebased onto it with a
//! per-attempt offset — the first event's `seen_s − t_s` — which places
//! every stream on one timeline while preserving the worker's own
//! high-resolution spacing between events.
//!
//! The export builds one trace-event fragment per process from
//! [`dr_trace::chrome::Record`]s and splices them with
//! [`dr_trace::merge_chrome_json`], the same path the pipeline uses to
//! join its own spans with simulated-program timelines.

use crate::aggregate::MergedEvent;
use dr_trace::chrome::{render, Record};

/// Process id for the swarm coordinator's event lane, far above both
/// simulated MPI ranks (`pid = rank`) and the pipeline's own spans
/// (`dr_trace::PIPELINE_PID`). Worker `i` exports as
/// `FLEET_COORDINATOR_PID + 1 + i`.
pub const FLEET_COORDINATOR_PID: u64 = 3_000_000;

/// One worker attempt, rebased onto the coordinator clock.
struct Attempt<'a> {
    offset_s: f64,
    events: Vec<&'a MergedEvent>,
}

impl Attempt<'_> {
    fn place(&self, ev: &MergedEvent) -> f64 {
        self.offset_s + ev.t_s
    }
}

/// Splits a worker's merged events into attempts: a re-issued worker
/// restarts its sink, so its stream-local `seq` falls back to zero.
fn attempts_of<'a>(events: &[&'a MergedEvent]) -> Vec<Attempt<'a>> {
    let mut out: Vec<Attempt<'a>> = Vec::new();
    let mut last_seq: Option<u64> = None;
    for ev in events {
        let restart = matches!(last_seq, Some(prev) if ev.seq <= prev);
        if restart || out.is_empty() {
            out.push(Attempt {
                offset_s: ev.seen_s - ev.t_s,
                events: Vec::new(),
            });
        }
        last_seq = Some(ev.seq);
        out.last_mut().expect("attempt pushed").events.push(ev);
    }
    out
}

fn coordinator_fragment(events: &[&MergedEvent]) -> String {
    let pid = FLEET_COORDINATOR_PID;
    let mut recs = vec![
        Record::process_name(pid, "swarm coordinator").tid(0),
        Record::thread_name(pid, 0, "events"),
    ];
    for ev in events {
        let shard = ev.field_u64("shard").map(|s| ("shard", s.to_string()));
        recs.push(
            Record::instant(&ev.kind, "p", pid, 0, ev.seen_s)
                .cat("fleet")
                .args(shard.as_slice()),
        );
    }
    render(&recs)
}

fn worker_fragment(index: usize, count: usize, events: &[&MergedEvent]) -> String {
    let pid = FLEET_COORDINATOR_PID + 1 + index as u64;
    let mut recs = vec![
        Record::process_name(pid, &format!("shard {index}/{count}")).tid(0),
        Record::thread_name(pid, 0, "shard"),
        Record::thread_name(pid, 1, "beats"),
    ];
    for (k, attempt) in attempts_of(events).iter().enumerate() {
        let (Some(first), Some(last)) = (attempt.events.first(), attempt.events.last()) else {
            continue;
        };
        let start = attempt.place(first);
        let end = attempt.place(last).max(start);
        let records = attempt
            .events
            .iter()
            .rev()
            .find(|e| e.kind == "shard-done")
            .and_then(|e| e.field_u64("records"));
        let mut args = vec![("attempt", (k + 1).to_string())];
        args.extend(records.map(|r| ("records", r.to_string())));
        let name = format!("shard {index} attempt {}", k + 1);
        recs.push(
            Record::span(&name, pid, 0, start, end - start)
                .cat("fleet")
                .args(&args),
        );
        for ev in &attempt.events {
            if ev.kind != "heartbeat" {
                continue;
            }
            let done = ev.field_u64("done").unwrap_or(0);
            let total = ev.field_u64("total").unwrap_or(0);
            let at = attempt.place(ev);
            recs.push(
                Record::instant("beat", "t", pid, 1, at)
                    .cat("fleet")
                    .args(&[("done", done.to_string()), ("total", total.to_string())]),
            );
            recs.push(Record::counter("evals done", pid, at, &[("done", done as i64)]).tid(0));
        }
    }
    render(&recs)
}

/// Flow arrows: each completed shard gets an arrow from the
/// coordinator's issuing `worker-spawn` event to the worker's
/// `shard-done`, both placed on the shared coordinator clock.
fn flow_fragment(events: &[MergedEvent]) -> String {
    let mut recs: Vec<Record> = Vec::new();
    let mut flow_id = 0u64;
    for done in events.iter().filter(|e| e.kind == "shard-done") {
        let Some(worker) = done.worker else { continue };
        // The latest issue of this shard at or before its completion.
        let spawn = events.iter().rfind(|e| {
            e.worker.is_none()
                && e.kind == "worker-spawn"
                && e.field_u64("shard") == Some(worker as u64)
                && e.seen_s <= done.seen_s
        });
        let Some(spawn) = spawn else { continue };
        let worker_events: Vec<&MergedEvent> =
            events.iter().filter(|e| e.worker == Some(worker)).collect();
        let landed = attempts_of(&worker_events)
            .iter()
            .find_map(|a| {
                a.events
                    .iter()
                    .any(|e| std::ptr::eq::<MergedEvent>(*e, done))
                    .then(|| a.place(done))
            })
            .unwrap_or(done.seen_s);
        let pid = FLEET_COORDINATOR_PID + 1 + worker as u64;
        let arrow = Record::flow(
            "issue",
            flow_id,
            (FLEET_COORDINATOR_PID, 0),
            spawn.seen_s,
            (pid, 0),
            landed,
        );
        recs.extend(arrow.map(|r| r.cat("fleet-flow")));
        flow_id += 1;
    }
    render(&recs)
}

/// Renders the merged fleet stream as one Chrome trace-event JSON
/// array: an instant lane for the coordinator, one process per worker
/// (spans per attempt, heartbeat instants, an eval counter), and flow
/// arrows from each shard's issue to its completion.
pub fn swarm_chrome_json(events: &[MergedEvent], workers: usize) -> String {
    let coord: Vec<&MergedEvent> = events.iter().filter(|e| e.worker.is_none()).collect();
    let mut fragments = vec![coordinator_fragment(&coord)];
    for i in 0..workers {
        let mine: Vec<&MergedEvent> = events.iter().filter(|e| e.worker == Some(i)).collect();
        fragments.push(worker_fragment(i, workers, &mine));
    }
    fragments.push(flow_fragment(events));
    let refs: Vec<&str> = fragments.iter().map(String::as_str).collect();
    dr_trace::merge_chrome_json(&refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_obs::json::{self, Value};

    /// The exported records, parsed.
    fn records(out: &str) -> Vec<Value> {
        let v = json::parse(out).expect("valid chrome json");
        v.as_arr().expect("a record array").to_vec()
    }

    fn has(recs: &[Value], key: &str, value: &str) -> bool {
        recs.iter()
            .any(|r| r.get(key).and_then(Value::as_str) == Some(value))
    }

    fn has_pid(recs: &[Value], pid: u64) -> bool {
        recs.iter()
            .any(|r| r.get("pid").and_then(Value::as_u64) == Some(pid))
    }

    fn ev(
        worker: Option<usize>,
        seq: u64,
        seen_s: f64,
        t_s: f64,
        kind: &str,
        fields: &[(&str, u64)],
    ) -> MergedEvent {
        let mut raw = format!(
            "{{\"schema\":\"dr-events/v1\",\"run\":\"r\",\"seq\":{seq},\"t_s\":{t_s},\
             \"kind\":\"{kind}\""
        );
        for (k, v) in fields {
            raw.push_str(&format!(",\"{k}\":{v}"));
        }
        raw.push('}');
        MergedEvent {
            gseq: 0,
            worker,
            seen_s,
            run: "r".into(),
            seq,
            t_s,
            kind: kind.into(),
            value: json::parse(&raw).unwrap(),
            raw,
        }
    }

    fn sample() -> Vec<MergedEvent> {
        vec![
            ev(None, 0, 0.1, 0.1, "worker-spawn", &[("shard", 0)]),
            // Worker clock starts near zero at spawn: t_s ≪ seen_s.
            ev(
                Some(0),
                0,
                0.35,
                0.2,
                "heartbeat",
                &[("shard", 0), ("of", 1), ("done", 5), ("total", 10)],
            ),
            ev(
                Some(0),
                1,
                0.55,
                0.4,
                "heartbeat",
                &[("shard", 0), ("of", 1), ("done", 10), ("total", 10)],
            ),
            ev(
                Some(0),
                2,
                0.6,
                0.45,
                "shard-done",
                &[("shard", 0), ("of", 1), ("records", 10)],
            ),
            ev(None, 1, 0.7, 0.7, "swarm-done", &[]),
        ]
    }

    #[test]
    fn export_is_valid_json_with_flows_and_processes() {
        let out = swarm_chrome_json(&sample(), 1);
        let recs = records(&out);
        assert!(out.contains("\"swarm coordinator\""), "{out}");
        assert!(out.contains("\"shard 0/1\""), "{out}");
        for ph in ["X", "s", "f", "C"] {
            assert!(has(&recs, "ph", ph), "no {ph} record: {out}");
        }
        assert!(has_pid(&recs, FLEET_COORDINATOR_PID), "{out}");
        assert!(has_pid(&recs, FLEET_COORDINATOR_PID + 1), "{out}");
    }

    #[test]
    fn worker_events_are_rebased_onto_the_coordinator_clock() {
        let out = swarm_chrome_json(&sample(), 1);
        let ts: Vec<f64> = records(&out)
            .iter()
            .filter_map(|r| r.get("ts").and_then(Value::as_f64))
            .collect();
        // First worker event: offset = 0.35 − 0.2 = 0.15, so the span
        // starts at 0.35s = 350000µs on the shared clock, not at the
        // worker-local 200000µs.
        assert!(ts.contains(&350000.0), "{out}");
        assert!(!ts.contains(&200000.0), "{out}");
    }

    #[test]
    fn respawn_splits_attempts() {
        let mut events = sample();
        // A re-issued worker restarts seq at 0 with a fresh clock.
        events.push(ev(None, 2, 1.0, 1.0, "worker-spawn", &[("shard", 0)]));
        events.push(ev(
            Some(0),
            0,
            1.2,
            0.05,
            "heartbeat",
            &[("shard", 0), ("of", 1), ("done", 2), ("total", 10)],
        ));
        let out = swarm_chrome_json(&events, 1);
        records(&out);
        assert!(out.contains("shard 0 attempt 1"), "{out}");
        assert!(out.contains("shard 0 attempt 2"), "{out}");
    }
}
