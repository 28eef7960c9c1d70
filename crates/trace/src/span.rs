//! Span store, tracer handle, and per-thread lanes.

use std::fmt::Display;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifier of a span within one [`Tracer`]'s store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

#[derive(Debug)]
struct SpanData {
    name: String,
    lane: usize,
    parent: Option<SpanId>,
    start_s: f64,
    end_s: Option<f64>,
    notes: Vec<(String, String)>,
}

#[derive(Debug, Default)]
struct State {
    lanes: Vec<String>,
    spans: Vec<SpanData>,
    /// `(predecessor, successor)` causal edges across lanes.
    follows: Vec<(SpanId, SpanId)>,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

impl Inner {
    /// Seconds from the epoch to the clock reading `at`.
    fn seconds_at(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64()
    }
}

/// Shared handle to a span store. Clones share the same store; a tracer
/// built with [`Tracer::disabled`] makes every tracing call a no-op.
#[derive(Clone, Debug)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A live tracer with an empty span store.
    pub fn new() -> Self {
        Tracer {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// A tracer whose every operation is a no-op. Traced code paths can
    /// accept a `&Tracer` unconditionally and stay zero-cost when off.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Whether spans are actually being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Seconds since this tracer was created (0.0 when disabled).
    pub fn now_s(&self) -> f64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_secs_f64(),
            None => 0.0,
        }
    }

    /// Open a new lane (an independent span stack, shown as one thread
    /// row in the exported timeline). Lane handles are `Send` and may be
    /// moved into worker threads.
    pub fn lane(&self, name: &str) -> Lane {
        let lane = match &self.inner {
            Some(inner) => {
                let mut st = inner.state.lock().expect("tracer lock");
                st.lanes.push(name.to_string());
                st.lanes.len() - 1
            }
            None => 0,
        };
        Lane {
            tracer: self.clone(),
            lane,
            stack: Vec::new(),
        }
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.state.lock().expect("tracer lock").spans.len(),
            None => 0,
        }
    }

    /// A consistent copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            Some(inner) => {
                let st = inner.state.lock().expect("tracer lock");
                Snapshot {
                    lanes: st.lanes.clone(),
                    spans: st
                        .spans
                        .iter()
                        .enumerate()
                        .map(|(i, s)| Span {
                            id: SpanId(i as u64),
                            name: s.name.clone(),
                            lane: s.lane,
                            parent: s.parent,
                            start_s: s.start_s,
                            end_s: s.end_s,
                            notes: s.notes.clone(),
                        })
                        .collect(),
                    follows: st.follows.clone(),
                    now_s: inner.epoch.elapsed().as_secs_f64(),
                }
            }
            None => Snapshot {
                lanes: Vec::new(),
                spans: Vec::new(),
                follows: Vec::new(),
                now_s: 0.0,
            },
        }
    }

    /// Export the store as a Chrome trace-event JSON array under process
    /// id `pid` named `process_name` (see [`crate::chrome`]).
    pub fn to_chrome_json(&self, pid: u64, process_name: &str) -> String {
        crate::chrome::chrome_json(&self.snapshot(), pid, process_name)
    }
}

/// Read-only copy of a tracer's store, used by exporters and tests.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Lane names, indexed by `Span::lane`.
    pub lanes: Vec<String>,
    /// All spans in creation order (`Span::id` is the index).
    pub spans: Vec<Span>,
    /// `(predecessor, successor)` cross-lane causal edges.
    pub follows: Vec<(SpanId, SpanId)>,
    /// Capture time in seconds since the tracer epoch (used as the end
    /// time of spans still open at export).
    pub now_s: f64,
}

/// One recorded span (snapshot view).
#[derive(Clone, Debug)]
pub struct Span {
    /// Identifier (index into [`Snapshot::spans`]).
    pub id: SpanId,
    /// Span name.
    pub name: String,
    /// Owning lane index.
    pub lane: usize,
    /// Enclosing span on the same lane, if any.
    pub parent: Option<SpanId>,
    /// Start time, seconds since the tracer epoch.
    pub start_s: f64,
    /// End time; `None` while the span is still open.
    pub end_s: Option<f64>,
    /// Ordered key/value annotations.
    pub notes: Vec<(String, String)>,
}

/// A thread-affine span stack. All mutation goes through a lane, which
/// guarantees per-lane well-nesting by construction: `enter` pushes,
/// `exit` pops, and the parent of a new span is whatever is on top.
#[derive(Debug)]
pub struct Lane {
    tracer: Tracer,
    lane: usize,
    stack: Vec<SpanId>,
}

impl Lane {
    /// Whether this lane records anything.
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Lane index (the `tid` row in the exported timeline).
    pub fn index(&self) -> usize {
        self.lane
    }

    /// Open a span named `name` as a child of the current span. Returns
    /// `None` when the tracer is disabled.
    pub fn enter(&mut self, name: &str) -> Option<SpanId> {
        // No clock read on a disabled tracer.
        self.tracer.inner.as_ref()?;
        self.enter_at(name, Instant::now())
    }

    /// [`Lane::enter`] with the span starting at `at`, a clock reading
    /// the caller also uses for something else.
    pub fn enter_at(&mut self, name: &str, at: Instant) -> Option<SpanId> {
        let inner = self.tracer.inner.as_ref()?;
        let start_s = inner.seconds_at(at);
        let mut st = inner.state.lock().expect("tracer lock");
        let id = SpanId(st.spans.len() as u64);
        st.spans.push(SpanData {
            name: name.to_string(),
            lane: self.lane,
            parent: self.stack.last().copied(),
            start_s,
            end_s: None,
            notes: Vec::new(),
        });
        self.stack.push(id);
        Some(id)
    }

    /// Close the innermost open span. A no-op (returning `None`) when the
    /// stack is empty or the tracer is disabled, so arbitrary enter/exit
    /// interleavings can never corrupt the store.
    pub fn exit(&mut self) -> Option<SpanId> {
        self.tracer.inner.as_ref()?;
        self.exit_at(Instant::now())
    }

    /// [`Lane::exit`] with the span ending at `at`.
    pub fn exit_at(&mut self, at: Instant) -> Option<SpanId> {
        let inner = self.tracer.inner.as_ref()?;
        let id = self.stack.pop()?;
        let end_s = inner.seconds_at(at);
        let mut st = inner.state.lock().expect("tracer lock");
        st.spans[id.0 as usize].end_s = Some(end_s);
        Some(id)
    }

    /// Open a span closed automatically when the returned guard drops.
    pub fn span(&mut self, name: &str) -> SpanGuard<'_> {
        let id = self.enter(name);
        SpanGuard { lane: self, id }
    }

    /// The innermost open span, if any.
    pub fn current(&self) -> Option<SpanId> {
        self.stack.last().copied()
    }

    /// Nesting depth of open spans on this lane.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Attach a key/value annotation to the innermost open span. No-op
    /// when disabled or when no span is open.
    pub fn annotate(&mut self, key: &str, value: impl Display) {
        let Some(inner) = self.tracer.inner.as_ref() else {
            return;
        };
        let Some(id) = self.stack.last().copied() else {
            return;
        };
        let mut st = inner.state.lock().expect("tracer lock");
        st.spans[id.0 as usize]
            .notes
            .push((key.to_string(), value.to_string()));
    }

    /// Record that the innermost open span causally follows
    /// `predecessor` (typically a span on another lane). Exported as a
    /// Chrome flow arrow. No-op when disabled or when no span is open.
    pub fn follows_from(&mut self, predecessor: SpanId) {
        let Some(inner) = self.tracer.inner.as_ref() else {
            return;
        };
        let Some(current) = self.stack.last().copied() else {
            return;
        };
        let mut st = inner.state.lock().expect("tracer lock");
        if (predecessor.0 as usize) < st.spans.len() {
            st.follows.push((predecessor, current));
        }
    }
}

/// RAII guard returned by [`Lane::span`]; exits the span on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    lane: &'a mut Lane,
    id: Option<SpanId>,
}

impl SpanGuard<'_> {
    /// Identifier of the guarded span (`None` when tracing is disabled).
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }

    /// Annotate the guarded span.
    pub fn annotate(&mut self, key: &str, value: impl Display) {
        self.lane.annotate(key, value);
    }

    /// Record a causal predecessor of the guarded span.
    pub fn follows_from(&mut self, predecessor: SpanId) {
        self.lane.follows_from(predecessor);
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id.is_some() {
            self.lane.exit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_parent_links() {
        let tracer = Tracer::new();
        let mut lane = tracer.lane("main");
        let a = lane.enter("outer").unwrap();
        let b = lane.enter("inner").unwrap();
        lane.annotate("k", 7);
        lane.exit();
        lane.exit();
        assert_eq!(lane.depth(), 0);
        let snap = tracer.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[a.0 as usize].parent, None);
        assert_eq!(snap.spans[b.0 as usize].parent, Some(a));
        assert_eq!(
            snap.spans[b.0 as usize].notes,
            vec![("k".into(), "7".into())]
        );
        let inner = &snap.spans[b.0 as usize];
        let outer = &snap.spans[a.0 as usize];
        assert!(outer.start_s <= inner.start_s);
        assert!(inner.end_s.unwrap() <= outer.end_s.unwrap());
    }

    #[test]
    fn guard_closes_on_drop() {
        let tracer = Tracer::new();
        let mut lane = tracer.lane("main");
        {
            let mut g = lane.span("scoped");
            g.annotate("x", "y");
            assert!(g.id().is_some());
        }
        assert_eq!(lane.depth(), 0);
        assert!(tracer.snapshot().spans[0].end_s.is_some());
    }

    #[test]
    fn unbalanced_exit_is_noop() {
        let tracer = Tracer::new();
        let mut lane = tracer.lane("main");
        assert!(lane.exit().is_none());
        lane.enter("a");
        assert!(lane.exit().is_some());
        assert!(lane.exit().is_none());
    }

    #[test]
    fn follows_from_links_across_lanes() {
        let tracer = Tracer::new();
        let mut main = tracer.lane("main");
        let root = main.enter("dispatch").unwrap();
        main.exit();
        let mut worker = tracer.lane("worker-0");
        worker.enter("chunk");
        worker.follows_from(root);
        worker.exit();
        let snap = tracer.snapshot();
        assert_eq!(snap.follows.len(), 1);
        assert_eq!(snap.follows[0].0, root);
        assert_eq!(snap.lanes, vec!["main".to_string(), "worker-0".to_string()]);
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        let mut lane = tracer.lane("main");
        assert!(lane.enter("a").is_none());
        lane.annotate("k", "v");
        lane.follows_from(SpanId(0));
        assert!(lane.exit().is_none());
        assert_eq!(tracer.span_count(), 0);
        assert!(!tracer.is_enabled());
        let mut g = lane.span("scoped");
        assert!(g.id().is_none());
        g.annotate("k", "v");
        drop(g);
        assert_eq!(tracer.snapshot().spans.len(), 0);
    }

    #[test]
    fn lanes_from_threads_share_one_store() {
        let tracer = Tracer::new();
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let mut lane = tracer.lane(&format!("worker-{w}"));
                std::thread::spawn(move || {
                    let mut g = lane.span("work");
                    g.annotate("worker", w);
                    drop(g);
                    lane
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = tracer.snapshot();
        assert_eq!(snap.spans.len(), 4);
        assert_eq!(snap.lanes.len(), 4);
        assert!(snap.spans.iter().all(|s| s.end_s.is_some()));
    }
}
