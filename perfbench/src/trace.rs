//! In-memory span tracing around the calls the benchmark makes into each
//! layer, plus the two timing decorators (handler and telemetry sink).
//!
//! A span records its name, start, end, parent span and job id. Spans
//! stay in per-thread buffers while a job runs and move to one global
//! list when the job ends; nothing is written until the benchmark
//! finishes. Handler calls and telemetry records happen once per packet
//! or event, so the decorators do not open a span per call: they sum
//! their time into the innermost open span, which emits one aggregated
//! child span (`calls` > 1) for each when it closes. Self time is a
//! span's duration minus its children's, see [`self_times`].
//!
//! With tracing off, [`span`] costs one relaxed atomic load and the
//! decorators are not installed at all.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use nca_spin::handler::{HandlerOutput, MessageProcessor, PacketCtx, SchedPolicy};
use nca_telemetry::{Recorder, TraceEvent};

/// Aggregated child span of the handler decorator.
pub const HANDLER: &str = "core.handler";
/// Aggregated child span of the telemetry-sink decorator.
pub const RECORD: &str = "telemetry.record";
/// Job id of spans recorded outside any job (set-up, post-processing).
pub const NO_JOB: u64 = u64::MAX;

/// One closed span. Times are nanoseconds since the process epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    pub job: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls folded into this span (1 for an ordinary span).
    pub calls: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Time the handler and telemetry decorators folded into an open span.
#[derive(Default, Clone, Copy)]
struct Folded {
    handler_ns: u64,
    handler_calls: u64,
    /// Telemetry records made while a handler ran (a child of the
    /// handler's aggregated span).
    record_in_handler_ns: u64,
    record_in_handler_calls: u64,
    record_ns: u64,
    record_calls: u64,
}

struct Frame {
    id: u64,
    folded: Folded,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static BUF: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static JOB: Cell<u64> = const { Cell::new(NO_JOB) };
    static IN_HANDLER: Cell<bool> = const { Cell::new(false) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tag the spans this thread records from now on with `job`.
pub fn set_job(job: u64) {
    JOB.with(|j| j.set(job));
}

/// Move this thread's closed spans to the global list.
pub fn flush() {
    let spans = BUF.with(|b| std::mem::take(&mut *b.borrow_mut()));
    if !spans.is_empty() {
        SINK.lock().expect("span sink poisoned").extend(spans);
    }
}

/// Take every span flushed so far.
pub fn take() -> Vec<Span> {
    flush();
    std::mem::take(&mut *SINK.lock().expect("span sink poisoned"))
}

/// An open span; it closes when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

/// Open a span named `name` under the innermost open span of this thread.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent: 0,
            name,
            start_ns: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().map_or(0, |f| f.id);
        s.push(Frame {
            id,
            folded: Folded::default(),
        });
        parent
    });
    Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        let folded = STACK.with(|s| s.borrow_mut().pop().map(|f| f.folded).unwrap_or_default());
        let job = JOB.with(|j| j.get());
        let start_ns = self.start_ns;
        let mut out = vec![Span {
            id: self.id,
            parent: self.parent,
            job,
            name: self.name,
            start_ns,
            end_ns,
            calls: 1,
        }];
        let mut child = |parent: u64, name: &'static str, ns: u64, calls: u64| {
            let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            out.push(Span {
                id,
                parent,
                job,
                name,
                start_ns,
                end_ns: start_ns + ns,
                calls,
            });
            id
        };
        if folded.handler_calls > 0 {
            let h = child(self.id, HANDLER, folded.handler_ns, folded.handler_calls);
            if folded.record_in_handler_calls > 0 {
                child(
                    h,
                    RECORD,
                    folded.record_in_handler_ns,
                    folded.record_in_handler_calls,
                );
            }
        }
        if folded.record_calls > 0 {
            child(self.id, RECORD, folded.record_ns, folded.record_calls);
        }
        BUF.with(|b| b.borrow_mut().extend(out));
    }
}

fn fold(f: impl FnOnce(&mut Folded)) {
    STACK.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            f(&mut top.folded);
        }
    });
}

/// Times every handler call of the wrapped strategy.
pub struct TimedProcessor(pub Box<dyn MessageProcessor>);

impl TimedProcessor {
    fn timed(
        &mut self,
        call: impl FnOnce(&mut dyn MessageProcessor) -> HandlerOutput,
    ) -> HandlerOutput {
        IN_HANDLER.with(|h| h.set(true));
        let t = Instant::now();
        let out = call(self.0.as_mut());
        let ns = t.elapsed().as_nanos() as u64;
        IN_HANDLER.with(|h| h.set(false));
        fold(|f| {
            f.handler_ns += ns;
            f.handler_calls += 1;
        });
        out
    }
}

impl MessageProcessor for TimedProcessor {
    fn policy(&self) -> SchedPolicy {
        self.0.policy()
    }
    fn nic_mem_bytes(&self) -> u64 {
        self.0.nic_mem_bytes()
    }
    fn host_setup_time(&self) -> nca_sim::Time {
        self.0.host_setup_time()
    }
    fn on_payload(&mut self, ctx: &mut PacketCtx<'_>) -> HandlerOutput {
        self.timed(|p| p.on_payload(ctx))
    }
    fn on_completion(&mut self) -> HandlerOutput {
        self.timed(|p| p.on_completion())
    }
    fn recycle_dma(&mut self, scratch: Vec<nca_spin::handler::DmaWrite>) {
        self.0.recycle_dma(scratch)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Times every event the wrapped telemetry sink records.
pub struct TimedRecorder(pub Arc<dyn Recorder>);

impl Recorder for TimedRecorder {
    fn record(&self, ev: TraceEvent) {
        let t = Instant::now();
        self.0.record(ev);
        let ns = t.elapsed().as_nanos() as u64;
        let in_handler = IN_HANDLER.with(|h| h.get());
        fold(|f| {
            if in_handler {
                f.record_in_handler_ns += ns;
                f.record_in_handler_calls += 1;
            } else {
                f.record_ns += ns;
                f.record_calls += 1;
            }
        });
    }
}

/// The spans as a Chrome/Perfetto trace: one track per job, with the
/// span and parent ids and the folded call count as arguments.
pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            let tid = if s.job == NO_JOB { -1 } else { s.job as i64 };
            format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {}, \"parent\": {}, \"calls\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                s.parent,
                s.calls
            )
        })
        .collect();
    format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub self_ns: u64,
    pub calls: u64,
}

/// Self time per span name (duration minus the children's durations),
/// plus the number of spans whose children outlast them: a nonzero
/// count means the spans do not nest and the tiling check fails.
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, Totals>, u64) {
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    let mut overlaps = 0;
    for s in spans {
        let kids = child_ns.get(&s.id).copied().unwrap_or(0);
        if kids > s.dur_ns() {
            overlaps += 1;
        }
        let t = out.entry(s.name).or_default();
        t.self_ns += s.dur_ns().saturating_sub(kids);
        t.calls += s.calls;
    }
    (out, overlaps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                job: 0,
                name: "a",
                start_ns: 0,
                end_ns: 100,
                calls: 1,
            },
            Span {
                id: 2,
                parent: 1,
                job: 0,
                name: "b",
                start_ns: 10,
                end_ns: 40,
                calls: 1,
            },
        ];
        let (t, overlaps) = self_times(&spans);
        assert_eq!(t["a"].self_ns, 70);
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(overlaps, 0);
    }
}
