//! In-memory span recording for the traced run.
//!
//! A [`Span`] is one timed call into a layer: its name (prefixed with the
//! layer, e.g. `engine.step`), start and end on one monotonic clock, the
//! span that caused it, the replay or batch it belongs to, and a work
//! count recorded at the same boundary (candidates scored, jobs
//! dispatched). Spans stay in memory while the run measures and are
//! written out as JSON lines when it ends.
//!
//! Parents are inferred from a per-thread stack of open spans; a span
//! caused by work on another thread (a dispatch on the service's executor
//! thread, caused by a batch the client submitted) names its parent
//! explicitly. Self times are derived from the recorded spans
//! ([`self_times`]), never summed by hand.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-prefixed name, e.g. `source.next_arrival`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch; equals `start_ns` until the
    /// span closes.
    pub end_ns: u64,
    /// Index of the causing span in the tracer's record.
    pub parent: Option<usize>,
    /// The replay or batch this span belongs to.
    pub id: u64,
    /// Work done inside the span, in the span's own unit (0 if none).
    pub work: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder shared by every adapter of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Whether the per-arrival adapters time the current arrival; the
    /// traced replay driver sets it once per arrival.
    sampling: AtomicBool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with an empty record and its epoch at now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            sampling: AtomicBool::new(false),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is this thread's innermost open span.
    pub fn enter(&self, name: &'static str, id: u64) -> SpanGuard<'_> {
        let parent = OPEN.with(|open| open.borrow().last().copied());
        self.enter_under(name, id, parent)
    }

    /// Opens a span with an explicit parent (for work caused across
    /// threads).
    pub fn enter_under(&self, name: &'static str, id: u64, parent: Option<usize>) -> SpanGuard<'_> {
        let mut spans = self.spans.lock().expect("span record poisoned");
        let index = spans.len();
        let now = self.now_ns();
        spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            id,
            work: 0,
        });
        drop(spans);
        OPEN.with(|open| open.borrow_mut().push(index));
        SpanGuard {
            tracer: self,
            index,
            work: 0,
        }
    }

    /// Whether the current arrival is sampled.
    pub fn sampling(&self) -> bool {
        self.sampling.load(Ordering::Relaxed)
    }

    /// Turns per-arrival sampling on or off.
    pub fn set_sampling(&self, on: bool) {
        self.sampling.store(on, Ordering::Relaxed);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span record poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span record poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{},\"work\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id, s.work
            )?;
        }
        out.flush()
    }

    /// Measures the recorder's own cost where it runs, in a scratch
    /// tracer so it never pollutes this record: the median over `rounds`
    /// empty parent/child pairs.
    pub fn calibrate(rounds: usize) -> Calibration {
        let scratch = Tracer::new();
        for _ in 0..rounds {
            let _parent = scratch.enter("calibrate.parent", 0);
            let _child = scratch.enter("calibrate.child", 0);
        }
        let spans = scratch.spans();
        let mut empty = Vec::with_capacity(rounds);
        let mut child = Vec::with_capacity(rounds);
        for pair in spans.chunks_exact(2) {
            empty.push(pair[1].dur_ns());
            child.push(pair[0].dur_ns().saturating_sub(pair[1].dur_ns()));
        }
        let mid = |v: &mut Vec<u64>| {
            v.sort_unstable();
            v.get(v.len() / 2).copied().unwrap_or(0)
        };
        Calibration {
            empty_ns: mid(&mut empty),
            child_ns: mid(&mut child),
        }
    }
}

/// The recorder's own cost, subtracted when self times are derived.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Calibration {
    /// Duration of a span with nothing inside it: the bookkeeping that
    /// falls between its start and end readings.
    pub empty_ns: u64,
    /// Time an empty child adds to its parent's self time: the parent's
    /// own inner bookkeeping plus the child's bookkeeping outside the
    /// child's interval.
    pub child_ns: u64,
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: usize,
    work: u64,
}

impl SpanGuard<'_> {
    /// The span's index in the record (a parent for cross-thread spans).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Records the work done inside the span.
    pub fn set_work(&mut self, work: u64) {
        self.work = work;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        if let Ok(mut spans) = self.tracer.spans.lock() {
            let span = &mut spans[self.index];
            span.end_ns = end;
            span.work = self.work;
        }
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&i| i == self.index) {
                open.remove(pos);
            }
        });
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children counted once), minus
/// the recorder's own bookkeeping per `cal`. Saturates at zero.
pub fn self_times(spans: &[Span], cal: Calibration) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let per_child = cal.child_ns.saturating_sub(cal.empty_ns);
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns()
                .saturating_sub(covered)
                .saturating_sub(cal.empty_ns)
                .saturating_sub(per_child * kids.len() as u64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
            work: 0,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("p", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Covered: [10, 60) and [90, 100) = 60 ns.
        let none = Calibration::default();
        assert_eq!(self_times(&spans, none)[0], 40);
        assert_eq!(self_times(&spans, none)[1], 30);
        let cal = Calibration {
            empty_ns: 4,
            child_ns: 9,
        };
        // 40 − 4 own − 3 children × 5.
        assert_eq!(self_times(&spans, cal)[0], 21);
        assert_eq!(self_times(&spans, cal)[1], 26);
    }

    #[test]
    fn nested_guards_record_parents() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.enter("outer", 7);
            let mut inner = tracer.enter("inner", 7);
            inner.set_work(3);
        }
        let spans = tracer.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].work, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
