//! The online algorithm interface.
//!
//! An [`OnlineAlgorithm`] sees exactly what the paper's model allows: the
//! weight and size of every set up front ([`begin`](OnlineAlgorithm::begin)),
//! then one arrival at a time, deciding immediately and irrevocably which of
//! the element's sets receive it. The [`EngineView`] additionally exposes
//! per-set progress (how many elements each set has received, and whether it
//! is still completable) — information any implementation could derive from
//! its own decision history, offered centrally so baselines don't each
//! re-implement the bookkeeping.
//!
//! The required decision method is [`decide_into`](OnlineAlgorithm::decide_into):
//! the algorithm writes its choice into a caller-provided buffer, so a warm
//! replay loop performs **zero heap allocations per arrival** — the engine
//! recycles one decision buffer across all arrivals (and, via
//! [`ReplayScratch`](crate::engine::batch::ReplayScratch), across all jobs
//! of a shard). The allocating [`decide`](OnlineAlgorithm::decide) is a
//! default-implemented convenience shim for external callers.

use crate::engine::SetState;
use crate::instance::{Arrival, SetMeta};
use crate::SetId;

/// Read-only view of the engine's bookkeeping, available at decision time.
#[derive(Debug, Clone, Copy)]
pub struct EngineView<'a> {
    sets: &'a [SetMeta],
    state: &'a [SetState],
}

impl<'a> EngineView<'a> {
    pub(crate) fn new(sets: &'a [SetMeta], state: &'a [SetState]) -> Self {
        EngineView { sets, state }
    }

    /// Metadata of a set.
    pub fn set(&self, id: SetId) -> &SetMeta {
        &self.sets[id.index()]
    }

    /// How many of its elements have been assigned to `id` so far.
    pub fn assigned(&self, id: SetId) -> u32 {
        self.state[id.index()].assigned
    }

    /// Whether `id` is still completable: every one of its elements so far
    /// was assigned to it ("active" in the paper's terminology).
    pub fn is_active(&self, id: SetId) -> bool {
        self.state[id.index()].died_at.is_none()
    }

    /// Elements of `id` still to arrive (size minus assigned); meaningful
    /// only while the set is active.
    pub fn remaining(&self, id: SetId) -> u32 {
        self.sets[id.index()].size() - self.state[id.index()].assigned
    }
}

/// An online algorithm for OSP.
///
/// The engine calls [`begin`](Self::begin) once, then
/// [`decide_into`](Self::decide_into) for every arrival in order. Decisions
/// must pick at most `arrival.capacity()` distinct sets from
/// `arrival.members()`; the engine validates this and fails the run
/// otherwise.
pub trait OnlineAlgorithm {
    /// Human-readable name used in experiment reports.
    fn name(&self) -> String;

    /// Called once before the first arrival with every set's weight and
    /// size — the information the paper grants algorithms up front.
    fn begin(&mut self, sets: &[SetMeta]);

    /// Decides which sets receive the arriving element, appending them to
    /// `out` (handed over empty by the engine, with warm capacity). This is
    /// the allocation-free hot path: implementations must not assume `out`
    /// has any particular capacity, but should write into it rather than
    /// allocating buffers of their own.
    fn decide_into(&mut self, arrival: &Arrival<'_>, view: &EngineView<'_>, out: &mut Vec<SetId>);

    /// Allocating convenience wrapper around
    /// [`decide_into`](Self::decide_into) for external callers (tests,
    /// adversaries inspecting single decisions). The replay engine never
    /// calls this.
    fn decide(&mut self, arrival: &Arrival<'_>, view: &EngineView<'_>) -> Vec<SetId> {
        let mut out = Vec::new();
        self.decide_into(arrival, view, &mut out);
        out
    }

    /// Announces how many threads the algorithm may fan candidate
    /// *scoring* across inside one decision (the sharded decision kernel
    /// of [`engine::parallel`](crate::engine::parallel)). Implementations
    /// that honor it must keep decisions bit-identical at every thread
    /// count — the built-ins do so by sharding only the score *fill* and
    /// running the selection over the full scored buffer with the exact
    /// serial comparator sequence. The default ignores the hint (serial
    /// decisions), so existing implementations are unaffected.
    fn set_decision_threads(&mut self, _threads: usize) {}
}

impl<T: OnlineAlgorithm + ?Sized> OnlineAlgorithm for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn begin(&mut self, sets: &[SetMeta]) {
        (**self).begin(sets);
    }

    fn decide_into(&mut self, arrival: &Arrival<'_>, view: &EngineView<'_>, out: &mut Vec<SetId>) {
        (**self).decide_into(arrival, view, out);
    }

    fn decide(&mut self, arrival: &Arrival<'_>, view: &EngineView<'_>) -> Vec<SetId> {
        (**self).decide(arrival, view)
    }

    fn set_decision_threads(&mut self, threads: usize) {
        (**self).set_decision_threads(threads);
    }
}
