//! Timing adapters around each layer's public interface.
//!
//! The traced run never reaches inside the program: it wraps the calls a
//! caller makes into each layer and records a [`Span`](crate::trace::Span)
//! around them.
//!
//! * [`TimedSource`] — `source`: times `next_arrival`;
//! * [`TimedAlgorithm`] — `prologue` (`begin`) and `algorithms`
//!   (`decide_into`); forwards `set_decision_threads`;
//! * [`traced_replay`] — `engine`: drives `Session::with_scratch` +
//!   `step` itself, so the engine's self time is `step − decide_into`;
//! * [`TimedDispatcher`] — `dispatch`: times `run_specs_with_events`;
//! * [`TimedClient`] — `wire`: times each `ServeClient` verb.
//!
//! Per-arrival calls are sampled (one arrival in `period`); `begin`,
//! dispatches and client verbs are timed on every call.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use osp_core::engine::dispatch::{Dispatcher, EventSink, FleetHandle};
use osp_core::serve::{BatchStatus, JobResult, ServeClient};
use osp_core::source::ArrivalSource;
use osp_core::spec::JobSpec;
use osp_core::{Arrival, SetMeta};
use osp_core::{EngineView, Error, OnlineAlgorithm, Outcome, ReplayScratch, Session, SetId};

use crate::trace::Tracer;

/// `source` adapter: times sampled `next_arrival` calls.
pub struct TimedSource<'t, S> {
    inner: S,
    tracer: &'t Tracer,
    id: u64,
}

impl<'t, S: ArrivalSource> TimedSource<'t, S> {
    /// Wraps `inner`; spans carry replay id `id`.
    pub fn new(inner: S, tracer: &'t Tracer, id: u64) -> Self {
        TimedSource { inner, tracer, id }
    }
}

impl<S: ArrivalSource> ArrivalSource for TimedSource<'_, S> {
    fn sets(&self) -> &[SetMeta] {
        self.inner.sets()
    }

    fn next_arrival(&mut self) -> Option<Arrival<'_>> {
        if !self.tracer.sampling() {
            return self.inner.next_arrival();
        }
        let mut span = self.tracer.enter("source.next_arrival", self.id);
        let arrival = self.inner.next_arrival();
        span.set_work(arrival.as_ref().map_or(0, |a| a.members().len() as u64));
        arrival
    }

    fn remaining_hint(&self) -> Option<usize> {
        self.inner.remaining_hint()
    }
}

/// `prologue` + `algorithms` adapter: times every `begin` and sampled
/// `decide_into` calls; forwards `set_decision_threads`.
pub struct TimedAlgorithm<'t, A> {
    inner: A,
    tracer: &'t Tracer,
    id: u64,
}

impl<'t, A: OnlineAlgorithm> TimedAlgorithm<'t, A> {
    /// Wraps `inner`; spans carry replay id `id`.
    pub fn new(inner: A, tracer: &'t Tracer, id: u64) -> Self {
        TimedAlgorithm { inner, tracer, id }
    }
}

impl<A: OnlineAlgorithm> OnlineAlgorithm for TimedAlgorithm<'_, A> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn begin(&mut self, sets: &[SetMeta]) {
        let mut span = self.tracer.enter("prologue.begin", self.id);
        span.set_work(sets.len() as u64);
        self.inner.begin(sets);
    }

    fn decide_into(&mut self, arrival: &Arrival<'_>, view: &EngineView<'_>, out: &mut Vec<SetId>) {
        if !self.tracer.sampling() {
            return self.inner.decide_into(arrival, view, out);
        }
        let mut span = self.tracer.enter("algorithms.decide_into", self.id);
        span.set_work(arrival.members().len() as u64);
        self.inner.decide_into(arrival, view, out);
    }

    fn set_decision_threads(&mut self, threads: usize) {
        self.inner.set_decision_threads(threads);
    }
}

/// One replay driven through `Session::with_scratch` + `step`, the way
/// `run_source_with_scratch` drives it, with every layer behind its
/// adapter. Arrival `i` is sampled when `i % period == 0`; a sampled
/// arrival's `step` is a span whose child is its `decide_into`.
///
/// # Errors
///
/// The engine's verdict on an invalid decision.
pub fn traced_replay<S: ArrivalSource, A: OnlineAlgorithm>(
    source: S,
    algorithm: A,
    tracer: &Tracer,
    id: u64,
    period: u64,
    scratch: &mut ReplayScratch,
) -> Result<Outcome, Error> {
    let period = period.max(1);
    let _replay = tracer.enter("replay", id);
    let mut source = TimedSource::new(source, tracer, id);
    let mut algorithm = TimedAlgorithm::new(algorithm, tracer, id);
    let metas = source.sets().to_vec();
    let mut session = Session::with_scratch(&metas, &mut algorithm, scratch);
    let mut i = 0u64;
    loop {
        let sampled = i.is_multiple_of(period);
        tracer.set_sampling(sampled);
        let Some(arrival) = source.next_arrival() else {
            break;
        };
        if sampled {
            let _step = tracer.enter("engine.step", id);
            session.step(&arrival, &mut algorithm)?;
        } else {
            session.step(&arrival, &mut algorithm)?;
        }
        i += 1;
    }
    tracer.set_sampling(false);
    Ok(session.finish_into(scratch))
}

/// Which benchmark batch a job belongs to, keyed by the job's seed:
/// `(batch index, index of the batch's span)`. The client registers a
/// batch before submitting it; the dispatcher looks its jobs up, so a
/// dispatch span on the executor thread names the batch that caused it.
pub type BatchIndex = Arc<Mutex<HashMap<u64, (u64, usize)>>>;

/// `dispatch` adapter: times every `run_specs_with_events` call.
pub struct TimedDispatcher<D> {
    inner: D,
    tracer: Arc<Tracer>,
    batches: BatchIndex,
}

impl<D: Dispatcher> TimedDispatcher<D> {
    /// Wraps `inner`.
    pub fn new(inner: D, tracer: Arc<Tracer>, batches: BatchIndex) -> Self {
        TimedDispatcher {
            inner,
            tracer,
            batches,
        }
    }
}

impl<D: Dispatcher> Dispatcher for TimedDispatcher<D> {
    fn run_specs_with_events(
        &self,
        jobs: &[JobSpec],
        sink: &dyn EventSink,
    ) -> Vec<Result<Outcome, Error>> {
        let owner = jobs.first().and_then(|job| {
            let batches = self.batches.lock().expect("batch index poisoned");
            batches.get(&job.seed).copied()
        });
        let (id, parent) = owner.map_or((u64::MAX, None), |(id, span)| (id, Some(span)));
        let mut span = self.tracer.enter_under("dispatch.run_specs", id, parent);
        span.set_work(jobs.len() as u64);
        self.inner.run_specs_with_events(jobs, sink)
    }

    fn lanes(&self) -> usize {
        self.inner.lanes()
    }

    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn fleet(&self) -> Option<FleetHandle> {
        self.inner.fleet()
    }
}

/// `wire` adapter: a `ServeClient` whose verbs are spans when a tracer is
/// attached, and plain calls otherwise.
pub struct TimedClient {
    inner: ServeClient,
    tracer: Option<Arc<Tracer>>,
}

impl TimedClient {
    /// Wraps `inner`, with timing off.
    pub fn new(inner: ServeClient) -> Self {
        TimedClient {
            inner,
            tracer: None,
        }
    }

    /// Turns timing on (or off, with `None`).
    pub fn set_tracer(&mut self, tracer: Option<Arc<Tracer>>) {
        self.tracer = tracer;
    }

    /// The attached tracer, if timing is on.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer.clone()
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        id: u64,
        call: impl FnOnce(&mut ServeClient) -> T,
    ) -> T {
        match &self.tracer {
            Some(tracer) => {
                let tracer = Arc::clone(tracer);
                let _span = tracer.enter(name, id);
                call(&mut self.inner)
            }
            None => call(&mut self.inner),
        }
    }

    /// `ServeClient::submit`; `id` is the benchmark's batch index.
    pub fn submit(&mut self, id: u64, jobs: &[JobSpec]) -> Result<u64, Error> {
        self.timed("wire.submit", id, |c| c.submit(jobs))
    }

    /// `ServeClient::status`.
    pub fn status(&mut self, id: u64, batch: u64) -> Result<BatchStatus, Error> {
        self.timed("wire.status", id, |c| c.status(batch))
    }

    /// `ServeClient::fetch`.
    pub fn fetch(&mut self, id: u64, batch: u64) -> Result<Vec<JobResult>, Error> {
        self.timed("wire.fetch", id, |c| c.fetch(batch))
    }
}
