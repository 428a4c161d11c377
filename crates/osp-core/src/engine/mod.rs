//! The online execution engine.
//!
//! Entry points:
//!
//! * [`run_source`] drives an [`OnlineAlgorithm`] over any
//!   [`ArrivalSource`] — the primary ingestion path. Sources stream
//!   arrivals one at a time (a fused generator, a packet trace, a
//!   materialized instance), so scenario size is bounded by the source's
//!   resident state, not by RAM holding a hypergraph.
//! * [`run`] replays a frozen [`Instance`]'s arrival sequence — the
//!   standard evaluation path. It is a thin wrapper over the same loop
//!   via [`Instance::source`]: a materialized instance is just one
//!   [`ArrivalSource`] whose arrivals are zero-copy views into its CSR
//!   arena, so there is exactly one engine loop for both worlds.
//! * [`run_source_with`] is the configurable replay: a thread count and
//!   caller-provided [`batch::ReplayScratch`], so consecutive replays
//!   reuse the engine's buffers. One thread is the serial loop of
//!   [`run_source`]; two or more run the pipeline of [`parallel`], which
//!   overlaps arrival generation with deciding. Bit-identical to
//!   [`run_source`] at any thread count.
//! * [`Session`] drives an algorithm *one arrival at a time* without a
//!   pre-built instance, which is what adaptive adversaries (Theorem 3)
//!   need: they decide the next element only after seeing the algorithm's
//!   previous choice. [`Session::drain_source`] feeds it from a source.
//! * [`batch`] fans a work-list across threads ([`batch::ReplayPool`])
//!   with per-shard reusable [`batch::ReplayScratch`] buffers — the
//!   streamed `(source × seed × algorithm)` lane
//!   ([`batch::ReplayPool::run_sources`]) and the spec lane
//!   ([`batch::ReplayPool::run_specs`]); outcomes are bit-identical to
//!   sequential replay because every path executes this module's
//!   [`Session`] logic.
//! * [`dispatch`] runs **data-driven job specs**
//!   ([`JobSpec`](crate::spec::JobSpec)) behind the backend-agnostic
//!   [`dispatch::Dispatcher`] contract: [`dispatch::SpecPool`] resolves
//!   specs on thread shards, [`dispatch::ProcessPool`] ships them to
//!   `osp-worker` child processes over the framed wire protocol
//!   ([`wire`](crate::wire)) — the distribution axis, since a spec that
//!   crosses a process boundary crosses a socket unchanged. Outcomes stay
//!   bit-identical to sequential [`run_spec`](crate::spec::run_spec) at
//!   any lane count.
//! * [`dispatch::SocketPool`] extends the same contract **across the
//!   network**: a fleet of `osp-worker --listen` endpoints
//!   (TCP/Unix-domain) spoken to over the identical frames, with
//!   handshake, heartbeat, connect retry/backoff, read deadlines, and
//!   chunk re-dispatch to surviving workers when one dies mid-batch —
//!   the cluster entry point. Faults move jobs between workers but never
//!   change results, because outcomes are pure functions of the specs
//!   (pinned by `tests/socket_pool_conformance.rs`, including under
//!   injected [`FaultPlan`](crate::wire::FaultPlan) kills).
//! * [`serve`](crate::serve) hosts any [`dispatch::Dispatcher`] behind a
//!   long-running front door: [`ReplayService`](crate::serve::ReplayService)
//!   executes submitted batches from a bounded queue on a background
//!   executor with a content-addressed results cache, and
//!   [`ServeServer`](crate::serve::ServeServer) /
//!   [`ServeClient`](crate::serve::ServeClient) put the
//!   submit → status → fetch → cancel flow on the same framed wire the
//!   workers speak (`osp-serve --listen`) — the service entry point.
//!   Served outcomes stay bit-identical to sequential
//!   [`run_spec`](crate::spec::run_spec) whatever backend executes them
//!   (pinned by `tests/replay_service.rs`, including across a
//!   fault-injected fleet and cache resubmission).
//! * [`store`](crate::store) makes the service **crash-safe**: the
//!   results cache behind a [`ResultStore`](crate::store::ResultStore)
//!   seam — LRU-bounded in memory
//!   ([`MemStore`](crate::store::MemStore)), journaled to disk with
//!   checksummed records, torn-tail recovery, and snapshot compaction
//!   ([`JournalStore`](crate::store::JournalStore)). With
//!   `osp-serve --state-dir`, batch manifests checkpoint at every chunk
//!   boundary, so a `kill -9` mid-batch resumes on restart recomputing
//!   only unjournaled jobs; and the [`dispatch::SocketPool`] fleet is
//!   *supervised* — excluded workers are probed with capped exponential
//!   backoff ([`dispatch::RejoinPolicy`]) and re-admitted when they come
//!   back, with membership editable at runtime over the serve wire's
//!   `fleet` verb ([`dispatch::FleetHandle`]). Pinned by
//!   `tests/crash_recovery.rs` against the real binaries.
//!
//! Inside one replay the arrival loop stays sequential — decisions are
//! order-dependent — and [`parallel`] holds the only parts that fan out:
//! the O(m) `begin` table fill and the sharded score fill of very wide
//! decisions (both through [`parallel::fill_sharded`]), and the pipeline.
//! One knob, `OSP_REPLAY_THREADS` ([`parallel::replay_threads`]), sizes
//! all of them, and every golden outcome stays bit-identical at any
//! value.
//!
//! All paths enforce the model's rules (§2): each decision must pick at
//! most `b(u)` distinct sets from `C(u)`. A set is **completed** iff it was
//! chosen for every one of its elements; the [`Outcome`] records the
//! completed sets, the benefit, every decision (as a flat [`DecisionLog`]),
//! and when each non-surviving set died.
//!
//! The per-arrival hot path is allocation-free: algorithms write decisions
//! into a recycled buffer ([`OnlineAlgorithm::decide_into`]), the engine
//! validates a multi-set decision in another recycled buffer, and the
//! decision log accumulates in two flat CSR vectors — all handed from job
//! to job via [`batch::ReplayScratch`], so a warm shard performs zero heap
//! allocations per arrival. Each set's state is one 12-byte record
//! (assigned count and death element), and validation and apply are one
//! forward walk over the arrival's sorted member list each, so a step
//! touches one record per member set.

pub mod batch;
pub mod dispatch;
pub mod parallel;

use crate::algorithm::{EngineView, OnlineAlgorithm};
use crate::error::Error;
use crate::ids::{ElementId, SetId};
use crate::instance::{Arrival, Instance, SetMeta};
use crate::source::ArrivalSource;

pub use batch::{derive_seed, ReplayPool, ReplayScratch};

/// One set's bookkeeping during a replay, packed into one 12-byte record
/// so an arrival reads and writes one place per member set instead of
/// three parallel arrays: how many of its elements the set has received,
/// and the element at which it died (its first element *not* assigned to
/// it). A set is alive ("active", §2)
/// while `died_at` is `None`. No sentinel value stands in for "alive":
/// a [`Session`] accepts any [`ElementId`], `u32::MAX` included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SetState {
    pub(crate) assigned: u32,
    pub(crate) died_at: Option<ElementId>,
}

const _: () = assert!(std::mem::size_of::<SetState>() == 12);

/// A flat record of every decision of a run: one CSR arena (offsets +
/// data) instead of a `Vec<SetId>` per arrival, so logging a decision is
/// two appends into warm buffers and reading the log back walks one
/// contiguous allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionLog {
    /// `offsets.len() == len() + 1`; arrival `i`'s decision is
    /// `data[offsets[i]..offsets[i+1]]`.
    offsets: Vec<u32>,
    data: Vec<SetId>,
}

impl Default for DecisionLog {
    fn default() -> Self {
        DecisionLog {
            offsets: vec![0],
            data: Vec::new(),
        }
    }
}

impl DecisionLog {
    /// An empty log.
    pub fn new() -> Self {
        DecisionLog::default()
    }

    /// Number of decisions recorded (= arrivals replayed).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether no decision has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The decision taken for arrival `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<&[SetId]> {
        if i >= self.len() {
            return None;
        }
        Some(&self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }

    /// Total number of `(element, set)` assignments across all decisions.
    pub fn total_assignments(&self) -> usize {
        self.data.len()
    }

    /// Iterates the decisions in arrival order.
    pub fn iter(&self) -> DecisionLogIter<'_> {
        DecisionLogIter { log: self, next: 0 }
    }

    /// Appends one decision.
    fn push(&mut self, decision: &[SetId]) {
        self.data.extend_from_slice(decision);
        self.offsets.push(self.data.len() as u32);
    }

    /// Clears the log, keeping both buffers' capacity.
    fn clear(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.data.clear();
    }

    /// A right-sized deep copy (fresh exact-capacity allocations), leaving
    /// `self` — and its warm capacity — in place for reuse.
    fn snapshot(&self) -> DecisionLog {
        DecisionLog {
            offsets: self.offsets.as_slice().to_vec(),
            data: self.data.as_slice().to_vec(),
        }
    }

    /// Reassembles a log from its raw CSR parts — the deserialization
    /// entry point for logs that crossed a process boundary
    /// ([`wire`](crate::wire)).
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] unless `offsets` is non-empty, starts at 0, is
    /// non-decreasing, and ends exactly at `data.len()` — the invariants
    /// every engine-produced log holds.
    pub fn from_parts(offsets: Vec<u32>, data: Vec<SetId>) -> Result<DecisionLog, Error> {
        if offsets.first() != Some(&0) {
            return Err(Error::Protocol(
                "decision log offsets must start at 0".into(),
            ));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(Error::Protocol(
                "decision log offsets must be non-decreasing".into(),
            ));
        }
        if offsets.last().copied() != Some(data.len() as u32) || data.len() > u32::MAX as usize {
            return Err(Error::Protocol(
                "decision log offsets must end at the data length".into(),
            ));
        }
        Ok(DecisionLog { offsets, data })
    }

    /// The raw CSR parts `(offsets, data)` — the serialization twin of
    /// [`from_parts`](Self::from_parts).
    pub fn as_parts(&self) -> (&[u32], &[SetId]) {
        (&self.offsets, &self.data)
    }
}

impl serde::Serialize for DecisionLog {
    fn serialize(&self, ser: &mut serde::Serializer<'_>) {
        let mut map = ser.map();
        map.field("offsets", &self.offsets);
        map.field("data", &self.data);
        map.end();
    }
}

impl serde::Deserialize for DecisionLog {
    fn deserialize(de: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        let (mut offsets, mut data) = (None, None);
        de.map(|key, de| match key {
            "offsets" => de.fill(&mut offsets),
            "data" => de.fill(&mut data),
            _ => de.skip_value(),
        })?;
        DecisionLog::from_parts(
            serde::required(offsets, "offsets")?,
            serde::required(data, "data")?,
        )
        .map_err(|e| serde::Error::msg(e.to_string()))
    }
}

impl<'a> IntoIterator for &'a DecisionLog {
    type Item = &'a [SetId];
    type IntoIter = DecisionLogIter<'a>;

    fn into_iter(self) -> DecisionLogIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`DecisionLog`]'s per-arrival decision slices.
#[derive(Debug, Clone)]
pub struct DecisionLogIter<'a> {
    log: &'a DecisionLog,
    next: usize,
}

impl<'a> Iterator for DecisionLogIter<'a> {
    type Item = &'a [SetId];

    fn next(&mut self) -> Option<&'a [SetId]> {
        let d = self.log.get(self.next)?;
        self.next += 1;
        Some(d)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.log.len() - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for DecisionLogIter<'_> {}
impl std::iter::FusedIterator for DecisionLogIter<'_> {}

/// The result of one online run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    completed: Vec<SetId>,
    benefit: f64,
    decisions: DecisionLog,
    died_at: Vec<Option<ElementId>>,
}

impl Outcome {
    /// The sets the algorithm completed, ascending by id.
    pub fn completed(&self) -> &[SetId] {
        &self.completed
    }

    /// Total weight of completed sets — `w(alg)` in the paper.
    pub fn benefit(&self) -> f64 {
        self.benefit
    }

    /// The decision taken for each arrival, in arrival order, as a flat
    /// [`DecisionLog`].
    pub fn decisions(&self) -> &DecisionLog {
        &self.decisions
    }

    /// For each set, the element at which it died (its first element *not*
    /// assigned to it), or `None` if it never missed an element.
    ///
    /// Querying a [`SetId`] that does not belong to the replayed instance
    /// (e.g. an id minted for a different, larger instance) returns `None`
    /// rather than panicking.
    pub fn died_at(&self, set: SetId) -> Option<ElementId> {
        self.died_at.get(set.index()).copied().flatten()
    }

    /// Whether the given set was completed.
    pub fn is_completed(&self, set: SetId) -> bool {
        self.completed.binary_search(&set).is_ok()
    }

    /// Reassembles an outcome from its parts — the deserialization entry
    /// point for outcomes that crossed a process boundary
    /// ([`wire`](crate::wire)). `died_at` is indexed by set, in set-id
    /// order.
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] if `completed` is not strictly ascending or
    /// `benefit` is not finite (the structural invariants every
    /// engine-produced outcome holds; deeper consistency would need the
    /// instance, which by design is not on the wire).
    pub fn from_parts(
        completed: Vec<SetId>,
        benefit: f64,
        decisions: DecisionLog,
        died_at: Vec<Option<ElementId>>,
    ) -> Result<Outcome, Error> {
        if completed.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::Protocol(
                "completed sets must be strictly ascending".into(),
            ));
        }
        if !benefit.is_finite() {
            return Err(Error::Protocol("benefit must be finite".into()));
        }
        Ok(Outcome {
            completed,
            benefit,
            decisions,
            died_at,
        })
    }
}

impl serde::Serialize for Outcome {
    fn serialize(&self, ser: &mut serde::Serializer<'_>) {
        let mut map = ser.map();
        map.field("completed", &self.completed);
        map.field("benefit", &self.benefit);
        map.field("decisions", &self.decisions);
        map.field("died_at", &self.died_at);
        map.end();
    }
}

impl serde::Deserialize for Outcome {
    fn deserialize(de: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        let (mut completed, mut benefit, mut decisions, mut died_at) = (None, None, None, None);
        de.map(|key, de| match key {
            "completed" => de.fill(&mut completed),
            "benefit" => de.fill(&mut benefit),
            "decisions" => de.fill(&mut decisions),
            "died_at" => de.fill(&mut died_at),
            _ => de.skip_value(),
        })?;
        Outcome::from_parts(
            serde::required(completed, "completed")?,
            serde::required(benefit, "benefit")?,
            serde::required(decisions, "decisions")?,
            serde::required(died_at, "died_at")?,
        )
        .map_err(|e| serde::Error::msg(e.to_string()))
    }
}

/// An incremental online run: feed arrivals one at a time, inspect the
/// algorithm's choices between them.
///
/// The session keeps one record per set — the number of elements it has
/// received and the element at which it died, if it has — in a single
/// `Vec`, so each arrival reads and writes one record per member set.
///
/// # Examples
///
/// ```
/// use osp_core::prelude::*;
/// use osp_core::engine::Session;
///
/// let sets = vec![];
/// let mut alg = RandPr::from_seed(0);
/// let session = Session::new(&sets, &mut alg);
/// let outcome = session.finish();
/// assert_eq!(outcome.benefit(), 0.0);
/// ```
#[derive(Debug)]
pub struct Session<'a> {
    sets: &'a [SetMeta],
    /// Per-set bookkeeping, indexed by set id.
    state: Vec<SetState>,
    decisions: DecisionLog,
    /// The algorithm's decision target, reused across arrivals.
    decision_buf: Vec<SetId>,
    /// Validation scratch reused across arrivals: the sorted copy of a
    /// decision of two or more sets, so the per-arrival hot path
    /// allocates nothing of its own.
    sorted: Vec<SetId>,
}

impl<'a> Session<'a> {
    /// Starts a session over the declared sets and announces them to the
    /// algorithm (calls [`OnlineAlgorithm::begin`]).
    pub fn new<A: OnlineAlgorithm + ?Sized>(sets: &'a [SetMeta], algorithm: &mut A) -> Self {
        let mut scratch = ReplayScratch::new();
        Session::with_scratch(sets, algorithm, &mut scratch)
    }

    /// Like [`new`](Self::new), but recycles the buffers held by `scratch`
    /// instead of allocating fresh ones — the batch replay path calls this
    /// once per job so consecutive replays on a shard reuse one set of
    /// buffers. Return them with [`finish_into`](Self::finish_into).
    pub fn with_scratch<A: OnlineAlgorithm + ?Sized>(
        sets: &'a [SetMeta],
        algorithm: &mut A,
        scratch: &mut ReplayScratch,
    ) -> Self {
        algorithm.begin(sets);
        let mut state = std::mem::take(&mut scratch.state);
        state.clear();
        state.resize(sets.len(), SetState::default());
        let mut decisions = std::mem::take(&mut scratch.decisions);
        decisions.clear();
        let mut decision_buf = std::mem::take(&mut scratch.decision_buf);
        decision_buf.clear();
        let mut sorted = std::mem::take(&mut scratch.sorted);
        sorted.clear();
        Session {
            sets,
            state,
            decisions,
            decision_buf,
            sorted,
        }
    }

    /// Number of arrivals processed so far.
    pub fn arrivals_seen(&self) -> usize {
        self.decisions.len()
    }

    /// Whether `set` is still completable (chosen for every element so far).
    pub fn is_active(&self, set: SetId) -> bool {
        self.state[set.index()].died_at.is_none()
    }

    /// How many elements have been assigned to `set`.
    pub fn assigned(&self, set: SetId) -> u32 {
        self.state[set.index()].assigned
    }

    /// Number of currently active sets.
    pub fn active_count(&self) -> usize {
        self.state.iter().filter(|s| s.died_at.is_none()).count()
    }

    /// Iterates the ids of all currently active sets, ascending, without
    /// materializing them.
    pub fn active_sets_iter(&self) -> impl Iterator<Item = SetId> + '_ {
        self.state
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.died_at.is_none().then_some(SetId(i as u32)))
    }

    /// The ids of all currently active sets, ascending. Prefer
    /// [`active_sets_iter`](Self::active_sets_iter) (or
    /// [`active_count`](Self::active_count)) when a materialized vector is
    /// not actually needed.
    pub fn active_sets(&self) -> Vec<SetId> {
        self.active_sets_iter().collect()
    }

    /// A read-only [`EngineView`] of the current session state — what an
    /// algorithm would see if asked to decide right now. Useful when the
    /// decision is computed outside [`offer`](Self::offer) (e.g. by a
    /// remote replica in a distributed setup) and applied via
    /// [`apply_external`](Self::apply_external).
    pub fn view(&self) -> EngineView<'_> {
        EngineView::new(self.sets, &self.state)
    }

    /// Offers the next arrival to the algorithm, validates its decision,
    /// applies it, and returns a copy of the decision.
    ///
    /// # Errors
    ///
    /// Returns an error if the decision violates the model: a set not
    /// containing the element, a duplicated set, or more than `b(u)` sets.
    /// The session state is unchanged on error.
    pub fn offer<A: OnlineAlgorithm + ?Sized>(
        &mut self,
        arrival: &Arrival<'_>,
        algorithm: &mut A,
    ) -> Result<Vec<SetId>, Error> {
        self.step(arrival, algorithm)?;
        Ok(self
            .decisions
            .get(self.decisions.len() - 1)
            .expect("step just recorded a decision")
            .to_vec())
    }

    /// Like [`offer`](Self::offer), but does not echo a copy of the
    /// decision back — the replay paths ([`run`], [`batch`]) use this so
    /// a warm session performs zero heap allocations per arrival: the
    /// algorithm writes into the session's recycled decision buffer
    /// ([`OnlineAlgorithm::decide_into`]) and the decision is appended to
    /// the flat [`DecisionLog`].
    ///
    /// # Errors
    ///
    /// Same contract as [`offer`](Self::offer); the session state is
    /// unchanged on error.
    pub fn step<A: OnlineAlgorithm + ?Sized>(
        &mut self,
        arrival: &Arrival<'_>,
        algorithm: &mut A,
    ) -> Result<(), Error> {
        // Take the buffer so the algorithm can borrow a view of `self`
        // while writing into it (`mem::take` on a Vec never allocates).
        let mut buf = std::mem::take(&mut self.decision_buf);
        buf.clear();
        {
            let view = EngineView::new(self.sets, &self.state);
            algorithm.decide_into(arrival, &view, &mut buf);
        }
        let verdict = self.validate(arrival, &buf);
        if verdict.is_ok() {
            self.apply_validated(arrival, &buf);
        }
        self.decision_buf = buf;
        verdict
    }

    /// Feeds every remaining arrival of `source` through
    /// [`step`](Self::step) — the source-generic way to drive a session to
    /// the end of a stream. The session must have been created over the
    /// same set metadata the source declares.
    ///
    /// # Errors
    ///
    /// Returns the first invalid decision ([`step`](Self::step)'s
    /// contract); arrivals already applied stay applied, and the source is
    /// left positioned after the offending arrival.
    pub fn drain_source<S, A>(&mut self, source: &mut S, algorithm: &mut A) -> Result<(), Error>
    where
        S: ArrivalSource + ?Sized,
        A: OnlineAlgorithm + ?Sized,
    {
        while let Some(arrival) = source.next_arrival() {
            self.step(&arrival, algorithm)?;
        }
        Ok(())
    }

    /// Validates and applies a decision computed outside this session
    /// (e.g. by a per-hop replica in the distributed implementation).
    /// Returns the decision back on success.
    ///
    /// # Errors
    ///
    /// Same contract as [`offer`](Self::offer); the session state is
    /// unchanged on error.
    pub fn apply_external(
        &mut self,
        arrival: &Arrival<'_>,
        decision: Vec<SetId>,
    ) -> Result<Vec<SetId>, Error> {
        self.validate(arrival, &decision)?;
        self.apply_validated(arrival, &decision);
        Ok(decision)
    }

    /// Checks the model's rules without touching session state. A
    /// decision of two or more sets is copied into `self.sorted`, sorted
    /// and checked for duplicates; then one forward walk over the
    /// ascending member list checks membership. Errors keep their
    /// precedence: over capacity, then the lowest duplicate, then the
    /// lowest non-member.
    fn validate(&mut self, arrival: &Arrival<'_>, decision: &[SetId]) -> Result<(), Error> {
        if decision.len() > arrival.capacity() as usize {
            return Err(Error::DecisionOverCapacity {
                element: arrival.element(),
                capacity: arrival.capacity(),
                chosen: decision.len(),
            });
        }
        if decision.len() > 1 {
            self.sorted.clear();
            self.sorted.extend_from_slice(decision);
            self.sorted.sort_unstable();
            if let Some(w) = self.sorted.windows(2).find(|w| w[0] == w[1]) {
                return Err(Error::DecisionDuplicate {
                    element: arrival.element(),
                    set: w[0],
                });
            }
        }
        let chosen = if decision.len() > 1 {
            &self.sorted[..]
        } else {
            decision
        };
        let members = arrival.members();
        let mut i = 0;
        for &s in chosen {
            while i < members.len() && members[i] < s {
                i += 1;
            }
            if members.get(i) != Some(&s) {
                return Err(Error::DecisionNotMember {
                    element: arrival.element(),
                    set: s,
                });
            }
            i += 1;
        }
        Ok(())
    }

    /// Applies a decision that [`validate`](Self::validate) just accepted
    /// (`self.sorted` still holds the sorted copy of a multi-set
    /// decision) in one forward walk over the members: chosen member sets
    /// advance, unchosen ones die.
    fn apply_validated(&mut self, arrival: &Arrival<'_>, decision: &[SetId]) {
        let chosen = if decision.len() > 1 {
            &self.sorted[..]
        } else {
            decision
        };
        let mut next = 0;
        for &s in arrival.members() {
            let state = &mut self.state[s.index()];
            if chosen.get(next) == Some(&s) {
                state.assigned += 1;
                next += 1;
            } else if state.died_at.is_none() {
                state.died_at = Some(arrival.element());
            }
        }
        self.decisions.push(decision);
    }

    /// Ends the session: a set is completed iff it is alive *and* has
    /// received its full declared size.
    pub fn finish(self) -> Outcome {
        self.finish_impl(None)
    }

    /// Like [`finish`](Self::finish), but hands the session's reusable
    /// buffers back to `scratch` so the next
    /// [`with_scratch`](Self::with_scratch) session can recycle them. The
    /// returned [`Outcome`] owns right-sized copies of the decision log and
    /// death records (one exact-size allocation each, per job — never per
    /// arrival).
    pub fn finish_into(self, scratch: &mut ReplayScratch) -> Outcome {
        self.finish_impl(Some(scratch))
    }

    fn finish_impl(mut self, scratch: Option<&mut ReplayScratch>) -> Outcome {
        let completed: Vec<SetId> = self
            .state
            .iter()
            .zip(self.sets)
            .enumerate()
            .filter(|(_, (state, meta))| state.died_at.is_none() && state.assigned == meta.size())
            .map(|(i, _)| SetId(i as u32))
            .collect();
        let benefit = completed
            .iter()
            .map(|&s| self.sets[s.index()].weight())
            .sum();
        let died_at = self.state.iter().map(|s| s.died_at).collect();
        let decisions = match scratch {
            Some(scratch) => {
                let decisions = self.decisions.snapshot();
                scratch.state = std::mem::take(&mut self.state);
                scratch.decisions = std::mem::take(&mut self.decisions);
                scratch.decision_buf = std::mem::take(&mut self.decision_buf);
                scratch.sorted = std::mem::take(&mut self.sorted);
                decisions
            }
            None => self.decisions,
        };
        Outcome {
            completed,
            benefit,
            decisions,
            died_at,
        }
    }
}

/// Runs `algorithm` over `instance` and returns the [`Outcome`].
///
/// # Errors
///
/// Returns an error if the algorithm emits an invalid decision: a set not
/// containing the element, a duplicated set, or more than `b(u)` sets.
///
/// # Examples
///
/// ```
/// use osp_core::prelude::*;
///
/// let mut b = InstanceBuilder::new();
/// let s = b.add_set(1.0, 1);
/// b.add_element(1, &[s]);
/// let inst = b.build()?;
/// let outcome = run(&inst, &mut GreedyOnline::new(TieBreak::ByWeight))?;
/// assert_eq!(outcome.benefit(), 1.0);
/// # Ok::<(), osp_core::Error>(())
/// ```
pub fn run<A: OnlineAlgorithm + ?Sized>(
    instance: &Instance,
    algorithm: &mut A,
) -> Result<Outcome, Error> {
    replay_serial(&mut instance.source(), algorithm, &mut ReplayScratch::new())
}

/// Runs `algorithm` over every arrival `source` yields and returns the
/// [`Outcome`] — the streaming twin of [`run`]. The source's set metadata
/// is announced to the algorithm up front; arrivals are pulled one at a
/// time and never retained, so memory is bounded by the source's resident
/// state (O(m) for the fused generator sources), not the stream length.
///
/// # Errors
///
/// Returns an error if the algorithm emits an invalid decision: a set not
/// containing the element, a duplicated set, or more than `b(u)` sets.
///
/// # Examples
///
/// ```
/// use osp_core::prelude::*;
///
/// let mut b = InstanceBuilder::new();
/// let s = b.add_set(1.0, 1);
/// b.add_element(1, &[s]);
/// let inst = b.build()?;
/// // A materialized instance is just one kind of source.
/// let outcome = run_source(&mut inst.source(), &mut GreedyOnline::new(TieBreak::ByWeight))?;
/// assert_eq!(outcome.benefit(), 1.0);
/// # Ok::<(), osp_core::Error>(())
/// ```
pub fn run_source<S, A>(source: &mut S, algorithm: &mut A) -> Result<Outcome, Error>
where
    S: ArrivalSource + ?Sized,
    A: OnlineAlgorithm + ?Sized,
{
    replay_serial(source, algorithm, &mut ReplayScratch::new())
}

/// [`run_source`] with a thread count and caller-provided
/// [`ReplayScratch`] — the one configurable replay. Consecutive calls on
/// one scratch reuse the engine's buffers, and the outcome is
/// bit-identical to [`run_source`]'s at every `threads` value.
///
/// `threads` is first announced to the algorithm as its decision hint
/// ([`OnlineAlgorithm::set_decision_threads`]), so arrivals wider than
/// [`parallel::SHARDED_DECIDE_MIN`] can shard their score fill. Then
/// `threads <= 1` runs the serial loop on the caller's thread, and
/// `threads >= 2` runs the pipeline ([`parallel`]): one producer thread
/// copies arrivals into recycled chunk arenas while the caller's thread
/// decides. Pass [`parallel::replay_threads`] to follow
/// `OSP_REPLAY_THREADS`.
///
/// # Errors
///
/// Same contract as [`run_source`].
///
/// # Examples
///
/// ```
/// use osp_core::prelude::*;
///
/// let mut b = InstanceBuilder::new();
/// let s = b.add_set(1.0, 1);
/// b.add_element(1, &[s]);
/// let inst = b.build()?;
/// let mut scratch = ReplayScratch::new();
/// let mut alg = GreedyOnline::new(TieBreak::ByWeight);
/// let pipelined = run_source_with(&mut inst.source(), &mut alg, 2, &mut scratch)?;
/// let serial = run(&inst, &mut GreedyOnline::new(TieBreak::ByWeight))?;
/// assert_eq!(pipelined, serial);
/// # Ok::<(), osp_core::Error>(())
/// ```
pub fn run_source_with<S, A>(
    source: &mut S,
    algorithm: &mut A,
    threads: usize,
    scratch: &mut ReplayScratch,
) -> Result<Outcome, Error>
where
    S: ArrivalSource + Send + ?Sized,
    A: OnlineAlgorithm + ?Sized,
{
    algorithm.set_decision_threads(threads.max(1));
    if threads <= 1 {
        replay_serial(source, algorithm, scratch)
    } else {
        parallel::pipeline(source, algorithm, parallel::PIPELINE_CHUNK, scratch)
    }
}

/// The serial replay loop. Needs no `Send` bound, which is why the spec
/// lane (boxed resolver sources) replays through it.
pub(crate) fn replay_serial<S, A>(
    source: &mut S,
    algorithm: &mut A,
    scratch: &mut ReplayScratch,
) -> Result<Outcome, Error>
where
    S: ArrivalSource + ?Sized,
    A: OnlineAlgorithm + ?Sized,
{
    replay_in(source, algorithm, scratch, |session, source, algorithm| {
        session.drain_source(source, algorithm)
    })
}

/// The frame both replay loops share: opens a [`Session`] over `source`'s
/// set metadata on recycled `scratch` buffers, lets `drive` feed it, and
/// finishes it. The metadata is copied into a scratch-recycled buffer
/// (one warm `memcpy` of `m` entries per job — never per arrival) so the
/// source stays free for mutable pulls while the session borrows the
/// metas.
fn replay_in<S, A>(
    source: &mut S,
    algorithm: &mut A,
    scratch: &mut ReplayScratch,
    drive: impl FnOnce(&mut Session<'_>, &mut S, &mut A) -> Result<(), Error>,
) -> Result<Outcome, Error>
where
    S: ArrivalSource + ?Sized,
    A: OnlineAlgorithm + ?Sized,
{
    let mut metas = std::mem::take(&mut scratch.set_metas);
    metas.clear();
    metas.extend_from_slice(source.sets());
    let mut session = Session::with_scratch(&metas, algorithm, scratch);
    let outcome = drive(&mut session, source, algorithm).map(|()| session.finish_into(scratch));
    scratch.set_metas = metas;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Arrival, InstanceBuilder, SetMeta};

    /// Scripted algorithm replaying canned decisions (tests only).
    struct Scripted {
        script: Vec<Vec<SetId>>,
        step: usize,
    }

    impl Scripted {
        fn new(script: Vec<Vec<SetId>>) -> Self {
            Scripted { script, step: 0 }
        }
    }

    impl OnlineAlgorithm for Scripted {
        fn name(&self) -> String {
            "scripted".into()
        }

        fn begin(&mut self, _sets: &[SetMeta]) {
            self.step = 0;
        }

        fn decide_into(
            &mut self,
            _arrival: &Arrival<'_>,
            _view: &EngineView<'_>,
            out: &mut Vec<SetId>,
        ) {
            out.extend_from_slice(&self.script[self.step]);
            self.step += 1;
        }
    }

    fn three_set_instance() -> (crate::Instance, [SetId; 3]) {
        // s0 = {e0, e1}, s1 = {e0, e2}, s2 = {e2}
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(1.0, 2);
        let s1 = b.add_set(5.0, 2);
        let s2 = b.add_set(2.0, 1);
        b.add_element(1, &[s0, s1]);
        b.add_element(1, &[s0]);
        b.add_element(1, &[s1, s2]);
        (b.build().unwrap(), [s0, s1, s2])
    }

    #[test]
    fn completion_requires_every_element() {
        let (inst, [s0, s1, s2]) = three_set_instance();
        // Give e0 to s0, e1 to s0, e2 to s2: s0 and s2 complete.
        let mut alg = Scripted::new(vec![vec![s0], vec![s0], vec![s2]]);
        let out = run(&inst, &mut alg).unwrap();
        assert_eq!(out.completed(), &[s0, s2]);
        assert_eq!(out.benefit(), 3.0);
        assert!(out.is_completed(s0));
        assert!(!out.is_completed(s1));
        assert_eq!(out.died_at(s1), Some(ElementId(0)));
        assert_eq!(out.died_at(s0), None);
    }

    #[test]
    fn losing_any_element_kills_the_set() {
        let (inst, [s0, s1, _s2]) = three_set_instance();
        // Give e0 to s1, then abandon it at e2.
        let mut alg = Scripted::new(vec![vec![s1], vec![s0], vec![]]);
        let out = run(&inst, &mut alg).unwrap();
        // s0 lost e0, s1 lost e2, s2 lost e2: nothing completes.
        assert!(out.completed().is_empty());
        assert_eq!(out.benefit(), 0.0);
        assert_eq!(out.died_at(s1), Some(ElementId(2)));
    }

    #[test]
    fn empty_decision_is_legal() {
        let (inst, _) = three_set_instance();
        let mut alg = Scripted::new(vec![vec![], vec![], vec![]]);
        let out = run(&inst, &mut alg).unwrap();
        assert!(out.completed().is_empty());
        assert_eq!(out.decisions().len(), 3);
        assert!(out.decisions().iter().all(|d| d.is_empty()));
    }

    #[test]
    fn decision_log_records_per_arrival_slices() {
        let (inst, [s0, _, s2]) = three_set_instance();
        let mut alg = Scripted::new(vec![vec![s0], vec![], vec![s2]]);
        let out = run(&inst, &mut alg).unwrap();
        let log = out.decisions();
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        assert_eq!(log.get(0), Some(&[s0][..]));
        assert_eq!(log.get(1), Some(&[][..]));
        assert_eq!(log.get(2), Some(&[s2][..]));
        assert_eq!(log.get(3), None);
        assert_eq!(log.total_assignments(), 2);
        let collected: Vec<&[SetId]> = log.iter().collect();
        assert_eq!(collected, vec![&[s0][..], &[][..], &[s2][..]]);
        // IntoIterator for &DecisionLog drives plain `for` loops.
        let mut count = 0;
        for d in log {
            count += d.len();
        }
        assert_eq!(count, 2);
    }

    #[test]
    fn capacity_two_allows_two_assignments() {
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(1.0, 1);
        let s1 = b.add_set(1.0, 1);
        b.add_element(2, &[s0, s1]);
        let inst = b.build().unwrap();
        let mut alg = Scripted::new(vec![vec![s0, s1]]);
        let out = run(&inst, &mut alg).unwrap();
        assert_eq!(out.completed(), &[s0, s1]);
        assert_eq!(out.benefit(), 2.0);
    }

    #[test]
    fn over_capacity_rejected() {
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(1.0, 1);
        let s1 = b.add_set(1.0, 1);
        b.add_element(1, &[s0, s1]);
        let inst = b.build().unwrap();
        let mut alg = Scripted::new(vec![vec![s0, s1]]);
        assert!(matches!(
            run(&inst, &mut alg).unwrap_err(),
            Error::DecisionOverCapacity { .. }
        ));
    }

    #[test]
    fn non_member_choice_rejected() {
        let (inst, [_, _, s2]) = three_set_instance();
        let mut alg = Scripted::new(vec![vec![s2], vec![], vec![]]);
        assert!(matches!(
            run(&inst, &mut alg).unwrap_err(),
            Error::DecisionNotMember { .. }
        ));
    }

    #[test]
    fn duplicate_choice_rejected() {
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(1.0, 1);
        let s1 = b.add_set(1.0, 1);
        b.add_element(2, &[s0, s1]);
        let inst = b.build().unwrap();
        let mut alg = Scripted::new(vec![vec![s0, s0]]);
        assert!(matches!(
            run(&inst, &mut alg).unwrap_err(),
            Error::DecisionDuplicate { .. }
        ));
    }

    #[test]
    fn view_reports_progress_and_death() {
        struct Checker {
            seen: Vec<(u32, bool)>,
        }
        impl OnlineAlgorithm for Checker {
            fn name(&self) -> String {
                "checker".into()
            }
            fn begin(&mut self, _s: &[SetMeta]) {}
            fn decide_into(&mut self, a: &Arrival<'_>, v: &EngineView<'_>, _out: &mut Vec<SetId>) {
                let s0 = SetId(0);
                self.seen.push((v.assigned(s0), v.is_active(s0)));
                // Always refuse everything.
                let _ = a;
            }
        }
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(1.0, 2);
        b.add_element(1, &[s0]);
        b.add_element(1, &[s0]);
        let inst = b.build().unwrap();
        let mut alg = Checker { seen: vec![] };
        let _ = run(&inst, &mut alg).unwrap();
        // Before e0: 0 assigned, active. Before e1: still 0 assigned, dead.
        assert_eq!(alg.seen, vec![(0, true), (0, false)]);
    }

    #[test]
    fn outcome_on_empty_instance() {
        let inst = InstanceBuilder::new().build().unwrap();
        let mut alg = Scripted::new(vec![]);
        let out = run(&inst, &mut alg).unwrap();
        assert!(out.completed().is_empty());
        assert_eq!(out.benefit(), 0.0);
    }

    #[test]
    fn session_supports_adaptive_use() {
        // Adversary watches the first decision and reacts.
        let metas: Vec<SetMeta> = {
            let mut b = InstanceBuilder::new();
            let s0 = b.add_set(1.0, 1);
            let s1 = b.add_set(1.0, 2);
            b.add_element(1, &[s0, s1]);
            b.add_element(1, &[s1]);
            b.build().unwrap().sets().to_vec()
        };
        let mut alg = Scripted::new(vec![vec![SetId(1)], vec![SetId(1)]]);
        let mut session = Session::new(&metas, &mut alg);
        let a0 = Arrival::new(ElementId(0), 1, &[SetId(0), SetId(1)]);
        let d0 = session.offer(&a0, &mut alg).unwrap();
        assert_eq!(d0, vec![SetId(1)]);
        assert!(!session.is_active(SetId(0)));
        assert_eq!(session.active_sets(), vec![SetId(1)]);
        assert_eq!(session.active_count(), 1);
        assert_eq!(
            session.active_sets_iter().collect::<Vec<_>>(),
            vec![SetId(1)]
        );
        let a1 = Arrival::new(ElementId(1), 1, &[SetId(1)]);
        session.offer(&a1, &mut alg).unwrap();
        assert_eq!(session.assigned(SetId(1)), 2);
        let out = session.finish();
        assert_eq!(out.completed(), &[SetId(1)]);
        assert_eq!(out.benefit(), 1.0);
    }

    #[test]
    fn died_at_foreign_set_id_is_none() {
        // An id minted for a different (larger) instance must not panic.
        let (inst, [s0, _, _]) = three_set_instance();
        let mut alg = Scripted::new(vec![vec![s0], vec![s0], vec![]]);
        let out = run(&inst, &mut alg).unwrap();
        assert_eq!(out.died_at(SetId(999)), None);
        assert_eq!(out.died_at(SetId(3)), None); // one past the end
        assert_eq!(out.died_at(s0), None); // in-range still works
    }

    #[test]
    fn scratch_reuse_is_outcome_identical() {
        let (inst, [s0, _, s2]) = three_set_instance();
        let script = vec![vec![s0], vec![s0], vec![s2]];
        let mut scratch = ReplayScratch::new();
        // Run twice through the same scratch, compare against fresh runs —
        // field by field, covering the recycled died_at and DecisionLog
        // buffers explicitly.
        for _ in 0..2 {
            let fresh = run(&inst, &mut Scripted::new(script.clone())).unwrap();
            let reused = replay_serial(
                &mut inst.source(),
                &mut Scripted::new(script.clone()),
                &mut scratch,
            )
            .unwrap();
            assert_eq!(fresh.completed(), reused.completed());
            assert_eq!(fresh.benefit().to_bits(), reused.benefit().to_bits());
            assert_eq!(fresh.decisions(), reused.decisions());
            for i in 0..inst.num_sets() {
                let s = SetId(i as u32);
                assert_eq!(fresh.died_at(s), reused.died_at(s), "died_at({s:?})");
            }
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn scratch_reuse_shrinks_to_smaller_followup_job() {
        // A big job then a small one through the same scratch: the recycled
        // died_at / decision-log buffers must resize down correctly and not
        // leak state from the previous job.
        let mut b = InstanceBuilder::new();
        let ids: Vec<SetId> = (0..8).map(|_| b.add_set(1.0, 1)).collect();
        for &s in &ids {
            b.add_element(1, &[s]);
        }
        let big = b.build().unwrap();
        let big_script: Vec<Vec<SetId>> = ids.iter().map(|&s| vec![s]).collect();

        let (small, [s0, _, s2]) = three_set_instance();
        let small_script = vec![vec![s0], vec![s0], vec![s2]];

        let mut scratch = ReplayScratch::new();
        replay_serial(
            &mut big.source(),
            &mut Scripted::new(big_script),
            &mut scratch,
        )
        .unwrap();
        let fresh = run(&small, &mut Scripted::new(small_script.clone())).unwrap();
        let reused = replay_serial(
            &mut small.source(),
            &mut Scripted::new(small_script),
            &mut scratch,
        )
        .unwrap();
        assert_eq!(fresh, reused);
        assert_eq!(reused.decisions().len(), 3);
    }

    #[test]
    fn death_at_the_largest_element_id_is_recorded() {
        // `ElementId(u32::MAX)` is a legal arrival; the per-set record
        // must tell "died at u32::MAX" apart from "alive".
        let metas = vec![SetMeta::new(1.0, 1), SetMeta::new(1.0, 1)];
        let mut alg = Scripted::new(vec![vec![SetId(0)]]);
        let mut session = Session::new(&metas, &mut alg);
        let last = ElementId(u32::MAX);
        let arrival = Arrival::new(last, 1, &[SetId(0), SetId(1)]);
        session.offer(&arrival, &mut alg).unwrap();
        assert!(!session.is_active(SetId(1)));
        assert!(!session.view().is_active(SetId(1)));
        assert!(session.is_active(SetId(0)));
        let out = session.finish();
        assert_eq!(out.died_at(SetId(1)), Some(last));
        assert_eq!(out.died_at(SetId(0)), None);
        assert_eq!(out.completed(), &[SetId(0)]);
    }

    /// The per-set state as first kept: three parallel vectors.
    #[derive(Debug)]
    struct OracleState {
        assigned: Vec<u32>,
        alive: Vec<bool>,
        died_at: Vec<Option<ElementId>>,
    }

    /// The validator and apply step as first written — sort a copy of the
    /// decision, reject its first adjacent duplicate, binary-search each
    /// chosen set in the members, then binary-search each member in the
    /// sorted choice. Kept as the oracle for the merge-walk
    /// `validate`/`apply_validated`.
    fn oracle_step(
        state: &mut OracleState,
        arrival: &Arrival<'_>,
        decision: &[SetId],
    ) -> Result<(), Error> {
        if decision.len() > arrival.capacity() as usize {
            return Err(Error::DecisionOverCapacity {
                element: arrival.element(),
                capacity: arrival.capacity(),
                chosen: decision.len(),
            });
        }
        let mut sorted = decision.to_vec();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(Error::DecisionDuplicate {
                    element: arrival.element(),
                    set: w[0],
                });
            }
        }
        for &s in &sorted {
            if !arrival.contains(s) {
                return Err(Error::DecisionNotMember {
                    element: arrival.element(),
                    set: s,
                });
            }
        }
        for &s in arrival.members() {
            if sorted.binary_search(&s).is_ok() {
                state.assigned[s.index()] += 1;
            } else if state.alive[s.index()] {
                state.alive[s.index()] = false;
                state.died_at[s.index()] = Some(arrival.element());
            }
        }
        Ok(())
    }

    proptest::proptest! {
        /// Over random member lists, decisions (duplicates, non-members,
        /// over-capacity and empty ones included) and capacities, a
        /// session step gives the oracle's verdict — variant and payload —
        /// and leaves the same per-set state behind, arrival after
        /// arrival.
        #[test]
        fn merge_walk_validator_matches_the_binary_search_oracle(
            steps in proptest::collection::vec(
                (
                    proptest::collection::vec(0u32..12, 0..7),
                    proptest::collection::vec(0usize..10, 0..7),
                    1u32..7,
                    0u32..3,
                ),
                1..12,
            ),
        ) {
            const M: usize = 12;
            let metas: Vec<SetMeta> =
                (0..M).map(|i| SetMeta::new(1.0, 1 + i as u32 % 3)).collect();
            let mut alg = Scripted::new(Vec::new());
            let mut session = Session::new(&metas, &mut alg);
            let mut oracle = OracleState {
                assigned: vec![0; M],
                alive: vec![true; M],
                died_at: vec![None; M],
            };
            for (i, (raw_members, picks, capacity, element_shift)) in steps.iter().enumerate() {
                let mut members: Vec<SetId> = raw_members.iter().map(|&s| SetId(s)).collect();
                members.sort_unstable();
                members.dedup();
                // Picks below the member count name members; the rest name
                // arbitrary sets, members or not.
                let decision: Vec<SetId> = picks
                    .iter()
                    .map(|&p| match members.get(p) {
                        Some(&s) => s,
                        None => SetId((p as u32 * 5) % M as u32),
                    })
                    .collect();
                // Element ids near the top of the range too.
                let element = ElementId((i as u32).wrapping_sub(*element_shift));
                let arrival = Arrival::new(element, *capacity, &members);
                let want = oracle_step(&mut oracle, &arrival, &decision);
                let got = session.apply_external(&arrival, decision.clone());
                proptest::prop_assert_eq!(got.map(|_| ()), want);
                for s in 0..M {
                    let state = session.state[s];
                    proptest::prop_assert_eq!(state.assigned, oracle.assigned[s]);
                    proptest::prop_assert_eq!(state.died_at, oracle.died_at[s]);
                    proptest::prop_assert_eq!(state.died_at.is_none(), oracle.alive[s]);
                }
            }
        }
    }

    #[test]
    fn session_incomplete_sets_do_not_count() {
        // A set that stays alive but never receives all elements must not
        // be counted as completed by finish().
        let metas: Vec<SetMeta> = {
            let mut b = InstanceBuilder::new();
            let s = b.add_set(1.0, 2);
            b.add_element(1, &[s]);
            b.add_element(1, &[s]);
            b.build().unwrap().sets().to_vec()
        };
        let mut alg = Scripted::new(vec![vec![SetId(0)]]);
        let mut session = Session::new(&metas, &mut alg);
        let a0 = Arrival::new(ElementId(0), 1, &[SetId(0)]);
        session.offer(&a0, &mut alg).unwrap();
        // Stop early: only 1 of 2 elements delivered.
        let out = session.finish();
        assert!(out.completed().is_empty());
    }
}
