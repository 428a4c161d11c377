//! Intra-replay parallelism — parallelism *within* one replay, as opposed
//! to the across-jobs lanes ([`ReplayPool`](super::batch::ReplayPool),
//! process/socket pools).
//!
//! Each decision depends on every earlier one, so the arrival loop itself
//! stays sequential. Three things around it fan out, all preserving the
//! bit-identity contract exactly:
//!
//! 1. **The `begin` table fill.** `randPr`'s priority table and `hashPr`'s
//!    hashed priorities hold one value per set, and slot `i` is a **pure
//!    function of `(seed, i)`**: `hashPr` evaluates a shared polynomial at
//!    the set id, and `randPr` draws from a counter-based SplitMix64
//!    stream whose position before set `i` is known without generating
//!    (`StdRng::advance` jump-ahead). [`fill_sharded`] hands disjoint
//!    contiguous index ranges to scoped threads, and any shard count
//!    writes exactly the same bytes.
//! 2. **The pipeline.** [`run_source_with`](super::run_source_with) at 2+
//!    threads runs a producer thread that drains the [`ArrivalSource`]
//!    into a double-buffered ring of chunk arenas (arrivals copied into a
//!    reused CSR arena per chunk — the same flat layout
//!    [`Instance`](crate::Instance) uses, so the steady state allocates
//!    nothing) while the caller's thread runs the unchanged
//!    [`Session::step`](super::Session::step) loop over the previous
//!    chunk. Generation cost is hidden behind decision cost, and the
//!    consumer replays byte-for-byte the arrivals the source yielded, so
//!    outcomes are bit-identical to [`run_source`](super::run_source) by
//!    construction.
//! 3. **The sharded decision kernel** (threshold [`SHARDED_DECIDE_MIN`]):
//!    when one arrival's candidate count crosses the threshold, the
//!    built-in algorithms fill a position-aligned scored buffer through
//!    [`fill_sharded`], then select the winners over the *full* buffer
//!    with the exact serial
//!    [`select_top_b`](crate::algorithms) comparator sequence. Only the
//!    fill is sharded, never the selection, so survivors and their order
//!    are bit-identical to the serial path at any thread count.
//!
//! One knob sizes all three: `OSP_REPLAY_THREADS`, read by
//! [`replay_threads`] under the workspace-wide [`env_parallelism`] policy
//! (unset → machine default, `0` → 1, junk → machine default). `begin`
//! reads it for the table fill; callers that want the pipeline pass it to
//! [`run_source_with`](super::run_source_with), which also announces it to
//! the algorithm as the decision hint. One thread is exactly the serial
//! path everywhere. [`run_source`](super::run_source) never reads the
//! knob: it is always the serial loop. `tests/parallel_replay.rs` and
//! `tests/batch_equivalence.rs` pin thread counts {1, 2, 8}
//! bit-identical across the algorithm × generator grid.

use std::sync::mpsc::sync_channel;

use crate::algorithm::OnlineAlgorithm;
use crate::error::Error;
use crate::ids::{ElementId, SetId};
use crate::instance::Arrival;
use crate::source::ArrivalSource;

use super::batch::{env_parallelism, ReplayScratch};
use super::Outcome;

/// Candidate count at which the built-in algorithms switch one decision's
/// score fill from the serial loop to the sharded kernel. Measured on the
/// scoring-bound path (lazy `hashPr`, one polynomial evaluation per
/// candidate): below ~4096 candidates the scoped-thread fan-out costs
/// more than the scoring it parallelizes; table-lookup algorithms cross
/// even later, but dispatching them identically keeps the policy simple —
/// and either path produces bit-identical survivors, so the threshold is
/// a pure performance knob.
pub const SHARDED_DECIDE_MIN: usize = 4096;

/// Arrivals staged per pipeline chunk: large enough to amortize the
/// channel round trip to well under a nanosecond per arrival, small
/// enough that two in-flight chunks stay cache-resident.
pub(super) const PIPELINE_CHUNK: usize = 1024;

/// Chunk arenas in flight (double buffering: the producer fills one while
/// the consumer drains the other).
const PIPELINE_RING: usize = 2;

/// The thread count for one replay, from `OSP_REPLAY_THREADS` under the
/// [`env_parallelism`] policy.
pub fn replay_threads() -> usize {
    env_parallelism("OSP_REPLAY_THREADS")
}

/// One pipeline chunk: up to `chunk` arrivals copied out of the source
/// into a flat CSR arena (element ids + capacities + an offset-indexed
/// member pool). Chunks ping-pong between producer and consumer over two
/// bounded channels and are never dropped until the replay ends, so after
/// the arenas grow to steady width the pipeline allocates nothing per
/// arrival.
#[derive(Debug, Default)]
struct Chunk {
    elements: Vec<ElementId>,
    capacities: Vec<u32>,
    /// `offsets.len() == elements.len() + 1`; arrival `i`'s members are
    /// `members[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    members: Vec<SetId>,
}

impl Chunk {
    fn clear(&mut self) {
        self.elements.clear();
        self.capacities.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.members.clear();
    }

    fn push(&mut self, arrival: &Arrival<'_>) {
        self.elements.push(arrival.element());
        self.capacities.push(arrival.capacity());
        self.members.extend_from_slice(arrival.members());
        self.offsets.push(self.members.len());
    }

    fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    fn arrivals(&self) -> impl Iterator<Item = Arrival<'_>> {
        (0..self.elements.len()).map(|i| {
            Arrival::new(
                self.elements[i],
                self.capacities[i],
                &self.members[self.offsets[i]..self.offsets[i + 1]],
            )
        })
    }
}

/// The pipelined replay behind [`run_source_with`](super::run_source_with)
/// at 2+ threads: one producer thread fills `chunk_arrivals`-arrival chunk
/// arenas while the caller's thread consumes them through the same
/// [`Session`](super::Session) logic as the serial loop.
///
/// # Errors
///
/// Same contract as [`run_source`](super::run_source): the first invalid
/// decision. The producer is unblocked and joined before returning.
pub(super) fn pipeline<S, A>(
    source: &mut S,
    algorithm: &mut A,
    chunk_arrivals: usize,
    scratch: &mut ReplayScratch,
) -> Result<Outcome, Error>
where
    S: ArrivalSource + Send + ?Sized,
    A: OnlineAlgorithm + ?Sized,
{
    let chunk_arrivals = chunk_arrivals.max(1);
    super::replay_in(source, algorithm, scratch, |session, source, algorithm| {
        // Two bounded channels ping-pong the chunk arenas: `full` carries
        // filled chunks producer → consumer, `empty` returns them. Bounded
        // (array-backed) channels make the steady-state sends
        // allocation-free and cap the arrivals in flight at RING × chunk.
        let (full_tx, full_rx) = sync_channel::<Chunk>(PIPELINE_RING);
        let (empty_tx, empty_rx) = sync_channel::<Chunk>(PIPELINE_RING);
        for _ in 0..PIPELINE_RING {
            empty_tx.send(Chunk::default()).expect("ring has capacity");
        }
        std::thread::scope(|scope| {
            scope.spawn(move || {
                // Producer: recycle an empty chunk, refill it, hand it
                // over. Ends when the source is exhausted (dropping
                // `full_tx` signals end-of-stream) or when the consumer
                // bailed on an invalid decision (both channel ends report
                // disconnect).
                while let Ok(mut chunk) = empty_rx.recv() {
                    chunk.clear();
                    let mut exhausted = false;
                    for _ in 0..chunk_arrivals {
                        match source.next_arrival() {
                            Some(arrival) => chunk.push(&arrival),
                            None => {
                                exhausted = true;
                                break;
                            }
                        }
                    }
                    if !chunk.is_empty() && full_tx.send(chunk).is_err() {
                        return;
                    }
                    if exhausted {
                        return;
                    }
                }
            });
            let consumed = (|| {
                while let Ok(chunk) = full_rx.recv() {
                    for arrival in chunk.arrivals() {
                        session.step(&arrival, algorithm)?;
                    }
                    // A failed return just means the producer already
                    // finished and dropped its end; keep draining
                    // `full_rx` — the tail chunks may still be queued.
                    let _ = empty_tx.send(chunk);
                }
                Ok(())
            })();
            // On error the producer may still be blocked sending or
            // waiting for an empty chunk; dropping both consumer-side
            // endpoints disconnects it so the scope can join.
            drop(full_rx);
            drop(empty_tx);
            consumed
        })
    })
}

/// Fills `buf` (cleared and resized to `n`) by sharding disjoint
/// contiguous index ranges across `threads` scoped threads — the one
/// fan-out helper behind both the `begin` table fill and the sharded
/// decision kernel. Recycling `buf` keeps repeated fills allocation-free
/// once it has grown.
///
/// `fill(start, slots)` must write every slot of `slots`, where
/// `slots[j]` is entry `start + j`, as a pure function of the entry
/// indices (no shared mutable state) — which is what makes the buffer
/// contents independent of the thread count. `buf` is pre-filled with
/// `placeholder` only so the slices exist to hand out; every slot is
/// overwritten.
///
/// `threads <= 1` (or a range too small to split) degenerates to one
/// `fill(0, ..)` call on the caller's thread — the serial path.
pub fn fill_sharded<T, F>(buf: &mut Vec<T>, n: usize, placeholder: T, threads: usize, fill: &F)
where
    T: Copy + Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    buf.clear();
    buf.resize(n, placeholder);
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        fill(0, buf);
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (shard, slots) in buf.chunks_mut(chunk).enumerate() {
            scope.spawn(move || fill(shard * chunk, slots));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{GreedyOnline, RandPr, TieBreak};
    use crate::engine::{run, run_source, run_source_with};
    use crate::gen::{RandomInstanceConfig, UniformSource};
    use crate::instance::{Instance, InstanceBuilder};

    fn tiny_instance() -> Instance {
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(1.0, 2);
        let s1 = b.add_set(2.0, 1);
        let s2 = b.add_set(0.5, 1);
        b.add_element(1, &[s0, s1]);
        b.add_element(2, &[s0, s2]);
        b.build().unwrap()
    }

    #[test]
    fn chunk_round_trips_arrivals_exactly() {
        let inst = tiny_instance();
        let mut chunk = Chunk::default();
        chunk.clear();
        for arrival in inst.arrivals().iter() {
            chunk.push(&arrival);
        }
        let replayed: Vec<(ElementId, u32, Vec<SetId>)> = chunk
            .arrivals()
            .map(|a| (a.element(), a.capacity(), a.members().to_vec()))
            .collect();
        let want: Vec<(ElementId, u32, Vec<SetId>)> = inst
            .arrivals()
            .iter()
            .map(|a| (a.element(), a.capacity(), a.members().to_vec()))
            .collect();
        assert_eq!(replayed, want);
    }

    #[test]
    fn pipeline_matches_serial_across_chunk_sizes() {
        // Chunk sizes around the stream length exercise the partial-chunk
        // and exact-boundary end conditions.
        let cfg = RandomInstanceConfig::unweighted(20, 60, 3);
        let want = run_source(
            &mut UniformSource::new(&cfg, 7).unwrap(),
            &mut RandPr::from_seed(1),
        )
        .unwrap();
        for chunk in [1usize, 7, 60, 64, 100] {
            let mut scratch = ReplayScratch::new();
            let got = pipeline(
                &mut UniformSource::new(&cfg, 7).unwrap(),
                &mut RandPr::from_seed(1),
                chunk,
                &mut scratch,
            )
            .unwrap();
            assert_eq!(got, want, "chunk={chunk}");
        }
    }

    #[test]
    fn one_thread_is_the_exact_serial_path() {
        let inst = tiny_instance();
        let mut scratch = ReplayScratch::new();
        let got = run_source_with(
            &mut inst.source(),
            &mut GreedyOnline::new(TieBreak::ByWeight),
            1,
            &mut scratch,
        )
        .unwrap();
        let want = run(&inst, &mut GreedyOnline::new(TieBreak::ByWeight)).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_source_finishes_cleanly() {
        let inst = InstanceBuilder::new().build().unwrap();
        let mut scratch = ReplayScratch::new();
        let out = run_source_with(
            &mut inst.source(),
            &mut RandPr::from_seed(0),
            2,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(out.benefit(), 0.0);
        assert!(out.decisions().is_empty());
    }

    #[test]
    fn invalid_decisions_error_and_unblock_the_producer() {
        use crate::algorithms::OracleOnline;
        // Oracle wants both sets; capacity 1 makes that invalid on the
        // very first arrival of a long stream, so the producer is still
        // running when the consumer bails.
        let mut b = InstanceBuilder::new();
        let s0 = b.add_set(1.0, 400);
        let s1 = b.add_set(1.0, 400);
        for _ in 0..400 {
            b.add_element(1, &[s0, s1]);
        }
        let inst = b.build().unwrap();
        let mut scratch = ReplayScratch::new();
        let got = pipeline(
            &mut inst.source(),
            &mut OracleOnline::new(vec![s0, s1]),
            8,
            &mut scratch,
        );
        assert!(matches!(got, Err(Error::DecisionOverCapacity { .. })));
    }

    #[test]
    fn fill_sharded_writes_every_slot_at_any_thread_count() {
        let fill = |start: usize, slots: &mut [u64]| {
            for (j, slot) in slots.iter_mut().enumerate() {
                *slot = (start + j) as u64 * 5 + 2;
            }
        };
        let want: Vec<u64> = (0..101u64).map(|i| i * 5 + 2).collect();
        let mut buf = Vec::new();
        for threads in [0usize, 1, 2, 3, 8, 101, 300] {
            fill_sharded(&mut buf, 101, 0u64, threads, &fill);
            assert_eq!(buf, want, "threads={threads}");
        }
    }

    #[test]
    fn every_slot_is_filled_at_any_thread_count() {
        // A fresh buffer each time, as a begin-table build starts from.
        let fill = |start: usize, slots: &mut [u64]| {
            for (j, slot) in slots.iter_mut().enumerate() {
                *slot = (start + j) as u64 * 3 + 1;
            }
        };
        let want: Vec<u64> = (0..97u64).map(|i| i * 3 + 1).collect();
        for threads in [0usize, 1, 2, 3, 8, 97, 200] {
            let mut buf = Vec::new();
            fill_sharded(&mut buf, 97, 0u64, threads, &fill);
            assert_eq!(buf, want, "threads={threads}");
        }
    }

    #[test]
    fn fill_sees_disjoint_contiguous_ranges() {
        // Record the (start, len) of every range a 4-thread fill hands
        // out; together they must tile 0..n exactly once.
        use std::sync::Mutex;
        let ranges = Mutex::new(Vec::new());
        let fill = |start: usize, slots: &mut [u32]| {
            ranges.lock().unwrap().push((start, slots.len()));
            slots.fill(1);
        };
        let mut buf = Vec::new();
        fill_sharded(&mut buf, 10, 0u32, 4, &fill);
        assert_eq!(buf, vec![1u32; 10]);
        let mut ranges = ranges.into_inner().unwrap();
        ranges.sort_unstable();
        let mut next = 0;
        for (start, len) in ranges {
            assert_eq!(start, next);
            next = start + len;
        }
        assert_eq!(next, 10);
    }

    #[test]
    fn empty_table_is_fine() {
        let fill = |_: usize, slots: &mut [u8]| assert!(slots.is_empty());
        let mut buf = vec![9u8; 5];
        fill_sharded(&mut buf, 0, 0u8, 4, &fill);
        assert!(buf.is_empty());
    }

    #[test]
    fn fill_sharded_recycles_without_growing() {
        let fill = |start: usize, slots: &mut [u32]| {
            for (j, slot) in slots.iter_mut().enumerate() {
                *slot = (start + j) as u32;
            }
        };
        let mut buf = Vec::new();
        fill_sharded(&mut buf, 500, 0u32, 4, &fill);
        let cap = buf.capacity();
        for n in [100usize, 500, 1] {
            fill_sharded(&mut buf, n, 0u32, 4, &fill);
            assert_eq!(buf.len(), n);
            assert_eq!(buf.capacity(), cap, "n={n} must not reallocate");
        }
    }
}
