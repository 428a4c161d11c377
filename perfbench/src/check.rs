//! The outcome checker: re-derives a replay's result from its decision
//! log and a fresh copy of the source, independently of the engine.
//!
//! Every decision must be a duplicate-free subset of the arriving
//! element's candidate sets `C(u)` of size at most `b(u)`. Replaying the
//! log over the source must then reproduce the outcome's completed sets,
//! the bits of its benefit and every set's `died_at` exactly.

use osp_core::source::ArrivalSource;
use osp_core::{Outcome, SetId};

/// Counts gathered while checking, used by the per-layer ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Arrivals in the stream.
    pub arrivals: u64,
    /// Candidate sets over all arrivals (`Σ σ(u)`).
    pub candidates: u64,
    /// Elements assigned to sets over all arrivals.
    pub assignments: u64,
    /// Assignments to sets that completed.
    pub useful_assignments: u64,
    /// Sets completed.
    pub completed: u64,
}

/// Checks `outcome` against the stream `source` yields (which must be
/// fresh: positioned before its first arrival).
///
/// # Errors
///
/// A description of the first rule the outcome breaks.
pub fn check_outcome<S: ArrivalSource + ?Sized>(
    source: &mut S,
    outcome: &Outcome,
) -> Result<CheckStats, String> {
    let sets = source.sets().to_vec();
    let m = sets.len();
    let mut assigned = vec![0u32; m];
    let mut alive = vec![true; m];
    let mut died_at = vec![None; m];
    let mut decisions = outcome.decisions().iter();
    let mut chosen: Vec<SetId> = Vec::new();
    let mut stats = CheckStats::default();
    while let Some(arrival) = source.next_arrival() {
        let element = arrival.element();
        let Some(decision) = decisions.next() else {
            return Err(format!("decision log ends before element {}", element.0));
        };
        if decision.len() > arrival.capacity() as usize {
            return Err(format!(
                "element {}: {} sets chosen, capacity {}",
                element.0,
                decision.len(),
                arrival.capacity()
            ));
        }
        chosen.clear();
        chosen.extend_from_slice(decision);
        chosen.sort_unstable();
        if let Some(w) = chosen.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!(
                "element {}: set {} chosen twice",
                element.0, w[0].0
            ));
        }
        let members = arrival.members();
        if let Some(s) = chosen.iter().find(|s| members.binary_search(s).is_err()) {
            return Err(format!(
                "element {}: set {} is not a candidate",
                element.0, s.0
            ));
        }
        for &s in members {
            let i = s.index();
            if chosen.binary_search(&s).is_ok() {
                assigned[i] += 1;
            } else if alive[i] {
                alive[i] = false;
                died_at[i] = Some(element);
            }
        }
        stats.arrivals += 1;
        stats.candidates += members.len() as u64;
        stats.assignments += chosen.len() as u64;
    }
    if decisions.next().is_some() {
        return Err(format!(
            "decision log is longer than the stream ({} arrivals)",
            stats.arrivals
        ));
    }
    let completed: Vec<SetId> = (0..m)
        .filter(|&i| alive[i] && assigned[i] == sets[i].size())
        .map(|i| SetId(i as u32))
        .collect();
    if completed != outcome.completed() {
        return Err(format!(
            "completed sets differ: {} recomputed, {} reported",
            completed.len(),
            outcome.completed().len()
        ));
    }
    let benefit: f64 = completed.iter().map(|s| sets[s.index()].weight()).sum();
    if benefit.to_bits() != outcome.benefit().to_bits() {
        return Err(format!(
            "benefit differs: {benefit} recomputed, {} reported",
            outcome.benefit()
        ));
    }
    if let Some(i) = (0..m).find(|&i| outcome.died_at(SetId(i as u32)) != died_at[i]) {
        return Err(format!(
            "set {i}: died_at {:?} recomputed, {:?} reported",
            died_at[i],
            outcome.died_at(SetId(i as u32))
        ));
    }
    stats.completed = completed.len() as u64;
    stats.useful_assignments = completed
        .iter()
        .map(|s| u64::from(sets[s.index()].size()))
        .sum();
    Ok(stats)
}

/// A 128-bit digest of an outcome's full content: completed sets, the
/// benefit's bits, the decision log and `died_at` of sets `0..m`. Two
/// lanes of the standard library's SipHash under different salts.
pub type Digest = (u64, u64);

/// The [`Digest`] of `outcome` over an instance of `m` sets.
pub fn outcome_digest(outcome: &Outcome, m: usize) -> Digest {
    use std::hash::{DefaultHasher, Hash, Hasher};
    let lane = |salt: u64| {
        let mut h = DefaultHasher::new();
        salt.hash(&mut h);
        outcome.completed().hash(&mut h);
        outcome.benefit().to_bits().hash(&mut h);
        let (offsets, data) = outcome.decisions().as_parts();
        offsets.hash(&mut h);
        data.hash(&mut h);
        for i in 0..m {
            outcome.died_at(SetId(i as u32)).hash(&mut h);
        }
        h.finish()
    };
    (lane(0x6f73_702d_6f75_7430), lane(0x6f73_702d_6f75_7431))
}
