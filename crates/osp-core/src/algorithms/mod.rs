//! Online algorithms for OSP: the paper's `randPr` (centralized and
//! distributed) and the baselines it is compared against.
//!
//! | Algorithm | Source | Character |
//! |-----------|--------|-----------|
//! | [`RandPr`] | §3.1 | one random priority per set from `R_w`; provably `k_max√σ_max`-competitive |
//! | [`HashRandPr`] | §3.1 | same, but priorities from a shared limited-independence hash — runs identically on every distributed server |
//! | [`GreedyOnline`] | folklore | deterministic; keeps the best *active* sets under a [`TieBreak`] policy; Theorem 3 victim |
//! | [`RandomAssign`] | ablation | a fresh coin per element; shows why randPr's *consistent* priorities matter |
//!
//! All implementations write their decision through
//! [`OnlineAlgorithm::decide_into`](crate::OnlineAlgorithm::decide_into)
//! directly into the engine's recycled buffer — the per-arrival hot path
//! allocates nothing.

mod greedy;
mod hash_pr;
mod oracle;
mod rand_pr;
mod random_assign;

pub use greedy::{GreedyOnline, TieBreak};
pub use hash_pr::HashRandPr;
pub use oracle::OracleOnline;
pub use rand_pr::RandPr;
pub use random_assign::RandomAssign;

use crate::SetId;

/// The one comparator core every top-`b` pruning path rides: partitions
/// `items` so the `b` largest-keyed entries occupy `items[..b]`, via a
/// single `select_nth_unstable_by` call with the descending-key
/// comparator. The resulting permutation is a deterministic function of
/// the item count and the *key order alone* (the selection is purely
/// comparison-based), so every caller that presents the same keys in the
/// same positions — a table lookup ([`retain_top_b_by_key`]), a bulk
/// score pass ([`retain_top_b_scored`]), or a sharded parallel score fill
/// ([`fill_sharded`](crate::engine::parallel::fill_sharded), the third
/// caller) — gets the same survivors in the same order, which is what
/// keeps decisions bit-identical across scoring strategies and thread
/// counts. Keys may tie (every weight-0 set scores `Priority::zero()`);
/// the permutation still depends on the comparison results alone.
///
/// `b == 1`, the unit-capacity case, skips the selection call: one scan
/// finds the *first* maximum and swaps it to the front, which is exactly
/// what `select_nth_unstable_by(0, ..)` does (it swaps the first minimum
/// under the descending comparator into place), so ties resolve to the
/// same survivor either way — pinned against a direct
/// `select_nth_unstable_by` reference, repeated keys included.
#[inline]
pub(crate) fn select_top_b<T, K: Ord>(items: &mut [T], b: usize, mut key: impl FnMut(&T) -> K) {
    if b == 1 {
        let mut best = 0;
        let mut best_key = key(&items[0]);
        for (i, item) in items.iter().enumerate().skip(1) {
            let k = key(item);
            if k > best_key {
                best = i;
                best_key = k;
            }
        }
        items.swap(0, best);
        return;
    }
    // Highest keys first; selects the top b in O(len) average time.
    items.select_nth_unstable_by(b - 1, |x, y| key(y).cmp(&key(x)));
}

/// Retains the (up to) `b` candidates with the largest keys, in place and
/// without allocating, deterministically ([`select_top_b`]'s contract).
/// Callers stage the candidate list in `out` (the engine's recycled
/// decision buffer) and this prunes it to the winners.
pub(crate) fn retain_top_b_by_key<K: Ord>(
    out: &mut Vec<SetId>,
    b: usize,
    mut key: impl FnMut(SetId) -> K,
) {
    if out.len() <= b {
        return;
    }
    select_top_b(out, b, |&s| key(s));
    out.truncate(b);
}

/// [`retain_top_b_by_key`] for callers that score candidates in bulk
/// instead of looking keys up per comparison. When pruning is needed
/// (`out.len() > b` — the same early-exit as the table path), `score` is
/// called once to fill `scored` with one `(key, id)` pair per candidate,
/// position-aligned with `out` (pushed serially or written in parallel
/// ranges by [`fill_sharded`](crate::engine::parallel::fill_sharded) —
/// either way the buffer contents are identical); the top `b` pairs are
/// then selected with the *same* [`select_top_b`] comparator decisions
/// the table path makes (keys compare identically regardless of where
/// they are stored), so the surviving ids — and their order — are
/// bit-identical to scoring through a precomputed table. `scored` is
/// caller-owned scratch so the per-arrival hot path stays allocation-free
/// once it has grown to the widest arrival.
pub(crate) fn retain_top_b_scored<K: Ord + Copy>(
    out: &mut Vec<SetId>,
    b: usize,
    scored: &mut Vec<(K, SetId)>,
    score: impl FnOnce(&[SetId], &mut Vec<(K, SetId)>),
) {
    if out.len() <= b {
        return;
    }
    scored.clear();
    score(out, scored);
    debug_assert_eq!(scored.len(), out.len(), "score must cover every candidate");
    select_top_b(scored, b, |p| p.0);
    out.clear();
    out.extend(scored[..b].iter().map(|&(_, s)| s));
}

/// In-place partial Fisher–Yates: prunes the staged candidates in `out` to
/// a uniform random `min(b, out.len())`-subset, consuming exactly the RNG
/// stream of the vendored `rand::seq::index::sample` — the
/// allocation-free, seed-compatible replacement for `choose_multiple` that
/// [`RandomAssign`] (and osp-net's `RandomDrop`) use in `decide_into`.
/// Kept as the single canonical copy so the draw sequence cannot drift
/// between call sites.
pub fn sample_in_place<R: rand::RngCore + ?Sized>(out: &mut Vec<SetId>, b: usize, rng: &mut R) {
    let n = out.len();
    let b = b.min(n);
    for i in 0..b {
        let j = i + (rng.next_u64() % (n - i) as u64) as usize;
        out.swap(i, j);
    }
    out.truncate(b);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_in_place_matches_vendored_choose_multiple() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{RngCore, SeedableRng};
        let pool: Vec<SetId> = (0..9).map(SetId).collect();
        for seed in 0..50u64 {
            for b in [0usize, 1, 4, 9, 12] {
                let mut reference_rng = StdRng::seed_from_u64(seed);
                let want: Vec<SetId> = pool
                    .choose_multiple(&mut reference_rng, b)
                    .copied()
                    .collect();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut got = pool.clone();
                sample_in_place(&mut got, b, &mut rng);
                assert_eq!(got, want, "seed {seed}, b {b}");
                // And the two consumed the same number of draws.
                assert_eq!(rng.next_u64(), reference_rng.next_u64());
            }
        }
    }

    #[test]
    fn top_b_selects_largest() {
        let mut picked: Vec<SetId> = (0..6).map(SetId).collect();
        let keys = [3u64, 9, 1, 7, 5, 2];
        retain_top_b_by_key(&mut picked, 2, |s| keys[s.index()]);
        picked.sort_unstable();
        assert_eq!(picked, vec![SetId(1), SetId(3)]);
    }

    #[test]
    fn top_b_with_fewer_members_keeps_all() {
        let mut picked = vec![SetId(4), SetId(2)];
        retain_top_b_by_key(&mut picked, 5, |s| s.0);
        assert_eq!(picked, vec![SetId(4), SetId(2)]);
    }

    #[test]
    fn top_b_exact_size() {
        let mut picked = vec![SetId(0), SetId(1)];
        retain_top_b_by_key(&mut picked, 2, |s| s.0);
        assert_eq!(picked.len(), 2);
    }

    /// Weight-0 sets all score `Priority::zero()`, so their keys tie:
    /// sets 0..8 weigh 0, sets 8 and 9 weigh 1, and arrivals of capacity
    /// 1 and 2 offer up to five sets at once.
    fn tied_weights_instance() -> crate::Instance {
        let mut b = crate::InstanceBuilder::new();
        for i in 0..10 {
            b.add_set_unsized(if i < 8 { 0.0 } else { 1.0 });
        }
        for e in 0..24u32 {
            let load = 2 + e % 4;
            let mut members: Vec<SetId> = (0..load).map(|j| SetId((e * 3 + j * 7) % 10)).collect();
            members.sort_unstable();
            members.dedup();
            b.add_element(1 + u32::from(e % 3 == 2), &members);
        }
        b.build().unwrap()
    }

    /// The outcomes of randPr and hashPr (eager and lazy) on
    /// [`tied_weights_instance`], as the top-`b` selection resolved their
    /// ties when every `b` went through `select_nth_unstable_by`.
    #[test]
    fn tied_zero_weight_priorities_keep_their_pinned_outcomes() {
        use crate::algorithm::OnlineAlgorithm;
        let inst = tied_weights_instance();
        let cases: [(&str, Box<dyn OnlineAlgorithm>); 3] = [
            ("randPr", Box::new(RandPr::from_seed(11))),
            ("hashPr", Box::new(HashRandPr::new(8, 12))),
            ("lazy hashPr", Box::new(HashRandPr::new_lazy(8, 12))),
        ];
        for (name, mut alg) in cases {
            let outcome = crate::engine::run(&inst, &mut alg).unwrap();
            let got = serde_json::to_string(&outcome).unwrap();
            assert_eq!(got, TIED_OUTCOME, "{name}");
        }
    }

    /// The pinned outcome. Ties decide most arrivals, and both seeds
    /// happen to order sets 8 and 9 the same way, so all three runs agree.
    const TIED_OUTCOME: &str = r#"{"completed":[8],"benefit":1.0,"decisions":{"offsets":[0,1,2,4,5,6,8,9,10,12,13,14,16,17,18,20,21,22,24,25,26,28,29,30,32],"data":[0,0,0,3,9,9,9,2,8,8,1,4,1,0,0,1,3,9,9,2,9,8,8,1,8,8,0,7,0,0,9,0]},"died_at":[3,7,4,1,9,5,2,0,null,6]}"#;

    /// What the top-`b` paths must reproduce: one direct
    /// `select_nth_unstable_by` call with the descending-key comparator.
    fn select_nth_reference(ids: &[SetId], b: usize, keys: &[u64]) -> Vec<SetId> {
        let mut reference = ids.to_vec();
        if reference.len() > b {
            reference.select_nth_unstable_by(b - 1, |x, y| keys[y.index()].cmp(&keys[x.index()]));
            reference.truncate(b);
        }
        reference
    }

    /// Prunes `ids` to the top `b` by `keys` through each of the three
    /// [`select_top_b`] callers — the table-lookup path, the serial
    /// bulk-score path and the sharded parallel score fill — and returns
    /// the three survivor sequences in that order.
    fn retain_three_ways(ids: &[SetId], b: usize, keys: &[u64], threads: usize) -> [Vec<SetId>; 3] {
        let mut by_key = ids.to_vec();
        retain_top_b_by_key(&mut by_key, b, |s| keys[s.index()]);

        let mut serial = ids.to_vec();
        let mut scored: Vec<(u64, SetId)> = Vec::new();
        retain_top_b_scored(&mut serial, b, &mut scored, |candidates, scored| {
            scored.extend(candidates.iter().map(|&s| (keys[s.index()], s)));
        });

        let mut sharded = ids.to_vec();
        retain_top_b_scored(&mut sharded, b, &mut scored, |candidates, scored| {
            crate::engine::parallel::fill_sharded(
                scored,
                candidates.len(),
                (0u64, SetId(0)),
                threads,
                &|start, slots| {
                    for (j, slot) in slots.iter_mut().enumerate() {
                        let s = candidates[start + j];
                        *slot = (keys[s.index()], s);
                    }
                },
            );
        });
        [by_key, serial, sharded]
    }

    proptest::proptest! {
        /// With repeated keys, every top-`b` path keeps the survivors, in
        /// order, that a direct `select_nth_unstable_by` call keeps, at
        /// `b = 1` (the scan) and at larger `b`.
        #[test]
        fn tied_keys_resolve_as_select_nth_does(
            keys in proptest::collection::vec(0u64..4, 1..80),
            wide_b in 2usize..24,
            threads in 1usize..6,
        ) {
            let ids: Vec<SetId> = (0..keys.len()).map(|i| SetId(i as u32)).collect();
            for b in [1, wide_b] {
                let want = select_nth_reference(&ids, b, &keys);
                for got in retain_three_ways(&ids, b, &keys, threads) {
                    proptest::prop_assert_eq!(&got, &want);
                }
            }
        }

        /// All three callers of the [`select_top_b`] comparator core must
        /// produce the same survivor *sequence* (the order is observable
        /// in the `DecisionLog`), at any thread count.
        #[test]
        fn three_retain_paths_pin_the_same_survivor_sequence(
            raw in proptest::collection::vec(0u64..1_000, 1..80),
            b in 1usize..24,
            threads in 1usize..6,
        ) {
            // Make keys unique (the callers' tiebreak-token guarantee)
            // while keeping plenty of near-collisions from the raw draw.
            let keys: Vec<u64> = raw
                .iter()
                .enumerate()
                .map(|(i, &k)| k * 128 + i as u64)
                .collect();
            let ids: Vec<SetId> = (0..keys.len()).map(|i| SetId(i as u32)).collect();
            let [by_key, serial, sharded] = retain_three_ways(&ids, b, &keys, threads);
            proptest::prop_assert_eq!(&serial, &by_key);
            proptest::prop_assert_eq!(&sharded, &by_key);
        }
    }
}
