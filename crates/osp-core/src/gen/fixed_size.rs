//! Uniform-set-size instances with *skewed* element loads.
//!
//! Theorem 5 bounds the ratio by `k·σ²/σ̄²` when all sets have size `k`
//! but loads vary — the interesting regime is precisely `σ² ≫ σ̄²`, which
//! the bi-regular generator cannot produce. Here every set picks `k`
//! distinct elements with popularity ∝ `(j+1)^(−skew)`, so a few hot
//! elements absorb most of the load.

use osp_stats::AliasTable;
use rand::Rng;

use crate::instance::{Instance, InstanceBuilder};
use crate::SetId;

use super::GenError;

/// Generates an unweighted unit-capacity instance with `m` sets of size
/// exactly `k` over at most `n` elements whose popularity follows a Zipf
/// law with exponent `skew ≥ 0` (`skew = 0` is uniform). Elements that end
/// up in no set are dropped.
///
/// # Errors
///
/// Returns [`GenError::Infeasible`] if `k > n`, any parameter is zero,
/// `skew` is negative/non-finite, or `skew` is so steep that under 2⁻²⁰
/// of the popularity lies outside the `k − 1` most popular elements (the
/// distinct-element redraws would not finish).
pub fn fixed_size_instance<R: Rng + ?Sized>(
    m: usize,
    k: u32,
    n: usize,
    skew: f64,
    rng: &mut R,
) -> Result<Instance, GenError> {
    let memberships = fixed_size_memberships(m, k, n, skew, rng)?;

    let mut b = InstanceBuilder::new();
    for _ in 0..m {
        b.add_set(1.0, k);
    }
    for sets in memberships.iter().filter(|s| !s.is_empty()) {
        let members: Vec<SetId> = sets.iter().map(|&s| SetId(s)).collect();
        b.add_element(1, &members);
    }
    Ok(b.build().expect("membership bookkeeping is consistent"))
}

/// The least share of the popularity mass that must lie outside the
/// `k − 1` most popular elements. Each set redraws until it holds `k`
/// distinct elements, and every draw completes the set with probability
/// at least this share, so rejecting smaller shares bounds the expected
/// draws per set by `k · 2²⁰`. At an extreme `skew` every popularity
/// but the first underflows to zero and the loop would never end.
const MIN_TAIL_MASS: f64 = 1.0 / (1u64 << 20) as f64;

/// The drawing core shared by [`fixed_size_instance`] and the streaming
/// [`FixedSizeSource`](super::FixedSizeSource): validates the parameters
/// and returns `memberships[e]` = the sets containing element `e`,
/// ascending (sets draw in id order), for all `n` raw elements — including
/// the empty ones both consumers drop. One implementation means the two
/// paths cannot drift in their RNG draw sequence.
pub(super) fn fixed_size_memberships<R: Rng + ?Sized>(
    m: usize,
    k: u32,
    n: usize,
    skew: f64,
    rng: &mut R,
) -> Result<Vec<Vec<u32>>, GenError> {
    if m == 0 || k == 0 || n == 0 {
        return Err(GenError::Infeasible("m, k, n must be positive".into()));
    }
    if k as usize > n {
        return Err(GenError::Infeasible(format!(
            "set size {k} exceeds element count {n}"
        )));
    }
    if !skew.is_finite() || skew < 0.0 {
        return Err(GenError::Infeasible("skew must be finite and ≥ 0".into()));
    }

    // Zipf popularity sampled in O(1) per draw via an alias table (the
    // old cumulative-sum binary search cost O(log n) per draw and showed
    // up in generator-bound experiment profiles).
    let popularity: Vec<f64> = (0..n).map(|j| ((j + 1) as f64).powf(-skew)).collect();
    let total: f64 = popularity.iter().sum();
    let tail: f64 = popularity[k as usize - 1..].iter().sum();
    if tail < total * MIN_TAIL_MASS {
        return Err(GenError::Infeasible(format!(
            "skew {skew} leaves under 2^-20 of the popularity outside the top {} elements; \
             drawing {k} distinct elements per set would not finish",
            k - 1
        )));
    }
    let table = AliasTable::new(&popularity).expect("Zipf popularities are positive and finite");

    // memberships[e] = sets containing element e.
    let mut memberships: Vec<Vec<u32>> = vec![Vec::new(); n];
    for set in 0..m {
        let mut picked: Vec<usize> = Vec::with_capacity(k as usize);
        while picked.len() < k as usize {
            let j = table.sample(rng);
            if !picked.contains(&j) {
                picked.push(j);
            }
        }
        for &j in &picked {
            memberships[j].push(set as u32);
        }
    }
    Ok(memberships)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::InstanceStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sizes_exact_loads_vary() {
        let mut rng = StdRng::seed_from_u64(0);
        let inst = fixed_size_instance(50, 4, 100, 1.2, &mut rng).unwrap();
        let st = InstanceStats::compute(&inst);
        assert_eq!(st.m, 50);
        assert_eq!(st.uniform_size, Some(4));
        // Strong skew should produce non-uniform loads.
        assert_eq!(st.uniform_load, None);
        // And a second moment strictly above the squared mean.
        assert!(st.sigma_sq_mean > st.sigma_mean * st.sigma_mean * 1.05);
    }

    #[test]
    fn skew_zero_is_roughly_balanced() {
        let mut rng = StdRng::seed_from_u64(1);
        let inst = fixed_size_instance(100, 3, 60, 0.0, &mut rng).unwrap();
        let st = InstanceStats::compute(&inst);
        assert_eq!(st.uniform_size, Some(3));
        // Variance exists but stays moderate for uniform popularity.
        let ratio = st.sigma_sq_mean / (st.sigma_mean * st.sigma_mean);
        assert!(ratio < 1.6, "dispersion ratio {ratio}");
    }

    #[test]
    fn higher_skew_means_higher_dispersion() {
        let flat = fixed_size_instance(80, 4, 100, 0.0, &mut StdRng::seed_from_u64(2)).unwrap();
        let skewed = fixed_size_instance(80, 4, 100, 1.5, &mut StdRng::seed_from_u64(2)).unwrap();
        let d = |i: &Instance| {
            let st = InstanceStats::compute(i);
            st.sigma_sq_mean / (st.sigma_mean * st.sigma_mean)
        };
        assert!(d(&skewed) > d(&flat));
    }

    #[test]
    fn parameters_validated() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(fixed_size_instance(0, 1, 1, 0.0, &mut rng).is_err());
        assert!(fixed_size_instance(1, 5, 3, 0.0, &mut rng).is_err());
        // A skew this steep underflows every popularity but the first, so
        // no set could ever draw 3 distinct elements.
        assert!(matches!(
            fixed_size_instance(14, 3, 30, 1.25e21, &mut rng),
            Err(GenError::Infeasible(_))
        ));
        assert!(matches!(
            super::super::FixedSizeSource::new(14, 3, 30, 1.25e21, 0),
            Err(GenError::Infeasible(_))
        ));
        // k = 1 needs no distinct redraws, so any finite skew is fine.
        assert!(fixed_size_instance(5, 1, 30, 1.25e21, &mut rng).is_ok());
        assert!(fixed_size_instance(1, 1, 1, -1.0, &mut rng).is_err());
        assert!(fixed_size_instance(1, 1, 1, f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let a = fixed_size_instance(20, 3, 40, 1.0, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = fixed_size_instance(20, 3, 40, 1.0, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }
}
