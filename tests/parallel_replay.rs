//! Conformance layer for intra-replay parallelism: the pipelined session
//! and the sharded decision kernel.
//!
//! The headline risk is the same silent nondeterminism the batch suite
//! guards against, now *inside* one replay: a chunk boundary dropping or
//! reordering arrivals, a sharded score fill perturbing the selection
//! order, a thread count leaking into decisions. This suite pins the
//! contract: for every built-in algorithm over the generator-model grid,
//! [`run_source_with`] outcomes are **bit-identical** to sequential
//! [`run`] — completed sets, benefit, per-arrival decisions and
//! `died_at` — at thread counts 1, 2 and 8, and the sharded decision
//! kernel agrees with serial scoring on arrivals wide enough to
//! trigger it.

use osp_core::algorithms::{
    GreedyOnline, HashRandPr, OracleOnline, RandPr, RandomAssign, TieBreak,
};
use osp_core::engine::batch::SourceJob;
use osp_core::engine::parallel::{replay_threads, SHARDED_DECIDE_MIN};
use osp_core::gen::{
    biregular_instance, fixed_size_instance, random_instance, BiregularSource, CapacityModel,
    FixedSizeSource, LoadModel, RandomInstanceConfig, UniformSource, WeightModel,
};
use osp_core::source::ArrivalSource;
use osp_core::{
    derive_seed, run, run_source, run_source_with, Instance, OnlineAlgorithm, Outcome, ReplayPool,
    ReplayScratch, SetId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const TRIALS: u64 = 6;

/// Arrivals per pipeline chunk (the pipeline's private staging size).
const PIPELINE_CHUNK: usize = 1024;

/// Stream length for the pipelined suites: three full chunk hand-offs
/// plus a partial tail chunk.
const ARRIVALS: usize = 3 * PIPELINE_CHUNK + 328;

/// Asserts a replayed stream crossed at least three chunk boundaries and
/// ended on a partial chunk, so the chunk hand-off and tail paths ran.
fn assert_crosses_chunks(label: &str, outcome: &Outcome) {
    let n = outcome.decisions().len();
    assert!(
        n > 3 * PIPELINE_CHUNK && !n.is_multiple_of(PIPELINE_CHUNK),
        "{label}: {n} arrivals do not cross three chunks plus a partial tail"
    );
}

/// A named, seeded constructor for a boxed streamed source.
type SourceBuilder = (
    &'static str,
    Box<dyn Fn(u64) -> Box<dyn ArrivalSource + Send>>,
);

/// A named, seeded constructor for a boxed algorithm.
type SeededAlgorithm = (&'static str, Box<dyn Fn(u64) -> Box<dyn OnlineAlgorithm>>);

/// A named constructor for a boxed algorithm with a fixed seed.
type FixedAlgorithm = (&'static str, Box<dyn Fn() -> Box<dyn OnlineAlgorithm>>);

/// The generator-model grid (same models as `tests/batch_equivalence.rs`,
/// scaled so every stream crosses several pipeline chunks).
fn instance_grid() -> Vec<(&'static str, Instance)> {
    let mut grid = Vec::new();

    let mut rng = StdRng::seed_from_u64(11);
    grid.push((
        "uniform unweighted (m=1200, σ=4)",
        random_instance(
            &RandomInstanceConfig::unweighted(1200, ARRIVALS, 4),
            &mut rng,
        )
        .unwrap(),
    ));

    let mut rng = StdRng::seed_from_u64(12);
    grid.push((
        "zipf weights, variable loads and capacities",
        random_instance(
            &RandomInstanceConfig {
                num_sets: 1500,
                num_elements: ARRIVALS,
                load: LoadModel::Uniform { lo: 1, hi: 6 },
                weights: WeightModel::Zipf { exponent: 1.0 },
                capacities: CapacityModel::Uniform { lo: 1, hi: 3 },
            },
            &mut rng,
        )
        .unwrap(),
    ));

    let mut rng = StdRng::seed_from_u64(13);
    grid.push((
        "bi-regular (m=6800, k=3, σ=6)",
        biregular_instance(6800, 3, 6, &mut rng).unwrap(),
    ));

    let mut rng = StdRng::seed_from_u64(14);
    grid.push((
        "fixed size, skewed loads (m=3000, k=4, skew=0.8)",
        fixed_size_instance(3000, 4, 6000, 0.8, &mut rng).unwrap(),
    ));

    grid
}

/// A feasible oracle target: whatever deterministic greedy completed.
fn oracle_target(instance: &Instance) -> Vec<SetId> {
    run(instance, &mut GreedyOnline::new(TieBreak::ByWeight))
        .unwrap()
        .completed()
        .to_vec()
}

/// The five algorithm families under test.
fn algorithm(family: usize, seed: u64, target: &[SetId]) -> Box<dyn OnlineAlgorithm> {
    match family {
        0 => Box::new(GreedyOnline::new(TieBreak::ByWeight)),
        1 => Box::new(RandPr::from_seed(seed)),
        2 => Box::new(HashRandPr::new(8, seed)),
        3 => Box::new(RandomAssign::from_seed(seed)),
        _ => Box::new(OracleOnline::new(target.to_vec())),
    }
}

const FAMILY_NAMES: [&str; 5] = ["greedy", "randPr", "hashPr", "random_assign", "oracle"];

/// Full field-by-field comparison, through the public accessors so the
/// assertion failure names the diverging field.
fn assert_outcomes_identical(label: &str, sequential: &Outcome, parallel: &Outcome, sets: usize) {
    assert_eq!(
        sequential.completed(),
        parallel.completed(),
        "{label}: completed sets diverged"
    );
    assert!(
        sequential.benefit().to_bits() == parallel.benefit().to_bits(),
        "{label}: benefit diverged ({} vs {})",
        sequential.benefit(),
        parallel.benefit()
    );
    assert_eq!(
        sequential.decisions(),
        parallel.decisions(),
        "{label}: decisions diverged"
    );
    for i in 0..sets {
        let s = SetId(i as u32);
        assert_eq!(
            sequential.died_at(s),
            parallel.died_at(s),
            "{label}: died_at({s:?}) diverged"
        );
    }
    assert_eq!(sequential, parallel, "{label}: outcome diverged");
}

#[test]
fn parallel_replay_is_bit_identical_to_sequential_run() {
    // The acceptance grid: every algorithm family × generator model ×
    // thread count, against the sequential `run` reference.
    for (model, instance) in instance_grid() {
        let target = oracle_target(&instance);
        for (family, family_name) in FAMILY_NAMES.iter().enumerate() {
            for trial in 0..TRIALS {
                let seed = derive_seed(family as u64, trial);
                let sequential = run(&instance, algorithm(family, seed, &target).as_mut()).unwrap();
                assert_crosses_chunks(model, &sequential);
                for threads in THREAD_COUNTS {
                    let mut scratch = ReplayScratch::new();
                    let parallel = run_source_with(
                        &mut instance.source(),
                        algorithm(family, seed, &target).as_mut(),
                        threads,
                        &mut scratch,
                    )
                    .unwrap();
                    let label =
                        format!("{model} / {family_name} / trial {trial} / {threads} threads");
                    assert_outcomes_identical(&label, &sequential, &parallel, instance.num_sets());
                }
            }
        }
    }
}

#[test]
fn pipelined_streamed_sources_match_sequential_run_source() {
    // The fused generator sources (the pipeline's raison d'être) at every
    // thread count, including lazy hashPr whose scoring rides eval_batch.
    let uniform_cfg = RandomInstanceConfig::unweighted(1200, ARRIVALS, 4);
    let zipf_cfg = RandomInstanceConfig {
        num_sets: 1500,
        num_elements: ARRIVALS,
        load: LoadModel::Uniform { lo: 1, hi: 6 },
        weights: WeightModel::Zipf { exponent: 1.0 },
        capacities: CapacityModel::Uniform { lo: 1, hi: 3 },
    };
    let builders: Vec<SourceBuilder> = vec![
        (
            "uniform",
            Box::new(move |seed| Box::new(UniformSource::new(&uniform_cfg, seed).unwrap())),
        ),
        (
            "zipf",
            Box::new(move |seed| Box::new(UniformSource::new(&zipf_cfg, seed).unwrap())),
        ),
        (
            "bi-regular",
            Box::new(|seed| Box::new(BiregularSource::new(6800, 3, 6, seed).unwrap())),
        ),
        (
            "fixed-size",
            Box::new(|seed| Box::new(FixedSizeSource::new(3000, 4, 6000, 0.8, seed).unwrap())),
        ),
    ];
    let algorithms: Vec<SeededAlgorithm> = vec![
        (
            "greedy",
            Box::new(|_| Box::new(GreedyOnline::new(TieBreak::ByWeight))),
        ),
        ("randPr", Box::new(|s| Box::new(RandPr::from_seed(s)))),
        ("hashPr", Box::new(|s| Box::new(HashRandPr::new(8, s)))),
        (
            "hashPr-lazy",
            Box::new(|s| Box::new(HashRandPr::new_lazy(8, s))),
        ),
        (
            "random_assign",
            Box::new(|s| Box::new(RandomAssign::from_seed(s))),
        ),
    ];
    for (source_name, source) in &builders {
        for (alg_name, alg) in &algorithms {
            let seed = derive_seed(77, 0);
            let sequential = run_source(&mut source(seed), alg(seed).as_mut()).unwrap();
            assert_crosses_chunks(source_name, &sequential);
            for threads in THREAD_COUNTS {
                let mut scratch = ReplayScratch::new();
                let parallel =
                    run_source_with(&mut source(seed), alg(seed).as_mut(), threads, &mut scratch)
                        .unwrap();
                assert_eq!(
                    sequential, parallel,
                    "{source_name} / {alg_name} / {threads} threads diverged"
                );
            }
        }
    }
}

/// A star instance wide enough to cross [`SHARDED_DECIDE_MIN`]: every
/// arrival lists all `m` sets, so the sharded decision kernel actually
/// runs (the conformance grids above stay below the threshold and pin
/// the dispatch's *serial* side).
fn wide_star(m: usize) -> Instance {
    let mut b = osp_core::InstanceBuilder::new();
    let ids: Vec<SetId> = (0..m)
        .map(|i| {
            // Varied weights (with zero-weight sets sprinkled in to hit
            // the Priority::zero() lane) and three elements per set.
            let w = if i % 11 == 0 {
                0.0
            } else {
                0.5 + (i % 7) as f64 * 0.3
            };
            b.add_set(w, 3)
        })
        .collect();
    for _ in 0..3 {
        b.add_element(2, &ids);
    }
    b.build().unwrap()
}

#[test]
fn sharded_decision_kernel_matches_serial_on_wide_arrivals() {
    let inst = wide_star(SHARDED_DECIDE_MIN + 501);
    let algorithms: Vec<FixedAlgorithm> = vec![
        (
            "greedy",
            Box::new(|| Box::new(GreedyOnline::new(TieBreak::ByWeight))),
        ),
        ("randPr", Box::new(|| Box::new(RandPr::from_seed(3)))),
        ("hashPr", Box::new(|| Box::new(HashRandPr::new(8, 3)))),
        (
            "hashPr-lazy",
            Box::new(|| Box::new(HashRandPr::new_lazy(8, 3))),
        ),
    ];
    for (alg_name, alg) in &algorithms {
        let sequential = run(&inst, alg().as_mut()).unwrap();
        for threads in THREAD_COUNTS {
            let mut scratch = ReplayScratch::new();
            let parallel =
                run_source_with(&mut inst.source(), alg().as_mut(), threads, &mut scratch).unwrap();
            assert_outcomes_identical(
                &format!("wide star / {alg_name} / {threads} threads"),
                &sequential,
                &parallel,
                inst.num_sets(),
            );
        }
    }
}

#[test]
fn batch_and_intra_replay_parallelism_compose() {
    // The pool's source lane: OSP_REPLAY_SHARDS-style job fan-out ×
    // per-job pipeline threads, against plain sequential run_source.
    let cfg = RandomInstanceConfig::unweighted(1200, ARRIVALS, 4);
    let jobs: Vec<SourceJob> = (0..10)
        .map(|i| SourceJob {
            source: 0,
            algorithm: 0,
            seed: derive_seed(5, i),
        })
        .collect();
    let reference: Vec<Outcome> = jobs
        .iter()
        .map(|job| {
            run_source(
                &mut UniformSource::new(&cfg, job.seed).unwrap(),
                &mut RandPr::from_seed(job.seed),
            )
            .unwrap()
        })
        .collect();
    assert_crosses_chunks("uniform", &reference[0]);
    for shards in [1usize, 2, 4] {
        for threads in THREAD_COUNTS {
            let got = ReplayPool::new(shards).run_sources(
                &jobs,
                &|_, seed| Box::new(UniformSource::new(&cfg, seed).unwrap()),
                &|_, seed| Box::new(RandPr::from_seed(seed)),
                threads,
            );
            assert_eq!(got.len(), reference.len());
            for (i, (want, got)) in reference.iter().zip(&got).enumerate() {
                assert_eq!(
                    want,
                    got.as_ref().unwrap(),
                    "job {i} diverged at {shards} shards × {threads} threads"
                );
            }
        }
    }
}

#[test]
fn run_source_with_at_the_env_thread_count_agrees_with_run() {
    // The env-driven thread count itself (whatever OSP_REPLAY_THREADS
    // happens to be in this test process — the policy maps every value,
    // including unset, to some thread count, and all of them must be
    // bit-identical).
    let (_, instance) = instance_grid().swap_remove(1);
    let want = run(&instance, &mut RandPr::from_seed(9)).unwrap();
    let mut scratch = ReplayScratch::new();
    let via_env = run_source_with(
        &mut instance.source(),
        &mut RandPr::from_seed(9),
        replay_threads(),
        &mut scratch,
    )
    .unwrap();
    assert_eq!(want, via_env);
}
