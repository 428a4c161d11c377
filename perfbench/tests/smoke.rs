//! Reduced-size runs of every workload end to end, and the checker's
//! negative test.

use std::path::PathBuf;

use osp_core::algorithms::RandPr;
use osp_core::gen::{BiregularSource, RandomInstanceConfig, UniformSource};
use osp_core::run_source;
use osp_core::source::ArrivalSource;
use osp_core::{DecisionLog, Outcome, SetId};
use osp_perfbench::check::check_outcome;
use osp_perfbench::{Scale, Workload, END_TO_END, PER_LAYER};

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("creating the test's output directory");
    dir
}

fn names(metrics: &[osp_perfbench::report::Metric]) -> Vec<&str> {
    metrics.iter().map(|m| m.name).collect()
}

#[test]
fn every_workload_runs_correctly_at_smoke_scale() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let dir = out_dir(&format!("smoke-{}-{trace}", workload.name()));
            let result = workload.run(Scale::Smoke, 7, 0.2, trace, &dir);
            assert!(
                result.correct(),
                "{} (trace {trace}): {:?}",
                workload.name(),
                result.errors
            );
            let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
            assert_eq!(names(&result.end_to_end), want, "{}", workload.name());
            assert!(
                result
                    .end_to_end
                    .iter()
                    .all(|m| m.value.is_finite() && m.value > 0.0),
                "{}: {:?}",
                workload.name(),
                result.end_to_end
            );
            if trace {
                let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
                assert_eq!(names(&result.per_layer), want, "{}", workload.name());
                assert!(dir
                    .join(format!("spans-{}.jsonl", workload.name()))
                    .is_file());
            }
        }
    }
}

#[test]
fn checker_accepts_engine_outcomes() {
    let cfg = RandomInstanceConfig::unweighted(50, 400, 3);
    let outcome = run_source(
        &mut UniformSource::new(&cfg, 3).expect("feasible config"),
        &mut RandPr::from_seed(4),
    )
    .expect("randPr decides validly");
    let stats = check_outcome(
        &mut UniformSource::new(&cfg, 3).expect("feasible config"),
        &outcome,
    )
    .expect("the engine's own outcome checks out");
    assert_eq!(stats.arrivals, 400);
    assert_eq!(stats.completed, outcome.completed().len() as u64);
}

/// `outcome` with one extra set appended to the first decision that can
/// take one: a candidate of that arrival not already chosen. For the
/// checker's negative test.
fn tamper<S: ArrivalSource + ?Sized>(source: &mut S, outcome: &Outcome) -> Option<Outcome> {
    let (offsets, data) = outcome.decisions().as_parts();
    let mut index = 0;
    let (target, extra) = loop {
        let arrival = source.next_arrival()?;
        let decision = &data[offsets[index] as usize..offsets[index + 1] as usize];
        if let Some(&s) = arrival.members().iter().find(|s| !decision.contains(s)) {
            break (index, s);
        }
        index += 1;
    };
    let mut new_data = data.to_vec();
    new_data.insert(offsets[target + 1] as usize, extra);
    let new_offsets: Vec<u32> = offsets
        .iter()
        .enumerate()
        .map(|(i, &o)| if i > target { o + 1 } else { o })
        .collect();
    let decisions = DecisionLog::from_parts(new_offsets, new_data).ok()?;
    let m = source.sets().len();
    let died_at = (0..m).map(|i| outcome.died_at(SetId(i as u32))).collect();
    Outcome::from_parts(
        outcome.completed().to_vec(),
        outcome.benefit(),
        decisions,
        died_at,
    )
    .ok()
}

#[test]
fn checker_rejects_one_extra_set_in_one_decision() {
    let source = || BiregularSource::new(256, 4, 4, 11).expect("feasible biregular instance");
    let outcome = run_source(&mut source(), &mut RandPr::from_seed(5)).expect("valid run");
    let tampered = tamper(&mut source(), &outcome).expect("some decision can take another set");
    assert_eq!(
        tampered.decisions().total_assignments(),
        outcome.decisions().total_assignments() + 1
    );
    let verdict = check_outcome(&mut source(), &tampered);
    assert!(verdict.is_err(), "tampered outcome accepted: {verdict:?}");
}

#[test]
fn checker_rejects_a_wrong_benefit() {
    let source = || BiregularSource::new(256, 4, 4, 12).expect("feasible biregular instance");
    let outcome = run_source(&mut source(), &mut RandPr::from_seed(6)).expect("valid run");
    let wrong = Outcome::from_parts(
        outcome.completed().to_vec(),
        outcome.benefit() + 1.0,
        outcome.decisions().clone(),
        (0..256).map(|i| outcome.died_at(SetId(i))).collect(),
    )
    .expect("structurally valid");
    assert!(check_outcome(&mut source(), &wrong).is_err());
}

#[test]
fn benchmark_json_lists_the_metrics_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        assert!(spec.contains(&format!("\"name\": \"{}\", \"why\"", workload.name())));
    }
    let listed = spec.matches("\"name\":").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}
