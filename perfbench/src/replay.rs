//! The `contended-biregular` workload: one `run_source` replay at a
//! time, with default configuration, of a `BiregularSource` with m=2²⁰
//! sets, k=4, σ=4, under eager 16-wise hashPr.
//!
//! A run constructs the source several times (set-up, timed), replays it
//! once as a warm-up whose outcome the checker verifies against a fresh
//! construction, then replays clones of the same source until the time
//! is up, timing further constructions between the replays so that
//! `setup_s` samples the whole run rather than its first second. Every
//! timed replay must reproduce the checked outcome bit for bit. The
//! traced run replays the same way through the layer adapters and must
//! reproduce it too.

use std::path::Path;
use std::time::Instant;

use osp_core::algorithms::HashRandPr;
use osp_core::gen::BiregularSource;
use osp_core::source::ArrivalSource;
use osp_core::{derive_seed, run_source, OnlineAlgorithm, Outcome, ReplayScratch};

use crate::check::{check_outcome, CheckStats};
use crate::layers::traced_replay;
use crate::report::{Metric, RunResult};
use crate::stats::{median, peak_rss_mb, tail_ms};
use crate::trace::{self_times, Calibration, Span, Tracer};
use crate::{end_to_end, per_layer, Scale};

/// Source constructions timed before the first replay; `setup_s` is the
/// median of these and of those timed between replays.
const SETUP_ROUNDS: usize = 3;
/// Between replays, a construction is timed whenever constructions so
/// far took less than this share of the run.
const SETUP_SHARE: f64 = 0.1;

/// Mean gap between sampled arrivals in the traced run. Recording one
/// sampled arrival costs a few hundred nanoseconds, so this keeps the
/// tracing overhead well under one percent, and a traced run's record at
/// a few tens of thousands of sampled arrivals.
const SAMPLE_GAP_NS: f64 = 200_000.0;

/// Runs the workload for `seconds` of timed replays (alternating
/// untraced and traced replays when `trace` is set).
pub fn run(
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_path: Option<&Path>,
) -> RunResult {
    let source_seed = derive_seed(seed, 0);
    let alg_seed = derive_seed(seed, 1);
    let run = Run {
        seconds,
        trace,
        spans_path,
    };
    let m = scale.pick(1 << 20, 1 << 12);
    run.measure(
        || BiregularSource::new(m, 4, 4, source_seed).map_err(|e| e.to_string()),
        BiregularSource::state_bytes,
        || HashRandPr::new(16, alg_seed),
    )
}

/// Bit-identical outcomes: `Outcome`'s equality plus the benefit's bits.
fn same_outcome(a: &Outcome, b: &Outcome) -> bool {
    a == b && a.benefit().to_bits() == b.benefit().to_bits()
}

struct Run<'p> {
    seconds: f64,
    trace: bool,
    spans_path: Option<&'p Path>,
}

impl Run<'_> {
    fn measure<S, A>(
        &self,
        build_source: impl Fn() -> Result<S, String>,
        state_bytes: impl Fn(&S) -> usize,
        build_alg: impl Fn() -> A,
    ) -> RunResult
    where
        S: ArrivalSource + Clone,
        A: OnlineAlgorithm,
    {
        let mut result = RunResult::default();

        // Set-up: construct the source several times. The first copy is
        // kept pristine for the checker; the last one is cloned per replay.
        let mut setup_s: Vec<f64> = Vec::new();
        let mut fresh = None;
        let mut template = None;
        while setup_s.len() < SETUP_ROUNDS {
            let t0 = Instant::now();
            let source = build_source();
            setup_s.push(t0.elapsed().as_secs_f64());
            match source {
                Ok(source) if fresh.is_none() => fresh = Some(source),
                Ok(source) => template = Some(source),
                Err(e) => {
                    result.attempted += 1;
                    result.fail(format!("source construction failed: {e}"));
                    return result;
                }
            }
        }
        let template = template.expect("at least two constructions");
        let mut fresh = fresh.expect("at least two constructions");

        // Warm-up replay, verified from scratch against a fresh source.
        result.attempted += 1;
        let t0 = Instant::now();
        let warm = run_source(&mut template.clone(), &mut build_alg());
        let warm_s = t0.elapsed().as_secs_f64();
        let reference = match warm {
            Ok(outcome) => outcome,
            Err(e) => {
                result.fail(format!("warm-up replay failed: {e}"));
                return result;
            }
        };
        let stats = match check_outcome(&mut fresh, &reference) {
            Ok(stats) => stats,
            Err(e) => {
                result.fail(format!("outcome check: {e}"));
                return result;
            }
        };
        let n = stats.arrivals as f64;

        // Timed replays. A traced run alternates untraced and traced
        // replays, so both see the same host conditions and their ratio
        // is the tracing overhead.
        let period = ((SAMPLE_GAP_NS / (warm_s * 1e9 / n.max(1.0))).round() as u64).clamp(1, 4096);
        let tracer = Tracer::new();
        let mut scratch = ReplayScratch::new();
        let (mut walls, mut traced) = (Vec::new(), Vec::new());
        let mut id = 0u64;
        let start = Instant::now();
        while walls.is_empty() || start.elapsed().as_secs_f64() < self.seconds {
            walls.extend(checked(&mut result, &reference, || {
                let mut source = template.clone();
                let mut alg = build_alg();
                let t0 = Instant::now();
                let outcome = run_source(&mut source, &mut alg);
                (t0.elapsed().as_secs_f64(), outcome)
            }));
            if self.trace {
                id += 1;
                traced.extend(checked(&mut result, &reference, || {
                    let source = template.clone();
                    let alg = build_alg();
                    let t0 = Instant::now();
                    let outcome = traced_replay(source, alg, &tracer, id, period, &mut scratch);
                    (t0.elapsed().as_secs_f64(), outcome)
                }));
            }
            if setup_s.iter().sum::<f64>() < SETUP_SHARE * start.elapsed().as_secs_f64() {
                let t0 = Instant::now();
                let source = build_source();
                setup_s.push(t0.elapsed().as_secs_f64());
                if let Err(e) = source {
                    result.attempted += 1;
                    result.fail(format!("source construction failed: {e}"));
                }
            }
        }
        if walls.is_empty() {
            return result;
        }
        let wall = median(&walls);
        let count = walls.len() as f64;
        let busy: f64 = walls.iter().sum();
        let (name, value, note) = tail_ms(&walls, "replays");
        result.tail = Some(Metric::new(name, "ms", value, note));
        result.end_to_end = end_to_end(&[
            (
                "arrivals_per_s",
                n * count / busy,
                format!("{count} replays × {n} arrivals ÷ Σ replay wall"),
            ),
            (
                "jobs_per_s",
                count / busy,
                format!("one job = one replay; {count} ÷ Σ replay wall"),
            ),
            (
                "batch_p50_ms",
                wall * 1e3,
                format!("one batch = one replay; median of {count}"),
            ),
            (
                "setup_s",
                median(&setup_s),
                format!("source construction, median of {}", setup_s.len()),
            ),
            (
                "peak_rss_mb",
                peak_rss_mb(),
                "VmHWM of this process".to_string(),
            ),
        ]);
        if traced.is_empty() {
            return result;
        }
        let spans = tracer.spans();
        if let Some(path) = self.spans_path {
            if let Err(e) = tracer.write_jsonl(path) {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
            }
        }
        // Eager hashPr evaluates its polynomial once per set, in `begin`.
        let gf_evals = template.sets().len() as f64;
        result.per_layer = replay_ledger(&LedgerInput {
            spans: &spans,
            cal: Tracer::calibrate(4000),
            stats,
            period,
            build_s: median(&setup_s),
            state_bytes: state_bytes(&template) as f64,
            gf_evals,
            overhead: median(&traced) / wall - 1.0,
        });
        result
    }
}

/// Runs one timed replay and compares its outcome with `reference`
/// outside the timed window. Returns its wall if the outcome matched.
fn checked(
    result: &mut RunResult,
    reference: &Outcome,
    replay: impl FnOnce() -> (f64, Result<Outcome, osp_core::Error>),
) -> Option<f64> {
    let (wall, outcome) = replay();
    result.attempted += 1;
    match outcome {
        Ok(outcome) if same_outcome(&outcome, reference) => Some(wall),
        Ok(_) => {
            result.fail("a replay's outcome differs from the checked warm-up outcome");
            None
        }
        Err(e) => {
            result.fail(format!("replay failed: {e}"));
            None
        }
    }
}

struct LedgerInput<'s> {
    spans: &'s [Span],
    cal: Calibration,
    stats: CheckStats,
    period: u64,
    build_s: f64,
    state_bytes: f64,
    gf_evals: f64,
    overhead: f64,
}

/// Per-name totals over the traced spans.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    count: f64,
    dur_ns: f64,
    self_ns: f64,
    work: f64,
}

fn totals(spans: &[Span], own: &[u64], name: &str) -> Totals {
    let mut t = Totals::default();
    for (s, &self_ns) in spans.iter().zip(own) {
        if s.name == name {
            t.count += 1.0;
            t.dur_ns += s.dur_ns() as f64;
            t.self_ns += self_ns as f64;
            t.work += s.work as f64;
        }
    }
    t
}

const SHARE_NOTE: &str = "of replay wall outside begin, split by sampled self time";

fn replay_ledger(input: &LedgerInput<'_>) -> Vec<Metric> {
    let own = self_times(input.spans, input.cal);
    let replay = totals(input.spans, &own, "replay");
    let pull = totals(input.spans, &own, "source.next_arrival");
    let begin = totals(input.spans, &own, "prologue.begin");
    let decide = totals(input.spans, &own, "algorithms.decide_into");
    let step = totals(input.spans, &own, "engine.step");
    // Timing a call of a few dozen nanoseconds perturbs it (the clock
    // reads serialize the pipeline), so sampled self times do not add up
    // to the wall. The replay wall outside `begin` is split over the
    // per-arrival layers in proportion to their sampled self times.
    let per_arrival = |t: Totals| t.self_ns / t.count.max(1.0);
    let sampled_sum = per_arrival(pull) + per_arrival(decide) + per_arrival(step);
    let outside_begin = 1.0 - begin.dur_ns / replay.dur_ns;
    let share = |t: Totals| per_arrival(t) / sampled_sum * outside_begin;
    let sampled = format!(
        "{} sampled arrivals (1 in {}) over {} traced replays",
        step.count, input.period, replay.count
    );
    let st = input.stats;
    per_layer(&[
        ("source.pull_ns", pull.self_ns / pull.count, sampled.clone()),
        ("source.busy_share", share(pull), SHARE_NOTE.into()),
        (
            "source.build_s",
            input.build_s,
            "median construction".into(),
        ),
        (
            "source.state_bytes",
            input.state_bytes,
            "BiregularSource::state_bytes".into(),
        ),
        (
            "prologue.begin_ms",
            begin.dur_ns / begin.count / 1e6,
            format!("mean of {}", begin.count),
        ),
        (
            "prologue.ns_per_set",
            begin.dur_ns / begin.work.max(1.0),
            "begin wall ÷ sets".into(),
        ),
        (
            "algorithms.decide_ns",
            decide.self_ns / decide.count,
            sampled.clone(),
        ),
        (
            "algorithms.decide_ns_per_candidate",
            decide.self_ns / decide.work.max(1.0),
            "decide wall ÷ candidates scored".into(),
        ),
        ("algorithms.busy_share", share(decide), SHARE_NOTE.into()),
        (
            "gf.evals",
            input.gf_evals,
            "polynomial evaluations per replay (computed)".into(),
        ),
        (
            "engine.step_self_ns",
            step.self_ns / step.count,
            format!(
                "step − decide_into − {} ns span bookkeeping",
                input.cal.child_ns
            ),
        ),
        ("engine.busy_share", share(step), SHARE_NOTE.into()),
        (
            "engine.useful_assignment_frac",
            st.useful_assignments as f64 / (st.assignments as f64).max(1.0),
            format!(
                "{} of {} assignments",
                st.useful_assignments, st.assignments
            ),
        ),
        (
            "engine.completed_sets",
            st.completed as f64,
            "per replay".into(),
        ),
        (
            "trace.overhead_share",
            input.overhead,
            "traced ÷ untraced median replay wall − 1".into(),
        ),
    ])
}
