//! The osp benchmark: end-to-end metrics of one replay and of the replay
//! service, and a traced run that splits them over the layers of
//! `osp-core` — `source`, `prologue`, `algorithms` (with `osp-gf`'s
//! `eval_batch` beneath), `engine`, `dispatch`, `serve`, `store` and
//! `wire`.
//!
//! Two workloads ([`Workload`]): one replays a streamed source
//! ([`replay`]), one drives a journaled service through its socket front
//! door ([`serve`]); between them they reach every layer. Every run
//! checks its outcomes ([`check`]) and fails if any is wrong.
//!
//! Two further replay workloads, a long randPr stream over few sets and
//! many candidates per arrival under lazy hashPr, were tried and left
//! out: both are compute-bound, and on a shared host their speed
//! switched between two levels, every few seconds to minutes, with the
//! host's load, so runs of the same code differed by more than the
//! benchmark's bounds. The memory-bound replay kept here held steady.

pub mod check;
pub mod layers;
pub mod replay;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::Path;

use report::{Metric, RunResult};

/// The end-to-end metrics, in print order, with their units. Every
/// workload reports all of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("arrivals_per_s", "arrivals/s"),
    ("jobs_per_s", "jobs/s"),
    ("batch_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, in print order, with their units. Every
/// workload reports all of them; a layer the workload's traced path does
/// not time reads 0.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("source.pull_ns", "ns"),
    ("source.busy_share", "share"),
    ("source.build_s", "s"),
    ("source.state_bytes", "bytes"),
    ("prologue.begin_ms", "ms"),
    ("prologue.ns_per_set", "ns"),
    ("algorithms.decide_ns", "ns"),
    ("algorithms.decide_ns_per_candidate", "ns"),
    ("algorithms.busy_share", "share"),
    ("gf.evals", "count"),
    ("engine.step_self_ns", "ns"),
    ("engine.busy_share", "share"),
    ("engine.useful_assignment_frac", "share"),
    ("engine.completed_sets", "count"),
    ("dispatch.ms_per_job", "ms"),
    ("dispatch.calls", "calls/batch"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.after_dispatch_ms", "ms"),
    ("serve.cache_hit_frac", "share"),
    ("store.hit_batch_p50_ms", "ms"),
    ("store.miss_batch_p50_ms", "ms"),
    ("store.journal_bytes_per_job", "bytes"),
    ("wire.submit_ms", "ms"),
    ("wire.status_ms", "ms"),
    ("wire.fetch_ms", "ms"),
    ("wire.polls_per_batch", "count"),
    ("wire.fetch_bytes_per_job", "bytes"),
    ("trace.overhead_share", "share"),
];

fn fill(table: &[(&'static str, &'static str)], values: &[(&str, f64, String)]) -> Vec<Metric> {
    table
        .iter()
        .map(
            |&(name, unit)| match values.iter().find(|(n, _, _)| *n == name) {
                Some((_, value, note)) => Metric::new(name, unit, *value, note.clone()),
                None => Metric::new(name, unit, 0.0, "not on this workload's traced path"),
            },
        )
        .collect()
}

/// The end-to-end metrics from `(name, value, note)` triples.
pub fn end_to_end(values: &[(&str, f64, String)]) -> Vec<Metric> {
    fill(&END_TO_END, values)
}

/// The per-layer metrics from `(name, value, note)` triples; layers
/// without a value read 0.
pub fn per_layer(values: &[(&str, f64, String)]) -> Vec<Metric> {
    fill(&PER_LAYER, values)
}

/// Input sizes: the benchmark's, or a reduced one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Small inputs that exercise the same paths in well under a second.
    Smoke,
}

impl Scale {
    /// `full` or `smoke`, by scale.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A biregular instance with 2²⁰ sets under eager hashPr: contended
    /// decisions, a cache-missing engine step, a 1M-entry prologue.
    ContendedBiregular,
    /// A journaled replay service behind its socket front door.
    ServeJournal,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 2] = [Workload::ContendedBiregular, Workload::ServeJournal];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ContendedBiregular => "contended-biregular",
            Workload::ServeJournal => "serve-journal",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload. `out_dir` receives the spans file and the
    /// service's scratch directory (removed afterwards).
    pub fn run(
        self,
        scale: Scale,
        seed: u64,
        seconds: f64,
        trace: bool,
        out_dir: &Path,
    ) -> RunResult {
        let spans = out_dir.join(format!("spans-{}.jsonl", self.name()));
        let spans = trace.then_some(spans.as_path());
        match self {
            Workload::ContendedBiregular => replay::run(scale, seed, seconds, trace, spans),
            Workload::ServeJournal => {
                let work = out_dir.join(format!("work-{}", std::process::id()));
                serve::run(scale, seed, seconds, trace, &work, spans)
            }
        }
    }
}
