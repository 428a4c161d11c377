//! The `serve-journal` workload: one client in a closed loop against a
//! journaled `ReplayService` behind a `ServeServer` on a Unix socket.
//!
//! Each batch is four Biregular jobs (m=2000, k=4, σ=4), alternating
//! randPr and 16-wise hashPr, run by the threads backend with one shard.
//! The client submits a batch, polls `status` at a fixed interval until
//! the batch is terminal, then fetches it. While it waits, only the
//! service works, so the loop keeps about one CPU busy at a time: with
//! one thread per shard on a host of few cores, a batch would wait for
//! its slowest shard, and its latency would follow the host's scheduling
//! rather than the service. For the same reason `run.py` runs this
//! workload on one CPU. Every fourth batch resubmits the previous
//! one, so it is answered from the results store without dispatch.
//! After the timed loop, every fetched outcome is compared with a
//! sequential `run_spec` through a 128-bit digest of its full content,
//! so the client holds no outcomes.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use osp_core::engine::dispatch::Dispatcher;
use osp_core::serve::{
    BatchStatus, JobResult, ReplayService, ServeClient, ServeReply, ServeServer, ServiceConfig,
};
use osp_core::spec::{run_spec, AlgorithmSpec, CoreResolver, JobSpec, ScenarioSpec};
use osp_core::wire::socket::WorkerAddr;
use osp_core::{derive_seed, Error, Outcome, ReplayPool, SpecPool};

use crate::check::{outcome_digest, Digest};
use crate::layers::{BatchIndex, TimedClient, TimedDispatcher};
use crate::report::{Metric, RunResult};
use crate::stats::{median, peak_rss_mb, tail_ms};
use crate::trace::{Span, Tracer};
use crate::{end_to_end, per_layer, Scale};

/// Service start-ups timed before the timed loop; one more is timed
/// every [`SETUP_EVERY`] batches of it, so that `setup_s`, the median of
/// all, samples the whole run rather than its first moments.
const SETUP_ROUNDS: usize = 9;
const SETUP_EVERY: u64 = 50;
/// Sets per job (Biregular, k=4, σ=4, so as many arrivals).
const SETS_PER_JOB: usize = 2000;
/// Replay shards of the service's threads backend.
const SHARDS: usize = 1;
/// Jobs per batch.
const JOBS_PER_BATCH: u64 = 4;
/// The client's status-polling interval.
const POLL: Duration = Duration::from_millis(1);
/// Untimed batches run before the timed loop.
const WARM_BATCHES: u64 = 8;
/// How long the client waits for a reply before a call fails.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);
/// A batch not terminal after this long counts as failed and ends the run.
const BATCH_DEADLINE: Duration = Duration::from_secs(30);
/// Fetched batches encoded to measure wire bytes per job.
const ENCODED_SAMPLE: usize = 64;
/// The service keeps every batch it answered, so its memory grows with
/// the batches served; `peak_rss_mb` is read after this many batches, a
/// fixed amount of work, rather than after a fixed time.
const RSS_AT_BATCH: usize = 500;

/// The jobs of batch `index`: fresh ones, or (every fourth batch) the
/// previous batch's again.
fn batch_jobs(seed: u64, m: usize, index: u64) -> Vec<JobSpec> {
    let fresh = if index % 4 == 3 { index - 1 } else { index };
    (0..JOBS_PER_BATCH)
        .map(|j| JobSpec {
            scenario: ScenarioSpec::Biregular {
                num_sets: m,
                set_size: 4,
                load: 4,
            },
            algorithm: if j % 2 == 0 {
                AlgorithmSpec::RandPr
            } else {
                AlgorithmSpec::HashRandPr { independence: 16 }
            },
            seed: derive_seed(seed, fresh * JOBS_PER_BATCH + j),
        })
        .collect()
}

/// One finished batch of the closed loop.
struct Done {
    latency_s: f64,
    jobs: u64,
    cached: u64,
    arrivals: u64,
    /// Each job with the digest of its fetched outcome, for fresh batches
    /// only (a resubmission is compared with its original as soon as it
    /// is fetched).
    fetched: Option<Vec<(JobSpec, Digest)>>,
}

/// What one closed loop produced.
#[derive(Default)]
struct Loop {
    done: Vec<Done>,
    /// `VmHWM` once [`RSS_AT_BATCH`] batches were answered (or at the end).
    rss_mb: f64,
    /// Outcomes of the first fresh batches, for wire-size accounting.
    sample: Vec<Vec<Outcome>>,
}

struct Service {
    server: ServeServer,
    client: TimedClient,
}

impl Service {
    fn start(dir: &Path, dispatcher: Box<dyn Dispatcher + Send>) -> Result<Service, Error> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Unavailable(format!("creating {}: {e}", dir.display())))?;
        let config = ServiceConfig {
            state_dir: Some(dir.join("state")),
            ..ServiceConfig::default()
        };
        let service = ReplayService::new(dispatcher, config)?;
        let server = ServeServer::bind(&WorkerAddr::Uds(dir.join("serve.sock")), service)?;
        let client = ServeClient::connect(server.local_addr(), CLIENT_TIMEOUT)?;
        Ok(Service {
            server,
            client: TimedClient::new(client),
        })
    }

    fn stop(self) {
        drop(self.client);
        self.server.stop();
    }
}

fn threads_backend() -> SpecPool<CoreResolver> {
    SpecPool::new(ReplayPool::new(SHARDS), CoreResolver)
}

/// Runs the workload for `seconds` of closed loop (alternating batches
/// between an untraced and a traced service when `trace` is set).
/// `work_dir` holds the state directories and sockets; it is removed
/// afterwards.
pub fn run(
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: &Path,
    spans_path: Option<&Path>,
) -> RunResult {
    let mut result = RunResult::default();
    let m = scale.pick(SETS_PER_JOB, 100);
    let outcome = measure(&mut result, m, seed, seconds, trace, work_dir, spans_path);
    if let Err(e) = outcome {
        result.attempted += 1;
        result.fail(format!("service: {e}"));
    }
    let _ = std::fs::remove_dir_all(work_dir);
    result
}

fn measure(
    result: &mut RunResult,
    m: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: &Path,
    spans_path: Option<&Path>,
) -> Result<(), Error> {
    // Set-up: service start + bind + connect, several times.
    let mut setup_s = Vec::new();
    let timed_start = |setup_s: &mut Vec<f64>| -> Result<Service, Error> {
        let t0 = Instant::now();
        let started = Service::start(
            &work_dir.join(format!("s{}", setup_s.len())),
            Box::new(threads_backend()),
        )?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok(started)
    };
    let mut service = timed_start(&mut setup_s)?;
    while setup_s.len() < SETUP_ROUNDS {
        Service::stop(service);
        service = timed_start(&mut setup_s)?;
    }

    // A traced run drives a second, traced service, alternating batches
    // between the two, so both see the same host conditions and their
    // latency ratio is the tracing overhead.
    let mut lanes = vec![Lane::new(service, None)];
    let tracer = Arc::new(Tracer::new());
    if trace {
        let index: BatchIndex = Arc::new(Mutex::new(HashMap::new()));
        let dispatcher =
            TimedDispatcher::new(threads_backend(), Arc::clone(&tracer), Arc::clone(&index));
        let service = Service::start(&work_dir.join("t"), Box::new(dispatcher))?;
        lanes.push(Lane::new(service, Some(index)));
    }
    for lane in &mut lanes {
        warm_up(&mut lane.service.client, seed, m);
    }
    if let Some(lane) = lanes.get_mut(1) {
        lane.service.client.set_tracer(Some(Arc::clone(&tracer)));
    }
    let start = Instant::now();
    let mut i = 0u64;
    'timed: while i == 0 || start.elapsed().as_secs_f64() < seconds {
        for lane in &mut lanes {
            if lane.batch(result, seed, m, i).is_err() {
                break 'timed;
            }
        }
        i += 1;
        if i.is_multiple_of(SETUP_EVERY) {
            Service::stop(timed_start(&mut setup_s)?);
        }
    }
    let journal_bytes = dir_bytes(&work_dir.join("t").join("state"));
    let mut lanes = lanes.into_iter();
    let untraced = lanes.next().expect("the untraced lane").finish();
    let traced = lanes.next().map(Lane::finish);

    let latencies: Vec<f64> = untraced.done.iter().map(|d| d.latency_s).collect();
    if !latencies.is_empty() {
        let busy: f64 = latencies.iter().sum();
        let jobs: u64 = untraced.done.iter().map(|d| d.jobs).sum();
        let arrivals: u64 = untraced.done.iter().map(|d| d.arrivals).sum();
        let count = latencies.len();
        let (name, value, note) = tail_ms(&latencies, "batches");
        result.tail = Some(Metric::new(name, "ms", value, note));
        result.end_to_end = end_to_end(&[
            (
                "arrivals_per_s",
                arrivals as f64 / busy,
                "arrivals of answered jobs ÷ Σ submit→fetch time".into(),
            ),
            (
                "jobs_per_s",
                jobs as f64 / busy,
                format!("{jobs} jobs answered (cached included) ÷ Σ submit→fetch time"),
            ),
            (
                "batch_p50_ms",
                median(&latencies) * 1e3,
                format!("median of {count} batches"),
            ),
            (
                "setup_s",
                median(&setup_s),
                format!(
                    "service start + bind + connect, median of {}",
                    setup_s.len()
                ),
            ),
            (
                "peak_rss_mb",
                untraced.rss_mb,
                format!("VmHWM after {} batches", count.min(RSS_AT_BATCH)),
            ),
        ]);
    }
    let mut fetched: Vec<Vec<(JobSpec, Digest)>> = Vec::new();
    if let Some(traced) = traced {
        if let Some(path) = spans_path {
            if let Err(e) = tracer.write_jsonl(path) {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
            }
        }
        let traced_latency: Vec<f64> = traced.done.iter().map(|d| d.latency_s).collect();
        let (cached, total) = traced
            .done
            .iter()
            .fold((0, 0), |(c, t), d| (c + d.cached, t + d.jobs));
        result.per_layer = serve_ledger(
            &tracer.spans(),
            cached as f64 / total.max(1) as f64,
            journal_bytes,
            fetch_bytes_per_job(&untraced.sample),
            median(&traced_latency) / median(&latencies) - 1.0,
        );
        fetched.extend(traced.done.into_iter().filter_map(|d| d.fetched));
    }
    fetched.extend(untraced.done.into_iter().filter_map(|d| d.fetched));
    verify(result, m, fetched);
    Ok(())
}

/// Untimed batches that fill the service's caches and wake its threads.
fn warm_up(client: &mut TimedClient, seed: u64, m: usize) {
    for k in 0..WARM_BATCHES {
        let jobs = batch_jobs(seed ^ 0x5eed_0f3a_1200, m, k);
        if let Ok(id) = client.submit(u64::MAX, &jobs) {
            let _ = wait_done(client, u64::MAX, id);
            let _ = client.fetch(u64::MAX, id);
        }
    }
}

/// Polls every [`POLL`] until batch `id` is terminal; returns its final
/// status.
fn wait_done(client: &mut TimedClient, index: u64, id: u64) -> Result<BatchStatus, Error> {
    let start = Instant::now();
    loop {
        std::thread::sleep(POLL);
        let status = client.status(index, id)?;
        if matches!(status.state.as_str(), "done" | "failed" | "cancelled") {
            return Ok(status);
        }
        if start.elapsed() > BATCH_DEADLINE {
            return Err(Error::Unavailable(format!(
                "batch {id} still `{}` after {BATCH_DEADLINE:?}",
                status.state
            )));
        }
    }
}

/// One service under test and the closed loop's record of it.
struct Lane {
    service: Service,
    /// Where a traced lane registers its batches for the dispatcher.
    index: Option<BatchIndex>,
    out: Loop,
    /// Digests of the last fresh batch, which the next resubmission must
    /// reproduce.
    previous: Vec<Digest>,
}

impl Lane {
    fn new(service: Service, index: Option<BatchIndex>) -> Lane {
        Lane {
            service,
            index,
            out: Loop::default(),
            previous: Vec::new(),
        }
    }

    /// Submits batch `i`, polls it to a terminal state and fetches it,
    /// timing submit→fetch; then checks what came back. `Err` means the
    /// connection is unusable and the loop must stop.
    fn batch(&mut self, result: &mut RunResult, seed: u64, m: usize, i: u64) -> Result<(), ()> {
        let jobs = batch_jobs(seed, m, i);
        result.attempted += 1;
        let client = &mut self.service.client;
        let tracer = client.tracer();
        let batch_span = tracer.as_ref().map(|t| t.enter("serve.batch", i));
        if let (Some(span), Some(index)) = (&batch_span, &self.index) {
            let mut index = index.lock().expect("batch index poisoned");
            for job in &jobs {
                index.insert(job.seed, (i, span.index()));
            }
        }
        let t0 = Instant::now();
        let answer = client.submit(i, &jobs).and_then(|id| {
            let status = wait_done(client, i, id)?;
            let results = client.fetch(i, id)?;
            Ok((status, results))
        });
        let latency_s = t0.elapsed().as_secs_f64();
        drop(batch_span);
        let (status, results) = match answer {
            Ok(answer) => answer,
            Err(e @ Error::Unavailable(_)) => {
                result.fail(format!("batch {i}: {e}"));
                return Ok(());
            }
            Err(e) => {
                result.fail(format!("batch {i}: {e}"));
                return Err(());
            }
        };
        if status.state != "done" {
            result.fail(format!("batch {i} ended `{}`", status.state));
            return Ok(());
        }
        let mut outcomes = Vec::with_capacity(results.len());
        for r in results {
            match r {
                JobResult::Ok(outcome) => outcomes.push(outcome),
                other => result.fail(format!("batch {i}: job answered {other:?}")),
            }
        }
        if outcomes.len() != jobs.len() {
            return Ok(());
        }
        let arrivals = outcomes.iter().map(|o| o.decisions().len() as u64).sum();
        let digests: Vec<Digest> = outcomes.iter().map(|o| outcome_digest(o, m)).collect();
        let fetched = if i % 4 == 3 {
            if digests != self.previous {
                result.fail(format!("batch {i}: resubmitted outcomes differ"));
            }
            None
        } else {
            if self.out.sample.len() < ENCODED_SAMPLE {
                self.out.sample.push(outcomes);
            }
            self.previous = digests.clone();
            Some(jobs.into_iter().zip(digests).collect())
        };
        self.out.done.push(Done {
            latency_s,
            jobs: status.total,
            cached: status.cached,
            arrivals,
            fetched,
        });
        if self.out.done.len() == RSS_AT_BATCH {
            self.out.rss_mb = peak_rss_mb();
        }
        Ok(())
    }

    /// Stops the service and hands back the loop's record.
    fn finish(mut self) -> Loop {
        if self.out.done.len() < RSS_AT_BATCH {
            self.out.rss_mb = peak_rss_mb();
        }
        self.service.stop();
        self.out
    }
}

/// Compares the digest of every fetched outcome with that of a
/// sequential `run_spec` of its job, outside the timed window; a job
/// fetched in both phases must also match itself.
fn verify(result: &mut RunResult, m: usize, fetched: Vec<Vec<(JobSpec, Digest)>>) {
    let mut unique: HashMap<u64, (JobSpec, Digest)> = HashMap::new();
    for (job, digest) in fetched.into_iter().flatten() {
        match unique.get(&job.seed) {
            Some((_, seen)) if *seen != digest => {
                result.fail(format!(
                    "job seed {}: outcomes differ between phases",
                    job.seed
                ));
            }
            Some(_) => {}
            None => {
                unique.insert(job.seed, (job, digest));
            }
        }
    }
    let all: Vec<(JobSpec, Digest)> = unique.into_values().collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = all.len().div_ceil(threads).max(1);
    let failures: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = all
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .filter_map(|(job, digest)| match run_spec(job, &CoreResolver) {
                            Ok(want) if outcome_digest(&want, m) == *digest => None,
                            Ok(_) => Some(format!(
                                "job seed {}: served outcome differs from run_spec",
                                job.seed
                            )),
                            Err(e) => Some(format!("job seed {}: run_spec failed: {e}", job.seed)),
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verification thread panicked"))
            .collect()
    });
    for f in failures {
        result.fail(f);
    }
}

/// Bytes of the framed `Results` reply per job over a sample of fetched
/// batches (computed by encoding, not observed on the socket).
fn fetch_bytes_per_job(sample: &[Vec<Outcome>]) -> f64 {
    let (mut bytes, mut jobs) = (0usize, 0usize);
    for outcomes in sample {
        let reply = ServeReply::Results(outcomes.iter().cloned().map(JobResult::Ok).collect());
        let mut buf = Vec::new();
        if osp_core::wire::write_message(&mut buf, &reply).is_ok() {
            bytes += buf.len();
            jobs += outcomes.len();
        }
    }
    bytes as f64 / jobs.max(1) as f64
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|md| md.len())
                .sum()
        })
        .unwrap_or(0)
}

fn serve_ledger(
    spans: &[Span],
    cache_hit_frac: f64,
    journal_bytes: u64,
    fetch_bytes_per_job: f64,
    overhead: f64,
) -> Vec<Metric> {
    let mut children: HashMap<usize, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let durs = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.dur_ns()))
            .collect()
    };
    let (mut queue_wait, mut after, mut hit, mut miss) = (vec![], vec![], vec![], vec![]);
    let (mut dispatched_jobs, mut dispatch_ns, mut calls, mut batches, mut polls) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (index, batch) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "serve.batch")
    {
        batches += 1;
        let kids = children.get(&index).map(Vec::as_slice).unwrap_or_default();
        let submit = kids.iter().find(|s| s.name == "wire.submit");
        let dispatches: Vec<&&Span> = kids
            .iter()
            .filter(|s| s.name == "dispatch.run_specs")
            .collect();
        polls += kids.iter().filter(|s| s.name == "wire.status").count() as u64;
        if dispatches.is_empty() {
            hit.push(ms(batch.dur_ns()));
            continue;
        }
        miss.push(ms(batch.dur_ns()));
        calls += dispatches.len() as u64;
        for d in &dispatches {
            dispatched_jobs += d.work;
            dispatch_ns += d.dur_ns();
        }
        let first = dispatches.iter().map(|d| d.start_ns).min().unwrap_or(0);
        let last = dispatches.iter().map(|d| d.end_ns).max().unwrap_or(0);
        if let Some(submit) = submit {
            queue_wait.push(ms(first.saturating_sub(submit.start_ns)));
        }
        after.push(ms(batch.end_ns.saturating_sub(last)));
    }
    // Every job the traced service computed was journaled, warm-up
    // batches included.
    let journaled: u64 = spans
        .iter()
        .filter(|s| s.name == "dispatch.run_specs")
        .map(|s| s.work)
        .sum();
    let b = batches.max(1) as f64;
    per_layer(&[
        (
            "dispatch.ms_per_job",
            ms(dispatch_ns) / dispatched_jobs.max(1) as f64,
            format!("{calls} run_specs calls, {dispatched_jobs} jobs"),
        ),
        (
            "dispatch.calls",
            calls as f64 / b,
            format!("per batch, over {batches} batches"),
        ),
        (
            "serve.queue_wait_ms",
            median(&queue_wait),
            format!(
                "submit call → dispatch start, median of {}",
                queue_wait.len()
            ),
        ),
        (
            "serve.after_dispatch_ms",
            median(&after),
            format!("dispatch end → fetch complete, median of {}", after.len()),
        ),
        (
            "serve.cache_hit_frac",
            cache_hit_frac,
            "cached jobs ÷ jobs".into(),
        ),
        (
            "store.hit_batch_p50_ms",
            median(&hit),
            format!("all-cached batches, median of {}", hit.len()),
        ),
        (
            "store.miss_batch_p50_ms",
            median(&miss),
            format!("dispatched batches, median of {}", miss.len()),
        ),
        (
            "store.journal_bytes_per_job",
            journal_bytes as f64 / journaled.max(1) as f64,
            format!("state dir bytes ÷ {journaled} journaled jobs"),
        ),
        (
            "wire.submit_ms",
            median(&durs("wire.submit")),
            "median".into(),
        ),
        (
            "wire.status_ms",
            median(&durs("wire.status")),
            "median".into(),
        ),
        (
            "wire.fetch_ms",
            median(&durs("wire.fetch")),
            "median".into(),
        ),
        (
            "wire.polls_per_batch",
            polls as f64 / b,
            format!("{POLL:?} poll interval"),
        ),
        (
            "wire.fetch_bytes_per_job",
            fetch_bytes_per_job,
            "framed Results reply ÷ jobs (computed)".into(),
        ),
        (
            "trace.overhead_share",
            overhead,
            "traced ÷ untraced median batch latency − 1".into(),
        ),
    ])
}
