//! Golden wire and storage formats: committed bytes that the codec must
//! keep producing and keep reading.
//!
//! The fixtures under `tests/fixtures/format/` were written by the
//! `Value`-tree codec this crate used before the streaming codec replaced
//! it. Every message here is re-encoded and compared byte for byte, and
//! every fixture frame is decoded and compared with the value it was
//! written from. A journal written by that codec must still open and serve
//! the same outcomes bit for bit.

use std::io::Cursor;
use std::path::PathBuf;

use osp::core::engine::dispatch::{FleetReport, LaneReport};
use osp::core::gen::{CapacityModel, LoadModel, RandomInstanceConfig, WeightModel};
use osp::core::prelude::*;
use osp::core::serve::{
    job_digest, BatchStatus, FleetCommand, JobResult, ServeReply, ServeRequest,
};
use osp::core::store::{JournalStore, ResultStore, StoreLimits};
use osp::core::wire::reply::Reply;
use osp::core::wire::{read_message, write_message, Hello, Pong, Request, ServerFrame};
use osp::core::CoreResolver;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/format")
        .join(name)
}

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(fixture_path(name)).unwrap_or_else(|e| panic!("reading fixture {name}: {e}"))
}

/// Asserts `bytes` equal the committed fixture, naming the first
/// differing byte on failure.
fn assert_golden(name: &str, bytes: &[u8]) {
    let want = fixture(name);
    if bytes != want.as_slice() {
        let at = bytes
            .iter()
            .zip(&want)
            .position(|(a, b)| a != b)
            .unwrap_or(bytes.len().min(want.len()));
        panic!(
            "{name}: encoding differs from the fixture at byte {at} ({} vs {} bytes)",
            bytes.len(),
            want.len()
        );
    }
}

/// Every spec variant, with floats and integers that exercise the
/// formatter (integral floats, exponents, negative zero, `u64::MAX`).
fn jobs() -> Vec<JobSpec> {
    vec![
        JobSpec {
            scenario: ScenarioSpec::Uniform(RandomInstanceConfig::unweighted(12, 30, 3)),
            algorithm: AlgorithmSpec::RandPr,
            seed: 7,
        },
        JobSpec {
            scenario: ScenarioSpec::Uniform(RandomInstanceConfig {
                num_sets: 16,
                num_elements: 40,
                load: LoadModel::Uniform { lo: 1, hi: 4 },
                weights: WeightModel::Uniform { lo: 0.5, hi: 3.0 },
                capacities: CapacityModel::Uniform { lo: 1, hi: 2 },
            }),
            algorithm: AlgorithmSpec::HashRandPr { independence: 8 },
            seed: u64::MAX,
        },
        JobSpec {
            scenario: ScenarioSpec::Uniform(RandomInstanceConfig {
                num_sets: 10,
                num_elements: 25,
                load: LoadModel::Fixed(2),
                weights: WeightModel::Zipf { exponent: 1e-7 },
                capacities: CapacityModel::Fixed(2),
            }),
            algorithm: AlgorithmSpec::Greedy {
                tie_break: TieBreak::ByFewestRemaining,
            },
            seed: 0,
        },
        JobSpec {
            scenario: ScenarioSpec::Biregular {
                num_sets: 24,
                set_size: 3,
                load: 3,
            },
            algorithm: AlgorithmSpec::RandomAssign,
            seed: 1 << 40,
        },
        JobSpec {
            scenario: ScenarioSpec::FixedSize {
                num_sets: 14,
                set_size: 3,
                num_elements: 30,
                skew: -0.0,
            },
            algorithm: AlgorithmSpec::Oracle {
                target: vec![SetId(0), SetId(3), SetId(9)],
            },
            seed: 99,
        },
        JobSpec {
            scenario: ScenarioSpec::FixedSize {
                num_sets: 14,
                set_size: 3,
                num_elements: 30,
                skew: 1.25e21,
            },
            algorithm: AlgorithmSpec::Greedy {
                tie_break: TieBreak::ByDensity,
            },
            seed: 5,
        },
        JobSpec {
            scenario: ScenarioSpec::VideoTrace {
                sources: 2,
                frames_per_source: 6,
                frame_interval: 4,
                capacity: 1,
                jitter: 0,
            },
            algorithm: AlgorithmSpec::TailDrop,
            seed: 3,
        },
        JobSpec {
            scenario: ScenarioSpec::Biregular {
                num_sets: 8,
                set_size: 2,
                load: 2,
            },
            algorithm: AlgorithmSpec::RandomDrop,
            seed: 4,
        },
    ]
}

/// The first four jobs with their real outcomes (the rest carry
/// parameters chosen for their encoding, not to be replayed).
fn outcomes() -> Vec<(JobSpec, Outcome)> {
    jobs()
        .into_iter()
        .take(4)
        .map(|job| {
            let outcome = run_spec(&job, &CoreResolver).expect("replayable job");
            (job, outcome)
        })
        .collect()
}

/// Strings that exercise every escape the encoder emits and some
/// multi-byte UTF-8 it passes through.
const AWKWARD: &str = "quote \" backslash \\ nl \n cr \r tab \t bell \u{7} del \u{7f} é ✓ 😀 /";

fn status() -> BatchStatus {
    BatchStatus {
        id: 12,
        state: "failed".into(),
        total: 3,
        answered: 3,
        failed: 1,
        cached: 1,
        jobs: vec!["done".into(), "cached".into(), "failed".into()],
        cache_hits: 40,
        cache_misses: 2,
        cache_evictions: 0,
        excluded: vec![],
        workers_rejoined: 0,
        worker_probes: 0,
    }
}

fn serve_requests() -> Vec<ServeRequest> {
    vec![
        ServeRequest::Submit(jobs()),
        ServeRequest::Submit(vec![]),
        ServeRequest::Status(12),
        ServeRequest::Fetch(u64::MAX),
        ServeRequest::Cancel(0),
        ServeRequest::Fleet(FleetCommand::Status),
        ServeRequest::Fleet(FleetCommand::Add("uds:/tmp/w0.sock".into())),
        ServeRequest::Fleet(FleetCommand::Remove("tcp:127.0.0.1:7000".into())),
        ServeRequest::Fleet(FleetCommand::Probe),
        ServeRequest::Shutdown,
    ]
}

fn serve_replies() -> Vec<ServeReply> {
    let outcomes = outcomes();
    vec![
        ServeReply::Batch(12),
        ServeReply::Report(status()),
        ServeReply::Results(vec![
            JobResult::Ok(outcomes[0].1.clone()),
            JobResult::Pending,
            JobResult::Err(AWKWARD.into()),
            JobResult::Ok(outcomes[1].1.clone()),
        ]),
        ServeReply::Results(vec![]),
        ServeReply::Cancelled(true),
        ServeReply::Cancelled(false),
        ServeReply::Fleet(FleetReport {
            lanes: vec![
                LaneReport {
                    addr: "uds:/tmp/w0.sock".into(),
                    state: "up".into(),
                    failures: 0,
                    cause: String::new(),
                },
                LaneReport {
                    addr: "tcp:127.0.0.1:7001".into(),
                    state: "excluded".into(),
                    failures: 3,
                    cause: AWKWARD.into(),
                },
            ],
            rejoined: 1,
            probes: 9,
        }),
        ServeReply::Bye,
        ServeReply::Busy("queue full (8 batches)".into()),
        ServeReply::Error(AWKWARD.into()),
    ]
}

fn worker_requests() -> Vec<Request> {
    let mut requests: Vec<Request> = jobs().into_iter().map(Request::Job).collect();
    requests.push(Request::Ping(0));
    requests.push(Request::Ping(u64::MAX));
    requests
}

fn worker_replies() -> Vec<Reply> {
    let mut replies: Vec<Reply> = outcomes()
        .into_iter()
        .map(|(_, outcome)| Reply {
            ok: Some(outcome),
            err: None,
        })
        .collect();
    replies.push(Reply {
        ok: None,
        err: Some(AWKWARD.into()),
    });
    replies
}

fn hellos() -> Vec<Hello> {
    vec![
        Hello::for_resolver(&CoreResolver),
        Hello {
            version: 1,
            roster: vec![],
        },
    ]
}

/// Encodes every message as consecutive frames.
fn frames<T: serde::Serialize>(messages: &[T]) -> Vec<u8> {
    let mut buf = Vec::new();
    for message in messages {
        write_message(&mut buf, message).unwrap();
    }
    buf
}

/// Decodes the fixture's frames and checks they are exactly `want`.
fn assert_decodes<T>(name: &str, want: &[T])
where
    T: serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let mut cursor = Cursor::new(fixture(name));
    for (i, expected) in want.iter().enumerate() {
        let got: T = read_message(&mut cursor)
            .unwrap_or_else(|e| panic!("{name} frame {i}: {e}"))
            .unwrap_or_else(|| panic!("{name}: only {i} frames"));
        assert_eq!(&got, expected, "{name} frame {i}");
    }
    assert!(
        read_message::<_, T>(&mut cursor).unwrap().is_none(),
        "{name}: trailing frames"
    );
}

#[test]
fn serve_request_frames_are_unchanged() {
    let requests = serve_requests();
    assert_golden("serve_request.frames", &frames(&requests));
    assert_decodes("serve_request.frames", &requests);
}

#[test]
fn serve_reply_frames_are_unchanged() {
    let replies = serve_replies();
    assert_golden("serve_reply.frames", &frames(&replies));
    assert_decodes("serve_reply.frames", &replies);
}

#[test]
fn worker_request_frames_are_unchanged() {
    let requests = worker_requests();
    assert_golden("worker_request.frames", &frames(&requests));
    assert_decodes("worker_request.frames", &requests);
}

#[test]
fn worker_reply_and_pong_frames_are_unchanged() {
    let replies = worker_replies();
    assert_golden("worker_reply.frames", &frames(&replies));
    assert_decodes("worker_reply.frames", &replies);

    // A socket client reads either kind through `ServerFrame`.
    let pongs = [Pong { pong: 0 }, Pong { pong: u64::MAX }];
    assert_golden("pong.frames", &frames(&pongs));
    assert_decodes("pong.frames", &pongs);
    let server_frames: Vec<ServerFrame> = replies
        .into_iter()
        .map(ServerFrame::Reply)
        .chain(pongs.into_iter().map(ServerFrame::Pong))
        .collect();
    let mut both = fixture("worker_reply.frames");
    both.extend(fixture("pong.frames"));
    let mut cursor = Cursor::new(both);
    for want in &server_frames {
        let got: ServerFrame = read_message(&mut cursor).unwrap().unwrap();
        assert_eq!(&got, want);
    }
}

#[test]
fn hello_frames_are_unchanged() {
    let hellos = hellos();
    assert_golden("hello.frames", &frames(&hellos));
    assert_decodes("hello.frames", &hellos);
}

#[test]
fn pretty_output_is_unchanged() {
    let status_json = serde_json::to_string_pretty(&status()).unwrap();
    assert_golden("status.pretty.json", status_json.as_bytes());
    assert_eq!(
        serde_json::from_str::<BatchStatus>(&status_json).unwrap(),
        status()
    );

    let outcome = outcomes()[0].1.clone();
    let outcome_json = serde_json::to_string_pretty(&outcome).unwrap();
    assert_golden("outcome.pretty.json", outcome_json.as_bytes());
    assert_eq!(
        serde_json::from_str::<Outcome>(&outcome_json).unwrap(),
        outcome
    );
}

#[test]
fn job_digests_are_unchanged() {
    // The results cache is keyed by the digest of each job's canonical
    // JSON, so a journal stays addressable only while these hold.
    let digests: Vec<String> = jobs()
        .iter()
        .map(|job| {
            let (a, b) = job_digest(job).unwrap();
            format!("{a:016x}{b:016x}\n")
        })
        .collect();
    assert_golden("job_digests.txt", digests.concat().as_bytes());
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osp-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn journal_is_unchanged_and_still_opens() {
    let outcomes = outcomes();

    // Writing the same puts produces the fixture byte for byte.
    let dir = tmp_dir("write");
    {
        let mut store = JournalStore::open(&dir, StoreLimits::UNBOUNDED).unwrap();
        for (job, outcome) in &outcomes {
            store.put(job_digest(job).unwrap(), outcome);
        }
        store.flush();
    }
    assert_golden(
        "journal.osp",
        &std::fs::read(dir.join("journal.osp")).unwrap(),
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Opening the fixture serves every outcome bit for bit, with the
    // byte accounting of "outcome JSON length + 16".
    let dir = tmp_dir("open");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("journal.osp"), fixture("journal.osp")).unwrap();
    let mut store = JournalStore::open(&dir, StoreLimits::UNBOUNDED).unwrap();
    assert!(store.corrupt().is_empty(), "{:?}", store.corrupt());
    assert_eq!(store.len(), outcomes.len());
    let mut bytes = 0;
    for (job, want) in &outcomes {
        let got = store.get(job_digest(job).unwrap()).expect("journaled");
        assert_eq!(&got, want);
        assert_eq!(got.benefit().to_bits(), want.benefit().to_bits());
        bytes += serde_json::to_string(want).unwrap().len() as u64 + 16;
    }
    assert_eq!(store.bytes(), bytes);
    let _ = std::fs::remove_dir_all(&dir);
}
