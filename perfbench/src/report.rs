//! Run results: the metrics a run measured, its outcome verdict, the
//! context record, and how they are printed.

use std::fmt::Write as _;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How the value was obtained (statistic and sample count).
    pub note: String,
}

impl Metric {
    /// A metric with its provenance note.
    pub fn new(
        name: &'static str,
        unit: &'static str,
        value: f64,
        note: impl Into<String>,
    ) -> Self {
        Metric {
            name,
            unit,
            value,
            note: note.into(),
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted (replays, or batches submitted).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a wrong outcome.
    pub failed: u64,
    /// Why the outcome checker rejected the run (empty when correct).
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced).
    pub end_to_end: Vec<Metric>,
    /// The untraced batch-latency tail, printed beside the end-to-end
    /// metrics but not among them: on a shared host it follows the
    /// host's stolen time more than the program.
    pub tail: Option<Metric>,
    /// Per-layer metrics (traced run).
    pub per_layer: Vec<Metric>,
}

impl RunResult {
    /// Whether every operation succeeded and every outcome checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// Records a checker verdict: a failed operation with its reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.errors.push(why.into());
    }

    /// Failed ÷ attempted.
    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Human-readable lines: one per metric (and the latency tail when
    /// untraced), then the error fraction and every checker complaint.
    pub fn lines(&self, workload: &str, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let tail = self.tail.iter().filter(|_| !traced);
        let mut out = String::new();
        for m in metrics.iter().chain(tail) {
            let _ = writeln!(
                out,
                "{workload:<20} {:<34} {:>18} {:<11} {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.note
            );
        }
        let _ = writeln!(
            out,
            "{workload:<20} {:<34} {:>18} {:<11} {} failed of {} attempted",
            "error_frac",
            format_value(self.error_frac()),
            "share",
            self.failed,
            self.attempted
        );
        for e in self.errors.iter().take(10) {
            let _ = writeln!(out, "{workload:<20} CHECK FAILED: {e}");
        }
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and the
    /// end-to-end (untraced) or per-layer (traced) metrics.
    pub fn json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

fn format_value(v: f64) -> String {
    if v.abs() >= 1e6 || (v != 0.0 && v.abs() < 1e-3) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values (which JSON cannot hold) become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The context record printed with every result, so numbers from
/// different hosts, toolchains or environments are never compared
/// silently.
pub fn context_json(workload: &str, seed: u64, trace: bool) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut osp_env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("OSP_"))
        .collect();
    osp_env.sort();
    let env_body: Vec<String> = osp_env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let from_env = |var: &str| std::env::var(var).unwrap_or_else(|_| "unknown".to_string());
    let fields = [
        ("workload".to_string(), json_str(workload)),
        ("seed".to_string(), seed.to_string()),
        ("trace".to_string(), u8::from(trace).to_string()),
        ("available_parallelism".to_string(), parallelism.to_string()),
        (
            "osp_env".to_string(),
            format!("{{{}}}", env_body.join(", ")),
        ),
        ("rustc".to_string(), json_str(env!("PERFBENCH_RUSTC"))),
        (
            "commit".to_string(),
            json_str(&from_env("PERFBENCH_COMMIT")),
        ),
        (
            "source_digest".to_string(),
            json_str(&from_env("PERFBENCH_SOURCE_DIGEST")),
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_result_has_exactly_the_contract_keys() {
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        r.end_to_end
            .push(Metric::new("setup_s", "s", 0.5, "median of 3"));
        assert_eq!(
            r.json(false),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.fail("tampered");
        assert!(!r.correct());
        assert!(r.json(false).starts_with("{\"correct\": false"));
    }
}
