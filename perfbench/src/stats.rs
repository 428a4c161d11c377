//! Order statistics and process counters.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between order statistics; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// How many of `n` samples lie strictly beyond the `q`-quantile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub((q * n as f64).ceil() as usize)
}

/// The latency tail to print for `values` (in seconds): the p99 when at
/// least ten samples lie beyond it, else the p90. Returns the metric's
/// name, its value in milliseconds, and how it was taken.
pub fn tail_ms(values: &[f64], what: &str) -> (&'static str, f64, String) {
    let (name, q, label) = if samples_beyond(values.len(), 0.99) >= 10 {
        ("batch_p99_ms", 0.99, "p99")
    } else {
        ("batch_p90_ms", 0.9, "p90")
    };
    let note = format!(
        "{label} of {} {what}, {} beyond it; printed, not gated",
        values.len(),
        samples_beyond(values.len(), q)
    );
    (name, quantile(values, q) * 1e3, note)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
        assert_eq!(samples_beyond(1000, 0.99), 10);
    }
}
