//! Percentiles, the tail rule and the process memory gauge.

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest value, or 0 for none.
pub fn fastest(values: &[f64]) -> f64 {
    sorted(values).first().copied().unwrap_or(0.0)
}

/// The highest of p99.9, p99 and p90 that has at least ten samples
/// beyond it: `(label, value, samples beyond)`. `None` when even p90 has
/// fewer than ten samples above it (fewer than 100 samples).
pub fn tail(sorted: &[f64]) -> Option<(&'static str, f64, usize)> {
    let n = sorted.len();
    [(0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")]
        .into_iter()
        .find_map(|(q, label)| {
            let rank = (q * n as f64).ceil() as usize;
            let beyond = n.saturating_sub(rank);
            (rank >= 1 && beyond >= 10).then(|| (label, sorted[rank - 1], beyond))
        })
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
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
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some(("p90", 90.0, 10)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some(("p99", 990.0, 10)));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }
}
