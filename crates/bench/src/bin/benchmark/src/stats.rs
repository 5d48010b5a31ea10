//! Sample statistics and process counters.

/// Nearest-rank percentile `q` (0 < q ≤ 100) of `sorted`, or `None` when
/// fewer than ten samples lie beyond it: p95 needs n ≥ 200 and p99 needs
/// n ≥ 1000. A tail read from fewer samples is one or two outliers.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = rank(sorted.len(), q)?;
    (sorted.len() - rank >= 10).then(|| sorted[rank - 1])
}

/// Nearest-rank median of `sorted` (0 for an empty sample).
pub fn p50(sorted: &[f64]) -> f64 {
    rank(sorted.len(), 50.0).map_or(0.0, |r| sorted[r - 1])
}

fn rank(n: usize, q: f64) -> Option<usize> {
    (n > 0).then(|| ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n))
}

/// `samples` sorted ascending.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// CPU seconds this process and its reaped children have used (utime +
/// stime + cutime + cstime from `/proc/self/stat`, in 1/100 s ticks).
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// This process's peak resident set in MB: `VmHWM`, or `VmRSS` where the
/// kernel omits the high-water mark.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
    };
    kb("VmHWM:").or_else(|| kb("VmRSS:")).unwrap_or(0.0) / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tails_need_ten_samples_beyond_them() {
        assert_eq!(tail(&ramp(199), 95.0), None);
        assert_eq!(tail(&ramp(200), 95.0), Some(190.0));
        assert_eq!(tail(&ramp(999), 99.0), None);
        assert_eq!(tail(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(tail(&[], 95.0), None);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(p50(&ramp(1)), 1.0);
        assert_eq!(p50(&ramp(4)), 2.0);
        assert_eq!(p50(&ramp(5)), 3.0);
        assert_eq!(p50(&[]), 0.0);
    }

    #[test]
    fn process_counters_read_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_secs() >= 0.0);
    }
}
