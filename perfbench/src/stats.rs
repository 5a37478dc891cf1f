//! Small statistics and formatting helpers: medians, quartiles, the
//! tail-percentile rule, `VmHWM` parsing and the metric-name charset.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method, which extrapolates past the end samples), so the
/// spreads printed here match the ones a reader recomputes.
///
/// # Panics
///
/// Panics if `values` holds fewer than two values or a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let data = sorted(values);
    let (len, m) = (data.len() as i64, data.len() as i64 + 1);
    let at = |i: i64| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    [at(1), at(2), at(3)]
}

/// The highest whole percentile that still leaves at least
/// `min_beyond` of `n` samples above it: `p` such that
/// `n · (100 − p) / 100 ≥ min_beyond`. Returns `None` when even the
/// median leaves too few, in which case no tail is reported.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<u32> {
    (50..100u32)
        .rev()
        .find(|&p| n * (100 - p as usize) >= min_beyond * 100)
}

/// The `p`-th percentile of `values` by the nearest-rank rule: the
/// smallest sample with at least `p` percent of the samples at or
/// below it.
///
/// # Panics
///
/// Panics if `values` is empty, holds a NaN, or `p` is not in 1..=100.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    assert!((1..=100).contains(&p), "percentile out of range: {p}");
    let sorted = sorted(values);
    let rank = (p as usize * sorted.len()).div_ceil(100);
    sorted[rank.max(1) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(values.iter().all(|v| !v.is_nan()), "NaN sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Peak resident set size in MiB, read from the `VmHWM` line of a
/// `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb / 1024.0)
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vm_hwm_mb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A metric name: starts with a letter or digit, at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// 64-bit FNV-1a digest, printed to show that two runs produced the
/// same bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 2.0, 1.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        // One quick-scale live phase: 69 windows.
        assert_eq!(tail_percentile(69, 10), Some(85));
        // One paper-scale live phase: 299 windows.
        assert_eq!(tail_percentile(299, 10), Some(96));
        assert_eq!(tail_percentile(1000, 10), Some(99));
        assert_eq!(tail_percentile(19, 10), None);
        assert_eq!(tail_percentile(20, 10), Some(50));
    }

    #[test]
    fn nearest_rank_percentile() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50), 50.0);
        assert_eq!(percentile(&hundred, 85), 85.0);
        assert_eq!(percentile(&hundred, 100), 100.0);
        assert_eq!(percentile(&[2.0, 1.0, 3.0], 50), 2.0);
    }

    #[test]
    fn vm_hwm_parsing() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   63488 kB\nVmRSS:\t   60000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(62.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t lots kB\n"), None);
        assert!(peak_rss_mb().expect("Linux exposes VmHWM") > 0.0);
    }

    #[test]
    fn metric_name_and_unit_charset() {
        for ok in ["setup_s", "ml.predict_ns_per_row", "0x", "a-b.c_d"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "vsec/s", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "ms!", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
