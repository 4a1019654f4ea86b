//! Order statistics over latency samples.

/// The median of `xs` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of `xs`: the highest of the percentiles 99, 95, 90, 75 and 50
/// that still has at least ten samples above it. Returns `(percentile,
/// value)`, or `None` with fewer than eleven samples.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in [99u32, 95, 90, 75, 50] {
        // Nearest-rank percentile: the sample at rank ceil(p·n/100).
        let rank = (p as usize * n).div_ceil(100).max(1);
        if n >= rank + 10 {
            return Some((p, v[rank - 1]));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p95 leaves only five samples above it; p90 leaves ten.
        assert_eq!(tail(&xs), Some((90, 90.0)));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99, 990.0)));
        assert_eq!(tail(&[1.0; 10]), None);
        assert_eq!(tail(&[1.0; 20]).map(|t| t.0), Some(50));
    }
}
