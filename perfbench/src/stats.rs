//! Order statistics for the benchmark's reports.

/// Linear-interpolated quantile `q` (0 ≤ q ≤ 1) of `xs`: the value at
/// position `q × (n − 1)` of the sorted sample, interpolating between
/// neighbours (numpy's default method).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_endpoints_and_interpolation() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&xs, 0.0), 10.0);
        assert_eq!(quantile(&xs, 1.0), 50.0);
        assert_eq!(quantile(&xs, 0.25), 20.0);
        assert_eq!(quantile(&xs, 0.1), 14.0);
    }

    #[test]
    fn p95_of_two_hundred_samples_leaves_ten_above() {
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let p95 = quantile(&xs, 0.95);
        assert!((p95 - 190.05).abs() < 1e-9, "{p95}");
        assert_eq!(xs.iter().filter(|&&x| x > p95).count(), 10);
    }
}
