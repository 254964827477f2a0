//! Order statistics over measured samples.

/// The `q` quantile (0..=1) of `xs`, interpolating linearly between order
/// statistics (the same rule as numpy's default). `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest percentile that still has at least ten samples beyond it,
/// capped at the 99th: `min(0.99, 1 - 10/n)`. `None` below 11 samples.
pub fn tail_q(n: usize) -> Option<f64> {
    (n > 10).then(|| (1.0 - 10.0 / n as f64).min(0.99))
}

/// The tail latency under [`tail_q`]; with too few samples for any such
/// percentile, the maximum.
pub fn tail(xs: &[f64]) -> f64 {
    match tail_q(xs.len()) {
        Some(q) => quantile(xs, q),
        None => xs.iter().copied().fold(f64::NAN, f64::max),
    }
}

pub fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_q(10), None);
        assert_eq!(tail_q(100), Some(0.9));
        assert_eq!(tail_q(5000), Some(0.99));
        assert_eq!(tail(&[1.0, 3.0, 2.0]), 3.0);
    }
}
