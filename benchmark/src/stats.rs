//! Order statistics of a handful of timings.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `median [p25 .. p75] n=…` — how every timing is shown to a reader.
pub fn describe(xs: &[f64]) -> String {
    format!(
        "{:.6} [{:.6} .. {:.6}] n={}",
        median(xs),
        quantile(xs, 0.25),
        quantile(xs, 0.75),
        xs.len()
    )
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
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        assert!(median(&[]).is_nan());
    }
}
