//! Order statistics of small samples.

/// The `q`-quantile (`0 <= q <= 1`) of `values` by linear interpolation
/// between order statistics; NaN for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

/// The median of `values`; NaN for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
