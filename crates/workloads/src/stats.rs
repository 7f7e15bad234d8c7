//! Small statistics helpers for summarising experiment output (latency
//! distributions, percentile tables).

/// A percentile of `values` using nearest-rank interpolation.
///
/// # Panics
///
/// Panics if `values` is empty or `p` is outside `[0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of nothing");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_expected_ranks() {
        let v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 50.0), 51.0); // nearest rank on 0..99
    }

    #[test]
    fn mean_is_arithmetic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "nothing")]
    fn empty_percentile_panics() {
        percentile(&[], 50.0);
    }
}
