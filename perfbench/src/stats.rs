//! Small order statistics and the range-checked fraction helper.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `min / q1 / median / q3 / max` of `values`, for the report.
pub fn spread_text(values: &[f64]) -> String {
    let q: Vec<String> = [0.0, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|&p| format!("{:.4}", quantile(values, p)))
        .collect();
    format!("min/q1/median/q3/max {} s", q.join(" / "))
}

/// `part / whole` as a fraction, asserted to lie in `[0, 1]`; 0 when
/// `whole` is 0.  Every fraction the benchmark prints goes through here.
pub fn fraction(part: f64, whole: f64) -> f64 {
    let f = if whole > 0.0 { part / whole } else { 0.0 };
    assert!((0.0..=1.0).contains(&f), "fraction {part}/{whole} = {f} is outside [0, 1]");
    f
}

/// Fraction of phase pairs that two rankings order the same way: 1.0 when
/// `modelled` ranks the phases exactly as `measured` does, 0.0 when it
/// reverses every pair.  Pairs tied on either side count as agreeing.
pub fn pair_concordance(measured: &[f64], modelled: &[f64]) -> f64 {
    assert_eq!(measured.len(), modelled.len());
    let mut pairs = 0usize;
    let mut agree = 0usize;
    for i in 0..measured.len() {
        for j in i + 1..measured.len() {
            pairs += 1;
            let a = measured[i].total_cmp(&measured[j]);
            let b = modelled[i].total_cmp(&modelled[j]);
            if a == b || a.is_eq() || b.is_eq() {
                agree += 1;
            }
        }
    }
    fraction(agree as f64, pairs as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn fraction_rejects_out_of_range() {
        fraction(3.0, 2.0);
    }

    #[test]
    fn concordance_counts_agreeing_pairs() {
        assert_eq!(pair_concordance(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), 1.0);
        assert_eq!(pair_concordance(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]), 0.0);
        assert!(
            (pair_concordance(&[1.0, 2.0, 3.0], &[20.0, 10.0, 30.0]) - 2.0 / 3.0).abs() < 1e-12
        );
    }
}
