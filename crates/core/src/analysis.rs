//! Closed-form robustness analysis of the binomial pipeline (paper
//! §4.4–4.5), with helpers to cross-check the formulas against actual
//! schedules.

use crate::schedule::GlobalSchedule;

/// `ceil(log2 n)` — the virtual hypercube dimension for an `n`-member
/// group.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn log2_ceil(n: u32) -> u32 {
    assert!(n > 0, "log2 of zero");
    32 - (n - 1).leading_zeros()
}

/// The paper's predicted average slack for steady steps of a
/// power-of-two binomial pipeline:
/// `2·(1 − (l−1)/(n−2))`.
///
/// Slack ≈ 2 for moderate `n` means a node usually received the block it
/// must forward two steps ago — room to catch up after a stall.
///
/// # Panics
///
/// Panics if `n` is not a power of two ≥ 4 (the formula divides by
/// `n − 2`).
pub fn predicted_avg_slack(n: u32) -> f64 {
    assert!(
        n >= 4 && n.is_power_of_two(),
        "formula needs a power of two >= 4"
    );
    let l = n.trailing_zeros() as f64;
    2.0 * (1.0 - (l - 1.0) / (n as f64 - 2.0))
}

/// Empirical average slack of non-root senders at `step`:
/// `slack(i, j) = j − (step at which i received the block it sends at j)`,
/// averaged over the step's senders (paper §4.5 item 3).
///
/// Returns `None` if no non-root node sends at `step`.
pub fn empirical_avg_slack(schedule: &GlobalSchedule, step: u32) -> Option<f64> {
    let mut total = 0u64;
    let mut senders = 0u64;
    for t in schedule.step(step) {
        if t.from == 0 {
            continue; // the root holds everything from the start
        }
        let got = schedule
            .receive_step(t.from, t.block)
            .expect("sender must have received the block (validate the schedule first)");
        total += u64::from(step - got);
        senders += 1;
    }
    (senders > 0).then(|| total as f64 / senders as f64)
}

/// The steady steps of a binomial pipeline schedule: `l ..= l + k − 2`
/// (every node holds at least one block from step `l` onwards).
pub fn steady_steps(n: u32, k: u32) -> std::ops::RangeInclusive<u32> {
    let l = log2_ceil(n);
    l..=(l + k).saturating_sub(2)
}

/// Paper §4.5 item 2: with one slow link of bandwidth `t_slow` and all
/// others at `t_fast`, the binomial pipeline retains at least the fraction
/// `l·T′ / (T + (l−1)·T′)` of its full-speed bandwidth, because each node
/// crosses the slow link only every `l`-th step.
///
/// # Panics
///
/// Panics if bandwidths are not positive or `l == 0`.
pub fn slow_link_bandwidth_fraction(l: u32, t_fast: f64, t_slow: f64) -> f64 {
    assert!(l >= 1, "need at least one hypercube dimension");
    assert!(t_fast > 0.0 && t_slow > 0.0, "bandwidths must be positive");
    let l = l as f64;
    (l * t_slow) / (t_fast + (l - 1.0) * t_slow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::GlobalSchedule;
    use crate::types::Algorithm;

    #[test]
    fn log2_ceil_matches_examples() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(512), 9);
        assert_eq!(log2_ceil(513), 10);
    }

    #[test]
    fn paper_slack_number_for_n64() {
        // §4.5: avg slack = 2(1 - (l-1)/(n-2)); for n=64, l=6 this is
        // 2(1 - 5/62) ≈ 1.839.
        let s = predicted_avg_slack(64);
        assert!((s - 2.0 * (1.0 - 5.0 / 62.0)).abs() < 1e-12);
        assert!(s > 1.8 && s < 1.9);
    }

    #[test]
    fn empirical_slack_matches_prediction_on_steady_steps() {
        for n in [4u32, 8, 16, 32, 64] {
            let k = 20;
            let g = GlobalSchedule::build(&Algorithm::BinomialPipeline, n, k);
            g.validate().unwrap();
            let predicted = predicted_avg_slack(n);
            for j in steady_steps(n, k) {
                let measured = empirical_avg_slack(&g, j).expect("steady step has senders");
                assert!(
                    (measured - predicted).abs() < 1e-9,
                    "n={n} step {j}: measured {measured}, predicted {predicted}"
                );
            }
        }
    }

    #[test]
    fn slow_link_fraction_matches_paper_example() {
        // §4.5: T' = T/2, n = 64 (l = 6) gives ~85.6%.
        let f = slow_link_bandwidth_fraction(6, 1.0, 0.5);
        assert!((f - 6.0 * 0.5 / (1.0 + 5.0 * 0.5)).abs() < 1e-12);
        assert!((f - 0.857).abs() < 2e-3, "got {f}");
    }

    #[test]
    fn slow_link_fraction_is_monotone_in_slow_bandwidth() {
        let mut prev = 0.0;
        for i in 1..=10 {
            let f = slow_link_bandwidth_fraction(6, 1.0, i as f64 / 10.0);
            assert!(f > prev);
            prev = f;
        }
        assert!((slow_link_bandwidth_fraction(6, 1.0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn slack_formula_rejects_non_power_of_two() {
        predicted_avg_slack(6);
    }
}
