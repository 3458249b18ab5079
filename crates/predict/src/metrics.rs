//! Error metrics used in the paper's evaluation (section 5, "Metrics of
//! Interest").
//!
//! The paper reports the *signed relative error* (negative = under-prediction,
//! positive = over-prediction) for iterations, key input features and runtime,
//! plus the coefficient of determination R² of the fitted cost models.
//! [`Evaluation`](crate::Evaluation) applies them to a finished prediction.

/// Signed relative error `(predicted - actual) / actual`.
///
/// Follows the paper's sign convention: negative values are
/// under-predictions, positive values over-predictions. When the actual value
/// is zero the error is 0 if the prediction is also zero and infinite
/// otherwise.
pub fn signed_relative_error(predicted: f64, actual: f64) -> f64 {
    if actual == 0.0 {
        if predicted == 0.0 {
            0.0
        } else {
            f64::INFINITY * predicted.signum()
        }
    } else {
        (predicted - actual) / actual
    }
}

/// Absolute relative error `|predicted - actual| / actual`.
pub fn absolute_relative_error(predicted: f64, actual: f64) -> f64 {
    signed_relative_error(predicted, actual).abs()
}

/// Coefficient of determination between predictions and actuals (the R² the
/// paper reports for its cost models).
pub fn r_squared(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(
        predicted.len(),
        actual.len(),
        "prediction and actual lengths differ"
    );
    if actual.is_empty() {
        return 0.0;
    }
    let mean = actual.iter().sum::<f64>() / actual.len() as f64;
    let ss_tot: f64 = actual.iter().map(|a| (a - mean).powi(2)).sum();
    let ss_res: f64 = predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (a - p).powi(2))
        .sum();
    if ss_tot <= f64::EPSILON {
        return if ss_res <= 1e-9 { 1.0 } else { 0.0 };
    }
    1.0 - ss_res / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_error_follows_paper_convention() {
        assert!((signed_relative_error(8.0, 10.0) + 0.2).abs() < 1e-12);
        assert!((signed_relative_error(12.0, 10.0) - 0.2).abs() < 1e-12);
        assert_eq!(signed_relative_error(0.0, 0.0), 0.0);
        assert!(signed_relative_error(1.0, 0.0).is_infinite());
    }

    #[test]
    fn absolute_error_is_magnitude_of_signed() {
        assert!((absolute_relative_error(8.0, 10.0) - 0.2).abs() < 1e-12);
        assert!((absolute_relative_error(12.0, 10.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn r_squared_is_one_for_perfect_predictions() {
        let actual = vec![1.0, 2.0, 3.0, 4.0];
        assert!((r_squared(&actual, &actual) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn r_squared_penalizes_bad_predictions() {
        let actual = vec![1.0, 2.0, 3.0, 4.0];
        let bad = vec![4.0, 3.0, 2.0, 1.0];
        assert!(r_squared(&bad, &actual) < 0.0);
        let mean_only = vec![2.5; 4];
        assert!(r_squared(&mean_only, &actual).abs() < 1e-12);
    }
}
