//! Error metrics used in the paper's evaluation (section 5, "Metrics of
//! Interest").
//!
//! The paper reports the *signed relative error* (negative = under-prediction,
//! positive = over-prediction) for iterations, key input features and runtime.
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
}
