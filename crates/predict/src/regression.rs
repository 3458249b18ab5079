//! Non-negative multivariate linear regression.
//!
//! The paper's cost model has the fixed functional form
//! `f(X_1, …, X_k) = c_1 X_1 + … + c_k X_k + r` (section 3.4): a multivariate
//! linear model whose coefficients are the cost values of each input feature
//! and whose residual `r` absorbs fixed overheads. Every cost value and the
//! residual are constrained to be non-negative — more work never costs less
//! time — and the model is fit by Lawson–Hanson non-negative least squares
//! over all seven Table 1 features.
//!
//! The fit runs on the normal equations of unit-norm columns: the 8×8 Gram
//! matrix is accumulated straight from the rows, each column is scaled to
//! unit length, and each passive set is solved by Gaussian elimination. A
//! column whose gradient is within tolerance never enters the passive set,
//! so exactly collinear counters (PageRank's bytes are 8 × its messages) need
//! no regularization, and a feature that does not help is left at zero.

use crate::features::{FeatureSet, KeyFeature};
use serde::{Deserialize, Serialize};

/// Number of Table 1 features a row carries.
const FEATURES: usize = KeyFeature::ALL.len();

/// Columns of the design matrix: the intercept, then one per feature.
const DIM: usize = FEATURES + 1;

/// A fitted linear model `y ≈ intercept + Σ coefficients[i] * x[i]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    /// Per-feature cost values `c_i`, indexed by [`KeyFeature::index`];
    /// every one is ≥ 0.
    pub coefficients: [f64; FEATURES],
    /// Intercept (the paper's residual value `r`), ≥ 0.
    pub intercept: f64,
}

/// Errors produced when fitting a model.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub enum RegressionError {
    /// No training rows were provided.
    EmptyTrainingSet,
}

impl std::fmt::Display for RegressionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegressionError::EmptyTrainingSet => write!(f, "no training observations"),
        }
    }
}

impl std::error::Error for RegressionError {}

impl LinearModel {
    /// Fits `y` on the features of `rows` by non-negative least squares:
    /// minimizes `Σ (y - ŷ)²` subject to every coefficient and the intercept
    /// being ≥ 0. The rows are read once; none is copied into a buffer.
    pub fn fit(rows: impl IntoIterator<Item = (FeatureSet, f64)>) -> Result<Self, RegressionError> {
        // Normal equations of the design matrix [1, x_1, …, x_7], upper
        // triangle only (mirrored below).
        let mut xtx = [[0.0f64; DIM]; DIM];
        let mut xty = [0.0f64; DIM];
        let mut yty = 0.0f64;
        let mut n = 0usize;
        for (features, y) in rows {
            let mut design = [1.0f64; DIM];
            design[1..].copy_from_slice(features.as_slice());
            for i in 0..DIM {
                xty[i] += design[i] * y;
                for j in i..DIM {
                    xtx[i][j] += design[i] * design[j];
                }
            }
            yty += y * y;
            n += 1;
        }
        if n == 0 {
            return Err(RegressionError::EmptyTrainingSet);
        }

        // Unit-norm columns: the Gram matrix gets a unit diagonal, which
        // makes `solve`'s pivot threshold and the gradient tolerance
        // relative. An all-zero column keeps norm 0 and is never admitted.
        let norms: [f64; DIM] = std::array::from_fn(|i| xtx[i][i].sqrt());
        let mut gram = [[0.0f64; DIM]; DIM];
        let mut rhs = [0.0f64; DIM];
        for i in 0..DIM {
            if norms[i] == 0.0 {
                continue;
            }
            rhs[i] = xty[i] / norms[i];
            for j in i..DIM {
                if norms[j] > 0.0 {
                    gram[i][j] = xtx[i][j] / (norms[i] * norms[j]);
                    gram[j][i] = gram[i][j];
                }
            }
        }
        let admissible: [bool; DIM] = std::array::from_fn(|i| norms[i] > 0.0);
        let scaled = nnls(&gram, &rhs, admissible, 1e-10 * yty.sqrt());
        let unscaled: [f64; DIM] = std::array::from_fn(|i| {
            if norms[i] > 0.0 {
                scaled[i] / norms[i]
            } else {
                0.0
            }
        });

        Ok(Self {
            coefficients: std::array::from_fn(|i| unscaled[i + 1]),
            intercept: unscaled[0],
        })
    }

    /// Predicted value for one feature row.
    pub fn predict(&self, features: &FeatureSet) -> f64 {
        self.intercept
            + self
                .coefficients
                .iter()
                .zip(features.as_slice())
                .map(|(c, x)| c * x)
                .sum::<f64>()
    }
}

/// Lawson–Hanson non-negative least squares on the normal equations
/// `gram · x = rhs`: the columns in the passive set are solved exactly, a
/// coefficient that would turn negative leaves the set, and the column with
/// the largest gradient `rhs − gram · x` above `tolerance` enters it. Only
/// `admissible` columns may enter.
fn nnls(
    gram: &[[f64; DIM]; DIM],
    rhs: &[f64; DIM],
    mut admissible: [bool; DIM],
    tolerance: f64,
) -> [f64; DIM] {
    let mut x = [0.0f64; DIM];
    let mut passive = [false; DIM];
    // The textbook bound on outer iterations; each normally admits a column.
    for _ in 0..3 * DIM {
        let gradient: [f64; DIM] =
            std::array::from_fn(|i| rhs[i] - (0..DIM).map(|j| gram[i][j] * x[j]).sum::<f64>());
        let Some(entering) = (0..DIM)
            .filter(|&i| admissible[i] && !passive[i] && gradient[i] > tolerance)
            .max_by(|&a, &b| gradient[a].total_cmp(&gradient[b]))
        else {
            break;
        };
        passive[entering] = true;
        // Each pass either accepts the passive solution or drops at least one
        // column from the passive set, so it ends within DIM passes.
        loop {
            let Some(s) = solve_passive(gram, rhs, &passive) else {
                // Numerically dependent on the passive columns: it adds
                // nothing the passive set does not already explain.
                passive[entering] = false;
                admissible[entering] = false;
                break;
            };
            if (0..DIM).all(|i| !passive[i] || s[i] > 0.0) {
                x = s;
                break;
            }
            // Step from x towards s until the first passive coefficient
            // reaches zero, and move every zeroed column out of the set.
            let (blocking, alpha) = (0..DIM)
                .filter(|&i| passive[i] && s[i] <= 0.0)
                .map(|i| (i, x[i] / (x[i] - s[i])))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("a passive coefficient is non-positive");
            for i in 0..DIM {
                if passive[i] {
                    x[i] += alpha * (s[i] - x[i]);
                    if i == blocking || x[i] <= 0.0 {
                        x[i] = 0.0;
                        passive[i] = false;
                    }
                }
            }
        }
    }
    x
}

/// The unconstrained least-squares solution over the passive columns (zero
/// elsewhere), or `None` when their Gram block is singular.
fn solve_passive(
    gram: &[[f64; DIM]; DIM],
    rhs: &[f64; DIM],
    passive: &[bool; DIM],
) -> Option<[f64; DIM]> {
    let columns: Vec<usize> = (0..DIM).filter(|&i| passive[i]).collect();
    let a = columns
        .iter()
        .map(|&i| columns.iter().map(|&j| gram[i][j]).collect())
        .collect();
    let b = columns.iter().map(|&i| rhs[i]).collect();
    let solution = solve(a, b)?;
    let mut x = [0.0f64; DIM];
    for (&i, value) in columns.iter().zip(solution) {
        x[i] = value;
    }
    Some(x)
}

/// Solves the dense linear system `a x = b` with Gaussian elimination and
/// partial pivoting. Returns `None` when the matrix is (numerically)
/// singular.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Partial pivoting.
        let pivot_row =
            (col..n).max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())?;
        if a[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);

        let pivot = a[col][col];
        let (pivot_rows, rest) = a.split_at_mut(col + 1);
        let pivot_row = &pivot_rows[col];
        for (offset, row) in rest.iter_mut().enumerate() {
            let factor = row[col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for (target, &source) in row[col..n].iter_mut().zip(&pivot_row[col..n]) {
                *target -= factor * source;
            }
            b[col + 1 + offset] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for col in (row + 1)..n {
            acc -= a[row][col] * x[col];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A row with `values` in the first features and zero elsewhere.
    fn row(values: &[f64]) -> FeatureSet {
        let mut features = FeatureSet::default();
        for (&value, feature) in values.iter().zip(KeyFeature::ALL) {
            features.set(feature, value);
        }
        features
    }

    #[test]
    fn recovers_known_coefficients_exactly() {
        // y = 3 + 2 x1 + 0.5 x2, no noise.
        let rows: Vec<(FeatureSet, f64)> = (0..20)
            .map(|i| {
                let (x1, x2) = (i as f64, (i * i % 7) as f64);
                (row(&[x1, x2]), 3.0 + 2.0 * x1 + 0.5 * x2)
            })
            .collect();
        let model = LinearModel::fit(rows.iter().copied()).unwrap();
        assert!((model.intercept - 3.0).abs() < 1e-9);
        assert!((model.coefficients[0] - 2.0).abs() < 1e-9);
        assert!((model.coefficients[1] - 0.5).abs() < 1e-9);
        assert!(model.coefficients[2..].iter().all(|&c| c == 0.0));
    }

    #[test]
    fn recovers_coefficients_under_noise() {
        let mut rng = StdRng::seed_from_u64(7);
        let rows: Vec<(FeatureSet, f64)> = (0..500)
            .map(|_| {
                let x1: f64 = rng.gen_range(0.0..100.0);
                let x2: f64 = rng.gen_range(0.0..10.0);
                let noise: f64 = rng.gen_range(-1.0..1.0);
                (row(&[x1, x2]), 5.0 + 0.7 * x1 + 3.0 * x2 + noise)
            })
            .collect();
        let model = LinearModel::fit(rows.iter().copied()).unwrap();
        assert!((model.coefficients[0] - 0.7).abs() < 0.05);
        assert!((model.coefficients[1] - 3.0).abs() < 0.2);
    }

    #[test]
    fn extrapolates_outside_training_range() {
        // The property the paper relies on: a fixed functional form can be
        // used on feature ranges outside the training boundaries (train on
        // sample-run scale, predict at full-graph scale).
        let rows = (1..20).map(|i| (row(&[i as f64]), 10.0 + 4.0 * i as f64));
        let model = LinearModel::fit(rows).unwrap();
        let prediction = model.predict(&row(&[1_000.0]));
        assert!((prediction - 4_010.0).abs() < 1e-6);
    }

    #[test]
    fn a_cost_that_turns_negative_leaves_the_passive_set() {
        // Orthogonal ±1 patterns x1, x2 and z; the first column is
        // x1 + x2 + z and enters first (it is closest to y), but the
        // unconstrained fit is y = -0.1 col0 + 1.1 x1 + 1.1 x2. The
        // non-negative fit drops col0 back to zero and keeps y = x1 + x2.
        let rows: Vec<(FeatureSet, f64)> = (0..8)
            .map(|i| {
                let sign = |bit: usize| if i >> bit & 1 == 0 { 1.0 } else { -1.0 };
                let (x1, x2, z) = (sign(0), sign(1), 0.5 * sign(2));
                (row(&[x1 + x2 + z, x1, x2]), x1 + x2 - 0.1 * z)
            })
            .collect();
        let model = LinearModel::fit(rows.iter().copied()).unwrap();
        assert_eq!(model.coefficients[0], 0.0);
        assert!((model.coefficients[1] - 1.0).abs() < 1e-12);
        assert!((model.coefficients[2] - 1.0).abs() < 1e-12);
        assert!(model.intercept >= 0.0);
    }

    #[test]
    fn collinear_columns_need_no_regularization() {
        // Two perfectly collinear features: one enters, the other's gradient
        // vanishes, and the fit still reproduces every target.
        let rows: Vec<(FeatureSet, f64)> = (0..10)
            .map(|i| (row(&[i as f64, 2.0 * i as f64]), 3.0 * i as f64))
            .collect();
        let model = LinearModel::fit(rows.iter().copied()).unwrap();
        for (features, y) in &rows {
            assert!((model.predict(features) - y).abs() < 1e-9);
        }
    }

    #[test]
    fn error_cases_are_reported() {
        assert_eq!(
            LinearModel::fit(std::iter::empty()).unwrap_err(),
            RegressionError::EmptyTrainingSet
        );
    }

    #[test]
    fn constant_targets_fit_the_intercept() {
        let rows = (0..5).map(|i| (row(&[i as f64]), 4.0));
        let model = LinearModel::fit(rows).unwrap();
        assert!((model.predict(&row(&[2.0])) - 4.0).abs() < 1e-9);
    }
}
