//! Placement diagnostics: is a selected sensor set well-conditioned, and
//! which sensors are redundant?
//!
//! The paper picks sensors for prediction accuracy; a deployment review
//! also asks *robustness* questions: if two placed sensors are nearly
//! collinear, one of them adds little information and the OLS coefficients
//! are poorly determined (sensitive to calibration error). This module
//! quantifies that with the spectrum of the selected sensors' correlation
//! matrix. How well each placed sensor is predicted by its peers — what
//! fault-tolerant monitoring relies on — is
//! [`FaultTolerantModel::cross_rms`](crate::FaultTolerantModel::cross_rms).

use voltsense_linalg::decomp::SymmetricEigen;
use voltsense_linalg::stats;
use voltsense_linalg::Matrix;

use crate::CoreError;

/// Conditioning report for a placed sensor set.
#[derive(Debug, Clone)]
pub struct PlacementDiagnostics {
    /// Spectral condition number of the sensors' correlation matrix
    /// (1 = perfectly independent readings; large = near-collinear set).
    pub condition_number: f64,
    /// Eigenvalues of the correlation matrix, ascending. Near-zero values
    /// count directions of redundancy.
    pub spectrum: Vec<f64>,
    /// Effective number of independent sensors
    /// (`(Σλ)² / Σλ²`, the participation ratio): between 1 and Q.
    pub effective_sensors: f64,
    /// For each sensor: the largest absolute correlation with any *other*
    /// placed sensor. Values near 1 flag redundant pairs.
    pub max_cross_correlation: Vec<f64>,
}

impl PlacementDiagnostics {
    /// Indices (into the sensor list) whose reading correlates above
    /// `threshold` with another placed sensor.
    pub fn redundant_sensors(&self, threshold: f64) -> Vec<usize> {
        self.max_cross_correlation
            .iter()
            .enumerate()
            .filter(|&(_, c)| *c > threshold)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Analyses the conditioning of a sensor placement on training data.
///
/// `x` is the full `M x N` candidate matrix; `sensors` the placed rows.
///
/// # Errors
///
/// * [`CoreError::ShapeMismatch`] for an empty sensor list or an
///   out-of-range index.
/// * Propagates eigensolver failures.
///
/// # Example
///
/// ```
/// use voltsense_linalg::Matrix;
/// use voltsense_core::diagnostics::analyze_placement;
///
/// # fn main() -> Result<(), voltsense_core::CoreError> {
/// // Sensor 1 duplicates sensor 0; sensor 2 is independent.
/// let x = Matrix::from_rows(&[
///     &[1.0, 2.0, 3.0, 4.0],
///     &[1.1, 2.1, 3.1, 4.1],
///     &[4.0, 1.0, 3.0, 2.0],
/// ])?;
/// let report = analyze_placement(&x, &[0, 1, 2])?;
/// assert_eq!(report.redundant_sensors(0.95), vec![0, 1]);
/// # Ok(())
/// # }
/// ```
pub fn analyze_placement(
    x: &Matrix,
    sensors: &[usize],
) -> Result<PlacementDiagnostics, CoreError> {
    if sensors.is_empty() {
        return Err(CoreError::ShapeMismatch {
            what: "sensor list is empty".into(),
        });
    }
    if let Some(&bad) = sensors.iter().find(|&&s| s >= x.rows()) {
        return Err(CoreError::ShapeMismatch {
            what: format!("sensor index {bad} out of range for {} candidates", x.rows()),
        });
    }
    let q = sensors.len();
    // Correlation matrix of the placed sensors' readings.
    let mut corr = Matrix::identity(q);
    for i in 0..q {
        for j in (i + 1)..q {
            let c = stats::pearson(x.row(sensors[i]), x.row(sensors[j]));
            corr[(i, j)] = c;
            corr[(j, i)] = c;
        }
    }
    let eig = SymmetricEigen::new(&corr)?;
    let spectrum = eig.eigenvalues.clone();
    let sum: f64 = spectrum.iter().sum();
    let sum_sq: f64 = spectrum.iter().map(|l| l * l).sum();
    let effective_sensors = if sum_sq > 0.0 { sum * sum / sum_sq } else { 0.0 };
    let condition_number = eig.condition_number();
    let max_cross_correlation = (0..q)
        .map(|i| {
            (0..q)
                .filter(|&j| j != i)
                .map(|j| corr[(i, j)].abs())
                .fold(0.0_f64, f64::max)
        })
        .collect();
    Ok(PlacementDiagnostics {
        condition_number,
        spectrum,
        effective_sensors,
        max_cross_correlation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn independent_sensors() -> Matrix {
        // Three nearly-orthogonal readings.
        Matrix::from_rows(&[
            &[1.0, -1.0, 1.0, -1.0, 1.0, -1.0],
            &[1.0, 1.0, -1.0, -1.0, 1.0, 1.0],
            &[1.0, 1.0, 1.0, -1.0, -1.0, -1.0],
        ])
        .unwrap()
    }

    #[test]
    fn independent_set_is_well_conditioned() {
        let x = independent_sensors();
        let report = analyze_placement(&x, &[0, 1, 2]).unwrap();
        assert!(report.condition_number < 3.0, "cond {}", report.condition_number);
        assert!(report.effective_sensors > 2.5);
        assert!(report.redundant_sensors(0.9).is_empty());
    }

    #[test]
    fn duplicated_sensor_is_flagged() {
        let x = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0, 4.0, 5.0],
            &[1.0, 2.0, 3.0, 4.0, 5.0],
            &[5.0, 3.0, 4.0, 1.0, 2.0],
        ])
        .unwrap();
        let report = analyze_placement(&x, &[0, 1, 2]).unwrap();
        assert!(report.condition_number > 1e6, "cond {}", report.condition_number);
        assert_eq!(report.redundant_sensors(0.99), vec![0, 1]);
        assert!(report.effective_sensors < 2.5);
    }

    #[test]
    fn single_sensor_is_trivially_perfect() {
        let x = independent_sensors();
        let report = analyze_placement(&x, &[1]).unwrap();
        assert!((report.condition_number - 1.0).abs() < 1e-12);
        assert!((report.effective_sensors - 1.0).abs() < 1e-12);
        assert_eq!(report.max_cross_correlation, vec![0.0]);
    }

    #[test]
    fn spectrum_sums_to_sensor_count() {
        // The correlation matrix has unit diagonal, so trace = Q = Σλ.
        let x = independent_sensors();
        let report = analyze_placement(&x, &[0, 1, 2]).unwrap();
        let sum: f64 = report.spectrum.iter().sum();
        assert!((sum - 3.0).abs() < 1e-10);
    }

    #[test]
    fn bad_inputs_rejected() {
        let x = independent_sensors();
        assert!(analyze_placement(&x, &[]).is_err());
        assert!(analyze_placement(&x, &[7]).is_err());
    }

    #[test]
    fn cross_predictability_separates_covered_from_lonely_sensors() {
        // Sensors 0 and 1 share their signal; sensor 2 is orthogonal. The
        // targets only give the fit its shape: cross-prediction models
        // read the sensors alone.
        let x = Matrix::from_rows(&[
            &[1.0, -1.0, 1.0, -1.0, 1.0, -1.0],
            &[2.0, -2.0, 2.0, -2.0, 2.0, -2.0],
            &[1.0, 1.0, -1.0, -1.0, 1.0, 1.0],
        ])
        .unwrap();
        let model = crate::FaultTolerantModel::fit(&x, &x, &[0, 1, 2]).unwrap();
        let rms: Vec<f64> = (0..3).map(|i| model.cross_rms(i).unwrap()).collect();
        assert!(rms[0] < 1e-9 && rms[1] < 1e-9, "covered: {rms:?}");
        assert!(rms[2] > 0.5, "lonely: {rms:?}");
    }
}
