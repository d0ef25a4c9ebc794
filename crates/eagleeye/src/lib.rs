//! Eagle-Eye baseline: statistical noise-sensor placement (Wang et al.,
//! ICCAD 2013), reimplemented as the comparison point of the DAC'15 paper.
//!
//! Eagle-Eye's goal is to minimize the **miss-error rate only**: it picks
//! the sensor candidate locations that are most likely to themselves cross
//! the emergency threshold when a real emergency occurs in the function
//! area, and it alarms directly on the placed sensors' readings (no
//! prediction model). As the DAC'15 paper observes, this drives it to
//! "select the sensor candidates with worst voltage noise", clustering
//! sensors around the hottest unit (its Fig. 3).
//!
//! This implementation is a greedy maximum-coverage placement:
//!
//! 1. Label each training sample an *emergency* if any FA critical node is
//!    below the threshold.
//! 2. A candidate *covers* an emergency sample if its own (guardbanded)
//!    reading crosses the threshold in that sample.
//! 3. Greedily pick the candidate covering the most not-yet-covered
//!    emergencies; break ties by worse (lower) observed minimum voltage.
//! 4. When no remaining candidate adds coverage, fall back to
//!    worst-minimum-voltage ordering (Eagle-Eye's "worst noise" character).
//!
//! # Example
//!
//! ```
//! use voltsense_linalg::Matrix;
//! use voltsense_eagleeye::{EagleEyeConfig, EagleEyePlacement};
//!
//! # fn main() -> Result<(), voltsense_eagleeye::EagleEyeError> {
//! // Candidate 0 dips with the (single) FA node; candidate 1 never dips.
//! let x = Matrix::from_rows(&[&[0.99, 0.84, 0.99], &[0.99, 0.98, 0.99]])?;
//! let f = Matrix::from_rows(&[&[0.99, 0.80, 0.99]])?;
//! let placement = EagleEyePlacement::place(&x, &f, 1, &EagleEyeConfig::default())?;
//! assert_eq!(placement.selected(), &[0]);
//! assert!(placement.detect(&[0.84, 0.99]));
//! assert!(!placement.detect(&[0.99, 0.99]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

use voltsense_linalg::{LinalgError, Matrix};

/// Error type for Eagle-Eye placement.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EagleEyeError {
    /// Training matrices disagreed on the sample count, or were empty.
    ShapeMismatch {
        /// Description of the failing check.
        what: String,
    },
    /// The requested sensor count exceeds the candidate count or is zero.
    InvalidSensorCount {
        /// Requested number of sensors.
        requested: usize,
        /// Available candidates.
        available: usize,
    },
    /// A configuration value was out of range.
    InvalidConfig {
        /// Human-readable description.
        what: String,
    },
    /// Underlying dense algebra failed.
    Linalg(LinalgError),
}

impl fmt::Display for EagleEyeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EagleEyeError::ShapeMismatch { what } => write!(f, "shape mismatch: {what}"),
            EagleEyeError::InvalidSensorCount {
                requested,
                available,
            } => write!(
                f,
                "cannot place {requested} sensors with {available} candidates"
            ),
            EagleEyeError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            EagleEyeError::Linalg(e) => write!(f, "linear algebra failed: {e}"),
        }
    }
}

impl Error for EagleEyeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EagleEyeError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for EagleEyeError {
    fn from(e: LinalgError) -> Self {
        EagleEyeError::Linalg(e)
    }
}

/// Eagle-Eye configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EagleEyeConfig {
    /// Emergency threshold (V): a node is in emergency when its voltage is
    /// below this. The paper uses 0.85 V at VDD = 1.0 V.
    pub emergency_threshold: f64,
    /// Sensor guardband (V): a placed sensor alarms when its reading falls
    /// below `emergency_threshold + guardband`. Blank-area nodes droop
    /// less than function-area nodes, so a positive guardband trades
    /// wrong-alarm rate for miss rate. Eagle-Eye's published setting is a
    /// plain threshold comparison (guardband 0).
    pub guardband: f64,
}

impl Default for EagleEyeConfig {
    fn default() -> Self {
        EagleEyeConfig {
            emergency_threshold: 0.85,
            guardband: 0.0,
        }
    }
}

impl EagleEyeConfig {
    fn validate(&self) -> Result<(), EagleEyeError> {
        if !self.emergency_threshold.is_finite()
            || self.emergency_threshold <= 0.0
            || !self.guardband.is_finite()
        {
            return Err(EagleEyeError::InvalidConfig {
                what: format!("config out of range: {self:?}"),
            });
        }
        Ok(())
    }

    /// The effective sensor alarm level, `threshold + guardband`.
    pub fn alarm_level(&self) -> f64 {
        self.emergency_threshold + self.guardband
    }
}

/// A fitted Eagle-Eye placement: the selected candidate indices plus the
/// alarm rule.
#[derive(Debug, Clone, PartialEq)]
pub struct EagleEyePlacement {
    selected: Vec<usize>,
    config: EagleEyeConfig,
    num_candidates: usize,
}

impl EagleEyePlacement {
    /// Runs the greedy coverage placement.
    ///
    /// `x` is the `M x N` candidate-voltage training matrix, `f` the
    /// `K x N` critical-node matrix; `q` sensors are placed.
    ///
    /// # Errors
    ///
    /// * [`EagleEyeError::ShapeMismatch`] if `x` and `f` disagree on `N`
    ///   or are empty.
    /// * [`EagleEyeError::InvalidSensorCount`] if `q == 0` or `q > M`.
    /// * [`EagleEyeError::InvalidConfig`] for an out-of-range config.
    pub fn place(
        x: &Matrix,
        f: &Matrix,
        q: usize,
        config: &EagleEyeConfig,
    ) -> Result<Self, EagleEyeError> {
        config.validate()?;
        let (m, n) = x.shape();
        if f.cols() != n || n == 0 {
            return Err(EagleEyeError::ShapeMismatch {
                what: format!(
                    "X is {m}x{n}, F is {}x{} — sample counts must match and be non-zero",
                    f.rows(),
                    f.cols()
                ),
            });
        }
        if q == 0 || q > m {
            return Err(EagleEyeError::InvalidSensorCount {
                requested: q,
                available: m,
            });
        }

        // Emergency samples: any critical node below threshold. One pass
        // over F's rows flags them, then they are listed in ascending order.
        let thr = config.emergency_threshold;
        let mut emergency = vec![false; n];
        for k in 0..f.rows() {
            for (flag, &v) in emergency.iter_mut().zip(f.row(k)) {
                *flag |= v < thr;
            }
        }
        let emergencies: Vec<usize> = (0..n).filter(|&s| emergency[s]).collect();

        // Per-candidate alarm sets over emergency samples, and worst-noise
        // statistic for tie-breaks / fallback.
        let alarm = config.alarm_level();
        let min_voltage: Vec<f64> = (0..m)
            .map(|c| x.row(c).iter().copied().fold(f64::INFINITY, f64::min))
            .collect();
        let covers: Vec<Vec<usize>> = (0..m)
            .map(|c| {
                emergencies
                    .iter()
                    .copied()
                    .filter(|&s| x[(c, s)] < alarm)
                    .collect()
            })
            .collect();

        let mut selected: Vec<usize> = Vec::with_capacity(q);
        let mut covered = vec![false; n];
        let mut used = vec![false; m];
        for _ in 0..q {
            // Greedy: most new coverage, tie-broken by worst noise.
            let best = (0..m)
                .filter(|&c| !used[c])
                .map(|c| {
                    let gain = covers[c].iter().filter(|&&s| !covered[s]).count();
                    (c, gain)
                })
                .max_by(|a, b| {
                    a.1.cmp(&b.1)
                        .then_with(|| {
                            // Lower min voltage = worse noise = preferred.
                            min_voltage[b.0].total_cmp(&min_voltage[a.0])
                        })
                })
                .expect("at least one unused candidate");
            let (c, _) = best;
            used[c] = true;
            selected.push(c);
            for &s in &covers[c] {
                covered[s] = true;
            }
        }
        selected.sort_unstable();
        Ok(EagleEyePlacement {
            selected,
            config: config.clone(),
            num_candidates: m,
        })
    }

    /// Indices (into the candidate set) of the placed sensors, ascending.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }

    /// The configuration the placement was fitted with.
    pub fn config(&self) -> &EagleEyeConfig {
        &self.config
    }

    /// Number of candidates the placement was fitted over.
    pub fn num_candidates(&self) -> usize {
        self.num_candidates
    }

    /// Alarm decision for one sample of all candidate voltages: `true` if
    /// any placed sensor reads below the alarm level.
    ///
    /// # Panics
    ///
    /// Panics if `candidate_voltages.len()` differs from the fitted
    /// candidate count.
    pub fn detect(&self, candidate_voltages: &[f64]) -> bool {
        assert_eq!(
            candidate_voltages.len(),
            self.num_candidates,
            "candidate vector length mismatch"
        );
        let alarm = self.config.alarm_level();
        self.selected
            .iter()
            .any(|&c| candidate_voltages[c] < alarm)
    }

    /// Alarm decision from the placed sensors' *own* readings (`Q` values,
    /// ordered like [`EagleEyePlacement::selected`]): `true` if any reads
    /// below the alarm level. This is the deployment-side entry point —
    /// the runtime only ever sees the placed sensors — and the one a
    /// fault-injection harness corrupts.
    ///
    /// Non-finite readings do not alarm: Eagle-Eye has no prediction model
    /// to reject them with, and `NaN < alarm` is `false` — which is
    /// exactly why a dead sensor silently costs it coverage.
    ///
    /// # Errors
    ///
    /// Returns [`EagleEyeError::ShapeMismatch`] if `readings.len()`
    /// differs from the placed sensor count.
    pub fn detect_readings(&self, readings: &[f64]) -> Result<bool, EagleEyeError> {
        if readings.len() != self.selected.len() {
            return Err(EagleEyeError::ShapeMismatch {
                what: format!(
                    "expected {} sensor readings, got {}",
                    self.selected.len(),
                    readings.len()
                ),
            });
        }
        let alarm = self.config.alarm_level();
        Ok(readings.iter().any(|&v| v < alarm))
    }

    /// Alarm decisions for every column of an `M x N` candidate matrix.
    ///
    /// # Errors
    ///
    /// Returns [`EagleEyeError::ShapeMismatch`] if `x.rows()` differs from
    /// the fitted candidate count.
    pub fn detect_matrix(&self, x: &Matrix) -> Result<Vec<bool>, EagleEyeError> {
        if x.rows() != self.num_candidates {
            return Err(EagleEyeError::ShapeMismatch {
                what: format!(
                    "X has {} rows, placement was fitted over {} candidates",
                    x.rows(),
                    self.num_candidates
                ),
            });
        }
        let alarm = self.config.alarm_level();
        Ok((0..x.cols())
            .map(|s| self.selected.iter().any(|&c| x[(c, s)] < alarm))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three candidates, one critical node. Candidate 0 mirrors the
    /// critical node, candidate 1 is quiet, candidate 2 dips sometimes.
    fn training() -> (Matrix, Matrix) {
        let x = Matrix::from_rows(&[
            &[0.99, 0.84, 0.99, 0.83, 0.99, 0.99],
            &[0.99, 0.98, 0.99, 0.98, 0.99, 0.99],
            &[0.99, 0.99, 0.84, 0.99, 0.99, 0.99],
        ])
        .unwrap();
        let f = Matrix::from_rows(&[&[0.99, 0.80, 0.82, 0.81, 0.99, 0.99]]).unwrap();
        (x, f)
    }

    #[test]
    fn picks_best_covering_candidate_first() {
        let (x, f) = training();
        let p = EagleEyePlacement::place(&x, &f, 1, &EagleEyeConfig::default()).unwrap();
        // Candidate 0 covers emergencies {1, 3}; candidate 2 covers {2}.
        assert_eq!(p.selected(), &[0]);
    }

    #[test]
    fn second_sensor_adds_coverage() {
        let (x, f) = training();
        let p = EagleEyePlacement::place(&x, &f, 2, &EagleEyeConfig::default()).unwrap();
        assert_eq!(p.selected(), &[0, 2]);
    }

    #[test]
    fn fallback_orders_by_worst_noise() {
        let (x, f) = training();
        let p = EagleEyePlacement::place(&x, &f, 3, &EagleEyeConfig::default()).unwrap();
        assert_eq!(p.selected(), &[0, 1, 2]);
    }

    #[test]
    fn detect_uses_only_selected_sensors() {
        let (x, f) = training();
        let p = EagleEyePlacement::place(&x, &f, 1, &EagleEyeConfig::default()).unwrap();
        // Candidate 2 dips but is not placed: no alarm.
        assert!(!p.detect(&[0.99, 0.99, 0.80]));
        assert!(p.detect(&[0.80, 0.99, 0.99]));
    }

    #[test]
    fn detect_matrix_matches_per_sample() {
        let (x, f) = training();
        let p = EagleEyePlacement::place(&x, &f, 2, &EagleEyeConfig::default()).unwrap();
        let alarms = p.detect_matrix(&x).unwrap();
        for (s, &alarm) in alarms.iter().enumerate() {
            let sample = x.col(s);
            assert_eq!(alarm, p.detect(&sample));
        }
    }

    #[test]
    fn guardband_raises_alarm_level() {
        let (x, f) = training();
        let cfg = EagleEyeConfig {
            guardband: 0.10,
            ..EagleEyeConfig::default()
        };
        let p = EagleEyePlacement::place(&x, &f, 1, &cfg).unwrap();
        // With +0.10 guardband the quiet 0.94 reading now alarms.
        assert!(p.detect(&[0.94, 0.99, 0.99]));
    }

    #[test]
    fn errors_on_bad_inputs() {
        let (x, f) = training();
        assert!(EagleEyePlacement::place(&x, &f, 0, &EagleEyeConfig::default()).is_err());
        assert!(EagleEyePlacement::place(&x, &f, 4, &EagleEyeConfig::default()).is_err());
        let f_bad = Matrix::zeros(1, 5);
        assert!(EagleEyePlacement::place(&x, &f_bad, 1, &EagleEyeConfig::default()).is_err());
        let cfg = EagleEyeConfig {
            emergency_threshold: f64::NAN,
            ..EagleEyeConfig::default()
        };
        assert!(EagleEyePlacement::place(&x, &f, 1, &cfg).is_err());
    }

    #[test]
    fn detect_matrix_shape_checked() {
        let (x, f) = training();
        let p = EagleEyePlacement::place(&x, &f, 1, &EagleEyeConfig::default()).unwrap();
        assert!(p.detect_matrix(&Matrix::zeros(2, 4)).is_err());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn detect_wrong_len_panics() {
        let (x, f) = training();
        let p = EagleEyePlacement::place(&x, &f, 1, &EagleEyeConfig::default()).unwrap();
        p.detect(&[1.0]);
    }

    #[test]
    fn no_emergencies_falls_back_to_worst_noise() {
        let x = Matrix::from_rows(&[
            &[0.99, 0.97, 0.99],
            &[0.99, 0.90, 0.99], // worst noise
        ])
        .unwrap();
        let f = Matrix::from_rows(&[&[0.99, 0.95, 0.99]]).unwrap();
        let p = EagleEyePlacement::place(&x, &f, 1, &EagleEyeConfig::default()).unwrap();
        assert_eq!(p.selected(), &[1]);
    }

    #[test]
    fn detect_readings_alarms_on_any_placed_sensor_dip() {
        let (x, f) = training();
        let p = EagleEyePlacement::place(&x, &f, 2, &EagleEyeConfig::default()).unwrap();
        assert_eq!(p.selected(), &[0, 2]);
        assert!(!p.detect_readings(&[0.99, 0.99]).unwrap());
        assert!(p.detect_readings(&[0.80, 0.99]).unwrap());
        assert!(p.detect_readings(&[0.99, 0.80]).unwrap());
        // Wrong length is a typed error, not a panic.
        assert!(matches!(
            p.detect_readings(&[0.99]),
            Err(EagleEyeError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn detect_readings_ignores_non_finite_faults() {
        // Eagle-Eye has no cross-check: a dead (NaN) sensor simply never
        // alarms, silently losing its coverage.
        let (x, f) = training();
        let p = EagleEyePlacement::place(&x, &f, 2, &EagleEyeConfig::default()).unwrap();
        assert!(!p.detect_readings(&[f64::NAN, 0.99]).unwrap());
        // The surviving sensor still works.
        assert!(p.detect_readings(&[f64::NAN, 0.80]).unwrap());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EagleEyeError>();
    }
}
