use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use voltsense_linalg::lstsq::{self, LinearFit, Moments};
use voltsense_linalg::Matrix;
use voltsense_telemetry as telemetry;

use crate::selection::SelectionResult;
use crate::CoreError;

/// The paper's runtime prediction model (Section 2.3): an OLS refit of
/// the critical-node voltages on the *selected* sensors only, in original
/// volt units (Eq. 17–20).
///
/// The refit matters: the group-lasso coefficients are biased towards zero
/// by the budget constraint (the paper's two-candidate example around
/// Eq. 15–16), so a model read straight off `β` under-predicts droops.
/// Compare with [`GlDirectModel`] in the `ablation_refit` experiment.
///
/// The model is a handle: every clone shares one immutable parameter
/// block (sensors, the fit, its `Q×K` transpose and its fingerprint), so
/// cloning is a reference-count increment and every chip of a design
/// reads the same cache-resident coefficients — the paper fits the map
/// once per design and runs it on every chip.
///
/// See the [crate-level docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct VoltageMapModel {
    params: Arc<ModelParams>,
}

/// The fitted, immutable parameters every clone of one
/// [`VoltageMapModel`] shares. Built once per [`VoltageMapModel::fit`] or
/// [`VoltageMapModel::from_parts`].
#[derive(Debug)]
struct ModelParams {
    sensor_indices: Vec<usize>,
    fit: LinearFit,
    num_candidates: usize,
    /// `Q×K` transpose of the coefficients: the per-reading kernel
    /// ([`VoltageMapModel::predict_into`]) and the batched GEMM
    /// ([`VoltageMapModel::predict_batch_into`]) both run on it, so a
    /// reading's prediction is one contiguous `K`-wide row update per
    /// sensor.
    coeffs_t: Matrix,
    /// Lazily computed [`VoltageMapModel::params_fingerprint`]: once per
    /// block, however many clones ask.
    fingerprint: OnceLock<u64>,
}

impl VoltageMapModel {
    fn from_fit(sensor_indices: Vec<usize>, fit: LinearFit, num_candidates: usize) -> Self {
        let coeffs_t = fit.coefficients.transpose();
        VoltageMapModel {
            params: Arc::new(ModelParams {
                sensor_indices,
                fit,
                num_candidates,
                coeffs_t,
                fingerprint: OnceLock::new(),
            }),
        }
    }

    /// Fits the model: OLS of `f` on the `sensors` rows of `x`
    /// (both in volts).
    ///
    /// # Errors
    ///
    /// * [`CoreError::ShapeMismatch`] on sample-count mismatch, an empty
    ///   sensor list, or an out-of-range sensor index.
    /// * Propagates least-squares failures.
    pub fn fit(x: &Matrix, f: &Matrix, sensors: &[usize]) -> Result<Self, CoreError> {
        if x.cols() != f.cols() {
            return Err(CoreError::ShapeMismatch {
                what: format!(
                    "X has {} samples, F has {} — they must match",
                    x.cols(),
                    f.cols()
                ),
            });
        }
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
        let _span = telemetry::span("core.ols_refit");
        telemetry::counter("core.ols_refits", 1);
        let x_sel = x.select_rows(sensors);
        let fit = lstsq::ols_with_intercept(&x_sel, f)?;
        Ok(VoltageMapModel::from_fit(sensors.to_vec(), fit, x.rows()))
    }

    /// Rebuilds a fitted model from serialized parts — the restore half of
    /// a session checkpoint (see `voltsense-fleet`). No training data is
    /// needed: the coefficients and intercept *are* the model, so a
    /// restarted monitor resumes predicting without a refit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] when the parts are not mutually
    /// consistent: empty or out-of-range sensor list, coefficient column
    /// count differing from the sensor count, intercept length differing
    /// from the coefficient row count, or a non-finite parameter.
    pub fn from_parts(
        sensors: Vec<usize>,
        num_candidates: usize,
        coefficients: Matrix,
        intercept: Vec<f64>,
        rms_residual: f64,
    ) -> Result<Self, CoreError> {
        if sensors.is_empty() {
            return Err(CoreError::ShapeMismatch {
                what: "sensor list is empty".into(),
            });
        }
        if let Some(&bad) = sensors.iter().find(|&&s| s >= num_candidates) {
            return Err(CoreError::ShapeMismatch {
                what: format!("sensor index {bad} out of range for {num_candidates} candidates"),
            });
        }
        if coefficients.cols() != sensors.len() {
            return Err(CoreError::ShapeMismatch {
                what: format!(
                    "coefficients have {} columns for {} sensors",
                    coefficients.cols(),
                    sensors.len()
                ),
            });
        }
        if intercept.len() != coefficients.rows() {
            return Err(CoreError::ShapeMismatch {
                what: format!(
                    "intercept has {} entries for {} coefficient rows",
                    intercept.len(),
                    coefficients.rows()
                ),
            });
        }
        let finite = coefficients.as_slice().iter().all(|v| v.is_finite())
            && intercept.iter().all(|v| v.is_finite())
            && rms_residual.is_finite()
            && rms_residual >= 0.0;
        if !finite {
            return Err(CoreError::ShapeMismatch {
                what: "model parts contain a non-finite parameter".into(),
            });
        }
        let fit = LinearFit {
            coefficients,
            intercept,
            rms_residual,
        };
        Ok(VoltageMapModel::from_fit(sensors, fit, num_candidates))
    }

    /// `true` when `self` and `other` are clones of one fitted model, i.e.
    /// share one parameter block — then their predictions are identical
    /// without comparing a single coefficient. Models with equal
    /// parameters built separately (two [`VoltageMapModel::from_parts`]
    /// calls) answer `false`.
    pub fn shares_params(&self, other: &VoltageMapModel) -> bool {
        Arc::ptr_eq(&self.params, &other.params)
    }

    /// A separate parameter block with this model's parameters whose
    /// [`VoltageMapModel::params_fingerprint`] reads `fingerprint`. Exists
    /// so tests can stage a fingerprint collision between genuinely
    /// different models; nothing else should need it.
    #[doc(hidden)]
    pub fn with_forced_fingerprint(&self, fingerprint: u64) -> VoltageMapModel {
        let p = &*self.params;
        VoltageMapModel {
            params: Arc::new(ModelParams {
                sensor_indices: p.sensor_indices.clone(),
                fit: p.fit.clone(),
                num_candidates: p.num_candidates,
                coeffs_t: p.coeffs_t.clone(),
                fingerprint: OnceLock::from(fingerprint),
            }),
        }
    }

    /// Indices of the placed sensors within the candidate set.
    pub fn sensor_indices(&self) -> &[usize] {
        &self.params.sensor_indices
    }

    /// Number of sensors `Q`.
    pub fn num_sensors(&self) -> usize {
        self.params.sensor_indices.len()
    }

    /// Number of predicted critical nodes `K`.
    pub fn num_targets(&self) -> usize {
        self.params.fit.coefficients.rows()
    }

    /// Number of candidates the model was fitted against (for
    /// full-candidate-vector prediction).
    pub fn num_candidates(&self) -> usize {
        self.params.num_candidates
    }

    /// The fitted coefficients `α^S` (`K x Q`) and intercept `c`.
    pub fn linear_fit(&self) -> &LinearFit {
        &self.params.fit
    }

    /// Training root-mean-square residual (V).
    pub fn rms_residual(&self) -> f64 {
        self.params.fit.rms_residual
    }

    /// Predicts all critical-node voltages from the `Q` placed sensors'
    /// readings (Eq. 20) — the cheap runtime operation.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ShapeMismatch`] if `readings.len() != Q`.
    /// * [`CoreError::NonFiniteReading`] for a NaN or infinite reading —
    ///   a single corrupted input would otherwise poison *every* predicted
    ///   node.
    pub fn predict_from_sensors(&self, readings: &[f64]) -> Result<Vec<f64>, CoreError> {
        let mut out = vec![0.0; self.num_targets()];
        self.predict_into(readings, &mut out)?;
        Ok(out)
    }

    /// [`VoltageMapModel::predict_from_sensors`] into a caller-provided
    /// output slice of length `K`, allocating nothing on success — the
    /// steady-state form of the per-reading runtime path, pinned by the
    /// fleet `alloc_gate` test. (The error paths still format messages.)
    ///
    /// Runs serially on the shared `Q×K` transpose — one row of the
    /// batched GEMM — so every output carries exactly the bits of
    /// [`LinearFit::predict_into`] on the `K×Q` coefficients (the lane
    /// identity, DESIGN.md §8.4) without a pool dispatch per reading.
    ///
    /// # Errors
    ///
    /// As [`VoltageMapModel::predict_from_sensors`], plus
    /// [`CoreError::ShapeMismatch`] when `out.len() != K`.
    pub fn predict_into(&self, readings: &[f64], out: &mut [f64]) -> Result<(), CoreError> {
        if readings.len() != self.num_sensors() {
            return Err(CoreError::ShapeMismatch {
                what: format!(
                    "expected {} sensor readings, got {}",
                    self.num_sensors(),
                    readings.len()
                ),
            });
        }
        if out.len() != self.num_targets() {
            return Err(CoreError::ShapeMismatch {
                what: format!(
                    "expected output of length {}, got {}",
                    self.num_targets(),
                    out.len()
                ),
            });
        }
        if let Some(bad) = readings.iter().position(|v| !v.is_finite()) {
            return Err(CoreError::NonFiniteReading { sensor: bad });
        }
        self.params.coeffs_t.vecmat_into(readings, out)?;
        for (o, c) in out.iter_mut().zip(&self.params.fit.intercept) {
            *o += c;
        }
        Ok(())
    }

    /// Batched form of [`VoltageMapModel::predict_into`]: `readings` is a
    /// `B×Q` matrix whose *rows* are readings vectors, and row `b` of the
    /// `B×K` output is the prediction for reading `b`. One blocked GEMM
    /// (`B×Q · Q×K` against the shared coefficient transpose) replaces `B`
    /// per-reading products — the fleet's cross-session amortization lever.
    ///
    /// **Bit-identity contract (DESIGN.md §8.4):** every output row holds
    /// exactly the bits `predict_into` would produce for that readings row.
    /// Both paths accumulate over `Q` under the linalg lane identity and
    /// add the intercept once after the full dot, so the GEMM formulation
    /// changes instruction schedule, not results.
    ///
    /// Unlike `predict_into`, readings are **not** screened for NaN/∞ —
    /// a non-finite value contaminates its own output row per IEEE-754 and
    /// no error is raised. Callers that need the per-reading
    /// [`CoreError::NonFiniteReading`] semantics (the fleet does) must
    /// route such rows through the sequential path instead.
    ///
    /// Allocation-free; pinned by the fleet `alloc_gate` test.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if `readings.cols() != Q` or
    /// `out` is not `readings.rows() × K`.
    pub fn predict_batch_into(&self, readings: &Matrix, out: &mut Matrix) -> Result<(), CoreError> {
        if readings.cols() != self.num_sensors() {
            return Err(CoreError::ShapeMismatch {
                what: format!(
                    "expected readings rows of {} sensors, got {}",
                    self.num_sensors(),
                    readings.cols()
                ),
            });
        }
        if out.shape() != (readings.rows(), self.num_targets()) {
            return Err(CoreError::ShapeMismatch {
                what: format!(
                    "expected {}x{} output, got {}x{}",
                    readings.rows(),
                    self.num_targets(),
                    out.rows(),
                    out.cols()
                ),
            });
        }
        readings.matmul_into(&self.params.coeffs_t, out)?;
        for b in 0..out.rows() {
            for (o, c) in out.row_mut(b).iter_mut().zip(&self.params.fit.intercept) {
                *o += c;
            }
        }
        Ok(())
    }

    /// FNV-1a hash over the prediction parameters — shape (`K`, `Q`) plus
    /// the raw bits of every coefficient and intercept entry. Two models
    /// with equal fingerprints are *candidates* for sharing a batched GEMM
    /// (same predictions for the same readings); the fleet still verifies
    /// the parameters bitwise once per session before trusting a match,
    /// unless the two share one parameter block
    /// ([`VoltageMapModel::shares_params`]). Sensor indices and training
    /// residual are deliberately excluded: they do not affect the
    /// readings→prediction map. Computed once per parameter block
    /// (counted as `core.params_fingerprints`), however many clones ask.
    pub fn params_fingerprint(&self) -> u64 {
        *self.params.fingerprint.get_or_init(|| {
            telemetry::counter("core.params_fingerprints", 1);
            let fit = &self.params.fit;
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut eat = |v: u64| {
                for byte in v.to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            };
            eat(fit.coefficients.rows() as u64);
            eat(fit.coefficients.cols() as u64);
            for &c in fit.coefficients.as_slice() {
                eat(c.to_bits());
            }
            for &c in &fit.intercept {
                eat(c.to_bits());
            }
            h
        })
    }

    /// Predicts from a full candidate-voltage vector (`M` values), picking
    /// out the placed sensors' entries — convenient when evaluating on
    /// simulated maps.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if
    /// `candidates.len() != self.num_candidates()`.
    pub fn predict_from_candidates(&self, candidates: &[f64]) -> Result<Vec<f64>, CoreError> {
        if candidates.len() != self.num_candidates() {
            return Err(CoreError::ShapeMismatch {
                what: format!(
                    "expected {} candidate voltages, got {}",
                    self.num_candidates(),
                    candidates.len()
                ),
            });
        }
        let readings: Vec<f64> = self
            .sensor_indices()
            .iter()
            .map(|&s| candidates[s])
            .collect();
        self.predict_from_sensors(&readings)
    }

    /// Batch prediction over an `M x N` candidate matrix, returning
    /// `K x N` predicted critical voltages.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if `x.rows()` differs from the
    /// fitted candidate count.
    pub fn predict_matrix(&self, x: &Matrix) -> Result<Matrix, CoreError> {
        if x.rows() != self.num_candidates() {
            return Err(CoreError::ShapeMismatch {
                what: format!(
                    "X has {} rows, model was fitted over {} candidates",
                    x.rows(),
                    self.num_candidates()
                ),
            });
        }
        let x_sel = x.select_rows(self.sensor_indices());
        Ok(self.linear_fit().predict_matrix(&x_sel)?)
    }

    /// Emergency decision for one candidate-voltage sample: alarm if any
    /// predicted critical voltage is below `threshold`.
    ///
    /// # Errors
    ///
    /// Same as [`VoltageMapModel::predict_from_candidates`].
    pub fn detect(&self, candidates: &[f64], threshold: f64) -> Result<bool, CoreError> {
        Ok(self
            .predict_from_candidates(candidates)?
            .iter()
            .any(|&v| v < threshold))
    }

    /// Emergency decisions for every column of an `M x N` candidate
    /// matrix.
    ///
    /// # Errors
    ///
    /// Same as [`VoltageMapModel::predict_matrix`].
    pub fn detect_matrix(&self, x: &Matrix, threshold: f64) -> Result<Vec<bool>, CoreError> {
        let pred = self.predict_matrix(x)?;
        Ok((0..pred.cols())
            .map(|s| (0..pred.rows()).any(|k| pred[(k, s)] < threshold))
            .collect())
    }
}

/// A [`VoltageMapModel`] hardened against sensor loss: alongside the
/// primary Q-sensor fit it pre-fits the whole leave-one-sensor-out fallback
/// family (Q extra OLS refits) plus a cross-prediction model per sensor
/// (each sensor's reading predicted from the other Q−1), so the runtime
/// monitor can score sensor health and hot-swap a fallback the moment a
/// sensor is flagged.
///
/// Every refit is a solve on a sub-block of one set of centred second
/// moments ([`Moments`]: `Q×Q`, `K×Q` and the means, formed once from the
/// training data), so the model keeps nothing of size `N`. Multi-failure
/// fallbacks (2+ sensors down at once) are solved lazily on first use —
/// microseconds, not a pass over the data — and cached, keyed by the
/// excluded set.
///
/// Everything fitted up front is one immutable block that clones share:
/// cloning a fitted model (one per fault-aware monitor) copies none of it.
/// Only the lazy caches belong to the instance.
#[derive(Debug, Clone)]
pub struct FaultTolerantModel {
    fitted: Arc<FaultFit>,
    /// Cross-prediction families over reduced survivor sets, keyed by the
    /// excluded sensor set and fitted lazily as sensors drop out, so
    /// health scoring among survivors never needs a stand-in value for a
    /// dead sensor's reading.
    cross_cache: BTreeMap<Vec<usize>, CrossFamily>,
    /// Lazily fitted fallbacks for multi-sensor exclusions.
    multi_cache: BTreeMap<Vec<usize>, LinearFit>,
}

/// The eagerly fitted, immutable parts of a [`FaultTolerantModel`].
#[derive(Debug)]
struct FaultFit {
    primary: VoltageMapModel,
    /// Moments of the targets on the placed sensors, for every refit.
    moments: Moments,
    /// `fallbacks[i]` predicts all targets without sensor `i` (empty when
    /// `Q == 1` — there is nothing to fall back to).
    fallbacks: Vec<LinearFit>,
    /// The family scoring all Q sensors against each other (`None` when
    /// `Q == 1`).
    cross_all: Option<CrossFamily>,
}

/// Mutual cross-prediction models over one set of surviving sensors: each
/// sensor predicted from the others, plus per-sensor fault *signatures*
/// for blame attribution.
///
/// When sensor `k` alone reads wrong by `e`, its own cross-residual moves
/// by `e` and every other sensor `i`'s by `−w_ik·e` (`w_ik` = weight of
/// sensor `k` in sensor `i`'s cross-model) — a fixed direction computable
/// at fit time. Matching the observed residual vector against these
/// signatures names the sensor that *caused* the disturbance, which a
/// naive worst-residual rule gets wrong whenever some `|w_ik| > 1`.
#[derive(Debug, Clone)]
pub struct CrossFamily {
    /// Global sensor positions covered, sorted ascending.
    sensors: Vec<usize>,
    /// Reading-vector length these models expect.
    num_sensors_total: usize,
    /// `fits[local]` predicts `sensors[local]` from the rest.
    fits: Vec<LinearFit>,
    /// Unit-norm residual signatures, indexed like `sensors`.
    signatures: Vec<Vec<f64>>,
}

impl CrossFamily {
    fn fit(moments: &Moments, sensors: &[usize]) -> Result<Self, CoreError> {
        debug_assert!(sensors.len() >= 2, "caller guarantees two survivors");
        let n = sensors.len();
        let fits = sensors
            .iter()
            .enumerate()
            .map(|(local, &target)| {
                let others: Vec<usize> = sensors
                    .iter()
                    .enumerate()
                    .filter(|&(l, _)| l != local)
                    .map(|(_, &j)| j)
                    .collect();
                moments.fit_predictor(target, &others)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut signatures = Vec::with_capacity(n);
        for k in 0..n {
            let mut sig = vec![0.0; n];
            sig[k] = 1.0;
            for i in 0..n {
                if i == k {
                    continue;
                }
                // Position of sensor k among sensor i's predictors.
                let pos = (0..n)
                    .filter(|&l| l != i)
                    .position(|l| l == k)
                    .expect("k != i, so k is among i's predictors");
                sig[i] = -fits[i].coefficients[(0, pos)];
            }
            let norm = sig.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm > 0.0 {
                sig.iter_mut().for_each(|v| *v /= norm);
            }
            signatures.push(sig);
        }
        Ok(CrossFamily {
            sensors: sensors.to_vec(),
            num_sensors_total: moments.num_predictors(),
            fits,
            signatures,
        })
    }

    /// Global sensor positions this family scores, sorted.
    pub fn sensors(&self) -> &[usize] {
        &self.sensors
    }

    /// Training RMS residual of the cross-model for `sensors()[local]`.
    pub fn rms(&self, local: usize) -> f64 {
        self.fits[local].rms_residual
    }

    /// Cross-prediction residuals (`reading − predicted-from-peers`) for
    /// every covered sensor, indexed like [`CrossFamily::sensors`].
    /// `readings` is the full Q-vector; entries outside the family are
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] on a wrong-length vector.
    pub fn residuals(&self, readings: &[f64]) -> Result<Vec<f64>, CoreError> {
        if readings.len() != self.num_sensors_total {
            return Err(CoreError::ShapeMismatch {
                what: format!(
                    "expected {} readings, got {}",
                    self.num_sensors_total,
                    readings.len()
                ),
            });
        }
        let mut out = Vec::with_capacity(self.sensors.len());
        for (local, &s) in self.sensors.iter().enumerate() {
            let others: Vec<f64> = self
                .sensors
                .iter()
                .enumerate()
                .filter(|&(l, _)| l != local)
                .map(|(_, &j)| readings[j])
                .collect();
            let pred = self.fits[local].predict(&others)?[0];
            out.push(readings[s] - pred);
        }
        Ok(out)
    }

    /// Attributes a residual pattern (as returned by
    /// [`CrossFamily::residuals`]) to the *global* position of the sensor
    /// whose fault signature matches it best, or `None` if nothing
    /// correlates.
    pub fn attribute(&self, residuals: &[f64]) -> Option<usize> {
        if residuals.len() != self.sensors.len() {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        for (k, sig) in self.signatures.iter().enumerate() {
            let dot: f64 = residuals.iter().zip(sig).map(|(r, s)| r * s).sum();
            let score = dot.abs();
            if score.is_finite() && best.is_none_or(|(_, b)| score > b) {
                best = Some((k, score));
            }
        }
        best.map(|(k, _)| self.sensors[k])
    }
}

impl FaultTolerantModel {
    /// Fits the primary model plus the fallback and cross-prediction
    /// families.
    ///
    /// The primary is [`VoltageMapModel::fit`] on the data; every other
    /// fit is a solve on a sub-block of the [`Moments`] of `f` on the
    /// placed sensors. Where the sub-block's Cholesky factor exists, that
    /// solve has the bits of `ols_with_intercept` on the surviving rows;
    /// collinear survivors get the ridge fallback.
    ///
    /// # Errors
    ///
    /// Same conditions as [`VoltageMapModel::fit`]; the auxiliary fits
    /// can only add least-squares failures on degenerate data.
    pub fn fit(x: &Matrix, f: &Matrix, sensors: &[usize]) -> Result<Self, CoreError> {
        let _span = telemetry::span("core.fault_tolerant_fit");
        let primary = VoltageMapModel::fit(x, f, sensors)?;
        let moments = Moments::new(&x.select_rows(sensors), f)?;
        let q = sensors.len();
        let mut fallbacks = Vec::new();
        let mut cross_all = None;
        if q > 1 {
            fallbacks = (0..q)
                .map(|i| {
                    let others: Vec<usize> = (0..q).filter(|&j| j != i).collect();
                    moments.fit(&others)
                })
                .collect::<Result<Vec<_>, _>>()?;
            telemetry::counter("core.fallback_fits", q as u64);
            let all: Vec<usize> = (0..q).collect();
            cross_all = Some(CrossFamily::fit(&moments, &all)?);
        }
        Ok(FaultTolerantModel {
            fitted: Arc::new(FaultFit {
                primary,
                moments,
                fallbacks,
                cross_all,
            }),
            cross_cache: BTreeMap::new(),
            multi_cache: BTreeMap::new(),
        })
    }

    /// The primary (all-sensors) model.
    pub fn primary(&self) -> &VoltageMapModel {
        &self.fitted.primary
    }

    /// Number of placed sensors `Q`.
    pub fn num_sensors(&self) -> usize {
        self.fitted.primary.num_sensors()
    }

    /// The pre-fitted leave-`i`-out fallback, or `None` when `Q == 1`.
    pub fn leave_one_out(&self, i: usize) -> Option<&LinearFit> {
        self.fitted.fallbacks.get(i)
    }

    /// Training RMS residual of sensor `i`'s cross-prediction model, or
    /// `None` when `Q == 1`.
    pub fn cross_rms(&self, i: usize) -> Option<f64> {
        self.fitted.cross_all.as_ref().map(|family| family.rms(i))
    }

    /// The cross-prediction family over the sensors *not* in `excluded`,
    /// fitting and caching it on first use. Returns `None` when fewer than
    /// two sensors survive (mutual prediction needs a peer).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] for an out-of-range excluded
    /// position; propagates least-squares failures on degenerate data.
    pub fn cross_family(&mut self, excluded: &[usize]) -> Result<Option<&CrossFamily>, CoreError> {
        let q = self.num_sensors();
        let mut key: Vec<usize> = excluded.to_vec();
        key.sort_unstable();
        key.dedup();
        if let Some(&bad) = key.iter().find(|&&i| i >= q) {
            return Err(CoreError::ShapeMismatch {
                what: format!("excluded position {bad} out of range for {q} sensors"),
            });
        }
        if q - key.len() < 2 {
            return Ok(None);
        }
        if key.is_empty() {
            return Ok(self.fitted.cross_all.as_ref());
        }
        if !self.cross_cache.contains_key(&key) {
            telemetry::counter("core.cross_family_fits", 1);
            let survivors: Vec<usize> = (0..q).filter(|i| !key.contains(i)).collect();
            let family = CrossFamily::fit(&self.fitted.moments, &survivors)?;
            self.cross_cache.insert(key.clone(), family);
        }
        Ok(self.cross_cache.get(&key))
    }

    /// Predicts all critical-node voltages from the placed sensors'
    /// readings, ignoring the sensors in `excluded` (positions into the
    /// sensor list, i.e. `0..Q`).
    ///
    /// With an empty exclusion this is exactly the primary model; with one
    /// exclusion it is the pre-fitted leave-one-out fallback; with more it
    /// solves (once) and caches the OLS refit on the surviving sensors from
    /// the fitted moments.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ShapeMismatch`] on a wrong-length reading vector or
    ///   an out-of-range excluded position.
    /// * [`CoreError::DegradedBeyondRecovery`] when the exclusion leaves no
    ///   surviving sensor.
    pub fn predict_excluding(
        &mut self,
        readings: &[f64],
        excluded: &[usize],
    ) -> Result<Vec<f64>, CoreError> {
        let q = self.num_sensors();
        if readings.len() != q {
            return Err(CoreError::ShapeMismatch {
                what: format!("expected {q} readings, got {}", readings.len()),
            });
        }
        let mut key: Vec<usize> = excluded.to_vec();
        key.sort_unstable();
        key.dedup();
        if let Some(&bad) = key.iter().find(|&&i| i >= q) {
            return Err(CoreError::ShapeMismatch {
                what: format!("excluded position {bad} out of range for {q} sensors"),
            });
        }
        if key.is_empty() {
            return self.fitted.primary.predict_from_sensors(readings);
        }
        if key.len() >= q {
            return Err(CoreError::DegradedBeyondRecovery {
                failed: key.len(),
                allowed: q - 1,
            });
        }
        let survivors: Vec<usize> = (0..q).filter(|i| !key.contains(i)).collect();
        // Excluded entries may legitimately be NaN (a dead sensor); only
        // the surviving readings must be finite.
        if let Some(&bad) = survivors.iter().find(|&&i| !readings[i].is_finite()) {
            return Err(CoreError::NonFiniteReading { sensor: bad });
        }
        let surviving_readings: Vec<f64> = survivors.iter().map(|&i| readings[i]).collect();
        if key.len() == 1 {
            return Ok(self.fitted.fallbacks[key[0]].predict(&surviving_readings)?);
        }
        if !self.multi_cache.contains_key(&key) {
            telemetry::counter("core.multi_exclusion_refits", 1);
            let fit = self.fitted.moments.fit(&survivors)?;
            self.multi_cache.insert(key.clone(), fit);
        }
        let fit = self.multi_cache.get(&key).expect("inserted above");
        Ok(fit.predict(&surviving_readings)?)
    }
}

/// The paper's Eq. 14 strawman: predict directly from the (normalized,
/// budget-biased) group-lasso coefficients without the OLS refit.
///
/// Exists for the ablation experiment showing why the refit is necessary;
/// production use should go through [`VoltageMapModel`].
#[derive(Debug, Clone)]
pub struct GlDirectModel {
    beta_selected: Matrix,
    selection: SelectionResult,
}

impl GlDirectModel {
    /// Builds the direct model from a selection result.
    pub fn from_selection(selection: SelectionResult) -> Self {
        let beta_selected = selection.beta.select_cols(&selection.selected);
        GlDirectModel {
            beta_selected,
            selection,
        }
    }

    /// Predicts critical-node voltages from a full candidate-voltage
    /// vector using the GL coefficients: normalize the selected readings,
    /// apply `β`, invert the target normalization.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if the vector length differs
    /// from the fitted candidate count.
    pub fn predict_from_candidates(&self, candidates: &[f64]) -> Result<Vec<f64>, CoreError> {
        let z = self.selection.x_normalizer.apply_vec(candidates)?;
        let z_sel: Vec<f64> = self.selection.selected.iter().map(|&m| z[m]).collect();
        let g = self.beta_selected.matvec(&z_sel)?;
        Ok(self.selection.f_normalizer.invert_vec(&g)?)
    }

    /// The selection this model was built from.
    pub fn selection(&self) -> &SelectionResult {
        &self.selection
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SelectionProblem;
    use voltsense_grouplasso::GlOptions;
    use voltsense_linalg::decomp::Cholesky;
    use voltsense_parallel as parallel;
    use voltsense_testkit::{choice, forall, u64_range, usize_range};

    /// f0 = 0.9·x0 + 0.05, f1 = 0.5·x0 + 0.5·x2 (noiseless).
    fn training() -> (Matrix, Matrix) {
        let n = 30;
        let mut x = Matrix::zeros(3, n);
        let mut f = Matrix::zeros(2, n);
        for s in 0..n {
            let t = s as f64;
            let x0 = 0.93 + 0.05 * (t * 0.7).sin();
            let x1 = 0.95 + 0.01 * (t * 2.1).cos();
            let x2 = 0.94 + 0.04 * (t * 1.3).cos();
            x[(0, s)] = x0;
            x[(1, s)] = x1;
            x[(2, s)] = x2;
            f[(0, s)] = 0.9 * x0 + 0.05;
            f[(1, s)] = 0.5 * x0 + 0.5 * x2;
        }
        (x, f)
    }

    #[test]
    fn noiseless_fit_recovers_model() {
        let (x, f) = training();
        let model = VoltageMapModel::fit(&x, &f, &[0, 2]).unwrap();
        assert!(model.rms_residual() < 1e-10);
        let pred = model.predict_from_sensors(&[0.90, 0.95]).unwrap();
        assert!((pred[0] - (0.9 * 0.90 + 0.05)).abs() < 1e-9);
        assert!((pred[1] - (0.5 * 0.90 + 0.5 * 0.95)).abs() < 1e-9);
    }

    #[test]
    fn candidate_and_sensor_paths_agree() {
        let (x, f) = training();
        let model = VoltageMapModel::fit(&x, &f, &[0, 2]).unwrap();
        let full = [0.91, 0.95, 0.93];
        let via_candidates = model.predict_from_candidates(&full).unwrap();
        let via_sensors = model.predict_from_sensors(&[0.91, 0.93]).unwrap();
        assert_eq!(via_candidates, via_sensors);
    }

    #[test]
    fn batch_prediction_matches_single() {
        let (x, f) = training();
        let model = VoltageMapModel::fit(&x, &f, &[0, 2]).unwrap();
        let batch = model.predict_matrix(&x).unwrap();
        for s in [0usize, 7, 19] {
            let single = model.predict_from_candidates(&x.col(s)).unwrap();
            for k in 0..2 {
                assert!((batch[(k, s)] - single[k]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn detection_thresholds_predictions() {
        let (x, f) = training();
        let model = VoltageMapModel::fit(&x, &f, &[0, 2]).unwrap();
        // Drive candidate 0 low so f0 = 0.9·x0 + 0.05 < 0.85 ⇔ x0 < 0.889.
        assert!(model.detect(&[0.86, 0.95, 0.95], 0.85).unwrap());
        assert!(!model.detect(&[0.95, 0.95, 0.95], 0.85).unwrap());
        let alarms = model.detect_matrix(&x, 0.85).unwrap();
        assert_eq!(alarms.len(), x.cols());
    }

    #[test]
    fn shape_errors() {
        let (x, f) = training();
        assert!(VoltageMapModel::fit(&x, &f, &[]).is_err());
        assert!(VoltageMapModel::fit(&x, &f, &[7]).is_err());
        let f_bad = Matrix::zeros(2, 5);
        assert!(VoltageMapModel::fit(&x, &f_bad, &[0]).is_err());
        let model = VoltageMapModel::fit(&x, &f, &[0, 2]).unwrap();
        assert!(model.predict_from_sensors(&[1.0]).is_err());
        assert!(model.predict_from_candidates(&[1.0]).is_err());
        assert!(model.predict_matrix(&Matrix::zeros(5, 4)).is_err());
    }

    #[test]
    fn non_finite_readings_rejected_with_typed_error() {
        let (x, f) = training();
        let model = VoltageMapModel::fit(&x, &f, &[0, 2]).unwrap();
        assert!(matches!(
            model.predict_from_sensors(&[0.9, f64::NAN]),
            Err(CoreError::NonFiniteReading { sensor: 1 })
        ));
        assert!(matches!(
            model.predict_from_candidates(&[f64::INFINITY, 0.9, 0.9]),
            Err(CoreError::NonFiniteReading { sensor: 0 })
        ));
        // A surviving NaN is rejected even on the fallback path.
        let mut ft = FaultTolerantModel::fit(&x, &f, &[0, 1, 2]).unwrap();
        assert!(matches!(
            ft.predict_excluding(&[0.9, f64::NAN, 0.9], &[2]),
            Err(CoreError::NonFiniteReading { sensor: 1 })
        ));
    }

    /// Values the lane kernels must carry through bit for bit: both
    /// zeros, the smallest and largest subnormals of both signs, and
    /// magnitudes whose products overflow to ±∞ (and whose sums of
    /// opposite infinities make NaN).
    const KERNEL_POOL: [f64; 10] = [
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        -f64::from_bits(0x000f_ffff_ffff_ffff),
        1e300,
        -1e300,
        0.93,
        -1.7,
    ];

    /// Deterministic value stream: half pool picks, half uniform in
    /// `[-2, 2)`.
    fn kernel_values(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state & 1 == 0 {
                    KERNEL_POOL[(state >> 1) as usize % KERNEL_POOL.len()]
                } else {
                    (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
                }
            })
            .collect()
    }

    #[test]
    fn per_reading_kernel_bit_equals_gemm_row_and_matvec_oracle() {
        let targets: Vec<usize> = (1..=9).chain([240]).collect();
        forall!(cases = 96, (
            seed in u64_range(1, u64::MAX - 1),
            q in usize_range(1, 18),
            k in choice(targets),
            b in usize_range(1, 5),
            threads in choice(vec![1_usize, 2, 4])
        ) => {
            let coefficients = Matrix::from_vec(k, q, kernel_values(seed, k * q)).unwrap();
            let intercept = kernel_values(seed ^ 0x5a5a, k);
            let model = VoltageMapModel::from_parts(
                (0..q).collect(),
                q,
                coefficients,
                intercept,
                0.0,
            )
            .unwrap();
            let readings = Matrix::from_vec(b, q, kernel_values(seed ^ 0xa5a5, b * q)).unwrap();
            let mut batch = Matrix::zeros(b, k);
            parallel::with_threads(threads, || {
                model.predict_batch_into(&readings, &mut batch).unwrap();
            });
            let (mut single, mut oracle) = (vec![0.0; k], vec![0.0; k]);
            for row in 0..b {
                model.predict_into(readings.row(row), &mut single).unwrap();
                parallel::with_threads(threads, || {
                    model.linear_fit().predict_into(readings.row(row), &mut oracle).unwrap();
                });
                for t in 0..k {
                    let (x, y, z) = (single[t], batch.row(row)[t], oracle[t]);
                    assert!(
                        x.to_bits() == z.to_bits() && y.to_bits() == z.to_bits(),
                        "row {row} target {t}: predict_into {x:e}, batch row {y:e}, matvec {z:e}"
                    );
                }
            }
        });
    }

    #[test]
    fn clones_share_one_parameter_block_and_one_fingerprint() {
        let (x, f) = training();
        let model = VoltageMapModel::fit(&x, &f, &[0, 2]).unwrap();
        let fit = model.linear_fit();
        let copy = VoltageMapModel::from_parts(
            model.sensor_indices().to_vec(),
            model.num_candidates(),
            fit.coefficients.clone(),
            fit.intercept.clone(),
            fit.rms_residual,
        )
        .unwrap();
        let recorder = Arc::new(telemetry::MemoryRecorder::new());
        telemetry::with_scoped(recorder.clone(), || {
            let clones: Vec<VoltageMapModel> = (0..8).map(|_| model.clone()).collect();
            for c in &clones {
                assert!(c.shares_params(&model));
                assert_eq!(c.params_fingerprint(), model.params_fingerprint());
            }
            assert!(!copy.shares_params(&model), "from_parts builds its own block");
            assert_eq!(copy.params_fingerprint(), model.params_fingerprint());
        });
        let fingerprints = recorder.snapshot("fingerprint").counter("core.params_fingerprints");
        assert_eq!(fingerprints, Some(2), "one hash per parameter block, not per clone");
    }

    #[test]
    fn fault_tolerant_clones_share_the_fitted_parts() {
        let (x, f) = training();
        let ft = FaultTolerantModel::fit(&x, &f, &[0, 1, 2]).unwrap();
        let clone = ft.clone();
        assert!(Arc::ptr_eq(&ft.fitted, &clone.fitted));
        assert!(clone.primary().shares_params(ft.primary()));
    }

    #[test]
    fn fault_tolerant_with_no_exclusions_matches_primary() {
        let (x, f) = training();
        let mut ft = FaultTolerantModel::fit(&x, &f, &[0, 1, 2]).unwrap();
        let readings = [0.91, 0.95, 0.93];
        let primary = ft.primary().predict_from_sensors(&readings).unwrap();
        let via_ft = ft.predict_excluding(&readings, &[]).unwrap();
        assert_eq!(primary, via_ft);
    }

    #[test]
    fn excluding_sensor_i_is_exactly_the_leave_i_out_model() {
        let (x, f) = training();
        let mut ft = FaultTolerantModel::fit(&x, &f, &[0, 1, 2]).unwrap();
        let readings = [0.91, 0.95, 0.93];
        for i in 0..3 {
            let survivors: Vec<f64> = (0..3).filter(|&j| j != i).map(|j| readings[j]).collect();
            let direct = ft.leave_one_out(i).unwrap().predict(&survivors).unwrap();
            let via_excl = ft.predict_excluding(&readings, &[i]).unwrap();
            assert_eq!(direct, via_excl, "sensor {i}");
        }
    }

    #[test]
    fn fallback_recovers_targets_the_survivors_can_express() {
        // f0 depends only on x0; losing sensor 2 must not hurt f0 at all.
        let (x, f) = training();
        let mut ft = FaultTolerantModel::fit(&x, &f, &[0, 2]).unwrap();
        let truth = 0.9 * 0.90 + 0.05;
        let degraded = ft.predict_excluding(&[0.90, f64::NAN], &[1]).unwrap();
        assert!((degraded[0] - truth).abs() < 1e-9, "got {}", degraded[0]);
    }

    #[test]
    fn multi_failure_refit_is_cached_and_consistent() {
        let (x, f) = training();
        let mut ft = FaultTolerantModel::fit(&x, &f, &[0, 1, 2]).unwrap();
        let readings = [0.91, 0.95, 0.93];
        let a = ft.predict_excluding(&readings, &[1, 2]).unwrap();
        let b = ft.predict_excluding(&readings, &[2, 1]).unwrap();
        assert_eq!(a, b);
        // The cached refit equals a from-scratch OLS on the survivor row.
        let x_surv = x.select_rows(&[0]);
        let direct = lstsq::ols_with_intercept(&x_surv, &f)
            .unwrap()
            .predict(&[readings[0]])
            .unwrap();
        for (got, want) in a.iter().zip(&direct) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn cross_prediction_tracks_healthy_sensors() {
        // Sensors 0 and 2 are driven by smooth signals; the cross fit on
        // noiseless training data predicts each from the others closely.
        let (x, f) = training();
        let mut ft = FaultTolerantModel::fit(&x, &f, &[0, 1, 2]).unwrap();
        let family = ft.cross_family(&[]).unwrap().unwrap();
        for s in [0usize, 7, 19] {
            let readings: Vec<f64> = (0..3).map(|i| x[(i, s)]).collect();
            let residuals = family.residuals(&readings).unwrap();
            for (i, r) in residuals.iter().enumerate() {
                assert!(
                    r.abs() <= 6.0 * family.rms(i) + 1e-6,
                    "sensor {i} sample {s}: residual {r} against {}",
                    readings[i]
                );
            }
        }
    }

    #[test]
    fn noiseless_cross_residuals_are_clamped_finite() {
        // Noiseless training leaves Σ f̄² − tr(α·Sfxᵀ) at rounding level,
        // where the difference can come out negative.
        let (x, f) = training();
        let ft = FaultTolerantModel::fit(&x, &f, &[0, 1, 2]).unwrap();
        for i in 0..3 {
            let rms = ft.cross_rms(i).unwrap();
            assert!(rms.is_finite() && rms >= 0.0, "sensor {i}: cross rms {rms}");
        }
    }

    #[test]
    fn duplicated_sensor_signal_takes_the_ridge_fallback() {
        // Candidate 3 reads exactly what candidate 0 reads, so every fit
        // with both as predictors has a singular Gram block.
        let (x3, f) = training();
        let x = Matrix::from_fn(4, x3.cols(), |i, s| x3[(i % 3, s)]);
        let mut ft = FaultTolerantModel::fit(&x, &f, &[0, 3, 2]).unwrap();
        for s in [0usize, 7, 19] {
            let readings = [x[(0, s)], x[(3, s)], x[(2, s)]];
            // Without sensor 2 only f0 = 0.9·x0 + 0.05 is achievable.
            for excluded in [&[2][..], &[1, 2], &[0, 2]] {
                let pred = ft.predict_excluding(&readings, excluded).unwrap();
                assert!(pred.iter().all(|v| v.is_finite()), "{excluded:?}: {pred:?}");
                assert!((pred[0] - f[(0, s)]).abs() < 1e-6, "{excluded:?}: {pred:?}");
            }
            // Sensor 2's cross-model predicts it from the duplicated pair.
            let family = ft.cross_family(&[]).unwrap().unwrap();
            let residuals = family.residuals(&readings).unwrap();
            assert!(residuals.iter().all(|r| r.is_finite()), "{residuals:?}");
            assert!(residuals[0].abs() < 1e-6 && residuals[1].abs() < 1e-6, "{residuals:?}");
        }
    }

    /// `n` samples of `p` distinct noisy traces about 0.95 V, and `k`
    /// noisy blends of them, from one xorshift stream.
    fn random_training(seed: u64, p: usize, k: usize, n: usize) -> (Matrix, Matrix) {
        let mut state = seed | 1;
        let mut uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let x = Matrix::from_fn(p, n, |_, _| 0.95 + 0.04 * uniform());
        let weights = Matrix::from_fn(k, p, |_, _| uniform());
        let mut f = weights.matmul(&x).unwrap();
        f.as_mut_slice().iter_mut().for_each(|v| *v += 0.01 * uniform());
        (x, f)
    }

    /// The data-path reference: `ols_with_intercept` on `rows` of `x`,
    /// or `None` where its Gram matrix has no Cholesky factor (there the
    /// data path takes QR and the moment path the ridge).
    fn data_fit(x: &Matrix, f: &Matrix, rows: &[usize]) -> Option<LinearFit> {
        let xs = x.select_rows(rows);
        let means = voltsense_linalg::stats::row_means(&xs);
        let xc = Matrix::from_fn(xs.rows(), xs.cols(), |i, s| xs[(i, s)] - means[i]);
        Cholesky::new(&xc.gram()).ok()?;
        Some(lstsq::ols_with_intercept(&xs, f).unwrap())
    }

    /// Moment-path fit == data-path fit: coefficients and intercept bit
    /// for bit, RMS residual within 1e-9 relative.
    fn assert_same_fit(got: &LinearFit, want: &LinearFit, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(got.coefficients.as_slice()),
            bits(want.coefficients.as_slice()),
            "{what}: coefficients"
        );
        assert_eq!(bits(&got.intercept), bits(&want.intercept), "{what}: intercept");
        let (a, b) = (got.rms_residual, want.rms_residual);
        assert!((a - b).abs() <= 1e-9 * b, "{what}: rms {a:e} vs data {b:e}");
    }

    #[test]
    fn moment_refits_bit_equal_data_refits() {
        forall!(cases = 48, (
            seed in u64_range(1, u64::MAX - 1),
            q in usize_range(2, 8),
            k in usize_range(1, 6),
            extra in usize_range(2, 60),
            mask in u64_range(0, u64::MAX - 1),
            threads in choice(vec![1_usize, 2])
        ) => {
            let n = q + extra;
            let (x, f) = random_training(seed, q, k, n);
            // Every proper subset of 0..q, drawn from the mask's bits.
            let excluded: Vec<usize> = (0..q).filter(|&i| mask >> i & 1 == 1).take(q - 1).collect();
            let survivors: Vec<usize> = (0..q).filter(|i| !excluded.contains(i)).collect();
            parallel::with_threads(threads, || {
                let sensors: Vec<usize> = (0..q).collect();
                let mut ft = FaultTolerantModel::fit(&x, &f, &sensors).unwrap();
                // Fallback (F) targets: the leave-one-out family and the
                // lazily solved multi-exclusion refit.
                for i in 0..q {
                    let others: Vec<usize> = (0..q).filter(|&j| j != i).collect();
                    if let Some(want) = data_fit(&x, &f, &others) {
                        assert_same_fit(ft.leave_one_out(i).unwrap(), &want, "leave-one-out");
                    }
                }
                let readings = vec![0.95; q];
                ft.predict_excluding(&readings, &excluded).unwrap();
                if let (Some(got), Some(want)) =
                    (ft.multi_cache.get(&excluded), data_fit(&x, &f, &survivors))
                {
                    assert_same_fit(got, &want, "multi-exclusion");
                }
                // Cross (sensor-row) targets over the survivors.
                if let Some(family) = ft.cross_family(&excluded).unwrap() {
                    for (local, &target) in family.sensors().iter().enumerate() {
                        let others: Vec<usize> =
                            survivors.iter().copied().filter(|&j| j != target).collect();
                        let row = x.select_rows(&[target]);
                        if let Some(want) = data_fit(&x, &row, &others) {
                            assert_same_fit(&family.fits[local], &want, "cross");
                        }
                    }
                }
            });
        });
    }

    #[test]
    fn single_sensor_model_has_no_fallbacks() {
        let (x, f) = training();
        let mut ft = FaultTolerantModel::fit(&x, &f, &[0]).unwrap();
        assert!(ft.leave_one_out(0).is_none());
        assert!(ft.cross_family(&[]).unwrap().is_none());
        assert!(ft.cross_rms(0).is_none());
        assert!(matches!(
            ft.predict_excluding(&[0.9], &[0]),
            Err(CoreError::DegradedBeyondRecovery { .. })
        ));
    }

    #[test]
    fn fault_tolerant_shape_errors() {
        let (x, f) = training();
        let mut ft = FaultTolerantModel::fit(&x, &f, &[0, 2]).unwrap();
        assert!(ft.predict_excluding(&[0.9], &[]).is_err());
        assert!(ft.predict_excluding(&[0.9, 0.9], &[5]).is_err());
        assert!(ft.cross_family(&[9]).is_err());
        let family = ft.cross_family(&[]).unwrap().unwrap();
        assert!(family.residuals(&[0.9]).is_err());
    }

    #[test]
    fn gl_direct_model_is_biased_towards_zero_droop() {
        // The constrained GL shrinks coefficients, so the direct model
        // under-reacts to droops compared with the OLS refit — exactly the
        // argument of the paper's Section 2.3 example.
        let (x, f) = training();
        let prepared = SelectionProblem::new(&x, &f).unwrap();
        let mut sweep = prepared.homotopy(GlOptions::default()).unwrap();
        let selection = sweep.select_constrained(0.8, 1e-3).unwrap();
        let refit = VoltageMapModel::fit(&x, &f, &selection.selected).unwrap();
        let direct = GlDirectModel::from_selection(selection);

        // A deep droop on the informative candidates.
        let sample = [0.80, 0.95, 0.82];
        let refit_pred = refit.predict_from_candidates(&sample).unwrap();
        let direct_pred = direct.predict_from_candidates(&sample).unwrap();
        // The direct model predicts milder droops (higher voltage).
        assert!(
            direct_pred[0] > refit_pred[0],
            "direct {direct_pred:?} vs refit {refit_pred:?}"
        );
    }

    #[test]
    fn gl_direct_prediction_shape_checked() {
        let (x, f) = training();
        let prepared = SelectionProblem::new(&x, &f).unwrap();
        let mut sweep = prepared.homotopy(GlOptions::default()).unwrap();
        let selection = sweep.select_constrained(0.8, 1e-3).unwrap();
        let direct = GlDirectModel::from_selection(selection);
        assert!(direct.predict_from_candidates(&[1.0]).is_err());
    }
}
