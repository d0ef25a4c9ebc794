use voltsense_core::{
    detection, metrics, CoreError, EvaluationReport, FittedMethodology, Methodology,
    MethodologyConfig, VoltageMapModel,
};
use voltsense_floorplan::{ChipFloorplan, CoreId};
use voltsense_linalg::Matrix;

use super::{ScenarioData, ScenarioError};

/// Assignment of candidate rows and block rows to cores.
///
/// The paper selects and reports sensors *per core*; candidates in the
/// shared channels/periphery are assigned to the nearest core centre.
#[derive(Debug, Clone)]
pub struct CorePartition {
    candidate_rows: Vec<Vec<usize>>,
    block_rows: Vec<Vec<usize>>,
}

impl CorePartition {
    /// Builds the partition from the chip floorplan, assuming the default
    /// dataset layout (blank-area candidates, one representative per
    /// block). For datasets collected with non-default
    /// [`super::CollectOptions`], use [`CorePartition::for_data`].
    pub fn from_chip(chip: &ChipFloorplan) -> Self {
        let lattice = chip.lattice();
        let cores = chip.cores();
        let mut candidate_rows = vec![Vec::new(); cores.len()];
        for (row, &node) in lattice.candidate_sites().iter().enumerate() {
            let p = lattice.position(node);
            let nearest = cores
                .iter()
                .min_by(|a, b| {
                    let da = a.rect.center().distance_to(p);
                    let db = b.rect.center().distance_to(p);
                    da.partial_cmp(&db).expect("distances are finite")
                })
                .expect("at least one core");
            candidate_rows[nearest.id.0].push(row);
        }
        let mut block_rows = vec![Vec::new(); cores.len()];
        for (row, block) in chip.blocks().iter().enumerate() {
            block_rows[block.core().0].push(row);
        }
        CorePartition {
            candidate_rows,
            block_rows,
        }
    }

    /// Builds the partition from a dataset's own bookkeeping — correct for
    /// any [`super::CollectOptions`] (function-area candidates, multiple
    /// representatives per block).
    pub fn for_data(chip: &ChipFloorplan, data: &super::ScenarioData) -> Self {
        let lattice = chip.lattice();
        let cores = chip.cores();
        let mut candidate_rows = vec![Vec::new(); cores.len()];
        for (row, &node) in data.candidate_nodes.iter().enumerate() {
            let p = lattice.position(node);
            let nearest = cores
                .iter()
                .min_by(|a, b| {
                    let da = a.rect.center().distance_to(p);
                    let db = b.rect.center().distance_to(p);
                    da.partial_cmp(&db).expect("distances are finite")
                })
                .expect("at least one core");
            candidate_rows[nearest.id.0].push(row);
        }
        let mut block_rows = vec![Vec::new(); cores.len()];
        for (row, &block) in data.row_blocks.iter().enumerate() {
            let core = chip.blocks()[block.0].core();
            block_rows[core.0].push(row);
        }
        CorePartition {
            candidate_rows,
            block_rows,
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.candidate_rows.len()
    }

    /// Candidate rows (into `X`) assigned to a core.
    ///
    /// # Panics
    ///
    /// Panics if the core index is out of range.
    pub fn candidates_of(&self, core: CoreId) -> &[usize] {
        &self.candidate_rows[core.0]
    }

    /// Block rows (into `F`) of a core.
    ///
    /// # Panics
    ///
    /// Panics if the core index is out of range.
    pub fn blocks_of(&self, core: CoreId) -> &[usize] {
        &self.block_rows[core.0]
    }
}

/// One core's fitted methodology, with its global row maps.
#[derive(Debug, Clone)]
pub struct PerCoreFit {
    /// The core this fit belongs to.
    pub core: CoreId,
    /// The fitted pipeline over the core's candidates/blocks.
    pub fitted: FittedMethodology,
    /// Global candidate rows (into the whole-chip `X`) of this core's
    /// candidate subset, in the order the fit saw them.
    pub candidate_rows: Vec<usize>,
    /// Global block rows (into the whole-chip `F`).
    pub block_rows: Vec<usize>,
}

impl PerCoreFit {
    /// Sensors of this core as global candidate rows.
    pub fn sensors_global(&self) -> Vec<usize> {
        self.fitted
            .sensors()
            .iter()
            .map(|&local| self.candidate_rows[local])
            .collect()
    }
}

/// The paper's per-core deployment: sensors are *selected* independently
/// per core (the granularity its tables report), but the final prediction
/// model is the paper's Eq. 17 refit — one whole-chip OLS of **all**
/// critical nodes on **all** placed sensors, so every block benefits from
/// every sensor.
#[derive(Debug, Clone)]
pub struct PerCoreModel {
    fits: Vec<PerCoreFit>,
    global_model: VoltageMapModel,
    num_candidates: usize,
    emergency_threshold: f64,
}

impl PerCoreModel {
    /// Fits one methodology per core on the given dataset: the one-budget
    /// case of [`PerCoreModel::fit_sweep`].
    ///
    /// # Errors
    ///
    /// Propagates per-core fit failures (wrapped in
    /// [`ScenarioError::Inconsistent`] with the failing core named).
    pub fn fit(
        data: &ScenarioData,
        partition: &CorePartition,
        config: &MethodologyConfig,
    ) -> Result<Self, ScenarioError> {
        let mut models = Self::fit_sweep(data, partition, &[config.lambda], config)?;
        Ok(models.remove(0))
    }

    /// Fits one methodology per core with a *target sensor count per
    /// core* instead of a budget (the paper's "2 sensors per core" setup):
    /// each core's λ is bisected until the core selects `q_per_core`
    /// sensors (or the closest achievable count).
    ///
    /// # Errors
    ///
    /// Propagates per-core fit failures.
    pub fn fit_with_sensor_count(
        data: &ScenarioData,
        partition: &CorePartition,
        q_per_core: usize,
        config: &MethodologyConfig,
    ) -> Result<Self, ScenarioError> {
        let mut models = Self::fit_with_sensor_count_sweep(data, partition, &[q_per_core], config)?;
        Ok(models.remove(0))
    }

    /// Fits one model per budget in `lambdas` (the paper's Table 1 sweep)
    /// with **one** warm-started homotopy per core: each core reduces its
    /// covariance form once and chains every budget bisection through it,
    /// instead of refitting from cold per λ.
    ///
    /// Returns one [`PerCoreModel`] per budget, in the caller's order.
    ///
    /// # Errors
    ///
    /// Propagates per-core fit failures (with the failing core named),
    /// including the rejection of an empty `lambdas`.
    pub fn fit_sweep(
        data: &ScenarioData,
        partition: &CorePartition,
        lambdas: &[f64],
        config: &MethodologyConfig,
    ) -> Result<Vec<Self>, ScenarioError> {
        Self::fit_each_core(data, partition, config, lambdas.len(), |sub| {
            Methodology::fit_sweep(&sub.x, &sub.f, lambdas, config)
        })
    }

    /// Fits one model per target sensor count in `qs` ("2 sensors per
    /// core", "7 per core", …) with one warm-started homotopy per core.
    ///
    /// Returns one [`PerCoreModel`] per count, in the caller's order.
    ///
    /// # Errors
    ///
    /// Propagates per-core fit failures, including the rejection of an
    /// empty `qs`.
    pub fn fit_with_sensor_count_sweep(
        data: &ScenarioData,
        partition: &CorePartition,
        qs: &[usize],
        config: &MethodologyConfig,
    ) -> Result<Vec<Self>, ScenarioError> {
        Self::fit_each_core(data, partition, config, qs.len(), |sub| {
            Methodology::fit_with_sensor_count_sweep(&sub.x, &sub.f, qs, config)
        })
    }

    /// The one per-core loop behind every fit: `fit_core` produces a
    /// core's whole sweep column on one warm chain, and the columns are
    /// regrouped into one model per sweep point.
    fn fit_each_core(
        data: &ScenarioData,
        partition: &CorePartition,
        config: &MethodologyConfig,
        num_points: usize,
        fit_core: impl Fn(&ScenarioData) -> Result<Vec<FittedMethodology>, CoreError>,
    ) -> Result<Vec<Self>, ScenarioError> {
        let mut per_core: Vec<Vec<FittedMethodology>> = Vec::with_capacity(partition.num_cores());
        for c in 0..partition.num_cores() {
            let core = CoreId(c);
            let sub = data.restrict(partition.candidates_of(core), partition.blocks_of(core));
            let fitted = fit_core(&sub).map_err(|e| ScenarioError::Inconsistent {
                what: format!("fit failed for core {c}: {e}"),
            })?;
            per_core.push(fitted);
        }
        Self::bucket_sweep(data, partition, config, per_core, num_points)
    }

    /// Regroups per-core sweep columns (`per_core[core][point]`) into one
    /// [`PerCoreModel`] per sweep point, each with its Eq. 17 global refit.
    fn bucket_sweep(
        data: &ScenarioData,
        partition: &CorePartition,
        config: &MethodologyConfig,
        mut per_core: Vec<Vec<FittedMethodology>>,
        num_points: usize,
    ) -> Result<Vec<Self>, ScenarioError> {
        let mut models = Vec::with_capacity(num_points);
        // Drain back-to-front per core so each point's fits move out
        // without cloning the coefficient matrices.
        for point in (0..num_points).rev() {
            let mut fits = Vec::with_capacity(per_core.len());
            for (c, column) in per_core.iter_mut().enumerate() {
                let core = CoreId(c);
                fits.push(PerCoreFit {
                    core,
                    fitted: column.remove(point),
                    candidate_rows: partition.candidates_of(core).to_vec(),
                    block_rows: partition.blocks_of(core).to_vec(),
                });
            }
            let global_model = Self::global_refit(data, &fits)?;
            models.push(PerCoreModel {
                fits,
                global_model,
                num_candidates: data.num_candidates(),
                emergency_threshold: config.emergency_threshold,
            });
        }
        models.reverse();
        Ok(models)
    }

    /// The paper's Eq. 17: OLS of all critical nodes on the union of the
    /// placed sensors.
    fn global_refit(
        data: &ScenarioData,
        fits: &[PerCoreFit],
    ) -> Result<VoltageMapModel, ScenarioError> {
        let mut sensors: Vec<usize> = fits.iter().flat_map(|f| f.sensors_global()).collect();
        sensors.sort_unstable();
        sensors.dedup();
        VoltageMapModel::fit(&data.x, &data.f, &sensors).map_err(|e| {
            ScenarioError::Inconsistent {
                what: format!("global OLS refit failed: {e}"),
            }
        })
    }

    /// The whole-chip prediction model (Eq. 17 refit over all sensors).
    pub fn global_model(&self) -> &VoltageMapModel {
        &self.global_model
    }

    /// The per-core fits.
    pub fn fits(&self) -> &[PerCoreFit] {
        &self.fits
    }

    /// Total placed sensors across all cores.
    pub fn total_sensors(&self) -> usize {
        self.fits.iter().map(|f| f.fitted.sensors().len()).sum()
    }

    /// All placed sensors as global candidate rows, ascending.
    pub fn sensors_global(&self) -> Vec<usize> {
        let mut all: Vec<usize> = self
            .fits
            .iter()
            .flat_map(|f| f.sensors_global())
            .collect();
        all.sort_unstable();
        all
    }

    /// Predicts the whole-chip critical-voltage matrix (`K x N`, rows in
    /// global block order) from a whole-chip candidate matrix.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] if `x` does not have the
    /// whole-chip candidate rows.
    pub fn predict_matrix(&self, x: &Matrix) -> Result<Matrix, CoreError> {
        if x.rows() != self.num_candidates {
            return Err(CoreError::ShapeMismatch {
                what: format!(
                    "X has {} rows, model was fitted over {} candidates",
                    x.rows(),
                    self.num_candidates
                ),
            });
        }
        self.global_model.predict_matrix(x)
    }

    /// Emergency alarms per sample: any predicted critical voltage below
    /// the fitted emergency threshold.
    ///
    /// # Errors
    ///
    /// Same as [`PerCoreModel::predict_matrix`].
    pub fn detect_matrix(&self, x: &Matrix) -> Result<Vec<bool>, CoreError> {
        let pred = self.predict_matrix(x)?;
        Ok((0..pred.cols())
            .map(|s| (0..pred.rows()).any(|k| pred[(k, s)] < self.emergency_threshold))
            .collect())
    }

    /// Whole-chip evaluation on held-out data: aggregated relative error
    /// plus detection rates.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn evaluate(&self, test: &ScenarioData) -> Result<EvaluationReport, CoreError> {
        let predicted = self.predict_matrix(&test.x)?;
        let relative_error = metrics::relative_error(&predicted, &test.f)?;
        let rms_error = metrics::rms_error(&predicted, &test.f)?;
        let max_abs_error = metrics::max_abs_error(&predicted, &test.f)?;
        let truth = detection::ground_truth(&test.f, self.emergency_threshold);
        let alarms = self.detect_matrix(&test.x)?;
        let det = detection::evaluate(&truth, &alarms)?;
        Ok(EvaluationReport {
            relative_error,
            rms_error,
            max_abs_error,
            detection: det,
        })
    }

    /// The emergency threshold used for detection.
    pub fn emergency_threshold(&self) -> f64 {
        self.emergency_threshold
    }
}
