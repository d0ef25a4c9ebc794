//! The design path: simulate BM1..BM19, assemble `(X, F)`, select sensors
//! per core, refit, place the Eagle-Eye baseline and score Table 2.
//!
//! The operation exists twice. The untraced form calls the production
//! entry points (`Scenario`-style collection, `PerCoreModel`). The traced
//! form makes the same public calls one at a time, in the order those
//! entry points compose them, and times each from outside. Both must
//! produce identical outputs.

use std::time::Instant;

use voltsense::core::detection::{self, DetectionOutcome};
use voltsense::core::{MethodologyConfig, SelectionProblem, VoltageMapModel};
use voltsense::eagleeye::{EagleEyeConfig, EagleEyePlacement};
use voltsense::floorplan::CoreId;
use voltsense::linalg::Matrix;
use voltsense::scenario::{CorePartition, PerCoreModel, ScenarioData};

use crate::inputs::{Scene, SimTiming};
use crate::stats::{self, Budget, Stage};

/// Sensors per core in the Table 2 comparison.
pub const SENSORS_PER_CORE: usize = 2;

/// Table 2 at the default seed, as `table2_error_rates` prints it.
pub const DEFAULT_TABLE2: [&str; 19] = [
    "BM1       0.1429         0    0.0341 |    0.2381    0.0075    0.0625       42",
    "BM2       0.3875         0    0.1761 |    0.2625    0.0104    0.1250       80",
    "BM3            0         0         0 |         0         0         0        0",
    "BM4       0.4667         0    0.0398 |    0.4667         0    0.0398       15",
    "BM5       0.1443         0    0.0795 |    0.1340    0.0253    0.0852       97",
    "BM6       1.0000         0    0.0057 |         0         0         0        1",
    "BM7       0.1695         0    0.1136 |    0.1271    0.0345    0.0966      118",
    "BM8       0.2609         0    0.0341 |    0.3043         0    0.0398       23",
    "BM9       0.4167         0    0.0571 |    0.2500    0.0265    0.0571       24",
    "BM10      0.6250         0    0.0568 |    0.3750    0.0125    0.0455       16",
    "BM11      0.3469         0    0.0966 |    0.1633    0.0157    0.0568       49",
    "BM12      0.4750         0    0.1086 |    0.1250    0.0296    0.0514       40",
    "BM13      0.5556         0    0.1705 |    0.1481    0.0328    0.0682       54",
    "BM14      0.4545         0    0.1136 |    0.2500    0.0152    0.0739       44",
    "BM15      0.2979         0    0.1600 |    0.1277    0.0247    0.0800       94",
    "BM16      0.4839         0    0.0852 |    0.4516    0.0207    0.0966       31",
    "BM17      0.4340         0    0.1307 |    0.1509    0.0081    0.0511       53",
    "BM18      0.3333         0    0.0343 |    0.1111    0.0318    0.0400       18",
    "BM19      0.2125         0    0.0966 |    0.1750    0.0104    0.0852       80",
];
/// The mean row of that table.
pub const DEFAULT_TABLE2_MEAN: &str =
    "mean      0.4004         0    0.0885 |    0.2145    0.0170    0.0642";

/// The proposed placement at the default seed (global candidate rows).
pub const DEFAULT_SENSORS: [usize; 16] = [
    63, 286, 291, 296, 315, 349, 493, 527, 848, 853, 863, 944, 961, 978, 979, 995,
];

/// One design-path result: both placements and the Table 2 rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// Voltage maps the pass simulated.
    pub maps: usize,
    /// Proposed sensors, global candidate rows, ascending.
    pub proposed: Vec<usize>,
    /// Eagle-Eye sensors.
    pub eagle: Vec<usize>,
    /// `(benchmark, eagle-eye, proposed)` for every benchmark with test
    /// samples.
    pub rows: Vec<(usize, DetectionOutcome, DetectionOutcome)>,
}

fn fmt_rate(r: f64) -> String {
    if r == 0.0 {
        "0".to_string()
    } else {
        format!("{r:.4}")
    }
}

impl Table2 {
    /// The rows formatted exactly as `table2_error_rates` prints them.
    pub fn lines(&self) -> Vec<String> {
        self.rows
            .iter()
            .map(|(bm, e, p)| {
                format!(
                    "BM{:<4} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}   {:>6}",
                    bm + 1,
                    fmt_rate(e.miss_rate),
                    fmt_rate(e.wrong_alarm_rate),
                    fmt_rate(e.total_error_rate),
                    fmt_rate(p.miss_rate),
                    fmt_rate(p.wrong_alarm_rate),
                    fmt_rate(p.total_error_rate),
                    e.emergencies,
                )
            })
            .collect()
    }

    /// The mean row over emergency-bearing benchmarks, formatted likewise.
    pub fn mean_line(&self) -> String {
        let bearing: Vec<_> = self
            .rows
            .iter()
            .filter(|(_, e, _)| e.emergencies > 0)
            .collect();
        let n = bearing.len().max(1) as f64;
        let mean = |sel: fn(&DetectionOutcome) -> f64, proposed: bool| {
            bearing
                .iter()
                .map(|(_, e, p)| if proposed { sel(p) } else { sel(e) })
                .sum::<f64>()
                / n
        };
        format!(
            "mean   {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
            fmt_rate(mean(|o| o.miss_rate, false)),
            fmt_rate(mean(|o| o.wrong_alarm_rate, false)),
            fmt_rate(mean(|o| o.total_error_rate, false)),
            fmt_rate(mean(|o| o.miss_rate, true)),
            fmt_rate(mean(|o| o.wrong_alarm_rate, true)),
            fmt_rate(mean(|o| o.total_error_rate, true)),
        )
    }

    /// Checks the result against the repository's Table 2 (default seed
    /// only); returns what differs.
    pub fn check_default(&self) -> Result<(), String> {
        if self.proposed != DEFAULT_SENSORS {
            return Err(format!(
                "proposed sensors {:?} != {:?}",
                self.proposed, DEFAULT_SENSORS
            ));
        }
        let lines = self.lines();
        if lines != DEFAULT_TABLE2 {
            return Err(format!("Table 2 rows differ:\n{}", lines.join("\n")));
        }
        if self.mean_line() != DEFAULT_TABLE2_MEAN {
            return Err(format!("Table 2 mean differs: {}", self.mean_line()));
        }
        Ok(())
    }
}

fn scenario_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Scores Table 2 on the held-out maps, one benchmark at a time. The
/// detectors are passed in so the traced run can time them.
fn score(
    test: &ScenarioData,
    threshold: f64,
    mut proposed: impl FnMut(&Matrix) -> Result<Vec<bool>, String>,
    mut eagle: impl FnMut(&Matrix) -> Result<Vec<bool>, String>,
    mut timed: impl FnMut(f64),
) -> Result<Vec<(usize, DetectionOutcome, DetectionOutcome)>, String> {
    let mut rows = Vec::new();
    for bm in 0..crate::NUM_BENCHMARKS {
        let sub = test.benchmark_subset(bm);
        if sub.num_samples() == 0 {
            continue;
        }
        let t = Instant::now();
        let truth = detection::ground_truth(&sub.f, threshold);
        let e = detection::evaluate(&truth, &eagle(&sub.x)?).map_err(scenario_err)?;
        let p = detection::evaluate(&truth, &proposed(&sub.x)?).map_err(scenario_err)?;
        timed(t.elapsed().as_secs_f64() * 1e3);
        rows.push((bm, e, p));
    }
    Ok(rows)
}

/// One untraced design-path pass through the production entry points.
pub fn paper_op(scene: &Scene) -> Result<Table2, String> {
    let config = MethodologyConfig::default();
    let data = scene.collect()?;
    let (train, test) = data.split(3);
    let partition = CorePartition::from_chip(&scene.chip);
    let proposed =
        PerCoreModel::fit_with_sensor_count(&train, &partition, SENSORS_PER_CORE, &config)
            .map_err(scenario_err)?;
    let eagle = EagleEyePlacement::place(
        &train.x,
        &train.f,
        proposed.total_sensors(),
        &EagleEyeConfig::default(),
    )
    .map_err(scenario_err)?;
    let rows = score(
        &test,
        config.emergency_threshold,
        |x| proposed.detect_matrix(x).map_err(scenario_err),
        |x| eagle.detect_matrix(x).map_err(scenario_err),
        |_| {},
    )?;
    Ok(Table2 {
        maps: data.num_samples(),
        proposed: proposed.sensors_global(),
        eagle: eagle.selected().to_vec(),
        rows,
    })
}

/// Layer times of one traced design operation (ms unless named).
#[derive(Debug, Clone, Default)]
pub struct DesignLayers {
    /// Per-benchmark simulation timings.
    pub sims: Vec<SimTiming>,
    /// Wall time of the parallel simulation region.
    pub simulate_wall_ms: f64,
    /// `ScenarioData::assemble`.
    pub assemble_ms: f64,
    /// `SelectionProblem::new`, summed over cores.
    pub covariance_ms: f64,
    /// Group-lasso selections, summed over cores and budgets.
    pub select_ms: f64,
    /// Penalized GL solves those selections ran.
    pub solves: usize,
    /// Per-core and global `VoltageMapModel::fit`.
    pub ols_ms: f64,
    /// `EagleEyePlacement::place`.
    pub eagle_ms: f64,
    /// Table 2 scoring (both detectors plus `detection::evaluate`).
    pub detect_ms: f64,
    /// Wall time of the whole operation.
    pub total_ms: f64,
}

impl DesignLayers {
    /// Median `WorkloadTrace::generate` per benchmark, ms.
    pub fn generate_ms(&self) -> f64 {
        stats::median(
            &self
                .sims
                .iter()
                .map(|s| s.generate_ns / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    /// Median `sample_benchmark` per benchmark, ms.
    pub fn sample_ms(&self) -> f64 {
        stats::median(
            &self
                .sims
                .iter()
                .map(|s| s.sample_ns / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    /// Median time per transient step, µs.
    pub fn step_us(&self) -> f64 {
        stats::median(
            &self
                .sims
                .iter()
                .map(|s| s.sample_ns / 1e3 / s.steps.max(1) as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// The operation's wall time split into layer shares plus the
    /// `design.unattributed_ms` residual. Work inside the parallel
    /// simulation region counts as busy time over the pool width.
    pub fn budget(&self, pool_width: usize) -> Budget {
        let busy = |f: fn(&SimTiming) -> f64| self.sims.iter().map(f).sum::<f64>() / 1e6;
        let generate = stats::wall_share(busy(|s| s.generate_ns), pool_width);
        let sample = stats::wall_share(busy(|s| s.sample_ns), pool_width);
        Budget::new(
            self.total_ms,
            vec![
                Stage {
                    name: "workload.generate",
                    value: generate,
                },
                Stage {
                    name: "powergrid.sample",
                    value: sample,
                },
                // Wall time of the simulation region its workers did not
                // fill: the last benchmarks running on fewer threads. Busy
                // time that overshoots the region shows as a negative
                // stage, which fails reconciliation.
                Stage {
                    name: "parallel.imbalance",
                    value: self.simulate_wall_ms - generate - sample,
                },
                Stage {
                    name: "scenario.assemble",
                    value: self.assemble_ms,
                },
                Stage {
                    name: "core.covariance",
                    value: self.covariance_ms,
                },
                Stage {
                    name: "grouplasso.select",
                    value: self.select_ms,
                },
                Stage {
                    name: "core.ols_fit",
                    value: self.ols_ms,
                },
                Stage {
                    name: "eagleeye.place",
                    value: self.eagle_ms,
                },
                Stage {
                    name: "core.detect",
                    value: self.detect_ms,
                },
            ],
        )
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Per-core inputs of a selection: the restricted dataset and its global
/// candidate rows.
fn core_subsets(
    train: &ScenarioData,
    partition: &CorePartition,
) -> Vec<(ScenarioData, Vec<usize>)> {
    (0..partition.num_cores())
        .map(|c| {
            let cand = partition.candidates_of(CoreId(c)).to_vec();
            (train.restrict(&cand, partition.blocks_of(CoreId(c))), cand)
        })
        .collect()
}

/// The traced twin of [`paper_op`]: `PerCoreModel::fit_with_sensor_count`
/// and `Scene::collect` unrolled into their public calls.
pub fn paper_op_traced(scene: &Scene) -> Result<(Table2, DesignLayers), String> {
    let start = Instant::now();
    let config = MethodologyConfig::default();
    let mut layers = DesignLayers::default();

    let t = Instant::now();
    let (maps, sims) = scene.simulate_timed()?;
    layers.simulate_wall_ms = ms_since(t);
    layers.sims = sims;
    let t = Instant::now();
    let data = ScenarioData::assemble(&scene.chip, &maps).map_err(scenario_err)?;
    layers.assemble_ms = ms_since(t);
    drop(maps);

    let (train, test) = data.split(3);
    let partition = CorePartition::from_chip(&scene.chip);
    let mut sensors = Vec::new();
    for (sub, cand) in core_subsets(&train, &partition) {
        let t = Instant::now();
        let prepared = SelectionProblem::new(&sub.x, &sub.f).map_err(scenario_err)?;
        layers.covariance_ms += ms_since(t);
        let t = Instant::now();
        let mut homotopy = prepared
            .homotopy(config.gl_options.clone())
            .map_err(scenario_err)?;
        let selection = homotopy
            .select_with_count(SENSORS_PER_CORE, config.threshold)
            .map_err(scenario_err)?;
        layers.select_ms += ms_since(t);
        layers.solves += homotopy.num_solves();
        let t = Instant::now();
        VoltageMapModel::fit(&sub.x, &sub.f, &selection.selected).map_err(scenario_err)?;
        layers.ols_ms += ms_since(t);
        sensors.extend(selection.selected.iter().map(|&local| cand[local]));
    }
    let q_total = sensors.len();
    sensors.sort_unstable();
    sensors.dedup();
    let t = Instant::now();
    let global = VoltageMapModel::fit(&train.x, &train.f, &sensors).map_err(scenario_err)?;
    layers.ols_ms += ms_since(t);

    let t = Instant::now();
    let eagle = EagleEyePlacement::place(&train.x, &train.f, q_total, &EagleEyeConfig::default())
        .map_err(scenario_err)?;
    layers.eagle_ms = ms_since(t);

    let threshold = config.emergency_threshold;
    let rows = score(
        &test,
        threshold,
        |x| global.detect_matrix(x, threshold).map_err(scenario_err),
        |x| eagle.detect_matrix(x).map_err(scenario_err),
        |ms| layers.detect_ms += ms,
    )?;
    layers.total_ms = ms_since(start);
    Ok((
        Table2 {
            maps: data.num_samples(),
            proposed: sensors,
            eagle: eagle.selected().to_vec(),
            rows,
        },
        layers,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_budget_counts_parallel_busy_time_over_the_pool_width() {
        let sim = |generate_ms: f64, sample_ms: f64| SimTiming {
            generate_ns: generate_ms * 1e6,
            sample_ns: sample_ms * 1e6,
            steps: 1000,
        };
        let layers = DesignLayers {
            sims: vec![sim(20.0, 400.0), sim(30.0, 600.0)],
            simulate_wall_ms: 600.0,
            assemble_ms: 80.0,
            covariance_ms: 40.0,
            select_ms: 10.0,
            solves: 12,
            ols_ms: 5.0,
            eagle_ms: 3.0,
            detect_ms: 2.0,
            total_ms: 1000.0,
        };
        let b = layers.budget(2);
        let stage = |name: &str| b.stages.iter().find(|s| s.name == name).unwrap().value;
        assert_eq!(stage("workload.generate"), 25.0);
        assert_eq!(stage("powergrid.sample"), 500.0);
        // The region took 600 ms of wall time for 525 ms of shares.
        assert_eq!(stage("parallel.imbalance"), 75.0);
        // 1000 - (25 + 500 + 75 + 80 + 40 + 10 + 5 + 3 + 2)
        assert_eq!(b.residual, 260.0);
        assert!(b.reconciles());
        assert_eq!(layers.generate_ms(), 20.0);
        assert_eq!(layers.sample_ms(), 400.0);
        assert_eq!(layers.step_us(), 400.0);
        // Busy time counted at the wrong pool width overshoots the
        // region's wall time and must not reconcile.
        assert!(!layers.budget(1).reconciles());
    }
}
