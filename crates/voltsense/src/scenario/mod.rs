//! Experiment scenarios: the glue that turns the substrate crates into the
//! paper's data-collection pipeline (its experiment steps 1–4).
//!
//! A [`Scenario`] owns a chip floorplan, a power-grid model and the
//! benchmark suite. [`Scenario::collect`] simulates benchmarks and
//! assembles the `(X, F)` training matrices; [`ScenarioData::split`]
//! produces deterministic train/test partitions; `percore` fits the
//! methodology independently per core (the granularity the paper reports).

mod data;
mod percore;

pub use data::{CollectOptions, ScenarioData, SensorSites};
pub use percore::{CorePartition, PerCoreFit, PerCoreModel};

use std::error::Error;
use std::fmt;

use voltsense_floorplan::{ChipConfig, ChipFloorplan, FloorplanError, NodeId};
use voltsense_parallel as parallel;
use voltsense_powergrid::{
    sample_benchmark, GridConfig, GridModel, PowerGridError, SampleConfig, SampledMaps,
};
use voltsense_workload::{parsec_like_suite, Benchmark, TraceConfig, WorkloadError, WorkloadTrace};

/// Error type for scenario assembly.
#[derive(Debug)]
#[non_exhaustive]
pub enum ScenarioError {
    /// Floorplan construction failed.
    Floorplan(FloorplanError),
    /// Trace generation failed.
    Workload(WorkloadError),
    /// Grid modelling or simulation failed.
    PowerGrid(PowerGridError),
    /// A benchmark index was out of range.
    UnknownBenchmark {
        /// The offending index.
        index: usize,
        /// Suite size.
        available: usize,
    },
    /// Collected datasets could not be combined.
    Inconsistent {
        /// Human-readable description.
        what: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Floorplan(e) => write!(f, "floorplan failed: {e}"),
            ScenarioError::Workload(e) => write!(f, "workload failed: {e}"),
            ScenarioError::PowerGrid(e) => write!(f, "power grid failed: {e}"),
            ScenarioError::UnknownBenchmark { index, available } => {
                write!(f, "benchmark index {index} out of range ({available} available)")
            }
            ScenarioError::Inconsistent { what } => write!(f, "inconsistent data: {what}"),
        }
    }
}

impl Error for ScenarioError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScenarioError::Floorplan(e) => Some(e),
            ScenarioError::Workload(e) => Some(e),
            ScenarioError::PowerGrid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FloorplanError> for ScenarioError {
    fn from(e: FloorplanError) -> Self {
        ScenarioError::Floorplan(e)
    }
}

impl From<WorkloadError> for ScenarioError {
    fn from(e: WorkloadError) -> Self {
        ScenarioError::Workload(e)
    }
}

impl From<PowerGridError> for ScenarioError {
    fn from(e: PowerGridError) -> Self {
        ScenarioError::PowerGrid(e)
    }
}

/// A complete experiment setup: chip + grid + suite + sampling cadence.
#[derive(Debug, Clone)]
pub struct Scenario {
    chip: ChipFloorplan,
    grid: GridModel,
    suite: Vec<Benchmark>,
    trace_config: TraceConfig,
    sample_config: SampleConfig,
}

impl Scenario {
    /// Test-scale scenario: 2-core chip, short traces (~115 maps per
    /// benchmark). Runs in seconds even in debug builds.
    ///
    /// # Errors
    ///
    /// Propagates construction failures (none expected for the built-in
    /// configs).
    pub fn small() -> Result<Self, ScenarioError> {
        Scenario::with_configs(
            &ChipConfig::small_test(),
            &GridConfig::small_test(),
            TraceConfig {
                duration_ns: 1000.0,
                ..TraceConfig::default()
            },
            SampleConfig {
                warmup_steps: 200,
                sample_every: 7,
                max_samples: None,
            },
        )
    }

    /// Paper-scale scenario: the 8-core Xeon-E5-like chip; 19 benchmarks ×
    /// ~527 maps ≈ 10,000 voltage maps, matching the paper's experiment
    /// setup. Use release builds.
    ///
    /// # Errors
    ///
    /// Propagates construction failures (none expected for the built-in
    /// configs).
    pub fn paper_scale() -> Result<Self, ScenarioError> {
        Scenario::with_configs(
            &ChipConfig::xeon_e5_like(),
            &GridConfig::default(),
            TraceConfig {
                // warmup 200 + 527 samples * every 7 steps
                duration_ns: 200.0 + 527.0 * 7.0,
                ..TraceConfig::default()
            },
            SampleConfig {
                warmup_steps: 200,
                sample_every: 7,
                max_samples: Some(527),
            },
        )
    }

    /// Fully custom scenario.
    ///
    /// # Errors
    ///
    /// Propagates floorplan/grid construction failures.
    pub fn with_configs(
        chip_config: &ChipConfig,
        grid_config: &GridConfig,
        trace_config: TraceConfig,
        sample_config: SampleConfig,
    ) -> Result<Self, ScenarioError> {
        let chip = ChipFloorplan::new(chip_config)?;
        let grid = GridModel::build(&chip, grid_config)?;
        Ok(Scenario {
            chip,
            grid,
            suite: parsec_like_suite(),
            trace_config,
            sample_config,
        })
    }

    /// The chip floorplan.
    pub fn chip(&self) -> &ChipFloorplan {
        &self.chip
    }

    /// The power-grid model.
    pub fn grid(&self) -> &GridModel {
        &self.grid
    }

    /// The benchmark suite (19 PARSEC-like benchmarks).
    pub fn suite(&self) -> &[Benchmark] {
        &self.suite
    }

    /// Trace-generation configuration.
    pub fn trace_config(&self) -> &TraceConfig {
        &self.trace_config
    }

    /// Sampling configuration.
    pub fn sample_config(&self) -> &SampleConfig {
        &self.sample_config
    }

    /// Simulates one benchmark and returns its raw voltage maps.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::UnknownBenchmark`] for a bad index and
    /// propagates simulation failures.
    pub fn simulate(&self, benchmark: usize) -> Result<SampledMaps, ScenarioError> {
        let bm = self
            .suite
            .get(benchmark)
            .ok_or(ScenarioError::UnknownBenchmark {
                index: benchmark,
                available: self.suite.len(),
            })?;
        let trace = WorkloadTrace::generate(bm, self.chip.blocks(), &self.trace_config)?;
        Ok(sample_benchmark(&self.grid, &trace, &self.sample_config)?)
    }

    /// Simulates one benchmark *at every timestep* over a window — for
    /// voltage-trace figures (paper Fig. 2).
    ///
    /// # Errors
    ///
    /// Same as [`Scenario::simulate`].
    pub fn simulate_trace_window(
        &self,
        benchmark: usize,
        window_steps: usize,
    ) -> Result<SampledMaps, ScenarioError> {
        let bm = self
            .suite
            .get(benchmark)
            .ok_or(ScenarioError::UnknownBenchmark {
                index: benchmark,
                available: self.suite.len(),
            })?;
        let trace = WorkloadTrace::generate(bm, self.chip.blocks(), &self.trace_config)?;
        let cfg = SampleConfig {
            warmup_steps: self.sample_config.warmup_steps,
            sample_every: 1,
            max_samples: Some(window_steps),
        };
        Ok(sample_benchmark(&self.grid, &trace, &cfg)?)
    }

    /// Simulates the given benchmarks (indices into [`Scenario::suite`])
    /// and assembles the combined `(X, F)` dataset. Critical nodes are
    /// chosen from the worst observed noise across *all* collected
    /// benchmarks, matching the paper's "worst noise during a sampling
    /// simulation period".
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; fails on an empty benchmark list.
    pub fn collect(&self, benchmarks: &[usize]) -> Result<ScenarioData, ScenarioError> {
        self.collect_with(benchmarks, &CollectOptions::default())
    }

    /// As [`Scenario::collect`] with explicit assembly options: multiple
    /// noise-critical representatives per block (a paper extension its
    /// Section 2.1 mentions) and/or function-area sensor sites (its
    /// Section 3.2 closing remark).
    ///
    /// # Errors
    ///
    /// Same as [`Scenario::collect`].
    pub fn collect_with(
        &self,
        benchmarks: &[usize],
        options: &CollectOptions,
    ) -> Result<ScenarioData, ScenarioError> {
        // Each benchmark is an independent transient simulation, so the
        // collection fans out across threads; the ordered collect keeps
        // the benchmark order (and the first error) deterministic.
        let maps: Vec<(usize, SampledMaps)> =
            parallel::par_map(benchmarks, |&b| self.simulate(b).map(|m| (b, m)))
                .into_iter()
                .collect::<Result<_, _>>()?;
        ScenarioData::assemble_with(&self.chip, &maps, options)
    }

    /// All candidate node ids (blank-area sites), in `X`-row order.
    pub fn candidate_nodes(&self) -> &[NodeId] {
        self.chip.lattice().candidate_sites()
    }
}
