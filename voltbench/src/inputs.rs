//! Seeded inputs: the benchmark suite, the chip it runs on, and the
//! simulated voltage maps.
//!
//! The seed re-seeds the 19 workload profiles through the public
//! [`Benchmark`] type; everything downstream (traces, maps, fits, serve
//! readings) is a pure function of it. Seed 0 reproduces
//! `parsec_like_suite()` and therefore the repository's Table 1/Table 2.

use std::time::Instant;

use voltsense::floorplan::{ChipConfig, ChipFloorplan};
use voltsense::parallel;
use voltsense::powergrid::{sample_benchmark, GridConfig, GridModel, SampleConfig, SampledMaps};
use voltsense::scenario::ScenarioData;
use voltsense::workload::{parsec_like_suite, Benchmark, TraceConfig, WorkloadTrace};

/// The seed that reproduces the repository's own experiments.
pub const DEFAULT_SEED: u64 = 0;

/// The 19-benchmark suite with every profile seed shifted by `seed`.
pub fn suite(seed: u64) -> Vec<Benchmark> {
    parsec_like_suite()
        .into_iter()
        .map(|b| {
            let mut profile = b.profile().clone();
            profile.seed = profile
                .seed
                .wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            Benchmark::new(b.id(), b.name(), profile)
        })
        .collect()
}

/// Chip, grid, cadence and suite: the pieces `Scenario` composes, built
/// from public calls so the suite can be re-seeded.
pub struct Scene {
    /// The chip floorplan.
    pub chip: ChipFloorplan,
    /// The power-grid model.
    pub grid: GridModel,
    /// Trace length and step.
    pub trace: TraceConfig,
    /// Snapshot cadence.
    pub sample: SampleConfig,
    /// The seeded benchmarks.
    pub suite: Vec<Benchmark>,
}

/// Per-benchmark timings of one traced collection.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTiming {
    /// `WorkloadTrace::generate`, ns.
    pub generate_ns: f64,
    /// `sample_benchmark`, ns.
    pub sample_ns: f64,
    /// Transient steps the trace spans.
    pub steps: usize,
}

/// Maps per benchmark, in benchmark order, with their simulation timings.
pub type TimedMaps = (Vec<(usize, SampledMaps)>, Vec<SimTiming>);

impl Scene {
    /// The paper-scale scene (the configuration of `Scenario::paper_scale`).
    pub fn paper(seed: u64) -> Result<Scene, String> {
        Scene::build(
            &ChipConfig::xeon_e5_like(),
            &GridConfig::default(),
            TraceConfig {
                duration_ns: 200.0 + 527.0 * 7.0,
                ..TraceConfig::default()
            },
            SampleConfig {
                warmup_steps: 200,
                sample_every: 7,
                max_samples: Some(527),
            },
            seed,
        )
    }

    /// The 2-core test scene (the configuration of `Scenario::small`).
    #[cfg(test)]
    pub fn small(seed: u64) -> Result<Scene, String> {
        Scene::build(
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
            seed,
        )
    }

    fn build(
        chip: &ChipConfig,
        grid: &GridConfig,
        trace: TraceConfig,
        sample: SampleConfig,
        seed: u64,
    ) -> Result<Scene, String> {
        let chip = ChipFloorplan::new(chip).map_err(|e| format!("floorplan: {e}"))?;
        let grid = GridModel::build(&chip, grid).map_err(|e| format!("grid: {e}"))?;
        Ok(Scene {
            chip,
            grid,
            trace,
            sample,
            suite: suite(seed),
        })
    }

    /// The current trace of one benchmark.
    pub fn generate(&self, bm: usize) -> Result<WorkloadTrace, String> {
        WorkloadTrace::generate(&self.suite[bm], self.chip.blocks(), &self.trace)
            .map_err(|e| format!("trace BM{}: {e}", bm + 1))
    }

    /// Transient simulation of one trace.
    pub fn sample(&self, trace: &WorkloadTrace) -> Result<SampledMaps, String> {
        sample_benchmark(&self.grid, trace, &self.sample).map_err(|e| format!("simulation: {e}"))
    }

    /// Simulates every benchmark on the pool and assembles `(X, F)` — the
    /// composition of `Scenario::collect`.
    pub fn collect(&self) -> Result<ScenarioData, String> {
        let all: Vec<usize> = (0..self.suite.len()).collect();
        let maps: Vec<(usize, SampledMaps)> = parallel::par_map(&all, |&b| {
            let trace = self.generate(b)?;
            Ok((b, self.sample(&trace)?))
        })
        .into_iter()
        .collect::<Result<_, String>>()?;
        ScenarioData::assemble(&self.chip, &maps).map_err(|e| format!("assemble: {e}"))
    }

    /// [`Scene::collect`]'s simulation half with each call timed: returns
    /// the maps in benchmark order and one timing per benchmark.
    pub fn simulate_timed(&self) -> Result<TimedMaps, String> {
        let all: Vec<usize> = (0..self.suite.len()).collect();
        let timed: Vec<((usize, SampledMaps), SimTiming)> = parallel::par_map(&all, |&b| {
            let t0 = Instant::now();
            let trace = self.generate(b)?;
            let t1 = Instant::now();
            let maps = self.sample(&trace)?;
            let t2 = Instant::now();
            let timing = SimTiming {
                generate_ns: (t1 - t0).as_nanos() as f64,
                sample_ns: (t2 - t1).as_nanos() as f64,
                steps: trace.num_steps(),
            };
            Ok(((b, maps), timing))
        })
        .into_iter()
        .collect::<Result<_, String>>()?;
        Ok(timed.into_iter().unzip())
    }
}

/// FNV-1a over the bit patterns of a float slice: a cheap digest for
/// "byte-identical" comparisons of matrices.
#[cfg(test)]
fn digest(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_the_stock_suite() {
        assert_eq!(suite(DEFAULT_SEED), parsec_like_suite());
        let other = suite(7);
        assert_ne!(other, parsec_like_suite());
        // Only the seeds move; the behavioural knobs stay the paper's.
        for (a, b) in other.iter().zip(parsec_like_suite()) {
            assert_eq!(a.profile().group_bias, b.profile().group_bias);
            assert_ne!(a.profile().seed, b.profile().seed);
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let a = Scene::small(3).unwrap();
        let b = Scene::small(3).unwrap();
        for bm in [0, 9, 18] {
            let ta = a.generate(bm).unwrap();
            let tb = b.generate(bm).unwrap();
            assert_eq!(
                digest(ta.currents().as_slice()),
                digest(tb.currents().as_slice())
            );
        }
        let da = a.collect().unwrap();
        let db = b.collect().unwrap();
        assert_eq!(digest(da.x.as_slice()), digest(db.x.as_slice()));
        assert_eq!(digest(da.f.as_slice()), digest(db.f.as_slice()));
        assert_eq!(da.critical_nodes, db.critical_nodes);
    }

    #[test]
    fn different_seed_gives_different_traces() {
        let a = Scene::small(3).unwrap();
        let b = Scene::small(4).unwrap();
        for bm in 0..a.suite.len() {
            let ta = a.generate(bm).unwrap();
            let tb = b.generate(bm).unwrap();
            assert_ne!(
                digest(ta.currents().as_slice()),
                digest(tb.currents().as_slice()),
                "BM{} did not change with the seed",
                bm + 1
            );
        }
    }
}
