//! Golden digests of the simulated voltage maps and of the sensor
//! selection made from them.
//!
//! The transient step may be restructured for speed, but never change a
//! bit of what it computes: these digests were recorded before the solve
//! moved to factor-order panels and must stay fixed. The selection digest
//! was recorded before the one-shot selection wrappers were folded into
//! the homotopy path, which must reach the same decisions bit for bit.
//! Each is FNV-1a over the little-endian bytes of the values, in order.

use voltsense::core::MethodologyConfig;
use voltsense::scenario::{CorePartition, PerCoreModel, Scenario};

/// FNV-1a over little-endian 8-byte words.
#[derive(Default)]
struct Fnv(Option<u64>);

impl Fnv {
    fn words(&mut self, words: impl IntoIterator<Item = u64>) {
        let mut h = self.0.unwrap_or(0xcbf2_9ce4_8422_2325);
        for w in words {
            for byte in w.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        self.0 = Some(h);
    }

    fn floats(&mut self, values: &[f64]) {
        self.words(values.iter().map(|v| v.to_bits()));
    }
}

#[test]
fn small_scenario_bm1_maps_are_unchanged() {
    let maps = Scenario::small().unwrap().simulate(0).unwrap();
    let mut h = Fnv::default();
    h.floats(maps.maps().as_slice());
    assert_eq!(h.0, Some(0x0905_aa2e_9905_d4e8));
}

/// Per-core selections (sensors, μ, budget, group norms) and the global
/// refit's sensors of a λ sweep and a sensor-count sweep on BM1 and BM4
/// (λ = 6 and 10 keep it near 30 s in a debug build; λ = 20 alone takes a
/// minute).
#[test]
fn small_scenario_selection_is_unchanged() {
    let scenario = Scenario::small().unwrap();
    let (train, _test) = scenario.collect(&[0, 3]).unwrap().split(3);
    let partition = CorePartition::from_chip(scenario.chip());
    let cfg = MethodologyConfig::default();
    let mut models = PerCoreModel::fit_sweep(&train, &partition, &[6.0, 10.0], &cfg).unwrap();
    models.extend(
        PerCoreModel::fit_with_sensor_count_sweep(&train, &partition, &[2, 4], &cfg).unwrap(),
    );
    let mut h = Fnv::default();
    for model in &models {
        for fit in model.fits() {
            let selection = fit.fitted.selection();
            h.words(selection.selected.iter().map(|&m| m as u64));
            h.floats(&[selection.mu, selection.budget_used]);
            h.floats(&selection.group_norms);
        }
        let sensors = model.global_model().sensor_indices();
        h.words(sensors.iter().map(|&m| m as u64));
    }
    assert_eq!(h.0, Some(0x2674_cfe4_412b_a864));
}

/// X, F, the benchmark of each sample, and the candidate and critical
/// node ids of the paper-scale collection of all 19 benchmarks. Minutes in
/// a debug build; run it with
/// `cargo test --release -p voltsense --test digests -- --ignored`.
#[test]
#[ignore = "paper scale: run in release with --ignored"]
fn paper_scale_collection_is_unchanged() {
    let scenario = Scenario::paper_scale().unwrap();
    let all: Vec<usize> = (0..scenario.suite().len()).collect();
    let data = scenario.collect(&all).unwrap();
    let mut h = Fnv::default();
    h.floats(data.x.as_slice());
    h.floats(data.f.as_slice());
    h.words(data.sample_benchmark.iter().map(|&b| b as u64));
    h.words(data.candidate_nodes.iter().map(|n| n.0 as u64));
    h.words(data.critical_nodes.iter().map(|n| n.0 as u64));
    assert_eq!(h.0, Some(0xbf97_4278_c9ee_e0d7));
}
