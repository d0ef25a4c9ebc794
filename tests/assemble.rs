//! `ScenarioData::assemble` contracts: `(X, F)` equals a column-by-column
//! concatenation of the per-benchmark maps bit for bit, and building it
//! allocates about one copy of `X` and `F`, not a growing accumulator.

voltsense::telemetry::install_counting_allocator!();

use voltsense::floorplan::{ChipConfig, NodeId};
use voltsense::powergrid::{sample_benchmark, GridConfig, SampleConfig, SampledMaps};
use voltsense::scenario::{CollectOptions, Scenario, ScenarioData, SensorSites};
use voltsense::telemetry::profile;
use voltsense::workload::WorkloadTrace;

/// The small scenario on a lattice twice as fine, so that blocks hold
/// several nodes and a second representative per block exists.
fn fine_scenario() -> Scenario {
    let small = Scenario::small().expect("scenario builds");
    let chip = ChipConfig {
        grid_pitch: ChipConfig::small_test().grid_pitch / 2.0,
        ..ChipConfig::small_test()
    };
    Scenario::with_configs(
        &chip,
        &GridConfig::small_test(),
        small.trace_config().clone(),
        small.sample_config().clone(),
    )
    .expect("fine scenario builds")
}

/// Simulates one benchmark of `s`, keeping `max_samples` snapshots so
/// that benchmarks can contribute unequal counts.
fn simulate(s: &Scenario, bench: usize, max_samples: usize) -> (usize, SampledMaps) {
    let trace = WorkloadTrace::generate(&s.suite()[bench], s.chip().blocks(), s.trace_config())
        .expect("trace generates");
    let config = SampleConfig {
        max_samples: Some(max_samples),
        ..s.sample_config().clone()
    };
    let maps = sample_benchmark(s.grid(), &trace, &config).expect("benchmark simulates");
    assert_eq!(
        maps.num_samples(),
        max_samples,
        "trace long enough for the cap"
    );
    (bench, maps)
}

/// Asserts that `data` is the column-by-column concatenation of `maps`
/// over its own candidate and critical nodes, compared with `to_bits`.
fn assert_is_column_concatenation(data: &ScenarioData, maps: &[(usize, SampledMaps)]) {
    let mut x_cols: Vec<Vec<u64>> = Vec::new();
    let mut f_cols: Vec<Vec<u64>> = Vec::new();
    let mut sample_benchmark = Vec::new();
    for (bench, m) in maps {
        for j in 0..m.num_samples() {
            let column = |nodes: &[NodeId]| -> Vec<u64> {
                nodes.iter().map(|n| m.maps()[(n.0, j)].to_bits()).collect()
            };
            x_cols.push(column(&data.candidate_nodes));
            f_cols.push(column(&data.critical_nodes));
            sample_benchmark.push(*bench);
        }
    }
    assert_eq!(data.x.shape(), (data.candidate_nodes.len(), x_cols.len()));
    assert_eq!(data.f.shape(), (data.critical_nodes.len(), f_cols.len()));
    let bits_of =
        |m: &voltsense::linalg::Matrix, j| m.col_iter(j).map(f64::to_bits).collect::<Vec<_>>();
    for (j, (xc, fc)) in x_cols.iter().zip(&f_cols).enumerate() {
        assert!(
            bits_of(&data.x, j) == *xc,
            "X column {j} differs from the concatenation"
        );
        assert!(
            bits_of(&data.f, j) == *fc,
            "F column {j} differs from the concatenation"
        );
    }
    assert_eq!(data.sample_benchmark, sample_benchmark);
}

#[test]
fn assembled_matrices_equal_a_column_concatenation() {
    let s = fine_scenario();
    // Unequal sample counts, benchmarks out of suite order.
    let maps = vec![simulate(&s, 3, 17), simulate(&s, 0, 40), simulate(&s, 5, 9)];
    let lattice = s.chip().lattice();

    let data = ScenarioData::assemble(s.chip(), &maps).expect("assembles");
    assert_eq!(data.candidate_nodes, lattice.candidate_sites());
    assert_eq!(data.critical_nodes.len(), s.chip().blocks().len());
    assert_is_column_concatenation(&data, &maps);

    let options = CollectOptions {
        representatives_per_block: 2,
        sensor_sites: SensorSites::Anywhere,
    };
    let data = ScenarioData::assemble_with(s.chip(), &maps, &options).expect("assembles");
    assert_eq!(data.candidate_nodes.len(), lattice.len());
    // Worst-first, up to two per block; a one-node block contributes one.
    let reps: usize = s
        .chip()
        .blocks()
        .iter()
        .map(|b| lattice.nodes_in_block(b.id()).len().min(2))
        .sum();
    assert!(
        reps > s.chip().blocks().len(),
        "some block has two representatives"
    );
    assert_eq!(data.critical_nodes.len(), reps);
    assert_is_column_concatenation(&data, &maps);
}

#[test]
fn assembly_allocates_about_one_copy_of_x_and_f() {
    let s = Scenario::small().expect("scenario builds");
    let maps: Vec<(usize, SampledMaps)> = (0..8).map(|b| simulate(&s, b, 100)).collect();

    let window = profile::enable_counting();
    let (before, _, _, _) = profile::thread_alloc_totals();
    let data = ScenarioData::assemble(s.chip(), &maps).expect("assembles");
    let (after, _, _, _) = profile::thread_alloc_totals();
    drop(window);

    let matrices = (data.x.as_slice().len() + data.f.as_slice().len()) * std::mem::size_of::<f64>();
    let allocated = after - before;
    let budget = matrices as u64 * 5 / 4 + (1 << 20);
    assert!(
        allocated <= budget,
        "assemble allocated {allocated} bytes for {matrices} bytes of X + F \
         (budget {budget}); X/F must be filled once, not grown per benchmark"
    );
}
