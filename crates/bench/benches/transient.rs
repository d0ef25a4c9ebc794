//! Bench: the power-grid transient engine — construction cost (cold, and
//! warm on a model that has its factors) and per-timestep cost on the
//! test and paper-scale chips. Testkit timer, JSON report in
//! `results/bench_transient.json`.

use voltsense::floorplan::{ChipConfig, ChipFloorplan};
use voltsense::powergrid::{GridConfig, GridModel, TransientSimulator};
use voltsense_testkit::bench::BenchTimer;

fn main() {
    let mut timer = BenchTimer::new("transient");
    for (label, cfg) in [
        ("small_2core", ChipConfig::small_test()),
        ("paper_8core", ChipConfig::xeon_e5_like()),
    ] {
        let chip = ChipFloorplan::new(&cfg).expect("chip");
        let model = GridModel::build(&chip, &GridConfig::default()).expect("grid");
        let idle = vec![0.0; chip.blocks().len()];
        let loads: Vec<f64> = chip.blocks().iter().map(|b| 0.5 * b.nominal_power()).collect();
        let mut sim = TransientSimulator::new(&model, 1.0, &idle).expect("sim");
        timer.bench(&format!("step/{label}_{}nodes", model.num_nodes()), || {
            sim.step(&loads).expect("step").len()
        });
    }

    // Cold construction = grid build + stamping + RCM + both envelope
    // factorizations + DC solve. The model is built inside the timed
    // closure because it keeps its factors for every later simulator.
    let chip = ChipFloorplan::new(&ChipConfig::xeon_e5_like()).expect("chip");
    let idle = vec![0.0; chip.blocks().len()];
    timer.bench("setup/paper_8core", || {
        let model = GridModel::build(&chip, &GridConfig::default()).expect("grid");
        TransientSimulator::new(&model, 1.0, &idle).expect("sim").dt_s()
    });
    // Warm: the model has factored both systems already, as for every
    // benchmark after the first on one grid.
    let model = GridModel::build(&chip, &GridConfig::default()).expect("grid");
    timer.bench("setup_warm/paper_8core", || {
        TransientSimulator::new(&model, 1.0, &idle).expect("sim").dt_s()
    });

    timer.finish().expect("write bench report");
}
