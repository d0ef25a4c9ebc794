//! Allocation pin for the transient step.
//!
//! A paper-scale design run takes 19 × 3,889 steps, so the step keeps
//! every buffer it needs from construction on: the right-hand side is
//! built inside the solve and the factor is shared. A `Vec` slipped into
//! the step fails this gate with a per-iteration count.

voltsense_telemetry::install_counting_allocator!();

use voltsense_floorplan::{ChipConfig, ChipFloorplan};
use voltsense_powergrid::{GridConfig, GridModel, Integration, TransientSimulator};
use voltsense_telemetry::alloc_gate;

#[test]
fn step_is_alloc_free_under_both_schemes() {
    let chip = ChipFloorplan::new(&ChipConfig::small_test()).unwrap();
    // Inductive pads, so the trapezoidal step takes its history branch.
    let cfg = GridConfig { pad_inductance_nh: 4.0, ..GridConfig::default() };
    let model = GridModel::build(&chip, &cfg).unwrap();
    let idle = vec![0.0; chip.blocks().len()];
    let load: Vec<f64> = chip.blocks().iter().map(|b| 0.5 * b.nominal_power()).collect();
    for method in [Integration::BackwardEuler, Integration::Trapezoidal] {
        let mut sim = TransientSimulator::with_method(&model, 1.0, &idle, method).unwrap();
        alloc_gate!("powergrid.step", 64, || {
            let v = sim.step(&load).unwrap();
            std::hint::black_box(v[0]);
        });
    }
}
