//! RC power-delivery-network model and transient simulation.
//!
//! This crate is the stand-in for the paper's full-chip power-grid
//! transient simulation (its experiment step 3). It builds a standard
//! modified-nodal-analysis model of the on-chip power grid:
//!
//! * a 2-D resistor mesh over the [`voltsense_floorplan::NodeLattice`];
//! * decoupling capacitance to ground at every node (denser under blocks);
//! * package pads on a regular sub-array, each a series R–L branch to the
//!   ideal VDD supply (the inductance produces the mid-frequency droop
//!   resonance that makes di/dt noise interesting);
//! * per-block load currents from a [`voltsense_workload::WorkloadTrace`],
//!   spread uniformly over the lattice nodes inside each block.
//!
//! Backward-Euler integration keeps the system matrix constant, so the
//! [`GridModel`] factors it once (sparse envelope Cholesky after RCM) and
//! shares the factor with every [`TransientSimulator`] of that timestep,
//! each of which performs one triangular solve per timestep.
//!
//! [`sample_benchmark`] runs a benchmark end to end and collects the
//! full-chip voltage maps the methodology trains on.
//!
//! # Example
//!
//! ```
//! use voltsense_floorplan::{ChipConfig, ChipFloorplan};
//! use voltsense_powergrid::{GridConfig, GridModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let chip = ChipFloorplan::new(&ChipConfig::small_test())?;
//! let model = GridModel::build(&chip, &GridConfig::default())?;
//! // With no load every node sits at VDD.
//! let v = model.dc_solve(&vec![0.0; chip.blocks().len()])?;
//! assert!(v.iter().all(|&x| (x - 1.0).abs() < 1e-9));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod integrator;
mod model;
mod sampling;
mod transient;

pub use config::GridConfig;
pub use error::PowerGridError;
pub use integrator::Integration;
pub use model::GridModel;
pub use sampling::{sample_benchmark, SampleConfig, SampledMaps};
pub use transient::TransientSimulator;
