use std::sync::{Arc, Mutex};

use voltsense_floorplan::{ChipFloorplan, NodeSite};
use voltsense_sparse::{CsrMatrix, EnvelopeCholesky, TripletMatrix};

use voltsense_telemetry as telemetry;

use crate::{GridConfig, Integration, PowerGridError};

/// A pad branch: lattice node index plus the series R (Ω) and L (H) to the
/// ideal supply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Pad {
    pub node: usize,
    pub resistance: f64,
    pub inductance: f64,
}

/// Which system matrix a cached factor belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FactorKey {
    /// The DC system `G_mesh + Σ 1/R_pad`.
    Dc,
    /// The transient system of a timestep (seconds) and scheme.
    Transient { dt_s: f64, method: Integration },
}

/// The assembled electrical model of the chip's power grid.
///
/// Holds the mesh conductance matrix (without pads), the per-node
/// capacitance, the pad branches and the block→node load distribution.
/// [`crate::TransientSimulator`] consumes it for time-domain analysis;
/// [`GridModel::dc_solve`] provides the operating point.
///
/// The grid is fixed, so each system matrix is factored once per model:
/// the first DC solve or simulator of a given timestep and scheme builds
/// the factor, and every later one (and every clone of the model) shares
/// it. Building the model factors nothing.
#[derive(Debug)]
pub struct GridModel {
    config: GridConfig,
    num_nodes: usize,
    num_blocks: usize,
    /// Mesh conductances only (pads stamped separately — their treatment
    /// differs between DC and transient).
    mesh: CsrMatrix,
    /// Per-node capacitance (F).
    caps: Vec<f64>,
    pads: Vec<Pad>,
    /// For each block: the lattice nodes carrying its current and the share
    /// (1/count) each receives.
    block_nodes: Vec<Vec<usize>>,
    /// Factors built so far, one per system matrix.
    factors: Mutex<Vec<(FactorKey, Arc<EnvelopeCholesky>)>>,
}

impl Clone for GridModel {
    fn clone(&self) -> Self {
        GridModel {
            config: self.config.clone(),
            num_nodes: self.num_nodes,
            num_blocks: self.num_blocks,
            mesh: self.mesh.clone(),
            caps: self.caps.clone(),
            pads: self.pads.clone(),
            block_nodes: self.block_nodes.clone(),
            factors: Mutex::new(self.lock_factors().clone()),
        }
    }
}

impl GridModel {
    /// Builds the grid model for a chip floorplan.
    ///
    /// # Errors
    ///
    /// Returns [`PowerGridError::InvalidConfig`] if the configuration is
    /// out of range or produces no pads.
    pub fn build(chip: &ChipFloorplan, config: &GridConfig) -> Result<Self, PowerGridError> {
        config.validate()?;
        let lattice = chip.lattice();
        let n = lattice.len();
        let g_seg = 1.0 / config.segment_resistance;

        // Mesh: a resistor between every pair of adjacent lattice nodes.
        let mut t = TripletMatrix::with_capacity(n, n, 5 * n);
        for (id, _) in lattice.iter() {
            let (ix, iy) = lattice.coords(id);
            // Stamp each edge once (to the right and up).
            if let Some(right) = lattice.node_at(ix + 1, iy) {
                t.stamp_conductance(id.0, right.0, g_seg);
            }
            if let Some(up) = lattice.node_at(ix, iy + 1) {
                t.stamp_conductance(id.0, up.0, g_seg);
            }
        }
        let mesh = t.to_csr();

        // Capacitance: denser decap under blocks.
        let caps: Vec<f64> = (0..n)
            .map(|i| match lattice.site(voltsense_floorplan::NodeId(i)) {
                NodeSite::FunctionArea(_) => config.cap_fa_pf * 1e-12,
                NodeSite::BlankArea => config.cap_ba_pf * 1e-12,
            })
            .collect();

        // Pads on a regular sub-array (offset by half a pitch so pads do
        // not all sit on the die boundary). The configured physical
        // spacing is snapped to the lattice.
        let pitch = (config.pad_spacing_um / lattice.pitch()).round().max(1.0) as usize;
        let off = pitch / 2;
        let mut pads = Vec::new();
        for iy in (off..lattice.ny()).step_by(pitch) {
            for ix in (off..lattice.nx()).step_by(pitch) {
                let node = lattice
                    .node_at(ix, iy)
                    .expect("pad coordinates are in range");
                pads.push(Pad {
                    node: node.0,
                    resistance: config.pad_resistance,
                    inductance: config.pad_inductance_nh * 1e-9,
                });
            }
        }
        if pads.is_empty() {
            return Err(PowerGridError::InvalidConfig {
                what: format!(
                    "pad pitch {pitch} produced no pads on a {}x{} lattice",
                    lattice.nx(),
                    lattice.ny()
                ),
            });
        }

        // Block loads: uniform distribution over the block's nodes.
        let block_nodes: Vec<Vec<usize>> = chip
            .blocks()
            .iter()
            .map(|b| {
                lattice
                    .nodes_in_block(b.id())
                    .iter()
                    .map(|nid| nid.0)
                    .collect()
            })
            .collect();

        Ok(GridModel {
            config: config.clone(),
            num_nodes: n,
            num_blocks: block_nodes.len(),
            mesh,
            caps,
            pads,
            block_nodes,
            factors: Mutex::new(Vec::new()),
        })
    }

    /// The grid configuration.
    pub fn config(&self) -> &GridConfig {
        &self.config
    }

    /// Number of lattice nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of function blocks drawing current.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Number of package pads.
    pub fn num_pads(&self) -> usize {
        self.pads.len()
    }

    pub(crate) fn mesh(&self) -> &CsrMatrix {
        &self.mesh
    }

    pub(crate) fn caps(&self) -> &[f64] {
        &self.caps
    }

    pub(crate) fn pads(&self) -> &[Pad] {
        &self.pads
    }

    /// For each block (in block order): the lattice node indices that
    /// carry its load current.
    pub fn block_nodes(&self) -> &[Vec<usize>] {
        &self.block_nodes
    }

    /// Scatters per-block currents into a per-node injection vector
    /// (amperes drawn from each node).
    ///
    /// # Errors
    ///
    /// Returns [`PowerGridError::ShapeMismatch`] if
    /// `block_currents.len() != self.num_blocks()`.
    pub fn scatter_loads(&self, block_currents: &[f64]) -> Result<Vec<f64>, PowerGridError> {
        let mut loads = vec![0.0; self.num_nodes];
        self.scatter_loads_into(block_currents, &mut loads)?;
        Ok(loads)
    }

    /// Allocation-free variant of [`GridModel::scatter_loads`].
    ///
    /// # Errors
    ///
    /// Returns [`PowerGridError::ShapeMismatch`] on length mismatch of
    /// either argument.
    pub fn scatter_loads_into(
        &self,
        block_currents: &[f64],
        loads: &mut [f64],
    ) -> Result<(), PowerGridError> {
        if block_currents.len() != self.num_blocks {
            return Err(PowerGridError::ShapeMismatch {
                what: "block currents",
                expected: self.num_blocks,
                actual: block_currents.len(),
            });
        }
        if loads.len() != self.num_nodes {
            return Err(PowerGridError::ShapeMismatch {
                what: "load vector",
                expected: self.num_nodes,
                actual: loads.len(),
            });
        }
        loads.fill(0.0);
        for (nodes, &current) in self.block_nodes.iter().zip(block_currents) {
            let share = current / nodes.len() as f64;
            for &node in nodes {
                loads[node] += share;
            }
        }
        Ok(())
    }

    /// Solves the DC operating point for the given per-block currents
    /// (inductors treated as shorts; pads are their series resistance).
    ///
    /// # Errors
    ///
    /// Propagates load-shape and solver errors.
    pub fn dc_solve(&self, block_currents: &[f64]) -> Result<Vec<f64>, PowerGridError> {
        let loads = self.scatter_loads(block_currents)?;
        // System: (G_mesh + G_pads) v = g_pad·VDD − loads.
        let mut rhs: Vec<f64> = loads.iter().map(|&l| -l).collect();
        for pad in &self.pads {
            let g = 1.0 / pad.resistance;
            rhs[pad.node] += g * self.config.vdd;
        }
        let chol = self.factor(FactorKey::Dc, || {
            let n = self.num_nodes;
            let mut t = TripletMatrix::with_capacity(n, n, self.mesh.nnz() + self.pads.len());
            for i in 0..n {
                for (j, g) in self.mesh.row_iter(i) {
                    t.add(i, j, g);
                }
            }
            for pad in &self.pads {
                t.stamp_grounded_conductance(pad.node, 1.0 / pad.resistance);
            }
            // The same RCM-ordered envelope factorization the transient
            // path uses; the pads make the system SPD.
            t.to_csr()
        })?;
        Ok(chol.solve(&rhs)?)
    }

    /// The factor of the system matrix `key`, built from `assemble` on
    /// first use and shared from then on. Concurrent first uses wait for
    /// one factorization.
    pub(crate) fn factor(
        &self,
        key: FactorKey,
        assemble: impl FnOnce() -> CsrMatrix,
    ) -> Result<Arc<EnvelopeCholesky>, PowerGridError> {
        let mut factors = self.lock_factors();
        if let Some((_, chol)) = factors.iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(chol));
        }
        let chol = {
            let _span = telemetry::span("grid.factor");
            Arc::new(EnvelopeCholesky::factor(&assemble())?)
        };
        factors.push((key, Arc::clone(&chol)));
        Ok(chol)
    }

    /// How many factors this model has built.
    #[cfg(test)]
    pub(crate) fn factors_built(&self) -> usize {
        self.lock_factors().len()
    }

    fn lock_factors(&self) -> std::sync::MutexGuard<'_, Vec<(FactorKey, Arc<EnvelopeCholesky>)>> {
        // The list only grows by a finished factor, so a panic while
        // factoring leaves it valid.
        self.factors.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// DC pad currents consistent with a DC node-voltage solution, used to
    /// initialize the transient inductor states.
    pub(crate) fn dc_pad_currents(&self, v: &[f64]) -> Vec<f64> {
        self.pads
            .iter()
            .map(|p| (self.config.vdd - v[p.node]) / p.resistance)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltsense_floorplan::{ChipConfig, ChipFloorplan};

    fn model() -> (ChipFloorplan, GridModel) {
        let chip = ChipFloorplan::new(&ChipConfig::small_test()).unwrap();
        let model = GridModel::build(&chip, &GridConfig::default()).unwrap();
        (chip, model)
    }

    #[test]
    fn dimensions_match_floorplan() {
        let (chip, model) = model();
        assert_eq!(model.num_nodes(), chip.lattice().len());
        assert_eq!(model.num_blocks(), chip.blocks().len());
        assert!(model.num_pads() > 0);
    }

    #[test]
    fn mesh_is_symmetric_with_zero_row_sums() {
        let (_, model) = model();
        let mesh = model.mesh();
        assert!(mesh.is_symmetric(1e-12));
        // A pure resistor mesh has zero row sums (no ground path).
        for i in 0..mesh.rows() {
            let s: f64 = mesh.row_iter(i).map(|(_, v)| v).sum();
            assert!(s.abs() < 1e-9, "row {i} sum {s}");
        }
    }

    #[test]
    fn no_load_dc_is_vdd_everywhere() {
        let (chip, model) = model();
        let v = model.dc_solve(&vec![0.0; chip.blocks().len()]).unwrap();
        for &x in &v {
            assert!((x - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn loaded_dc_droops_below_vdd() {
        let (chip, model) = model();
        // Nominal power of every block as its current (VDD = 1).
        let currents: Vec<f64> = chip.blocks().iter().map(|b| b.nominal_power()).collect();
        let v = model.dc_solve(&currents).unwrap();
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(max < 1.0, "all nodes must droop below VDD, max {max}");
        assert!(min > 0.5, "grid has collapsed, min {min}");
        assert!(min < 0.99, "no visible droop, min {min}");
    }

    #[test]
    fn droop_is_worst_near_blocks() {
        let (chip, model) = model();
        let currents: Vec<f64> = chip.blocks().iter().map(|b| b.nominal_power()).collect();
        let v = model.dc_solve(&currents).unwrap();
        // Average FA voltage below average BA voltage.
        let lattice = chip.lattice();
        let mut fa = (0.0, 0usize);
        let mut ba = (0.0, 0usize);
        for (id, site) in lattice.iter() {
            match site {
                NodeSite::FunctionArea(_) => {
                    fa.0 += v[id.0];
                    fa.1 += 1;
                }
                NodeSite::BlankArea => {
                    ba.0 += v[id.0];
                    ba.1 += 1;
                }
            }
        }
        assert!(fa.0 / fa.1 as f64 <= ba.0 / ba.1 as f64);
    }

    #[test]
    fn scatter_conserves_current() {
        let (chip, model) = model();
        let currents: Vec<f64> = (0..chip.blocks().len()).map(|i| i as f64 * 0.01).collect();
        let loads = model.scatter_loads(&currents).unwrap();
        let total_in: f64 = currents.iter().sum();
        let total_out: f64 = loads.iter().sum();
        assert!((total_in - total_out).abs() < 1e-9);
    }

    #[test]
    fn scatter_rejects_wrong_len() {
        let (_, model) = model();
        assert!(model.scatter_loads(&[1.0]).is_err());
        let mut short = vec![0.0; 3];
        assert!(model
            .scatter_loads_into(&vec![0.0; model.num_blocks()], &mut short)
            .is_err());
    }

    #[test]
    fn absurd_pad_spacing_is_rejected() {
        let chip = ChipFloorplan::new(&ChipConfig::small_test()).unwrap();
        // Wider than the die: the half-pitch offset falls outside the
        // lattice, so no pads can be placed.
        let cfg = GridConfig { pad_spacing_um: 50_000.0, ..Default::default() };
        let r = GridModel::build(&chip, &cfg);
        assert!(r.is_err());
    }

    #[test]
    fn pad_density_tracks_physical_spacing_not_lattice() {
        // Halving the pad spacing should roughly quadruple the pad count,
        // independent of lattice resolution.
        let chip = ChipFloorplan::new(&ChipConfig::small_test()).unwrap();
        let coarse = GridModel::build(&chip, &GridConfig::default()).unwrap();
        let mut cfg = GridConfig::default();
        cfg.pad_spacing_um /= 2.0;
        let dense = GridModel::build(&chip, &cfg).unwrap();
        assert!(dense.num_pads() > 2 * coarse.num_pads());
    }
}
