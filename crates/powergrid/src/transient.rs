use std::sync::Arc;

use voltsense_sparse::{EnvelopeCholesky, TripletMatrix};
use voltsense_telemetry as telemetry;

use crate::integrator::Integration;
use crate::model::{FactorKey, GridModel};
use crate::PowerGridError;

/// Backward-Euler transient engine for a [`GridModel`].
///
/// The BE companion models keep the system matrix
/// `A = G_mesh + C/dt + Σ g_pad` constant, so every
/// [`TransientSimulator::step`] costs a single sparse triangular solve
/// against one factor, which the model builds on first use and shares
/// with every simulator of the same timestep and scheme — the standard
/// approach for power-grid transient analysis.
///
/// The state is kept in the factor's row order, so a step builds the
/// right-hand side in that order and solves it in place; the only
/// permutation left is the scatter of the node-order voltages that
/// [`TransientSimulator::step`] returns. The result is bit-identical to
/// assembling the right-hand side in node order and solving.
///
/// Pad branches (series R–L to VDD) use the BE inductor companion:
/// with `a = 1 / (1 + dt·R/L)` and `g_eff = (dt/L)·a`,
/// `i_{n+1} = a·i_n + g_eff (VDD − v_{n+1})`, stamped as conductance
/// `g_eff` plus a history current source. `L = 0` degenerates to a purely
/// resistive pad (`a = 0`, `g_eff = 1/R`).
///
/// # Example
///
/// ```
/// use voltsense_floorplan::{ChipConfig, ChipFloorplan};
/// use voltsense_powergrid::{GridConfig, GridModel, TransientSimulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let chip = ChipFloorplan::new(&ChipConfig::small_test())?;
/// let model = GridModel::build(&chip, &GridConfig::default())?;
/// let idle = vec![0.0; chip.blocks().len()];
/// let mut sim = TransientSimulator::new(&model, 1.0, &idle)?;
/// let v = sim.step(&idle)?;
/// assert!((v[0] - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TransientSimulator<'m> {
    model: &'m GridModel,
    method: Integration,
    chol: Arc<EnvelopeCholesky>,
    /// Per factor row: capacitor companion conductance `C/dt` (BE) or
    /// `2C/dt` (trapezoidal).
    cap_g: Vec<f64>,
    /// Per factor row: capacitor branch current — state used by the
    /// trapezoidal rule (zero-length for backward Euler).
    cap_current: Vec<f64>,
    /// Per factor row: the block whose current it draws, or `num_blocks`
    /// (the zero at the end of `shares`).
    row_block: Vec<usize>,
    /// Per block: its node count; a node draws `current / count`.
    block_len: Vec<f64>,
    /// Per block: this step's current per node, then a zero.
    shares: Vec<f64>,
    /// Per pad: its factor row.
    pad_row: Vec<usize>,
    /// Per pad: history coefficient `a` and effective conductance.
    pad_a: Vec<f64>,
    pad_g: Vec<f64>,
    /// Inductor currents (state).
    pad_current: Vec<f64>,
    /// Node voltages in factor order (state).
    state: Vec<f64>,
    /// The right-hand side, solved in place, then swapped into `state`.
    next: Vec<f64>,
    /// Node voltages in node order, as returned.
    voltages: Vec<f64>,
    dt_s: f64,
    time_s: f64,
}

impl<'m> TransientSimulator<'m> {
    /// Creates the engine with timestep `dt_ns` (nanoseconds), initialized
    /// to the DC operating point of `initial_block_currents`.
    ///
    /// # Errors
    ///
    /// * [`PowerGridError::InvalidConfig`] for a non-positive timestep.
    /// * [`PowerGridError::ShapeMismatch`] if the initial currents don't
    ///   match the model's block count.
    /// * [`PowerGridError::Solver`] if factorization fails.
    pub fn new(
        model: &'m GridModel,
        dt_ns: f64,
        initial_block_currents: &[f64],
    ) -> Result<Self, PowerGridError> {
        Self::with_method(model, dt_ns, initial_block_currents, Integration::BackwardEuler)
    }

    /// As [`TransientSimulator::new`] with an explicit integration scheme.
    ///
    /// # Errors
    ///
    /// Same as [`TransientSimulator::new`].
    pub fn with_method(
        model: &'m GridModel,
        dt_ns: f64,
        initial_block_currents: &[f64],
        method: Integration,
    ) -> Result<Self, PowerGridError> {
        if !dt_ns.is_finite() || dt_ns <= 0.0 {
            return Err(PowerGridError::InvalidConfig {
                what: format!("timestep must be positive, got {dt_ns} ns"),
            });
        }
        let dt_s = dt_ns * 1e-9;
        let n = model.num_nodes();

        // Capacitor companion conductance: C/dt (BE) or 2C/dt (trap).
        let cap_factor = match method {
            Integration::BackwardEuler => 1.0,
            Integration::Trapezoidal => 2.0,
        };
        let cap_g: Vec<f64> = model.caps().iter().map(|&c| cap_factor * c / dt_s).collect();
        let mut pad_a = Vec::with_capacity(model.pads().len());
        let mut pad_g = Vec::with_capacity(model.pads().len());
        for pad in model.pads() {
            if pad.inductance > 0.0 {
                match method {
                    Integration::BackwardEuler => {
                        let a = 1.0 / (1.0 + dt_s * pad.resistance / pad.inductance);
                        pad_a.push(a);
                        pad_g.push(dt_s / pad.inductance * a);
                    }
                    Integration::Trapezoidal => {
                        let x = dt_s * pad.resistance / (2.0 * pad.inductance);
                        pad_a.push((1.0 - x) / (1.0 + x));
                        pad_g.push(dt_s / (2.0 * pad.inductance) / (1.0 + x));
                    }
                }
            } else {
                // L = 0: a memoryless resistive branch under either scheme.
                pad_a.push(0.0);
                pad_g.push(1.0 / pad.resistance);
            }
        }

        // A = G_mesh + G_cap + Σ g_pad, factored once per model.
        let chol = model.factor(FactorKey::Transient { dt_s, method }, || {
            let mut t = TripletMatrix::with_capacity(n, n, model.mesh().nnz() + n);
            for (i, &cg) in cap_g.iter().enumerate() {
                for (j, g) in model.mesh().row_iter(i) {
                    t.add(i, j, g);
                }
                t.add(i, i, cg);
            }
            for (pad, &g) in model.pads().iter().zip(&pad_g) {
                t.add(pad.node, pad.node, g);
            }
            t.to_csr()
        })?;

        // Everything per node moves to factor order.
        let perm = chol.permutation();
        let mut row_of = vec![0; n];
        for (row, &node) in perm.iter().enumerate() {
            row_of[node] = row;
        }
        let num_blocks = model.num_blocks();
        let mut row_block = vec![num_blocks; n];
        for (b, nodes) in model.block_nodes().iter().enumerate() {
            for &node in nodes {
                assert_eq!(row_block[row_of[node]], num_blocks, "node {node} is in two blocks");
                row_block[row_of[node]] = b;
            }
        }
        let pad_row: Vec<usize> = model.pads().iter().map(|pad| row_of[pad.node]).collect();

        // DC initial condition.
        let voltages = model.dc_solve(initial_block_currents)?;
        let pad_current = model.dc_pad_currents(&voltages);

        Ok(TransientSimulator {
            model,
            method,
            cap_g: perm.iter().map(|&node| cap_g[node]).collect(),
            cap_current: match method {
                Integration::BackwardEuler => Vec::new(),
                // At the DC operating point capacitor currents are zero.
                Integration::Trapezoidal => vec![0.0; n],
            },
            row_block,
            block_len: model.block_nodes().iter().map(|nodes| nodes.len() as f64).collect(),
            shares: vec![0.0; num_blocks + 1],
            pad_row,
            pad_a,
            pad_g,
            pad_current,
            state: perm.iter().map(|&node| voltages[node]).collect(),
            next: vec![0.0; n],
            voltages,
            dt_s,
            time_s: 0.0,
            chol,
        })
    }

    /// The integration scheme in use.
    pub fn method(&self) -> Integration {
        self.method
    }

    /// Timestep in seconds.
    pub fn dt_s(&self) -> f64 {
        self.dt_s
    }

    /// Simulated time in seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Current node voltages (V).
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// Current pad (inductor) currents (A).
    pub fn pad_currents(&self) -> &[f64] {
        &self.pad_current
    }

    /// Advances one timestep with the given per-block currents at the new
    /// time point, returning the new node voltages.
    ///
    /// # Errors
    ///
    /// Returns [`PowerGridError::ShapeMismatch`] if the current vector does
    /// not match the block count.
    pub fn step(&mut self, block_currents: &[f64]) -> Result<&[f64], PowerGridError> {
        let _span = telemetry::span("transient.step");
        if block_currents.len() != self.block_len.len() {
            return Err(PowerGridError::ShapeMismatch {
                what: "block currents",
                expected: self.block_len.len(),
                actual: block_currents.len(),
            });
        }
        for ((share, &current), &len) in self
            .shares
            .iter_mut()
            .zip(block_currents)
            .zip(&self.block_len)
        {
            *share = current / len;
        }
        let vdd = self.model.config().vdd;
        let pads = self.model.pads();

        // RHS = G_cap·v_n − loads (+ cap history for trap) + pad history,
        // built in factor order straight into the solve's buffer. A node's
        // load is `0 + share`, as scattering onto a zeroed vector gives.
        let rhs = &mut self.next;
        for (((r, &cg), &v), &b) in rhs
            .iter_mut()
            .zip(&self.cap_g)
            .zip(&self.state)
            .zip(&self.row_block)
        {
            *r = cg * v - (0.0 + self.shares[b]);
        }
        if self.method == Integration::Trapezoidal {
            for (r, &ic) in rhs.iter_mut().zip(&self.cap_current) {
                *r += ic;
            }
        }
        for ((pad, &row), ((&a, &g), &i_l)) in pads
            .iter()
            .zip(&self.pad_row)
            .zip(self.pad_a.iter().zip(&self.pad_g).zip(&self.pad_current))
        {
            rhs[row] += match self.method {
                Integration::BackwardEuler => a * i_l + g * vdd,
                Integration::Trapezoidal if pad.inductance > 0.0 => {
                    a * i_l + g * (2.0 * vdd - self.state[row])
                }
                Integration::Trapezoidal => g * vdd,
            };
        }
        self.chol.solve_in_factor_order(rhs)?;
        for (&v, &node) in self.next.iter().zip(self.chol.permutation()) {
            self.voltages[node] = v;
        }

        // Update states from (v_n, v_{n+1}).
        if self.method == Integration::Trapezoidal {
            for ((ic, &gc), (vn, vn1)) in self
                .cap_current
                .iter_mut()
                .zip(&self.cap_g)
                .zip(self.state.iter().zip(&self.next))
            {
                *ic = gc * (vn1 - vn) - *ic;
            }
        }
        for ((pad, &row), ((&a, &g), i_l)) in pads
            .iter()
            .zip(&self.pad_row)
            .zip(self.pad_a.iter().zip(&self.pad_g).zip(self.pad_current.iter_mut()))
        {
            let (vn, vn1) = (self.state[row], self.next[row]);
            *i_l = match self.method {
                Integration::BackwardEuler => a * *i_l + g * (vdd - vn1),
                Integration::Trapezoidal if pad.inductance > 0.0 => {
                    a * *i_l + g * (2.0 * vdd - vn - vn1)
                }
                Integration::Trapezoidal => g * (vdd - vn1),
            };
        }
        std::mem::swap(&mut self.state, &mut self.next);
        self.time_s += self.dt_s;
        Ok(&self.voltages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GridConfig;
    use voltsense_floorplan::{ChipConfig, ChipFloorplan};

    /// The step as assembled in node order: loads scattered onto a zeroed
    /// vector, the right-hand side built node by node, a node-order solve
    /// against a factor of its own. The factor-order step must match it
    /// bit for bit.
    struct NodeOrderStep<'m> {
        model: &'m GridModel,
        method: Integration,
        chol: EnvelopeCholesky,
        cap_g: Vec<f64>,
        cap_current: Vec<f64>,
        pad_a: Vec<f64>,
        pad_g: Vec<f64>,
        pad_current: Vec<f64>,
        voltages: Vec<f64>,
        loads: Vec<f64>,
    }

    impl<'m> NodeOrderStep<'m> {
        fn new(model: &'m GridModel, dt_ns: f64, initial: &[f64], method: Integration) -> Self {
            let sim = TransientSimulator::with_method(model, dt_ns, initial, method).unwrap();
            let n = model.num_nodes();
            let cap_factor = if method == Integration::Trapezoidal { 2.0 } else { 1.0 };
            let dt_s = dt_ns * 1e-9;
            let cap_g: Vec<f64> = model.caps().iter().map(|&c| cap_factor * c / dt_s).collect();
            let mut t = TripletMatrix::new(n, n);
            for (i, &cg) in cap_g.iter().enumerate() {
                for (j, g) in model.mesh().row_iter(i) {
                    t.add(i, j, g);
                }
                t.add(i, i, cg);
            }
            for (pad, &g) in model.pads().iter().zip(&sim.pad_g) {
                t.add(pad.node, pad.node, g);
            }
            NodeOrderStep {
                model,
                method,
                chol: EnvelopeCholesky::factor(&t.to_csr()).unwrap(),
                cap_g,
                cap_current: vec![0.0; n],
                pad_a: sim.pad_a.clone(),
                pad_g: sim.pad_g.clone(),
                pad_current: model.dc_pad_currents(&model.dc_solve(initial).unwrap()),
                voltages: model.dc_solve(initial).unwrap(),
                loads: vec![0.0; n],
            }
        }

        fn step(&mut self, currents: &[f64]) -> &[f64] {
            let vdd = self.model.config().vdd;
            let trap = self.method == Integration::Trapezoidal;
            self.model.scatter_loads_into(currents, &mut self.loads).unwrap();
            let mut rhs: Vec<f64> = (0..self.loads.len())
                .map(|i| self.cap_g[i] * self.voltages[i] - self.loads[i])
                .collect();
            if trap {
                for (r, &ic) in rhs.iter_mut().zip(&self.cap_current) {
                    *r += ic;
                }
            }
            for (p, pad) in self.model.pads().iter().enumerate() {
                let (a, g, i_l) = (self.pad_a[p], self.pad_g[p], self.pad_current[p]);
                rhs[pad.node] += if !trap {
                    a * i_l + g * vdd
                } else if pad.inductance > 0.0 {
                    a * i_l + g * (2.0 * vdd - self.voltages[pad.node])
                } else {
                    g * vdd
                };
            }
            let next = self.chol.solve(&rhs).unwrap();
            if trap {
                for (((ic, &gc), &vn1), &vn) in
                    self.cap_current.iter_mut().zip(&self.cap_g).zip(&next).zip(&self.voltages)
                {
                    *ic = gc * (vn1 - vn) - *ic;
                }
            }
            for (p, pad) in self.model.pads().iter().enumerate() {
                let (a, g, i_l) = (self.pad_a[p], self.pad_g[p], self.pad_current[p]);
                let (vn, vn1) = (self.voltages[pad.node], next[pad.node]);
                self.pad_current[p] = if !trap {
                    a * i_l + g * (vdd - vn1)
                } else if pad.inductance > 0.0 {
                    a * i_l + g * (2.0 * vdd - vn - vn1)
                } else {
                    g * (vdd - vn1)
                };
            }
            self.voltages = next;
            &self.voltages
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn factor_order_steps_match_the_node_order_step_bit_for_bit() {
        let chip = ChipFloorplan::new(&ChipConfig::small_test()).unwrap();
        let blocks = chip.blocks().len();
        for pad_l in [0.0, 4.0, GridConfig::default().pad_inductance_nh] {
            let cfg = GridConfig { pad_inductance_nh: pad_l, ..GridConfig::default() };
            let model = GridModel::build(&chip, &cfg).unwrap();
            let initial: Vec<f64> = (0..blocks).map(|b| 0.01 * (b % 3) as f64).collect();
            for method in [Integration::BackwardEuler, Integration::Trapezoidal] {
                let mut sim =
                    TransientSimulator::with_method(&model, 0.5, &initial, method).unwrap();
                let mut oracle = NodeOrderStep::new(&model, 0.5, &initial, method);
                assert_eq!(bits(sim.voltages()), bits(&oracle.voltages));
                for step in 0..300 {
                    // Bursty currents with exact zeros and a sign flip.
                    let currents: Vec<f64> = (0..blocks)
                        .map(|b| match (step / 7 + b) % 5 {
                            0 => 0.0,
                            1 => -0.0,
                            2 => 0.03 * ((step * (b + 1)) as f64 * 0.37).sin(),
                            _ => 0.02 + 0.001 * b as f64,
                        })
                        .collect();
                    let got = bits(sim.step(&currents).unwrap());
                    let want = bits(oracle.step(&currents));
                    assert_eq!(got, want, "{method:?} L={pad_l} step {step}");
                    assert_eq!(bits(sim.pad_currents()), bits(&oracle.pad_current));
                }
            }
        }
    }

    #[test]
    fn simulators_share_one_factor_per_timestep_and_scheme() {
        let (chip, model) = setup();
        let idle = vec![0.0; chip.blocks().len()];
        assert_eq!(model.factors_built(), 0, "building the model factors nothing");
        let a = TransientSimulator::new(&model, 1.0, &idle).unwrap();
        let b = TransientSimulator::new(&model, 1.0, &idle).unwrap();
        assert!(Arc::ptr_eq(&a.chol, &b.chol));
        // The transient factor and the DC factor of the initial condition.
        assert_eq!(model.factors_built(), 2);
        let c = TransientSimulator::with_method(&model, 1.0, &idle, Integration::Trapezoidal)
            .unwrap();
        let d = TransientSimulator::new(&model, 2.0, &idle).unwrap();
        assert!(!Arc::ptr_eq(&a.chol, &c.chol) && !Arc::ptr_eq(&a.chol, &d.chol));
        assert_eq!(model.factors_built(), 4);
        // A clone shares what was built.
        let copy = model.clone();
        let e = TransientSimulator::new(&copy, 1.0, &idle).unwrap();
        assert!(Arc::ptr_eq(&a.chol, &e.chol));
        assert_eq!(copy.factors_built(), 4);
    }

    fn setup() -> (ChipFloorplan, GridModel) {
        let chip = ChipFloorplan::new(&ChipConfig::small_test()).unwrap();
        let model = GridModel::build(&chip, &GridConfig::default()).unwrap();
        (chip, model)
    }

    #[test]
    fn zero_load_stays_at_vdd() {
        let (chip, model) = setup();
        let idle = vec![0.0; chip.blocks().len()];
        let mut sim = TransientSimulator::new(&model, 1.0, &idle).unwrap();
        for _ in 0..50 {
            sim.step(&idle).unwrap();
        }
        for &v in sim.voltages() {
            assert!((v - 1.0).abs() < 1e-9, "voltage drifted: {v}");
        }
    }

    #[test]
    fn constant_load_converges_to_dc() {
        let (chip, model) = setup();
        let currents: Vec<f64> = chip
            .blocks()
            .iter()
            .map(|b| 0.5 * b.nominal_power())
            .collect();
        let idle = vec![0.0; chip.blocks().len()];
        // Start at the idle operating point, then apply a constant load;
        // the transient must settle to the loaded DC solution.
        let mut sim = TransientSimulator::new(&model, 1.0, &idle).unwrap();
        for _ in 0..3000 {
            sim.step(&currents).unwrap();
        }
        let dc = model.dc_solve(&currents).unwrap();
        for (v, d) in sim.voltages().iter().zip(&dc) {
            assert!((v - d).abs() < 1e-4, "transient {v} vs dc {d}");
        }
    }

    #[test]
    fn step_load_causes_inductive_undershoot_when_underdamped() {
        // The default pads are overdamped (L/R well below one timestep),
        // so verify the inductor companion model on an explicitly
        // underdamped configuration: large L, small R.
        let chip = ChipFloorplan::new(&ChipConfig::small_test()).unwrap();
        let cfg =
            GridConfig { pad_inductance_nh: 4.0, pad_resistance: 0.15, ..Default::default() };
        let model = GridModel::build(&chip, &cfg).unwrap();
        let idle = vec![0.0; chip.blocks().len()];
        let full: Vec<f64> = chip.blocks().iter().map(|b| b.nominal_power()).collect();
        let mut sim = TransientSimulator::new(&model, 1.0, &idle).unwrap();
        // Apply the step and track the minimum voltage over time.
        let mut global_min = f64::INFINITY;
        for _ in 0..4000 {
            let v = sim.step(&full).unwrap();
            let m = v.iter().copied().fold(f64::INFINITY, f64::min);
            global_min = global_min.min(m);
        }
        let dc = model.dc_solve(&full).unwrap();
        let dc_min = dc.iter().copied().fold(f64::INFINITY, f64::min);
        // The di/dt event must undershoot the final DC level (inductive
        // droop), the first-droop phenomenon the paper monitors.
        assert!(
            global_min < dc_min - 1e-3,
            "no inductive undershoot: transient min {global_min}, dc min {dc_min}"
        );
    }

    #[test]
    fn resistive_pads_have_no_undershoot() {
        let (chip, _) = setup();
        let cfg = GridConfig { pad_inductance_nh: 0.0, ..Default::default() };
        let model = GridModel::build(&chip, &cfg).unwrap();
        let idle = vec![0.0; chip.blocks().len()];
        let full: Vec<f64> = chip.blocks().iter().map(|b| b.nominal_power()).collect();
        let mut sim = TransientSimulator::new(&model, 1.0, &idle).unwrap();
        let mut global_min = f64::INFINITY;
        for _ in 0..2000 {
            let v = sim.step(&full).unwrap();
            global_min = global_min.min(v.iter().copied().fold(f64::INFINITY, f64::min));
        }
        let dc = model.dc_solve(&full).unwrap();
        let dc_min = dc.iter().copied().fold(f64::INFINITY, f64::min);
        // RC-only networks approach DC monotonically (no ringing): the
        // transient never dips measurably below the final DC level.
        assert!(global_min >= dc_min - 1e-6);
    }

    /// Runs a smooth raised-cosine load ramp (0 → 20 mA per block over
    /// 10 ns) and returns the voltage of node 0 after `t_ns` nanoseconds.
    /// The smooth input avoids exciting the grid's sub-timestep stiff RC
    /// modes, so integration error is dominated by the resolvable pad
    /// dynamics and the schemes' order is observable.
    fn node0_after(
        model: &GridModel,
        blocks: usize,
        method: Integration,
        dt_ns: f64,
        t_ns: f64,
    ) -> f64 {
        let idle = vec![0.0; blocks];
        let mut sim = TransientSimulator::with_method(model, dt_ns, &idle, method).unwrap();
        let steps = (t_ns / dt_ns).round() as usize;
        let ramp_ns = 10.0;
        let mut currents = vec![0.0; blocks];
        let mut v0 = 0.0;
        for s in 0..steps {
            let t = (s + 1) as f64 * dt_ns;
            let scale = if t >= ramp_ns {
                1.0
            } else {
                0.5 * (1.0 - (std::f64::consts::PI * t / ramp_ns).cos())
            };
            for c in currents.iter_mut() {
                *c = 0.02 * scale;
            }
            v0 = sim.step(&currents).unwrap()[0];
        }
        v0
    }

    #[test]
    fn trapezoidal_matches_be_steady_state() {
        let (chip, model) = setup();
        let currents: Vec<f64> = chip
            .blocks()
            .iter()
            .map(|b| 0.4 * b.nominal_power())
            .collect();
        let idle = vec![0.0; chip.blocks().len()];
        let mut be = TransientSimulator::new(&model, 1.0, &idle).unwrap();
        let mut tr =
            TransientSimulator::with_method(&model, 1.0, &idle, Integration::Trapezoidal)
                .unwrap();
        for _ in 0..3000 {
            be.step(&currents).unwrap();
            tr.step(&currents).unwrap();
        }
        for (a, b) in be.voltages().iter().zip(tr.voltages()) {
            assert!((a - b).abs() < 1e-4, "BE {a} vs trapezoidal {b}");
        }
    }

    /// An underdamped configuration whose pad-inductor ringing period
    /// (tens of ns) is well resolved by a 1 ns step — the regime where the
    /// order of the integrator is visible. (On the stiff default grid,
    /// whose RC constants sit far *below* the timestep, L-stable BE is the
    /// better choice and trapezoidal rings; that is exactly why BE is the
    /// default.)
    fn underdamped_model(chip: &ChipFloorplan) -> GridModel {
        let cfg =
            GridConfig { pad_inductance_nh: 4.0, pad_resistance: 0.15, ..Default::default() };
        GridModel::build(chip, &cfg).unwrap()
    }

    #[test]
    fn trapezoidal_is_more_accurate_than_be_on_resolved_dynamics() {
        let chip = ChipFloorplan::new(&ChipConfig::small_test()).unwrap();
        let model = underdamped_model(&chip);
        let blocks = chip.blocks().len();
        let t_probe = 14.0; // ns: mid-ring after the load step
        let reference = node0_after(&model, blocks, Integration::Trapezoidal, 0.05, t_probe);
        let be_err =
            (node0_after(&model, blocks, Integration::BackwardEuler, 1.0, t_probe) - reference)
                .abs();
        let tr_err =
            (node0_after(&model, blocks, Integration::Trapezoidal, 1.0, t_probe) - reference)
                .abs();
        assert!(
            tr_err < be_err,
            "trapezoidal error {tr_err:.3e} not below BE error {be_err:.3e}"
        );
    }

    #[test]
    fn be_converges_as_dt_shrinks() {
        let chip = ChipFloorplan::new(&ChipConfig::small_test()).unwrap();
        let model = underdamped_model(&chip);
        let blocks = chip.blocks().len();
        let t_probe = 14.0;
        let reference = node0_after(&model, blocks, Integration::Trapezoidal, 0.05, t_probe);
        let coarse =
            (node0_after(&model, blocks, Integration::BackwardEuler, 1.0, t_probe) - reference)
                .abs();
        let fine =
            (node0_after(&model, blocks, Integration::BackwardEuler, 0.25, t_probe) - reference)
                .abs();
        assert!(fine < coarse, "BE did not converge: {fine:.3e} vs {coarse:.3e}");
    }

    #[test]
    fn invalid_timestep_rejected() {
        let (chip, model) = setup();
        let idle = vec![0.0; chip.blocks().len()];
        assert!(TransientSimulator::new(&model, 0.0, &idle).is_err());
        assert!(TransientSimulator::new(&model, f64::NAN, &idle).is_err());
    }

    #[test]
    fn wrong_current_len_rejected() {
        let (chip, model) = setup();
        let idle = vec![0.0; chip.blocks().len()];
        let mut sim = TransientSimulator::new(&model, 1.0, &idle).unwrap();
        assert!(sim.step(&[1.0]).is_err());
    }

    #[test]
    fn time_advances() {
        let (chip, model) = setup();
        let idle = vec![0.0; chip.blocks().len()];
        let mut sim = TransientSimulator::new(&model, 2.0, &idle).unwrap();
        sim.step(&idle).unwrap();
        sim.step(&idle).unwrap();
        assert!((sim.time_s() - 4e-9).abs() < 1e-18);
    }
}
