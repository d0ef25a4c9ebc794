use voltsense_floorplan::{BlockId, ChipFloorplan, NodeId, NodeSite};
use voltsense_linalg::Matrix;
use voltsense_powergrid::SampledMaps;

use super::ScenarioError;

/// Where sensor candidates may live.
///
/// The paper restricts sensors to the blank area but notes "it is possible
/// for the designers to place the sensors inside the function area, to
/// further improve the prediction accuracy"; [`SensorSites::Anywhere`]
/// implements that extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SensorSites {
    /// Blank-area lattice nodes only (the paper's setting).
    #[default]
    BlankAreaOnly,
    /// Every lattice node, including function-area nodes.
    Anywhere,
}

/// Options for dataset assembly.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectOptions {
    /// Noise-critical representatives chosen per block (worst-first). The
    /// paper uses one but notes the model trivially extends to more.
    pub representatives_per_block: usize,
    /// Candidate site policy.
    pub sensor_sites: SensorSites,
}

impl Default for CollectOptions {
    fn default() -> Self {
        CollectOptions {
            representatives_per_block: 1,
            sensor_sites: SensorSites::BlankAreaOnly,
        }
    }
}

/// The assembled training/evaluation dataset of an experiment: the paper's
/// `X` (sensor-candidate voltages, `M x N`) and `F` (critical-node
/// voltages, `K x N`), plus bookkeeping.
#[derive(Debug, Clone)]
pub struct ScenarioData {
    /// Candidate voltages, one row per candidate node (`M x N`).
    pub x: Matrix,
    /// Critical-node voltages (`K x N`; `K` = blocks × representatives).
    pub f: Matrix,
    /// The lattice node behind each candidate row of `x`.
    pub candidate_nodes: Vec<NodeId>,
    /// The chosen critical node behind each row of `f`.
    pub critical_nodes: Vec<NodeId>,
    /// The function block each row of `f` belongs to.
    pub row_blocks: Vec<BlockId>,
    /// Benchmark index each sample (column) came from.
    pub sample_benchmark: Vec<usize>,
}

/// The waveforms of `nodes` across every benchmark: row `i` is node
/// `nodes[i]`'s samples from each benchmark in turn. The matrix is sized
/// once and filled in place, so assembly holds only the maps and the
/// result (the design path's memory peak, DESIGN.md §5).
fn concat_node_rows(maps: &[(usize, SampledMaps)], nodes: &[NodeId]) -> Matrix {
    let total: usize = maps.iter().map(|(_, m)| m.num_samples()).sum();
    let mut data = Vec::with_capacity(nodes.len() * total);
    for node in nodes {
        for (_, m) in maps {
            data.extend_from_slice(m.maps().row(node.0));
        }
    }
    Matrix::from_vec(nodes.len(), total, data).expect("one row of `total` samples per node")
}

impl ScenarioData {
    /// Assembles the dataset from per-benchmark voltage maps.
    ///
    /// Critical nodes are picked per block as the node with the lowest
    /// voltage observed across *all* maps, then `X`/`F` are filled with
    /// each benchmark's samples as a column block, in `maps` order.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Inconsistent`] if `maps` is empty or the
    /// maps disagree on the node count.
    pub fn assemble(
        chip: &ChipFloorplan,
        maps: &[(usize, SampledMaps)],
    ) -> Result<Self, ScenarioError> {
        Self::assemble_with(chip, maps, &CollectOptions::default())
    }

    /// As [`ScenarioData::assemble`] with explicit options (multiple
    /// representatives per block and/or function-area sensor sites).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Inconsistent`] for empty input, mismatched
    /// grids, or zero representatives.
    pub fn assemble_with(
        chip: &ChipFloorplan,
        maps: &[(usize, SampledMaps)],
        options: &CollectOptions,
    ) -> Result<Self, ScenarioError> {
        if options.representatives_per_block == 0 {
            return Err(ScenarioError::Inconsistent {
                what: "representatives_per_block must be at least 1".into(),
            });
        }
        let (_, first) = maps.first().ok_or_else(|| ScenarioError::Inconsistent {
            what: "no benchmarks collected".into(),
        })?;
        let num_nodes = first.num_nodes();
        if maps.iter().any(|(_, m)| m.num_nodes() != num_nodes) {
            return Err(ScenarioError::Inconsistent {
                what: "benchmarks sampled on different grids".into(),
            });
        }

        // Global per-node minimum over all benchmarks → critical nodes.
        let lattice = chip.lattice();
        let blocks = chip.blocks();
        let mut node_min = vec![f64::INFINITY; num_nodes];
        for (_, m) in maps {
            for (node, nm) in node_min.iter_mut().enumerate() {
                for &v in m.maps().row(node) {
                    if v < *nm {
                        *nm = v;
                    }
                }
            }
        }
        let mut critical_nodes = Vec::new();
        let mut row_blocks = Vec::new();
        for b in blocks {
            let mut nodes: Vec<NodeId> = lattice.nodes_in_block(b.id()).to_vec();
            nodes.sort_by(|a, b| {
                node_min[a.0].total_cmp(&node_min[b.0])
            });
            // Worst-first; a block with fewer nodes than requested
            // representatives contributes what it has.
            for &n in nodes.iter().take(options.representatives_per_block) {
                critical_nodes.push(n);
                row_blocks.push(b.id());
            }
        }

        // Candidate set per the site policy.
        let candidate_nodes: Vec<NodeId> = match options.sensor_sites {
            SensorSites::BlankAreaOnly => lattice.candidate_sites().to_vec(),
            SensorSites::Anywhere => lattice.iter().map(|(id, _)| id).collect(),
        };

        let x = concat_node_rows(maps, &candidate_nodes);
        let f = concat_node_rows(maps, &critical_nodes);
        let sample_benchmark = maps
            .iter()
            .flat_map(|(bench, m)| std::iter::repeat_n(*bench, m.num_samples()))
            .collect();
        Ok(ScenarioData {
            x,
            f,
            candidate_nodes,
            critical_nodes,
            row_blocks,
            sample_benchmark,
        })
    }

    /// `true` if any candidate row sits inside the function area (only
    /// possible with [`SensorSites::Anywhere`]).
    pub fn has_fa_candidates(&self, chip: &ChipFloorplan) -> bool {
        self.candidate_nodes
            .iter()
            .any(|&n| matches!(chip.lattice().site(n), NodeSite::FunctionArea(_)))
    }

    /// Number of sensor candidates `M`.
    pub fn num_candidates(&self) -> usize {
        self.x.rows()
    }

    /// Number of critical nodes `K`.
    pub fn num_blocks(&self) -> usize {
        self.f.rows()
    }

    /// Number of samples `N`.
    pub fn num_samples(&self) -> usize {
        self.x.cols()
    }

    /// Deterministic train/test split: every `holdout`-th sample goes to
    /// the test set, the rest to training. `holdout = 3` gives a 2:1
    /// split.
    ///
    /// # Panics
    ///
    /// Panics if `holdout < 2`.
    pub fn split(&self, holdout: usize) -> (ScenarioData, ScenarioData) {
        assert!(holdout >= 2, "holdout must be at least 2");
        let test_idx: Vec<usize> = (0..self.num_samples()).step_by(holdout).collect();
        let train_idx: Vec<usize> = (0..self.num_samples())
            .filter(|i| i % holdout != 0)
            .collect();
        (self.subset(&train_idx), self.subset(&test_idx))
    }

    /// Extracts the given sample columns into a new dataset.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn subset(&self, sample_indices: &[usize]) -> ScenarioData {
        ScenarioData {
            x: self.x.select_cols(sample_indices),
            f: self.f.select_cols(sample_indices),
            candidate_nodes: self.candidate_nodes.clone(),
            critical_nodes: self.critical_nodes.clone(),
            row_blocks: self.row_blocks.clone(),
            sample_benchmark: sample_indices
                .iter()
                .map(|&i| self.sample_benchmark[i])
                .collect(),
        }
    }

    /// Extracts the samples belonging to one benchmark.
    pub fn benchmark_subset(&self, benchmark: usize) -> ScenarioData {
        let idx: Vec<usize> = self
            .sample_benchmark
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == benchmark)
            .map(|(i, _)| i)
            .collect();
        self.subset(&idx)
    }

    /// Restricts the dataset to subsets of candidates and blocks (used for
    /// per-core fitting). Indices are rows of `x`/`f` respectively.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn restrict(&self, candidate_rows: &[usize], block_rows: &[usize]) -> ScenarioData {
        ScenarioData {
            x: self.x.select_rows(candidate_rows),
            f: self.f.select_rows(block_rows),
            candidate_nodes: candidate_rows
                .iter()
                .map(|&c| self.candidate_nodes[c])
                .collect(),
            critical_nodes: block_rows
                .iter()
                .map(|&k| self.critical_nodes[k])
                .collect(),
            row_blocks: block_rows.iter().map(|&k| self.row_blocks[k]).collect(),
            sample_benchmark: self.sample_benchmark.clone(),
        }
    }
}
