//! Order statistics, stage reconciliation and process memory.

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`).
/// Returns `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank, lower middle for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One named stage of an end-to-end operation and the time it took.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Metric name of the stage.
    pub name: &'static str,
    /// Time attributed to the stage, in the unit of the total.
    pub value: f64,
}

/// A breakdown of one end-to-end number into stages plus the named
/// residual that the stages do not cover.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    /// The end-to-end number being explained.
    pub total: f64,
    /// The attributed stages.
    pub stages: Vec<Stage>,
    /// `total - Σ stages`: time no stage claims.
    pub residual: f64,
}

impl Budget {
    /// Builds the budget: the residual is whatever the stages leave of
    /// `total`.
    pub fn new(total: f64, stages: Vec<Stage>) -> Budget {
        let attributed: f64 = stages.iter().map(|s| s.value).sum();
        Budget {
            total,
            residual: total - attributed,
            stages,
        }
    }

    /// Checks that stages plus residual give back the total (to rounding),
    /// that no stage is negative or non-finite, and that the stages do not
    /// overshoot the total: a negative residual means some time was
    /// counted twice.
    pub fn reconciles(&self) -> bool {
        let tolerance = 1e-9 * self.total.abs().max(1.0);
        let attributed: f64 = self.stages.iter().map(|s| s.value).sum();
        let sum = attributed + self.residual;
        self.stages
            .iter()
            .all(|s| s.value.is_finite() && s.value >= 0.0)
            && self.total.is_finite()
            && self.residual >= -tolerance
            && (sum - self.total).abs() <= tolerance
    }
}

/// Work done inside a parallel region, expressed as wall time: the busy
/// time summed over workers divided by the pool width. What the region's
/// wall clock has beyond the stages' shares is pool imbalance and lands in
/// the residual.
pub fn wall_share(busy_total: f64, pool_width: usize) -> f64 {
    busy_total / pool_width.max(1) as f64
}

/// A field of `/proc/self/status` in MiB (`VmHWM` is the peak resident
/// set, `VmRSS` the current one). `None` where the file does not exist.
pub fn proc_status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert_eq!(median(&[1.0, 2.0]), 1.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn budget_residual_closes_the_sum() {
        let b = Budget::new(
            100.0,
            vec![
                Stage {
                    name: "a",
                    value: 60.0,
                },
                Stage {
                    name: "b",
                    value: 25.5,
                },
            ],
        );
        assert_eq!(b.residual, 14.5);
        assert!(b.reconciles());
        let total: f64 = b.stages.iter().map(|s| s.value).sum::<f64>() + b.residual;
        assert_eq!(total, b.total);
    }

    #[test]
    fn budget_rejects_a_tampered_residual_or_negative_stage() {
        let mut b = Budget::new(
            10.0,
            vec![Stage {
                name: "a",
                value: 4.0,
            }],
        );
        b.residual += 0.5;
        assert!(!b.reconciles());
        let neg = Budget::new(
            10.0,
            vec![Stage {
                name: "a",
                value: -1.0,
            }],
        );
        assert!(!neg.reconciles());
    }

    #[test]
    fn overlapping_stages_show_as_negative_residual() {
        // Stages that double count (e.g. summed busy time of two workers
        // reported as wall time) overshoot the total.
        let b = Budget::new(
            10.0,
            vec![Stage {
                name: "busy",
                value: 16.0,
            }],
        );
        assert!(b.residual < 0.0);
        assert!(!b.reconciles());
        // Dividing by the pool width restores a wall-time share.
        let fixed = Budget::new(
            10.0,
            vec![Stage {
                name: "busy",
                value: wall_share(16.0, 2),
            }],
        );
        assert_eq!(fixed.residual, 2.0);
        assert!(fixed.reconciles());
    }
}
