//! Fig. 1 — `‖β_m‖₂` for the sensor candidates of one core, at λ = 10 and
//! λ = 30.
//!
//! Paper shape: most candidates sit at ~1e-5…1e-10 while the selected few
//! are orders of magnitude above the threshold T = 1e-3, so the threshold
//! separates them trivially.
//!
//! Run with: `cargo run --release -p voltsense-bench --bin fig1_beta_norms`

use voltsense::core::SelectionProblem;
use voltsense::floorplan::CoreId;
use voltsense::grouplasso::GlOptions;
use voltsense_bench::{rule, Experiment};

fn main() {
    let _telemetry = voltsense::telemetry::init_from_env("fig1_beta_norms");
    let exp = Experiment::from_env();

    // One core's candidates and blocks, as in the paper's figure.
    let core = CoreId(0);
    let cand = exp.partition.candidates_of(core);
    let blocks = exp.partition.blocks_of(core);
    let sub = exp.train.restrict(cand, blocks);
    println!(
        "core {core}: {} candidates, {} blocks, {} training maps\n",
        cand.len(),
        blocks.len(),
        sub.num_samples()
    );

    // One covariance reduction; each λ is a cold selection of its own.
    let prepared = SelectionProblem::new(&sub.x, &sub.f).expect("prepared problem");
    let mut per_lambda = Vec::new();
    for lambda in [10.0, 30.0] {
        let result = prepared
            .homotopy(GlOptions::default())
            .and_then(|mut sweep| sweep.select_constrained(lambda, 1e-3))
            .expect("selection");
        println!(
            "λ = {lambda}: {} sensors selected (budget used {:.3}, μ = {:.3e})",
            result.num_selected(),
            result.budget_used,
            result.mu
        );
        per_lambda.push(result);
    }
    println!();

    // The figure: per-candidate norms under both lambdas, log-scale bands.
    println!("{:>6}  {:>12}  {:>12}", "cand", "‖β‖ (λ=10)", "‖β‖ (λ=30)");
    rule(36);
    let m = per_lambda[0].group_norms.len();
    for c in 0..m {
        let n10 = per_lambda[0].group_norms[c];
        let n30 = per_lambda[1].group_norms[c];
        if n10 > 1e-3 || n30 > 1e-3 {
            println!("{c:>6}  {n10:>12.3e}  {n30:>12.3e}   <-- selected");
        }
    }
    rule(36);

    // Band statistics of the unselected mass.
    for (label, result) in ["λ=10", "λ=30"].iter().zip(&per_lambda) {
        let mut unselected: Vec<f64> = result
            .group_norms
            .iter()
            .enumerate()
            .filter(|(c, _)| !result.selected.contains(c))
            .map(|(_, &n)| n)
            .collect();
        unselected.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = unselected.get(unselected.len() / 2).copied().unwrap_or(0.0);
        let max = unselected.last().copied().unwrap_or(0.0);
        let sel_min = result
            .selected
            .iter()
            .map(|&c| result.group_norms[c])
            .fold(f64::INFINITY, f64::min);
        let separation = if max == 0.0 {
            "infinite (BCD drives unselected groups to exact zero; the \
             paper's interior-point solver leaves 1e-5…1e-10 residuals)"
                .to_string()
        } else {
            format!("x{:.0}", sel_min / max)
        };
        println!(
            "{label}: unselected median {median:.1e}, max {max:.1e}; \
             smallest selected {sel_min:.1e}  (separation {separation})"
        );
    }
    println!(
        "\npaper shape check: selected norms >> T = 1e-3 >> unselected norms; \
         λ=30 selects more sensors than λ=10: {} vs {}",
        per_lambda[1].num_selected(),
        per_lambda[0].num_selected()
    );
}
