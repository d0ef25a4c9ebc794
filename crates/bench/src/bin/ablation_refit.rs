//! Ablation — is the OLS refit (paper Eq. 17–20) actually necessary, or
//! could one predict straight from the group-lasso coefficients (Eq. 14)?
//!
//! The paper argues (two-candidate example, Eq. 15–16) that the GL
//! coefficients are biased by the budget constraint. This experiment
//! quantifies it: same selected sensors, two prediction rules.
//!
//! Run with: `cargo run --release -p voltsense-bench --bin ablation_refit`

use voltsense::core::{metrics, GlDirectModel, SelectionProblem, VoltageMapModel};
use voltsense::grouplasso::GlOptions;
use voltsense::linalg::Matrix;
use voltsense_bench::{rule, Experiment};

fn main() {
    let _telemetry = voltsense::telemetry::init_from_env("ablation_refit");
    let exp = Experiment::from_env();
    // Build the covariance form once; each budget is a cold selection on it.
    let prepared = SelectionProblem::new(&exp.train.x, &exp.train.f).expect("prepared problem");

    println!(
        "{:>8} {:>9} {:>16} {:>16} {:>9}",
        "lambda", "sensors", "refit rel err", "direct rel err", "ratio"
    );
    rule(64);
    for lambda in [5.0, 10.0, 20.0, 40.0] {
        let selection = match prepared
            .homotopy(GlOptions::default())
            .and_then(|mut sweep| sweep.select_constrained(lambda, 1e-3))
        {
            Ok(s) => s,
            Err(e) => {
                println!("{lambda:>8} selection failed: {e}");
                continue;
            }
        };
        let q = selection.num_selected();

        // Rule A: the paper's OLS refit.
        let refit = VoltageMapModel::fit(&exp.train.x, &exp.train.f, &selection.selected)
            .expect("refit");
        let refit_pred = refit.predict_matrix(&exp.test.x).expect("predict");
        let refit_err = metrics::relative_error(&refit_pred, &exp.test.f).expect("metric");

        // Rule B: direct GL coefficients (Eq. 14).
        let direct = GlDirectModel::from_selection(selection);
        let mut direct_pred = Matrix::zeros(exp.test.f.rows(), exp.test.f.cols());
        for s in 0..exp.test.x.cols() {
            let sample = exp.test.x.col(s);
            let pred = direct.predict_from_candidates(&sample).expect("predict");
            direct_pred.set_col(s, &pred);
        }
        let direct_err = metrics::relative_error(&direct_pred, &exp.test.f).expect("metric");

        println!(
            "{lambda:>8} {q:>9} {refit_err:>16.4e} {direct_err:>16.4e} {:>9.1}x",
            direct_err / refit_err.max(1e-300)
        );
    }
    rule(64);
    println!(
        "\npaper shape: the constrained GL coefficients are biased, so the\n\
         direct rule (Eq. 14) is markedly worse at every budget — the OLS\n\
         refit is what makes the prediction model accurate. The ratio even\n\
         grows with λ: the refit converts extra sensors into accuracy while\n\
         the shrunken GL coefficients cannot."
    );
}
