//! Table 2 — ME/WAE/TE per benchmark with 2 sensors per core, Eagle-Eye
//! vs. the proposed approach.
//!
//! Paper shape: the proposed approach roughly halves ME and TE on every
//! benchmark; WAE is below ~1e-3 for both and does not dominate.
//!
//! Run with: `cargo run --release -p voltsense-bench --bin table2_error_rates`

use voltsense::core::{detection, MethodologyConfig};
use voltsense::eagleeye::{EagleEyeConfig, EagleEyePlacement};
use voltsense::scenario::PerCoreModel;
use voltsense_bench::{fmt_rate, rule, Experiment, NUM_BENCHMARKS};

fn main() {
    // Always-on flight recorder (the production posture; also serves
    // VOLTSENSE_TELEMETRY exports and VOLTSENSE_TELEMETRY_ADDR scrapes).
    let _telemetry = voltsense::telemetry::init_always_on("table2_error_rates");
    let exp = Experiment::from_env();
    let config = MethodologyConfig::default();
    let threshold = config.emergency_threshold;

    // Proposed: 2 sensors per core. Eagle-Eye: the same total budget.
    let proposed = PerCoreModel::fit_with_sensor_count(&exp.train, &exp.partition, 2, &config)
        .expect("proposed fit");
    let q_total = proposed.total_sensors();
    let eagle = EagleEyePlacement::place(&exp.train.x, &exp.train.f, q_total, &EagleEyeConfig::default())
        .expect("eagle-eye placement");
    println!(
        "budget: {} sensors total ({} cores x ~2)\n",
        q_total,
        exp.partition.num_cores()
    );

    println!(
        "{:<6} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}   {:>6}",
        "", "Eagle-Eye", "", "", "Proposed", "", "", ""
    );
    println!(
        "{:<6} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}   {:>6}",
        "BM", "ME", "WAE", "TE", "ME", "WAE", "TE", "#emerg"
    );
    rule(78);

    let mut wins = 0;
    let mut comparable = 0;
    let mut rows = Vec::new();
    for bm in 0..NUM_BENCHMARKS {
        let sub = exp.test.benchmark_subset(bm);
        if sub.num_samples() == 0 {
            continue;
        }
        let truth = detection::ground_truth(&sub.f, threshold);
        let e_alarms = eagle.detect_matrix(&sub.x).expect("eagle detect");
        let p_alarms = proposed.detect_matrix(&sub.x).expect("proposed detect");
        let e = detection::evaluate(&truth, &e_alarms).expect("evaluate");
        let p = detection::evaluate(&truth, &p_alarms).expect("evaluate");
        println!(
            "BM{:<4} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}   {:>6}",
            bm + 1,
            fmt_rate(e.miss_rate),
            fmt_rate(e.wrong_alarm_rate),
            fmt_rate(e.total_error_rate),
            fmt_rate(p.miss_rate),
            fmt_rate(p.wrong_alarm_rate),
            fmt_rate(p.total_error_rate),
            e.emergencies,
        );
        if e.emergencies > 0 {
            comparable += 1;
            if p.total_error_rate <= e.total_error_rate {
                wins += 1;
            }
        }
        rows.push((e, p));
    }
    rule(78);

    // Aggregates over all benchmarks with emergencies.
    let agg = |sel: fn(&detection::DetectionOutcome) -> f64, which: usize| {
        let vals: Vec<f64> = rows
            .iter()
            .filter(|(e, _)| e.emergencies > 0)
            .map(|(e, p)| if which == 0 { sel(e) } else { sel(p) })
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let me_e = agg(|o| o.miss_rate, 0);
    let me_p = agg(|o| o.miss_rate, 1);
    let te_e = agg(|o| o.total_error_rate, 0);
    let te_p = agg(|o| o.total_error_rate, 1);
    println!(
        "mean   {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        fmt_rate(me_e),
        fmt_rate(agg(|o| o.wrong_alarm_rate, 0)),
        fmt_rate(te_e),
        fmt_rate(me_p),
        fmt_rate(agg(|o| o.wrong_alarm_rate, 1)),
        fmt_rate(te_p),
    );
    println!(
        "\nproposed TE <= eagle-eye TE on {wins}/{comparable} emergency-bearing \
         benchmarks; mean ME ratio {:.2}, mean TE ratio {:.2}\n\
         (paper shape: proposed ME and TE about half of Eagle-Eye's)",
        me_p / me_e.max(1e-12),
        te_p / te_e.max(1e-12)
    );
}
