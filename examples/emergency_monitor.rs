//! Runtime emergency monitoring: deploy the fitted model as an online
//! detector and stream unseen voltage maps through it, comparing against a
//! direct-threshold Eagle-Eye deployment with the same sensor budget.
//! Then a sensor dies mid-trace (stuck at 0.80 V) and the naive and
//! fault-aware monitors part ways.
//!
//! Run with: `cargo run --release --example emergency_monitor`

use voltsense::core::{detection, EmergencyMonitor, FaultPolicy, Methodology, MethodologyConfig};
use voltsense::eagleeye::{EagleEyeConfig, EagleEyePlacement};
use voltsense::faults::{FaultEvent, FaultInjector, FaultKind, FaultSchedule};
use voltsense::scenario::Scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Always-on observability (DESIGN.md §7): a flight recorder runs for
    // the whole process and freezes into incident files when a monitor
    // trips. VOLTSENSE_TELEMETRY additionally exports a full snapshot +
    // Chrome trace on drop; VOLTSENSE_TELEMETRY_ADDR serves live
    // /metrics and /snapshot scrapes (see README).
    let _telemetry = voltsense::telemetry::init_always_on("emergency_monitor");
    let scenario = Scenario::small()?;

    // Train on four benchmarks; monitor a *different* one (x264, the most
    // gating-heavy of the suite).
    let train = scenario.collect(&[0, 3, 6, 9])?;
    let monitor = scenario.collect(&[12])?;
    let config = MethodologyConfig {
        lambda: 10.0,
        ..MethodologyConfig::default()
    };
    let fitted = Methodology::fit(&train.x, &train.f, &config)?;
    let q = fitted.sensors().len();

    let eagle = EagleEyePlacement::place(&train.x, &train.f, q, &EagleEyeConfig::default())?;
    println!(
        "deployed {} sensors; monitoring benchmark {} ({} samples)",
        q,
        scenario.suite()[12],
        monitor.num_samples()
    );

    // Stream samples one at a time, as a runtime monitor would.
    let threshold = fitted.emergency_threshold();
    let mut events = Vec::new();
    let mut proposed_alarms = Vec::new();
    let mut eagle_alarms = Vec::new();
    for s in 0..monitor.num_samples() {
        let candidates = monitor.x.col(s);
        let truth = (0..monitor.f.rows()).any(|k| monitor.f[(k, s)] < threshold);
        let alarm = fitted.model().detect(&candidates, threshold)?;
        let eagle_alarm = eagle.detect(&candidates);
        if truth || alarm || eagle_alarm {
            events.push((s, truth, alarm, eagle_alarm));
        }
        proposed_alarms.push(alarm);
        eagle_alarms.push(eagle_alarm);
    }

    println!("\nevent log (sample, real emergency, proposed alarm, eagle-eye alarm):");
    for (s, truth, alarm, eagle_alarm) in events.iter().take(15) {
        println!(
            "  #{s:<5} real={} proposed={} eagle={}",
            mark(*truth),
            mark(*alarm),
            mark(*eagle_alarm)
        );
    }
    if events.len() > 15 {
        println!("  … and {} more events", events.len() - 15);
    }

    let truth: Vec<bool> = (0..monitor.num_samples())
        .map(|s| (0..monitor.f.rows()).any(|k| monitor.f[(k, s)] < threshold))
        .collect();
    let ours = detection::evaluate(&truth, &proposed_alarms)?;
    let theirs = detection::evaluate(&truth, &eagle_alarms)?;
    println!("\n            {:>10} {:>10} {:>10}", "ME", "WAE", "TE");
    println!(
        "proposed    {:>10.4} {:>10.4} {:>10.4}",
        ours.miss_rate, ours.wrong_alarm_rate, ours.total_error_rate
    );
    println!(
        "eagle-eye   {:>10.4} {:>10.4} {:>10.4}",
        theirs.miss_rate, theirs.wrong_alarm_rate, theirs.total_error_rate
    );

    // --- A sensor dies mid-trace -------------------------------------
    // A quarter of the way in, the first placed sensor sticks at 0.80 V
    // (below the emergency threshold, so a threshold-style monitor pins
    // its alarm on). Stream the same corrupted readings through a naive
    // and a fault-aware monitor.
    let onset = monitor.num_samples() as u64 / 4;
    let stuck = FaultKind::StuckAt { value: 0.80 };
    let schedule = FaultSchedule::new(vec![FaultEvent::new(0, onset, stuck)])?;
    let mut injector = FaultInjector::new(schedule, q, 7)?;
    println!(
        "\nsensor {} sticks at 0.80 V from sample {onset}:",
        fitted.sensors()[0]
    );

    let ft_model = fitted.fault_tolerant_model(&train.x, &train.f)?;
    let mut aware =
        EmergencyMonitor::fault_tolerant(ft_model, threshold, 1, 0.0, FaultPolicy::default())?;
    let mut naive = EmergencyMonitor::new(fitted.model().clone(), threshold, 1, 0.0)?;
    let mut aware_alarms = Vec::new();
    let mut naive_alarms = Vec::new();
    for s in 0..monitor.num_samples() {
        let readings: Vec<f64> = fitted.sensors().iter().map(|&m| monitor.x[(m, s)]).collect();
        let corrupted = injector.corrupt(&readings)?;
        aware_alarms.push(aware.observe(&corrupted).map(|d| d.alarm).unwrap_or(false));
        naive_alarms.push(naive.observe(&corrupted).map(|d| d.alarm).unwrap_or(false));
    }
    let aware_out = detection::evaluate(&truth, &aware_alarms)?;
    let naive_out = detection::evaluate(&truth, &naive_alarms)?;
    println!("fault-aware {:>10.4} {:>10.4} {:>10.4}   (failed sensor positions: {:?})",
        aware_out.miss_rate,
        aware_out.wrong_alarm_rate,
        aware_out.total_error_rate,
        aware.failed_sensors()
    );
    println!(
        "naive       {:>10.4} {:>10.4} {:>10.4}",
        naive_out.miss_rate, naive_out.wrong_alarm_rate, naive_out.total_error_rate
    );
    println!(
        "\nthe fault-aware monitor flagged the stuck sensor and hot-swapped to \
         the leave-it-out model; the naive monitor trusted it."
    );
    Ok(())
}

fn mark(b: bool) -> &'static str {
    if b {
        "YES"
    } else {
        " — "
    }
}
