//! Stateful runtime monitoring: the deployment wrapper around the fitted
//! prediction model.
//!
//! The paper evaluates per-sample detection; a real noise-management loop
//! (throttling, clock stretching — its references [6, 10–12]) adds two
//! operational details this module provides:
//!
//! * **persistence (debounce)** — require `persistence` consecutive
//!   threshold crossings before asserting, filtering single-sample blips
//!   that a hardware actuator could never react to anyway;
//! * **hysteresis** — once asserted, release only after the predicted
//!   worst voltage recovers above `threshold + release_margin`, avoiding
//!   alarm chatter around the margin.
//!
//! A monitor built with [`EmergencyMonitor::fault_tolerant`] additionally
//! defends the prediction against sensor faults (see DESIGN.md, "Fault
//! model & degradation policy"):
//!
//! * **plausibility gating** — a reading that is non-finite or outside the
//!   configured rail bounds is excluded from this sample's prediction
//!   immediately (the matching fallback model takes over) and counts one
//!   strike against the sensor;
//! * **cross-prediction health scoring** — each sensor is predicted from
//!   the other `Q − 1`; per sample, the single worst violator of its
//!   residual threshold gains a strike, every other plausible sensor's
//!   strike counter resets;
//! * **graceful degradation** — a sensor whose strikes reach
//!   `health_persistence` is permanently failed and the pre-fitted
//!   leave-one-out (or lazily fitted multi-failure) fallback model is
//!   hot-swapped in; once more than `max_failed_sensors` are lost,
//!   [`CoreError::DegradedBeyondRecovery`] is returned.

use voltsense_telemetry as telemetry;

use crate::predict::{FaultTolerantModel, VoltageMapModel};
use crate::CoreError;

/// Per-sample view of sensor health from a fault-tolerant monitor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SensorHealth {
    /// Positions (into the sensor list) permanently failed so far, sorted.
    pub failed: Vec<usize>,
    /// Positions gated out of *this* sample by plausibility checks
    /// (excludes already-failed sensors), sorted.
    pub gated: Vec<usize>,
}

impl SensorHealth {
    /// `true` when this sample's prediction used a fallback model.
    pub fn degraded(&self) -> bool {
        !self.failed.is_empty() || !self.gated.is_empty()
    }
}

/// One monitoring decision.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorDecision {
    /// Predicted worst critical-node voltage this sample (V).
    pub predicted_min: f64,
    /// Index of the block (row of `F`) predicted worst.
    pub worst_block: usize,
    /// Whether the alarm output is asserted after debounce/hysteresis.
    pub alarm: bool,
    /// `true` on the sample where the alarm transitions 0 → 1.
    pub rising_edge: bool,
    /// Sensor health this sample; `None` for a naive (non-fault-tolerant)
    /// monitor.
    pub health: Option<SensorHealth>,
}

/// Counters accumulated over a monitoring session.
///
/// Every counter is also exported as a `monitor.*` telemetry gauge on
/// **every** `observe()` call (when a recorder is active), so a live
/// `/metrics` scrape mid-run reflects current state rather than only the
/// episode-end totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MonitorStats {
    /// Samples observed.
    pub samples: u64,
    /// Samples with the alarm asserted.
    pub alarmed_samples: u64,
    /// Number of distinct alarm events (rising edges).
    pub alarm_events: u64,
    /// Readings excluded by plausibility gating (fault-tolerant monitors).
    pub gated_readings: u64,
    /// Sensors permanently failed so far (fault-tolerant monitors).
    pub sensors_failed: u64,
    /// Health strikes issued (gate strikes + attributed-culprit strikes).
    pub health_strikes: u64,
    /// Fallback-model hot swaps performed (one per newly failed sensor).
    pub hot_swaps: u64,
}

impl MonitorStats {
    /// Publish every counter as a `monitor.*` gauge.
    fn export_gauges(&self) {
        telemetry::gauge("monitor.samples", self.samples as f64);
        telemetry::gauge("monitor.alarmed_samples", self.alarmed_samples as f64);
        telemetry::gauge("monitor.alarm_events", self.alarm_events as f64);
        telemetry::gauge("monitor.gated_readings", self.gated_readings as f64);
        telemetry::gauge("monitor.sensors_failed", self.sensors_failed as f64);
        telemetry::gauge("monitor.health_strikes", self.health_strikes as f64);
        telemetry::gauge("monitor.hot_swaps", self.hot_swaps as f64);
    }
}

/// Serializable snapshot of an [`EmergencyMonitor`]'s alarm state machine.
///
/// Captures everything `observe()` mutates — debounce depth, hysteresis
/// latch, and session counters — but *not* the model (serialize that
/// separately via [`VoltageMapModel::linear_fit`] /
/// [`VoltageMapModel::from_parts`]) and not the fault-tolerance layer
/// (cross-prediction health state is rebuilt from fresh observations after
/// a restart). Produced by [`EmergencyMonitor::checkpoint`], consumed by
/// [`EmergencyMonitor::restore`]; the `voltsense-fleet` crate persists it
/// as JSON so a restarted server resumes alarms without a refit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorCheckpoint {
    /// Alarm threshold (V).
    pub threshold: f64,
    /// Debounce depth in samples.
    pub persistence: usize,
    /// Hysteresis release margin (V).
    pub release_margin: f64,
    /// Consecutive sub-threshold samples seen so far.
    pub consecutive: usize,
    /// Whether the alarm output is currently asserted (latched).
    pub asserted: bool,
    /// Accumulated session counters.
    pub stats: MonitorStats,
}

/// Configuration of the fault-tolerance layer.
///
/// The residual threshold for sensor `i` is
/// `max(residual_sigmas × cross_rms(i), min_residual)`: proportional to how
/// well the training data says sensor `i` is predictable from the others,
/// floored because noiseless training can drive `cross_rms` to ~0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// Lowest plausible reading (V); anything below is gated.
    pub rail_min: f64,
    /// Highest plausible reading (V); anything above is gated.
    pub rail_max: f64,
    /// Residual threshold in multiples of the cross-prediction training
    /// RMS.
    pub residual_sigmas: f64,
    /// Absolute floor on the residual threshold (V).
    pub min_residual: f64,
    /// Consecutive strikes before a sensor is permanently failed.
    pub health_persistence: usize,
    /// Most sensors the monitor may lose before
    /// [`CoreError::DegradedBeyondRecovery`]; clamped to `Q − 1`.
    pub max_failed_sensors: usize,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            rail_min: 0.0,
            rail_max: 1.5,
            residual_sigmas: 6.0,
            min_residual: 0.005,
            health_persistence: 3,
            max_failed_sensors: usize::MAX,
        }
    }
}

impl FaultPolicy {
    fn validate(&self) -> Result<(), CoreError> {
        if !(self.rail_min.is_finite() && self.rail_max.is_finite() && self.rail_min < self.rail_max)
        {
            return Err(CoreError::InvalidConfig {
                what: format!(
                    "rail bounds must be finite with min < max, got [{}, {}]",
                    self.rail_min, self.rail_max
                ),
            });
        }
        if !self.residual_sigmas.is_finite() || self.residual_sigmas <= 0.0 {
            return Err(CoreError::InvalidConfig {
                what: format!(
                    "residual_sigmas must be finite and > 0, got {}",
                    self.residual_sigmas
                ),
            });
        }
        if !self.min_residual.is_finite() || self.min_residual < 0.0 {
            return Err(CoreError::InvalidConfig {
                what: format!(
                    "min_residual must be finite and >= 0, got {}",
                    self.min_residual
                ),
            });
        }
        if self.health_persistence == 0 {
            return Err(CoreError::InvalidConfig {
                what: "health_persistence must be at least 1 sample".into(),
            });
        }
        Ok(())
    }
}

/// State of the fault-tolerance layer inside a monitor.
#[derive(Debug, Clone)]
struct FaultState {
    model: FaultTolerantModel,
    policy: FaultPolicy,
    /// Per-sensor consecutive strike counters.
    strikes: Vec<usize>,
    /// Per-sensor permanent failure flags.
    failed: Vec<bool>,
}

/// A stateful emergency monitor around a fitted [`VoltageMapModel`].
///
/// # Example
///
/// ```
/// use voltsense_linalg::Matrix;
/// use voltsense_core::{VoltageMapModel, monitor::EmergencyMonitor};
///
/// # fn main() -> Result<(), voltsense_core::CoreError> {
/// let x = Matrix::from_rows(&[&[0.99, 0.84, 0.93, 0.88]])?;
/// let f = Matrix::from_rows(&[&[0.98, 0.82, 0.91, 0.86]])?;
/// let model = VoltageMapModel::fit(&x, &f, &[0])?;
/// // Alarm immediately (persistence 1), release 10 mV above threshold.
/// let mut monitor = EmergencyMonitor::new(model, 0.85, 1, 0.010)?;
/// let decision = monitor.observe(&[0.83])?;
/// assert!(decision.alarm && decision.rising_edge);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EmergencyMonitor {
    model: VoltageMapModel,
    threshold: f64,
    persistence: usize,
    release_margin: f64,
    consecutive: usize,
    asserted: bool,
    stats: MonitorStats,
    fault: Option<FaultState>,
    /// Prediction scratch (length `K`) so the naive per-reading path stays
    /// allocation-free at steady state (pinned by the fleet `alloc_gate`).
    scratch: Vec<f64>,
}

impl EmergencyMonitor {
    /// Creates a monitor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `threshold` is not positive
    /// and finite, `persistence` is zero, or `release_margin` is negative.
    pub fn new(
        model: VoltageMapModel,
        threshold: f64,
        persistence: usize,
        release_margin: f64,
    ) -> Result<Self, CoreError> {
        if !threshold.is_finite() || threshold <= 0.0 {
            return Err(CoreError::InvalidConfig {
                what: format!("threshold must be finite and > 0, got {threshold}"),
            });
        }
        if persistence == 0 {
            return Err(CoreError::InvalidConfig {
                what: "persistence must be at least 1 sample".into(),
            });
        }
        if !release_margin.is_finite() || release_margin < 0.0 {
            return Err(CoreError::InvalidConfig {
                what: format!("release margin must be finite and >= 0, got {release_margin}"),
            });
        }
        let scratch = vec![0.0; model.num_targets()];
        Ok(EmergencyMonitor {
            model,
            threshold,
            persistence,
            release_margin,
            consecutive: 0,
            asserted: false,
            stats: MonitorStats::default(),
            fault: None,
            scratch,
        })
    }

    /// Creates a fault-tolerant monitor: readings are plausibility-gated,
    /// sensor health is scored by cross-prediction, and predictions
    /// hot-swap to the matching fallback model as sensors fail.
    ///
    /// # Errors
    ///
    /// Same configuration conditions as [`EmergencyMonitor::new`], plus
    /// [`CoreError::InvalidConfig`] for an out-of-range [`FaultPolicy`].
    pub fn fault_tolerant(
        model: FaultTolerantModel,
        threshold: f64,
        persistence: usize,
        release_margin: f64,
        policy: FaultPolicy,
    ) -> Result<Self, CoreError> {
        policy.validate()?;
        let q = model.num_sensors();
        let mut monitor =
            EmergencyMonitor::new(model.primary().clone(), threshold, persistence, release_margin)?;
        monitor.fault = Some(FaultState {
            model,
            policy,
            strikes: vec![0; q],
            failed: vec![false; q],
        });
        Ok(monitor)
    }

    /// Restores a monitor from a checkpointed state machine and a
    /// reconstructed model: the monitor picks up exactly where
    /// [`EmergencyMonitor::checkpoint`] froze it — a latched alarm stays
    /// latched, debounce progress is preserved, counters continue.
    ///
    /// # Errors
    ///
    /// Same configuration conditions as [`EmergencyMonitor::new`] (the
    /// checkpointed configuration is re-validated, so a hand-edited
    /// checkpoint cannot smuggle in an invalid monitor). `consecutive` is
    /// clamped to `persistence` — larger values cannot occur in a monitor
    /// that produced the checkpoint.
    pub fn restore(
        model: VoltageMapModel,
        checkpoint: &MonitorCheckpoint,
    ) -> Result<Self, CoreError> {
        let mut monitor = EmergencyMonitor::new(
            model,
            checkpoint.threshold,
            checkpoint.persistence,
            checkpoint.release_margin,
        )?;
        monitor.consecutive = checkpoint.consecutive.min(checkpoint.persistence);
        monitor.asserted = checkpoint.asserted;
        monitor.stats = checkpoint.stats;
        Ok(monitor)
    }

    /// Snapshots the alarm state machine for crash-safe persistence. See
    /// [`MonitorCheckpoint`] for what is (and is not) captured.
    pub fn checkpoint(&self) -> MonitorCheckpoint {
        MonitorCheckpoint {
            threshold: self.threshold,
            persistence: self.persistence,
            release_margin: self.release_margin,
            consecutive: self.consecutive,
            asserted: self.asserted,
            stats: self.stats,
        }
    }

    /// The wrapped prediction model.
    pub fn model(&self) -> &VoltageMapModel {
        &self.model
    }

    /// `true` when the monitor carries the fault-tolerance layer.
    pub fn is_fault_tolerant(&self) -> bool {
        self.fault.is_some()
    }

    /// Positions of permanently failed sensors (empty for naive monitors).
    pub fn failed_sensors(&self) -> Vec<usize> {
        self.fault
            .as_ref()
            .map(|s| {
                s.failed
                    .iter()
                    .enumerate()
                    .filter(|&(_, &f)| f)
                    .map(|(i, _)| i)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Accumulated session counters.
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// `true` while the alarm output is asserted.
    pub fn is_alarmed(&self) -> bool {
        self.asserted
    }

    /// Resets the debounce/hysteresis state, counters, and any sensor
    /// health state.
    pub fn reset(&mut self) {
        self.consecutive = 0;
        self.asserted = false;
        self.stats = MonitorStats::default();
        if let Some(state) = self.fault.as_mut() {
            state.strikes.iter_mut().for_each(|s| *s = 0);
            state.failed.iter_mut().for_each(|f| *f = false);
        }
    }

    /// Feeds one sample of placed-sensor readings (`Q` values) and returns
    /// the monitoring decision.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ShapeMismatch`] if the reading count differs from the
    ///   model's sensor count.
    /// * [`CoreError::NonFiniteReading`] (naive monitors only) for a NaN or
    ///   infinite reading — rejected *before* any state change, so a
    ///   corrupted sample cannot assert or de-assert the alarm. A
    ///   fault-tolerant monitor gates such readings instead.
    /// * [`CoreError::DegradedBeyondRecovery`] (fault-tolerant monitors)
    ///   once more sensors are unusable than the policy tolerates.
    pub fn observe(&mut self, sensor_readings: &[f64]) -> Result<MonitorDecision, CoreError> {
        if self.fault.is_some() {
            self.observe_fault_aware(sensor_readings)
        } else {
            self.observe_naive(sensor_readings)
        }
    }

    fn observe_naive(&mut self, sensor_readings: &[f64]) -> Result<MonitorDecision, CoreError> {
        if let Some(bad) = sensor_readings.iter().position(|v| !v.is_finite()) {
            return Err(CoreError::NonFiniteReading { sensor: bad });
        }
        // Grows only if the model was hot-swapped to a larger `K`; a no-op
        // (and allocation-free) at steady state.
        self.scratch.resize(self.model.num_targets(), 0.0);
        self.model.predict_into(sensor_readings, &mut self.scratch)?;
        let (worst_block, predicted_min) = worst_prediction(&self.scratch);
        Ok(self.resolve_alarm(predicted_min, worst_block, None))
    }

    /// The decision half of [`EmergencyMonitor::observe`] with the
    /// prediction hoisted out: feed the `K` *already predicted*
    /// critical-node voltages and run the same min-scan, debounce, and
    /// hysteresis state machine. This is what lets the fleet batch many
    /// sessions' predictions into one GEMM and then scatter the per-row
    /// decisions back — given `predicted` bit-equal to what
    /// [`VoltageMapModel::predict_into`] would produce for a finite
    /// readings vector, the returned decision and every subsequent state
    /// transition are bit-identical to `observe` on those readings.
    ///
    /// [`VoltageMapModel::predict_into`]: crate::VoltageMapModel::predict_into
    ///
    /// # Errors
    ///
    /// * [`CoreError::ShapeMismatch`] if `predicted.len() != K`, or for a
    ///   fault-tolerant monitor — those gate per-sensor inside `observe`
    ///   and cannot accept hoisted predictions (see
    ///   [`EmergencyMonitor::batch_model`]).
    pub fn observe_prepared(&mut self, predicted: &[f64]) -> Result<MonitorDecision, CoreError> {
        if self.fault.is_some() {
            return Err(CoreError::ShapeMismatch {
                what: "observe_prepared requires a naive monitor; fault-tolerant monitors \
                       gate per-sensor readings inside observe"
                    .into(),
            });
        }
        if predicted.len() != self.model.num_targets() {
            return Err(CoreError::ShapeMismatch {
                what: format!(
                    "expected {} predicted node voltages, got {}",
                    self.model.num_targets(),
                    predicted.len()
                ),
            });
        }
        let (worst_block, predicted_min) = worst_prediction(predicted);
        Ok(self.resolve_alarm(predicted_min, worst_block, None))
    }

    /// The model a batched predictor may evaluate on this monitor's
    /// behalf, or `None` when prediction cannot be hoisted out of
    /// [`EmergencyMonitor::observe`] — fault-tolerant monitors re-derive
    /// an effective model per sample from the surviving sensor set, so
    /// they never batch.
    pub fn batch_model(&self) -> Option<&VoltageMapModel> {
        if self.fault.is_some() {
            None
        } else {
            Some(&self.model)
        }
    }

    fn observe_fault_aware(
        &mut self,
        sensor_readings: &[f64],
    ) -> Result<MonitorDecision, CoreError> {
        let state = self.fault.as_mut().expect("caller checked fault layer");
        let q = state.model.num_sensors();
        if sensor_readings.len() != q {
            return Err(CoreError::ShapeMismatch {
                what: format!("expected {q} sensor readings, got {}", sensor_readings.len()),
            });
        }

        // 1. Plausibility gate: non-finite or out-of-rail readings are
        //    excluded from this sample and strike their sensor.
        let mut gated: Vec<usize> = Vec::new();
        for (i, &v) in sensor_readings.iter().enumerate() {
            if state.failed[i] {
                continue;
            }
            if !v.is_finite() || v < state.policy.rail_min || v > state.policy.rail_max {
                gated.push(i);
            }
        }

        // 2. Cross-prediction residual scoring among the remaining
        //    sensors, using a family fitted over exactly the survivors so
        //    a dead sensor's reading never enters anyone's cross-model. A
        //    faulty sensor inflates its healthy peers' residuals too (by
        //    their cross-model weight on it, which can exceed 1), so blame
        //    is assigned by matching the residual *pattern* against each
        //    sensor's fault signature rather than by largest residual.
        let unusable_now: Vec<usize> = (0..q)
            .filter(|&i| state.failed[i] || gated.contains(&i))
            .collect();
        let mut scored: Vec<usize> = Vec::new();
        let mut culprit = None;
        if let Some(family) = state.model.cross_family(&unusable_now)? {
            let residuals = family.residuals(sensor_readings)?;
            scored = family.sensors().to_vec();
            let any_violation = residuals.iter().enumerate().any(|(local, r)| {
                let threshold_local = (state.policy.residual_sigmas * family.rms(local))
                    .max(state.policy.min_residual);
                r.abs() > threshold_local
            });
            if any_violation {
                culprit = family.attribute(&residuals);
                if culprit.is_some() {
                    telemetry::counter("monitor.fault_attributions", 1);
                }
            }
        }

        // 3. Update strikes and promote persistent offenders to failed.
        //    A gate *trip* (first strike of a streak) is an incident: the
        //    flight recorder freezes the window around it.
        let mut tripped: Vec<usize> = Vec::new();
        for &i in &gated {
            if state.strikes[i] == 0 {
                tripped.push(i);
            }
            state.strikes[i] += 1;
        }
        let mut strikes_issued = gated.len() as u64;
        for &i in &scored {
            if culprit == Some(i) {
                state.strikes[i] += 1;
                strikes_issued += 1;
            } else {
                state.strikes[i] = 0;
            }
        }
        self.stats.health_strikes += strikes_issued;
        let mut newly_failed = 0u64;
        for i in 0..q {
            if !state.failed[i] && state.strikes[i] >= state.policy.health_persistence {
                state.failed[i] = true;
                newly_failed += 1;
            }
        }
        self.stats.hot_swaps += newly_failed;
        if telemetry::enabled() {
            let striking = state.strikes.iter().filter(|&&s| s > 0).count();
            if striking > 0 {
                telemetry::counter("monitor.health_strikes", striking as u64);
            }
            if newly_failed > 0 {
                // Promoting a sensor to failed is what triggers the hot
                // swap onto a leave-it-out fallback model.
                telemetry::counter("monitor.fallback_swaps", newly_failed);
            }
        }
        if !tripped.is_empty() {
            let sample = self.stats.samples as f64;
            telemetry::event(
                "monitor.gate_trip",
                &[("sample", sample), ("sensors", tripped.len() as f64)],
            );
            let failed_now: Vec<usize> = (0..q).filter(|&i| state.failed[i]).collect();
            telemetry::incident::report(&telemetry::incident::Incident {
                kind: "plausibility_gate",
                fields: &[("sample", sample), ("tripped", tripped.len() as f64)],
                failed_sensors: &failed_now,
                gated_sensors: &tripped,
            });
        }
        if newly_failed > 0 {
            let sample = self.stats.samples as f64;
            let failed_now: Vec<usize> = (0..q).filter(|&i| state.failed[i]).collect();
            telemetry::event(
                "monitor.hot_swap",
                &[("sample", sample), ("failed_sensors", failed_now.len() as f64)],
            );
            telemetry::incident::report(&telemetry::incident::Incident {
                kind: "hot_swap",
                fields: &[("sample", sample), ("newly_failed", newly_failed as f64)],
                failed_sensors: &failed_now,
                gated_sensors: &gated,
            });
        }

        // 4. Degradation budget, then predict with the surviving sensors.
        let failed: Vec<usize> = (0..q).filter(|&i| state.failed[i]).collect();
        let allowed = state.policy.max_failed_sensors.min(q.saturating_sub(1));
        gated.retain(|i| !state.failed[*i]);
        let unusable = failed.len() + gated.len();
        if failed.len() > allowed || unusable >= q {
            self.stats.sensors_failed += newly_failed;
            telemetry::counter("monitor.degraded_beyond_recovery", 1);
            if telemetry::enabled() {
                self.stats.export_gauges();
            }
            telemetry::incident::report(&telemetry::incident::Incident {
                kind: "degraded_beyond_recovery",
                fields: &[
                    ("sample", self.stats.samples as f64),
                    ("unusable", unusable as f64),
                    ("allowed", allowed as f64),
                ],
                failed_sensors: &failed,
                gated_sensors: &gated,
            });
            return Err(CoreError::DegradedBeyondRecovery {
                failed: unusable,
                allowed,
            });
        }
        let mut excluded = failed.clone();
        excluded.extend(gated.iter().copied());
        let predicted = state.model.predict_excluding(sensor_readings, &excluded)?;
        let (worst_block, predicted_min) = worst_prediction(&predicted);

        let health = SensorHealth { failed, gated };
        self.stats.gated_readings += health.gated.len() as u64;
        self.stats.sensors_failed += newly_failed;
        if !health.gated.is_empty() {
            telemetry::counter("monitor.gated_readings", health.gated.len() as u64);
        }
        telemetry::gauge("monitor.failed_sensors", health.failed.len() as f64);
        Ok(self.resolve_alarm(predicted_min, worst_block, Some(health)))
    }

    /// Debounce/hysteresis state machine shared by both observe paths.
    fn resolve_alarm(
        &mut self,
        predicted_min: f64,
        worst_block: usize,
        health: Option<SensorHealth>,
    ) -> MonitorDecision {
        let was_asserted = self.asserted;
        if self.asserted {
            // Hysteresis: release only above threshold + margin.
            if predicted_min >= self.threshold + self.release_margin {
                self.asserted = false;
                self.consecutive = 0;
            }
        } else if predicted_min < self.threshold {
            self.consecutive += 1;
            if self.consecutive >= self.persistence {
                self.asserted = true;
            }
        } else {
            self.consecutive = 0;
        }

        let rising_edge = self.asserted && !was_asserted;
        self.stats.samples += 1;
        if self.asserted {
            self.stats.alarmed_samples += 1;
        }
        if rising_edge {
            self.stats.alarm_events += 1;
            // Latency from the first sub-threshold sample to assertion:
            // exactly the debounce depth consumed by this alarm.
            telemetry::counter("monitor.alarm_events", 1);
            telemetry::histogram("monitor.alarm_latency_steps", self.consecutive as f64, "steps");
        }
        if telemetry::enabled() {
            self.stats.export_gauges();
            telemetry::gauge("monitor.alarm_active", self.asserted as u64 as f64);
            telemetry::gauge("monitor.predicted_min_v", predicted_min);
            // One ring event per observe(); the flight recorder decimates
            // this stream so it cannot crowd out rarer events.
            telemetry::event(
                "monitor.observe",
                &[
                    ("sample", (self.stats.samples - 1) as f64),
                    ("predicted_min", predicted_min),
                    ("alarm", self.asserted as u64 as f64),
                ],
            );
        }
        if rising_edge {
            let sample = (self.stats.samples - 1) as f64;
            telemetry::event(
                "monitor.alarm",
                &[
                    ("sample", sample),
                    ("predicted_min", predicted_min),
                    ("worst_block", worst_block as f64),
                    ("latency_steps", self.consecutive as f64),
                ],
            );
            // Freeze the flight recorder around the assertion so the
            // emergency is explainable even with no capture pre-enabled.
            let (failed, gated): (&[usize], &[usize]) = match &health {
                Some(h) => (&h.failed, &h.gated),
                None => (&[], &[]),
            };
            telemetry::incident::report(&telemetry::incident::Incident {
                kind: "alarm",
                fields: &[
                    ("sample", sample),
                    ("predicted_min", predicted_min),
                    ("threshold", self.threshold),
                    ("worst_block", worst_block as f64),
                ],
                failed_sensors: failed,
                gated_sensors: gated,
            });
        }
        MonitorDecision {
            predicted_min,
            worst_block,
            alarm: self.asserted,
            rising_edge,
            health,
        }
    }
}

/// Worst (lowest) predicted voltage and its block, in `f64::total_cmp`
/// order (panic-free even if a degenerate fit ever produced a NaN
/// prediction), first block on ties — exactly what
/// `min_by(total_cmp)` returns. Branch-free: a 4-lane minimum over the
/// integer key `total_cmp` itself compares, then the first block whose
/// key equals it (keys are injective in the bits, so that block's value
/// is the minimum bit for bit).
fn worst_prediction(predicted: &[f64]) -> (usize, f64) {
    fn key(v: f64) -> i64 {
        let bits = v.to_bits() as i64;
        bits ^ (((bits >> 63) as u64 >> 1) as i64)
    }
    let mut lanes = [i64::MAX; 4];
    let mut chunks = predicted.chunks_exact(4);
    for chunk in &mut chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane).min(key(v));
        }
    }
    let mut min = lanes[0].min(lanes[1]).min(lanes[2].min(lanes[3]));
    for &v in chunks.remainder() {
        min = min.min(key(v));
    }
    let k = predicted
        .iter()
        .position(|&v| key(v) == min)
        .expect("model predicts at least one block");
    (k, predicted[k])
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltsense_linalg::Matrix;
    use voltsense_testkit::{choice, forall, vec_f64};

    /// Values `total_cmp` orders unusually: both zeros, both infinities,
    /// quiet and signalling NaNs of both signs, subnormals, and repeats.
    const WORST_POOL: [f64; 14] = [
        0.85,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0xfff0_0000_0000_0001),
        0.84,
        0.85,
        -1.0,
        5e-324,
        -5e-324,
    ];

    #[test]
    fn worst_prediction_matches_the_min_by_total_cmp_oracle() {
        let lengths: Vec<usize> = (1..=13).chain([240]).collect();
        forall!(cases = 512, (
            len in choice(lengths),
            picks in vec_f64(240, 0.0, WORST_POOL.len() as f64),
        ) => {
            let predicted: Vec<f64> =
                picks[..len].iter().map(|&p| WORST_POOL[p as usize]).collect();
            let (want_k, want_v) = predicted
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(k, &v)| (k, v))
                .unwrap();
            let (k, v) = worst_prediction(&predicted);
            assert_eq!((k, v.to_bits()), (want_k, want_v.to_bits()), "{predicted:?}");
        });
    }

    /// Identity-ish model: one sensor, one block, f ≈ x.
    fn model() -> VoltageMapModel {
        let x = Matrix::from_rows(&[&[0.95, 0.90, 0.85, 0.80, 0.99]]).unwrap();
        let f = x.clone();
        VoltageMapModel::fit(&x, &f, &[0]).unwrap()
    }

    #[test]
    fn persistence_filters_single_sample_blips() {
        let mut m = EmergencyMonitor::new(model(), 0.85, 3, 0.0).unwrap();
        // Two crossings then recovery: never alarms.
        assert!(!m.observe(&[0.84]).unwrap().alarm);
        assert!(!m.observe(&[0.84]).unwrap().alarm);
        assert!(!m.observe(&[0.95]).unwrap().alarm);
        // Three consecutive crossings: alarms on the third.
        assert!(!m.observe(&[0.84]).unwrap().alarm);
        assert!(!m.observe(&[0.84]).unwrap().alarm);
        let d = m.observe(&[0.84]).unwrap();
        assert!(d.alarm && d.rising_edge);
        assert_eq!(m.stats().alarm_events, 1);
    }

    #[test]
    fn hysteresis_prevents_chatter() {
        let mut m = EmergencyMonitor::new(model(), 0.85, 1, 0.02).unwrap();
        assert!(m.observe(&[0.84]).unwrap().alarm);
        // Recovers above threshold but inside the release band: stays on.
        assert!(m.observe(&[0.86]).unwrap().alarm);
        // Clears the band: releases.
        assert!(!m.observe(&[0.88]).unwrap().alarm);
        assert_eq!(m.stats().alarm_events, 1);
    }

    #[test]
    fn edges_and_counters_are_consistent() {
        let mut m = EmergencyMonitor::new(model(), 0.85, 1, 0.0).unwrap();
        let seq = [0.9, 0.84, 0.84, 0.9, 0.83, 0.9];
        let mut edges = 0;
        for v in seq {
            if m.observe(&[v]).unwrap().rising_edge {
                edges += 1;
            }
        }
        assert_eq!(edges, 2);
        let s = m.stats();
        assert_eq!(s.samples, 6);
        assert_eq!(s.alarm_events, 2);
        assert_eq!(s.alarmed_samples, 3);
    }

    #[test]
    fn worst_block_is_reported() {
        // Two blocks: block 1 sits 20 mV below block 0.
        let x = Matrix::from_rows(&[&[0.95, 0.90, 0.85, 0.80]]).unwrap();
        let f = Matrix::from_rows(&[
            &[0.95, 0.90, 0.85, 0.80],
            &[0.93, 0.88, 0.83, 0.78],
        ])
        .unwrap();
        let model = VoltageMapModel::fit(&x, &f, &[0]).unwrap();
        let mut m = EmergencyMonitor::new(model, 0.85, 1, 0.0).unwrap();
        let d = m.observe(&[0.9]).unwrap();
        assert_eq!(d.worst_block, 1);
        assert!((d.predicted_min - 0.88).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_state() {
        let mut m = EmergencyMonitor::new(model(), 0.85, 1, 0.0).unwrap();
        m.observe(&[0.80]).unwrap();
        assert!(m.is_alarmed());
        m.reset();
        assert!(!m.is_alarmed());
        assert_eq!(m.stats(), MonitorStats::default());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(EmergencyMonitor::new(model(), 0.0, 1, 0.0).is_err());
        assert!(EmergencyMonitor::new(model(), 0.85, 0, 0.0).is_err());
        assert!(EmergencyMonitor::new(model(), 0.85, 1, -0.1).is_err());
        assert!(EmergencyMonitor::new(model(), f64::NAN, 1, 0.0).is_err());
    }

    #[test]
    fn wrong_reading_count_rejected() {
        let mut m = EmergencyMonitor::new(model(), 0.85, 1, 0.0).unwrap();
        assert!(m.observe(&[0.9, 0.9]).is_err());
    }

    #[test]
    fn naive_monitor_rejects_non_finite_readings() {
        let mut m = EmergencyMonitor::new(model(), 0.85, 1, 0.0).unwrap();
        assert!(matches!(
            m.observe(&[f64::NAN]),
            Err(CoreError::NonFiniteReading { sensor: 0 })
        ));
        assert!(matches!(
            m.observe(&[f64::INFINITY]),
            Err(CoreError::NonFiniteReading { sensor: 0 })
        ));
        // The rejected samples left no trace in the counters.
        assert_eq!(m.stats(), MonitorStats::default());
    }

    #[test]
    fn nan_reading_cannot_deassert_an_active_alarm() {
        // Regression: a NaN used to flow through the OLS model, turn the
        // prediction NaN, and (NaN >= threshold + margin being false at
        // every comparison) could corrupt the alarm state machine.
        let mut m = EmergencyMonitor::new(model(), 0.85, 1, 0.0).unwrap();
        assert!(m.observe(&[0.80]).unwrap().alarm);
        assert!(m.observe(&[f64::NAN]).is_err());
        assert!(m.is_alarmed(), "NaN de-asserted the alarm");
        let s = m.stats();
        assert_eq!((s.samples, s.alarm_events), (1, 1));
    }

    #[test]
    fn checkpoint_restore_resumes_the_state_machine_exactly() {
        // Drive an original monitor halfway into a debounce streak plus a
        // latched alarm; the restored copy must continue bit-identically.
        let mut original = EmergencyMonitor::new(model(), 0.85, 2, 0.02).unwrap();
        for v in [0.9, 0.84, 0.84, 0.86] {
            original.observe(&[v]).unwrap();
        }
        assert!(original.is_alarmed(), "hysteresis holds the latch at 0.86");

        let ckpt = original.checkpoint();
        let fit = original.model().linear_fit().clone();
        let model = VoltageMapModel::from_parts(
            original.model().sensor_indices().to_vec(),
            original.model().num_candidates(),
            fit.coefficients,
            fit.intercept,
            fit.rms_residual,
        )
        .unwrap();
        let mut restored = EmergencyMonitor::restore(model, &ckpt).unwrap();
        assert!(restored.is_alarmed(), "latched alarm survives restore");
        assert_eq!(restored.stats(), original.stats());

        for v in [0.86, 0.88, 0.84, 0.84, 0.9] {
            let a = original.observe(&[v]).unwrap();
            let b = restored.observe(&[v]).unwrap();
            assert_eq!(a, b, "divergence at reading {v}");
        }
        assert_eq!(restored.stats(), original.stats());
    }

    #[test]
    fn restore_revalidates_configuration() {
        let good = EmergencyMonitor::new(model(), 0.85, 2, 0.0).unwrap().checkpoint();
        let bad = MonitorCheckpoint {
            threshold: f64::NAN,
            ..good
        };
        assert!(EmergencyMonitor::restore(model(), &bad).is_err());
        let bad = MonitorCheckpoint {
            persistence: 0,
            ..good
        };
        assert!(EmergencyMonitor::restore(model(), &bad).is_err());
        // An out-of-range debounce count is clamped, not trusted.
        let odd = MonitorCheckpoint {
            consecutive: 99,
            ..good
        };
        let m = EmergencyMonitor::restore(model(), &odd).unwrap();
        assert_eq!(m.checkpoint().consecutive, 2);
    }

    #[test]
    fn from_parts_rejects_inconsistent_models() {
        let fit = model().linear_fit().clone();
        // Coefficients are 1x1 here; mismatched sensor counts must fail.
        assert!(VoltageMapModel::from_parts(
            vec![0, 1],
            5,
            fit.coefficients.clone(),
            fit.intercept.clone(),
            0.0
        )
        .is_err());
        assert!(VoltageMapModel::from_parts(
            vec![9],
            5,
            fit.coefficients.clone(),
            fit.intercept.clone(),
            0.0
        )
        .is_err());
        assert!(VoltageMapModel::from_parts(
            vec![0],
            5,
            fit.coefficients.clone(),
            vec![f64::NAN],
            0.0
        )
        .is_err());
        assert!(
            VoltageMapModel::from_parts(vec![0], 5, fit.coefficients, fit.intercept, 0.0).is_ok()
        );
    }

    /// Three sensors driven by two shared droop signals (so each sensor is
    /// predictable from the other two) plus tiny independent wiggles that
    /// keep the fits non-degenerate; two blocks.
    fn ft_training() -> (Matrix, Matrix) {
        let n = 40;
        let mut x = Matrix::zeros(3, n);
        let mut f = Matrix::zeros(2, n);
        for s in 0..n {
            let t = s as f64;
            let s1 = 0.05 * (t * 0.7).sin();
            let s2 = 0.04 * (t * 1.3).cos();
            let a = 0.93 + s1 + 0.002 * (t * 3.1).sin();
            let b = 0.95 + 0.5 * s1 + 0.5 * s2 + 0.002 * (t * 2.3).cos();
            let c = 0.94 + s2 + 0.002 * (t * 4.7).sin();
            x[(0, s)] = a;
            x[(1, s)] = b;
            x[(2, s)] = c;
            f[(0, s)] = 0.6 * a + 0.4 * b;
            f[(1, s)] = 0.5 * b + 0.5 * c;
        }
        (x, f)
    }

    fn ft_monitor(policy: FaultPolicy) -> EmergencyMonitor {
        let (x, f) = ft_training();
        let ft = FaultTolerantModel::fit(&x, &f, &[0, 1, 2]).unwrap();
        EmergencyMonitor::fault_tolerant(ft, 0.85, 1, 0.0, policy).unwrap()
    }

    #[test]
    fn fault_tolerant_matches_naive_on_healthy_readings() {
        let (x, f) = ft_training();
        let ft = FaultTolerantModel::fit(&x, &f, &[0, 1, 2]).unwrap();
        let mut naive =
            EmergencyMonitor::new(ft.primary().clone(), 0.85, 1, 0.0).unwrap();
        let mut aware = ft_monitor(FaultPolicy::default());
        for s in 0..20 {
            let readings: Vec<f64> = (0..3).map(|i| x[(i, s)]).collect();
            let dn = naive.observe(&readings).unwrap();
            let da = aware.observe(&readings).unwrap();
            assert_eq!(dn.predicted_min, da.predicted_min, "sample {s}");
            assert_eq!(dn.alarm, da.alarm);
            let health = da.health.expect("fault-tolerant decision carries health");
            assert!(!health.degraded());
        }
        assert!(aware.failed_sensors().is_empty());
    }

    #[test]
    fn implausible_reading_is_gated_and_fallback_used_immediately() {
        let (x, f) = ft_training();
        let ft = FaultTolerantModel::fit(&x, &f, &[0, 1, 2]).unwrap();
        let mut aware = EmergencyMonitor::fault_tolerant(
            ft.clone(),
            0.85,
            1,
            0.0,
            FaultPolicy::default(),
        )
        .unwrap();
        let readings = [x[(0, 5)], f64::NAN, x[(2, 5)]];
        let d = aware.observe(&readings).unwrap();
        let health = d.health.unwrap();
        assert_eq!(health.gated, vec![1]);
        // The very first gated sample already predicts with leave-1-out.
        let survivors = [readings[0], readings[2]];
        let expect = ft.leave_one_out(1).unwrap().predict(&survivors).unwrap();
        let (_, want_min) = super::worst_prediction(&expect);
        assert_eq!(d.predicted_min, want_min);
        assert_eq!(aware.stats().gated_readings, 1);
    }

    #[test]
    fn persistent_implausible_sensor_is_permanently_failed() {
        let mut aware = ft_monitor(FaultPolicy {
            health_persistence: 3,
            ..FaultPolicy::default()
        });
        let (x, _) = ft_training();
        for s in 0..3 {
            let readings = [x[(0, s)], f64::NAN, x[(2, s)]];
            aware.observe(&readings).unwrap();
        }
        assert_eq!(aware.failed_sensors(), vec![1]);
        assert_eq!(aware.stats().sensors_failed, 1);
        // Once failed, the sensor's reading is ignored even when plausible
        // again: predictions equal the leave-1-out fallback's.
        let (x, f) = ft_training();
        let ft = FaultTolerantModel::fit(&x, &f, &[0, 1, 2]).unwrap();
        let readings = [x[(0, 9)], x[(1, 9)], x[(2, 9)]];
        let d = aware.observe(&readings).unwrap();
        let expect = ft
            .leave_one_out(1)
            .unwrap()
            .predict(&[readings[0], readings[2]])
            .unwrap();
        let (_, want_min) = super::worst_prediction(&expect);
        assert_eq!(d.predicted_min, want_min);
        assert_eq!(d.health.unwrap().failed, vec![1]);
    }

    #[test]
    fn cross_prediction_flags_a_stuck_sensor() {
        // Stuck-at 0.80 V: within rail bounds, so only the residual
        // scoring (not the plausibility gate) can see it.
        let mut aware = ft_monitor(FaultPolicy {
            health_persistence: 4,
            ..FaultPolicy::default()
        });
        let (x, _) = ft_training();
        for s in 0..12 {
            let readings = [x[(0, s)], 0.80, x[(2, s)]];
            match aware.observe(&readings) {
                Ok(_) => {}
                Err(e) => panic!("sample {s}: {e}"),
            }
            if aware.failed_sensors() == vec![1] {
                return;
            }
        }
        panic!(
            "stuck sensor never flagged; failed = {:?}",
            aware.failed_sensors()
        );
    }

    #[test]
    fn healthy_sensors_are_not_blamed_for_a_peer_fault() {
        // Sensor 0's cross-model weight on sensor 1 can exceed 1 in this
        // geometry, so a worst-residual rule would blame sensor 0; the
        // signature match must still pin sensor 1.
        let mut aware = ft_monitor(FaultPolicy {
            health_persistence: 2,
            ..FaultPolicy::default()
        });
        let (x, _) = ft_training();
        for s in 0..10 {
            let readings = [x[(0, s)], 0.80, x[(2, s)]];
            if aware.observe(&readings).is_err() {
                break;
            }
            if !aware.failed_sensors().is_empty() {
                break;
            }
        }
        assert_eq!(aware.failed_sensors(), vec![1]);
    }

    #[test]
    fn too_many_failures_is_a_typed_error() {
        let mut aware = ft_monitor(FaultPolicy {
            health_persistence: 1,
            max_failed_sensors: 1,
            ..FaultPolicy::default()
        });
        let (x, _) = ft_training();
        // Sample 1: sensor 1 dies (allowed).
        aware
            .observe(&[x[(0, 0)], f64::NAN, x[(2, 0)]])
            .unwrap();
        // Sample 2: sensor 2 dies too — over budget.
        let err = aware
            .observe(&[x[(0, 1)], f64::NAN, f64::NAN])
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::DegradedBeyondRecovery { failed: 2, allowed: 1 }
        ));
    }

    #[test]
    fn reset_clears_fault_state() {
        let mut aware = ft_monitor(FaultPolicy {
            health_persistence: 1,
            ..FaultPolicy::default()
        });
        let (x, _) = ft_training();
        aware.observe(&[x[(0, 0)], f64::NAN, x[(2, 0)]]).unwrap();
        assert_eq!(aware.failed_sensors(), vec![1]);
        aware.reset();
        assert!(aware.failed_sensors().is_empty());
        assert_eq!(aware.stats(), MonitorStats::default());
    }

    #[test]
    fn bad_fault_policies_rejected() {
        let (x, f) = ft_training();
        let ft = FaultTolerantModel::fit(&x, &f, &[0, 1, 2]).unwrap();
        let mk = |policy| {
            EmergencyMonitor::fault_tolerant(ft.clone(), 0.85, 1, 0.0, policy).is_err()
        };
        assert!(mk(FaultPolicy {
            rail_min: 1.0,
            rail_max: 0.5,
            ..FaultPolicy::default()
        }));
        assert!(mk(FaultPolicy {
            residual_sigmas: 0.0,
            ..FaultPolicy::default()
        }));
        assert!(mk(FaultPolicy {
            min_residual: -1.0,
            ..FaultPolicy::default()
        }));
        assert!(mk(FaultPolicy {
            health_persistence: 0,
            ..FaultPolicy::default()
        }));
    }
}
