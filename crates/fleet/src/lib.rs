//! Fault-hardened multi-tenant fleet monitor serving.
//!
//! ROADMAP item 1's serving skeleton: run one [`EmergencyMonitor`] per
//! chip for many tenants at once, behind a TCP protocol and a failure
//! posture designed for hostile conditions. The paper's statistical
//! machinery decides *what* to alarm on; this crate makes sure those
//! alarms keep flowing — and stay latched — while clients stall, lie,
//! disconnect, overload the server, or the process itself is killed.
//!
//! The layers, bottom up:
//!
//! * [`frame`] — length-prefixed, checksummed wire framing whose decoder
//!   never panics and never allocates from an attacker-controlled length.
//! * [`session`] — per-`(tenant, chip)` monitor sessions with a bounded
//!   queue and an explicit backpressure → shed → reject → recover ladder.
//! * [`batch`] — the per-shard gather→GEMM→scatter prediction plane that
//!   amortizes same-model sessions into one blocked matmul per pass,
//!   bit-identical to the sequential drain.
//! * [`checkpoint`] — crash-safe JSON persistence of model + alarm state,
//!   so a restart resumes monitoring without refitting.
//! * [`server`] — accept loop, sharded dispatch over `voltsense-parallel`,
//!   per-session panic quarantine, idle eviction, graceful vs crash stop.
//! * [`chaos`] / [`client`] — the seeded, replayable adversary: a client
//!   whose transport injects disconnects, corruption, truncation,
//!   duplication, reordering, and stalls, with backoff-with-jitter retry.
//!
//! The properties the chaos suite pins (see `tests/chaos_soak.rs`): no
//! chaos schedule crashes the server, reaches another tenant's session,
//! or de-asserts a latched alarm.
//!
//! [`EmergencyMonitor`]: voltsense_core::EmergencyMonitor

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod chaos;
pub mod checkpoint;
pub mod client;
pub mod frame;
pub mod metrics;
pub mod server;
pub mod session;

pub use batch::{BatchPlane, PlaneDrained, PlanePanic};
pub use chaos::{ChaosConfig, ChaosStats, FaultyTransport};
pub use client::{ClientError, ClientStats, FleetClient, HelloStatus, RetryPolicy};
pub use frame::{Frame, FrameDecoder, FrameError};
pub use server::{FleetConfig, FleetServer, FleetStats, SessionFactory};
pub use session::{
    CheckpointHandle, ChipMonitor, Drained, LadderConfig, PendingTrace, Session, SessionKey,
    SessionState, TraceDraft,
};
