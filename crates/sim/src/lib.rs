//! # coterie-sim
//!
//! End-to-end testbed simulation for the Coterie reproduction.
//!
//! The paper evaluates four system designs on a physical testbed (four
//! Pixel 2 phones, a GTX 1080 Ti render server, 802.11ac WiFi):
//!
//! * **Mobile** — everything rendered on the phone (Table 1),
//! * **Thin-client** — everything rendered on the server and streamed,
//! * **Multi-Furion** — Furion's split rendering replicated per player:
//!   FI local, whole-BE panoramas prefetched per frame,
//! * **Coterie** — near BE local, far BE prefetched through the
//!   similarity-exploiting frame cache.
//!
//! [`Session`] reproduces those experiments in simulation: player
//! movement comes from the genre trajectory models, frame content and
//! sizes from the software renderer + codec, transfer latency from the
//! shared-link model, and per-frame timing from the paper's task
//! equation (Eq. 2):
//!
//! `T = max(T_render_FI+nearBE, T_decode_farBE, T_prefetch, T_sync_FI) + T_merge`
//!
//! # Example
//!
//! ```no_run
//! use coterie_sim::{Session, SessionConfig, SystemKind};
//! use coterie_world::GameId;
//!
//! let config = SessionConfig::new(GameId::VikingVillage, SystemKind::coterie(), 2)
//!     .with_duration_s(60.0);
//! let report = Session::new(config).run();
//! assert!(report.aggregate().avg_fps > 30.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fi;
pub mod metrics;
pub mod quality;
pub mod server;
pub mod session;
pub mod study;

pub use fi::{
    dead_reckon, sync_with_retries, FiSync, FiSyncAttempt, DEAD_RECKON_CAP_MS, FI_RETRY_ATTEMPTS,
    FI_RETRY_BACKOFF_MS, FI_RETRY_TIMEOUT_MS, FI_SYNC_LATENCY_MS,
};
pub use metrics::{percentile, FiReport, PlayerMetrics, ResourceSeries, SessionReport};
pub use server::RenderServer;
pub use session::{
    FarRequest, FarResponse, Session, SessionConfig, SessionSim, StepEvent, SystemKind,
};
pub use study::{run_study, StudyConfig, StudyOutcome};
