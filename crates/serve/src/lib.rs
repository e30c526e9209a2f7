//! # coterie-serve
//!
//! A multi-session fleet runtime for the Coterie reproduction.
//!
//! The paper runs one render server per four-player session. A hosting
//! provider runs *fleets*: hundreds of concurrent rooms of the same
//! handful of games. This crate scales the paper's core observation —
//! far-BE frames are reusable wherever the three similarity criteria
//! hold — across session boundaries:
//!
//! * [`Room`] wraps a [`coterie_sim::SessionSim`] and routes its
//!   prefetch misses through the fleet instead of a private server.
//! * [`LocalStore`] is a lock-striped, globally-budgeted, cross-session
//!   frame cache: stripes are keyed by `(game, leaf region)` behind
//!   `parking_lot` mutexes, one atomic clock totally orders accesses,
//!   and eviction runs a single LRU across every stripe. Lookups extend
//!   the paper's three-criteria match with a *session-id-free* variant
//!   ([`coterie_core::CacheVersion::FLEET`]): any room's frames can
//!   serve any other room of the same game.
//! * [`PrerenderFarm`] turns store misses into speculative neighbour
//!   renders, batched per epoch and drained in ranked order.
//! * [`PosePredictor`] (selected per fleet via
//!   [`FleetConfig::predictor`]) replaces blind speculation with
//!   pose-predictive speculation: constant-velocity (`cv`) or
//!   viewport-pose-model-informed (`vpm`, velocity decay plus pull
//!   toward the scene's shared hotspots) extrapolation ranks the farm's
//!   queue by predicted leaf-region occupancy, and the store scores
//!   speculative inserts against the LRU victim (cost-aware
//!   admission). `--predictor none` reproduces predictor-less reports
//!   byte for byte.
//! * [`Fleet`] runs admission control (bounded per-room queues, a
//!   fleet-wide [`coterie_net::FleetEgress`] downlink budget) and
//!   graceful degradation (rooms violating the 16.7 ms frame budget
//!   ship smaller frames until they recover).
//! * [`FleetMetrics`] reports tail FPS (p50/p95/p99 across rooms),
//!   store hit ratio, shipped bandwidth, pre-render GPU-hours and peak
//!   device temperature.
//! * Matchmaking & churn: [`FleetConfig::churn`] selects a seeded
//!   [`ChurnScenario`] (steady trickle, flash crowd, day curve) whose
//!   arrivals the [`matchmaker`] places into rooms at plan time —
//!   first-fit or pose-affinity ([`PlacementPolicy`]) — with an
//!   admission queue and overflow room spawn. Rosters become presence
//!   windows on each room's session; `--churn none` (the default)
//!   skips the plan path and reproduces static-fleet reports byte for
//!   byte. [`FleetMetrics::matchmaking`] carries the placement
//!   counters.
//! * Observability: [`Fleet::new_with_telemetry`] threads a
//!   `coterie_telemetry::TelemetrySink` through every room, attributing
//!   each displayed frame to its pipeline stages against the 16.7 ms
//!   budget; [`FleetMetrics::telemetry`] carries the fleet-wide summary
//!   and the sink's snapshots export as a Chrome trace. Telemetry is
//!   observation-only — untraced runs are byte-identical to builds
//!   without it.
//! * The FI fault plane: [`FleetConfig::net`] selects a
//!   [`coterie_net::NetScenario`] (burst loss, latency spikes, relay
//!   outage) applied to every room's per-player FI channel, and the
//!   metrics then carry loss-aware accounting — retries, dead-reckoned
//!   stale frames, staleness-cap violations and desync percentiles.
//!
//! Runs are deterministic: the epoch loop serializes store transactions
//! in room-id order, so a fixed [`FleetConfig`] reproduces its report
//! byte for byte (construction parallelism is order-preserving).
//!
//! # Example
//!
//! ```no_run
//! use coterie_serve::{Fleet, FleetConfig};
//!
//! let report = Fleet::new(FleetConfig { rooms: 4, ..FleetConfig::default() }).run();
//! println!("{}", report.metrics);
//! assert!(report.metrics.fps_p50 > 30.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod farm;
pub mod fleet;
pub mod matchmaker;
pub mod metrics;
pub mod predict;
pub mod room;
pub mod store;

pub use churn::{generate_arrivals, Arrival, ChurnScenario};
pub use farm::{render_cost_ms, PrerenderFarm, PrerenderJob};
pub use fleet::{Fleet, FleetConfig, FleetReport};
pub use matchmaker::{MatchPlan, MatchmakingMetrics, PlacementPolicy, RoomPlan};
pub use metrics::{percentile, FleetMetrics};
pub use predict::{PosePredictor, PredictorKind};
pub use room::{Room, RoomReport};
pub use store::{Admission, FrameStore, LocalStore, StoreConfig, StoreStats};
