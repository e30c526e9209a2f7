//! # coterie-server
//!
//! The socket serving plane: the paper's edge/cloud server realized as
//! a process, not a simulation step.
//!
//! The rest of the workspace reproduces Coterie's *algorithms* — frame
//! similarity, the shared store, adaptive degrade — inside a
//! discrete-event simulator. This crate puts the serving side of those
//! algorithms behind a real wire: a length-prefixed session protocol
//! ([`coterie_net::wire`]) over TCP or Unix-domain sockets, served by a
//! hand-rolled non-blocking event loop (epoll readiness, thread-per-core
//! acceptors sharing one listener via `EPOLLEXCLUSIVE`, per-connection
//! state machines, byte-bounded egress queues that defer a pose until
//! its frame can be queued, graceful drain on shutdown).
//!
//! Layers, bottom-up:
//!
//! - [`sys`] — the minimal epoll FFI (the only `unsafe` in the crate).
//! - [`stream`] — TCP/UDS transport behind one enum pair.
//! - [`conn`] — per-connection read assembly, session state, the inbox
//!   and the bounded egress queue (the backpressure policy lives here).
//! - [`service`] — the protocol-independent serving core: per-game
//!   worlds, the [`coterie_serve`] shared frame store and prerender
//!   farm, the real codec, and the drop-driven quality controller.
//! - [`server`] — the event loop tying it all together.
//! - [`shard`] — the inter-worker exchange plane: a coordinator thread
//!   per worker process shipping freshly rendered frames to peers so a
//!   multi-process fleet shares one logical store.
//! - [`loadgen`] — a blocking-socket client fleet replaying
//!   trajectory-driven sessions with FI-scenario pacing.
//!
//! Everything a server does on the hot path is spanned into the
//! [`coterie_telemetry`] sink under the `serve` process lane, so a
//! traced run drops straight into the same Chrome-trace tooling as the
//! simulator fleet.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod loadgen;
pub mod server;
pub mod service;
pub mod shard;
pub mod stream;
pub mod sys;

pub use conn::{ConnState, Connection, ReadOutcome};
pub use loadgen::{LoadConfig, LoadReport};
pub use server::{Server, ServerConfig, ServerStats};
pub use service::{FrameReply, ServiceCore, ServiceStats, ShardShare};
pub use shard::{ShardCoordStats, ShardCoordinator, ShardPlan};
pub use stream::{Endpoint, Listener, Stream};
