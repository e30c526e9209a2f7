//! The epoll event loop: thread-per-core acceptors, per-connection
//! state machines, write backpressure, graceful shutdown.
//!
//! # Architecture
//!
//! One non-blocking listener is shared by every worker thread. Each
//! worker owns a private epoll instance and registers the listener with
//! `EPOLLEXCLUSIVE`, so the kernel wakes exactly one worker per
//! connection burst — thread-per-core accept without a thundering herd
//! and without an accept lock. The accepting worker owns the connection
//! for its whole life: no cross-worker handoff, no shared connection
//! table, no locks on the read/write path. All cross-connection state
//! (the frame store, rooms, the farm) lives in [`ServiceCore`] behind
//! its own fine-grained locks.
//!
//! Readiness is level-triggered. `EPOLLOUT` is armed only while a
//! connection's egress queue is non-empty, so an idle socket costs no
//! wakeups, and `epoll_ctl` is called only when that changes. A
//! readiness event reads the socket dry into the connection's inbox,
//! then handles inbox messages while the egress queue has room and
//! writes what is queued ([`crate::conn`] has the policy).
//! Shutdown sets a flag; workers notice within one poll
//! timeout (25 ms), queue a `Goodbye` on every connection, drain
//! egress queues, and close — bounded by a 2 s drain deadline so a
//! dead peer cannot wedge shutdown.

use crate::conn::{ConnState, Connection, ReadOutcome};
use crate::service::{quality_to_wire, FrameReply, ServiceCore};
use crate::stream::Listener;
use crate::sys::{Epoll, EpollEvent, EPOLLEXCLUSIVE, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use coterie_net::wire::{
    frame_header, ByeReason, ErrorCode, ResumeRejectReason, WireMessage, MIN_PROTO_VERSION,
    PROTO_VERSION, TOKEN_BYTES,
};
use coterie_net::ResumeToken;
use coterie_serve::PlacementPolicy;
use coterie_telemetry::{TelemetrySink, TrackId, SERVE_PID};
use coterie_world::{GameId, Vec2};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Epoll token reserved for the shared listener.
const TOKEN_LISTENER: u64 = u64::MAX;

/// Poll timeout; bounds shutdown-notice latency.
const POLL_TIMEOUT_MS: i32 = 25;

/// How long shutdown waits for egress queues to drain before closing
/// connections regardless.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);

/// Interval between counter/gauge samples.
const COUNTER_INTERVAL: Duration = Duration::from_millis(50);

/// First protocol version that carries reconnect tokens / `Resume`.
const RESUME_PROTO_MIN: u16 = 3;

/// Grace the parked-session GC waits past the resume TTL before
/// releasing a seat. A `Resume` landing inside the grace window earns
/// the structured `Expired` reject; without it an expired token would
/// already have been collected and answer `Unknown`, which tells the
/// client nothing about whether retrying later could ever work.
const PARKED_GC_GRACE: Duration = Duration::from_secs(5);

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker (acceptor + event loop) threads.
    pub workers: usize,
    /// Per-connection byte budget, once for replies queued and once for
    /// messages waiting to be handled ([`crate::conn`]).
    pub egress_limit_bytes: usize,
    /// Shared frame-store byte budget.
    pub store_bytes: u64,
    /// Seed the per-game worlds are built from (must match the load
    /// generator's seed for trajectory-consistent traffic).
    pub world_seed: u64,
    /// How a `Hello`'s requested room is honored.
    /// [`PlacementPolicy::FirstFit`] (the default) joins the requested
    /// room exactly — today's behaviour, byte for byte.
    /// [`PlacementPolicy::Affinity`] packs the client into the fullest
    /// same-game room under [`crate::service::AFFINITY_ROOM_CAP`].
    pub policy: PlacementPolicy,
    /// How long a dropped v3 connection's session stays parked (seat
    /// held, scale preserved) awaiting a `Resume`, ms.
    pub resume_ttl_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            egress_limit_bytes: 256 * 1024,
            store_bytes: 64 << 20,
            world_seed: 42,
            policy: PlacementPolicy::FirstFit,
            resume_ttl_ms: 30_000,
        }
    }
}

/// Monotonic counters shared by all workers.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    closed: AtomicU64,
    live: AtomicU64,
    poses: AtomicU64,
    frames_sent: AtomicU64,
    frames_dropped: AtomicU64,
    bytes_sent: AtomicU64,
    protocol_errors: AtomicU64,
    degrades_sent: AtomicU64,
    peak_queue_bytes: AtomicU64,
    versions_rejected: AtomicU64,
    sessions_parked: AtomicU64,
    sessions_resumed: AtomicU64,
    resume_rejects: AtomicU64,
}

impl Counters {
    fn note_peak(&self, bytes: u64) {
        self.peak_queue_bytes.fetch_max(bytes, Ordering::Relaxed);
    }
}

/// A point-in-time stats snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections closed.
    pub closed: u64,
    /// Connections currently open.
    pub live: u64,
    /// Poses received.
    pub poses: u64,
    /// Frames queued for delivery.
    pub frames_sent: u64,
    /// Poses that lost their frame to egress backpressure.
    pub frames_dropped: u64,
    /// Bytes written to sockets.
    pub bytes_sent: u64,
    /// Connections dropped for protocol violations.
    pub protocol_errors: u64,
    /// Degrade notices sent.
    pub degrades_sent: u64,
    /// Largest egress queue ever observed on one connection, bytes.
    pub peak_queue_bytes: u64,
    /// Hellos turned away for an unsupported protocol version.
    pub versions_rejected: u64,
    /// Dropped sessions parked for resume (seat held).
    pub sessions_parked: u64,
    /// Parked sessions successfully re-attached by `Resume`.
    pub sessions_resumed: u64,
    /// `Resume` attempts rejected (expired, unknown or forged tokens).
    pub resume_rejects: u64,
    /// Frame-store occupancy, bytes.
    pub store_bytes: u64,
    /// Frame-store hit ratio so far.
    pub store_hit_ratio: f64,
}

/// A session whose socket died while Active: the seat stays held and
/// the quality scale preserved until a `Resume` re-attaches it or the
/// TTL (plus GC grace) releases it.
struct ParkedSession {
    game: GameId,
    room: u32,
    player: u32,
    scale_pm: u16,
    parked_at: Instant,
}

struct Shared {
    service: Arc<ServiceCore>,
    listener: Listener,
    config: ServerConfig,
    shutdown: AtomicBool,
    counters: Counters,
    /// Token-signing secret, derived from the world seed so every
    /// worker of a deployment mints mutually verifiable tokens.
    secret: u64,
    /// Server-epoch anchor for token issue timestamps.
    epoch: Instant,
    /// Sessions awaiting `Resume`, keyed by their token bytes.
    parked: Mutex<HashMap<[u8; TOKEN_BYTES], ParkedSession>>,
}

/// A running server; dropping it without [`ServerHandle::stop`] aborts
/// the workers on the next poll tick.
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts worker threads serving `listener`.
    pub fn start(
        listener: Listener,
        config: ServerConfig,
        telemetry: TelemetrySink,
    ) -> io::Result<Server> {
        let service = Arc::new(ServiceCore::new(
            config.store_bytes,
            config.world_seed,
            telemetry,
        ));
        Server::start_with_service(listener, config, service)
    }

    /// [`Server::start`] with an injected service core — the seam the
    /// benchmark uses to serve from its timed store
    /// ([`ServiceCore::with_store`]).
    pub fn start_with_service(
        listener: Listener,
        config: ServerConfig,
        service: Arc<ServiceCore>,
    ) -> io::Result<Server> {
        let shared = Arc::new(Shared {
            service,
            listener,
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            // splitmix64 of the seed: workers sharing a seed mint
            // mutually verifiable tokens without sharing the seed
            // itself on the wire.
            secret: splitmix64(config.world_seed ^ 0x00C0_7E5E_C2E7_u64),
            epoch: Instant::now(),
            parked: Mutex::new(HashMap::new()),
            config: config.clone(),
        });
        let workers = config.workers.max(1);
        let mut threads = Vec::with_capacity(workers);
        for worker in 0..workers {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("coterie-serve-{worker}"))
                    .spawn(move || worker_loop(&shared, worker as u32))?,
            );
        }
        Ok(Server { shared, threads })
    }

    /// The bound TCP address, when serving TCP (useful with port 0).
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.shared.listener.local_addr_tcp()
    }

    /// A live stats snapshot.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        let store = self.shared.service.store();
        ServerStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            closed: c.closed.load(Ordering::Relaxed),
            live: c.live.load(Ordering::Relaxed),
            poses: c.poses.load(Ordering::Relaxed),
            frames_sent: c.frames_sent.load(Ordering::Relaxed),
            frames_dropped: c.frames_dropped.load(Ordering::Relaxed),
            bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            degrades_sent: c.degrades_sent.load(Ordering::Relaxed),
            peak_queue_bytes: c.peak_queue_bytes.load(Ordering::Relaxed),
            versions_rejected: c.versions_rejected.load(Ordering::Relaxed),
            sessions_parked: c.sessions_parked.load(Ordering::Relaxed),
            sessions_resumed: c.sessions_resumed.load(Ordering::Relaxed),
            resume_rejects: c.resume_rejects.load(Ordering::Relaxed),
            store_bytes: store.bytes(),
            store_hit_ratio: store.stats().hit_ratio(),
        }
    }

    /// The worker count the server was started with.
    pub fn workers(&self) -> usize {
        self.config().workers.max(1)
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.shared.config
    }

    /// The service core (store/room introspection for harnesses).
    pub fn service(&self) -> &Arc<ServiceCore> {
        &self.shared.service
    }

    /// Signals shutdown, drains connections, joins the workers, and
    /// returns the final stats.
    pub fn stop(mut self) -> ServerStats {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.stats()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_loop(shared: &Shared, worker: u32) {
    let Ok(epoll) = Epoll::new() else { return };
    if epoll
        .add(
            shared.listener.raw_fd(),
            EPOLLIN | EPOLLEXCLUSIVE,
            TOKEN_LISTENER,
        )
        .is_err()
    {
        return;
    }

    let mut events = [EpollEvent::zeroed(); 64];
    let mut conns: HashMap<u64, Connection> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut draining = false;
    let mut drain_started = Instant::now();
    let mut last_counter_sample = Instant::now();
    let sink = shared.service.telemetry().clone();

    loop {
        let n = epoll.wait(&mut events, POLL_TIMEOUT_MS).unwrap_or(0);
        for ev in &events[..n] {
            let token = ev.token();
            if token == TOKEN_LISTENER {
                if !draining {
                    accept_burst(shared, &epoll, &mut conns, &mut next_token);
                }
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            let ready = ev.ready();
            let peer_gone = ready & (EPOLLIN | EPOLLRDHUP) != 0 && read_conn(shared, conn);
            serve_pending(shared, conn, worker, peer_gone);
            sync_conn(&epoll, &mut conns, token, shared);
        }

        // Shutdown notice: queue goodbyes once, then drain.
        if shared.shutdown.load(Ordering::SeqCst) && !draining {
            draining = true;
            drain_started = Instant::now();
            let tokens: Vec<u64> = conns.keys().copied().collect();
            for token in tokens {
                if let Some(conn) = conns.get_mut(&token) {
                    begin_goodbye(shared, conn, ByeReason::Shutdown);
                    serve_pending(shared, conn, worker, false);
                    sync_conn(&epoll, &mut conns, token, shared);
                }
            }
        }
        if draining {
            if conns.is_empty() {
                break;
            }
            if drain_started.elapsed() > DRAIN_DEADLINE {
                let tokens: Vec<u64> = conns.keys().copied().collect();
                for token in tokens {
                    close_conn(shared, &epoll, &mut conns, token);
                }
                break;
            }
        }

        shared.service.maintain(worker);
        if worker == 0 {
            gc_parked(shared);
        }

        if worker == 0 && last_counter_sample.elapsed() >= COUNTER_INTERVAL {
            last_counter_sample = Instant::now();
            sample_counters(shared, &sink, &conns, worker);
        }
    }
}

fn sample_counters(
    shared: &Shared,
    sink: &TelemetrySink,
    conns: &HashMap<u64, Connection>,
    worker: u32,
) {
    if !sink.is_enabled() {
        return;
    }
    let t = sink.now_ms();
    let track = TrackId {
        pid: SERVE_PID,
        tid: worker,
    };
    let queued: usize = conns.values().map(|c| c.queued_bytes()).sum();
    sink.counter(
        track,
        "connections",
        t,
        shared.counters.live.load(Ordering::Relaxed) as f64,
    );
    sink.counter(track, "egress-queue-bytes", t, queued as f64);
    sink.counter(
        track,
        "store-bytes",
        t,
        shared.service.store().bytes() as f64,
    );
}

fn accept_burst(
    shared: &Shared,
    epoll: &Epoll,
    conns: &mut HashMap<u64, Connection>,
    next_token: &mut u64,
) {
    loop {
        match shared.listener.accept() {
            Ok(stream) => {
                let token = *next_token;
                *next_token += 1;
                let fd = stream.raw_fd();
                let conn = Connection::new(stream, shared.config.egress_limit_bytes);
                if epoll.add(fd, EPOLLIN | EPOLLRDHUP, token).is_ok() {
                    conns.insert(token, conn);
                    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    shared.counters.live.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
            Err(_) => break,
        }
    }
}

/// Reconciles a connection's epoll interest with its queue state, when
/// the queue went empty or stopped being so, and reaps it once closed.
fn sync_conn(epoll: &Epoll, conns: &mut HashMap<u64, Connection>, token: u64, shared: &Shared) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    let done_draining = conn.state() == ConnState::Draining && conn.egress_idle();
    if conn.state() == ConnState::Closed || done_draining {
        close_conn(shared, epoll, conns, token);
        return;
    }
    let want_out = !conn.egress_idle();
    if want_out != conn.epollout_armed {
        conn.epollout_armed = want_out;
        let interest = EPOLLIN | EPOLLRDHUP | if want_out { EPOLLOUT } else { 0 };
        let _ = epoll.modify(conn.stream().raw_fd(), interest, token);
    }
}

fn close_conn(shared: &Shared, epoll: &Epoll, conns: &mut HashMap<u64, Connection>, token: u64) {
    if let Some(mut conn) = conns.remove(&token) {
        let _ = epoll.delete(conn.stream().raw_fd());
        if conn.state() != ConnState::Closed {
            // Force-close of a still-active connection (drain
            // deadline): a dying socket, so parking applies.
            park_or_leave(shared, &mut conn);
            conn.set_state(ConnState::Closed);
        }
        shared.counters.note_peak(conn.peak_queue_bytes as u64);
        shared.counters.live.fetch_sub(1, Ordering::Relaxed);
        shared.counters.closed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Detaches an `Active` connection from its room. A v3 client that was
/// issued a token parks its session (seat held, scale preserved) for
/// the resume window; anything older leaves outright. No-op for
/// non-active states.
fn park_or_leave(shared: &Shared, conn: &mut Connection) {
    let ConnState::Active { game, room, player } = conn.state() else {
        return;
    };
    match conn.token.take() {
        Some(token) if conn.proto >= RESUME_PROTO_MIN => {
            shared.parked.lock().insert(
                token,
                ParkedSession {
                    game,
                    room,
                    player,
                    scale_pm: conn.last_notified_scale_pm,
                    parked_at: Instant::now(),
                },
            );
            shared
                .counters
                .sessions_parked
                .fetch_add(1, Ordering::Relaxed);
        }
        _ => shared.service.leave(game, room),
    }
}

/// Releases seats whose resume window (TTL plus [`PARKED_GC_GRACE`])
/// has fully lapsed. The grace keeps just-expired entries around so a
/// late `Resume` is told `Expired`, not `Unknown`.
fn gc_parked(shared: &Shared) {
    let deadline = Duration::from_millis(shared.config.resume_ttl_ms) + PARKED_GC_GRACE;
    let mut parked = shared.parked.lock();
    if parked.is_empty() {
        return;
    }
    let dead: Vec<[u8; TOKEN_BYTES]> = parked
        .iter()
        .filter(|(_, p)| p.parked_at.elapsed() > deadline)
        .map(|(k, _)| *k)
        .collect();
    for key in dead {
        if let Some(p) = parked.remove(&key) {
            shared.service.leave(p.game, p.room);
        }
    }
}

fn begin_goodbye(shared: &Shared, conn: &mut Connection, reason: ByeReason) {
    if matches!(conn.state(), ConnState::Draining | ConnState::Closed) {
        return;
    }
    if let ConnState::Active { game, room, .. } = conn.state() {
        shared.service.leave(game, room);
    }
    conn.enqueue_control(&WireMessage::Goodbye { reason });
    conn.set_state(ConnState::Draining);
}

/// One read pass into the connection's inbox. Returns whether the peer
/// is gone (EOF).
fn read_conn(shared: &Shared, conn: &mut Connection) -> bool {
    let (poses, dropped) = (conn.poses_received, conn.frames_dropped);
    let outcome = conn.read_ready();
    let (received, discarded) = (conn.poses_received - poses, conn.frames_dropped - dropped);
    let counters = &shared.counters;
    counters.poses.fetch_add(received, Ordering::Relaxed);
    counters
        .frames_dropped
        .fetch_add(discarded, Ordering::Relaxed);
    if let ConnState::Active { game, room, .. } = conn.state() {
        for _ in 0..discarded {
            note_delivery(shared, conn, game, room, true);
        }
    }
    match outcome {
        ReadOutcome::Progress => false,
        ReadOutcome::Eof => true,
        ReadOutcome::Protocol => {
            counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
            conn.enqueue_control(&WireMessage::Error {
                code: ErrorCode::Malformed,
            });
            begin_goodbye(shared, conn, ByeReason::Normal);
            false
        }
    }
}

/// Handles the inbox in order while replies can be queued and writes
/// what is queued; the rest is taken up on the next `EPOLLOUT`. A peer
/// that is gone has everything handled: its last message decides
/// between leaving and parking.
fn serve_pending(shared: &Shared, conn: &mut Connection, worker: u32, peer_gone: bool) {
    let before = conn.bytes_written;
    let result = conn.serve_pending(peer_gone, |conn, msg, waited| {
        handle_message(shared, conn, msg, waited, worker)
    });
    let sent = &shared.counters.bytes_sent;
    sent.fetch_add(conn.bytes_written - before, Ordering::Relaxed);
    if result.is_err() || peer_gone {
        // Whatever is queued can never matter. A write error or an EOF
        // without a clean `Bye` is exactly the dropped-connection case
        // resume tokens exist for, so park rather than leave.
        park_or_leave(shared, conn);
        conn.set_state(ConnState::Closed);
    }
}

/// `waited`: the message sat in the inbox for lack of egress room.
/// Returns whether the reply was rendered for this message, which sends
/// it on its way at once ([`crate::conn`]).
fn handle_message(
    shared: &Shared,
    conn: &mut Connection,
    msg: WireMessage,
    waited: bool,
    worker: u32,
) -> bool {
    match (conn.state(), msg) {
        (
            ConnState::Handshake,
            WireMessage::Hello {
                proto, game, room, ..
            },
        ) => {
            // Version negotiation: any client inside the supported
            // window joins (v1 clients never see a v2-only message in a
            // plain session, so they decode every reply). Outside it,
            // answer with the structured window instead of dropping —
            // the client learns exactly what to downgrade to.
            if !(MIN_PROTO_VERSION..=PROTO_VERSION).contains(&proto) {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                shared
                    .counters
                    .versions_rejected
                    .fetch_add(1, Ordering::Relaxed);
                conn.enqueue_control(&WireMessage::VersionReject {
                    min: MIN_PROTO_VERSION,
                    max: PROTO_VERSION,
                });
                begin_goodbye(shared, conn, ByeReason::Normal);
                return false;
            }
            // Placement: first-fit honors the requested room exactly
            // (the pre-matchmaker behaviour, byte for byte); affinity
            // packs same-game rooms for cross-player frame reuse.
            let room = match shared.config.policy {
                PlacementPolicy::FirstFit => room,
                PlacementPolicy::Affinity => shared.service.place_affinity(game, room),
            };
            let (player, scale_pm) = shared.service.join(game, room);
            conn.last_notified_scale_pm = scale_pm;
            conn.proto = proto;
            conn.set_state(ConnState::Active { game, room, player });
            // v3 clients get a signed reconnect token; older clients
            // get the tokenless Welcome whose bytes they already know.
            let token = (proto >= RESUME_PROTO_MIN).then(|| {
                ResumeToken {
                    game,
                    room,
                    player,
                    issued_ms: shared.epoch.elapsed().as_millis() as u64,
                }
                .sign(shared.secret)
            });
            conn.token = token;
            conn.enqueue_control(&WireMessage::Welcome {
                room,
                player,
                budget_ms: shared.service.budget_ms(),
                token,
            });
        }
        (ConnState::Handshake, WireMessage::Resume { proto, token }) => {
            if !(RESUME_PROTO_MIN..=PROTO_VERSION).contains(&proto) {
                shared
                    .counters
                    .versions_rejected
                    .fetch_add(1, Ordering::Relaxed);
                conn.enqueue_control(&WireMessage::VersionReject {
                    min: MIN_PROTO_VERSION,
                    max: PROTO_VERSION,
                });
                begin_goodbye(shared, conn, ByeReason::Normal);
                return false;
            }
            let reject = |reason| {
                shared
                    .counters
                    .resume_rejects
                    .fetch_add(1, Ordering::Relaxed);
                WireMessage::ResumeReject { reason }
            };
            if ResumeToken::verify(&token, shared.secret).is_none() {
                conn.enqueue_control(&reject(ResumeRejectReason::Malformed));
                begin_goodbye(shared, conn, ByeReason::Normal);
                return false;
            }
            let parked = shared.parked.lock().remove(&token);
            match parked {
                None => {
                    conn.enqueue_control(&reject(ResumeRejectReason::Unknown));
                    begin_goodbye(shared, conn, ByeReason::Normal);
                }
                Some(p)
                    if p.parked_at.elapsed()
                        > Duration::from_millis(shared.config.resume_ttl_ms) =>
                {
                    // TTL lapsed: release the held seat and say so.
                    shared.service.leave(p.game, p.room);
                    conn.enqueue_control(&reject(ResumeRejectReason::Expired));
                    begin_goodbye(shared, conn, ByeReason::Normal);
                }
                Some(p) => {
                    // Re-attach: same identity, same seat (never
                    // released), and the parked scale restored so the
                    // next pose only notifies on a *real* change —
                    // epoch ordering and quality level both survive
                    // the socket's death.
                    conn.proto = proto;
                    conn.token = Some(token);
                    conn.last_notified_scale_pm = p.scale_pm;
                    conn.set_state(ConnState::Active {
                        game: p.game,
                        room: p.room,
                        player: p.player,
                    });
                    shared
                        .counters
                        .sessions_resumed
                        .fetch_add(1, Ordering::Relaxed);
                    conn.enqueue_control(&WireMessage::Welcome {
                        room: p.room,
                        player: p.player,
                        budget_ms: shared.service.budget_ms(),
                        token: Some(token),
                    });
                }
            }
        }
        (ConnState::Active { game, room, .. }, WireMessage::Pose { seq, x, z, .. }) => {
            let (delivered, rendered) =
                serve_pose(shared, conn, game, room, seq, Vec2::new(x, z), worker);
            note_delivery(shared, conn, game, room, waited || !delivered);
            return rendered;
        }
        (ConnState::Active { .. }, WireMessage::Bye) | (ConnState::Handshake, WireMessage::Bye) => {
            begin_goodbye(shared, conn, ByeReason::Normal);
        }
        (_, WireMessage::Error { .. }) | (_, WireMessage::Goodbye { .. }) => {
            // Peer-side reports need no reply.
        }
        _ => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            conn.enqueue_control(&WireMessage::Error {
                code: ErrorCode::BadState,
            });
            begin_goodbye(shared, conn, ByeReason::Normal);
        }
    }
    false
}

/// splitmix64: derives the token-signing secret from the world seed
/// without exposing the seed itself in token MACs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Tells the client its room's scale if that is news to it.
fn notify_scale(shared: &Shared, conn: &mut Connection, scale_pm: u16) {
    if scale_pm != conn.last_notified_scale_pm {
        conn.last_notified_scale_pm = scale_pm;
        conn.enqueue_control(&WireMessage::Degrade { scale_pm });
        let sent = &shared.counters.degrades_sent;
        sent.fetch_add(1, Ordering::Relaxed);
    }
}

/// Feeds the room's quality controller one pose's outcome — `dropped`
/// when the pose had to wait for egress room or lost its frame — and
/// passes on a scale change.
fn note_delivery(shared: &Shared, conn: &mut Connection, game: GameId, room: u32, dropped: bool) {
    if let Some(new_scale) = shared.service.note_delivery(game, room, dropped) {
        notify_scale(shared, conn, new_scale);
    }
}

/// Looks up (or renders) the pose's frame and queues it, the payload by
/// reference. Returns whether the queue took it, and whether it was
/// rendered.
fn serve_pose(
    shared: &Shared,
    conn: &mut Connection,
    game: GameId,
    room: u32,
    seq: u64,
    pos: Vec2,
    worker: u32,
) -> (bool, bool) {
    let FrameReply {
        encoded,
        store_hit,
        scale_pm,
        rendered,
    } = shared.service.frame_for(game, room, pos, worker);

    // Another connection may have triggered a degrade since this client
    // last heard: notify lazily.
    notify_scale(shared, conn, scale_pm);

    let header = frame_header(
        seq,
        encoded.width,
        encoded.height,
        quality_to_wire(encoded.quality),
        store_hit,
        scale_pm,
        encoded.payload.len(),
    );
    let delivered = conn.enqueue_frame_parts(header, encoded.payload.clone());
    let counters = &shared.counters;
    let outcome = if delivered {
        &counters.frames_sent
    } else {
        &counters.frames_dropped
    };
    outcome.fetch_add(1, Ordering::Relaxed);
    shared.counters.note_peak(conn.queued_bytes() as u64);
    (delivered, rendered)
}
