//! The socket driver: an in-process server with one worker thread, and
//! this thread as the only load generator.
//!
//! The generator multiplexes every player over two Unix-domain
//! connections (abstract addresses on the host's loopback — not a real
//! link). Each connection is one wire session; a player
//! is a pose stream interleaved on it, told apart by the `seq` the
//! server echoes. The server's store is session-id-free, so pose
//! content, not connection count, sets its behaviour.
//!
//! Two load shapes run against one set-up server:
//!
//! - *paced*: an open loop. Player `k`'s pose `i` is due at
//!   `t0 + k·16.7/P + i·16.7 ms` and latency runs from that due time —
//!   not the send time — to `FrameAssembler::next_message` returning
//!   the frame, so a stall is charged to every pose it delays.
//! - *closed*: every player sends its next pose when its frame
//!   arrives. Set-up warm-up and the saturate phase both use it.

use crate::check::Checker;
use crate::timed_store::TimedStore;
use crate::workload::{PlayerPath, Sizing, Workload, FRAME_INTERVAL_MS, GAME};
use coterie_net::wire::{FrameAssembler, WireMessage, PROTO_VERSION};
use coterie_serve::StoreConfig;
use coterie_server::sys::{Epoll, EpollEvent, EPOLLIN};
use coterie_server::{Listener, Server, ServerConfig, ServiceCore};
use coterie_telemetry::TelemetrySink;
use coterie_world::Scene;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::os::linux::net::SocketAddrExt;
use std::os::unix::net::{SocketAddr, UnixListener, UnixStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Windows a timed phase is cut into. The end-to-end figures are
/// medians over windows, so one scheduling hiccup of the host spoils a
/// window, not the run.
pub const WINDOWS: usize = 12;

/// Overdue poses the paced generator sends between two reads.
const CATCH_UP_BURST: usize = 16;

/// Connections the generator opens: two, so the server's loop always
/// serves more than one, however few CPUs the process is left with.
const LINKS: usize = 2;

/// How long a phase waits with no frame arriving before it gives up and
/// counts the outstanding poses as failed.
const STALL_LIMIT: Duration = Duration::from_secs(5);

/// Packs a player and its pose index into the `seq` the server echoes.
fn seq_of(player: usize, index: u64) -> u64 {
    (player as u64) << 32 | index
}

struct Link {
    stream: UnixStream,
    asm: FrameAssembler,
    /// Poses queued for the next write.
    out: Vec<u8>,
}

struct Player {
    link: usize,
    path: PlayerPath,
    sent: u64,
    recv: u64,
    /// When each outstanding pose was due (paced) or sent (closed).
    stamps: VecDeque<Instant>,
}

/// One frame's arrival.
struct Arrival {
    player: usize,
    /// Index of the answered pose on the player's path.
    index: u64,
    stamp: Instant,
    at: Instant,
}

/// What a closed-loop phase measured.
#[derive(Debug, Default)]
pub struct ClosedRun {
    pub wall_s: f64,
    pub attempted: u64,
    pub answered: u64,
    /// `(frames answered, seconds elapsed)` at about every
    /// [`WINDOWS`]-th of the phase, for per-window rates.
    pub marks: Vec<(u64, f64)>,
}

/// What the paced phase measured.
#[derive(Debug, Default)]
pub struct PacedRun {
    pub wall_s: f64,
    /// Poses due.
    pub attempted: u64,
    /// Due time → frame in hand, ms, in due order; NaN where no frame
    /// came.
    pub latency_ms: Vec<f64>,
    /// Due time → pose written, one per pose, ms.
    pub lag_ms: Vec<f64>,
}

/// A set-up server plus the generator's connections to it.
pub struct Harness {
    pub server: Server,
    /// Present in a traced pass: the store the server reads and writes.
    pub timed_store: Option<Arc<TimedStore>>,
    pub checker: Checker,
    /// Bytes read off all sockets so far.
    pub bytes_read: u64,
    /// Hello → Welcome round trips, µs.
    pub handshake_us: Vec<f64>,
    /// Poses whose frame never came although a later one of the same
    /// player did.
    pub frames_lost: u64,
    address: SocketAddr,
    links: Vec<Link>,
    players: Vec<Player>,
    epoll: Epoll,
    arrivals: Vec<Arrival>,
}

impl Harness {
    /// Starts the server (`workers: 1`, thread `coterie-serve-0`) and
    /// opens the generator's connections. `sink` and the timed store
    /// are the traced pass's taps; an untraced pass runs the server
    /// exactly as `Server::start` builds it.
    pub fn start(
        workload: &Workload,
        sizing: &Sizing,
        paths: &[PlayerPath],
        scene: Arc<Scene>,
        traced: bool,
        sink: TelemetrySink,
    ) -> Result<Harness, String> {
        let config = ServerConfig {
            workers: 1,
            store_bytes: sizing.store_bytes,
            ..ServerConfig::default()
        };
        // Unique per process and per set-up, so repeated set-ups never
        // meet a listener that is still draining.
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let name = format!(
            "coterie-benchmark-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        );
        let address = SocketAddr::from_abstract_name(name).map_err(|e| e.to_string())?;
        let listener = UnixListener::bind_addr(&address).map_err(|e| e.to_string())?;
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;

        let timed_store = traced.then(|| {
            Arc::new(TimedStore::new(StoreConfig {
                capacity_bytes: config.store_bytes,
                ..StoreConfig::default()
            }))
        });
        let service = match &timed_store {
            Some(store) => ServiceCore::with_store(store.clone(), config.world_seed, sink),
            None => ServiceCore::new(config.store_bytes, config.world_seed, sink),
        };
        let server =
            Server::start_with_service(Listener::Unix(listener), config, Arc::new(service))
                .map_err(|e| e.to_string())?;

        let epoll = Epoll::new().map_err(|e| e.to_string())?;
        let mut harness = Harness {
            server,
            timed_store,
            checker: Checker::new(scene),
            bytes_read: 0,
            handshake_us: Vec::new(),
            frames_lost: 0,
            address,
            links: Vec::new(),
            players: Vec::new(),
            epoll,
            arrivals: Vec::new(),
        };
        for room in 0..LINKS.min(workload.players) {
            let (stream, us) = harness.handshake(room as u32)?;
            harness.handshake_us.push(us);
            harness
                .epoll
                .add(stream.as_raw_fd(), EPOLLIN, room as u64)
                .map_err(|e| e.to_string())?;
            harness.links.push(Link {
                stream,
                asm: FrameAssembler::new(),
                out: Vec::new(),
            });
        }
        let links = harness.links.len();
        harness.players = paths
            .iter()
            .enumerate()
            .map(|(k, path)| Player {
                link: k % links,
                path: path.clone(),
                sent: 0,
                recv: 0,
                stamps: VecDeque::new(),
            })
            .collect();
        Ok(harness)
    }

    /// Connects and joins `room`; returns the stream and the Hello →
    /// Welcome round trip in µs.
    fn handshake(&mut self, room: u32) -> Result<(UnixStream, f64), String> {
        let mut stream = UnixStream::connect_addr(&self.address).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(STALL_LIMIT))
            .map_err(|e| e.to_string())?;
        let hello = WireMessage::Hello {
            proto: PROTO_VERSION,
            game: GAME,
            room,
            seed: 0,
        };
        let t0 = Instant::now();
        stream
            .write_all(&hello.encode_frame())
            .map_err(|e| e.to_string())?;
        let mut asm = FrameAssembler::new();
        let mut buf = [0u8; 256];
        loop {
            match asm.next_message() {
                Ok(Some(WireMessage::Welcome { .. })) => break,
                Ok(Some(other)) => return Err(format!("handshake answered with {other:?}")),
                Ok(None) => {}
                Err(e) => return Err(format!("handshake: {e}")),
            }
            match stream.read(&mut buf) {
                Ok(0) => return Err("server closed during handshake".into()),
                Ok(n) => {
                    self.bytes_read += n as u64;
                    asm.push(&buf[..n]);
                }
                Err(e) => return Err(format!("handshake read: {e}")),
            }
        }
        Ok((stream, t0.elapsed().as_secs_f64() * 1e6))
    }

    /// Opens, joins and cleanly closes `n` extra sessions, recording
    /// each Hello → Welcome round trip (the traced pass's handshake
    /// sample; the rooms are left empty again).
    pub fn probe_handshakes(&mut self, n: u32) -> Result<(), String> {
        for i in 0..n {
            let (mut stream, us) = self.handshake(1000 + i)?;
            self.handshake_us.push(us);
            let _ = stream.write_all(&WireMessage::Bye.encode_frame());
        }
        Ok(())
    }

    pub fn players(&self) -> usize {
        self.players.len()
    }

    pub fn links(&self) -> usize {
        self.links.len()
    }

    /// The pose `player` would send next, and the ones after it — the
    /// replay's "poses the run never sent".
    pub fn upcoming_pose(&self, player: usize, ahead: u64) -> crate::workload::Pose {
        let p = &self.players[player];
        p.path.pose(p.sent + ahead)
    }

    /// Queues `player`'s next pose on its link.
    fn queue_pose(&mut self, player: usize, stamp: Instant) {
        let p = &mut self.players[player];
        let pose = p.path.pose(p.sent);
        let msg = WireMessage::Pose {
            seq: seq_of(player, p.sent),
            t_ms: p.sent as f64 * FRAME_INTERVAL_MS,
            x: pose.x,
            z: pose.z,
            yaw: pose.yaw,
        };
        p.sent += 1;
        p.stamps.push_back(stamp);
        self.links[p.link]
            .out
            .extend_from_slice(&msg.encode_frame());
    }

    /// Writes every queued pose. Sockets are blocking: if the server's
    /// receive buffer is full the generator waits here, and the paced
    /// phase reports the wait as generator lag.
    fn flush(&mut self) -> Result<(), String> {
        for link in &mut self.links {
            if !link.out.is_empty() {
                link.stream
                    .write_all(&link.out)
                    .map_err(|e| format!("pose write: {e}"))?;
                link.out.clear();
            }
        }
        Ok(())
    }

    /// Reads a ready link once and turns every complete frame into an
    /// [`Arrival`], checking it on the way.
    fn pump(&mut self, link: usize) -> Result<(), String> {
        let mut buf = [0u8; 64 * 1024];
        let n = match self.links[link].stream.read(&mut buf) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => return Ok(()),
            Err(e) => return Err(format!("frame read: {e}")),
        };
        self.bytes_read += n as u64;
        self.links[link].asm.push(&buf[..n]);
        loop {
            let msg = match self.links[link].asm.next_message() {
                Ok(Some(msg)) => msg,
                Ok(None) => return Ok(()),
                Err(e) => return Err(format!("wire: {e}")),
            };
            self.accept(msg, Instant::now());
        }
    }

    /// Books one message from the server: a frame against the pose it
    /// echoes, anything else as a notice or a violation.
    fn accept(&mut self, msg: WireMessage, at: Instant) {
        match msg {
            WireMessage::Frame {
                seq,
                width,
                height,
                quality,
                store_hit,
                scale_pm,
                payload,
            } => {
                let (player, index) = ((seq >> 32) as usize, seq & 0xFFFF_FFFF);
                // One link delivers a player's frames in pose order,
                // so the echo must be of a pose still out. Older poses
                // still out lost their frames to the server's egress
                // backpressure: failed, not wrong.
                let out = self.players.get(player).map_or(0..0, |p| p.recv..p.sent);
                if !out.contains(&index) {
                    self.checker.violation(format!(
                        "frame echoes pose {index} of player {player}, whose poses {out:?} are out"
                    ));
                    return;
                }
                let p = &mut self.players[player];
                self.frames_lost += index - p.recv;
                p.stamps.drain(..(index - p.recv) as usize);
                p.recv = index + 1;
                let stamp = p.stamps.pop_front().expect("a stamp per outstanding pose");
                let pose = p.path.pose(index);
                self.checker
                    .frame(&pose, width, height, quality, store_hit, scale_pm, payload);
                self.arrivals.push(Arrival {
                    player,
                    index,
                    stamp,
                    at,
                });
            }
            WireMessage::Degrade { .. } => self.checker.degrades_seen += 1,
            other => self
                .checker
                .violation(format!("unexpected message {other:?}")),
        }
    }

    /// Waits up to `timeout_ms` for frames; returns the links that have
    /// some, as a count and that many leading entries.
    fn ready(&self, timeout_ms: i32) -> Result<(usize, [usize; LINKS]), String> {
        let mut events = [EpollEvent::zeroed(); LINKS];
        let n = self
            .epoll
            .wait(&mut events, timeout_ms)
            .map_err(|e| format!("epoll: {e}"))?;
        let mut links = [0; LINKS];
        for (link, ev) in links.iter_mut().zip(&events[..n]) {
            *link = ev.token() as usize;
        }
        Ok((n, links))
    }

    /// Poses sent whose frame has neither come nor been skipped over.
    fn outstanding(&self) -> u64 {
        self.players.iter().map(|p| p.sent - p.recv).sum()
    }

    /// Closed loop: every player sends `per_player` poses, each as soon
    /// as the previous one's frame is in hand. `stop` is asked every
    /// few hundred frames whether to stop sending early (the
    /// `store_full` fill stops once the store is full).
    pub fn closed_loop(
        &mut self,
        per_player: u64,
        mut stop: impl FnMut(&Server) -> bool,
    ) -> Result<ClosedRun, String> {
        let targets: Vec<u64> = self.players.iter().map(|p| p.sent + per_player).collect();
        let started = Instant::now();
        let mut run = ClosedRun::default();
        let mut stopped = per_player == 0 || stop(&self.server);
        if !stopped {
            for k in 0..self.players.len() {
                self.queue_pose(k, started);
                run.attempted += 1;
            }
            self.flush()?;
        }
        let mut last_progress = Instant::now();
        let mut since_check = 0;
        let window = (per_player * self.players.len() as u64) / WINDOWS as u64;
        while self.outstanding() > 0 {
            let (n, links) = self.ready(1000)?;
            if n == 0 && last_progress.elapsed() > STALL_LIMIT {
                break;
            }
            // Answer each link as soon as it is read, so the server
            // works on one link's poses while this thread reads the
            // other's frames.
            for &link in &links[..n] {
                last_progress = Instant::now();
                self.pump(link)?;
                let arrivals = std::mem::take(&mut self.arrivals);
                run.answered += arrivals.len() as u64;
                since_check += arrivals.len();
                if since_check >= 256 {
                    since_check = 0;
                    stopped = stopped || stop(&self.server);
                }
                for a in &arrivals {
                    if !stopped && self.players[a.player].sent < targets[a.player] {
                        self.queue_pose(a.player, a.at);
                        run.attempted += 1;
                    }
                }
                self.arrivals = arrivals;
                self.arrivals.clear();
                self.flush()?;
            }
            if run.answered / window.max(1) > run.marks.len() as u64 {
                run.marks
                    .push((run.answered, started.elapsed().as_secs_f64()));
            }
        }
        run.wall_s = started.elapsed().as_secs_f64();
        self.abandon_outstanding();
        Ok(run)
    }

    /// Open loop: `per_player` poses per player on the fixed schedule
    /// in the module docs. `stall` makes the generator sleep once,
    /// before sending the given due event — the injected fault the
    /// due-time stamping is tested against.
    pub fn paced(
        &mut self,
        per_player: u64,
        stall: Option<(u64, Duration)>,
    ) -> Result<PacedRun, String> {
        let players = self.players.len() as u64;
        let total = per_player * players;
        let step = Duration::from_secs_f64(FRAME_INTERVAL_MS / 1000.0 / players as f64);
        let started = Instant::now();
        let t0 = started + Duration::from_millis(2);
        // The n-th due event is player n mod P's pose n div P, due at
        // t0 + n·16.7/P — the same lattice as k·16.7/P + i·16.7.
        let due = |n: u64| t0 + step.mul_f64(n as f64);
        let mut run = PacedRun {
            attempted: total,
            latency_ms: vec![f64::NAN; total as usize],
            lag_ms: Vec::with_capacity(total as usize),
            ..PacedRun::default()
        };
        let base: Vec<u64> = self.players.iter().map(|p| p.sent).collect();
        let mut next = 0u64;
        let mut answered = 0u64;
        let lost_before = self.frames_lost;
        let mut last_progress = Instant::now();
        while answered + (self.frames_lost - lost_before) < total {
            let mut now = Instant::now();
            // After a stall many poses are overdue at once. They go out
            // a few at a time with reads in between, as independent
            // players would send them; one unread burst of replies
            // would overflow the server's egress queue.
            let mut burst = 0;
            while next < total && due(next) <= now && burst < CATCH_UP_BURST {
                burst += 1;
                if let Some((at, pause)) = stall {
                    if at == next {
                        std::thread::sleep(pause);
                    }
                }
                self.queue_pose((next % players) as usize, due(next));
                self.flush()?;
                now = Instant::now();
                run.lag_ms.push((now - due(next)).as_secs_f64() * 1000.0);
                next += 1;
            }
            // epoll sleeps in whole milliseconds; the last fraction
            // before a due time is polled.
            let timeout_ms = if next < total {
                due(next).saturating_duration_since(now).as_millis() as i32
            } else {
                100
            };
            let (n, links) = self.ready(timeout_ms)?;
            for &link in &links[..n] {
                self.pump(link)?;
            }
            if n > 0 {
                last_progress = Instant::now();
                for a in self.arrivals.drain(..) {
                    let n = (a.index - base[a.player]) * players + a.player as u64;
                    run.latency_ms[n as usize] = (a.at - a.stamp).as_secs_f64() * 1000.0;
                    answered += 1;
                }
            } else if next >= total && last_progress.elapsed() > STALL_LIMIT {
                break;
            } else if timeout_ms == 0 {
                std::hint::spin_loop();
            }
        }
        run.wall_s = started.elapsed().as_secs_f64();
        self.abandon_outstanding();
        Ok(run)
    }

    /// After a phase that gave up on a stalled server: forget the poses
    /// still out, so the next phase's echo check starts clean.
    fn abandon_outstanding(&mut self) {
        for p in &mut self.players {
            p.recv = p.sent;
            p.stamps.clear();
        }
    }

    /// Says goodbye on every link, stops the server and waits for its
    /// worker thread.
    pub fn stop(mut self) -> coterie_server::ServerStats {
        for link in &mut self.links {
            let _ = link.stream.write_all(&WireMessage::Bye.encode_frame());
        }
        self.server.stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, Kind};

    fn tiny_harness(players: usize, poses_each: u64) -> Harness {
        let workload = Workload {
            kind: Kind::RoamCold,
            name: "test",
            players,
            store_bytes: None,
            closed_poses: 0,
        };
        let sizing = workload.sizing(1, false, true);
        let (spec, scene) = crate::run::world();
        let paths = workload::player_paths(&workload, &scene, &spec, poses_each, 9);
        Harness::start(
            &workload,
            &sizing,
            &paths,
            scene,
            false,
            TelemetrySink::disabled(),
        )
        .expect("harness starts")
    }

    #[test]
    fn closed_loop_answers_every_pose_in_order() {
        let mut h = tiny_harness(5, 40);
        let run = h.closed_loop(30, |_| false).unwrap();
        assert_eq!((run.attempted, run.answered), (150, 150));
        assert_eq!(h.checker.frames, 150);
        assert_eq!(h.checker.violation_count, 0, "{:?}", h.checker.violations);
        assert_eq!(h.checker.decode_all(), 0);
        let stats = h.stop();
        assert_eq!(stats.poses, 150);
        assert_eq!(stats.frames_dropped, 0);
    }

    #[test]
    fn a_later_echo_books_the_skipped_poses_as_lost_and_a_stray_one_as_wrong() {
        let mut h = tiny_harness(2, 10);
        let now = Instant::now();
        for _ in 0..3 {
            h.queue_pose(1, now);
        }
        h.links[1].out.clear(); // never sent: the frames below are made up
        let frame = |index: u64| WireMessage::Frame {
            seq: seq_of(1, index),
            width: 128,
            height: 64,
            quality: 1,
            store_hit: false,
            scale_pm: 1000,
            payload: vec![1, 2, 3],
        };
        h.accept(frame(2), now);
        assert_eq!((h.frames_lost, h.outstanding()), (2, 0));
        assert_eq!(h.arrivals.len(), 1);
        assert_eq!((h.arrivals[0].player, h.arrivals[0].index), (1, 2));
        assert_eq!(h.checker.violation_count, 0);
        // Pose 2 is no longer out, pose 7 never was, player 9 does not exist.
        for stray in [
            frame(2),
            frame(7),
            WireMessage::Frame {
                seq: seq_of(9, 0),
                width: 128,
                height: 64,
                quality: 1,
                store_hit: false,
                scale_pm: 1000,
                payload: vec![],
            },
        ] {
            h.accept(stray, now);
        }
        assert_eq!((h.checker.violation_count, h.frames_lost), (3, 2));
        h.stop();
    }

    #[test]
    fn closed_loop_stops_early_when_asked() {
        let mut h = tiny_harness(4, 2000);
        let mut asked = 0;
        let run = h
            .closed_loop(2000, |_| {
                asked += 1;
                asked > 2
            })
            .unwrap();
        assert_eq!(run.attempted, run.answered);
        assert!(
            run.answered >= 512 && run.answered < 1200,
            "{}",
            run.answered
        );
        h.stop();
    }

    #[test]
    fn paced_latency_runs_from_the_due_time_under_a_stall() {
        // Four players, so a due event every 16.7/4 ms. The generator
        // sleeps 80 ms before sending event 40: that pose and the ones
        // falling due during the sleep leave late.
        const STALL_AT: usize = 40;
        const STALL_MS: f64 = 80.0;
        let mut h = tiny_harness(4, 40);
        let stall = Some((STALL_AT as u64, Duration::from_secs_f64(STALL_MS / 1000.0)));
        let run = h.paced(30, stall).unwrap();
        assert_eq!(run.attempted, 120);
        assert!(
            run.latency_ms.iter().all(|ms| !ms.is_nan()),
            "every pose answered"
        );
        let step_ms = FRAME_INTERVAL_MS / 4.0;
        // Stamped from the due time, the pose j events after the stall
        // began has waited the rest of the stall; stamped from the send
        // time it would read a round trip (well under a millisecond).
        for j in 0..10 {
            let waited = STALL_MS - j as f64 * step_ms;
            let got = run.latency_ms[STALL_AT + j];
            assert!(
                got >= waited - 0.5,
                "event {j} after the stall: latency {got:.2} ms, due-time stamping gives >= {waited:.2}"
            );
            assert!(
                run.lag_ms[STALL_AT + j] >= waited - 0.5,
                "lag is reported too"
            );
        }
        // Poses due before the stall were not touched by it.
        let mut before = run.latency_ms[..STALL_AT - 1].to_vec();
        assert!(crate::stats::median(&mut before) < 20.0);
        h.stop();
    }
}
