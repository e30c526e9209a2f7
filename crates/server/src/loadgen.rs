//! Trajectory-driven load generator.
//!
//! Each client is one blocking-socket session replaying a
//! `world::trajectory` walk of the same scene the server built (same
//! game, same seed), so the pose stream — and therefore the store's
//! hit pattern — matches what a real player cohort of that game genre
//! produces. Client-side pacing reuses the FI scenario catalog
//! ([`coterie_net::NetScenario`]): a lossy scenario drops poses (the
//! frame interval passes with no request, as a stalled uplink would),
//! which exercises the server's idle/level-triggered paths, not just
//! its saturation path.
//!
//! The report carries a full [`LogHistogram`] of wall-clock
//! pose→frame round-trip latency — the measured equivalent of the
//! simulator's per-frame net stage — plus protocol-health counters the
//! integration tests assert on.

use crate::service::quality_from_wire;
use crate::stream::Endpoint;
use bytes::Bytes;
use coterie_codec::{EncodedFrame, Encoder};
use coterie_net::wire::{FrameAssembler, WireMessage, PROTO_VERSION};
use coterie_net::{FiChannel, NetScenario};
use coterie_telemetry::LogHistogram;
use coterie_world::{GameId, GameSpec, Scene, Trajectory};
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nominal display interval the clients pace against, ms.
pub const FRAME_INTERVAL_MS: f64 = 16.7;

/// Absolute-deadline frame pacing.
///
/// Frame `i` is due at `start + i·interval` — a fixed schedule, like a
/// display's vsync train. A relative `sleep(interval)` after each frame
/// instead re-anchors the schedule every iteration, so round-trip time,
/// sleep overshoot and skipped intervals all accumulate: after `n`
/// frames the client runs `n·(work + overshoot)` behind the display
/// clock it claims to model. Against the fixed schedule, per-iteration
/// noise only delays the frame it hits; the next wait re-synchronizes.
pub struct Pacer {
    start: Instant,
    interval_ns: u64,
}

impl Pacer {
    /// A pacer whose frame 0 is due immediately.
    pub fn new(interval_ms: f64) -> Pacer {
        Pacer {
            start: Instant::now(),
            interval_ns: (interval_ms * 1_000_000.0) as u64,
        }
    }

    /// The absolute deadline of frame `i`.
    pub fn deadline(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos(i.saturating_mul(self.interval_ns))
    }

    /// Blocks until frame `i` is due. Returns how late the wakeup ran
    /// in ms (0 when the sleep ended on schedule); a deadline already
    /// in the past returns immediately without shifting the schedule.
    pub fn wait_for(&self, i: u64) -> f64 {
        let deadline = self.deadline(i);
        let now = Instant::now();
        if now < deadline {
            std::thread::sleep(deadline - now);
        }
        Instant::now()
            .saturating_duration_since(deadline)
            .as_secs_f64()
            * 1000.0
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server to hit.
    pub endpoint: Endpoint,
    /// Concurrent client sessions.
    pub clients: usize,
    /// Poses each client sends (upper bound; lossy scenarios skip
    /// some).
    pub frames_per_client: u64,
    /// Game every session joins.
    pub game: GameId,
    /// Rooms the clients spread across (round-robin).
    pub rooms: u32,
    /// Client-side FI pacing scenario.
    pub net: NetScenario,
    /// World seed — must match the server's for trajectory-consistent
    /// traffic.
    pub seed: u64,
    /// Pace poses at the display interval (true) or as fast as the
    /// server answers (false, the saturation mode).
    pub realtime: bool,
    /// Churn mode: at this pose index each client drops its socket
    /// without a `Bye` (simulating a dead link) and reconnects with
    /// the `Resume` token from its Welcome. `None` (the default) keeps
    /// the uninterrupted session flow.
    pub reconnect_at: Option<u64>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            endpoint: Endpoint::Uds(std::env::temp_dir().join("coterie-serve.sock")),
            clients: 2,
            frames_per_client: 120,
            game: GameId::VikingVillage,
            rooms: 1,
            net: NetScenario::None,
            seed: 42,
            realtime: false,
            reconnect_at: None,
        }
    }
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Sessions launched.
    pub sessions: usize,
    /// Sessions that completed the full protocol (welcome → goodbye).
    pub sessions_completed: usize,
    /// Poses sent.
    pub poses_sent: u64,
    /// Frames received.
    pub frames_received: u64,
    /// Frames answered from the shared store (server-reported flag).
    pub store_hits: u64,
    /// Poses skipped because the FI scenario declared the interval
    /// lost.
    pub poses_lost: u64,
    /// Degrade notices observed.
    pub degrades_seen: u64,
    /// Frames whose payload failed to decode.
    pub decode_failures: u64,
    /// Protocol violations observed client-side.
    pub protocol_errors: u64,
    /// Payload bytes received (wire framing included).
    pub bytes_received: u64,
    /// Sessions that dropped their socket and resumed by token.
    pub sessions_resumed: u64,
    /// `Resume` attempts the server rejected.
    pub resume_rejects: u64,
    /// Resumed sessions whose first post-resume frame came back at a
    /// different quality scale than the last pre-drop frame.
    pub resume_scale_mismatches: u64,
    /// Wall-clock pose→frame round-trip latency, ms.
    pub latency: LogHistogram,
    /// Wall-clock run duration, seconds.
    pub elapsed_s: f64,
}

impl LoadReport {
    fn merge(&mut self, other: &LoadReport) {
        self.sessions += other.sessions;
        self.sessions_completed += other.sessions_completed;
        self.poses_sent += other.poses_sent;
        self.frames_received += other.frames_received;
        self.store_hits += other.store_hits;
        self.poses_lost += other.poses_lost;
        self.degrades_seen += other.degrades_seen;
        self.decode_failures += other.decode_failures;
        self.protocol_errors += other.protocol_errors;
        self.bytes_received += other.bytes_received;
        self.sessions_resumed += other.sessions_resumed;
        self.resume_rejects += other.resume_rejects;
        self.resume_scale_mismatches += other.resume_scale_mismatches;
        self.latency.merge(&other.latency);
    }

    fn empty() -> LoadReport {
        LoadReport {
            sessions: 0,
            sessions_completed: 0,
            poses_sent: 0,
            frames_received: 0,
            store_hits: 0,
            poses_lost: 0,
            degrades_seen: 0,
            decode_failures: 0,
            protocol_errors: 0,
            bytes_received: 0,
            sessions_resumed: 0,
            resume_rejects: 0,
            resume_scale_mismatches: 0,
            latency: LogHistogram::new(),
            elapsed_s: 0.0,
        }
    }

    /// Received-frame throughput, bytes/s.
    pub fn egress_bytes_per_s(&self) -> f64 {
        if self.elapsed_s <= 0.0 {
            0.0
        } else {
            self.bytes_received as f64 / self.elapsed_s
        }
    }

    /// One-line health summary (greppable by CI smoke). Runs without
    /// resume traffic print the historical line byte for byte; churn
    /// runs append the resume segment.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "loadgen ok: {}/{} sessions clean, {} poses, {} frames ({} store hits), \
             {} lost, {} degrades, {} protocol errors, p99 {:.2} ms, {:.1} KB/s",
            self.sessions_completed,
            self.sessions,
            self.poses_sent,
            self.frames_received,
            self.store_hits,
            self.poses_lost,
            self.degrades_seen,
            self.protocol_errors,
            self.latency.quantile(0.99),
            self.egress_bytes_per_s() / 1000.0,
        );
        if self.sessions_resumed + self.resume_rejects > 0 {
            line.push_str(&format!(
                ", {} resumed ({} rejects, {} scale mismatches)",
                self.sessions_resumed, self.resume_rejects, self.resume_scale_mismatches
            ));
        }
        line
    }
}

/// Runs the configured load and blocks until every session finishes.
pub fn run(config: &LoadConfig) -> LoadReport {
    let spec = GameSpec::for_game(config.game);
    let scene = Arc::new(spec.build_scene(config.seed));
    let started = Instant::now();
    let mut merged = LoadReport::empty();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(config.clients);
        for client in 0..config.clients {
            let scene = scene.clone();
            let spec = spec.clone();
            let config = config.clone();
            handles.push(scope.spawn(move || run_client(&config, client, &spec, &scene)));
        }
        for h in handles {
            if let Ok(report) = h.join() {
                merged.merge(&report);
            }
        }
    });

    merged.elapsed_s = started.elapsed().as_secs_f64();
    merged
}

fn run_client(config: &LoadConfig, client: usize, spec: &GameSpec, scene: &Scene) -> LoadReport {
    let mut report = LoadReport::empty();
    report.sessions = 1;

    let Ok(mut stream) = config.endpoint.connect() else {
        report.protocol_errors += 1;
        return report;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));

    let room = config.rooms.max(1);
    let room = (client as u32) % room;
    let peers_in_room = config.clients.div_ceil(room.max(1) as usize).max(1);
    let duration_s =
        (config.frames_per_client as f64 * FRAME_INTERVAL_MS / 1000.0).max(FRAME_INTERVAL_MS);
    let traj = Trajectory::generate(
        scene,
        spec,
        client % peers_in_room,
        peers_in_room,
        duration_s,
        config.seed.wrapping_add(client as u64),
    );
    let mut fi = FiChannel::new(config.net, config.seed.wrapping_add(0x5EED + client as u64));
    let mut asm = FrameAssembler::new();

    let hello = WireMessage::Hello {
        proto: PROTO_VERSION,
        game: config.game,
        room,
        seed: config.seed,
    };
    if stream.write_all(&hello.encode_frame()).is_err() {
        report.protocol_errors += 1;
        return report;
    }
    let mut resume_token = match read_message(&mut stream, &mut asm, &mut report) {
        Some(WireMessage::Welcome { token, .. }) => token,
        _ => {
            report.protocol_errors += 1;
            return report;
        }
    };

    let pacer = config.realtime.then(|| Pacer::new(FRAME_INTERVAL_MS));
    let mut last_scale_pm: u16 = 1000;
    let mut check_scale_after_resume = false;
    for i in 0..config.frames_per_client {
        // Churn: drop the socket mid-run (no `Bye`) and come back with
        // the token — the reconnect path a flaky home link exercises.
        if config.reconnect_at == Some(i) {
            drop(stream);
            // Give the server a poll tick to see the hangup and
            // park the session before the Resume arrives.
            std::thread::sleep(Duration::from_millis(60));
            let Ok(s) = config.endpoint.connect() else {
                report.protocol_errors += 1;
                return report;
            };
            stream = s;
            let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
            asm = FrameAssembler::new();
            let resume = WireMessage::Resume {
                proto: PROTO_VERSION,
                token: resume_token,
            };
            if stream.write_all(&resume.encode_frame()).is_err() {
                report.protocol_errors += 1;
                return report;
            }
            match read_message(&mut stream, &mut asm, &mut report) {
                Some(WireMessage::Welcome { token, .. }) => {
                    report.sessions_resumed += 1;
                    resume_token = token;
                    check_scale_after_resume = true;
                }
                Some(WireMessage::ResumeReject { .. }) => {
                    report.resume_rejects += 1;
                    return report;
                }
                _ => {
                    report.protocol_errors += 1;
                    return report;
                }
            }
        }
        let t_ms = i as f64 * FRAME_INTERVAL_MS;
        // Wait on the absolute schedule before the FI roll so lost
        // intervals still consume display time instead of compressing
        // the pose train.
        if let Some(pacer) = &pacer {
            pacer.wait_for(i);
        }
        if fi.send_at(t_ms).latency_ms().is_none() {
            // FI interval lost: the pose never leaves the device.
            report.poses_lost += 1;
            continue;
        }
        let pos = traj.position(t_ms / 1000.0);
        let yaw = traj.heading(t_ms / 1000.0);
        let pose = WireMessage::Pose {
            seq: i,
            t_ms,
            x: pos.x,
            z: pos.z,
            yaw,
        };
        let sent_at = Instant::now();
        if stream.write_all(&pose.encode_frame()).is_err() {
            report.protocol_errors += 1;
            return report;
        }
        report.poses_sent += 1;

        // Drain messages until this pose's frame arrives (degrade
        // notices interleave).
        loop {
            match read_message(&mut stream, &mut asm, &mut report) {
                Some(WireMessage::Frame {
                    seq,
                    width,
                    height,
                    quality,
                    store_hit,
                    scale_pm,
                    payload,
                }) => {
                    report
                        .latency
                        .record(sent_at.elapsed().as_secs_f64() * 1000.0);
                    report.frames_received += 1;
                    if check_scale_after_resume {
                        check_scale_after_resume = false;
                        if scale_pm != last_scale_pm {
                            report.resume_scale_mismatches += 1;
                        }
                    }
                    last_scale_pm = scale_pm;
                    if store_hit {
                        report.store_hits += 1;
                    }
                    let encoded = EncodedFrame {
                        width,
                        height,
                        quality: quality_from_wire(quality),
                        payload: Bytes::from_vec(payload),
                    };
                    let decoder = Encoder::new(encoded.quality);
                    if decoder.decode(&encoded).is_err() {
                        report.decode_failures += 1;
                    }
                    if seq != i {
                        report.protocol_errors += 1;
                    }
                    break;
                }
                Some(WireMessage::Degrade { .. }) => {
                    report.degrades_seen += 1;
                    // A notified scale change between drop and resume is
                    // a legitimate transition, not a lost-state bug.
                    check_scale_after_resume = false;
                }
                Some(WireMessage::Goodbye { .. }) | None => {
                    // Server went away mid-session (shutdown drain).
                    return report;
                }
                Some(WireMessage::Error { .. }) => {
                    report.protocol_errors += 1;
                    return report;
                }
                Some(_) => {
                    report.protocol_errors += 1;
                    return report;
                }
            }
        }
    }

    // Clean close: Bye, wait for Goodbye.
    if stream.write_all(&WireMessage::Bye.encode_frame()).is_err() {
        report.protocol_errors += 1;
        return report;
    }
    loop {
        match read_message(&mut stream, &mut asm, &mut report) {
            Some(WireMessage::Goodbye { .. }) => {
                report.sessions_completed += 1;
                return report;
            }
            Some(WireMessage::Degrade { .. }) => report.degrades_seen += 1,
            Some(WireMessage::Frame { .. }) => {
                // A frame still in flight when we said bye.
                report.frames_received += 1;
            }
            Some(_) | None => {
                report.protocol_errors += 1;
                return report;
            }
        }
    }
}

/// Blocking read of the next complete message; counts received bytes.
fn read_message(
    stream: &mut crate::stream::Stream,
    asm: &mut FrameAssembler,
    report: &mut LoadReport,
) -> Option<WireMessage> {
    use std::io::Read as _;
    loop {
        match asm.next_message() {
            Ok(Some(m)) => return Some(m),
            Ok(None) => {}
            Err(_) => {
                report.protocol_errors += 1;
                return None;
            }
        }
        let mut buf = [0u8; 16 * 1024];
        match stream.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => {
                report.bytes_received += n as u64;
                asm.push(&buf[..n]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacer_deadlines_form_an_exact_lattice() {
        let p = Pacer::new(FRAME_INTERVAL_MS);
        let step = Duration::from_nanos((FRAME_INTERVAL_MS * 1_000_000.0) as u64);
        assert_eq!(p.deadline(1) - p.deadline(0), step);
        // No per-step float accumulation: frame 1000 sits exactly 1000
        // steps out.
        assert_eq!(p.deadline(1000) - p.deadline(0), step * 1000);
    }

    #[test]
    fn pacer_bounds_drift_under_per_frame_work() {
        // 30 frames at 10 ms with ~4 ms of "work" per frame. The old
        // relative sleep stacked work on top of the interval: >= 30 x
        // (10 + 4) = 420 ms. The absolute schedule absorbs the work
        // inside each interval: ~300 ms, drift bounded by scheduler
        // jitter instead of growing with n.
        const N: u64 = 30;
        const INTERVAL_MS: f64 = 10.0;
        let p = Pacer::new(INTERVAL_MS);
        for i in 0..N {
            p.wait_for(i);
            std::thread::sleep(Duration::from_millis(4));
        }
        let lateness_ms = p.wait_for(N);
        assert!(
            lateness_ms < 60.0,
            "schedule drifted {lateness_ms:.1} ms over {N} frames: \
             per-frame work is leaking into the pacing interval"
        );
    }

    #[test]
    fn pacer_recovers_schedule_after_a_stall() {
        // A 30 ms stall blows through three 10 ms deadlines. The missed
        // waits return immediately (positive lateness) and the next
        // future deadline is honored on the original lattice — the
        // stall does not push the whole schedule back.
        let p = Pacer::new(10.0);
        std::thread::sleep(Duration::from_millis(30));
        assert!(p.wait_for(1) > 0.0, "past deadline must not sleep");
        let lateness = p.wait_for(8);
        assert!(
            lateness < 40.0,
            "frame 8 ran {lateness:.1} ms late: stall shifted the lattice"
        );
    }
}
