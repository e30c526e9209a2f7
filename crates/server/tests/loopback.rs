//! Loopback integration: real server + real clients over UDS and TCP.
//!
//! These are the acceptance tests for the serving plane: N clients × M
//! frames with zero protocol errors, bounded egress under a slow
//! reader, and a graceful drain on shutdown.

use coterie_net::wire::{
    ByeReason, ErrorCode, ResumeRejectReason, WireMessage, PROTO_VERSION, TOKEN_BYTES,
};
use coterie_net::NetScenario;
use coterie_server::{loadgen, Endpoint, Listener, LoadConfig, Server, ServerConfig};
use coterie_telemetry::TelemetrySink;
use coterie_world::{GameId, GameSpec};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("coterie-loop-{}-{tag}.sock", std::process::id()))
}

fn start_uds(tag: &str, config: ServerConfig) -> (Server, PathBuf) {
    let path = sock_path(tag);
    let listener = Listener::bind_uds(&path).expect("bind uds");
    let server = Server::start(listener, config, TelemetrySink::disabled()).expect("start");
    (server, path)
}

fn base_load(path: &Path, clients: usize, frames: u64) -> LoadConfig {
    LoadConfig {
        endpoint: Endpoint::Uds(path.to_path_buf()),
        clients,
        frames_per_client: frames,
        game: GameId::VikingVillage,
        rooms: 2,
        net: NetScenario::None,
        seed: 42,
        realtime: false,
        reconnect_at: None,
    }
}

/// The headline acceptance run: N clients × M frames over UDS, every
/// session completes the full protocol, zero errors on both sides,
/// clean shutdown with no connections left behind.
#[test]
fn n_clients_m_frames_over_uds_zero_errors() {
    let (server, path) = start_uds("accept", ServerConfig::default());
    let clients = 4;
    let frames = 50;
    let report = loadgen::run(&base_load(&path, clients, frames));
    let stats = server.stop();
    let _ = std::fs::remove_file(&path);

    assert_eq!(report.sessions, clients, "{}", report.summary_line());
    assert_eq!(
        report.sessions_completed,
        clients,
        "{}",
        report.summary_line()
    );
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.decode_failures, 0);
    // Every pose that left a client came back as exactly one frame
    // (FI background loss may skip a few sends; those never reach the
    // server, so both sides agree).
    assert_eq!(report.frames_received, report.poses_sent);
    assert_eq!(
        report.poses_sent + report.poses_lost,
        clients as u64 * frames
    );
    assert_eq!(stats.poses, report.poses_sent);
    assert_eq!(stats.frames_sent, report.frames_received);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.accepted, clients as u64);
    assert_eq!(stats.closed, clients as u64);
    assert_eq!(stats.live, 0);
    // Co-located players in a room share poses → the store serves hits.
    assert!(stats.store_hit_ratio > 0.0, "stats {stats:?}");
}

/// Two workers share the listener, the store, the rooms and the farm:
/// every session still completes with every pose answered once.
#[test]
fn two_workers_serve_every_session_over_uds() {
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let (server, path) = start_uds("workers", config);
    let clients = 8;
    let report = loadgen::run(&base_load(&path, clients, 80));
    let stored = server.service().store().len();
    let stats = server.stop();
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        report.sessions_completed,
        clients,
        "{}",
        report.summary_line()
    );
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(report.frames_received, report.poses_sent);
    assert_eq!(stats.poses, report.poses_sent);
    assert!(stored > 0, "the workers stored no frame");
}

/// Same protocol over real TCP loopback.
#[test]
fn tcp_loopback_round_trips() {
    let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind tcp");
    let server =
        Server::start(listener, ServerConfig::default(), TelemetrySink::disabled()).expect("start");
    let addr = server.local_addr().expect("tcp addr");
    let report = loadgen::run(&LoadConfig {
        endpoint: Endpoint::Tcp(addr.to_string()),
        clients: 2,
        frames_per_client: 20,
        ..base_load(&PathBuf::new(), 2, 20)
    });
    let stats = server.stop();
    assert_eq!(report.sessions_completed, 2, "{}", report.summary_line());
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(report.frames_received, report.poses_sent);
}

/// Reads until the next message, with a deadline.
fn read_msg(
    stream: &mut UnixStream,
    asm: &mut coterie_net::FrameAssembler,
    deadline: Duration,
) -> Option<WireMessage> {
    let start = Instant::now();
    let mut buf = [0u8; 8192];
    loop {
        if let Ok(Some(m)) = asm.next_message() {
            return Some(m);
        }
        if start.elapsed() > deadline {
            return None;
        }
        match stream.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => asm.push(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
            Err(_) => return None,
        }
    }
}

fn hello() -> Vec<u8> {
    WireMessage::Hello {
        proto: PROTO_VERSION,
        game: GameId::VikingVillage,
        room: 0,
        seed: 42,
    }
    .encode_frame()
}

fn pose(seq: u64) -> Vec<u8> {
    WireMessage::Pose {
        seq,
        t_ms: seq as f64 * 16.7,
        x: (seq % 7) as f64 * 0.25,
        z: (seq % 5) as f64 * 0.25,
        yaw: 0.0,
    }
    .encode_frame()
}

/// Poses scattered over the whole world, so that (as for the
/// benchmark's roaming players) nearly every one is a store miss with a
/// frame of its own, 1–2 KB encoded.
fn roam_pose(seq: u64) -> Vec<u8> {
    WireMessage::Pose {
        seq,
        t_ms: seq as f64 * 16.7,
        x: 10.0 + (seq * 7919 % 1600) as f64 * 0.1,
        z: 10.0 + (seq * 104_729 % 1100) as f64 * 0.1,
        yaw: 0.0,
    }
    .encode_frame()
}

/// Joins room 0 of the test game and returns the connected stream.
fn join(path: &Path) -> (UnixStream, coterie_net::FrameAssembler) {
    let mut stream = UnixStream::connect(path).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    stream.write_all(&hello()).expect("hello");
    let mut asm = coterie_net::FrameAssembler::new();
    let welcome = read_msg(&mut stream, &mut asm, Duration::from_secs(5));
    assert!(matches!(welcome, Some(WireMessage::Welcome { .. })));
    (stream, asm)
}

/// Polls the server's stats until it has received `poses` poses.
fn wait_for_poses(server: &Server, poses: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.stats().poses < poses && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = server.stats();
    assert_eq!(stats.poses, poses, "server never saw the flood: {stats:?}");
}

/// A reader that joins, then sends poses without ever reading: the
/// server keeps reading (every pose is counted), its egress queue caps
/// at the configured limit plus one reply, the poses that outrun the
/// inbox are discarded rather than accumulated, and other clients are
/// served meanwhile.
#[test]
fn slow_reader_egress_stays_bounded_and_drops_frames() {
    let egress_limit = 16 * 1024;
    let (server, path) = start_uds(
        "slow",
        ServerConfig {
            egress_limit_bytes: egress_limit,
            ..ServerConfig::default()
        },
    );
    let (mut stream, mut asm) = join(&path);

    // Flood poses; never read. The kernel socket buffer fills first,
    // then the server-side egress queue, then the inbox, and from there
    // the oldest waiting poses go.
    for seq in 0..600u64 {
        stream.write_all(&roam_pose(seq)).expect("pose");
    }
    wait_for_poses(&server, 600);
    let stats = server.stats();
    assert!(stats.frames_dropped > 0, "no backpressure drops: {stats:?}");

    // The stuck connection holds nobody else up.
    let (mut other, mut other_asm) = join(&path);
    other.write_all(&pose(0)).expect("pose");
    assert!(matches!(
        read_msg(&mut other, &mut other_asm, Duration::from_secs(5)),
        Some(WireMessage::Frame { .. })
    ));

    // Reading at last brings the frames queued and the poses deferred,
    // in order; the largest is the "one reply" of the queue's bound.
    let (mut largest_reply, mut last_seq) = (0, None);
    while let Some(msg) = read_msg(&mut stream, &mut asm, Duration::from_millis(500)) {
        if let WireMessage::Frame { seq, .. } = msg {
            assert!(last_seq < Some(seq), "frame {seq} after {last_seq:?}");
            last_seq = Some(seq);
            largest_reply = largest_reply.max(msg.encode_frame().len());
        }
    }
    assert_eq!(last_seq, Some(599), "the newest pose is never the one lost");

    // The per-connection queue high-water mark is folded into the
    // shared counters when the connection closes.
    drop((stream, other));
    let final_stats = server.stop();
    let _ = std::fs::remove_file(&path);
    assert_eq!(final_stats.live, 0);
    assert_eq!(final_stats.frames_sent + final_stats.frames_dropped, 601);
    assert!(
        final_stats.peak_queue_bytes > 0,
        "queue never filled: {final_stats:?}"
    );
    // One reply: a frame and the degrade notices either side of it.
    assert!(
        final_stats.peak_queue_bytes < (egress_limit + largest_reply + 64) as u64,
        "egress queue exceeded its bound: {final_stats:?}"
    );
}

/// A reader that stalls for longer than the socket buffer and the egress
/// queue cover, but not longer than the inbox does, gets every frame it
/// asked for once it reads again.
#[test]
fn reader_that_falls_behind_loses_nothing() {
    let (server, path) = start_uds(
        "behind",
        ServerConfig {
            egress_limit_bytes: 64 * 1024,
            ..ServerConfig::default()
        },
    );
    let (mut stream, mut asm) = join(&path);
    for seq in 0..400u64 {
        stream.write_all(&roam_pose(seq)).expect("pose");
    }
    wait_for_poses(&server, 400);
    let stalled = server.stats();
    assert!(
        stalled.frames_sent < 400,
        "nothing had to wait: {stalled:?}"
    );

    let mut next_seq = 0;
    while next_seq < 400 {
        match read_msg(&mut stream, &mut asm, Duration::from_secs(5)) {
            Some(WireMessage::Frame { seq, .. }) => {
                assert_eq!(seq, next_seq, "frames out of order or missing");
                next_seq += 1;
            }
            Some(WireMessage::Degrade { .. }) => {}
            other => panic!("expected frame {next_seq}, got {other:?}"),
        }
    }
    drop(stream);
    let stats = server.stop();
    let _ = std::fs::remove_file(&path);
    assert_eq!((stats.frames_sent, stats.frames_dropped), (400, 0));
}

/// 32 poses for cached grid points, arriving together, are answered in
/// one pass: their frames queue up behind one another (a server that
/// wrote after every pose never held two), leave in order, and nobody
/// takes the unwritten batch for a slow link.
#[test]
fn a_batch_of_hits_leaves_in_one_pass() {
    let (server, path) = start_uds("batch", ServerConfig::default());
    let (mut stream, mut asm) = join(&path);
    let mut frame_bytes = 0;
    // `pose` repeats every 35, so the batch asks for what this caches.
    for seq in 0..35 {
        stream.write_all(&pose(seq)).expect("pose");
        match read_msg(&mut stream, &mut asm, Duration::from_secs(5)) {
            Some(msg @ WireMessage::Frame { .. }) => frame_bytes = msg.encode_frame().len(),
            other => panic!("expected frame {seq}, got {other:?}"),
        }
    }
    // One write, so one read pass on the other side.
    let batch: Vec<u8> = (35..67).flat_map(pose).collect();
    stream.write_all(&batch).expect("poses");
    for want in 35..67 {
        match read_msg(&mut stream, &mut asm, Duration::from_secs(5)) {
            Some(WireMessage::Frame { seq, store_hit, .. }) => {
                assert_eq!((seq, store_hit), (want, true));
            }
            other => panic!("expected frame {want}, got {other:?}"),
        }
    }
    drop(stream);
    let stats = server.stop();
    let _ = std::fs::remove_file(&path);
    assert_eq!((stats.frames_sent, stats.degrades_sent), (67, 0));
    assert!(
        stats.peak_queue_bytes >= 2 * frame_bytes as u64,
        "replies left one at a time: {stats:?}"
    );
}

/// A pose that has to be rendered is answered when it is rendered, not
/// when the read pass it arrived in is through: the first frame is in
/// the client's hands while the server still has renders to do.
#[test]
fn a_miss_is_not_held_behind_the_batch() {
    let (server, path) = start_uds("missfirst", ServerConfig::default());
    let (mut stream, mut asm) = join(&path);
    // A tenth of a second of renders in an optimised build, all misses.
    let poses = 1000;
    let batch: Vec<u8> = (0..poses).flat_map(roam_pose).collect();
    stream.write_all(&batch).expect("poses");
    assert!(matches!(
        read_msg(&mut stream, &mut asm, Duration::from_secs(5)),
        Some(WireMessage::Frame { seq: 0, .. })
    ));
    let served = server.stats().frames_sent;
    assert!(
        served < poses,
        "the first frame waited for all {served} renders"
    );
    let mut next_seq = 1;
    while next_seq < poses {
        match read_msg(&mut stream, &mut asm, Duration::from_secs(5)) {
            Some(WireMessage::Frame { seq, .. }) => {
                assert_eq!(seq, next_seq, "frames out of order or missing");
                next_seq += 1;
            }
            Some(WireMessage::Degrade { .. }) => {}
            other => panic!("expected frame {next_seq}, got {other:?}"),
        }
    }
    drop(stream);
    let stats = server.stop();
    let _ = std::fs::remove_file(&path);
    assert_eq!((stats.frames_sent, stats.frames_dropped), (poses, 0));
}

/// Shutdown while a session is mid-stream: the client receives a
/// `Goodbye(Shutdown)` notice, not a silent reset.
#[test]
fn shutdown_drains_with_goodbye() {
    let (server, path) = start_uds("drain", ServerConfig::default());

    let mut stream = UnixStream::connect(&path).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    stream.write_all(&hello()).expect("hello");
    let mut asm = coterie_net::FrameAssembler::new();
    assert!(matches!(
        read_msg(&mut stream, &mut asm, Duration::from_secs(5)),
        Some(WireMessage::Welcome { .. })
    ));
    stream.write_all(&pose(0)).expect("pose");
    assert!(matches!(
        read_msg(&mut stream, &mut asm, Duration::from_secs(5)),
        Some(WireMessage::Frame { .. })
    ));

    let stopper = std::thread::spawn(move || server.stop());
    let mut saw_goodbye = false;
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        match read_msg(&mut stream, &mut asm, Duration::from_secs(1)) {
            Some(WireMessage::Goodbye { reason }) => {
                assert_eq!(reason, ByeReason::Shutdown);
                saw_goodbye = true;
                break;
            }
            Some(_) => continue,
            None => break,
        }
    }
    let stats = stopper.join().expect("stop joins");
    let _ = std::fs::remove_file(&path);
    assert!(saw_goodbye, "no shutdown goodbye (stats {stats:?})");
    assert_eq!(stats.live, 0);
}

/// Any revision but [`PROTO_VERSION`], in a `Hello` or a `Resume`, is
/// answered with the structured one-revision window, counted once as a
/// version reject and once as a protocol error, and the connection is
/// torn down without disturbing the server.
#[test]
fn bad_version_is_rejected_with_supported_window() {
    let (server, path) = start_uds("badver", ServerConfig::default());
    let mut attempts = 0;
    for proto in [1, 2, PROTO_VERSION + 1] {
        let hello = WireMessage::Hello {
            proto,
            game: GameId::VikingVillage,
            room: 0,
            seed: 42,
        };
        let resume = WireMessage::Resume {
            proto,
            token: [0xAB; TOKEN_BYTES],
        };
        for msg in [hello, resume] {
            let mut stream = UnixStream::connect(&path).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_millis(100)))
                .unwrap();
            stream.write_all(&msg.encode_frame()).expect("handshake");
            let mut asm = coterie_net::FrameAssembler::new();
            assert_eq!(
                read_msg(&mut stream, &mut asm, Duration::from_secs(5)),
                Some(WireMessage::VersionReject {
                    min: PROTO_VERSION,
                    max: PROTO_VERSION
                }),
                "{msg:?}"
            );
            attempts += 1;
        }
    }
    let stats = server.stop();
    let _ = std::fs::remove_file(&path);
    assert_eq!(stats.protocol_errors, attempts);
    assert_eq!(stats.versions_rejected, attempts);
    assert_eq!(attempts, 6);
}

/// A dropped socket (no `Bye`) parks the session; a fresh connection
/// presenting the `Welcome` token within the TTL resumes the same
/// room/player identity with quality state intact, and the session
/// keeps serving frames.
#[test]
fn dropped_session_resumes_by_token_within_ttl() {
    let (server, path) = start_uds("resume", ServerConfig::default());

    let mut stream = UnixStream::connect(&path).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    stream.write_all(&hello()).expect("hello");
    let mut asm = coterie_net::FrameAssembler::new();
    let (room, player, token) = match read_msg(&mut stream, &mut asm, Duration::from_secs(5)) {
        Some(WireMessage::Welcome {
            room,
            player,
            token,
            ..
        }) => (room, player, token),
        other => panic!("expected Welcome, got {other:?}"),
    };
    stream.write_all(&pose(0)).expect("pose");
    assert!(matches!(
        read_msg(&mut stream, &mut asm, Duration::from_secs(5)),
        Some(WireMessage::Frame { .. })
    ));

    // Dead link: drop the socket with no Bye, give the server a poll
    // tick to park the session.
    drop(stream);
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().sessions_parked == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.stats().sessions_parked, 1, "session never parked");

    let mut stream = UnixStream::connect(&path).expect("reconnect");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    stream
        .write_all(
            &WireMessage::Resume {
                proto: PROTO_VERSION,
                token,
            }
            .encode_frame(),
        )
        .expect("resume");
    let mut asm = coterie_net::FrameAssembler::new();
    match read_msg(&mut stream, &mut asm, Duration::from_secs(5)) {
        Some(WireMessage::Welcome {
            room: r,
            player: p,
            token: t,
            ..
        }) => {
            assert_eq!((r, p), (room, player), "resume changed the identity");
            assert_eq!(t, token, "the session keeps its token");
        }
        other => panic!("expected resumed Welcome, got {other:?}"),
    }
    // The resumed session keeps serving: pose → frame still works.
    stream.write_all(&pose(1)).expect("pose after resume");
    assert!(matches!(
        read_msg(&mut stream, &mut asm, Duration::from_secs(5)),
        Some(WireMessage::Frame { .. })
    ));
    stream.write_all(&WireMessage::Bye.encode_frame()).unwrap();
    assert!(matches!(
        read_msg(&mut stream, &mut asm, Duration::from_secs(5)),
        Some(WireMessage::Goodbye { .. })
    ));

    let stats = server.stop();
    let _ = std::fs::remove_file(&path);
    assert_eq!(stats.sessions_parked, 1);
    assert_eq!(stats.sessions_resumed, 1);
    assert_eq!(stats.resume_rejects, 0);
    assert_eq!(stats.protocol_errors, 0);
}

/// With a zero TTL every parked session is already expired when the
/// `Resume` arrives: the server answers with a structured
/// `ResumeReject(Expired)`, not a silent drop or an Unknown.
#[test]
fn expired_resume_token_gets_structured_reject() {
    let (server, path) = start_uds(
        "expire",
        ServerConfig {
            resume_ttl_ms: 0,
            ..ServerConfig::default()
        },
    );

    let mut stream = UnixStream::connect(&path).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    stream.write_all(&hello()).expect("hello");
    let mut asm = coterie_net::FrameAssembler::new();
    let token = match read_msg(&mut stream, &mut asm, Duration::from_secs(5)) {
        Some(WireMessage::Welcome { token, .. }) => token,
        other => panic!("expected Welcome, got {other:?}"),
    };
    drop(stream);
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().sessions_parked == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut stream = UnixStream::connect(&path).expect("reconnect");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    stream
        .write_all(
            &WireMessage::Resume {
                proto: PROTO_VERSION,
                token,
            }
            .encode_frame(),
        )
        .expect("resume");
    let mut asm = coterie_net::FrameAssembler::new();
    match read_msg(&mut stream, &mut asm, Duration::from_secs(5)) {
        Some(WireMessage::ResumeReject { reason }) => {
            assert_eq!(reason, ResumeRejectReason::Expired);
        }
        other => panic!("expected ResumeReject(Expired), got {other:?}"),
    }
    let stats = server.stop();
    let _ = std::fs::remove_file(&path);
    assert_eq!(stats.resume_rejects, 1);
}

/// A token the server never issued (bad signature) is rejected as
/// malformed without touching any session state.
#[test]
fn forged_resume_token_is_rejected_as_malformed() {
    let (server, path) = start_uds("forged", ServerConfig::default());
    let mut stream = UnixStream::connect(&path).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    stream
        .write_all(
            &WireMessage::Resume {
                proto: PROTO_VERSION,
                token: [0xAB; TOKEN_BYTES],
            }
            .encode_frame(),
        )
        .expect("resume");
    let mut asm = coterie_net::FrameAssembler::new();
    match read_msg(&mut stream, &mut asm, Duration::from_secs(5)) {
        Some(WireMessage::ResumeReject { reason }) => {
            assert_eq!(reason, ResumeRejectReason::Malformed);
        }
        other => panic!("expected ResumeReject(Malformed), got {other:?}"),
    }
    let stats = server.stop();
    let _ = std::fs::remove_file(&path);
    assert_eq!(stats.resume_rejects, 1);
    assert_eq!(stats.sessions_resumed, 0);
}

/// The load generator's churn mode end to end: every client drops its
/// socket mid-run and resumes by token; all sessions still complete
/// cleanly and quality state survives the drop.
#[test]
fn loadgen_reconnect_mode_resumes_every_session() {
    let (server, path) = start_uds("lgresume", ServerConfig::default());
    let clients = 3;
    let mut config = base_load(&path, clients, 30);
    config.reconnect_at = Some(15);
    let report = loadgen::run(&config);
    let stats = server.stop();
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        report.sessions_completed,
        clients,
        "{}",
        report.summary_line()
    );
    assert_eq!(report.sessions_resumed, clients as u64);
    assert_eq!(report.resume_rejects, 0);
    assert_eq!(report.resume_scale_mismatches, 0);
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(stats.sessions_parked, clients as u64);
    assert_eq!(stats.sessions_resumed, clients as u64);
    assert!(report.summary_line().contains("resumed"));
}

/// Tokens are signed with a key each server draws when it starts, not
/// one derived from its configuration: a token one server issued does
/// not verify at another started with the same [`ServerConfig`] (world
/// seed included), so knowing a deployment's settings mints nothing.
#[test]
fn a_token_from_another_server_is_malformed() {
    let (issuer, issuer_path) = start_uds("issuer", ServerConfig::default());
    let (other, other_path) = start_uds("other", ServerConfig::default());
    let mut stream = UnixStream::connect(&issuer_path).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    stream.write_all(&hello()).expect("hello");
    let mut asm = coterie_net::FrameAssembler::new();
    let token = match read_msg(&mut stream, &mut asm, Duration::from_secs(5)) {
        Some(WireMessage::Welcome { token, .. }) => token,
        other => panic!("expected Welcome, got {other:?}"),
    };

    let mut elsewhere = UnixStream::connect(&other_path).expect("connect");
    elsewhere
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let resume = WireMessage::Resume {
        proto: PROTO_VERSION,
        token,
    };
    elsewhere.write_all(&resume.encode_frame()).expect("resume");
    let mut asm = coterie_net::FrameAssembler::new();
    assert_eq!(
        read_msg(&mut elsewhere, &mut asm, Duration::from_secs(5)),
        Some(WireMessage::ResumeReject {
            reason: ResumeRejectReason::Malformed
        })
    );
    drop((stream, elsewhere));
    let stats = other.stop();
    issuer.stop();
    let _ = std::fs::remove_file(&issuer_path);
    let _ = std::fs::remove_file(&other_path);
    assert_eq!(stats.resume_rejects, 1);
    assert_eq!(stats.sessions_resumed, 0);
}

/// Waits until the store's `(len, bytes)` hold still across two reads
/// 100 ms apart — the pre-render farm drains a miss's speculative
/// neighbours between poll iterations — and returns them.
fn settled_store(server: &Server) -> (usize, u64) {
    let store = server.service().store();
    let mut last = (store.len(), store.bytes());
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let now = (store.len(), store.bytes());
        if now == last || Instant::now() > deadline {
            return now;
        }
        last = now;
    }
}

/// A socket peer that speaks the retired inter-shard bytes — a shard
/// hello (tag 0x40), then a shard frame (0x43) carrying 64 junk bytes
/// under the exact identity of a frame a player was served — is a
/// malformed client like any other: it gets `Error(Malformed)` and a
/// goodbye, and neither the store nor the player's frame at that point
/// changes.
#[test]
fn shard_family_bytes_cannot_touch_a_served_frame() {
    let (server, path) = start_uds("hostile", ServerConfig::default());
    let (mut player, mut player_asm) = join(&path);
    let (x, z) = (5.0, 5.0);
    let pose_at = |seq: u64| {
        WireMessage::Pose {
            seq,
            t_ms: seq as f64 * 16.7,
            x,
            z,
            yaw: 0.0,
        }
        .encode_frame()
    };
    player.write_all(&pose_at(0)).expect("pose");
    let original = match read_msg(&mut player, &mut player_asm, Duration::from_secs(5)) {
        Some(WireMessage::Frame {
            store_hit: false,
            scale_pm: 1000,
            payload,
            ..
        }) => payload,
        other => panic!("expected a rendered full-scale frame, got {other:?}"),
    };
    let before = settled_store(&server);
    let errors_before = server.stats().protocol_errors;

    // The frame's store identity, as the server derives it from the pose.
    let scene =
        GameSpec::for_game(GameId::VikingVillage).build_scene(ServerConfig::default().world_seed);
    let grid = scene.grid().snap(coterie_world::Vec2::new(x, z));
    let gpos = scene.grid().position(grid);
    let near_hash = scene.near_set_hash(gpos, scene.grid().spacing() * 2.0);
    let leaf = ((grid.ix >> 3) as u32 & 0xFFFF) << 16 | ((grid.iz >> 3) as u32 & 0xFFFF);

    let mut hello = vec![0x40u8];
    hello.extend_from_slice(&PROTO_VERSION.to_le_bytes());
    hello.extend_from_slice(&0u16.to_le_bytes()); // shard
    hello.extend_from_slice(&2u16.to_le_bytes()); // shards
    hello.extend_from_slice(&0u64.to_le_bytes()); // epoch
    let mut frame = vec![0x43u8];
    frame.extend_from_slice(&0u16.to_le_bytes()); // shard
    frame.push(coterie_net::wire::game_to_wire(GameId::VikingVillage));
    frame.extend_from_slice(&grid.ix.to_le_bytes());
    frame.extend_from_slice(&grid.iz.to_le_bytes());
    frame.extend_from_slice(&gpos.x.to_bits().to_le_bytes());
    frame.extend_from_slice(&gpos.z.to_bits().to_le_bytes());
    frame.extend_from_slice(&leaf.to_le_bytes());
    frame.extend_from_slice(&near_hash.to_le_bytes());
    frame.extend_from_slice(&64u64.to_le_bytes()); // bytes
    frame.extend_from_slice(&u64::MAX.to_le_bytes()); // stamp
    frame.extend_from_slice(&0f64.to_bits().to_le_bytes()); // value
    frame.extend_from_slice(&16u32.to_le_bytes()); // width
    frame.extend_from_slice(&16u32.to_le_bytes()); // height
    frame.push(1); // quality
    frame.extend_from_slice(&1000u16.to_le_bytes()); // scale_pm
    frame.extend_from_slice(&[0xAB; 64]); // payload
    let mut bytes = Vec::new();
    for body in [hello, frame] {
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&body);
    }

    let mut hostile = UnixStream::connect(&path).expect("connect");
    hostile
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    hostile.write_all(&bytes).expect("shard bytes");
    let mut asm = coterie_net::FrameAssembler::new();
    assert_eq!(
        read_msg(&mut hostile, &mut asm, Duration::from_secs(5)),
        Some(WireMessage::Error {
            code: ErrorCode::Malformed
        })
    );
    assert_eq!(
        read_msg(&mut hostile, &mut asm, Duration::from_secs(5)),
        Some(WireMessage::Goodbye {
            reason: ByeReason::Normal
        })
    );
    assert!(server.stats().protocol_errors > errors_before);
    assert_eq!(settled_store(&server), before, "the store moved");

    player.write_all(&pose_at(1)).expect("pose");
    match read_msg(&mut player, &mut player_asm, Duration::from_secs(5)) {
        Some(WireMessage::Frame {
            store_hit, payload, ..
        }) => {
            assert!(store_hit, "the point's frame is still stored");
            assert_eq!(payload, original, "the served frame changed");
        }
        other => panic!("expected a frame, got {other:?}"),
    }
    let store = server.service().store();
    assert_eq!((store.len(), store.bytes()), before);
    drop((player, hostile));
    server.stop();
    let _ = std::fs::remove_file(&path);
}
