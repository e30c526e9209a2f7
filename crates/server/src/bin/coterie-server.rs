//! Serving-plane CLI: run a server, drive it with load, or do both.
//!
//! ```text
//! coterie-server serve   [--tcp HOST:PORT | --uds PATH] [--workers N] [--seed N]
//!                        [--policy first-fit|affinity] [--resume-ttl-ms N]
//! coterie-server loadgen [--tcp HOST:PORT | --uds PATH] [--clients N]
//!                        [--frames N] [--rooms N] [--net SCENARIO] [--seed N]
//!                        [--realtime] [--reconnect-at N]
//! coterie-server smoke   [--clients N] [--frames N]
//! coterie-server reconnect-smoke [--clients N] [--frames N]
//! ```
//!
//! `serve` runs until the process is killed. `loadgen` connects to a
//! running server and prints a summary line. `smoke` starts an
//! in-process UDS server, runs a small load against it, stops the
//! server, and prints a greppable `serve-smoke ok:` line — the CI
//! health check. `reconnect-smoke` starts a UDS
//! server and has every client drop its socket mid-session and resume
//! by token, proving session continuity survives churn.

use coterie_net::NetScenario;
use coterie_serve::PlacementPolicy;
use coterie_server::{loadgen, Endpoint, Listener, LoadConfig, Server, ServerConfig};
use coterie_telemetry::TelemetrySink;
use coterie_world::GameId;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: coterie-server <serve|loadgen|smoke|reconnect-smoke> [options]\n\
         serve   [--tcp HOST:PORT | --uds PATH] [--workers N] [--seed N]\n\
                 [--policy first-fit|affinity] [--resume-ttl-ms N]\n\
         loadgen [--tcp HOST:PORT | --uds PATH] [--clients N] [--frames N]\n\
                 [--rooms N] [--net SCENARIO] [--seed N] [--realtime]\n\
                 [--reconnect-at N]\n\
         smoke   [--clients N] [--frames N]\n\
         reconnect-smoke [--clients N] [--frames N]"
    );
    std::process::exit(2);
}

struct Args {
    tcp: Option<String>,
    uds: Option<PathBuf>,
    workers: usize,
    clients: usize,
    frames: u64,
    rooms: u32,
    net: NetScenario,
    seed: u64,
    realtime: bool,
    policy: PlacementPolicy,
    resume_ttl_ms: u64,
    reconnect_at: Option<u64>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            tcp: None,
            uds: None,
            workers: 1,
            clients: 4,
            frames: 100,
            rooms: 2,
            net: NetScenario::None,
            seed: 42,
            realtime: false,
            policy: PlacementPolicy::FirstFit,
            resume_ttl_ms: ServerConfig::default().resume_ttl_ms,
            reconnect_at: None,
        }
    }
}

fn parse_args(raw: &[String]) -> Args {
    let mut args = Args::default();
    let mut iter = raw.iter();
    let value = |flag: &str, v: Option<&String>| -> String {
        v.cloned().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        })
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--tcp" => args.tcp = Some(value("--tcp", iter.next())),
            "--uds" => args.uds = Some(PathBuf::from(value("--uds", iter.next()))),
            "--workers" => args.workers = parse_num("--workers", &value("--workers", iter.next())),
            "--clients" => args.clients = parse_num("--clients", &value("--clients", iter.next())),
            "--frames" => {
                args.frames = parse_num("--frames", &value("--frames", iter.next())) as u64;
            }
            "--rooms" => args.rooms = parse_num("--rooms", &value("--rooms", iter.next())) as u32,
            "--seed" => args.seed = parse_num("--seed", &value("--seed", iter.next())) as u64,
            "--net" => {
                let v = value("--net", iter.next());
                args.net = NetScenario::parse(&v).unwrap_or_else(|| {
                    let names: Vec<&str> = NetScenario::ALL.iter().map(NetScenario::name).collect();
                    eprintln!("invalid --net value '{v}' (one of: {})", names.join(" "));
                    std::process::exit(2);
                });
            }
            "--realtime" => args.realtime = true,
            "--policy" => {
                let v = value("--policy", iter.next());
                args.policy = PlacementPolicy::parse(&v).unwrap_or_else(|| {
                    let names: Vec<&str> = PlacementPolicy::ALL
                        .iter()
                        .map(PlacementPolicy::name)
                        .collect();
                    eprintln!("invalid --policy value '{v}' (one of: {})", names.join(" "));
                    std::process::exit(2);
                });
            }
            "--resume-ttl-ms" => {
                args.resume_ttl_ms =
                    parse_num("--resume-ttl-ms", &value("--resume-ttl-ms", iter.next())) as u64;
            }
            "--reconnect-at" => {
                args.reconnect_at =
                    Some(parse_num("--reconnect-at", &value("--reconnect-at", iter.next())) as u64);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag '{other}'");
                usage();
            }
        }
    }
    args
}

fn parse_num(flag: &str, v: &str) -> usize {
    v.parse().unwrap_or_else(|_| {
        eprintln!("invalid {flag} value '{v}'");
        std::process::exit(2);
    })
}

fn endpoint_of(args: &Args) -> Endpoint {
    match (&args.tcp, &args.uds) {
        (Some(addr), None) => Endpoint::Tcp(addr.clone()),
        (None, Some(path)) => Endpoint::Uds(path.clone()),
        (None, None) => Endpoint::Uds(std::env::temp_dir().join("coterie-serve.sock")),
        (Some(_), Some(_)) => {
            eprintln!("--tcp and --uds are mutually exclusive");
            std::process::exit(2);
        }
    }
}

fn cmd_serve(args: &Args) {
    let endpoint = endpoint_of(args);
    let listener = match &endpoint {
        Endpoint::Tcp(addr) => Listener::bind_tcp(addr),
        Endpoint::Uds(path) => Listener::bind_uds(path),
    }
    .unwrap_or_else(|e| {
        eprintln!("bind {endpoint}: {e}");
        std::process::exit(1);
    });
    let server = Server::start(
        listener,
        ServerConfig {
            workers: args.workers,
            world_seed: args.seed,
            policy: args.policy,
            resume_ttl_ms: args.resume_ttl_ms,
            ..ServerConfig::default()
        },
        TelemetrySink::disabled(),
    )
    .unwrap_or_else(|e| {
        eprintln!("start server: {e}");
        std::process::exit(1);
    });
    if let Some(addr) = server.local_addr() {
        println!("serving on tcp://{addr} ({} workers)", server.workers());
    } else {
        println!("serving on {endpoint} ({} workers)", server.workers());
    }
    // Run until killed; print stats every 10 s so an operator can watch.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(10));
        let s = server.stats();
        println!(
            "live {} | accepted {} | poses {} | frames {} (dropped {}) | {} B out",
            s.live, s.accepted, s.poses, s.frames_sent, s.frames_dropped, s.bytes_sent
        );
    }
}

fn load_config(args: &Args) -> LoadConfig {
    LoadConfig {
        endpoint: endpoint_of(args),
        clients: args.clients,
        frames_per_client: args.frames,
        game: GameId::VikingVillage,
        rooms: args.rooms.max(1),
        net: args.net,
        seed: args.seed,
        realtime: args.realtime,
        reconnect_at: args.reconnect_at,
    }
}

fn cmd_loadgen(args: &Args) {
    let report = loadgen::run(&load_config(args));
    println!("{}", report.summary_line());
    if report.sessions_completed != report.sessions || report.protocol_errors > 0 {
        std::process::exit(1);
    }
}

fn cmd_smoke(args: &Args) {
    let path = std::env::temp_dir().join(format!("coterie-smoke-{}.sock", std::process::id()));
    let listener = Listener::bind_uds(&path).unwrap_or_else(|e| {
        eprintln!("bind {}: {e}", path.display());
        std::process::exit(1);
    });
    let server = Server::start(
        listener,
        ServerConfig {
            world_seed: args.seed,
            ..ServerConfig::default()
        },
        TelemetrySink::disabled(),
    )
    .unwrap_or_else(|e| {
        eprintln!("start server: {e}");
        std::process::exit(1);
    });
    let mut config = load_config(args);
    config.endpoint = Endpoint::Uds(path.clone());
    let report = loadgen::run(&config);
    let stats = server.stop();
    let _ = std::fs::remove_file(&path);

    let ok = report.sessions_completed == report.sessions
        && report.protocol_errors == 0
        && report.decode_failures == 0
        && stats.protocol_errors == 0
        && report.frames_received == report.poses_sent;
    if ok {
        println!(
            "serve-smoke ok: {} sessions, {} frames over uds, {} store hits, \
             p99 {:.2} ms, clean shutdown",
            report.sessions,
            report.frames_received,
            report.store_hits,
            report.latency.quantile(0.99),
        );
    } else {
        println!("serve-smoke FAILED: {}", report.summary_line());
        println!("server stats: {stats:?}");
        std::process::exit(1);
    }
}

/// One UDS server; every client drops its socket mid-session (no
/// `Bye`) and resumes with the token from its `Welcome`. Passing means
/// all sessions resumed, none were rejected, and quality state
/// survived the drop.
fn cmd_reconnect_smoke(args: &Args) {
    let path = std::env::temp_dir().join(format!("coterie-reconnect-{}.sock", std::process::id()));
    let listener = Listener::bind_uds(&path).unwrap_or_else(|e| {
        eprintln!("bind {}: {e}", path.display());
        std::process::exit(1);
    });
    let server = Server::start(
        listener,
        ServerConfig {
            world_seed: args.seed,
            resume_ttl_ms: args.resume_ttl_ms,
            ..ServerConfig::default()
        },
        TelemetrySink::disabled(),
    )
    .unwrap_or_else(|e| {
        eprintln!("start server: {e}");
        std::process::exit(1);
    });
    let mut config = load_config(args);
    config.endpoint = Endpoint::Uds(path.clone());
    config.reconnect_at = Some(args.reconnect_at.unwrap_or(args.frames / 2).max(1));
    let report = loadgen::run(&config);
    let stats = server.stop();
    let _ = std::fs::remove_file(&path);

    let ok = report.sessions_completed == report.sessions
        && report.sessions_resumed == report.sessions as u64
        && report.resume_rejects == 0
        && report.resume_scale_mismatches == 0
        && report.protocol_errors == 0
        && stats.sessions_resumed == report.sessions as u64;
    if ok {
        println!(
            "reconnect-smoke ok: {} sessions dropped and resumed mid-run, \
             {} frames, 0 rejects, quality state preserved",
            report.sessions, report.frames_received,
        );
    } else {
        println!("reconnect-smoke FAILED: {}", report.summary_line());
        println!("server stats: {stats:?}");
        std::process::exit(1);
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        usage();
    };
    let args = parse_args(rest);
    match cmd.as_str() {
        "serve" => cmd_serve(&args),
        "loadgen" => cmd_loadgen(&args),
        "smoke" => cmd_smoke(&args),
        "reconnect-smoke" => cmd_reconnect_smoke(&args),
        _ => usage(),
    }
}
