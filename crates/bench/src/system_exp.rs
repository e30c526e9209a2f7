//! End-to-end system experiments: Tables 1, 7, 8, 9, 10 and Figures 11
//! and 12.

use crate::report::{f, pct, Report};
use crate::ExpConfig;
use coterie_sim::{run_study, Session, SessionConfig, SessionSim, StudyConfig, SystemKind};
use coterie_telemetry::TelemetrySink;
use coterie_world::GameId;

/// One session with budget attribution routed into `sink`; `room`
/// becomes the trace lane, so each table cell gets its own row in the
/// exported Chrome trace. A disabled sink records nothing and leaves
/// the report unchanged.
fn run(
    game: GameId,
    system: SystemKind,
    players: usize,
    config: &ExpConfig,
    quality: usize,
    sink: &TelemetrySink,
    room: u32,
) -> coterie_sim::SessionReport {
    let session = SessionConfig::new(game, system, players)
        .with_duration_s(config.session_s())
        .with_seed(config.seed)
        .with_quality_samples(quality);
    let mut sim = SessionSim::new_with_telemetry(session, sink.clone(), room);
    while sim.step().is_some() {}
    sim.finish()
}

/// Table 1: Mobile, Thin-client and Multi-Furion with 1 and 2 players on
/// the three testbed games. Each session's budget attribution goes to
/// `sink`.
pub fn table1(config: &ExpConfig, sink: &TelemetrySink) -> Report {
    let mut report = Report::new("Table 1: Mobile / Thin-client / Multi-Furion, 1P and 2P");
    report.headers([
        "App (players)",
        "FPS",
        "Inter-frame (ms)",
        "CPU (%)",
        "GPU (%)",
        "Frame (KB)",
        "Net delay (ms)",
    ]);
    let mut lane = 0u32;
    for system in [
        SystemKind::Mobile,
        SystemKind::ThinClient,
        SystemKind::multi_furion(),
    ] {
        report.note(format!("--- {}", system.label()));
        for players in [1usize, 2] {
            for &game in &GameId::TESTBED {
                let m = run(game, system, players, config, 0, sink, lane).aggregate();
                lane += 1;
                report.row([
                    format!("{} ({}P, {})", game.short_name(), players, system.label()),
                    f(m.avg_fps, 0),
                    f(m.inter_frame_ms, 1),
                    f(m.cpu_load * 100.0, 1),
                    f(m.gpu_load * 100.0, 1),
                    f(m.frame_bytes / 1000.0, 0),
                    f(m.net_delay_ms, 1),
                ]);
            }
        }
    }
    report
}

/// Table 7: visual quality (SSIM), FPS and responsiveness for
/// Thin-client, Multi-Furion and Coterie with 2 players. Each
/// session's budget attribution goes to `sink`.
pub fn table7(config: &ExpConfig, sink: &TelemetrySink) -> Report {
    let quality = if config.quick { 3 } else { 8 };
    let mut report = Report::new("Table 7: visual quality, FPS, responsiveness (2 players)");
    report.note("T: Thin-client, M: Multi-Furion, C: Coterie");
    report.headers(["App", "SSIM", "FPS", "Responsiveness (ms)"]);
    let mut lane = 0u32;
    for (system, tag) in [
        (SystemKind::ThinClient, "T"),
        (SystemKind::multi_furion(), "M"),
        (SystemKind::coterie(), "C"),
    ] {
        for &game in &GameId::TESTBED {
            let m = run(game, system, 2, config, quality, sink, lane).aggregate();
            lane += 1;
            report.row([
                format!("{} ({tag})", game.short_name()),
                f(m.visual_ssim, 3),
                f(m.avg_fps, 0),
                f(m.responsiveness_ms, 1),
            ]);
        }
    }
    report
}

/// Table 8: Coterie's full metrics for 1 and 2 players. Each session's
/// budget attribution goes to `sink`.
pub fn table8(config: &ExpConfig, sink: &TelemetrySink) -> Report {
    let mut report = Report::new("Table 8: Coterie on Pixel 2 over 802.11ac");
    report.headers([
        "App (players)",
        "FPS",
        "Inter-frame (ms)",
        "CPU (%)",
        "GPU (%)",
        "Frame (KB)",
        "Net delay (ms)",
    ]);
    let mut lane = 0u32;
    for players in [1usize, 2] {
        for &game in &GameId::TESTBED {
            let m = run(game, SystemKind::coterie(), players, config, 0, sink, lane).aggregate();
            lane += 1;
            report.row([
                format!("{} ({players}P)", game.short_name()),
                f(m.avg_fps, 0),
                f(m.inter_frame_ms, 1),
                f(m.cpu_load * 100.0, 1),
                f(m.gpu_load * 100.0, 1),
                f(m.frame_bytes / 1000.0, 0),
                f(m.net_delay_ms, 1),
            ]);
        }
    }
    report
}

/// Table 9: per-player BE bandwidth (Mbps) and FI traffic (Kbps) —
/// Multi-Furion at 1 player vs Coterie at 1–4 players — plus the
/// headline per-player network reduction.
pub fn table9(config: &ExpConfig) -> (Report, Vec<(GameId, f64)>) {
    let mut report = Report::new("Table 9: network bandwidth (BE Mbps / FI Kbps)");
    report.note("Multi-Furion saturates beyond 1 player, so only its 1P load is shown");
    report.headers([
        "App",
        "MF 1P",
        "Coterie 1P",
        "Coterie 2P",
        "Coterie 3P",
        "Coterie 4P",
        "Reduction",
    ]);
    let mut reductions = Vec::new();
    let untraced = TelemetrySink::disabled();
    for &game in &GameId::TESTBED {
        let mf = run(game, SystemKind::multi_furion(), 1, config, 0, &untraced, 0).aggregate();
        let mut cells = vec![
            game.short_name().to_string(),
            format!("{:.0}/{:.0}", mf.be_mbps, mf.fi_kbps),
        ];
        let mut coterie_1p = 0.0;
        for players in 1..=4usize {
            let report_n = run(
                game,
                SystemKind::coterie(),
                players,
                config,
                0,
                &untraced,
                0,
            );
            // Table 9 reports aggregate server-side BE bandwidth.
            let total_be: f64 = report_n.players.iter().map(|p| p.be_mbps).sum();
            let fi = report_n.aggregate().fi_kbps;
            if players == 1 {
                coterie_1p = total_be;
            }
            cells.push(format!("{total_be:.0}/{fi:.0}"));
        }
        let reduction = mf.be_mbps / coterie_1p.max(1e-9);
        cells.push(format!("{reduction:.1}x"));
        reductions.push((game, reduction));
        report.row(cells);
    }
    (report, reductions)
}

/// Table 10: the (simulated) user study score distribution.
pub fn table10(config: &ExpConfig) -> Report {
    let study = StudyConfig {
        participants: 12,
        traces: if config.quick { 3 } else { 6 },
        trace_seconds: if config.quick { 8.0 } else { 20.0 },
        probes: if config.quick { 2 } else { 5 },
        seed: config.seed,
    };
    let outcome = run_study(&study);
    let mut report = Report::new("Table 10: simulated user study (MOS model)");
    report.note("paper: 0% / 0% / 5.5% / 29.2% / 65.3%, per-trace means 4.5-4.75");
    report.note(format!("mean score {:.2}", outcome.mean_score));
    report.headers(["Score", "1", "2", "3", "4", "5"]);
    let mut row = vec!["Percentage".to_string()];
    for s in 1..=5 {
        row.push(pct(outcome.fraction(s)));
    }
    report.row(row);
    report
}

/// Figure 11: FPS scalability with 1–4 players for Multi-Furion (± exact
/// cache) and Coterie (± similar cache) on the three testbed games.
pub fn fig11(config: &ExpConfig) -> (Report, Vec<(GameId, SystemKind, Vec<f64>)>) {
    let systems = [
        SystemKind::MultiFurion { cache: false },
        SystemKind::MultiFurion { cache: true },
        SystemKind::Coterie { cache: false },
        SystemKind::Coterie { cache: true },
    ];
    let mut results = Vec::new();
    let mut report = Report::new("Figure 11: FPS vs number of players");
    report.headers(["Game", "System", "1P", "2P", "3P", "4P"]);
    let untraced = TelemetrySink::disabled();
    for &game in &GameId::TESTBED {
        for system in systems {
            let mut fps = Vec::new();
            for players in 1..=4usize {
                let m = run(game, system, players, config, 0, &untraced, 0).aggregate();
                fps.push(m.avg_fps);
            }
            report.row([
                game.short_name().to_string(),
                system.label().to_string(),
                f(fps[0], 0),
                f(fps[1], 0),
                f(fps[2], 0),
                f(fps[3], 0),
            ]);
            results.push((game, system, fps));
        }
    }
    (report, results)
}

/// Figure 12: CPU/GPU/temperature/power over a long session for 1–4
/// players.
pub fn fig12(config: &ExpConfig) -> Report {
    let duration = if config.quick { 180.0 } else { 1800.0 };
    let mut report = Report::new("Figure 12: resource usage over time (Coterie)");
    report.note(format!(
        "{duration:.0} s sessions; per-minute means over the session"
    ));
    report.headers([
        "Game",
        "Players",
        "CPU (%)",
        "GPU (%)",
        "Peak temp (C)",
        "Mean power (W)",
    ]);
    for &game in &GameId::TESTBED {
        for players in 1..=4usize {
            let session = SessionConfig::new(game, SystemKind::coterie(), players)
                .with_duration_s(duration)
                .with_seed(config.seed);
            let r = Session::new(session).run();
            let mean = |v: &[f64]| {
                if v.is_empty() {
                    0.0
                } else {
                    v.iter().sum::<f64>() / v.len() as f64
                }
            };
            report.row([
                game.short_name().to_string(),
                players.to_string(),
                f(mean(&r.resources.cpu) * 100.0, 1),
                f(mean(&r.resources.gpu) * 100.0, 1),
                f(r.resources.peak_temperature_c(), 1),
                f(r.resources.mean_power_w(), 2),
            ]);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table8_coterie_hits_60fps() {
        let r = table8(&ExpConfig::quick(), &TelemetrySink::disabled());
        assert_eq!(r.len(), 6);
        for row in 0..r.len() {
            let fps: f64 = r.cell(row, 1).expect("fps cell").parse().expect("number");
            assert!(fps >= 55.0, "Coterie row {row} at {fps} FPS");
        }
    }

    #[test]
    fn traced_table8_matches_untraced_and_exports_a_valid_trace() {
        use coterie_telemetry::{validate_chrome_trace, TelemetryConfig};
        let config = ExpConfig::quick();
        let recording = TelemetrySink::recording(TelemetryConfig::default());
        let traced = table8(&config, &recording);
        let untraced = table8(&config, &TelemetrySink::disabled());
        assert_eq!(traced.to_string(), untraced.to_string());
        let summary = recording.summary().expect("a recording sink summarizes");
        assert!(summary.frames >= 1, "no frame attributed");
        let json = crate::chrome_trace(&recording);
        let check = validate_chrome_trace(&json).expect("trace validates");
        assert!(check.frames > 0);
    }

    #[test]
    fn table9_reduction_is_large() {
        let (_, reductions) = table9(&ExpConfig::quick());
        for (game, red) in reductions {
            assert!(red > 4.0, "{game}: reduction {red:.1}x too small");
        }
    }
}
