//! Fleet-hosting experiment: the cross-session frame store.
//!
//! The paper provisions one render server per session. A hosting
//! provider runs hundreds of rooms of the same handful of games, which
//! raises a question the paper leaves open: do the three similarity
//! criteria still pay off when the cache is shared *across* sessions?
//! This experiment runs the same fleet twice — once with one shared
//! frame store, once with an equal total byte budget split into
//! isolated per-room stores — and compares tail FPS, store hit ratio,
//! shipped bandwidth and pre-render GPU cost.

use crate::report::{f, pct, Report};
use crate::ExpConfig;
use coterie_net::NetScenario;
use coterie_serve::{
    ChurnScenario, Fleet, FleetConfig, FleetReport, PlacementPolicy, PredictorKind,
};
use coterie_telemetry::{TelemetryConfig, TelemetrySink};
use coterie_world::GameId;

/// Builds the fleet configuration for the experiment.
///
/// Rooms cycle through two roam-family games so the store also
/// demonstrates per-game isolation; only rooms of the same game share
/// frames.
pub fn fleet_config(
    config: &ExpConfig,
    rooms: usize,
    players: usize,
    shared: bool,
    net: NetScenario,
    predictor: PredictorKind,
) -> FleetConfig {
    FleetConfig {
        rooms: rooms.max(1),
        players: players.max(1),
        games: vec![GameId::VikingVillage, GameId::Fps],
        duration_s: if config.quick { 4.0 } else { 10.0 },
        seed: config.seed,
        shared_store: shared,
        size_samples: if config.quick { 4 } else { 8 },
        net,
        predictor,
        ..FleetConfig::default()
    }
}

/// A recording sink when `trace` is set, a disabled one otherwise.
fn trace_sink(trace: bool) -> TelemetrySink {
    if trace {
        TelemetrySink::recording(TelemetryConfig::default())
    } else {
        TelemetrySink::disabled()
    }
}

/// Runs the shared-vs-isolated comparison and renders the report.
///
/// `net` selects the FI fault scenario applied to every room
/// ([`NetScenario::None`] reproduces the lossless pre-fault-plane
/// table byte for byte); lossy scenarios append an FI recovery table.
/// `predictor` selects the farm's speculation policy
/// ([`PredictorKind::None`] reproduces the predictor-less table byte
/// for byte); cv/vpm runs append speculation precision/recall notes.
///
/// When `trace` is set the *shared* fleet runs with a recording
/// [`TelemetrySink`]; the returned string is the Chrome `trace_event`
/// JSON export (loadable in Perfetto / `chrome://tracing`) and the
/// report gains a telemetry note. Telemetry is observation-only, so the
/// comparison table is byte-identical either way.
///
/// The run is deterministic: the same `ExpConfig` seed, room/player
/// counts, scenario and predictor reproduce the report byte for byte.
pub fn fleet(
    config: &ExpConfig,
    rooms: usize,
    players: usize,
    net: NetScenario,
    predictor: PredictorKind,
    trace: bool,
) -> (Report, FleetReport, FleetReport, Option<String>) {
    let sink = trace_sink(trace);
    let shared = Fleet::new_with_telemetry(
        fleet_config(config, rooms, players, true, net, predictor),
        sink.clone(),
    )
    .run();
    let isolated = Fleet::new(fleet_config(config, rooms, players, false, net, predictor)).run();
    let trace_json = sink.is_enabled().then(|| crate::chrome_trace(&sink));

    let mut report = Report::new("Fleet: shared vs isolated cross-session frame store");
    report.note(format!(
        "{} rooms x {} players, seed {}, games Viking Village + FPS",
        rooms.max(1),
        players.max(1),
        config.seed
    ));
    report.note("one store shared by all rooms of a game vs the same byte budget split per room");
    if net.is_lossy() {
        report.note(format!(
            "FI fault scenario '{net}': lossy per-player channels with retry + dead reckoning"
        ));
    }
    if predictor != PredictorKind::None {
        report.note(format!(
            "speculation policy '{predictor}': farm queue ranked by predicted occupancy, \
             cost-aware store admission"
        ));
    }
    report.headers([
        "store",
        "fps p50",
        "fps p95",
        "fps p99",
        "hit ratio",
        "egress Mbps",
        "GPU-hours",
        "peak degC",
        "degraded",
    ]);
    for (label, run) in [("shared", &shared), ("isolated", &isolated)] {
        let m = &run.metrics;
        report.row([
            label.to_string(),
            f(m.fps_p50, 2),
            f(m.fps_p95, 2),
            f(m.fps_p99, 2),
            pct(m.store_hit_ratio),
            f(m.egress_mbps, 2),
            f(m.prerender_gpu_hours, 6),
            f(m.peak_temperature_c, 2),
            format!("{}", m.degraded_rooms),
        ]);
    }
    if net.is_lossy() {
        for (label, run) in [("shared", &shared), ("isolated", &isolated)] {
            let m = &run.metrics;
            report.note(format!(
                "fi {label}: {} syncs, {} retries, {} stale frames, {} cap violations, \
                 max staleness {} ms, desync p95 {} m / p99 {} m",
                m.fi_syncs,
                m.fi_retries,
                m.fi_stale_frames,
                m.fi_cap_violations,
                f(m.fi_max_staleness_ms, 2),
                f(m.desync_p95_m, 4),
                f(m.desync_p99_m, 4),
            ));
        }
    }
    if predictor != PredictorKind::None {
        for (label, run) in [("shared", &shared), ("isolated", &isolated)] {
            let m = &run.metrics;
            report.note(format!(
                "speculation {label}: {} rendered, {} used, {} hits, {} rejected, \
                 precision {}, recall {}",
                m.spec_rendered,
                m.spec_used,
                m.spec_hits,
                m.spec_rejected,
                f(m.spec_precision, 4),
                f(m.spec_recall, 4),
            ));
        }
    }
    if let Some(t) = &shared.metrics.telemetry {
        report.note(format!(
            "telemetry shared: {} frames attributed, {} over the {} ms budget ({})",
            t.frames,
            t.over_budget,
            f(t.budget_ms, 1),
            pct(t.over_budget_ratio()),
        ));
    }
    (report, shared, isolated, trace_json)
}

/// Builds the churned fleet configuration: the static rooms/players
/// grid becomes a *capacity* that a seeded arrival process fills
/// through the matchmaker under `policy`.
pub fn churned_fleet_config(
    config: &ExpConfig,
    rooms: usize,
    players: usize,
    scenario: ChurnScenario,
    policy: PlacementPolicy,
) -> FleetConfig {
    FleetConfig {
        churn: scenario,
        policy,
        ..fleet_config(
            config,
            rooms,
            players,
            true,
            NetScenario::None,
            PredictorKind::None,
        )
    }
}

/// Runs the matchmaking experiment: the same seeded churn trace placed
/// by both policies (first-fit vs pose-affinity), shared store, and
/// compares tail FPS, store hit ratio, and placement outcomes.
///
/// `lead` picks which policy heads the table (the policy under test);
/// both always run. Returns `(report, lead run, other run)`.
/// Deterministic: the same inputs reproduce the report byte for byte.
pub fn matchmaking(
    config: &ExpConfig,
    rooms: usize,
    players: usize,
    scenario: ChurnScenario,
    lead: PlacementPolicy,
) -> (Report, FleetReport, FleetReport) {
    assert_ne!(scenario, ChurnScenario::None, "matchmaking needs churn");
    let run = |policy| {
        Fleet::new(churned_fleet_config(
            config, rooms, players, scenario, policy,
        ))
        .run()
    };
    let lead_run = run(lead);
    let other_policy = match lead {
        PlacementPolicy::FirstFit => PlacementPolicy::Affinity,
        PlacementPolicy::Affinity => PlacementPolicy::FirstFit,
    };
    let other_run = run(other_policy);

    let mut report = Report::new("Fleet: matchmaking policy under churn");
    report.note(format!(
        "capacity {} rooms x {} players, churn '{scenario}', seed {}, shared store",
        rooms.max(1),
        players.max(1),
        config.seed
    ));
    report.note("the same seeded arrival trace placed by each policy; rooms spawn on overflow");
    report.headers([
        "policy",
        "fps p50",
        "fps p99",
        "hit ratio",
        "arrivals",
        "placed",
        "queued",
        "overflow",
        "mean wait ms",
    ]);
    for run in [&lead_run, &other_run] {
        let m = &run.metrics;
        let mm = m.matchmaking.expect("churned run carries matchmaking");
        report.row([
            mm.policy.to_string(),
            f(m.fps_p50, 2),
            f(m.fps_p99, 2),
            pct(m.store_hit_ratio),
            format!("{}", mm.arrivals),
            format!("{}", mm.placed),
            format!("{}", mm.queued),
            format!("{}", mm.overflow_rooms),
            f(mm.mean_wait_ms, 1),
        ]);
    }
    (report, lead_run, other_run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_report_has_both_modes() {
        let config = ExpConfig::quick();
        let (report, shared, isolated, _) =
            fleet(&config, 2, 2, NetScenario::None, PredictorKind::None, false);
        assert_eq!(report.len(), 2);
        assert_eq!(report.cell(0, 0), Some("shared"));
        assert_eq!(report.cell(1, 0), Some("isolated"));
        assert_eq!(shared.rooms.len(), 2);
        assert_eq!(isolated.rooms.len(), 2);
        // Lossless runs print no FI lines.
        assert!(!format!("{report}").contains("fi shared"));
    }

    #[test]
    fn fleet_experiment_is_deterministic() {
        let config = ExpConfig::quick();
        let a = fleet(&config, 2, 2, NetScenario::None, PredictorKind::None, false).0;
        let b = fleet(&config, 2, 2, NetScenario::None, PredictorKind::None, false).0;
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn traced_fleet_exports_valid_chrome_trace() {
        let config = ExpConfig::quick();
        let (report, shared, _, trace_json) =
            fleet(&config, 1, 2, NetScenario::None, PredictorKind::None, true);
        let json = trace_json.expect("traced run exports JSON");
        let check = coterie_telemetry::validate_chrome_trace(&json).expect("trace validates");
        assert!(check.events > 0);
        assert!(check.frames > 0);
        assert!(check.max_rel_err <= 0.01, "err {}", check.max_rel_err);
        let summary = shared.metrics.telemetry.expect("traced metrics summarize");
        assert!(summary.frames > 0);
        assert!(format!("{report}").contains("telemetry shared"));
        // The comparison table itself is unchanged by tracing.
        let untraced = fleet(&config, 1, 2, NetScenario::None, PredictorKind::None, false).0;
        let strip_notes = |r: String| -> String {
            r.lines()
                .filter(|l| !l.contains("telemetry shared"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            strip_notes(format!("{report}")),
            strip_notes(format!("{untraced}"))
        );
    }

    #[test]
    fn predictor_fleet_reports_speculation_and_json_delta() {
        let config = ExpConfig::quick();
        let (report, vpm, _, _) =
            fleet(&config, 2, 2, NetScenario::None, PredictorKind::Vpm, false);
        let text = format!("{report}");
        assert!(text.contains("speculation policy 'vpm'"), "got: {text}");
        assert!(text.contains("speculation shared"), "got: {text}");
        assert!(vpm.metrics.spec_rendered > 0);
    }

    #[test]
    fn matchmaking_experiment_compares_policies() {
        let config = ExpConfig::quick();
        let (report, first_fit, affinity) = matchmaking(
            &config,
            2,
            2,
            ChurnScenario::Steady,
            PlacementPolicy::FirstFit,
        );
        // The lead policy heads the table.
        assert_eq!(report.cell(0, 0), Some("first-fit"));
        assert_eq!(report.cell(1, 0), Some("affinity"));
        let ff = first_fit.metrics.matchmaking.expect("first-fit metrics");
        let aff = affinity.metrics.matchmaking.expect("affinity metrics");
        assert_eq!(ff.scenario, ChurnScenario::Steady);
        // Both policies place the same arrival trace.
        assert_eq!(ff.arrivals, aff.arrivals);
        assert!(ff.arrivals > 0);
        assert_eq!(ff.placed, ff.arrivals);
        assert_eq!(aff.placed, aff.arrivals);
        let text = format!("{report}");
        assert!(text.contains("churn 'steady'"), "got: {text}");
        // Deterministic: same inputs reproduce the report byte for byte.
        let again = matchmaking(
            &config,
            2,
            2,
            ChurnScenario::Steady,
            PlacementPolicy::FirstFit,
        )
        .0;
        assert_eq!(format!("{report}"), format!("{again}"));
        // Flipping the lead flips the row order, nothing else.
        let flipped = matchmaking(
            &config,
            2,
            2,
            ChurnScenario::Steady,
            PlacementPolicy::Affinity,
        )
        .0;
        assert_eq!(flipped.cell(0, 0), Some("affinity"));
        assert_eq!(flipped.cell(1, 0), Some("first-fit"));
    }

    #[test]
    fn lossy_fleet_experiment_reports_recovery() {
        let config = ExpConfig::quick();
        let (report, shared, _, _) = fleet(
            &config,
            2,
            2,
            NetScenario::BurstLoss,
            PredictorKind::None,
            false,
        );
        assert!(shared.metrics.fi_retries > 0);
        assert!(shared.metrics.fi_stale_frames > 0);
        let text = format!("{report}");
        assert!(text.contains("burst-loss"), "scenario named in the notes");
        assert!(text.contains("fi shared"), "FI accounting printed");
        assert!(text.contains("fi isolated"));
    }
}
