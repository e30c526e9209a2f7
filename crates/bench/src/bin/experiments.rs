//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--seed N] [--rooms N] [--players N] [--net SCENARIO]
//!             [--predictor POLICY] [--churn SCENARIO]
//!             [--policy first-fit|affinity] [--trace FILE] <name>...
//! experiments all
//! experiments fleet --rooms 256 --players 2
//! experiments fleet --rooms 2 --players 2 --net burst-loss
//! experiments fleet --rooms 4 --predictor vpm
//! experiments fleet --rooms 4 --churn steady --policy affinity
//! experiments fleet --trace trace.json
//! ```
//!
//! Names: table1 table2 table3 table4 table5 table6 table7 table8 table9
//! table10 fig1 fig2 fig3 fig5 fig6 fig7 fig8 fig11 fig12 ablations fleet
//!
//! `--rooms`/`--players`/`--net`/`--predictor` size the `fleet`
//! experiment only.
//! `--net` selects the FI fault scenario (`none`, `wifi`, `burst-loss`,
//! `latency-spikes`, `relay-outage`; default `none` = lossless).
//! `--predictor` selects the farm's speculation policy (`none`, `cv`,
//! `vpm`; default `none` reproduces predictor-less reports byte for
//! byte, cv/vpm rank the farm queue by predicted pose occupancy and
//! report speculation precision/recall).
//! `--churn SCENARIO` replaces the static fleet with a seeded arrival
//! process (`none`, `steady`, `flash`, `daycurve`) placed by the
//! matchmaker: the `fleet` experiment then compares `--policy` against
//! the other placement policy on the same arrival trace (the default
//! `--churn none` keeps the report byte-identical).
//! `--trace FILE` runs the experiment with budget attribution enabled
//! and writes a Chrome `trace_event` JSON (load in Perfetto or
//! `chrome://tracing`): slices for spans and frames, counter ("C")
//! tracks for gauges like store occupancy. It needs exactly one of
//! `fleet` (without `--churn`) and the single-session tables `table1`,
//! `table7` and `table8`; anything else exits 2 rather than write no
//! trace or overwrite one. The export is validated — it must parse and
//! every frame slice's stage decomposition must recombine to its
//! duration within 1 % — before `trace ok` is printed.

use coterie_bench::{
    ablation, cache_exp, cutoff_exp, fleet_exp, similarity, system_exp, ExpConfig,
};
use coterie_net::NetScenario;
use coterie_serve::{ChurnScenario, PlacementPolicy, PredictorKind};
use coterie_telemetry::{validate_chrome_trace, TelemetryConfig, TelemetrySink};
use std::time::Instant;

const ALL: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "fig1",
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig11",
    "fig12",
    "ablations",
    "fleet",
];

/// The experiments `--trace FILE` records.
const TRACED: &[&str] = &["table1", "table7", "table8", "fleet"];

/// Checks that `--trace` has exactly one experiment to record: several
/// would overwrite one file, and an untraced one would write nothing.
fn check_trace_target(names: &[String], churn: ChurnScenario) -> Result<(), String> {
    let [name] = names else {
        return Err(format!(
            "--trace records one experiment, not {} (one of: {})",
            names.len(),
            TRACED.join(" ")
        ));
    };
    if !TRACED.contains(&name.as_str()) {
        return Err(format!(
            "--trace does not apply to '{name}' (one of: {})",
            TRACED.join(" ")
        ));
    }
    if name == "fleet" && churn != ChurnScenario::None {
        return Err("--trace does not apply to a churned fleet".to_string());
    }
    Ok(())
}

/// Arguments consumed only by the fleet experiment.
struct FleetArgs {
    rooms: usize,
    players: usize,
    net: NetScenario,
    predictor: PredictorKind,
    trace: Option<String>,
    churn: ChurnScenario,
    policy: PlacementPolicy,
}

/// Runs a single-session table, optionally with `--trace FILE` budget
/// attribution: the traced run exports a validated Chrome `trace_event`
/// JSON (slices + counter tracks) exactly like the fleet path.
fn run_table_traced(
    config: &ExpConfig,
    trace: &Option<String>,
    table: impl Fn(&ExpConfig, &TelemetrySink) -> coterie_bench::Report,
) -> Result<String, String> {
    let Some(path) = trace else {
        return Ok(table(config, &TelemetrySink::disabled()).to_string());
    };
    let sink = TelemetrySink::recording(TelemetryConfig::default());
    let report = table(config, &sink);
    let json = coterie_bench::chrome_trace(&sink);
    std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    let check =
        validate_chrome_trace(&json).map_err(|e| format!("trace validation failed: {e}"))?;
    Ok(format!(
        "{report}\ntrace ok: {} events, {} frame slices, {} counter samples, \
         max attribution error {:.4}%, wrote {path}",
        check.events,
        check.frames,
        check.counters,
        check.max_rel_err * 100.0,
    ))
}

fn run_one(name: &str, config: &ExpConfig, fleet_args: &FleetArgs) -> Result<String, String> {
    let out = match name {
        "table1" => run_table_traced(config, &fleet_args.trace, system_exp::table1)?,
        "table2" => cutoff_exp::table2(config).to_string(),
        "table3" => cutoff_exp::table3(config).0.to_string(),
        "table4" => cache_exp::table4(config).to_string(),
        "table5" => cache_exp::table5(config).0.to_string(),
        "table6" => cache_exp::table6(config).0.to_string(),
        "table7" => run_table_traced(config, &fleet_args.trace, system_exp::table7)?,
        "table8" => run_table_traced(config, &fleet_args.trace, system_exp::table8)?,
        "table9" => system_exp::table9(config).0.to_string(),
        "table10" => system_exp::table10(config).to_string(),
        "fig1" => similarity::fig1(config).0.to_string(),
        "fig2" => similarity::fig2(config).0.to_string(),
        "fig3" => similarity::fig3(config).0.to_string(),
        "fig5" => similarity::fig5(config).0.to_string(),
        "fig6" => cutoff_exp::fig6(config).0.to_string(),
        "fig7" => cutoff_exp::fig7(config).0.to_string(),
        "fig8" => cutoff_exp::fig8(config).0.to_string(),
        "fig11" => system_exp::fig11(config).0.to_string(),
        "fig12" => system_exp::fig12(config).to_string(),
        "ablations" => {
            format!(
                "{}\n{}\n{}\n{}",
                ablation::ablation_cutoff(config),
                ablation::ablation_cache_capacity(config),
                ablation::ablation_codec_quality(config),
                ablation::ablation_lookup_criteria(config)
            ) + &format!("\n{}", ablation::ablation_panoramic(config))
        }
        "fleet" => {
            // A churned fleet takes the matchmaking-comparison path:
            // the same seeded arrival trace placed by --policy and by
            // the other policy, side by side.
            if fleet_args.churn != ChurnScenario::None {
                let (report, _, _) = fleet_exp::matchmaking(
                    config,
                    fleet_args.rooms,
                    fleet_args.players,
                    fleet_args.churn,
                    fleet_args.policy,
                );
                return Ok(report.to_string());
            }
            let (report, shared, _isolated, trace_json) = fleet_exp::fleet(
                config,
                fleet_args.rooms,
                fleet_args.players,
                fleet_args.net,
                fleet_args.predictor,
                fleet_args.trace.is_some(),
            );
            let mut out = report.to_string();
            if let (Some(path), Some(json)) = (&fleet_args.trace, &trace_json) {
                std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
                let check = validate_chrome_trace(json)
                    .map_err(|e| format!("trace validation failed: {e}"))?;
                let frames = shared
                    .metrics
                    .telemetry
                    .as_ref()
                    .map(|t| t.frames)
                    .unwrap_or(0);
                out.push_str(&format!(
                    "\ntrace ok: {} events, {} frame slices ({} frames attributed), \
                     {} counter samples, max attribution error {:.4}%, wrote {path}",
                    check.events,
                    check.frames,
                    frames,
                    check.counters,
                    check.max_rel_err * 100.0,
                ));
            }
            out
        }
        other => return Err(format!("unknown experiment '{other}'")),
    };
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ExpConfig::default();
    let mut fleet_args = FleetArgs {
        rooms: 8,
        players: 2,
        net: NetScenario::None,
        predictor: PredictorKind::None,
        trace: None,
        churn: ChurnScenario::None,
        policy: PlacementPolicy::FirstFit,
    };
    let mut names: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    let parse_usize = |flag: &str, v: Option<String>| -> usize {
        let v = v.unwrap_or_default();
        v.parse().unwrap_or_else(|_| {
            eprintln!("invalid {flag} value '{v}'");
            std::process::exit(2);
        })
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => config.quick = true,
            "--seed" => {
                config.seed = parse_usize("--seed", iter.next()) as u64;
            }
            "--rooms" => {
                fleet_args.rooms = parse_usize("--rooms", iter.next());
            }
            "--players" => {
                fleet_args.players = parse_usize("--players", iter.next());
            }
            "--trace" => {
                let v = iter.next().unwrap_or_default();
                if v.is_empty() {
                    eprintln!("--trace needs an output file path");
                    std::process::exit(2);
                }
                fleet_args.trace = Some(v);
            }
            "--predictor" => {
                let v = iter.next().unwrap_or_default();
                fleet_args.predictor = PredictorKind::parse(&v).unwrap_or_else(|| {
                    let names: Vec<&str> = PredictorKind::ALL.iter().map(|p| p.name()).collect();
                    eprintln!(
                        "invalid --predictor value '{v}' (one of: {})",
                        names.join(" ")
                    );
                    std::process::exit(2);
                });
            }
            "--net" => {
                let v = iter.next().unwrap_or_default();
                fleet_args.net = NetScenario::parse(&v).unwrap_or_else(|| {
                    let names: Vec<&str> = NetScenario::ALL.iter().map(NetScenario::name).collect();
                    eprintln!("invalid --net value '{v}' (one of: {})", names.join(" "));
                    std::process::exit(2);
                });
            }
            "--churn" => {
                let v = iter.next().unwrap_or_default();
                fleet_args.churn = ChurnScenario::parse(&v).unwrap_or_else(|| {
                    let names: Vec<&str> =
                        ChurnScenario::ALL.iter().map(ChurnScenario::name).collect();
                    eprintln!("invalid --churn value '{v}' (one of: {})", names.join(" "));
                    std::process::exit(2);
                });
            }
            "--policy" => {
                let v = iter.next().unwrap_or_default();
                fleet_args.policy = PlacementPolicy::parse(&v).unwrap_or_else(|| {
                    let names: Vec<&str> = PlacementPolicy::ALL
                        .iter()
                        .map(PlacementPolicy::name)
                        .collect();
                    eprintln!("invalid --policy value '{v}' (one of: {})", names.join(" "));
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--quick] [--seed N] [--rooms N] [--players N] \
                     [--net SCENARIO] [--predictor POLICY] [--churn SCENARIO] \
                     [--policy first-fit|affinity] [--trace FILE] <name>...|all"
                );
                eprintln!("experiments: {}", ALL.join(" "));
                let names: Vec<&str> = NetScenario::ALL.iter().map(NetScenario::name).collect();
                eprintln!("net scenarios: {}", names.join(" "));
                let policies: Vec<&str> = PredictorKind::ALL.iter().map(|p| p.name()).collect();
                eprintln!("predictor policies: {}", policies.join(" "));
                let churns: Vec<&str> =
                    ChurnScenario::ALL.iter().map(ChurnScenario::name).collect();
                eprintln!("churn scenarios: {}", churns.join(" "));
                let placements: Vec<&str> = PlacementPolicy::ALL
                    .iter()
                    .map(PlacementPolicy::name)
                    .collect();
                eprintln!("placement policies: {}", placements.join(" "));
                return;
            }
            name => names.push(name.to_string()),
        }
    }
    if names.is_empty() || names.iter().any(|n| n == "all") {
        names = ALL.iter().map(|s| s.to_string()).collect();
    }
    if fleet_args.trace.is_some() {
        if let Err(e) = check_trace_target(&names, fleet_args.churn) {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }

    let mut failures = 0;
    for name in &names {
        let start = Instant::now();
        match run_one(name, &config, &fleet_args) {
            Ok(output) => {
                println!("{output}");
                println!("   [{name} took {:.1} s]\n", start.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("error: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn trace_accepts_exactly_one_traced_experiment() {
        for name in TRACED {
            assert_eq!(
                check_trace_target(&names(&[name]), ChurnScenario::None),
                Ok(())
            );
        }
    }

    #[test]
    fn trace_rejects_several_untraced_or_churned_targets() {
        let none = ChurnScenario::None;
        assert!(check_trace_target(&names(&["table1", "fleet"]), none).is_err());
        assert!(check_trace_target(&names(ALL), none).is_err());
        assert!(check_trace_target(&names(&["table4"]), none).is_err());
        assert!(check_trace_target(&[], none).is_err());
        assert!(check_trace_target(&names(&["fleet"]), ChurnScenario::Steady).is_err());
        assert_eq!(
            check_trace_target(&names(&["table8"]), ChurnScenario::Steady),
            Ok(())
        );
    }
}
