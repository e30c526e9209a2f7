//! Metric names and units, the result JSON with its provenance, and the
//! printed table.
//!
//! The two tables below are the benchmark's vocabulary; a test holds
//! `BENCHMARK.json` (directions and bounds live there) to them.

use crate::procfs;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics — what a player or an operator of the system
/// sees — as `(name, unit)`. Every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sessions_per_core", "sessions"),
    ("in_budget_share", "share"),
    ("wire_bytes_per_frame", "bytes"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced pass, as `(name, unit)`. A workload
/// that bypasses a layer reports its metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.gen_lag_p99_ms", "ms"),
    ("loadgen.cpu_share", "share"),
    ("loadgen.frame_latency_p50_ms", "ms"),
    ("loadgen.frame_latency_p95_ms", "ms"),
    ("loadgen.frame_latency_p99_ms", "ms"),
    ("loadgen.frame_latency_max_ms", "ms"),
    ("server.loop.cpu_us_per_pose", "us"),
    ("server.loop.utilisation", "share"),
    ("server.loop.handshake_us", "us"),
    ("server.loop.unattributed_us_per_pose", "us"),
    ("server.conn.enqueue_flush_us", "us"),
    ("server.conn.frames_dropped", "count"),
    ("server.conn.peak_queue_bytes", "bytes"),
    ("server.conn.degrades_sent", "count"),
    ("net.wire.frame_encode_us", "us"),
    ("net.wire.frame_decode_us", "us"),
    ("net.wire.pose_decode_us", "us"),
    ("net.wire.overhead_bytes_per_frame", "bytes"),
    ("server.service.frame_for_hit_us", "us"),
    ("server.service.frame_for_miss_us", "us"),
    ("server.service.render_us", "us"),
    ("server.service.encode_us", "us"),
    ("server.service.maintain_us_per_pose", "us"),
    ("server.service.world_us", "us"),
    ("server.service.rerender_on_hit_share", "share"),
    ("serve.store.lookup_us_p50", "us"),
    ("serve.store.insert_us_p50", "us"),
    ("serve.store.insert_us_p99", "us"),
    ("serve.store.insert_speculative_us_p50", "us"),
    ("serve.store.busy_us_per_pose", "us"),
    ("serve.store.entries", "count"),
    ("serve.store.evictions_per_insert", "ratio"),
    ("serve.store.hit_ratio", "share"),
    ("serve.store.spec_precision", "share"),
    ("serve.farm.drain_us_per_job", "us"),
    ("serve.farm.jobs_per_miss", "ratio"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("codec.bytes_per_pixel", "bytes"),
    ("render.far_ms", "ms"),
    ("render.near_ms", "ms"),
    ("render.merge_us", "us"),
    ("render.fov_crop_us", "us"),
    ("frame.ssim_us", "us"),
    ("frame.ssim_mean", "index"),
    ("trace.overhead_share", "share"),
];

/// Measured values by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One phase's operations.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    pub wall_s: f64,
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub end_to_end: Metrics,
    /// Complete only for a traced pass.
    pub per_layer: Metrics,
    pub phases: Vec<Phase>,
    pub violations: Vec<String>,
    /// Remarks on the run's validity (generator-bound, transport).
    pub notes: Vec<String>,
    /// Frozen sizes the run used, for the result file.
    pub sizing: Vec<(&'static str, f64)>,
    pub chrome_trace: Option<String>,
}

impl Outcome {
    /// Operations attempted and failed over the timed phases.
    pub fn totals(&self) -> (u64, u64) {
        let timed = self.phases.iter().filter(|p| p.name != "setup");
        timed.fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed))
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Where and on what the run happened.
pub struct Provenance(Vec<(&'static str, String)>);

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Provenance {
    pub fn collect() -> Provenance {
        // A driver's checkout is not a git repository; say so rather
        // than guess.
        let commit =
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
        let dirty = match command_line("git", &["status", "--porcelain"]) {
            Some(s) => (!s.is_empty()).to_string(),
            None => "unknown".into(),
        };
        Provenance(vec![
            ("git_commit", commit),
            ("git_dirty", dirty),
            (
                "nproc",
                std::thread::available_parallelism()
                    .map_or(1, |n| n.get())
                    .to_string(),
            ),
            ("cpu_model", procfs::cpu_model()),
            ("kernel", procfs::kernel_release()),
            (
                "rustc",
                command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            ),
            (
                "simd_level",
                coterie_parallel::simd::detected_level().name().to_string(),
            ),
            (
                "transport",
                "unix-domain sockets on the host's loopback (not a real link)".into(),
            ),
        ])
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits (non-finite → 0, which no
/// healthy run produces).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(table: &[(&str, &str)], values: &Metrics) -> String {
    let members: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(name),
                json_number(value),
                json_string(unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

/// The one-line object the driver reads off the end of stdout.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let (attempted, failed) = outcome.totals();
    let metrics = if traced {
        metrics_json(PER_LAYER, &outcome.per_layer)
    } else {
        metrics_json(END_TO_END, &outcome.end_to_end)
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct(),
        attempted.max(1),
        failed,
        metrics
    )
}

/// The result file: the line above plus everything needed to trust or
/// reproduce it.
pub fn result_file(
    outcome: &Outcome,
    provenance: &Provenance,
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
) -> String {
    let (attempted, failed) = outcome.totals();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n\"schema\":1,\n\"workload\":{},\n\"seed\":{seed},\n\"seconds\":{seconds},\n\
         \"trace\":{},\n\"smoke\":{smoke},\n\"correct\":{},\n\"attempted\":{attempted},\n\
         \"failed\":{failed},\n",
        json_string(workload),
        traced as u8,
        outcome.correct(),
    );
    let prov: Vec<String> = provenance
        .0
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
        .collect();
    let _ = writeln!(out, "\"provenance\":{{{}}},", prov.join(","));
    let sizing: Vec<String> = outcome
        .sizing
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_number(*v)))
        .collect();
    let _ = writeln!(out, "\"sizing\":{{{}}},", sizing.join(","));
    let phases: Vec<String> = outcome
        .phases
        .iter()
        .map(|p| {
            format!(
                "{{\"name\":{},\"wall_s\":{},\"attempted\":{},\"succeeded\":{},\"failed\":{}}}",
                json_string(p.name),
                json_number(p.wall_s),
                p.attempted,
                p.succeeded,
                p.failed
            )
        })
        .collect();
    let _ = writeln!(out, "\"phases\":[{}],", phases.join(","));
    let list = |items: &[String]| {
        let quoted: Vec<String> = items.iter().map(|s| json_string(s)).collect();
        format!("[{}]", quoted.join(","))
    };
    let _ = writeln!(out, "\"violations\":{},", list(&outcome.violations));
    let _ = writeln!(out, "\"notes\":{},", list(&outcome.notes));
    // Both passes run the same phases, so a traced pass has end-to-end
    // numbers too; they are kept here to show what tracing cost and are
    // never the ones reported.
    let _ = writeln!(
        out,
        "\"end_to_end\":{},",
        metrics_json(END_TO_END, &outcome.end_to_end)
    );
    let _ = writeln!(
        out,
        "\"per_layer\":{}",
        if traced {
            metrics_json(PER_LAYER, &outcome.per_layer)
        } else {
            "{}".into()
        }
    );
    out.push_str("}\n");
    out
}

/// The human-readable report of one run.
pub fn print_table(outcome: &Outcome, workload: &str, seed: u64, traced: bool) {
    println!(
        "== {workload} (seed {seed}, {}) ==",
        if traced {
            "traced pass"
        } else {
            "untraced pass"
        }
    );
    for p in &outcome.phases {
        println!(
            "  phase {:<9} {:>8.3} s  attempted {:>8}  succeeded {:>8}  failed {}",
            p.name, p.wall_s, p.attempted, p.succeeded, p.failed
        );
    }
    let print = |table: &[(&str, &str)], values: &Metrics| {
        for (name, unit) in table {
            let value = values.get(name).copied().unwrap_or(0.0);
            println!("  {name:<42} {value:>16.4} {unit}");
        }
    };
    if traced {
        print(PER_LAYER, &outcome.per_layer);
        println!("  (end-to-end under tracing, never the reported ones:)");
    }
    print(END_TO_END, &outcome.end_to_end);
    for n in &outcome.notes {
        println!("  note: {n}");
    }
    for v in &outcome.violations {
        println!("  VIOLATION: {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_telemetry::parse_json;

    fn benchmark_json() -> coterie_telemetry::JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses")
    }

    fn names_units(doc: &coterie_telemetry::JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .expect("string")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = benchmark_json();
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_units(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(names_units(&doc, "per_layer"), table(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(|v| v.as_f64()),
            Some(crate::workload::DEFAULT_SECONDS as f64)
        );
    }

    #[test]
    fn result_line_and_file_are_json_with_every_metric() {
        let mut outcome = Outcome::default();
        outcome.end_to_end.insert("setup_s", 0.25);
        outcome.phases.push(Phase {
            name: "paced",
            wall_s: 1.0,
            attempted: 10,
            succeeded: 9,
            failed: 1,
        });
        outcome.notes.push("a \"quoted\" note".into());
        for traced in [false, true] {
            let line = parse_json(&result_line(&outcome, traced)).expect("line parses");
            let metrics = line.get("metrics").unwrap();
            let table = if traced { PER_LAYER } else { END_TO_END };
            for (name, unit) in table {
                let m = metrics.get(name).expect("metric present");
                assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(*unit));
                assert!(m.get("value").and_then(|v| v.as_f64()).is_some());
            }
            assert_eq!(line.get("attempted").and_then(|v| v.as_f64()), Some(10.0));
            assert_eq!(line.get("failed").and_then(|v| v.as_f64()), Some(1.0));
            assert_eq!(line.get("correct").and_then(|v| v.as_bool()), Some(true));
        }
        let file = result_file(
            &outcome,
            &Provenance(vec![("nproc", "2".into())]),
            "party_warm",
            1,
            20,
            false,
            false,
        );
        let doc = parse_json(&file).expect("file parses");
        assert_eq!(
            doc.get("provenance")
                .and_then(|p| p.get("nproc"))
                .and_then(|v| v.as_str()),
            Some("2")
        );
    }
}
