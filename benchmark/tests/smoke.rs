//! `run --smoke`: every workload and both passes in a couple of
//! seconds each — schema and output checks only, for a CI job to call.

use coterie_telemetry::{parse_json, JsonValue};
use std::path::Path;
use std::process::Command;

const SEED: &str = "424242";
const WORKLOADS: [&str; 4] = ["party_warm", "roam_cold", "store_full", "frame_pipeline"];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository root")
}

fn metric_count(doc: &JsonValue, key: &str) -> usize {
    match doc.get(key) {
        Some(JsonValue::Obj(members)) => members.len(),
        _ => panic!("{key} is not an object"),
    }
}

#[test]
fn smoke_run_passes_its_checks_and_writes_the_schema() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--smoke", "--seed", SEED])
        .current_dir(repo_root())
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!stdout.contains("VIOLATION"), "{stdout}");

    let benchmark: JsonValue = parse_json(
        &std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let listed = |key: &str| {
        benchmark
            .get(key)
            .and_then(JsonValue::as_array)
            .unwrap()
            .len()
    };

    for workload in WORKLOADS {
        for trace in [0, 1] {
            let path = repo_root()
                .join("benchmark/results")
                .join(format!("{workload}-seed{SEED}-trace{trace}.json"));
            let doc = parse_json(&std::fs::read_to_string(&path).expect("result file"))
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(
                doc.get("workload").and_then(JsonValue::as_str),
                Some(workload)
            );
            assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
            assert_eq!(doc.get("smoke").and_then(JsonValue::as_bool), Some(true));
            assert_eq!(doc.get("failed").and_then(JsonValue::as_f64), Some(0.0));
            assert!(doc.get("attempted").and_then(JsonValue::as_f64).unwrap() >= 1.0);
            for key in [
                "git_commit",
                "git_dirty",
                "nproc",
                "cpu_model",
                "kernel",
                "rustc",
                "simd_level",
                "transport",
            ] {
                let prov = doc.get("provenance").and_then(|p| p.get(key));
                assert!(
                    prov.and_then(JsonValue::as_str).is_some(),
                    "provenance.{key}"
                );
            }
            assert!(
                doc.get("phases")
                    .and_then(JsonValue::as_array)
                    .unwrap()
                    .len()
                    >= 2
            );
            assert_eq!(metric_count(&doc, "end_to_end"), listed("end_to_end"));
            let layers = if trace == 1 { listed("per_layer") } else { 0 };
            assert_eq!(metric_count(&doc, "per_layer"), layers);
        }
    }
}

#[test]
fn a_directory_without_the_repository_is_refused() {
    let empty = Path::new(env!("CARGO_TARGET_TMPDIR")).join("empty-checkout");
    std::fs::create_dir_all(&empty).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--workload", "party_warm", "--seconds", "1"])
        .current_dir(&empty)
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line");
}
