//! `compare A.json.. -- B.json..`: two sets of result files, side by
//! side, under the bounds `BENCHMARK.json` fixes.
//!
//! For every workload and end-to-end metric present on both sides it
//! prints each side's quartiles and gives one verdict:
//!
//! - `ok`: B's median is no worse than A's by more than the bound;
//! - `worse`: it is, and the run-to-run spread is inside the bound, so
//!   the difference is resolved;
//! - `unresolved`: the spread (inter-quartile distance over the median,
//!   of either side) exceeds the bound, so the runs cannot tell —
//!   unless every run of B reads better than every run of A.

use crate::report::END_TO_END;
use crate::stats::quartiles_exclusive;
use coterie_telemetry::{parse_json, JsonValue};
use std::collections::BTreeMap;

/// Direction and bound of one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    pub higher_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// The rules of `BENCHMARK.json`'s `end_to_end` list, by metric name.
pub fn rules(benchmark_json: &str) -> Result<BTreeMap<String, Rule>, String> {
    let doc = parse_json(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut rules = BTreeMap::new();
    for m in list {
        let name = m
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("metric without a name")?;
        let better = m
            .get("better")
            .and_then(JsonValue::as_str)
            .ok_or("metric without a direction")?;
        let bound = m
            .get("bound")
            .and_then(JsonValue::as_f64)
            .ok_or("metric without a bound")?;
        rules.insert(
            name.to_string(),
            Rule {
                higher_is_better: better == "higher",
                bound,
            },
        );
    }
    Ok(rules)
}

/// Spread of one side: inter-quartile distance as a share of the median.
fn spread([q1, q2, q3]: [f64; 3]) -> f64 {
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

pub fn verdict(rule: &Rule, a: &[f64], b: &[f64]) -> Verdict {
    let qa = quartiles_exclusive(&mut a.to_vec());
    let qb = quartiles_exclusive(&mut b.to_vec());
    // How much worse B's median is, as a share of A's.
    let worse_by = if qa[1] == 0.0 {
        0.0
    } else if rule.higher_is_better {
        (qa[1] - qb[1]) / qa[1].abs()
    } else {
        (qb[1] - qa[1]) / qa[1].abs()
    };
    let b_always_better = a.iter().all(|&x| {
        b.iter()
            .all(|&y| if rule.higher_is_better { y > x } else { y < x })
    });
    if spread(qa).max(spread(qb)) > rule.bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > rule.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `workload → metric → values`, from untraced result files.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(files: &[String]) -> Result<Side, String> {
    let mut side = Side::new();
    for path in files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
        let workload = doc
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{path}: no workload"))?;
        if doc.get("trace").and_then(JsonValue::as_f64) != Some(0.0) {
            return Err(format!(
                "{path}: a traced pass; end-to-end numbers come from untraced ones"
            ));
        }
        if doc.get("correct").and_then(JsonValue::as_bool) != Some(true) {
            return Err(format!("{path}: the run failed its output checks"));
        }
        let metrics = doc
            .get("end_to_end")
            .ok_or_else(|| format!("{path}: no end_to_end"))?;
        for (name, _) in END_TO_END {
            let value = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{path}: no {name}"))?;
            side.entry(workload.to_string())
                .or_default()
                .entry(name.to_string())
                .or_default()
                .push(value);
        }
    }
    Ok(side)
}

/// Prints the comparison; `Ok(true)` when no metric is `worse`.
pub fn compare(
    a_files: &[String],
    b_files: &[String],
    benchmark_json: &str,
) -> Result<bool, String> {
    let rules = rules(benchmark_json)?;
    let (a, b) = (load(a_files)?, load(b_files)?);
    let mut clean = true;
    println!(
        "{:<15} {:<22} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "A q1 / median / q3 (n)", "B q1 / median / q3 (n)", "B vs A", "bound"
    );
    for (workload, metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            continue;
        };
        for (name, _) in END_TO_END {
            let (Some(av), Some(bv), Some(rule)) =
                (metrics.get(*name), b_metrics.get(*name), rules.get(*name))
            else {
                continue;
            };
            let qa = quartiles_exclusive(&mut av.clone());
            let qb = quartiles_exclusive(&mut bv.clone());
            let v = verdict(rule, av, bv);
            clean &= v != Verdict::Worse;
            let show =
                |q: [f64; 3], n: usize| format!("{:.4} / {:.4} / {:.4} ({n})", q[0], q[1], q[2]);
            println!(
                "{:<15} {:<22} {:>34} {:>34} {:>+7.2}% {:>5.1}%  {}",
                workload,
                name,
                show(qa, av.len()),
                show(qb, bv.len()),
                if qa[1] == 0.0 {
                    0.0
                } else {
                    (qb[1] - qa[1]) / qa[1].abs() * 100.0
                },
                rule.bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        higher_is_better: false,
        bound: 0.10,
    };
    const HIGHER: Rule = Rule {
        higher_is_better: true,
        bound: 0.10,
    };

    #[test]
    fn within_bound_is_ok_and_beyond_is_worse() {
        let a = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(verdict(&LOWER, &a, &[1.05, 1.06, 1.04, 1.05]), Verdict::Ok);
        assert_eq!(
            verdict(&LOWER, &a, &[1.20, 1.21, 1.19, 1.20]),
            Verdict::Worse
        );
        // Direction matters: a 20 % rise of a higher-is-better metric is fine.
        assert_eq!(verdict(&HIGHER, &a, &[1.20, 1.21, 1.19, 1.20]), Verdict::Ok);
        assert_eq!(
            verdict(&HIGHER, &a, &[0.80, 0.81, 0.79, 0.80]),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [1.0, 1.4, 0.7, 1.2];
        assert_eq!(
            verdict(&LOWER, &noisy, &[1.1, 1.5, 0.8, 1.3]),
            Verdict::Unresolved
        );
        // Every B run beats every A run: resolved despite the spread.
        assert_eq!(verdict(&LOWER, &noisy, &[0.5, 0.6, 0.3, 0.4]), Verdict::Ok);
    }

    #[test]
    fn rules_come_from_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let rules = rules(&text).unwrap();
        assert_eq!(rules.len(), END_TO_END.len());
        assert!(rules["sessions_per_core"].higher_is_better);
        assert!(!rules["setup_s"].higher_is_better);
        assert!(rules.values().all(|r| r.bound > 0.0 && r.bound <= 0.25));
    }
}
