//! # coterie-bench
//!
//! Experiment harness regenerating every table and figure of the Coterie
//! paper's evaluation (see DESIGN.md §3 for the experiment index).
//!
//! Each `tableN`/`figN` function reproduces one artifact and returns a
//! printable report; the `experiments` binary dispatches on experiment
//! names and `cargo bench` runs the criterion micro-benchmarks.
//!
//! Experiments accept an [`ExpConfig`] whose `quick` mode shrinks
//! durations and sample counts so the full suite can run in CI; the
//! default mode uses paper-scale parameters where feasible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod cache_exp;
pub mod cutoff_exp;
pub mod fleet_exp;
pub mod report;
pub mod similarity;
pub mod system_exp;

pub use report::Report;

use coterie_telemetry::{chrome_trace_json_full, TelemetrySink};

/// The Chrome `trace_event` JSON export (slices plus counter tracks) of
/// everything `sink` recorded.
pub fn chrome_trace(sink: &TelemetrySink) -> String {
    chrome_trace_json_full(
        &sink.spans_snapshot(),
        &sink.frames_snapshot(),
        &sink.counters_snapshot(),
        sink.budget_ms(),
    )
}

/// Global experiment scaling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpConfig {
    /// Shrinks durations/samples for smoke runs.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            quick: false,
            seed: 7,
        }
    }
}

impl ExpConfig {
    /// Quick (CI-scale) configuration.
    pub fn quick() -> Self {
        ExpConfig {
            quick: true,
            seed: 7,
        }
    }

    /// Session duration for system experiments, seconds.
    pub fn session_s(&self) -> f64 {
        if self.quick {
            20.0
        } else {
            120.0
        }
    }

    /// Trace duration for similarity experiments, seconds.
    pub fn trace_s(&self) -> f64 {
        if self.quick {
            20.0
        } else {
            120.0
        }
    }

    /// Frame pairs sampled per game in similarity experiments.
    pub fn pair_samples(&self) -> usize {
        if self.quick {
            24
        } else {
            160
        }
    }
}
