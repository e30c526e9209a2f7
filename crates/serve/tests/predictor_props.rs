//! Property tests for the pose-predictive speculation plane:
//!
//! (a) `--predictor none` is bit-for-bit identical to a fleet predating
//!     the predictor plane (the default config) — metrics, Display and
//!     store stats — at any seed/room count. Worker count cannot perturb
//!     this either: `coterie_parallel::par_map` reassembles results
//!     in input order and the fleet serializes store transactions in
//!     room-id order, so parallel scheduling never reaches the report.
//! (b) `cv` and `vpm` are deterministic: the same seed reproduces the
//!     same speculation decisions (spec counters) and the same report.
//! (c) predictor-driven reports carry the speculation block; the
//!     baseline report does not.
//!
//! Fleet runs are expensive (world build + measurement pass per room),
//! so configs are tiny and case counts low — these are determinism and
//! invariant properties, not coverage sweeps.

use coterie_serve::{Fleet, FleetConfig, PredictorKind};
use proptest::prelude::*;

fn quick(rooms: usize, seed: u64, predictor: PredictorKind) -> FleetConfig {
    FleetConfig {
        rooms,
        players: 2,
        duration_s: 2.0,
        size_samples: 2,
        seed,
        predictor,
        ..FleetConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn predictor_none_is_byte_identical_to_default(
        rooms in 1usize..3,
        seed in 0u64..1_000,
    ) {
        // The default config IS the pre-predictor fleet: the predictor
        // field defaults to None and every predictor-less call site
        // (golden tables, the CLI without the flag) goes through it.
        let plain = Fleet::new(FleetConfig {
            rooms,
            players: 2,
            duration_s: 2.0,
            size_samples: 2,
            seed,
            ..FleetConfig::default()
        }).run();
        let none = Fleet::new(quick(rooms, seed, PredictorKind::None)).run();
        prop_assert_eq!(&plain.metrics, &none.metrics);
        prop_assert_eq!(plain.store_stats, none.store_stats);
        prop_assert_eq!(
            format!("{}", plain.metrics),
            format!("{}", none.metrics)
        );
        // And no speculation block leaks into the baseline report.
        let shown = format!("{}", none.metrics);
        prop_assert!(!shown.contains("speculation"), "leaked block: {shown}");
    }

    #[test]
    fn predictors_are_deterministic(
        seed in 0u64..1_000,
        kind_idx in 0usize..2,
    ) {
        let kind = [PredictorKind::Cv, PredictorKind::Vpm][kind_idx];
        let a = Fleet::new(quick(2, seed, kind)).run();
        let b = Fleet::new(quick(2, seed, kind)).run();
        // Identical speculation decisions, not just identical topline
        // numbers: the spec counters count every admit/reject/use.
        prop_assert_eq!(a.store_stats, b.store_stats);
        prop_assert_eq!(&a.metrics, &b.metrics);
        prop_assert_eq!(format!("{}", a.metrics), format!("{}", b.metrics));
    }
}

#[test]
fn predictor_reports_carry_speculation_block() {
    let report = Fleet::new(quick(2, 7, PredictorKind::Vpm)).run();
    assert!(
        report.store_stats.spec_rendered > 0,
        "vpm fleets must speculate"
    );
    let shown = format!("{}", report.metrics);
    assert!(shown.contains("speculation vpm"), "got: {shown}");
    assert!(shown.contains("prediction  precision"), "got: {shown}");
    assert_eq!(report.metrics.predictor, PredictorKind::Vpm);
}
