//! Exhaustive schedule exploration of the `dlb-serve` batch scheduler.
//!
//! Only compiled under `RUSTFLAGS="--cfg dlb_model"` — without that
//! cfg the `dlb_core::sync` facade is plain `std` and there is nothing
//! to explore (the ungated smoke test in `dlb-model`'s lib covers the
//! passthrough behaviour).
#![cfg(dlb_model)]

use loom::Builder;

/// The serve-layer batch scheduler: per-tenant outcomes must equal
/// the serial sweep under **every** explored interleaving of the
/// ticket counter and the per-tenant mutexes — two workers racing
/// over a three-tenant fleet that spans closed, injecting and
/// churning rounds. A diverging tenant, a lost ticket (tenant served
/// twice or skipped) or a deadlocked worker all fail here.
///
/// Exploration is an exhaustive DFS at preemption bound 2 (loom's
/// empirical sweet spot — almost every real bug needs at most two
/// preemptive switches), then 32 seeded-random schedules with the
/// bound lifted for tail coverage.
#[test]
fn serve_scheduler_matches_serial_on_every_schedule() {
    let expected = dlb_model::serve_outcomes(1, 1, 2);
    let report = Builder {
        preemption_bound: 2,
        samples: 32,
        ..Builder::default()
    }
    .model(|| {
        let got = dlb_model::serve_outcomes(2, 1, 2);
        assert_eq!(
            got, expected,
            "a scheduler interleaving changed a tenant outcome"
        );
    });
    assert!(
        report.complete,
        "serve scheduler: DFS was cut short at {} schedules",
        report.schedules
    );
    println!(
        "[model] {:<48} {:>6} schedules exhausted at preemption bound {}, +{} sampled",
        "serve_scheduler_two_workers", report.schedules, report.preemption_bound, report.sampled
    );
}
