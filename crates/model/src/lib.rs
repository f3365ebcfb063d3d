//! Model-checking suite for the `dlb-serve` batch scheduler.
//!
//! This crate drives **the real scheduler code** — not a protocol mock
//! — through every thread interleaving of a small fleet, via the
//! [`dlb_core::sync`] facade and the vendored `loom` shim. It compiles
//! in two modes:
//!
//! * plain `cargo test -p dlb-model`: the facade re-exports `std`, the
//!   model tests compile away, and only the passthrough smoke test
//!   runs — this is what tier-1 sees;
//! * `RUSTFLAGS="--cfg dlb_model" cargo test -p dlb-model --release`:
//!   the facade routes to the shim and the `protocol` test file
//!   explores the scheduler's ticket counter and per-tenant locks
//!   under a preemption-bounded exhaustive DFS plus seeded random
//!   sampling, asserting that every schedule produces the serial
//!   sweep's per-tenant outcomes with no deadlock and no lost ticket.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dlb_core::LoadVector;
use dlb_graph::{generators, BalancingGraph};

/// The serve-scheduler battery: a tiny mixed fleet for exploring the
/// batch scheduler's protocol in `dlb-serve` — one ticket counter
/// partitioning tenant indices between workers, one mutex per tenant.
/// Three tenants cover the interesting strata: a closed static run, an
/// injecting run, and a churning run; under loom every interleaving of
/// ticket claims and lock acquisitions is explored.
#[must_use]
pub fn serve_fleet() -> Vec<dlb_serve::Tenant> {
    let schemes = [
        dlb_serve::SchemeKind::SendFloor,
        dlb_serve::SchemeKind::RotorRouter,
        dlb_serve::SchemeKind::SendRound,
    ];
    schemes
        .iter()
        .enumerate()
        .map(|(i, &scheme)| {
            let gp = BalancingGraph::lazy(generators::cycle(4).expect("cycle(4) is valid"));
            let workload =
                (i == 1).then_some(dlb_scenario::WorkloadSpec::Steady { rate: 2, seed: 3 });
            let schedule = if i == 2 {
                dlb_topology::ScheduleSpec::Periodic {
                    period: 1,
                    swaps: 1,
                    seed: 4,
                }
            } else {
                dlb_topology::ScheduleSpec::Static
            };
            dlb_serve::Tenant::new(
                gp,
                LoadVector::point_mass(4, 24 + i as i64),
                scheme,
                workload,
                schedule,
            )
            .expect("fleet specs are well-formed")
        })
        .collect()
}

/// Runs the serve fleet through `slices` scheduler slices of `rounds`
/// rounds at the given worker count and returns the per-tenant
/// outcomes. `threads <= 1` is the inline serial sweep — the oracle
/// every worker interleaving must reproduce exactly.
#[must_use]
pub fn serve_outcomes(
    threads: usize,
    slices: usize,
    rounds: usize,
) -> Vec<dlb_serve::TenantOutcome> {
    let server = dlb_serve::Server::new(serve_fleet());
    for _ in 0..slices {
        server.run_slice(threads, rounds);
    }
    server
        .into_tenants()
        .iter()
        .map(dlb_serve::Tenant::outcome)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Passthrough sanity for the serve scheduler: any worker count
    /// reproduces the serial sweep's per-tenant outcomes, and every
    /// journal still replays. Under `--cfg dlb_model` the protocol
    /// tests strengthen this to every explored interleaving.
    #[test]
    fn serve_scheduler_matches_serial_outside_the_model() {
        let expected = serve_outcomes(1, 2, 2);
        for threads in [2usize, 3] {
            assert_eq!(serve_outcomes(threads, 2, 2), expected, "threads={threads}");
        }
        // The fleet must actually exercise injection and churn.
        assert!(expected.iter().any(|o| o.injected_total != 0));
        assert!(expected.iter().any(|o| o.topology_events_applied > 0));
    }
}
