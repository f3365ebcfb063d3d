//! `serve-fleet`: many small tenants behind one `Server`.
//!
//! 2 048 tenants — cycles with n ∈ {8, 12, 16, 24}, four schemes, five
//! workload specs and three schedules, the mix of the harness `serve`
//! experiment with seeded generator seeds — driven by back-to-back
//! `Server::run_slice(2, 16)`. Every 128th tenant runs an unclamped
//! drain that must error. After 16 slices a restore phase replays every
//! tenant's journal and compares it with the live outcome.

use std::time::Instant;

use dlb_core::LoadVector;
use dlb_graph::{generators, BalancingGraph};
use dlb_scenario::WorkloadSpec;
use dlb_serve::{Journal, SchemeKind, Server, Tenant, TenantError, TenantOutcome};
use dlb_topology::ScheduleSpec;

use crate::probe::{self, Counters};
use crate::stats::{mean_u64, median_u64, percentile, Tally};
use crate::trace::{Open, Tracer};
use crate::{episodes, Config, EndToEnd, Episode, Layers, Outcome, SplitMix};

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::SendFloor,
    SchemeKind::SendRound,
    SchemeKind::RotorRouter,
    SchemeKind::RotorRouterStar,
];

/// Span and metric names of one tenant's `run_rounds`, per scheme.
const STEP_SPANS: [(&str, &str); 4] = [
    ("serve.step.send_floor", "serve.step_us.send_floor"),
    ("serve.step.send_round", "serve.step_us.send_round"),
    ("serve.step.rotor", "serve.step_us.rotor"),
    ("serve.step.rotor_star", "serve.step_us.rotor_star"),
];

/// Every `DOOMED_STRIDE`-th tenant must error.
const DOOMED_STRIDE: usize = 128;

/// Every `RESUME_STRIDE`-th tenant is also resumed from a snapshot.
const RESUME_STRIDE: usize = 101;

/// Scheduler workers: fixed rather than read from the host, so every
/// host runs the same program; two matches the 2-CPU Xeon host the
/// bounds were measured on.
const WORKERS: usize = 2;

struct Params {
    tenants: usize,
    slices: usize,
    rounds: usize,
}

impl Params {
    fn new(quick: bool) -> Params {
        Params {
            tenants: if quick { 256 } else { 2048 },
            slices: if quick { 2 } else { 16 },
            rounds: if quick { 8 } else { 16 },
        }
    }
}

fn is_doomed(i: usize) -> bool {
    i % DOOMED_STRIDE == DOOMED_STRIDE - 1
}

/// Tenant `i` of the fleet for `seed`; adds its graph build time to
/// `graph_ns`.
fn build_tenant(seed: u64, i: usize, graph_ns: &mut u64) -> Tenant {
    let mut rng = SplitMix::new(seed, 4, i as u64);
    let n = [8, 12, 16, 24][i % 4];
    let t = Instant::now();
    let graph = BalancingGraph::lazy(generators::cycle(n).expect("cycle sizes are valid"));
    *graph_ns += t.elapsed().as_nanos() as u64;
    if is_doomed(i) {
        return Tenant::new(
            graph,
            LoadVector::uniform(n, 2),
            SchemeKind::SendFloor,
            Some(WorkloadSpec::DrainUnclamped { rate: 64 }),
            ScheduleSpec::Static,
        )
        .expect("doomed tenant spec is well-formed");
    }
    let initial = LoadVector::point_mass(n, 20 * n as i64 + rng.below(7) as i64);
    let scheme = SCHEMES[(i / 4) % 4];
    let workload = match i % 5 {
        0 => None,
        1 => Some(WorkloadSpec::Steady {
            rate: 4 + rng.below(3),
            seed: rng.next_u64(),
        }),
        2 => Some(WorkloadSpec::Hotspot { rate: 3 }),
        3 => Some(WorkloadSpec::Bursty {
            on: 3,
            off: 2,
            rate: 8,
            seed: rng.next_u64(),
        }),
        _ => Some(WorkloadSpec::Adversary {
            budget: 4 + rng.below(5),
        }),
    };
    let schedule = match i % 3 {
        0 => ScheduleSpec::Static,
        1 => ScheduleSpec::Periodic {
            period: 3 + i % 4,
            swaps: 1 + i % 2,
            seed: rng.next_u64(),
        },
        _ => ScheduleSpec::Burst {
            fail_at: 2 + i % 3,
            wake_at: 7 + i % 5,
            count: 1 + i % 2,
            seed: rng.next_u64(),
        },
    };
    Tenant::new(graph, initial, scheme, workload, schedule).expect("tenant spec is well-formed")
}

/// Checks that every journal replayed to its tenant's live outcome:
/// one attempt per tenant.
fn check_replays(
    replays: &[Result<TenantOutcome, TenantError>],
    live: &[TenantOutcome],
    tally: &mut Tally,
) {
    for (i, (replay, live)) in replays.iter().zip(live).enumerate() {
        tally.check(replay.as_ref().is_ok_and(|r| r == live), || {
            format!("tenant {i}: journal replay differs from the live outcome")
        });
    }
}

#[derive(Default)]
struct Probes {
    graph_build_ns: Vec<u64>,
    slice_busy_ns: u64,
    slice_capacity_ns: u64,
    decode_ns: Vec<u64>,
    replay_ns: Vec<u64>,
    encode_ns: Vec<u64>,
    resume_ns: Vec<u64>,
    /// Counters, journal bytes, snapshot bytes and errored tenants of
    /// the first traced episode (they repeat exactly for a seed).
    first: Option<(Counters, u64, u64, usize)>,
}

pub fn run(cfg: &Config) -> Outcome {
    let p = Params::new(cfg.quick);
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(false);
    let mut untraced = EndToEnd::default();
    let mut traced = EndToEnd::default();
    let mut probes = Probes::default();

    let min = if cfg.trace { 2 } else { 3 };
    episodes(cfg.seconds, min, |k| {
        let is_traced = cfg.trace && k > 0 && k % 2 == 0;
        tracer.set_enabled(is_traced);

        let t = Instant::now();
        let mut graph_ns = 0u64;
        // The fleet is a pure function of the run seed: episodes
        // rebuild the same tenants.
        let server = Server::new(
            (0..p.tenants)
                .map(|i| build_tenant(cfg.seed, i, &mut graph_ns))
                .collect(),
        );
        let setup_ns = t.elapsed().as_nanos() as u64;

        if is_traced {
            probe::set_counting(true);
        }
        let before = Counters::now();
        let mut call_ns = Vec::with_capacity(p.slices);
        let mut tenant_ns = Vec::with_capacity(p.slices * p.tenants);
        let timed = Instant::now();
        for _ in 0..p.slices {
            let call = tracer.new_call();
            let span = tracer.open("serve.slice", None, call);
            let c0 = Instant::now();
            let report = server.run_slice(WORKERS, p.rounds);
            let ns = c0.elapsed().as_nanos() as u64;
            tracer.close(span);
            tally.check(report.served + report.errored == p.tenants, || {
                format!(
                    "episode {k}: slice visited {} tenants",
                    report.served + report.errored
                )
            });
            if is_traced {
                probes.slice_busy_ns += report.latencies_ns.iter().sum::<u64>();
                probes.slice_capacity_ns += WORKERS as u64 * ns;
            }
            call_ns.push(ns);
            tenant_ns.extend(report.latencies_ns);
        }
        let timed_ns = timed.elapsed().as_nanos() as u64;
        let counted = Counters::now().since(&before);
        probe::set_counting(false);

        // Checks: exactly the doomed stratum errored.
        let mut errored = 0usize;
        let mut node_rounds = 0u64;
        let mut discrepancy = 0.0;
        for i in 0..p.tenants {
            server.with_tenant(i, |t| {
                let failed = t.error().is_some();
                errored += usize::from(failed);
                tally.check(failed == is_doomed(i), || {
                    format!("episode {k}: tenant {i} errored = {failed}")
                });
                node_rounds += (t.loads().len() * t.rounds_done()) as u64;
                discrepancy += t.loads().discrepancy() as f64;
            });
        }
        tally.check(errored == p.tenants / DOOMED_STRIDE, || {
            format!("episode {k}: {errored} tenants errored")
        });

        if is_traced {
            // One more slice, tenant by tenant, to time `run_rounds`
            // per scheme.
            let call = tracer.new_call();
            let parent = tracer.open("serve.traced_slice", None, call);
            for i in 0..p.tenants {
                server.with_tenant(i, |t| {
                    if t.error().is_none() {
                        let scheme = SCHEMES.iter().position(|&s| s == t.scheme());
                        let name = STEP_SPANS[scheme.unwrap_or(0)].0;
                        tracer.span(name, Some(&parent), call, || t.run_rounds(p.rounds));
                    }
                });
            }
            tracer.close(parent);
        }

        // Restore: replay every journal, then compare with the live
        // outcomes (outside the timed replay).
        let tenants = server.into_tenants();
        let live: Vec<TenantOutcome> = tenants.iter().map(Tenant::outcome).collect();
        let journals: Vec<&Journal> = tenants.iter().map(Tenant::journal).collect();
        let t = Instant::now();
        let replays = if is_traced {
            traced_replays(&journals, &mut tracer, &mut probes)
        } else {
            journals
                .iter()
                .map(|j| Tenant::replay(j))
                .collect::<Vec<_>>()
        };
        let restore_ns = t.elapsed().as_nanos() as u64;
        check_replays(&replays, &live, &mut tally);

        // Sampled snapshots must resume to the live outcome; a traced
        // episode also times every tenant's snapshot encode.
        let mut snapshot_bytes = 0u64;
        for (i, tenant) in tenants.iter().enumerate() {
            if !is_traced && i % RESUME_STRIDE != 0 {
                continue;
            }
            let t0 = Instant::now();
            let snap = tenant.snapshot();
            probes.encode_ns.push(t0.elapsed().as_nanos() as u64);
            snapshot_bytes += snap.len() as u64;
            if i % RESUME_STRIDE == 0 {
                let t0 = Instant::now();
                let resumed = Tenant::resume_from_snapshot(&snap);
                probes.resume_ns.push(t0.elapsed().as_nanos() as u64);
                tally.check(resumed.is_ok_and(|r| r.outcome() == live[i]), || {
                    format!("episode {k}: tenant {i} snapshot did not resume")
                });
            }
        }

        if k > 0 {
            let acc = if is_traced {
                &mut traced
            } else {
                &mut untraced
            };
            acc.add(Episode {
                setup_ns,
                call_ns,
                tenant_ns,
                node_rounds_per_call: node_rounds as f64 / p.slices as f64,
                timed_ns,
                restore_ns,
                final_discrepancy: discrepancy / p.tenants as f64,
            });
        }
        if is_traced {
            probes.graph_build_ns.push(graph_ns);
            if probes.first.is_none() {
                let journal_bytes = journals.iter().map(|j| j.as_bytes().len() as u64).sum();
                probes.first = Some((counted, journal_bytes, snapshot_bytes, errored));
            }
        }
    });

    let metrics = if cfg.trace {
        let mut l = Layers::default();
        let aggs = tracer.aggregate();
        l.set("graph.build_ms", median_u64(&probes.graph_build_ns) / 1e6);
        if let Some((c, journal_bytes, snapshot_bytes, errored)) = &probes.first {
            l.set_counters(c, p.slices);
            l.set("serve.journal_bytes", *journal_bytes as f64);
            l.set("serve.snapshot_bytes", *snapshot_bytes as f64);
            l.set("serve.errored_tenants", *errored as f64);
        }
        let mut all_steps = Vec::new();
        for (span, metric) in STEP_SPANS {
            if let Some(a) = aggs.get(span) {
                l.set(metric, mean_u64(&a.durs_ns) / 1e3);
                all_steps.extend_from_slice(&a.durs_ns);
            }
        }
        let p99 = percentile(&mut all_steps, 0.99).map_or(0, |(v, _)| v);
        l.set("serve.step_p99_us", p99 as f64 / 1e3);
        let busy = probes.slice_busy_ns as f64 / probes.slice_capacity_ns.max(1) as f64;
        l.set("serve.sched_overhead_frac", 1.0 - busy);
        l.set("serve.journal_decode_us", mean_u64(&probes.decode_ns) / 1e3);
        l.set("serve.replay_us", mean_u64(&probes.replay_ns) / 1e3);
        l.set(
            "serve.snapshot_encode_us",
            mean_u64(&probes.encode_ns) / 1e3,
        );
        l.set("serve.resume_us", mean_u64(&probes.resume_ns) / 1e3);
        l.set_overhead(&untraced, &traced);
        l.metrics()
    } else {
        untraced.metrics(&tally)
    };
    Outcome {
        metrics,
        tally,
        tracer: cfg.trace.then_some(tracer),
    }
}

/// Replays every journal inside `serve.decode` and `serve.replay`
/// spans (decode is timed on its own; replay decodes again, as a
/// restore does).
fn traced_replays(
    journals: &[&Journal],
    tracer: &mut Tracer,
    probes: &mut Probes,
) -> Vec<Result<TenantOutcome, TenantError>> {
    let call = tracer.new_call();
    let parent: Open = tracer.open("serve.restore", None, call);
    let out = journals
        .iter()
        .map(|j| {
            let t0 = Instant::now();
            let decoded = tracer.span("serve.journal_decode", Some(&parent), call, || j.decode());
            probes.decode_ns.push(t0.elapsed().as_nanos() as u64);
            std::hint::black_box(decoded.is_ok());
            let t0 = Instant::now();
            let r = tracer.span("serve.replay", Some(&parent), call, || Tenant::replay(j));
            probes.replay_ns.push(t0.elapsed().as_nanos() as u64);
            r
        })
        .collect();
    tracer.close(parent);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small fleet after two slices: its tenants and live outcomes.
    fn small_fleet() -> (Vec<Tenant>, Vec<TenantOutcome>) {
        let mut graph_ns = 0;
        let server = Server::new(
            (0..256)
                .map(|i| build_tenant(7, i, &mut graph_ns))
                .collect(),
        );
        for _ in 0..2 {
            server.run_slice(WORKERS, 8);
        }
        let tenants = server.into_tenants();
        let live = tenants.iter().map(Tenant::outcome).collect();
        (tenants, live)
    }

    #[test]
    fn untampered_journals_pass() {
        let (tenants, live) = small_fleet();
        let replays: Vec<_> = tenants
            .iter()
            .map(|t| Tenant::replay(t.journal()))
            .collect();
        let mut tally = Tally::default();
        check_replays(&replays, &live, &mut tally);
        assert_eq!(tally.attempted, 256);
        assert_eq!(tally.failed, 0, "{:?}", tally.failures);
    }

    #[test]
    fn a_tampered_journal_byte_is_a_failure() {
        let (tenants, live) = small_fleet();
        // Tenant 0 ends with an advance record (tag, u64 round); flip
        // the low bit of the round so replay runs one round too many.
        let mut bytes = tenants[0].journal().as_bytes().to_vec();
        let at = bytes.len() - 8;
        bytes[at] ^= 1;
        let tampered = Journal::from_bytes(bytes).expect("still decodes");
        let mut replays: Vec<_> = tenants
            .iter()
            .map(|t| Tenant::replay(t.journal()))
            .collect();
        replays[0] = Tenant::replay(&tampered);
        let mut tally = Tally::default();
        check_replays(&replays, &live, &mut tally);
        assert_eq!(tally.failed, 1, "the tampered journal must fail its check");
        assert!(tally.failures[0].starts_with("tenant 0:"));
    }

    #[test]
    fn exactly_the_doomed_stratum_errors() {
        let (tenants, _) = small_fleet();
        for (i, t) in tenants.iter().enumerate() {
            assert_eq!(t.error().is_some(), is_doomed(i), "tenant {i}");
        }
    }
}
