//! `closed-torus`: the paper's static setting on the vector path.
//!
//! Torus 256×256 (n = 65 536, d = 4, lazy), seeded uniform-random
//! initial loads below 2 048, SEND(⌊x/d⁺⌋) through
//! `Engine::run_kernel` in 16-round calls, reading
//! `loads().discrepancy()` after each call. One episode is a fresh
//! engine driven through 64 calls (1 024 rounds); its checks run
//! outside the timed phase.

use std::time::Instant;

use dlb_core::schemes::SendFloor;
use dlb_core::{Engine, LoadVector};
use dlb_graph::{generators, BalancingGraph};
use dlb_serve::{SchemeKind, Tenant, TenantOutcome, TenantSnapshot};
use dlb_topology::ScheduleSpec;

use crate::probe::{self, Counters};
use crate::stats::{median_u64, Tally};
use crate::trace::Tracer;
use crate::{episodes, Config, EndToEnd, Episode, GraphProbes, Layers, Outcome, SplitMix};

struct Params {
    side: usize,
    calls: usize,
    rounds: usize,
    max_load: u64,
}

impl Params {
    fn new(quick: bool) -> Params {
        Params {
            side: if quick { 32 } else { 256 },
            calls: if quick { 8 } else { 64 },
            rounds: 16,
            max_load: 2048,
        }
    }
}

/// Seeded uniform loads below `max_load` for episode `k`.
fn initial_loads(seed: u64, k: usize, n: usize, max_load: u64) -> Vec<i64> {
    let mut rng = SplitMix::new(seed, 1, k as u64);
    (0..n).map(|_| rng.below(max_load) as i64).collect()
}

/// The outcome a tenant resumed from `engine`'s snapshot must report.
pub(crate) fn expected_outcome(engine: &Engine, rotors: Vec<u64>) -> TenantOutcome {
    let s = engine.export_state();
    TenantOutcome {
        loads: s.loads,
        step: s.step,
        negative_node_steps: s.negative_node_steps,
        injected_total: s.injected_total,
        topology_events_applied: s.topology_events_applied,
        graph: s.graph,
        rotors,
        error: None,
    }
}

/// Traced-run accumulators beyond the end-to-end ones.
#[derive(Default)]
struct Probes {
    graph: GraphProbes,
    one_round_ns: Vec<u64>,
    many_round_ns: Vec<u64>,
    /// Counters and vector stats of the first traced episode (they
    /// repeat exactly for a seed).
    first: Option<(Counters, dlb_core::VectorStats)>,
}

/// Rounds in the long call of the kernel line fit.
const FIT_ROUNDS: usize = 64;

pub fn run(cfg: &Config) -> Outcome {
    let p = Params::new(cfg.quick);
    let n = p.side * p.side;
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(false);
    let mut untraced = EndToEnd::default();
    let mut traced = EndToEnd::default();
    let mut probes = Probes::default();

    let min = if cfg.trace { 2 } else { 3 };
    episodes(cfg.seconds, min, |k| {
        let is_traced = cfg.trace && k > 0 && k % 2 == 0;
        tracer.set_enabled(is_traced);

        // Set-up: graph, loads, engine, scheme.
        let t = Instant::now();
        let setup_call = tracer.new_call();
        let g = tracer.span("graph.build", None, setup_call, || {
            BalancingGraph::lazy(generators::torus(2, p.side).expect("torus side >= 3"))
        });
        let loads = initial_loads(cfg.seed, k, n, p.max_load);
        let initial_total: i64 = loads.iter().sum();
        let mut engine = Engine::new(g, LoadVector::new(loads.clone()));
        let mut balancer = SendFloor::new();
        let setup_ns = t.elapsed().as_nanos() as u64;

        // Timed phase.
        if is_traced {
            probe::set_counting(true);
        }
        let before = Counters::now();
        let mut call_ns = Vec::with_capacity(p.calls);
        let timed = Instant::now();
        for _ in 0..p.calls {
            let call = tracer.new_call();
            let span = tracer.open("core.engine_call", None, call);
            let c0 = Instant::now();
            let r = engine.run_kernel(&mut balancer, p.rounds);
            let ns = c0.elapsed().as_nanos() as u64;
            tracer.close(span);
            tally.check(r.is_ok(), || {
                format!("episode {k}: run_kernel failed: {r:?}")
            });
            call_ns.push(ns);
            let _ = tracer.span("core.discrepancy", None, call, || {
                std::hint::black_box(engine.loads().discrepancy())
            });
        }
        let timed_ns = timed.elapsed().as_nanos() as u64;
        let counted = Counters::now().since(&before);
        probe::set_counting(false);
        let final_discrepancy = engine.loads().discrepancy() as f64;

        // Checks: conservation, and bit-identity with the same rounds
        // run as one call.
        tally.check(engine.loads().total() == initial_total, || {
            format!("episode {k}: tokens not conserved")
        });
        let mut reference = Engine::new(engine.graph().clone(), LoadVector::new(loads));
        let r = reference.run_kernel(&mut SendFloor::new(), p.calls * p.rounds);
        tally.check(
            r.is_ok() && reference.loads().as_slice() == engine.loads().as_slice(),
            || {
                format!(
                    "episode {k}: chunked run differs from one {}-round call",
                    p.calls * p.rounds
                )
            },
        );

        // Restore: rebuild the engine from its encoded snapshot.
        let bytes = TenantSnapshot {
            engine: engine.export_state(),
            scheme: SchemeKind::SendFloor,
            rotors: Vec::new(),
            error: None,
            workload: None,
            workload_cursor: Vec::new(),
            schedule: ScheduleSpec::Static,
            schedule_cursor: Vec::new(),
        }
        .encode();
        let t = Instant::now();
        let resumed = Tenant::resume_from_snapshot(&bytes);
        let restore_ns = t.elapsed().as_nanos() as u64;
        let same = resumed.is_ok_and(|r| r.outcome() == expected_outcome(&engine, Vec::new()));
        tally.check(same, || {
            format!("episode {k}: snapshot did not resume to the live state")
        });
        if k > 0 {
            let acc = if is_traced {
                &mut traced
            } else {
                &mut untraced
            };
            acc.add(Episode {
                setup_ns,
                tenant_ns: call_ns.clone(),
                call_ns,
                node_rounds_per_call: (n * p.rounds) as f64,
                timed_ns,
                restore_ns,
                final_discrepancy,
            });
        }

        if is_traced {
            if probes.first.is_none() {
                probes.first = Some((counted, *engine.vector_stats()));
            }
            probes.graph.sample(engine.graph().graph(), &tracer);
            // Kernel line fit: alternate 1-round and 64-round calls.
            for _ in 0..5 {
                for (rounds, out) in [
                    (1, &mut probes.one_round_ns),
                    (FIT_ROUNDS, &mut probes.many_round_ns),
                ] {
                    let t = Instant::now();
                    let r = engine.run_kernel(&mut balancer, rounds);
                    out.push(t.elapsed().as_nanos() as u64);
                    tally.check(r.is_ok(), || format!("episode {k}: line-fit call failed"));
                }
            }
        }
    });

    let metrics = if cfg.trace {
        let mut l = Layers::default();
        let aggs = tracer.aggregate();
        probes.graph.fill(&mut l);
        l.set_engine_spans(&aggs);
        let one = median_u64(&probes.one_round_ns);
        let many = median_u64(&probes.many_round_ns);
        let round_ns = (many - one) / (FIT_ROUNDS - 1) as f64;
        l.set("core.kernel_round_us", round_ns / 1e3);
        l.set("core.kernel_call_fixed_ms", (one - round_ns) / 1e6);
        if let Some((c, v)) = &probes.first {
            l.set_counters(c, p.calls);
            l.set("core.vector_runs", v.runs as f64);
            l.set("core.vector_rounds_banded", v.rounds_banded as f64);
            l.set("core.vector_rounds_blocked", v.rounds_blocked as f64);
            l.set("core.vector_rounds_i32", v.rounds_i32 as f64);
            l.set("core.vector_i32_fallbacks", v.i32_fallbacks as f64);
        }
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
