//! `open-churn`: the scalar kernel's full dynamic round.
//!
//! Torus 128×128 (n = 16 384), ROTOR-ROUTER, `ScheduleSpec::Churn`
//! (rewiring plus crash and repair) with connectivity tracking on, and
//! `WorkloadSpec::ArriveAndDrain` at rate n/8 — one arrival per sink
//! per round on average against one token of drain capacity per sink,
//! so total load stays level — through `Engine::run_kernel_dyn` in
//! 16-round calls. One episode is a fresh engine driven through 32
//! calls (512 rounds).

use std::time::Instant;

use dlb_core::schemes::RotorRouter;
use dlb_core::{Engine, LoadVector, TopologySchedule, Workload};
use dlb_graph::{generators, BalancingGraph, PortOrder, RegularGraph, TopologyEvent};
use dlb_scenario::WorkloadSpec;
use dlb_serve::{SchemeKind, Tenant, TenantSnapshot};
use dlb_topology::{ScheduleSpec, SwapShortfall};

use crate::closed_torus::expected_outcome;
use crate::probe::{self, Counters};
use crate::stats::Tally;
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
            side: if quick { 16 } else { 128 },
            calls: if quick { 4 } else { 32 },
            rounds: 16,
            max_load: 2048,
        }
    }
}

/// Times its inner schedule's `events` calls; everything else is
/// delegated, `is_noop` included, so engine dispatch is unchanged.
struct TimedSchedule<'a> {
    inner: &'a mut dyn TopologySchedule,
    origin: Instant,
    spans: Vec<(u64, u64)>,
}

impl TopologySchedule for TimedSchedule<'_> {
    fn label(&self) -> String {
        self.inner.label()
    }
    fn events(&mut self, round: usize, graph: &RegularGraph, out: &mut Vec<TopologyEvent>) {
        let start = self.origin.elapsed().as_nanos() as u64;
        self.inner.events(round, graph, out);
        self.spans
            .push((start, self.origin.elapsed().as_nanos() as u64));
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn swap_shortfall(&self) -> Option<SwapShortfall> {
        self.inner.swap_shortfall()
    }
    fn validation_nanos(&self) -> u64 {
        self.inner.validation_nanos()
    }
    fn is_noop(&self) -> bool {
        self.inner.is_noop()
    }
    fn cursor(&self) -> Vec<u64> {
        self.inner.cursor()
    }
    fn restore_cursor(&mut self, cursor: &[u64]) -> bool {
        self.inner.restore_cursor(cursor)
    }
}

/// Times its inner workload's injection calls and counts the tokens
/// it adds (the count is taken outside the timed span).
struct TimedWorkload<'a> {
    inner: &'a mut dyn Workload,
    origin: Instant,
    spans: Vec<(u64, u64)>,
    added: i64,
}

impl TimedWorkload<'_> {
    fn timed(&mut self, deltas: &mut [i64], f: impl FnOnce(&mut dyn Workload, &mut [i64])) {
        let start = self.origin.elapsed().as_nanos() as u64;
        f(&mut *self.inner, deltas);
        self.spans
            .push((start, self.origin.elapsed().as_nanos() as u64));
        self.added += deltas.iter().filter(|&&d| d > 0).sum::<i64>();
    }
}

impl Workload for TimedWorkload<'_> {
    fn label(&self) -> String {
        self.inner.label()
    }
    fn inject(&mut self, round: usize, loads: &[i64], deltas: &mut [i64]) {
        self.timed(deltas, |w, d| w.inject(round, loads, d));
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn needs_argmax(&self) -> bool {
        self.inner.needs_argmax()
    }
    fn inject_with_hint(
        &mut self,
        round: usize,
        loads: &[i64],
        argmax: Option<(usize, i64)>,
        deltas: &mut [i64],
    ) {
        self.timed(deltas, |w, d| w.inject_with_hint(round, loads, argmax, d));
    }
    fn is_noop(&self) -> bool {
        self.inner.is_noop()
    }
    fn cursor(&self) -> Vec<u64> {
        self.inner.cursor()
    }
    fn restore_cursor(&mut self, cursor: &[u64]) -> bool {
        self.inner.restore_cursor(cursor)
    }
}

/// One episode's generator configuration.
fn specs(seed: u64, k: usize, n: usize) -> (ScheduleSpec, WorkloadSpec) {
    let mut rng = SplitMix::new(seed, 2, k as u64);
    (
        ScheduleSpec::Churn {
            period: 8,
            swaps: (n / 256).max(1),
            fail_pct: 10,
            max_down: (n / 8).max(2),
            seed: rng.next_u64(),
        },
        WorkloadSpec::ArriveAndDrain {
            rate: (n / 8) as u64,
            seed: rng.next_u64(),
        },
    )
}

#[derive(Default)]
struct Probes {
    graph: GraphProbes,
    validation_ns: u64,
    calls: usize,
    /// Counters, topology events, swap deficit and added tokens of the
    /// first traced episode (they repeat exactly for a seed).
    first: Option<(Counters, u64, u64, i64)>,
}

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
        let (schedule_spec, workload_spec) = specs(cfg.seed, k, n);

        let t = Instant::now();
        let setup_call = tracer.new_call();
        let g = tracer.span("graph.build", None, setup_call, || {
            BalancingGraph::lazy(generators::torus(2, p.side).expect("torus side >= 3"))
        });
        let mut rng = SplitMix::new(cfg.seed, 3, k as u64);
        let loads: Vec<i64> = (0..n).map(|_| rng.below(p.max_load) as i64).collect();
        let initial_total: i64 = loads.iter().sum();
        let mut rotor = RotorRouter::new(&g, PortOrder::Sequential).expect("torus is lazy");
        let mut engine = Engine::new(g, LoadVector::new(loads));
        engine.track_connectivity();
        let mut schedule = schedule_spec.build().expect("churn is dynamic");
        let mut workload = workload_spec.build(n);
        let setup_ns = t.elapsed().as_nanos() as u64;

        if is_traced {
            probe::set_counting(true);
        }
        let before = Counters::now();
        let mut added = 0i64;
        let mut call_ns = Vec::with_capacity(p.calls);
        let timed = Instant::now();
        for _ in 0..p.calls {
            let call = tracer.new_call();
            let r = if is_traced {
                let span = tracer.open("core.engine_call", None, call);
                let mut s = TimedSchedule {
                    inner: &mut *schedule,
                    origin: tracer.origin(),
                    spans: Vec::with_capacity(p.rounds),
                };
                let mut w = TimedWorkload {
                    inner: &mut *workload,
                    origin: tracer.origin(),
                    spans: Vec::with_capacity(p.rounds),
                    added: 0,
                };
                let c0 = Instant::now();
                let r = engine.run_kernel_dyn(&mut rotor, p.rounds, Some(&mut s), Some(&mut w));
                call_ns.push(c0.elapsed().as_nanos() as u64);
                tracer.close(span);
                for (a, b) in s.spans {
                    tracer.record("topology.next", &span, a, b);
                }
                for (a, b) in w.spans {
                    tracer.record("scenario.inject", &span, a, b);
                }
                added += w.added;
                r
            } else {
                let c0 = Instant::now();
                let r = engine.run_kernel_dyn(
                    &mut rotor,
                    p.rounds,
                    Some(&mut *schedule),
                    Some(&mut *workload),
                );
                call_ns.push(c0.elapsed().as_nanos() as u64);
                r
            };
            tally.check(r.is_ok(), || {
                format!("episode {k}: run_kernel_dyn failed: {r:?}")
            });
            let _ = tracer.span("core.discrepancy", None, call, || {
                std::hint::black_box(engine.loads().discrepancy())
            });
        }
        let timed_ns = timed.elapsed().as_nanos() as u64;
        let counted = Counters::now().since(&before);
        probe::set_counting(false);
        let events = engine.topology_events_applied();
        let validation_ns = schedule.validation_nanos();
        let final_discrepancy = engine.loads().discrepancy() as f64;

        // Checks: open-system conservation, full swap delivery,
        // connectivity.
        tally.check(
            engine.loads().total() == initial_total + engine.injected_total(),
            || format!("episode {k}: total != initial + injected"),
        );
        let deficit = schedule.swap_shortfall().map_or(0, |s| s.deficit());
        tally.check(deficit == 0, || {
            format!("episode {k}: swap shortfall {deficit}")
        });
        tally.check(engine.is_connected() == Some(true), || {
            format!("episode {k}: graph disconnected")
        });

        // Restore: resume a tenant from the engine's snapshot, then
        // check it continues exactly like the live engine.
        let rotors: Vec<u64> = rotor.rotors().iter().map(|&r| r as u64).collect();
        let bytes = TenantSnapshot {
            engine: engine.export_state(),
            scheme: SchemeKind::RotorRouter,
            rotors: rotors.clone(),
            error: None,
            workload: Some(workload_spec),
            workload_cursor: workload.cursor(),
            schedule: schedule_spec,
            schedule_cursor: schedule.cursor(),
        }
        .encode();
        let t = Instant::now();
        let resumed = Tenant::resume_from_snapshot(&bytes);
        let restore_ns = t.elapsed().as_nanos() as u64;
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
        let same_now = resumed
            .as_ref()
            .is_ok_and(|r| r.outcome() == expected_outcome(&engine, rotors));
        tally.check(same_now, || {
            format!("episode {k}: snapshot did not resume to the live state")
        });
        let r = engine.run_kernel_dyn(
            &mut rotor,
            p.rounds,
            Some(&mut *schedule),
            Some(&mut *workload),
        );
        let rotors: Vec<u64> = rotor.rotors().iter().map(|&r| r as u64).collect();
        let same_next = resumed.is_ok_and(|mut t| {
            t.run_rounds(p.rounds) && t.outcome() == expected_outcome(&engine, rotors)
        });
        tally.check(r.is_ok() && same_next, || {
            format!("episode {k}: resumed tenant diverged from the live engine")
        });

        if is_traced {
            probes.validation_ns += validation_ns;
            probes.calls += p.calls;
            if probes.first.is_none() {
                probes.first = Some((counted, events, deficit, added));
            }
            probes.graph.sample(engine.graph().graph(), &tracer);
        }
    });

    let metrics = if cfg.trace {
        let mut l = Layers::default();
        let aggs = tracer.aggregate();
        probes.graph.fill(&mut l);
        l.set_engine_spans(&aggs);
        if let Some((c, events, deficit, added)) = &probes.first {
            l.set_counters(c, p.calls);
            l.set("topology.events", *events as f64);
            l.set("topology.swap_shortfall", *deficit as f64);
            l.set("scenario.injected_tokens", *added as f64);
        }
        let calls = probes.calls.max(1) as f64;
        l.set(
            "topology.validation_ms",
            probes.validation_ns as f64 / calls / 1e6,
        );
        if let Some(a) = aggs.get("topology.next") {
            l.set("topology.next_self_us", a.self_ns as f64 / calls / 1e3);
        }
        if let Some(a) = aggs.get("scenario.inject") {
            l.set("scenario.inject_self_us", a.self_ns as f64 / calls / 1e3);
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
