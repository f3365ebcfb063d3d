//! Cross-path property tests: the engine's batched paths must be
//! indistinguishable from the `step()` loop.
//!
//! Four guarantees, checked by proptest across every structured
//! generator family (cycle, torus, hypercube, clique-circulant,
//! random-regular):
//!
//! 1. every non-overdrawing scheme conserves tokens and never produces
//!    a negative load, on every execution path;
//! 2. `run` and the plan-free `run_kernel` produce bit-identical
//!    load vectors to the `step()` loop for every scheme with a kernel;
//! 3. running on an RCM-relabeled graph with permuted loads and mapping
//!    the result back through the inverse reproduces the original run
//!    exactly (port numbering is preserved, so even the rotor-router
//!    commutes with relabeling);
//! 4. `run_kernel` reports the same `Overdraw`/`NegativeLoad` error —
//!    same node, load and step — as the `step()` loop.

use dlb::core::schemes::{RotorRouter, SendFloor, SendRound};
use dlb::core::{
    Balancer, Engine, EngineError, FlowPlan, KernelBalancer, LoadVector, VectorConfig,
    VectorStrategy, VectorWidth, I32_HEADROOM_LIMIT,
};
use dlb::graph::relabel::Relabeling;
use dlb::graph::{generators, BalancingGraph, PortOrder, RegularGraph};
use dlb::harness::SchemeSpec;
use proptest::prelude::*;

/// The structured generator families the fast paths are validated on.
fn graph_family() -> Vec<(&'static str, RegularGraph)> {
    vec![
        ("cycle", generators::cycle(24).unwrap()),
        ("torus", generators::torus(2, 5).unwrap()),
        ("hypercube", generators::hypercube(5).unwrap()),
        (
            "clique-circulant",
            generators::clique_circulant(24, 4).unwrap(),
        ),
        (
            "random-regular",
            generators::random_regular(30, 3, 7).unwrap(),
        ),
    ]
}

/// Cycles `pattern` into a load vector of length `n`.
fn loads_for(n: usize, pattern: &[i64]) -> LoadVector {
    let mut loads = vec![0i64; n];
    for (slot, &value) in loads.iter_mut().zip(pattern.iter().cycle()) {
        *slot = value;
    }
    LoadVector::new(loads)
}

fn non_overdrawing_schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::SendFloor,
        SchemeSpec::SendRound,
        SchemeSpec::RotorRouter,
        SchemeSpec::RotorRouterStar,
        SchemeSpec::Good { s: 1 },
        SchemeSpec::RoundFairFirstPorts,
        SchemeSpec::RoundFairLagged { period: 3 },
        SchemeSpec::RandomizedExtra { seed: 11 },
    ]
}

/// Drives `steps` rounds of the kernel scheme named by `which` through
/// `run_kernel` (the path is generic over the concrete scheme, so tests
/// dispatch explicitly).
fn run_kernel_by_name(
    gp: &BalancingGraph,
    which: &SchemeSpec,
    initial: &LoadVector,
    steps: usize,
) -> Result<Engine, EngineError> {
    let mut engine = Engine::new(gp.clone(), initial.clone());
    match which {
        SchemeSpec::SendFloor => engine.run_kernel(&mut SendFloor::new(), steps)?,
        SchemeSpec::SendRound => engine.run_kernel(&mut SendRound::new(), steps)?,
        SchemeSpec::RotorRouter => {
            let mut rotor = RotorRouter::new(gp, PortOrder::Sequential).expect("rotor builds");
            engine.run_kernel(&mut rotor, steps)?;
        }
        other => panic!("no kernel dispatch for {}", other.label()),
    }
    Ok(engine)
}

/// The forced vector configurations the kernel path is pinned on: each
/// inner loop (banded/blocked × i64/i32) explicitly, so no dispatch
/// heuristic can hide one from the differential battery. `scalar`
/// (vector layer disabled) is the oracle.
fn vector_configs() -> Vec<(&'static str, VectorConfig)> {
    vec![
        (
            "scalar",
            VectorConfig {
                enabled: false,
                ..VectorConfig::default()
            },
        ),
        (
            "banded-i64",
            VectorConfig {
                enabled: true,
                strategy: VectorStrategy::Banded,
                width: VectorWidth::I64,
            },
        ),
        (
            "blocked-i64",
            VectorConfig {
                enabled: true,
                strategy: VectorStrategy::BlockedCsr,
                width: VectorWidth::I64,
            },
        ),
        (
            "banded-i32",
            VectorConfig {
                enabled: true,
                strategy: VectorStrategy::Banded,
                width: VectorWidth::I32 {
                    limit: I32_HEADROOM_LIMIT,
                },
            },
        ),
        (
            "blocked-i32",
            VectorConfig {
                enabled: true,
                strategy: VectorStrategy::BlockedCsr,
                width: VectorWidth::I32 {
                    limit: I32_HEADROOM_LIMIT,
                },
            },
        ),
    ]
}

/// `run_kernel` under an explicit vector configuration.
fn run_kernel_configured(
    gp: &BalancingGraph,
    which: &SchemeSpec,
    initial: &LoadVector,
    steps: usize,
    config: VectorConfig,
) -> Engine {
    let mut engine = Engine::new(gp.clone(), initial.clone());
    engine.set_vector_config(config);
    match which {
        SchemeSpec::SendFloor => engine.run_kernel(&mut SendFloor::new(), steps).unwrap(),
        SchemeSpec::SendRound => engine.run_kernel(&mut SendRound::new(), steps).unwrap(),
        other => panic!("no kernel dispatch for {}", other.label()),
    }
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Guarantee 1: conservation + non-negativity on the serial paths.
    #[test]
    fn non_overdrawing_schemes_conserve_and_stay_non_negative(
        pattern in proptest::collection::vec(0i64..300, 4..12),
        steps in 1usize..30,
    ) {
        for (name, graph) in graph_family() {
            let n = graph.num_nodes();
            let gp = BalancingGraph::lazy(graph);
            let initial = loads_for(n, &pattern);
            let total = initial.total();
            for scheme in non_overdrawing_schemes() {
                let mut bal = scheme.build(&gp).unwrap();
                prop_assert!(!bal.may_overdraw());
                let mut engine = Engine::new(gp.clone(), initial.clone());
                engine.run(bal.as_mut(), steps).unwrap();
                prop_assert_eq!(
                    engine.loads().total(), total,
                    "{} lost tokens on {}", scheme.label(), name
                );
                prop_assert_eq!(
                    engine.negative_node_steps(), 0,
                    "{} went negative on {}", scheme.label(), name
                );
                prop_assert_eq!(engine.loads().negative_nodes(), 0);
            }
        }
    }

    /// Guarantee 2: the batched and kernel paths are bit-identical to
    /// the stepping loop.
    #[test]
    fn fast_and_kernel_paths_match_instrumented_stepping(
        pattern in proptest::collection::vec(0i64..400, 4..12),
        steps in 1usize..25,
    ) {
        for (name, graph) in graph_family() {
            let n = graph.num_nodes();
            let gp = BalancingGraph::lazy(graph);
            let initial = loads_for(n, &pattern);
            for scheme in [SchemeSpec::SendFloor, SchemeSpec::SendRound] {
                // Reference: the step() loop.
                let mut bal = scheme.build(&gp).unwrap();
                let mut reference = Engine::new(gp.clone(), initial.clone());
                for _ in 0..steps {
                    reference.step(bal.as_mut()).unwrap();
                }

                let mut bal = scheme.build(&gp).unwrap();
                let mut batched = Engine::new(gp.clone(), initial.clone());
                batched.run(bal.as_mut(), steps).unwrap();
                prop_assert_eq!(
                    batched.loads(), reference.loads(),
                    "run diverged: {} on {}", scheme.label(), name
                );

                let kernel = run_kernel_by_name(&gp, &scheme, &initial, steps).unwrap();
                prop_assert_eq!(
                    kernel.loads(), reference.loads(),
                    "run_kernel diverged: {} on {}", scheme.label(), name
                );
                prop_assert_eq!(kernel.step_count(), reference.step_count());
                prop_assert_eq!(
                    kernel.negative_node_steps(),
                    reference.negative_node_steps()
                );
            }
        }
    }

    /// The vectorized inner loops — banded and blocked gathers, at
    /// both load widths — are bit-identical to the instrumented
    /// stepping loop for both SEND schemes on every graph family, and
    /// the forced configurations really do dispatch (a silently
    /// scalar-fallback run cannot pass for a vector one).
    #[test]
    fn vector_inner_loops_match_instrumented_stepping(
        pattern in proptest::collection::vec(0i64..400, 4..12),
        steps in 1usize..25,
    ) {
        for (name, graph) in graph_family() {
            let n = graph.num_nodes();
            let gp = BalancingGraph::lazy(graph);
            let initial = loads_for(n, &pattern);
            for scheme in [SchemeSpec::SendFloor, SchemeSpec::SendRound] {
                let mut bal = scheme.build(&gp).unwrap();
                let mut reference = Engine::new(gp.clone(), initial.clone());
                for _ in 0..steps {
                    reference.step(bal.as_mut()).unwrap();
                }
                for (label, config) in vector_configs() {
                    let engine =
                        run_kernel_configured(&gp, &scheme, &initial, steps, config);
                    prop_assert_eq!(
                        engine.loads(), reference.loads(),
                        "{} diverged: {} on {}", label, scheme.label(), name
                    );
                    prop_assert_eq!(engine.step_count(), reference.step_count());
                    prop_assert_eq!(
                        engine.negative_node_steps(),
                        reference.negative_node_steps()
                    );
                    let dispatched = engine.vector_stats().runs;
                    if config.enabled {
                        prop_assert_eq!(
                            dispatched, 1,
                            "{} eligible but not dispatched: {} on {}",
                            label, scheme.label(), name
                        );
                    } else {
                        prop_assert_eq!(dispatched, 0);
                    }
                }
            }
        }
    }

    /// The rotor-router (stateful, not sharded) must still agree
    /// between its serial paths — including the plan-free kernel, whose
    /// rotor advances in stream order rather than plan order.
    #[test]
    fn rotor_router_fast_and_kernel_paths_match_stepping(
        pattern in proptest::collection::vec(0i64..300, 4..12),
        steps in 1usize..30,
    ) {
        for (name, graph) in graph_family() {
            let n = graph.num_nodes();
            let gp = BalancingGraph::lazy(graph);
            let initial = loads_for(n, &pattern);
            let mut bal = SchemeSpec::RotorRouter.build(&gp).unwrap();
            let mut reference = Engine::new(gp.clone(), initial.clone());
            for _ in 0..steps {
                reference.step(bal.as_mut()).unwrap();
            }
            let mut bal = SchemeSpec::RotorRouter.build(&gp).unwrap();
            let mut batched = Engine::new(gp.clone(), initial.clone());
            batched.run(bal.as_mut(), steps).unwrap();
            prop_assert_eq!(
                batched.loads(), reference.loads(),
                "rotor run diverged on {}", name
            );
            let kernel =
                run_kernel_by_name(&gp, &SchemeSpec::RotorRouter, &initial, steps).unwrap();
            prop_assert_eq!(
                kernel.loads(), reference.loads(),
                "rotor run_kernel diverged on {}", name
            );
        }
    }

    /// Guarantee 3: relabeling commutes with balancing. Running on the
    /// RCM-relabeled graph with permuted loads and mapping the final
    /// loads back through the inverse is bit-identical to the original
    /// run — for the stateless SEND family *and* the port-order
    /// sensitive rotor-router (relabeling preserves port numbering).
    #[test]
    fn relabeled_runs_map_back_bit_identically(
        pattern in proptest::collection::vec(0i64..300, 4..12),
        steps in 1usize..25,
    ) {
        for (name, graph) in graph_family() {
            let n = graph.num_nodes();
            let relab = Relabeling::reverse_cuthill_mckee(&graph);
            let rgp = BalancingGraph::lazy(graph.relabeled(&relab).unwrap());
            let gp = BalancingGraph::lazy(graph);
            let initial = loads_for(n, &pattern);
            let rinitial = LoadVector::new(relab.permute(initial.as_slice()));
            for scheme in [
                SchemeSpec::SendFloor,
                SchemeSpec::SendRound,
                SchemeSpec::RotorRouter,
            ] {
                let reference = run_kernel_by_name(&gp, &scheme, &initial, steps).unwrap();
                let relabeled = run_kernel_by_name(&rgp, &scheme, &rinitial, steps).unwrap();
                let restored =
                    LoadVector::new(relab.unpermute(relabeled.loads().as_slice()));
                prop_assert_eq!(
                    &restored, reference.loads(),
                    "relabeled {} diverged on {}", scheme.label(), name
                );
            }
        }
    }

    /// Guarantee 3, state half: relabeling round-trips the
    /// rotor-router's *state*, not just the loads. After identical
    /// horizons, mapping the relabeled run's rotor positions back
    /// through the inverse permutation must reproduce the original
    /// run's rotors exactly (port numbering is preserved per node, and
    /// `Sequential` order is node-id independent, so rotor indices are
    /// directly comparable).
    #[test]
    fn relabeled_runs_round_trip_rotor_state(
        pattern in proptest::collection::vec(0i64..300, 4..12),
        steps in 1usize..25,
    ) {
        for (name, graph) in graph_family() {
            let n = graph.num_nodes();
            let relab = Relabeling::reverse_cuthill_mckee(&graph);
            let rgp = BalancingGraph::lazy(graph.relabeled(&relab).unwrap());
            let gp = BalancingGraph::lazy(graph);
            let initial = loads_for(n, &pattern);
            let rinitial = LoadVector::new(relab.permute(initial.as_slice()));

            let mut rotor = RotorRouter::new(&gp, PortOrder::Sequential).unwrap();
            let mut reference = Engine::new(gp.clone(), initial);
            reference.run_kernel(&mut rotor, steps).unwrap();

            let mut rrotor = RotorRouter::new(&rgp, PortOrder::Sequential).unwrap();
            let mut relabeled = Engine::new(rgp.clone(), rinitial);
            relabeled.run_kernel(&mut rrotor, steps).unwrap();

            prop_assert_eq!(
                relab.unpermute(rrotor.rotors()),
                rotor.rotors().to_vec(),
                "rotor state broke under relabeling on {}", name
            );
            prop_assert_eq!(
                LoadVector::new(relab.unpermute(relabeled.loads().as_slice())),
                reference.loads().clone()
            );
        }
    }
}

/// The headline regression, end to end through the public facade: an
/// engine seeded with a negative load must return the documented error
/// — not trip a scheme's debug assertion — on every execution path.
#[test]
fn negative_seed_errors_cleanly_on_every_path() {
    let build = || {
        let gp = BalancingGraph::lazy(generators::cycle(8).unwrap());
        Engine::new(gp, LoadVector::new(vec![10, 0, -3, 0, 0, 0, 0, 0]))
    };
    let expect = |r: Result<(), EngineError>| {
        assert!(
            matches!(
                r,
                Err(EngineError::NegativeLoad {
                    node: 2,
                    load: -3,
                    step: 1
                })
            ),
            "wrong outcome: {r:?}"
        );
    };
    expect(build().run(&mut SendFloor::new(), 4));
    expect(build().run(&mut SendFloor::new(), 4));
    expect(build().run_kernel(&mut SendFloor::new(), 4));
    expect(build().step(&mut SendFloor::new()).map(|_| ()));
}

/// A deliberately overdrawing scheme that claims to be well-behaved,
/// implemented identically on the planned and kernel paths: every
/// non-empty node sends exactly 3 tokens over port 0, whatever it
/// holds.
struct Drain3;

impl Balancer for Drain3 {
    fn name(&self) -> &'static str {
        "drain-3"
    }
    fn plan(&mut self, gp: &BalancingGraph, loads: &LoadVector, plan: &mut FlowPlan) {
        for u in 0..gp.num_nodes() {
            if loads.get(u) != 0 {
                plan.set(u, 0, 3);
            }
        }
    }
}

impl KernelBalancer for Drain3 {
    fn kernel_node(&mut self, _gp: &BalancingGraph, _u: usize, _load: i64, flows: &mut [u64]) {
        flows.fill(0);
        flows[0] = 3;
    }
}

/// Guarantee 4 (overdraw half): `run_kernel` must report the exact
/// `Overdraw` the `step()` loop reports — same node, load, planned
/// amount and 1-based step — and leave the loads of the last completed
/// round, after which both engines agree.
#[test]
fn run_kernel_overdraw_parity_with_step_loop() {
    let build = || {
        let gp = BalancingGraph::lazy(generators::cycle(4).unwrap());
        // Node 0 drains 3/step: 4 → 1, then plans 3 from 1 and trips on
        // step 2 (validated before any routing, so round 2 is a no-op).
        Engine::new(gp, LoadVector::new(vec![4, 0, 0, 0]))
    };

    let mut reference = build();
    let step_err = loop {
        match reference.step(&mut Drain3) {
            Ok(_) => {}
            Err(e) => break e,
        }
    };
    assert_eq!(
        step_err,
        EngineError::Overdraw {
            node: 0,
            load: 1,
            planned: 3,
            step: 2
        }
    );

    let mut kernel = build();
    let kernel_err = kernel.run_kernel(&mut Drain3, 10).unwrap_err();
    assert_eq!(kernel_err, step_err, "kernel error diverged from step()");
    assert_eq!(kernel.loads(), reference.loads());
    assert_eq!(kernel.step_count(), reference.step_count());
}

/// An honestly overdrawing scheme (it declares `may_overdraw`),
/// identical on the planned and kernel paths: every non-empty node
/// sends 5 over port 0, driving itself negative when it holds less.
struct Overdraw5;

impl Balancer for Overdraw5 {
    fn name(&self) -> &'static str {
        "overdraw-5"
    }
    fn may_overdraw(&self) -> bool {
        true
    }
    fn plan(&mut self, gp: &BalancingGraph, loads: &LoadVector, plan: &mut FlowPlan) {
        for u in 0..gp.num_nodes() {
            if loads.get(u) != 0 {
                plan.set(u, 0, 5);
            }
        }
    }
}

impl KernelBalancer for Overdraw5 {
    fn kernel_node(&mut self, _gp: &BalancingGraph, _u: usize, _load: i64, flows: &mut [u64]) {
        flows.fill(0);
        flows[0] = 5;
    }
}

/// Guarantee 4 (negative half): a negative load appearing mid-run (not
/// just at the seed) must surface with the same node and step on the
/// kernel path as on the step loop — including the negative-node-step
/// accounting the overdraw rounds accumulate along the way.
#[test]
fn run_kernel_negative_load_parity_with_step_loop() {
    let build = || {
        let gp = BalancingGraph::lazy(generators::cycle(6).unwrap());
        Engine::new(gp, LoadVector::new(vec![3, 0, 0, 0, 0, 0]))
    };

    // One overdrawing round drives node 0 to −2; the next round under a
    // non-overdrawing scheme must reject the negative state pre-plan.
    let mut reference = build();
    reference.step(&mut Overdraw5).unwrap();
    let ref_err = reference.step(&mut SendFloor::new()).unwrap_err();
    assert_eq!(
        ref_err,
        EngineError::NegativeLoad {
            node: 0,
            load: -2,
            step: 2
        }
    );

    let mut kernel = build();
    kernel.run_kernel(&mut Overdraw5, 1).unwrap();
    assert_eq!(kernel.loads(), reference.loads());
    assert_eq!(
        kernel.negative_node_steps(),
        reference.negative_node_steps(),
        "overdraw accounting diverged"
    );
    let kern_err = kernel.run_kernel(&mut SendFloor::new(), 5).unwrap_err();
    assert_eq!(kern_err, ref_err, "kernel error diverged from step()");
}

/// Satellite regression: the kernel path on an overdrawing scheme used
/// to pay a full `O(n)` negative-load rescan per round. The streaming
/// apply now maintains the count at every write — the rescan counter
/// must stay pinned at zero while the accounting it replaced stays
/// exact against the instrumented step loop.
#[test]
fn overdrawing_kernel_rounds_pay_zero_negative_rescans() {
    let build = || {
        let gp = BalancingGraph::lazy(generators::cycle(12).unwrap());
        Engine::new(
            gp,
            LoadVector::new(vec![9, 2, 0, 7, 1, 0, 4, 0, 0, 3, 0, 6]),
        )
    };
    let steps = 25;
    let mut reference = build();
    for _ in 0..steps {
        reference.step(&mut Overdraw5).unwrap();
    }
    assert!(
        reference.negative_node_steps() > 0,
        "the scenario must actually accumulate negative node-steps"
    );

    let mut kernel = build();
    kernel.run_kernel(&mut Overdraw5, steps).unwrap();
    assert_eq!(kernel.loads(), reference.loads());
    assert_eq!(
        kernel.negative_node_steps(),
        reference.negative_node_steps(),
        "incremental negative accounting diverged from the step loop"
    );
    assert_eq!(
        kernel.negative_rescans(),
        0,
        "kernel rounds must never rescan for negative loads"
    );
}

/// A seed too large for the i32 headroom bound must keep the automatic
/// width on i64 — no compressed rounds, no fallback event, and loads
/// bit-identical to the scalar kernel.
#[test]
fn near_i32_max_seed_stays_on_i64_under_auto_width() {
    let gp = BalancingGraph::lazy(generators::cycle(32).unwrap());
    let mut loads = vec![3i64; 32];
    loads[5] = i64::from(i32::MAX) - 64; // far over I32_HEADROOM_LIMIT
    let initial = LoadVector::new(loads);
    let steps = 12;

    let scalar = run_kernel_configured(
        &gp,
        &SchemeSpec::SendFloor,
        &initial,
        steps,
        VectorConfig {
            enabled: false,
            ..VectorConfig::default()
        },
    );
    let auto = run_kernel_configured(
        &gp,
        &SchemeSpec::SendFloor,
        &initial,
        steps,
        VectorConfig::default(),
    );
    assert_eq!(auto.loads(), scalar.loads());
    let stats = auto.vector_stats();
    assert_eq!(stats.runs, 1, "the run itself must dispatch");
    assert_eq!(stats.rounds_i32, 0, "no compressed rounds over the bound");
    assert_eq!(
        stats.i32_fallbacks, 0,
        "auto width declines, it never trips"
    );
}

/// The i32 overflow guard, mid-run: a seed that fits the (forced,
/// tiny) headroom limit at entry but crosses it as SEND(round) grows a
/// node's load must trip the guard loudly, finish on i64, and stay
/// bit-identical to the scalar kernel.
#[test]
fn forced_i32_guard_trips_mid_run_and_falls_back_bit_identically() {
    let gp = BalancingGraph::lazy(generators::cycle(8).unwrap());
    // Node 1 (load 9, between two 10s) climbs to 11 after one
    // SEND(round) step: 9 − 4 + 3 + 3. Entry max 10 fits limit 10.
    let initial = LoadVector::new(vec![10, 9, 10, 0, 0, 0, 0, 0]);
    let steps = 9;

    let scalar = run_kernel_configured(
        &gp,
        &SchemeSpec::SendRound,
        &initial,
        steps,
        VectorConfig {
            enabled: false,
            ..VectorConfig::default()
        },
    );
    for strategy in [VectorStrategy::Banded, VectorStrategy::BlockedCsr] {
        let engine = run_kernel_configured(
            &gp,
            &SchemeSpec::SendRound,
            &initial,
            steps,
            VectorConfig {
                enabled: true,
                strategy,
                width: VectorWidth::I32 { limit: 10 },
            },
        );
        assert_eq!(
            engine.loads(),
            scalar.loads(),
            "i32 fallback diverged ({strategy:?})"
        );
        let stats = engine.vector_stats();
        assert_eq!(stats.rounds_i32, 1, "exactly the first round compresses");
        assert_eq!(stats.i32_fallbacks, 1, "the guard must trip exactly once");
    }
}

/// The i32 overflow guard, at entry: a forced-i32 run whose seed never
/// fits the limit falls back immediately — counted, zero compressed
/// rounds — and completes on i64 bit-identically.
#[test]
fn forced_i32_with_unfitting_seed_falls_back_loudly_at_entry() {
    let gp = BalancingGraph::lazy(generators::cycle(16).unwrap());
    let initial = LoadVector::point_mass(16, 5000);
    let steps = 10;

    let scalar = run_kernel_configured(
        &gp,
        &SchemeSpec::SendFloor,
        &initial,
        steps,
        VectorConfig {
            enabled: false,
            ..VectorConfig::default()
        },
    );
    let engine = run_kernel_configured(
        &gp,
        &SchemeSpec::SendFloor,
        &initial,
        steps,
        VectorConfig {
            enabled: true,
            strategy: VectorStrategy::Banded,
            width: VectorWidth::I32 { limit: 100 },
        },
    );
    assert_eq!(engine.loads(), scalar.loads());
    let stats = engine.vector_stats();
    assert_eq!(stats.rounds_i32, 0, "no round may run compressed");
    assert_eq!(
        stats.i32_fallbacks, 1,
        "the entry guard must count its trip"
    );
}

/// Step-count parity across chunked vector runs: two `run_kernel`
/// calls must land on the same state and step count as one combined
/// call and as the step loop — the vector path advances the engine's
/// clock exactly like the scalar rounds.
#[test]
fn chunked_vector_runs_accumulate_steps_like_scalar() {
    let gp = BalancingGraph::lazy(generators::cycle(24).unwrap());
    let initial = LoadVector::point_mass(24, 4801);

    let mut reference = Engine::new(gp.clone(), initial.clone());
    let mut bal = SendFloor::new();
    for _ in 0..11 {
        reference.step(&mut bal).unwrap();
    }

    let mut chunked = Engine::new(gp.clone(), initial.clone());
    chunked.run_kernel(&mut SendFloor::new(), 4).unwrap();
    chunked.run_kernel(&mut SendFloor::new(), 7).unwrap();
    assert_eq!(chunked.step_count(), 11);
    assert_eq!(chunked.loads(), reference.loads());
    assert_eq!(chunked.vector_stats().runs, 2);

    let mut single = Engine::new(gp, initial);
    single.run_kernel(&mut SendFloor::new(), 11).unwrap();
    assert_eq!(single.loads(), reference.loads());
    assert_eq!(single.step_count(), 11);
}
