//! Differential fuzzing of the engine's execution paths.
//!
//! One semantics, three implementations: a one-round `run_dyn` loop,
//! one batched `run_dyn` call and the plan-free `run_kernel_dyn`
//! (with its vector inner loops forced where they apply). This suite
//! drives randomized scheme × graph × load × workload × **topology
//! schedule** combinations through every applicable path and asserts
//! that the complete observable outcome is identical:
//!
//! * the final load vector, bit for bit,
//! * the final graph — adjacency, port numbering and sleep state —
//!   after all applied churn (swaps, port permutations, sleep/wake),
//! * the rotor-router's rotor state, where the scheme has one,
//! * the completed step count,
//! * the negative-node-step accounting,
//! * the net injected total and the applied-event count, and
//! * on divergence points — rounds rejected with `Overdraw`,
//!   `NegativeLoad` or `Topology` — the *same error*, same node, same
//!   load, same 1-based step. The workload mix deliberately includes
//!   an unclamped drain (drives loads negative mid-run) and the scheme
//!   mix a constant-rate sender (overdraws once injection erodes its
//!   load), so error rounds *caused by injection while the topology
//!   churns* are part of the fuzzed space — and the failed round must
//!   roll back its topology events on every path, not just its
//!   injection.

use dlb::core::schemes::{RotorRouter, SendFloor, SendRound};
use dlb::core::{
    Balancer, Engine, EngineError, FlowPlan, KernelBalancer, LoadVector, TopologySchedule,
    VectorConfig, VectorStrategy, VectorWidth, Workload,
};
use dlb::graph::{generators, BalancingGraph, PortOrder, RegularGraph};
use dlb::scenario::WorkloadSpec;
use dlb::topology::ScheduleSpec;
use proptest::prelude::*;

/// The structured generator families the paths are fuzzed on.
fn graph_for(idx: usize) -> (&'static str, RegularGraph) {
    match idx {
        0 => ("cycle", generators::cycle(24).unwrap()),
        1 => ("torus", generators::torus(2, 5).unwrap()),
        2 => ("hypercube", generators::hypercube(5).unwrap()),
        3 => (
            "clique-circulant",
            generators::clique_circulant(24, 4).unwrap(),
        ),
        _ => (
            "random-regular",
            generators::random_regular(30, 3, 7).unwrap(),
        ),
    }
}

/// The workload mix: `None` is the closed system; the unclamped drain
/// is the error-provoking configuration.
fn workload_for(idx: usize) -> Option<WorkloadSpec> {
    match idx {
        0 => None,
        1 => Some(WorkloadSpec::Steady { rate: 9, seed: 5 }),
        2 => Some(WorkloadSpec::Bursty {
            on: 3,
            off: 4,
            rate: 12,
            seed: 6,
        }),
        3 => Some(WorkloadSpec::Hotspot { rate: 7 }),
        4 => Some(WorkloadSpec::Drain { rate: 3 }),
        5 => Some(WorkloadSpec::DrainUnclamped { rate: 3 }),
        6 => Some(WorkloadSpec::Adversary { budget: 6 }),
        _ => Some(WorkloadSpec::ArriveAndDrain { rate: 8, seed: 7 }),
    }
}

/// The churn mix: `None` is the fixed-graph system; every dynamic
/// schedule composes with every workload above.
fn schedule_for(idx: usize) -> Option<ScheduleSpec> {
    match idx {
        0 => None,
        1 => Some(ScheduleSpec::Periodic {
            period: 3,
            swaps: 2,
            seed: 8,
        }),
        2 => Some(ScheduleSpec::Failure {
            fail_pct: 40,
            recover_pct: 25,
            max_down: 5,
            seed: 9,
        }),
        3 => Some(ScheduleSpec::Burst {
            fail_at: 3,
            wake_at: 9,
            count: 3,
            seed: 10,
        }),
        4 => Some(ScheduleSpec::CutTargeting { period: 4 }),
        _ => Some(ScheduleSpec::Churn {
            period: 4,
            swaps: 1,
            fail_pct: 25,
            max_down: 4,
            seed: 11,
        }),
    }
}

/// A deliberately fragile scheme: every non-empty node sends exactly 3
/// tokens over port 0 while claiming it never overdraws — so once an
/// injection round erodes a node below 3, the engine must reject the
/// round. Implemented identically on the planned and kernel entry
/// points, it turns the fuzzer's drain workloads into a source of
/// mid-run `Overdraw` divergence points.
#[derive(Clone, Copy)]
struct Const3;

impl Balancer for Const3 {
    fn name(&self) -> &'static str {
        "const-3"
    }
    fn is_stateless(&self) -> bool {
        true
    }
    fn plan(&mut self, gp: &BalancingGraph, loads: &LoadVector, plan: &mut FlowPlan) {
        for u in 0..gp.num_nodes() {
            if loads.get(u) != 0 {
                plan.set(u, 0, 3);
            }
        }
    }
}

impl KernelBalancer for Const3 {
    fn kernel_node(&mut self, _gp: &BalancingGraph, _u: usize, _load: i64, flows: &mut [u64]) {
        flows.fill(0);
        flows[0] = 3;
    }
}

/// Which schemes exist on which paths.
#[derive(Clone, Copy, PartialEq)]
enum SchemeId {
    SendFloor,
    SendRound,
    Rotor,
    Const3,
}

impl SchemeId {
    fn from_index(idx: usize) -> Self {
        match idx {
            0 => SchemeId::SendFloor,
            1 => SchemeId::SendRound,
            2 => SchemeId::Rotor,
            _ => SchemeId::Const3,
        }
    }

    fn build(self, gp: &BalancingGraph) -> Box<dyn Balancer> {
        match self {
            SchemeId::SendFloor => Box::new(SendFloor::new()),
            SchemeId::SendRound => Box::new(SendRound::new()),
            SchemeId::Rotor => Box::new(RotorRouter::new(gp, PortOrder::Sequential).unwrap()),
            SchemeId::Const3 => Box::new(Const3),
        }
    }
}

/// Everything observable about a finished (or error-terminated) run.
#[derive(Debug, PartialEq)]
struct Outcome {
    loads: Vec<i64>,
    steps: usize,
    negative_node_steps: u64,
    injected_total: i64,
    topology_events: u64,
    graph: BalancingGraph,
    /// Rotor positions, for the stateful scheme on the serial paths
    /// (`None` where the driver could not observe them).
    rotors: Option<Vec<usize>>,
    error: Option<EngineError>,
}

impl Outcome {
    fn capture(engine: &Engine, rotors: Option<Vec<usize>>, error: Option<EngineError>) -> Self {
        Outcome {
            loads: engine.loads().as_slice().to_vec(),
            steps: engine.step_count(),
            negative_node_steps: engine.negative_node_steps(),
            injected_total: engine.injected_total(),
            topology_events: engine.topology_events_applied(),
            graph: engine.graph().clone(),
            rotors,
            error,
        }
    }

    /// Equality up to unobservable rotor state: drivers that cannot
    /// extract rotors (the boxed planned paths for non-rotor schemes
    /// always can — they report `None` consistently) compare them only
    /// when both sides captured them.
    fn assert_matches(&self, reference: &Self, label: &str) {
        assert_eq!(self.loads, reference.loads, "{label}: loads");
        assert_eq!(self.steps, reference.steps, "{label}: steps");
        assert_eq!(
            self.negative_node_steps, reference.negative_node_steps,
            "{label}: negative accounting"
        );
        assert_eq!(
            self.injected_total, reference.injected_total,
            "{label}: injected"
        );
        assert_eq!(
            self.topology_events, reference.topology_events,
            "{label}: events"
        );
        assert_eq!(self.graph, reference.graph, "{label}: graph");
        assert_eq!(self.error, reference.error, "{label}: error");
        if let (Some(a), Some(b)) = (&self.rotors, &reference.rotors) {
            assert_eq!(a, b, "{label}: rotor state");
        }
    }
}

fn build_workload(spec: &Option<WorkloadSpec>, n: usize) -> Option<Box<dyn Workload>> {
    spec.as_ref().map(|s| s.build(n))
}

fn build_schedule(spec: &Option<ScheduleSpec>) -> Option<Box<dyn TopologySchedule>> {
    spec.as_ref().and_then(ScheduleSpec::build)
}

/// Builds the concrete rotor when the scheme is the rotor-router, so
/// its state stays observable after the run.
fn build_rotor(scheme: SchemeId, gp: &BalancingGraph) -> Option<RotorRouter> {
    (scheme == SchemeId::Rotor).then(|| RotorRouter::new(gp, PortOrder::Sequential).unwrap())
}

/// The scheme as a planned-path balancer: the concrete rotor when
/// there is one (its state stays observable), else the boxed scheme.
fn planned<'a>(
    rotor: &'a mut Option<RotorRouter>,
    boxed: &'a mut Option<Box<dyn Balancer>>,
) -> &'a mut dyn Balancer {
    match (rotor, boxed) {
        (Some(r), _) => r,
        (None, Some(b)) => b.as_mut(),
        _ => unreachable!(),
    }
}

/// Drives `rounds` planned rounds as `run_dyn` calls of `chunk` rounds
/// each (the last may be shorter), stopping at the first error.
fn run_chunked(
    engine: &mut Engine,
    bal: &mut dyn Balancer,
    rounds: usize,
    chunk: usize,
    schedule: &mut Option<Box<dyn TopologySchedule>>,
    workload: &mut Option<Box<dyn Workload>>,
) -> Option<EngineError> {
    let mut done = 0;
    while done < rounds {
        let k = chunk.min(rounds - done);
        if let Err(e) = engine.run_dyn(bal, k, schedule.as_deref_mut(), workload.as_deref_mut()) {
            return Some(e);
        }
        done += k;
    }
    None
}

/// The planned paths: `chunk = 1` is the round-by-round reference
/// loop, `chunk = steps` one batched `run_dyn` call.
fn drive_planned(
    gp: &BalancingGraph,
    scheme: SchemeId,
    sspec: &Option<ScheduleSpec>,
    wspec: &Option<WorkloadSpec>,
    initial: &LoadVector,
    steps: usize,
    chunk: usize,
) -> Outcome {
    let mut rotor = build_rotor(scheme, gp);
    let mut boxed = rotor.is_none().then(|| scheme.build(gp));
    let mut schedule = build_schedule(sspec);
    let mut workload = build_workload(wspec, gp.num_nodes());
    let mut engine = Engine::new(gp.clone(), initial.clone());
    let bal = planned(&mut rotor, &mut boxed);
    let error = run_chunked(&mut engine, bal, steps, chunk, &mut schedule, &mut workload);
    Outcome::capture(&engine, rotor.map(|r| r.rotors().to_vec()), error)
}

fn drive_run_kernel(
    gp: &BalancingGraph,
    scheme: SchemeId,
    sspec: &Option<ScheduleSpec>,
    wspec: &Option<WorkloadSpec>,
    initial: &LoadVector,
    steps: usize,
) -> Outcome {
    let mut schedule = build_schedule(sspec);
    let mut workload = build_workload(wspec, gp.num_nodes());
    let mut engine = Engine::new(gp.clone(), initial.clone());
    let s = schedule.as_deref_mut();
    let w = workload.as_deref_mut();
    let (rotors, error) = match scheme {
        SchemeId::SendFloor => (
            None,
            engine
                .run_kernel_dyn(&mut SendFloor::new(), steps, s, w)
                .err(),
        ),
        SchemeId::SendRound => (
            None,
            engine
                .run_kernel_dyn(&mut SendRound::new(), steps, s, w)
                .err(),
        ),
        SchemeId::Rotor => {
            let mut rotor = RotorRouter::new(gp, PortOrder::Sequential).unwrap();
            let err = engine.run_kernel_dyn(&mut rotor, steps, s, w).err();
            (Some(rotor.rotors().to_vec()), err)
        }
        SchemeId::Const3 => (None, engine.run_kernel_dyn(&mut Const3, steps, s, w).err()),
    };
    Outcome::capture(&engine, rotors, error)
}

/// `run_kernel` under a forced vector configuration — only meaningful
/// for the uniform SEND schemes on static, closed runs (elsewhere the
/// vector layer never dispatches and this reduces to
/// [`drive_run_kernel`]). Negative seeds in the fuzzed load patterns
/// exercise the vector dispatch's `NegativeLoad` entry check against
/// the reference error, node and step.
fn drive_run_kernel_forced(
    gp: &BalancingGraph,
    scheme: SchemeId,
    initial: &LoadVector,
    steps: usize,
    config: VectorConfig,
) -> Option<Outcome> {
    let mut engine = Engine::new(gp.clone(), initial.clone());
    engine.set_vector_config(config);
    let error = match scheme {
        SchemeId::SendFloor => engine.run_kernel(&mut SendFloor::new(), steps).err(),
        SchemeId::SendRound => engine.run_kernel(&mut SendRound::new(), steps).err(),
        _ => return None,
    };
    Some(Outcome::capture(&engine, None, error))
}

/// The forced inner-loop matrix the vector layer is differentially
/// pinned on: both gather strategies at both load widths.
fn forced_vector_configs() -> Vec<(&'static str, VectorConfig)> {
    let mut out = Vec::new();
    for (sname, strategy) in [
        ("banded", VectorStrategy::Banded),
        ("blocked", VectorStrategy::BlockedCsr),
    ] {
        for (wname, width) in [
            ("i64", VectorWidth::I64),
            ("i32", VectorWidth::I32 { limit: 1 << 24 }),
        ] {
            out.push((
                match (sname, wname) {
                    ("banded", "i64") => "banded/i64",
                    ("banded", "i32") => "banded/i32",
                    ("blocked", "i64") => "blocked/i64",
                    _ => "blocked/i32",
                },
                VectorConfig {
                    enabled: true,
                    strategy,
                    width,
                },
            ));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The differential property: for any (graph, scheme, loads,
    /// schedule, workload, horizon), every execution path produces the
    /// same outcome — loads, graph, rotor state, counters and, on
    /// divergence points, the exact error.
    #[test]
    fn all_paths_agree_on_randomized_combos(
        graph_idx in 0usize..5,
        scheme_idx in 0usize..4,
        schedule_idx in 0usize..6,
        workload_idx in 0usize..8,
        // The range dips negative so negative-seed rounds — where the
        // pre-plan check's ordering against `Overdraw` and `Topology`
        // is decided — are part of the fuzzed space, not a blind spot.
        pattern in proptest::collection::vec(-20i64..120, 4..12),
        steps in 1usize..30,
    ) {
        let (gname, graph) = graph_for(graph_idx);
        let n = graph.num_nodes();
        let gp = BalancingGraph::lazy(graph);
        let scheme = SchemeId::from_index(scheme_idx);
        let sspec = schedule_for(schedule_idx);
        let wspec = workload_for(workload_idx);
        let mut loads = vec![0i64; n];
        for (slot, &value) in loads.iter_mut().zip(pattern.iter().cycle()) {
            *slot = value;
        }
        let initial = LoadVector::new(loads);
        let sname = sspec.as_ref().map_or_else(|| "static".into(), ScheduleSpec::label);
        let wname = wspec.as_ref().map_or_else(|| "none".into(), WorkloadSpec::label);
        let tag = format!("{gname}/{sname}/{wname}");

        let reference = drive_planned(&gp, scheme, &sspec, &wspec, &initial, steps, 1);
        let run = drive_planned(&gp, scheme, &sspec, &wspec, &initial, steps, steps);
        run.assert_matches(&reference, &format!("run on {tag}"));
        let kernel = drive_run_kernel(&gp, scheme, &sspec, &wspec, &initial, steps);
        kernel.assert_matches(&reference, &format!("run_kernel on {tag}"));
        if sspec.is_none() && wspec.is_none() {
            // Static, closed runs are where the vector layer dispatches:
            // pin every forced inner loop against the same reference —
            // including the NegativeLoad divergence points the negative
            // seeds in the pattern produce.
            for (vlabel, config) in forced_vector_configs() {
                if let Some(vec_outcome) =
                    drive_run_kernel_forced(&gp, scheme, &initial, steps, config)
                {
                    vec_outcome
                        .assert_matches(&reference, &format!("run_kernel[{vlabel}] on {tag}"));
                }
            }
        }
    }
}

/// A deterministic anchor for the fuzzed property: the unclamped drain
/// must actually produce mid-run `NegativeLoad` divergence points (not
/// silently never fire) **while the topology churns**, and all paths
/// must agree on them — the failed round's topology events rolled back
/// included.
#[test]
fn unclamped_drain_under_churn_produces_identical_negative_divergence() {
    let gp = BalancingGraph::lazy(generators::cycle(16).unwrap());
    let sspec = Some(ScheduleSpec::Periodic {
        period: 2,
        swaps: 1,
        seed: 12,
    });
    let wspec = Some(WorkloadSpec::DrainUnclamped { rate: 5 });
    let initial = LoadVector::uniform(16, 12);
    let steps = 40;
    let reference = drive_planned(&gp, SchemeId::SendFloor, &sspec, &wspec, &initial, steps, 1);
    let err = reference
        .error
        .as_ref()
        .expect("a 5/round unclamped drain must out-pace refill");
    assert!(
        matches!(err, EngineError::NegativeLoad { .. }),
        "unexpected error {err:?}"
    );
    assert!(reference.steps < steps, "error must occur mid-run");
    assert!(
        reference.topology_events > 0,
        "churn must have landed before the divergence point"
    );
    for (label, outcome) in [
        (
            "run",
            drive_planned(
                &gp,
                SchemeId::SendFloor,
                &sspec,
                &wspec,
                &initial,
                steps,
                steps,
            ),
        ),
        (
            "run_kernel",
            drive_run_kernel(&gp, SchemeId::SendFloor, &sspec, &wspec, &initial, steps),
        ),
    ] {
        outcome.assert_matches(&reference, label);
    }
}

/// Likewise for `Overdraw`: injection erodes a node below `Const3`'s
/// fixed send rate while edges rewire, and every path must reject the
/// same round, rolling back that round's swap.
#[test]
fn injection_eroded_overdraw_under_churn_is_identical_on_every_path() {
    let gp = BalancingGraph::lazy(generators::cycle(8).unwrap());
    // Clamped drain cannot go negative, but it starves the sinks until
    // Const3's fixed plan of 3 exceeds what a sink holds: a pure
    // injection-triggered overdraw — under continuous rewiring.
    let sspec = Some(ScheduleSpec::Periodic {
        period: 1,
        swaps: 1,
        seed: 13,
    });
    let wspec = Some(WorkloadSpec::Drain { rate: 2 });
    let initial = LoadVector::uniform(8, 9);
    let steps = 30;
    let reference = drive_planned(&gp, SchemeId::Const3, &sspec, &wspec, &initial, steps, 1);
    let err = reference.error.as_ref().expect("drain must starve a node");
    assert!(
        matches!(err, EngineError::Overdraw { planned: 3, .. }),
        "unexpected error {err:?}"
    );
    for (label, outcome) in [
        (
            "run",
            drive_planned(
                &gp,
                SchemeId::Const3,
                &sspec,
                &wspec,
                &initial,
                steps,
                steps,
            ),
        ),
        (
            "run_kernel",
            drive_run_kernel(&gp, SchemeId::Const3, &sspec, &wspec, &initial, steps),
        ),
    ] {
        outcome.assert_matches(&reference, label);
    }
}

/// The rotor-router's rotor state must agree between the planned and
/// kernel paths under full churn — sleeps must freeze exactly the
/// asleep rotors (drained nodes never plan), swaps must not perturb
/// any rotor, and a woken node's rotor must resume from where it
/// stopped.
#[test]
fn rotor_state_is_identical_under_full_churn() {
    let gp = BalancingGraph::lazy(generators::torus(2, 5).unwrap());
    let sspec = Some(ScheduleSpec::Churn {
        period: 3,
        swaps: 1,
        fail_pct: 30,
        max_down: 5,
        seed: 14,
    });
    let wspec = Some(WorkloadSpec::Hotspot { rate: 9 });
    let initial = LoadVector::point_mass(25, 500);
    let reference = drive_planned(&gp, SchemeId::Rotor, &sspec, &wspec, &initial, 40, 1);
    assert!(reference.error.is_none());
    assert!(reference.topology_events > 0, "churn must land");
    assert!(reference.rotors.is_some());
    let kernel = drive_run_kernel(&gp, SchemeId::Rotor, &sspec, &wspec, &initial, 40);
    kernel.assert_matches(&reference, "run_kernel rotor state");
    let run = drive_planned(&gp, SchemeId::Rotor, &sspec, &wspec, &initial, 40, 40);
    run.assert_matches(&reference, "run rotor state");
}

/// An `Overdraw` arising in a **churning round without injection
/// phases** (erroring scheme × swap-only schedule × no workload) must
/// be rejected identically on every path, the failed round's swaps
/// rolled back.
#[test]
fn overdraw_in_a_churning_round_without_injection_agrees_on_every_path() {
    let gp = BalancingGraph::lazy(generators::cycle(24).unwrap());
    let sspec = Some(ScheduleSpec::Periodic {
        period: 3,
        swaps: 2,
        seed: 8,
    });
    let wspec = None;
    // Uniform 7 under Const3 is stable on the pristine cycle (3 out,
    // 3 in per round); the swaps break the in/out pairing and some
    // node drifts below 3 — a churn-caused Overdraw in a round with
    // no injection phases at all.
    let initial = LoadVector::uniform(24, 7);
    let steps = 30;
    let reference = drive_planned(&gp, SchemeId::Const3, &sspec, &wspec, &initial, steps, 1);
    let err = reference.error.as_ref().expect("churn must break Const3");
    assert!(
        matches!(err, EngineError::Overdraw { planned: 3, .. }),
        "unexpected error {err:?}"
    );
    for (label, outcome) in [
        (
            "run",
            drive_planned(
                &gp,
                SchemeId::Const3,
                &sspec,
                &wspec,
                &initial,
                steps,
                steps,
            ),
        ),
        (
            "run_kernel",
            drive_run_kernel(&gp, SchemeId::Const3, &sspec, &wspec, &initial, steps),
        ),
    ] {
        outcome.assert_matches(&reference, label);
    }
}

/// Regression (PR 5 review): in a churning round with no injection
/// phases, the pre-plan negative check must still run before any
/// planning — otherwise a lower-id `Overdraw` (Const3 at a node
/// below 3) found mid-plan could shadow a higher-id negative seed and
/// diverge from the serial error ordering.
#[test]
fn negative_seed_is_not_shadowed_by_overdraw_in_churning_rounds() {
    let gp = BalancingGraph::lazy(generators::cycle(16).unwrap());
    let sspec = Some(ScheduleSpec::Periodic {
        period: 2,
        swaps: 1,
        seed: 15,
    });
    let wspec = None;
    // Node 2 overdraws under Const3 (load 2 < 3) and node 11 is a
    // negative seed: the serial pre-plan check reports node 11 before
    // planning ever reaches node 2.
    let mut loads = vec![7i64; 16];
    loads[2] = 2;
    loads[11] = -4;
    let initial = LoadVector::new(loads);
    let reference = drive_planned(&gp, SchemeId::Const3, &sspec, &wspec, &initial, 10, 1);
    assert_eq!(
        reference.error,
        Some(EngineError::NegativeLoad {
            node: 11,
            load: -4,
            step: 1
        })
    );
    drive_run_kernel(&gp, SchemeId::Const3, &sspec, &wspec, &initial, 10)
        .assert_matches(&reference, "run_kernel");
}

/// The resume target for the snapshot axis: which path finishes the
/// run after the mid-run state export.
#[derive(Clone, Copy)]
enum ResumePath {
    StepLoop,
    Run,
    Kernel,
    ForcedVector(VectorConfig),
}

/// A point on the snapshot axis: the round boundary to split at and
/// the path that finishes the run after the resume.
#[derive(Clone, Copy)]
struct SplitPoint {
    split: usize,
    path: ResumePath,
}

/// The snapshot axis: run the one-round loop to a chosen round
/// boundary, export the complete engine state plus rotor positions and
/// generator cursors, rebuild **everything** from the export alone,
/// and finish the run on the given path. Returns `None` where the path
/// does not apply to the combination (forced vector configs outside
/// static, closed SEND runs).
fn drive_split_resume(
    gp: &BalancingGraph,
    scheme: SchemeId,
    sspec: &Option<ScheduleSpec>,
    wspec: &Option<WorkloadSpec>,
    initial: &LoadVector,
    steps: usize,
    at: SplitPoint,
) -> Option<Outcome> {
    let SplitPoint { split, path } = at;
    if matches!(path, ResumePath::ForcedVector(_))
        && !(sspec.is_none()
            && wspec.is_none()
            && matches!(scheme, SchemeId::SendFloor | SchemeId::SendRound))
    {
        return None;
    }

    // Phase 1: the one-round loop up to the split boundary.
    let mut rotor = build_rotor(scheme, gp);
    let mut boxed = rotor.is_none().then(|| scheme.build(gp));
    let mut schedule = build_schedule(sspec);
    let mut workload = build_workload(wspec, gp.num_nodes());
    let mut engine = Engine::new(gp.clone(), initial.clone());
    let bal = planned(&mut rotor, &mut boxed);
    if let Some(e) = run_chunked(&mut engine, bal, split, 1, &mut schedule, &mut workload) {
        // Errored before the boundary: nothing left to resume; the
        // terminal state itself must match the reference.
        return Some(Outcome::capture(
            &engine,
            rotor.map(|r| r.rotors().to_vec()),
            Some(e),
        ));
    }

    // The export: everything a resumed instance is allowed to see.
    let state = engine.export_state();
    let rotor_state = rotor.as_ref().map(|r| r.rotors().to_vec());
    let schedule_cursor = schedule.as_ref().map(|s| s.cursor());
    let workload_cursor = workload.as_ref().map(|w| w.cursor());
    drop((engine, rotor, boxed, schedule, workload));

    // Phase 2: rebuild from the export and finish on `path`.
    let mut engine = Engine::from_state(state);
    let mut rotor = rotor_state.map(|r| {
        RotorRouter::with_initial_rotors(gp, PortOrder::Sequential, r)
            .expect("exported rotor state is valid")
    });
    let mut boxed = rotor.is_none().then(|| scheme.build(gp));
    let mut schedule = build_schedule(sspec);
    if let (Some(s), Some(c)) = (&mut schedule, &schedule_cursor) {
        assert!(s.restore_cursor(c), "schedule cursor must restore");
    }
    let mut workload = build_workload(wspec, gp.num_nodes());
    if let (Some(w), Some(c)) = (&mut workload, &workload_cursor) {
        assert!(w.restore_cursor(c), "workload cursor must restore");
    }
    let remaining = steps - split;
    let error = match path {
        ResumePath::StepLoop | ResumePath::Run => {
            let chunk = if matches!(path, ResumePath::StepLoop) {
                1
            } else {
                remaining
            };
            let bal = planned(&mut rotor, &mut boxed);
            run_chunked(
                &mut engine,
                bal,
                remaining,
                chunk,
                &mut schedule,
                &mut workload,
            )
        }
        ResumePath::Kernel => {
            let s = schedule.as_deref_mut();
            let w = workload.as_deref_mut();
            match scheme {
                SchemeId::SendFloor => engine
                    .run_kernel_dyn(&mut SendFloor::new(), remaining, s, w)
                    .err(),
                SchemeId::SendRound => engine
                    .run_kernel_dyn(&mut SendRound::new(), remaining, s, w)
                    .err(),
                SchemeId::Const3 => engine.run_kernel_dyn(&mut Const3, remaining, s, w).err(),
                SchemeId::Rotor => {
                    let r = rotor.as_mut().expect("rotor scheme restored a rotor");
                    engine.run_kernel_dyn(r, remaining, s, w).err()
                }
            }
        }
        ResumePath::ForcedVector(config) => {
            engine.set_vector_config(config);
            match scheme {
                SchemeId::SendFloor => engine.run_kernel(&mut SendFloor::new(), remaining).err(),
                SchemeId::SendRound => engine.run_kernel(&mut SendRound::new(), remaining).err(),
                _ => unreachable!("gated above"),
            }
        }
    };
    Some(Outcome::capture(
        &engine,
        rotor.map(|r| r.rotors().to_vec()),
        error,
    ))
}

/// The resume matrix pinned by the snapshot axis.
fn resume_paths() -> Vec<(&'static str, ResumePath)> {
    vec![
        ("step-loop", ResumePath::StepLoop),
        ("run", ResumePath::Run),
        ("run_kernel", ResumePath::Kernel),
        (
            "run_kernel[banded/i64]",
            ResumePath::ForcedVector(VectorConfig {
                enabled: true,
                strategy: VectorStrategy::Banded,
                width: VectorWidth::I64,
            }),
        ),
        (
            "run_kernel[blocked/i32]",
            ResumePath::ForcedVector(VectorConfig {
                enabled: true,
                strategy: VectorStrategy::BlockedCsr,
                width: VectorWidth::I32 { limit: 1 << 24 },
            }),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The snapshot axis: exporting the full engine + generator state
    /// at a fuzzer-chosen round boundary and resuming on any path must
    /// be indistinguishable from the uninterrupted reference — across
    /// churn, injection, and runs that error before or after the
    /// boundary.
    #[test]
    fn snapshot_resume_agrees_on_every_path(
        graph_idx in 0usize..5,
        scheme_idx in 0usize..4,
        schedule_idx in 0usize..6,
        workload_idx in 0usize..8,
        pattern in proptest::collection::vec(-20i64..120, 4..12),
        steps in 1usize..30,
        split_seed in 0usize..64,
    ) {
        let (gname, graph) = graph_for(graph_idx);
        let n = graph.num_nodes();
        let gp = BalancingGraph::lazy(graph);
        let scheme = SchemeId::from_index(scheme_idx);
        let sspec = schedule_for(schedule_idx);
        let wspec = workload_for(workload_idx);
        let mut loads = vec![0i64; n];
        for (slot, &value) in loads.iter_mut().zip(pattern.iter().cycle()) {
            *slot = value;
        }
        let initial = LoadVector::new(loads);
        let split = split_seed % (steps + 1);
        let sname = sspec.as_ref().map_or_else(|| "static".into(), ScheduleSpec::label);
        let wname = wspec.as_ref().map_or_else(|| "none".into(), WorkloadSpec::label);
        let tag = format!("{gname}/{sname}/{wname}");

        let reference = drive_planned(&gp, scheme, &sspec, &wspec, &initial, steps, 1);
        for (label, path) in resume_paths() {
            if let Some(outcome) = drive_split_resume(
                &gp,
                scheme,
                &sspec,
                &wspec,
                &initial,
                steps,
                SplitPoint { split, path },
            ) {
                outcome.assert_matches(
                    &reference,
                    &format!("resume@{split} via {label} on {tag}"),
                );
            }
        }
    }
}

/// A deterministic anchor for the snapshot axis: resuming *before* a
/// known divergence point must still hit the identical error — the
/// restored generator cursors must continue the exact delta/event
/// streams, not restart them (a restarted drain would push the error
/// round later; a restarted schedule would change which swaps landed).
#[test]
fn resume_across_a_divergence_point_reproduces_the_error() {
    let gp = BalancingGraph::lazy(generators::cycle(16).unwrap());
    let sspec = Some(ScheduleSpec::Periodic {
        period: 2,
        swaps: 1,
        seed: 12,
    });
    let wspec = Some(WorkloadSpec::DrainUnclamped { rate: 5 });
    let initial = LoadVector::uniform(16, 12);
    let steps = 40;
    let reference = drive_planned(&gp, SchemeId::SendFloor, &sspec, &wspec, &initial, steps, 1);
    let error_step = match reference.error {
        Some(EngineError::NegativeLoad { step, .. }) => step,
        ref other => panic!("expected a NegativeLoad divergence point, got {other:?}"),
    };
    assert!(error_step > 2, "need room to split before the error");
    for split in [1, error_step - 1, error_step] {
        for (label, path) in resume_paths() {
            if let Some(outcome) = drive_split_resume(
                &gp,
                SchemeId::SendFloor,
                &sspec,
                &wspec,
                &initial,
                steps,
                SplitPoint { split, path },
            ) {
                outcome.assert_matches(&reference, &format!("resume@{split} via {label}"));
            }
        }
    }
}

/// One step of the plan-cache interleaving below.
#[derive(Clone, Copy, Debug)]
enum CacheOp {
    /// A static, closed, vector-eligible `run_kernel` chunk.
    Static(usize),
    /// A `run_kernel_dyn` chunk under periodic rewiring (swaps).
    Rewire(usize),
    /// A `run_kernel_dyn` chunk under churn with crash/recovery
    /// (swaps plus sleep/wake).
    Churn(usize),
    /// One planned `run_dyn` round under rewiring.
    Step,
    /// A `set_vector_config` strategy flip.
    Flip(VectorStrategy),
    /// `export_state` → `from_state`.
    Resume,
}

fn cache_op(code: usize, len: usize) -> CacheOp {
    match code {
        0..=3 => CacheOp::Static(len),
        4 | 7 => CacheOp::Rewire(len),
        5 => CacheOp::Churn(len),
        6 => CacheOp::Step,
        8 => CacheOp::Flip(VectorStrategy::Banded),
        9 => CacheOp::Flip(VectorStrategy::BlockedCsr),
        10 => CacheOp::Flip(VectorStrategy::Auto),
        _ => CacheOp::Resume,
    }
}

/// An engine plus the schedule instances its churning calls share, so
/// two rigs fed the same ops see identical event streams.
struct CacheRig {
    engine: Engine,
    vector: bool,
    rewire: Box<dyn TopologySchedule>,
    churn: Box<dyn TopologySchedule>,
}

impl CacheRig {
    fn new(gp: &BalancingGraph, initial: &LoadVector, vector: bool, seed: u64) -> Self {
        let mut engine = Engine::new(gp.clone(), initial.clone());
        engine.set_vector_config(VectorConfig {
            enabled: vector,
            strategy: VectorStrategy::Banded,
            width: VectorWidth::Auto,
        });
        let rewire = ScheduleSpec::Periodic {
            period: 2,
            swaps: 2,
            seed,
        };
        let churn = ScheduleSpec::Churn {
            period: 3,
            swaps: 1,
            fail_pct: 30,
            max_down: 4,
            seed: seed + 1,
        };
        CacheRig {
            engine,
            vector,
            rewire: rewire.build().expect("dynamic schedule"),
            churn: churn.build().expect("dynamic schedule"),
        }
    }

    fn apply(&mut self, op: CacheOp) -> Option<EngineError> {
        let none = None::<&mut dyn Workload>;
        let bal = &mut SendFloor::new();
        match op {
            CacheOp::Static(k) => self.engine.run_kernel(bal, k).err(),
            CacheOp::Rewire(k) => self
                .engine
                .run_kernel_dyn(bal, k, Some(self.rewire.as_mut()), none)
                .err(),
            CacheOp::Churn(k) => self
                .engine
                .run_kernel_dyn(bal, k, Some(self.churn.as_mut()), none)
                .err(),
            CacheOp::Step => self
                .engine
                .run_dyn(bal, 1, Some(self.rewire.as_mut()), none)
                .err(),
            CacheOp::Flip(strategy) => {
                self.engine.set_vector_config(VectorConfig {
                    enabled: self.vector,
                    strategy,
                    width: VectorWidth::Auto,
                });
                None
            }
            CacheOp::Resume => {
                self.engine = Engine::from_state(self.engine.export_state());
                None
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The gather plan is cached on the engine and must be dropped by
    /// every graph mutation, strategy flip and restore. Interleaving
    /// vector-eligible static chunks with every mutating path on one
    /// engine must stay bit-identical to the same sequence with the
    /// vector layer disabled: a stale banded plan (forced at the start,
    /// and reachable again through the flips) would misroute tokens
    /// behind every rewired edge.
    #[test]
    fn cached_gather_plan_never_outlives_a_graph_change(
        graph_idx in 0usize..5,
        codes in proptest::collection::vec((0usize..12, 1usize..6), 6..24),
        pattern in proptest::collection::vec(0i64..120, 4..12),
        seed in 0u64..1000,
    ) {
        let (gname, graph) = graph_for(graph_idx);
        let n = graph.num_nodes();
        let gp = BalancingGraph::lazy(graph);
        let loads: Vec<i64> = pattern.iter().copied().cycle().take(n).collect();
        let initial = LoadVector::new(loads);
        let mut vector = CacheRig::new(&gp, &initial, true, seed);
        let mut scalar = CacheRig::new(&gp, &initial, false, seed);
        for (i, &(code, len)) in codes.iter().enumerate() {
            let op = cache_op(code, len);
            let label = format!("{gname}: op {i} ({op:?})");
            let error = vector.apply(op);
            prop_assert_eq!(&error, &scalar.apply(op), "{}: error", label);
            Outcome::capture(&vector.engine, None, error.clone())
                .assert_matches(&Outcome::capture(&scalar.engine, None, error), &label);
        }
        prop_assert_eq!(scalar.engine.vector_stats().runs, 0);
    }
}

/// The deterministic anchor: on a cycle (banded under every strategy
/// that allows it) the interleaving must actually dispatch vector
/// calls after each kind of mutation, or the property above would be
/// comparing two scalar runs.
#[test]
fn cached_gather_plan_anchor_dispatches_after_every_mutation() {
    let gp = BalancingGraph::lazy(generators::cycle(24).unwrap());
    let initial = LoadVector::new((0..24).map(|i| (i * 37) % 101).collect());
    let mut vector = CacheRig::new(&gp, &initial, true, 5);
    let mut scalar = CacheRig::new(&gp, &initial, false, 5);
    let mut expected_runs = 0;
    for op in [
        CacheOp::Static(3),
        CacheOp::Rewire(4),
        CacheOp::Static(3),
        CacheOp::Churn(6),
        CacheOp::Static(3),
        CacheOp::Step,
        CacheOp::Static(3),
        CacheOp::Flip(VectorStrategy::BlockedCsr),
        CacheOp::Static(3),
        CacheOp::Flip(VectorStrategy::Auto),
        CacheOp::Static(3),
        CacheOp::Resume,
        CacheOp::Static(3),
    ] {
        if matches!(op, CacheOp::Static(_)) {
            expected_runs += 1;
        }
        let apply = |vector: &mut CacheRig, scalar: &mut CacheRig, op: CacheOp| {
            let error = vector.apply(op);
            assert_eq!(error, scalar.apply(op), "{op:?}: error");
            assert_eq!(error, None, "{op:?} errored");
            Outcome::capture(&vector.engine, None, None).assert_matches(
                &Outcome::capture(&scalar.engine, None, None),
                &format!("{op:?}"),
            );
        };
        apply(&mut vector, &mut scalar, op);
        if matches!(op, CacheOp::Churn(_)) {
            // Asleep nodes keep runs off the vector path: churn on
            // until every crashed node has recovered.
            let mut rounds = 0;
            while vector.engine.graph().graph().asleep_count() > 0 {
                apply(&mut vector, &mut scalar, CacheOp::Churn(1));
                rounds += 1;
                assert!(rounds < 500, "crashed nodes never recovered");
            }
        }
    }
    assert!(vector.engine.topology_events_applied() > 0);
    assert_eq!(vector.engine.vector_stats().runs, expected_runs);
}
