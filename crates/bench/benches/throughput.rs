//! A3 — engine throughput: the systems cost of each scheme.
//!
//! Measures steps/second of the bare engine (no monitor) and the
//! instrumented engine (monitor attached) per scheme on a 4096-node
//! expander, plus the spectral substrate's operator application, plus
//! the fused execution paths (instrumented step loop vs `run` vs
//! `run_fast` vs the plan-free `run_kernel`) on the
//! PR's reference workload, a 65536-node cycle under SEND(⌊x/d⁺⌋).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dlb_core::schemes::SendFloor;
use dlb_core::{Engine, LoadVector, VectorConfig, VectorWidth};
use dlb_graph::{generators, BalancingGraph};
use dlb_harness::SchemeSpec;
use dlb_spectral::TransitionOperator;
use std::hint::black_box;

const N: usize = 4096;
const STEPS: usize = 20;

fn bench_schemes(c: &mut Criterion) {
    let graph = generators::random_regular(N, 4, 42).expect("graph builds");
    let gp = BalancingGraph::lazy(graph);
    let initial = LoadVector::point_mass(N, 50 * N as i64);

    let mut group = c.benchmark_group("throughput_schemes");
    group.throughput(Throughput::Elements((N * STEPS) as u64));
    group.sample_size(20);
    for scheme in [
        SchemeSpec::SendFloor,
        SchemeSpec::SendRound,
        SchemeSpec::RotorRouter,
        SchemeSpec::RotorRouterStar,
        SchemeSpec::Good { s: 2 },
        SchemeSpec::Quasirandom,
        SchemeSpec::ContinuousMimic,
        SchemeSpec::RandomizedExtra { seed: 7 },
    ] {
        group.bench_function(BenchmarkId::new("node_steps", scheme.label()), |b| {
            b.iter(|| {
                let mut bal = scheme.build(&gp).expect("scheme builds");
                let mut engine = Engine::new(gp.clone(), initial.clone());
                engine.run(bal.as_mut(), STEPS).expect("steps run");
                black_box(engine.loads().discrepancy())
            });
        });
    }
    group.finish();
}

fn bench_monitor_overhead(c: &mut Criterion) {
    let graph = generators::random_regular(N, 4, 42).expect("graph builds");
    let gp = BalancingGraph::lazy(graph);
    let initial = LoadVector::point_mass(N, 50 * N as i64);
    let scheme = SchemeSpec::RotorRouter;

    let mut group = c.benchmark_group("throughput_monitor");
    group.throughput(Throughput::Elements((N * STEPS) as u64));
    group.sample_size(20);
    group.bench_function("bare", |b| {
        b.iter(|| {
            let mut bal = scheme.build(&gp).expect("scheme builds");
            let mut engine = Engine::new(gp.clone(), initial.clone());
            engine.run(bal.as_mut(), STEPS).expect("steps run");
            black_box(engine.loads().discrepancy())
        });
    });
    group.bench_function("instrumented", |b| {
        b.iter(|| {
            let mut bal = scheme.build(&gp).expect("scheme builds");
            let mut engine = Engine::new(gp.clone(), initial.clone());
            engine.attach_monitor();
            engine.run(bal.as_mut(), STEPS).expect("steps run");
            black_box(engine.loads().discrepancy())
        });
    });
    group.finish();
}

fn bench_fused_paths(c: &mut Criterion) {
    const N_CYCLE: usize = 65_536;
    const CYCLE_STEPS: usize = 8;
    let graph = generators::cycle(N_CYCLE).expect("graph builds");
    let gp = BalancingGraph::lazy(graph);
    // Bimodal loads keep every node splitting tokens each round.
    let initial = {
        let mut loads = vec![0i64; N_CYCLE];
        for load in loads.iter_mut().take(N_CYCLE / 2) {
            *load = 128;
        }
        LoadVector::new(loads)
    };

    let mut group = c.benchmark_group("throughput_paths");
    group.throughput(Throughput::Elements((N_CYCLE * CYCLE_STEPS) as u64));
    group.sample_size(20);
    group.bench_function("step_loop_instrumented", |b| {
        b.iter(|| {
            let mut bal = SendFloor::new();
            let mut engine = Engine::new(gp.clone(), initial.clone());
            for _ in 0..CYCLE_STEPS {
                engine.step(&mut bal).expect("step runs");
            }
            black_box(engine.loads().total())
        });
    });
    group.bench_function("run", |b| {
        b.iter(|| {
            let mut bal = SendFloor::new();
            let mut engine = Engine::new(gp.clone(), initial.clone());
            engine.run(&mut bal, CYCLE_STEPS).expect("run runs");
            black_box(engine.loads().total())
        });
    });
    group.bench_function("run_fast", |b| {
        b.iter(|| {
            let mut bal = SendFloor::new();
            let mut engine = Engine::new(gp.clone(), initial.clone());
            engine.run_fast(&mut bal, CYCLE_STEPS).expect("run runs");
            black_box(engine.loads().total())
        });
    });
    // Vector-dispatch ablation: `run_kernel` is the production path
    // (auto strategy, auto width → banded i32 on this workload);
    // `scalar` pins the pre-vector inner loop as the baseline and
    // `vector_i64` isolates the gather restructuring from the i32 load
    // compression.
    group.bench_function("run_kernel", |b| {
        b.iter(|| {
            let mut bal = SendFloor::new();
            let mut engine = Engine::new(gp.clone(), initial.clone());
            engine.run_kernel(&mut bal, CYCLE_STEPS).expect("run runs");
            black_box(engine.loads().total())
        });
    });
    group.bench_function("run_kernel_scalar", |b| {
        b.iter(|| {
            let mut bal = SendFloor::new();
            let mut engine = Engine::new(gp.clone(), initial.clone());
            engine.set_vector_config(VectorConfig {
                enabled: false,
                ..VectorConfig::default()
            });
            engine.run_kernel(&mut bal, CYCLE_STEPS).expect("run runs");
            black_box(engine.loads().total())
        });
    });
    group.bench_function("run_kernel_vector_i64", |b| {
        b.iter(|| {
            let mut bal = SendFloor::new();
            let mut engine = Engine::new(gp.clone(), initial.clone());
            engine.set_vector_config(VectorConfig {
                width: VectorWidth::I64,
                ..VectorConfig::default()
            });
            engine.run_kernel(&mut bal, CYCLE_STEPS).expect("run runs");
            black_box(engine.loads().total())
        });
    });
    group.finish();
}

fn bench_spectral(c: &mut Criterion) {
    let graph = generators::random_regular(N, 4, 42).expect("graph builds");
    let gp = BalancingGraph::lazy(graph);
    let op = TransitionOperator::new(&gp);
    let x = vec![1.0f64; N];

    let mut group = c.benchmark_group("throughput_spectral");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("operator_apply", |b| {
        let mut out = vec![0.0f64; N];
        b.iter(|| {
            op.apply(&x, &mut out);
            black_box(out[0])
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_schemes,
    bench_monitor_overhead,
    bench_fused_paths,
    bench_spectral
);
criterion_main!(benches);
