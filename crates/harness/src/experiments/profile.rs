//! The `profile` experiment: phase-level latency decomposition of
//! every engine execution path, driven through the PR 10 observability
//! layer (`dlb-obs`).
//!
//! Four representative cells run with a recording [`RingSink`] (or the
//! serve layer's profiled scheduler) and report per-phase totals and
//! log-bucketed latency quantiles:
//!
//! * **serial** — the planned round loop (`run_dyn_traced`):
//!   `plan`/`validate`/`route` spans on a closed cycle;
//! * **churn** — the same planned path under periodic rewiring plus
//!   steady injection:
//!   `mutate`/`inject`/`plan`/`validate`/`route`;
//! * **kernel** — the plan-free delta-kernel path
//!   (`run_kernel_dyn_traced`) for a stateful scheme: fused `stream`
//!   spans, one per round;
//! * **serve** — a tenant fleet through [`Server::trace_slice`]
//!   (per-ticket `ticket`/`lock`/`step`/`merge` spans) and
//!   [`Server::run_slice_profiled`] (threaded [`SliceProfile`]
//!   aggregates plus the server's Prometheus-rendered registry).
//!
//! Every traced cell is twinned with its untraced entry point and the
//! final states compared, re-proving on real workloads that sinks
//! observe without perturbing. A paired best-of-N measurement on the
//! t1 flagship cell (cycle 65 536 × SEND(floor), vector dispatch)
//! pins the tracing overhead: `overhead_ok` fails the run if the
//! RingSink build exceeds 1.05× the NoopSink build.
//!
//! Writes `BENCH_PR10.json` (schema `dlb-profile/v8`; override with
//! `DLB_PROFILE_JSON`) and a chrome://tracing sample of the serial +
//! serve timelines (`trace_PR10.json`; override with
//! `DLB_TRACE_JSON`).

use std::time::Instant;

use dlb_core::schemes::{RotorRouter, SendFloor};
use dlb_core::{Engine, LoadVector, NoWorkload, StaticTopology};
use dlb_graph::{generators, BalancingGraph, PortOrder};
use dlb_obs::{chrome_trace, Event, EventKind, Histogram, Phase, RingSink};
use dlb_scenario::WorkloadSpec;
use dlb_serve::{SchemeKind, Server, Tenant};
use dlb_topology::ScheduleSpec;

use crate::report::Table;
use crate::runner::RunError;

/// One (cell, phase) row of the decomposition.
struct PhaseRow {
    cell: &'static str,
    phase: &'static str,
    count: u64,
    total_ns: u64,
    p50_ns: u64,
    p99_ns: u64,
}

/// One cell's summary: its rows plus the traced-vs-untraced verdict.
struct Cell {
    name: &'static str,
    n: usize,
    steps: usize,
    bit_identical: bool,
    rows: Vec<PhaseRow>,
}

/// Reduces a recording sink to per-phase rows: exact totals from the
/// sink's accumulators, quantiles from a log-bucketed histogram over
/// the retained span durations.
fn phase_rows(cell: &'static str, sink: &RingSink) -> Vec<PhaseRow> {
    let events = sink.events();
    let mut rows = Vec::new();
    for phase in Phase::all() {
        let count = sink.phase_count(phase);
        if count == 0 {
            continue;
        }
        let mut hist = Histogram::new();
        for ev in &events {
            if ev.phase == phase && ev.kind == EventKind::Span {
                hist.record(ev.dur_ns);
            }
        }
        rows.push(PhaseRow {
            cell,
            phase: phase.name(),
            count,
            total_ns: sink.phase_ns(phase),
            p50_ns: hist.quantile(0.5).unwrap_or(0),
            p99_ns: hist.quantile(0.99).unwrap_or(0),
        });
    }
    rows
}

/// The serial planned round loop on a closed cycle.
fn cell_serial(quick: bool, trace: &mut Vec<Event>) -> Result<Cell, RunError> {
    let n = if quick { 1024 } else { 8192 };
    let steps = if quick { 256 } else { 512 };
    let gp = BalancingGraph::lazy(generators::cycle(n)?);
    let initial = LoadVector::point_mass(n, 16 * n as i64);

    let mut sink = RingSink::with_capacity(steps * 8);
    let mut traced = Engine::new(gp.clone(), initial.clone());
    traced.run_dyn_traced(&mut SendFloor::new(), steps, None, None, &mut sink)?;

    let mut twin = Engine::new(gp, initial);
    twin.run_dyn(&mut SendFloor::new(), steps, None, None)?;

    trace.extend(sink.events().into_iter().take(64));
    Ok(Cell {
        name: "serial",
        n,
        steps,
        bit_identical: traced.loads() == twin.loads(),
        rows: phase_rows("serial", &sink),
    })
}

/// The planned path under periodic churn plus steady injection.
fn cell_churn(quick: bool) -> Result<Cell, RunError> {
    let n = if quick { 1024 } else { 8192 };
    let steps = if quick { 128 } else { 256 };
    let gp = BalancingGraph::lazy(generators::cycle(n)?);
    let initial = LoadVector::point_mass(n, 16 * n as i64);
    let sspec = ScheduleSpec::Periodic {
        period: 4,
        swaps: 2,
        seed: 7,
    };
    let wspec = WorkloadSpec::Steady { rate: 8, seed: 11 };

    let mut sink = RingSink::with_capacity(steps * 8);
    let mut traced = Engine::new(gp.clone(), initial.clone());
    let mut schedule = sspec.build();
    let mut workload = wspec.build(n);
    traced.run_dyn_traced(
        &mut SendFloor::new(),
        steps,
        schedule.as_deref_mut(),
        Some(workload.as_mut()),
        &mut sink,
    )?;

    let mut twin = Engine::new(gp, initial);
    let mut schedule = sspec.build();
    let mut workload = wspec.build(n);
    twin.run_dyn(
        &mut SendFloor::new(),
        steps,
        schedule.as_deref_mut(),
        Some(workload.as_mut()),
    )?;

    Ok(Cell {
        name: "churn",
        n,
        steps,
        bit_identical: traced.loads() == twin.loads()
            && traced.topology_events_applied() == twin.topology_events_applied(),
        rows: phase_rows("churn", &sink),
    })
}

/// The scalar delta-kernel path: a stateful scheme streams fused
/// rounds (the closed-form SEND family dispatches to the vector layer
/// instead — that configuration is what the overhead cell times).
fn cell_kernel(quick: bool) -> Result<Cell, RunError> {
    let n = if quick { 1024 } else { 8192 };
    let steps = if quick { 128 } else { 256 };
    let gp = BalancingGraph::lazy(generators::cycle(n)?);
    let initial = LoadVector::point_mass(n, 16 * n as i64);

    let mut sink = RingSink::with_capacity(steps * 4);
    let mut traced = Engine::new(gp.clone(), initial.clone());
    let mut rotor = RotorRouter::new(&gp, PortOrder::Sequential)?;
    traced.run_kernel_dyn_traced(
        &mut rotor,
        steps,
        None::<&mut StaticTopology>,
        None::<&mut NoWorkload>,
        &mut sink,
    )?;

    let mut twin = Engine::new(gp.clone(), initial);
    let mut rotor_twin = RotorRouter::new(&gp, PortOrder::Sequential)?;
    twin.run_kernel(&mut rotor_twin, steps)?;

    Ok(Cell {
        name: "kernel",
        n,
        steps,
        bit_identical: traced.loads() == twin.loads(),
        rows: phase_rows("kernel", &sink),
    })
}

/// The tenant `i` of the profiling fleet: small mixed-spec tenants,
/// deterministic in `i` so the traced and untraced servers host
/// identical fleets.
fn build_tenant(i: usize) -> Tenant {
    let n = [8, 12, 16][i % 3];
    let graph = BalancingGraph::lazy(generators::cycle(n).expect("cycle sizes are valid"));
    let initial = LoadVector::point_mass(n, 10 * n as i64 + i as i64 % 5);
    let scheme = [SchemeKind::SendFloor, SchemeKind::RotorRouter][i % 2];
    let workload = (i % 4 == 1).then_some(WorkloadSpec::Steady {
        rate: 3,
        seed: i as u64,
    });
    let schedule = if i % 5 == 2 {
        ScheduleSpec::Periodic {
            period: 3,
            swaps: 1,
            seed: i as u64,
        }
    } else {
        ScheduleSpec::Static
    };
    Tenant::new(graph, initial, scheme, workload, schedule).expect("tenant spec is well-formed")
}

/// Aggregate scheduler-phase decomposition of the threaded serve path.
struct ServeProfile {
    tickets: u64,
    ticket_ns: u64,
    lock_ns: u64,
    step_ns: u64,
    merge_ns: u64,
    p50_latency_ns: u64,
    p99_latency_ns: u64,
}

/// The serve cell: a serial traced slice (per-ticket spans, compared
/// tenant-by-tenant against an untraced twin server) plus a threaded
/// profiled slice for the aggregate decomposition.
fn cell_serve(
    quick: bool,
    trace: &mut Vec<Event>,
) -> Result<(Cell, ServeProfile, String), RunError> {
    let tenants = if quick { 48 } else { 192 };
    let rounds = 8;

    // Serial traced slice vs untraced twin: every tenant outcome must
    // match, and so must the slice report's aggregate counts.
    let traced_server = Server::new((0..tenants).map(build_tenant).collect());
    let mut sink = RingSink::with_capacity(tenants * 6);
    let traced_report = traced_server.trace_slice(rounds, &mut sink);
    let twin_server = Server::new((0..tenants).map(build_tenant).collect());
    let twin_report = twin_server.run_slice(1, rounds);
    let mut bit_identical = traced_report.served == twin_report.served
        && traced_report.errored == twin_report.errored
        && traced_report.rounds_advanced == twin_report.rounds_advanced;
    for i in 0..tenants {
        let a = traced_server.with_tenant(i, |t| t.outcome());
        let b = twin_server.with_tenant(i, |t| t.outcome());
        bit_identical &= a == b;
    }
    trace.extend(sink.events().into_iter().take(64));

    // Threaded profiled slice on a fresh fleet: the scheduler's own
    // wall-clock decomposition plus the server's metric registry.
    let server = Server::new((0..tenants).map(build_tenant).collect());
    let (_, profile) = server.run_slice_profiled(2, rounds);
    let (p50, p99) = server.with_metrics(|reg| {
        let h = reg
            .histogram("serve_slice_latency_ns")
            .expect("profiled slice observed latencies");
        (h.quantile(0.5).unwrap_or(0), h.quantile(0.99).unwrap_or(0))
    });
    let prometheus = server.render_prometheus();

    let cell = Cell {
        name: "serve",
        n: tenants,
        steps: rounds,
        bit_identical,
        rows: phase_rows("serve", &sink),
    };
    let serve_profile = ServeProfile {
        tickets: profile.tickets,
        ticket_ns: profile.ticket_ns,
        lock_ns: profile.lock_ns,
        step_ns: profile.step_ns,
        merge_ns: profile.merge_ns,
        p50_latency_ns: p50,
        p99_latency_ns: p99,
    };
    Ok((cell, serve_profile, prometheus))
}

/// The paired overhead measurement on the t1 flagship cell.
struct Overhead {
    n: usize,
    steps: usize,
    noop_sec: f64,
    ring_sec: f64,
    ratio: f64,
    node_steps_per_sec: f64,
    bit_identical: bool,
    overhead_ok: bool,
}

/// Times cycle(65 536) × SEND(floor) through the kernel path with the
/// disabled sink (the production `run_kernel` entry) and with a live
/// [`RingSink`], best-of-N each, and gates the ratio at 1.05.
fn measure_overhead(quick: bool) -> Result<Overhead, RunError> {
    let n = 65_536;
    let steps = 64;
    let reps = if quick { 3 } else { 5 };
    let gp = BalancingGraph::lazy(generators::cycle(n)?);
    let initial = crate::init::bimodal(n, 64);

    let mut noop_sec = f64::INFINITY;
    let mut ring_sec = f64::INFINITY;
    let mut bit_identical = true;
    for _ in 0..reps {
        let mut engine = Engine::new(gp.clone(), initial.clone());
        let started = Instant::now();
        engine.run_kernel(&mut SendFloor::new(), steps)?;
        noop_sec = noop_sec.min(started.elapsed().as_secs_f64());
        let noop_loads = engine.loads().clone();

        let mut engine = Engine::new(gp.clone(), initial.clone());
        // The vector path emits a handful of dispatch instants per
        // run, so a small ring suffices; scalar fallbacks would still
        // fit their per-round spans in 4 × steps.
        let mut sink = RingSink::with_capacity(steps * 4);
        let started = Instant::now();
        engine.run_kernel_dyn_traced(
            &mut SendFloor::new(),
            steps,
            None::<&mut StaticTopology>,
            None::<&mut NoWorkload>,
            &mut sink,
        )?;
        ring_sec = ring_sec.min(started.elapsed().as_secs_f64());
        bit_identical &= engine.loads() == &noop_loads;
    }
    let ratio = ring_sec / noop_sec.max(1e-12);
    Ok(Overhead {
        n,
        steps,
        noop_sec,
        ring_sec,
        ratio,
        node_steps_per_sec: (n * steps) as f64 / noop_sec.max(1e-12),
        bit_identical,
        overhead_ok: ratio <= 1.05,
    })
}

/// Runs the profiling suite and writes `BENCH_PR10.json` plus a
/// chrome://tracing sample (paths overridable with `DLB_PROFILE_JSON`
/// and `DLB_TRACE_JSON`).
///
/// # Errors
///
/// Propagates engine errors (none occur for these closed,
/// well-formed cells in practice).
pub fn profile(quick: bool) -> Result<Table, RunError> {
    let json_path = std::env::var("DLB_PROFILE_JSON").unwrap_or_else(|_| "BENCH_PR10.json".into());
    let trace_path = std::env::var("DLB_TRACE_JSON").unwrap_or_else(|_| "trace_PR10.json".into());
    profile_to(
        quick,
        std::path::Path::new(&json_path),
        std::path::Path::new(&trace_path),
    )
}

/// [`profile`] with explicit output paths (the environment is only
/// consulted at the public entry point).
fn profile_to(
    quick: bool,
    json_path: &std::path::Path,
    trace_path: &std::path::Path,
) -> Result<Table, RunError> {
    let mut trace_events: Vec<Event> = Vec::new();
    let cells = vec![
        cell_serial(quick, &mut trace_events)?,
        cell_churn(quick)?,
        cell_kernel(quick)?,
    ];
    let (serve_cell, serve_profile, _prometheus) = cell_serve(quick, &mut trace_events)?;
    let overhead = measure_overhead(quick)?;

    let mut all_cells = cells;
    all_cells.push(serve_cell);

    write_json(json_path, &all_cells, &serve_profile, &overhead, quick);
    if let Err(e) = std::fs::write(trace_path, chrome_trace(&trace_events)) {
        eprintln!("warning: failed writing {}: {e}", trace_path.display());
    }

    let mut table = Table::new(
        "Profile: per-phase latency decomposition (dlb-obs)",
        &[
            "cell",
            "phase",
            "count",
            "total ms",
            "p50 us",
            "p99 us",
            "identical",
        ],
    );
    for cell in &all_cells {
        for row in &cell.rows {
            table.push_row(vec![
                row.cell.to_string(),
                row.phase.to_string(),
                row.count.to_string(),
                format!("{:.3}", row.total_ns as f64 / 1e6),
                format!("{:.1}", row.p50_ns as f64 / 1e3),
                format!("{:.1}", row.p99_ns as f64 / 1e3),
                if cell.bit_identical { "yes" } else { "NO" }.into(),
            ]);
        }
    }
    table.push_row(vec![
        "overhead".into(),
        "kernel(t1)".into(),
        overhead.steps.to_string(),
        format!("{:.3}", overhead.ring_sec * 1e3),
        format!("{:.2}x", overhead.ratio),
        format!("{:.0} Mn/s", overhead.node_steps_per_sec / 1e6),
        if overhead.overhead_ok && overhead.bit_identical {
            "yes"
        } else {
            "NO"
        }
        .into(),
    ]);
    Ok(table)
}

/// Writes the machine-readable report. Failures to write are reported
/// on stderr but do not fail the experiment.
fn write_json(
    path: &std::path::Path,
    cells: &[Cell],
    serve: &ServeProfile,
    overhead: &Overhead,
    quick: bool,
) {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"dlb-profile/v8\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"cell\": \"{}\", \"n\": {}, \"steps\": {}, \"bit_identical\": {}, \"phases\": [\n",
            cell.name, cell.n, cell.steps, cell.bit_identical
        ));
        for (j, row) in cell.rows.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"phase\": \"{}\", \"count\": {}, \"total_ns\": {}, \
                 \"p50_ns\": {}, \"p99_ns\": {}}}{}\n",
                row.phase,
                row.count,
                row.total_ns,
                row.p50_ns,
                row.p99_ns,
                if j + 1 == cell.rows.len() { "" } else { "," },
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"serve_profile\": {{\"tickets\": {}, \"ticket_ns\": {}, \"lock_ns\": {}, \
         \"step_ns\": {}, \"merge_ns\": {}, \"p50_latency_ns\": {}, \"p99_latency_ns\": {}}},\n",
        serve.tickets,
        serve.ticket_ns,
        serve.lock_ns,
        serve.step_ns,
        serve.merge_ns,
        serve.p50_latency_ns,
        serve.p99_latency_ns,
    ));
    out.push_str(&format!(
        "  \"overhead\": {{\"n\": {}, \"steps\": {}, \"noop_sec\": {:.6}, \"ring_sec\": {:.6}, \
         \"ratio\": {:.4}, \"node_steps_per_sec\": {:.1}, \"bit_identical\": {}, \
         \"overhead_ok\": {}}}\n",
        overhead.n,
        overhead.steps,
        overhead.noop_sec,
        overhead.ring_sec,
        overhead.ratio,
        overhead.node_steps_per_sec,
        overhead.bit_identical,
        overhead.overhead_ok,
    ));
    out.push_str("}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("warning: failed writing {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_profile_decomposes_every_path_bit_identically() {
        let dir = std::env::temp_dir().join("dlb-profile-test");
        let _ = std::fs::create_dir_all(&dir);
        let json_path = dir.join("BENCH_PR10.json");
        let trace_path = dir.join("trace_PR10.json");
        let table = profile_to(true, &json_path, &trace_path).expect("quick profile runs");
        assert!(
            !table.render().contains("NO"),
            "a traced path diverged or the overhead gate tripped:\n{}",
            table.render()
        );

        let json = std::fs::read_to_string(&json_path).expect("json written");
        assert!(json.contains("\"schema\": \"dlb-profile/v8\""));
        for cell in ["serial", "churn", "kernel", "serve"] {
            assert!(
                json.contains(&format!("\"cell\": \"{cell}\"")),
                "missing cell {cell}"
            );
        }
        // The serve slice decomposes into the four scheduler phases.
        for phase in ["ticket", "lock", "step", "merge"] {
            assert!(
                json.contains(&format!("\"phase\": \"{phase}\"")),
                "missing serve phase {phase}"
            );
        }
        assert!(json.contains("\"serve_profile\""));
        assert!(json.contains("\"bit_identical\": true"));
        assert!(!json.contains("\"bit_identical\": false"));

        let trace = std::fs::read_to_string(&trace_path).expect("trace written");
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\":\"X\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_prometheus_rendering_carries_slice_metrics() {
        let server = Server::new((0..16).map(build_tenant).collect());
        let _ = server.run_slice_profiled(1, 4);
        let text = server.render_prometheus();
        assert!(text.contains("serve_slices_total 1"));
        assert!(text.contains("serve_rounds_advanced_total"));
        assert!(text.contains("serve_slice_latency_ns{quantile=\"0.99\"}"));
    }
}
