//! S2 — dynamic-topology churn across the engine's execution paths.
//!
//! The paper's bounds hold on a fixed d-regular graph; this experiment
//! measures balancing **while the topology changes**: every schedule
//! generator of `dlb-topology` (periodic random rewiring,
//! failure/recovery churn, a one-shot failure burst, adversarial
//! cut-targeting swaps, and the rewiring+failure composite) is
//! composed with workload × scheme × graph, and each composition
//! reports
//!
//! * the **steady-state discrepancy under churn** over the injection
//!   tail (how much the moving topology costs the scheme's
//!   fixed-graph guarantee),
//! * the **recovery time after the churn stops** — for the failure
//!   burst this is the headline number: rounds to re-balance after
//!   the failed nodes' queues were dumped on their neighbours
//!   (`null` when the budget runs out first, e.g. for schedules that
//!   leave nodes permanently failed, whose boundary-drained queues
//!   pin the minimum load near zero — reported honestly),
//! * the **events applied** (how much churn actually landed), and
//! * a **bit-identity verdict**: the same rounds of churn + injection
//!   are replayed through a one-round `run_dyn` loop, one `run_dyn`
//!   call and `run_kernel_dyn`, each with freshly built — hence
//!   stream-identical — schedule and workload, and every path must
//!   reproduce the reference **loads, injected totals, event counts,
//!   final graph (adjacency, port numbering and sleep state), and —
//!   for the rotor-router — rotor state** exactly.
//!
//! A second sweep times the plan-free kernel path at increasing churn
//! rates (`throughput` section of the JSON): the `static` row runs the
//! genuinely closed `run_kernel` entry point and doubles as the
//! fixed-topology regression witness against the PR 4 record.
//!
//! Since PR 6 every row also reports `validation_ns` — the cumulative
//! time the schedule spent generating and connectivity-validating
//! candidate events (the dynamic-connectivity structure's cost, broken
//! out of the balancing time) — and the swap-delivery accounting
//! (`swap_shortfall` = requested − emitted, with the simplicity and
//! connectivity reject totals alongside). CI gates on
//! `swap_shortfall == 0` for the default schedules: a burst that
//! silently under-delivers is the regression the PR 6 bugfix removed.
//!
//! Besides the text/CSV table the sweep writes machine-readable JSON
//! (schema `dlb-churn/v5`, default path `BENCH_PR6.json`, overridden
//! by the `DLB_CHURN_JSON` environment variable) with the
//! `bit_identical` field CI gates on.

use std::time::Instant;

use dlb_core::schemes::{RotorRouter, SendFloor, SendRound};
use dlb_core::{Engine, LoadVector, Workload};
use dlb_graph::{BalancingGraph, PortOrder};
use dlb_scenario::{Scenario, ScenarioRecorder, ScenarioReport, WorkloadSpec};
use dlb_topology::{ScheduleSpec, SwapShortfall, TopologySchedule};

use crate::report::Table;
use crate::runner::RunError;
use crate::suite::{GraphSpec, SchemeSpec};

/// Initial tokens per node: uniform, so every signal in the record is
/// the churn's (and workload's) doing, not the seed distribution's.
const TOKENS_PER_NODE: i64 = 32;

struct ChurnRow {
    scheme: String,
    graph: String,
    n: usize,
    schedule: String,
    workload: String,
    report: ScenarioReport,
    paths: usize,
    bit_identical: bool,
    elapsed_sec: f64,
    shortfall: Option<SwapShortfall>,
    validation_ns: u64,
}

struct ThroughputRow {
    graph: String,
    n: usize,
    scheme: String,
    schedule: String,
    steps: usize,
    topology_events: u64,
    elapsed_sec: f64,
    bit_identical: bool,
    shortfall: Option<SwapShortfall>,
    validation_ns: u64,
}

/// The churn axis of the sweep. Rates scale with `n` so the event
/// pressure per node is comparable across sizes.
fn schedule_specs(n: usize, rounds: usize) -> Vec<ScheduleSpec> {
    let max_down = (n / 8).max(2);
    vec![
        ScheduleSpec::Static,
        ScheduleSpec::Periodic {
            period: 8,
            swaps: (n / 128).max(1),
            seed: 21,
        },
        ScheduleSpec::Failure {
            fail_pct: 20,
            recover_pct: 15,
            max_down,
            seed: 22,
        },
        ScheduleSpec::Burst {
            fail_at: (rounds / 4).max(1),
            wake_at: (rounds / 2).max(2),
            count: (n / 16).max(2),
            seed: 23,
        },
        ScheduleSpec::CutTargeting { period: 8 },
        ScheduleSpec::Churn {
            period: 8,
            swaps: (n / 256).max(1),
            fail_pct: 10,
            max_down,
            seed: 24,
        },
    ]
}

/// The workload axis: closed rounds, uniform arrivals, and the
/// worst-case hotspot — the drains stay out so every cell is
/// error-free by construction (error paths are fuzzed in
/// `tests/differential_paths.rs`).
fn workload_specs(n: usize) -> Vec<Option<WorkloadSpec>> {
    let rate = (n as u64 / 8).max(4);
    vec![
        None,
        Some(WorkloadSpec::Steady { rate, seed: 11 }),
        Some(WorkloadSpec::Hotspot { rate }),
    ]
}

/// Everything a path must reproduce bit for bit.
#[derive(PartialEq)]
struct PathOutcome {
    loads: LoadVector,
    injected: i64,
    events: u64,
    graph: BalancingGraph,
    rotors: Option<Vec<usize>>,
}

#[derive(Clone, Copy)]
enum Path {
    Step,
    Run,
    Kernel,
}

/// Replays `rounds` of churn + injection through one named path with
/// freshly built scheme, schedule and workload, returning the complete
/// observable outcome.
fn drive_path(
    gp: &BalancingGraph,
    scheme: &SchemeSpec,
    sspec: &ScheduleSpec,
    wspec: &Option<WorkloadSpec>,
    initial: &LoadVector,
    rounds: usize,
    path: Path,
) -> Result<PathOutcome, RunError> {
    let n = gp.num_nodes();
    let mut schedule = sspec.build();
    let mut workload = wspec.as_ref().map(|w| w.build(n));
    let mut engine = Engine::new(gp.clone(), initial.clone());
    // Concrete schemes so rotor state stays observable after the run.
    let mut rotor = matches!(scheme, SchemeSpec::RotorRouter)
        .then(|| RotorRouter::new(gp, PortOrder::Sequential))
        .transpose()?;

    match path {
        Path::Step | Path::Run => {
            let mut boxed = match &mut rotor {
                Some(_) => None,
                None => Some(scheme.build(gp)?),
            };
            let bal: &mut dyn dlb_core::Balancer = match (&mut rotor, &mut boxed) {
                (Some(r), _) => r,
                (None, Some(b)) => b.as_mut(),
                _ => unreachable!(),
            };
            // One round per call, or the whole horizon in one call.
            let (calls, chunk) = match path {
                Path::Step => (rounds, 1),
                _ => (1, rounds),
            };
            for _ in 0..calls {
                engine.run_dyn(bal, chunk, schedule.as_deref_mut(), workload.as_deref_mut())?;
            }
        }
        Path::Kernel => {
            let s = schedule.as_deref_mut();
            let w = workload.as_deref_mut();
            match scheme {
                SchemeSpec::SendFloor => {
                    engine.run_kernel_dyn(&mut SendFloor::new(), rounds, s, w)?;
                }
                SchemeSpec::SendRound => {
                    engine.run_kernel_dyn(&mut SendRound::new(), rounds, s, w)?;
                }
                SchemeSpec::RotorRouter => {
                    engine.run_kernel_dyn(rotor.as_mut().expect("built above"), rounds, s, w)?;
                }
                other => panic!("no kernel dispatch for {}", other.label()),
            }
        }
    }
    Ok(PathOutcome {
        loads: engine.loads().clone(),
        injected: engine.injected_total(),
        events: engine.topology_events_applied(),
        graph: engine.graph().clone(),
        rotors: rotor.map(|r| r.rotors().to_vec()),
    })
}

/// Runs the churn sweep and writes `BENCH_PR6.json` (path overridable
/// with the `DLB_CHURN_JSON` environment variable).
///
/// # Errors
///
/// Propagates instance-construction and engine errors (the sweep's
/// schedules and workloads are the error-free configurations).
pub fn churn(quick: bool) -> Result<Table, RunError> {
    let json_path = std::env::var("DLB_CHURN_JSON").unwrap_or_else(|_| "BENCH_PR6.json".into());
    churn_to(quick, std::path::Path::new(&json_path))
}

/// [`churn`] with an explicit JSON output path (the environment is
/// only consulted at the public entry point).
fn churn_to(quick: bool, json_path: &std::path::Path) -> Result<Table, RunError> {
    let graphs: Vec<GraphSpec> = if quick {
        vec![
            GraphSpec::Cycle { n: 64 },
            GraphSpec::Torus2D { side: 8 },
            GraphSpec::RandomRegular {
                n: 64,
                d: 4,
                seed: 42,
            },
        ]
    } else {
        vec![
            GraphSpec::Cycle { n: 1024 },
            GraphSpec::Torus2D { side: 32 },
            GraphSpec::Hypercube { dim: 10 },
            GraphSpec::RandomRegular {
                n: 1024,
                d: 4,
                seed: 42,
            },
        ]
    };
    let schemes = [
        SchemeSpec::SendFloor,
        SchemeSpec::SendRound,
        SchemeSpec::RotorRouter,
    ];
    let rounds = if quick { 96 } else { 384 };

    let mut rows: Vec<ChurnRow> = Vec::new();
    let mut recorder = ScenarioRecorder::new();
    for gspec in &graphs {
        let gp = BalancingGraph::lazy(gspec.build()?);
        let n = gp.num_nodes();
        let initial = LoadVector::uniform(n, TOKENS_PER_NODE);
        let mut scenario = Scenario::new(rounds, &gp);
        scenario.recovery_max_rounds = if quick { 2_000 } else { 8_000 };

        for scheme in &schemes {
            for sspec in &schedule_specs(n, rounds) {
                for wspec in &workload_specs(n) {
                    let started = Instant::now();

                    // The metric run: scenario phases, one round at a time.
                    let mut bal = scheme.build(&gp)?;
                    let mut schedule = sspec.build();
                    let mut workload = wspec.as_ref().map_or_else(
                        || WorkloadSpec::Hotspot { rate: 0 }.build(n),
                        |w| w.build(n),
                    );
                    // `None` workload cells run genuinely closed: an
                    // all-zero hotspot is only a placeholder object for
                    // the scenario API and injects nothing.
                    let report = scenario.run_dyn(
                        &gp,
                        &initial,
                        bal.as_mut(),
                        schedule.as_deref_mut(),
                        workload.as_mut(),
                        &mut recorder,
                    )?;

                    // Cross-path bit-identity under this churn ×
                    // workload cell, rotor state and final graph
                    // included.
                    let reference =
                        drive_path(&gp, scheme, sspec, wspec, &initial, rounds, Path::Step)?;
                    let mut paths = 1usize;
                    let mut identical = reference.loads == report.loads_after_injection
                        && reference.injected == report.injected_total
                        && reference.events == report.topology_events;
                    for path in [Path::Run, Path::Kernel] {
                        let outcome =
                            drive_path(&gp, scheme, sspec, wspec, &initial, rounds, path)?;
                        paths += 1;
                        identical &= outcome == reference;
                    }

                    rows.push(ChurnRow {
                        scheme: scheme.label(),
                        graph: gspec.label(),
                        n,
                        schedule: sspec.label(),
                        workload: wspec
                            .as_ref()
                            .map_or_else(|| "none".into(), WorkloadSpec::label),
                        report,
                        paths,
                        bit_identical: identical,
                        elapsed_sec: started.elapsed().as_secs_f64(),
                        shortfall: schedule
                            .as_deref()
                            .and_then(TopologySchedule::swap_shortfall),
                        validation_ns: schedule
                            .as_deref()
                            .map_or(0, TopologySchedule::validation_nanos),
                    });
                }
            }
        }
    }

    // Throughput vs churn rate on the kernel path; the static row runs
    // the closed `run_kernel` entry point (the PR 4 loop) and anchors
    // the fixed-topology regression comparison.
    let tn = if quick { 4096 } else { 65_536 };
    let tsteps = if quick { 256 } else { 64 };
    let tgraph = GraphSpec::Cycle { n: tn };
    let tinitial = LoadVector::uniform(tn, TOKENS_PER_NODE);
    let tschedules = [
        ScheduleSpec::Static,
        ScheduleSpec::Periodic {
            period: 16,
            swaps: 8,
            seed: 31,
        },
        ScheduleSpec::Periodic {
            period: 4,
            swaps: 8,
            seed: 32,
        },
        ScheduleSpec::Failure {
            fail_pct: 10,
            recover_pct: 10,
            max_down: tn / 64,
            seed: 33,
        },
    ];
    let mut tput: Vec<ThroughputRow> = Vec::new();
    for sspec in &tschedules {
        let gp = BalancingGraph::lazy(tgraph.build()?);
        let mut engine = Engine::new(gp.clone(), tinitial.clone());
        let mut schedule = sspec.build();
        let started = Instant::now();
        match schedule.as_deref_mut() {
            None => engine.run_kernel(&mut SendFloor::new(), tsteps)?,
            Some(s) => engine.run_kernel_dyn(
                &mut SendFloor::new(),
                tsteps,
                Some(s),
                Option::<&mut dyn Workload>::None,
            )?,
        }
        let elapsed = started.elapsed().as_secs_f64();
        let reference = drive_path(
            &gp,
            &SchemeSpec::SendFloor,
            sspec,
            &None,
            &tinitial,
            tsteps,
            Path::Step,
        )?;
        tput.push(ThroughputRow {
            graph: tgraph.label(),
            n: tn,
            scheme: SchemeSpec::SendFloor.label(),
            schedule: sspec.label(),
            steps: tsteps,
            topology_events: engine.topology_events_applied(),
            elapsed_sec: elapsed,
            bit_identical: engine.loads() == &reference.loads
                && engine.topology_events_applied() == reference.events
                && engine.graph() == &reference.graph,
            shortfall: schedule
                .as_deref()
                .and_then(TopologySchedule::swap_shortfall),
            validation_ns: schedule
                .as_deref()
                .map_or(0, TopologySchedule::validation_nanos),
        });
    }

    write_json(json_path, &rows, &tput, quick);

    let mut table = Table::new(
        "S2: dynamic-topology churn (steady discrepancy under churn, recovery, cross-path identity)",
        &[
            "scheme",
            "graph",
            "schedule",
            "workload",
            "rounds",
            "events",
            "steady max",
            "peak disc",
            "recovery",
            "paths",
            "identical",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.scheme.clone(),
            r.graph.clone(),
            r.schedule.clone(),
            r.workload.clone(),
            r.report.rounds.to_string(),
            r.report.topology_events.to_string(),
            r.report.steady_discrepancy_max.to_string(),
            r.report.peak_discrepancy.to_string(),
            r.report
                .recovery_rounds
                .map_or_else(|| "-".into(), |v| v.to_string()),
            r.paths.to_string(),
            if r.bit_identical { "yes" } else { "NO" }.into(),
        ]);
    }
    for t in &tput {
        let rate = t.n as f64 * t.steps as f64 / t.elapsed_sec / 1e6;
        let val_ms = t.validation_ns as f64 / 1e6;
        table.push_row(vec![
            t.scheme.clone(),
            t.graph.clone(),
            t.schedule.clone(),
            format!("kernel {rate:.1} Mnode-steps/s (val {val_ms:.1}ms)"),
            t.steps.to_string(),
            t.topology_events.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            "2".into(),
            if t.bit_identical { "yes" } else { "NO" }.into(),
        ]);
    }
    Ok(table)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The PR 6 accounting fields shared by both JSON sections.
/// `swap_shortfall` is the headline deficit CI greps for; rows whose
/// schedule emits no random swaps report all-zero accounting.
fn accounting_json(shortfall: Option<&SwapShortfall>, validation_ns: u64) -> String {
    let s = shortfall.copied().unwrap_or_default();
    format!(
        "\"validation_ns\": {}, \"swap_shortfall\": {}, \"swap_requested\": {}, \
         \"swap_emitted\": {}, \"simplicity_rejects\": {}, \"connectivity_rejects\": {}",
        validation_ns,
        s.deficit(),
        s.requested,
        s.emitted,
        s.simplicity_rejects,
        s.connectivity_rejects,
    )
}

/// Writes the machine-readable sweep. Failures to write are reported on
/// stderr but do not fail the experiment.
fn write_json(path: &std::path::Path, rows: &[ChurnRow], tput: &[ThroughputRow], quick: bool) {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"dlb-churn/v5\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str(&format!("  \"tokens_per_node\": {TOKENS_PER_NODE},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"graph\": \"{}\", \"n\": {}, \"schedule\": \"{}\", \
             \"workload\": \"{}\", \"rounds\": {}, \"topology_events\": {}, \
             \"steady_discrepancy_max\": {}, \"steady_discrepancy_mean\": {:.2}, \
             \"peak_load\": {}, \"peak_discrepancy\": {}, \"recovery_rounds\": {}, \
             \"injected_total\": {}, \"final_total\": {}, \"paths_compared\": {}, \
             \"elapsed_sec\": {:.6}, {}, \"bit_identical\": {}}}{}\n",
            json_escape(&r.scheme),
            json_escape(&r.graph),
            r.n,
            json_escape(&r.schedule),
            json_escape(&r.workload),
            r.report.rounds,
            r.report.topology_events,
            r.report.steady_discrepancy_max,
            r.report.steady_discrepancy_mean,
            r.report.peak_load,
            r.report.peak_discrepancy,
            r.report
                .recovery_rounds
                .map_or_else(|| "null".into(), |v| v.to_string()),
            r.report.injected_total,
            r.report.final_total,
            r.paths,
            r.elapsed_sec,
            accounting_json(r.shortfall.as_ref(), r.validation_ns),
            r.bit_identical,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"throughput\": [\n");
    for (i, t) in tput.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"graph\": \"{}\", \"n\": {}, \"scheme\": \"{}\", \"schedule\": \"{}\", \
             \"path\": \"run_kernel\", \"steps\": {}, \"topology_events\": {}, \
             \"elapsed_sec\": {:.6}, \"node_steps_per_sec\": {:.1}, {}, \
             \"bit_identical\": {}}}{}\n",
            json_escape(&t.graph),
            t.n,
            json_escape(&t.scheme),
            json_escape(&t.schedule),
            t.steps,
            t.topology_events,
            t.elapsed_sec,
            t.n as f64 * t.steps as f64 / t.elapsed_sec,
            accounting_json(t.shortfall.as_ref(), t.validation_ns),
            t.bit_identical,
            if i + 1 == tput.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("warning: failed writing {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_bit_identical_and_writes_v5_json() {
        let dir = std::env::temp_dir().join("dlb-churn-test");
        let _ = std::fs::create_dir_all(&dir);
        let json_path = dir.join("BENCH_PR6.json");
        let table = churn_to(true, &json_path).expect("quick sweep runs");

        // 3 graphs × 3 schemes × 6 schedules × 3 workloads, plus the
        // 4 throughput rows.
        assert_eq!(table.num_rows(), 3 * 3 * 6 * 3 + 4);
        assert!(
            !table.render().contains("NO"),
            "a path diverged under churn:\n{}",
            table.render()
        );

        let json = std::fs::read_to_string(&json_path).expect("json written");
        assert!(json.contains("\"schema\": \"dlb-churn/v5\""));
        assert!(json.contains("\"schedule\": \"static\""));
        assert!(json.contains("\"schedule\": \"burst("));
        assert!(json.contains("\"schedule\": \"cut-target(/8)\""));
        assert!(json.contains("\"topology_events\""));
        assert!(json.contains("\"node_steps_per_sec\""));
        assert!(json.contains("\"bit_identical\": true"));
        assert!(!json.contains("\"bit_identical\": false"));

        // PR 6 accounting: every default schedule must deliver its
        // bursts in full (the shortfall bugfix's regression gate) …
        assert!(json.contains("\"swap_shortfall\": "));
        assert!(
            !json.lines().any(
                |l| l.contains("\"swap_shortfall\": ") && !l.contains("\"swap_shortfall\": 0,")
            ),
            "a default schedule under-delivered swaps"
        );
        // … and the rewiring rows must actually account their
        // connectivity-validation time.
        let rewire_validated = json
            .lines()
            .filter(|l| l.contains("\"schedule\": \"rewire(") && l.contains("\"swap_requested\": "))
            .all(|l| !l.contains("\"validation_ns\": 0,"));
        assert!(
            rewire_validated,
            "rewiring rows must report nonzero validation_ns"
        );
        assert!(json.contains("\"swap_requested\": "));
        assert!(json.contains("\"simplicity_rejects\": "));
        assert!(json.contains("\"connectivity_rejects\": "));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn churn_rows_actually_apply_events_and_conserve() {
        let dir = std::env::temp_dir().join("dlb-churn-conservation");
        let _ = std::fs::create_dir_all(&dir);
        let json_path = dir.join("BENCH_PR6.json");
        let _ = churn_to(true, &json_path).expect("quick sweep runs");
        let json = std::fs::read_to_string(&json_path).expect("json written");
        let mut dynamic_rows = 0usize;
        let mut dynamic_with_events = 0usize;
        for line in json.lines().filter(|l| l.contains("\"final_total\"")) {
            let grab = |key: &str| -> i64 {
                let at = line.find(key).expect(key) + key.len();
                line[at..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '-')
                    .collect::<String>()
                    .parse()
                    .expect("numeric field")
            };
            let n = grab("\"n\": ");
            let injected = grab("\"injected_total\": ");
            let final_total = grab("\"final_total\": ");
            assert_eq!(final_total, n * TOKENS_PER_NODE + injected, "{line}");
            if !line.contains("\"schedule\": \"static\"") {
                dynamic_rows += 1;
                if grab("\"topology_events\": ") > 0 {
                    dynamic_with_events += 1;
                }
            }
        }
        assert!(dynamic_rows > 0);
        assert!(
            dynamic_with_events * 10 >= dynamic_rows * 9,
            "churn schedules must actually mutate the graph \
             ({dynamic_with_events}/{dynamic_rows} rows with events)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
