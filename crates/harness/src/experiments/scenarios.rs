//! S1 — dynamic-workload scenarios across the engine's execution paths.
//!
//! The paper's bounds are closed-system; this experiment measures the
//! **open** system: every workload generator of `dlb-scenario` (steady
//! arrivals, bursts, hotspot floods, sink drains, the bounded
//! adversary, and the arrivals+drain flow-equilibrium composite) is
//! composed with scheme × graph, and each composition reports
//!
//! * the **steady-state discrepancy** over the injection tail (the
//!   quantity dynamic-network results bound in place of the paper's
//!   fixed-load discrepancy),
//! * the **peak load** and **peak discrepancy** (worst transient),
//! * the **recovery time**: closed-system rounds from the end of
//!   injection until the discrepancy first reaches `2 d⁺`
//!   (`null` when the round budget runs out first — reported honestly,
//!   the cycle at full size legitimately needs more rounds than the
//!   budget), and
//! * a **bit-identity** verdict: the same `rounds` of injection are
//!   replayed through the scenario's one-round `run_dyn` loop, one
//!   `run_dyn` call and `run_kernel_dyn`, each with a freshly built —
//!   hence stream-identical — workload, and
//!   every path must reproduce the reference loads and injected totals
//!   exactly.
//!
//! Besides the text/CSV table the sweep writes machine-readable JSON
//! (schema `dlb-scenarios/v3`, default path `BENCH_PR4.json`,
//! overridden by the `DLB_SCENARIO_JSON` environment variable) with
//! the `workload` and `recovery_rounds` fields CI gates on.

use std::time::Instant;

use dlb_core::schemes::{RotorRouter, SendFloor, SendRound};
use dlb_core::{Engine, LoadVector, StaticTopology};
use dlb_graph::{BalancingGraph, PortOrder};
use dlb_scenario::{Scenario, ScenarioReport, WorkloadSpec};

use crate::report::Table;
use crate::runner::RunError;
use crate::suite::{GraphSpec, SchemeSpec};

/// Initial tokens per node: uniform, so every signal in the record is
/// the workload's doing, not the seed distribution's.
const TOKENS_PER_NODE: i64 = 32;

struct ScenarioRow {
    scheme: String,
    graph: String,
    n: usize,
    workload: String,
    report: ScenarioReport,
    paths: usize,
    bit_identical: bool,
    elapsed_sec: f64,
}

/// The workload axis of the sweep. Rates scale with `n` so the
/// injection pressure per node is comparable across sizes.
fn workload_specs(n: usize) -> Vec<WorkloadSpec> {
    let rate = (n as u64 / 8).max(4);
    vec![
        WorkloadSpec::Steady { rate, seed: 11 },
        WorkloadSpec::Bursty {
            on: 8,
            off: 24,
            rate: 2 * rate,
            seed: 12,
        },
        WorkloadSpec::Hotspot { rate },
        WorkloadSpec::Drain { rate: 2 },
        WorkloadSpec::Adversary { budget: rate },
        WorkloadSpec::ArriveAndDrain { rate, seed: 13 },
    ]
}

/// Replays `rounds` of injection through one named batched path,
/// returning the final loads and the engine's net injected total.
/// Every call builds a fresh workload from `spec`, so every path sees
/// the identical delta stream the scenario's round-by-round run saw
/// (the scenario itself provides the reference).
fn run_path(
    gp: &BalancingGraph,
    scheme: &SchemeSpec,
    spec: &WorkloadSpec,
    initial: &LoadVector,
    rounds: usize,
    path: Path,
) -> Result<(LoadVector, i64), RunError> {
    let n = gp.num_nodes();
    let mut workload = spec.build(n);
    let mut engine = Engine::new(gp.clone(), initial.clone());
    match path {
        Path::Run => {
            let mut bal = scheme.build(gp)?;
            engine.run_dyn(bal.as_mut(), rounds, None, Some(workload.as_mut()))?;
        }
        Path::Kernel => {
            let (s, w) = (StaticTopology::none(), Some(workload.as_mut()));
            match scheme {
                SchemeSpec::SendFloor => {
                    engine.run_kernel_dyn(&mut SendFloor::new(), rounds, s, w)?
                }
                SchemeSpec::SendRound => {
                    engine.run_kernel_dyn(&mut SendRound::new(), rounds, s, w)?
                }
                SchemeSpec::RotorRouter => {
                    let mut rotor = RotorRouter::new(gp, PortOrder::Sequential)?;
                    engine.run_kernel_dyn(&mut rotor, rounds, s, w)?;
                }
                other => panic!("no kernel dispatch for {}", other.label()),
            }
        }
    }
    Ok((engine.loads().clone(), engine.injected_total()))
}

#[derive(Clone, Copy)]
enum Path {
    Run,
    Kernel,
}

/// Runs the scenario sweep and writes `BENCH_PR4.json` (path
/// overridable with the `DLB_SCENARIO_JSON` environment variable).
///
/// # Errors
///
/// Propagates instance-construction and engine errors (the sweep's
/// workloads are the clamped, error-free configurations).
pub fn scenarios(quick: bool) -> Result<Table, RunError> {
    let json_path = std::env::var("DLB_SCENARIO_JSON").unwrap_or_else(|_| "BENCH_PR4.json".into());
    scenarios_to(quick, std::path::Path::new(&json_path))
}

/// [`scenarios`] with an explicit JSON output path (the environment is
/// only consulted at the public entry point).
fn scenarios_to(quick: bool, json_path: &std::path::Path) -> Result<Table, RunError> {
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

    let mut rows: Vec<ScenarioRow> = Vec::new();
    for gspec in &graphs {
        let gp = BalancingGraph::lazy(gspec.build()?);
        let n = gp.num_nodes();
        let initial = LoadVector::uniform(n, TOKENS_PER_NODE);
        let mut scenario = Scenario::new(rounds, &gp);
        scenario.recovery_max_rounds = if quick { 4_000 } else { 16_000 };

        for scheme in &schemes {
            for wspec in &workload_specs(n) {
                let started = Instant::now();
                let mut bal = scheme.build(&gp)?;
                let mut workload = wspec.build(n);
                let report = scenario.run(&gp, &initial, bal.as_mut(), workload.as_mut())?;

                // Cross-path bit-identity under this workload. The
                // scenario's own injection phase *is* the round-by-round
                // run (a fresh build of the same spec replays the
                // identical delta stream), so its end-of-injection
                // state is the reference — no second round-by-round
                // replay.
                let ref_loads = report.loads_after_injection.clone();
                let ref_injected = report.injected_total;
                let mut paths = 1usize;
                let mut identical = true;
                let mut check = |outcome: (LoadVector, i64)| {
                    paths += 1;
                    identical &= outcome.0 == ref_loads && outcome.1 == ref_injected;
                };
                check(run_path(&gp, scheme, wspec, &initial, rounds, Path::Run)?);
                check(run_path(
                    &gp,
                    scheme,
                    wspec,
                    &initial,
                    rounds,
                    Path::Kernel,
                )?);

                rows.push(ScenarioRow {
                    scheme: scheme.label(),
                    graph: gspec.label(),
                    n,
                    workload: wspec.label(),
                    report,
                    paths,
                    bit_identical: identical,
                    elapsed_sec: started.elapsed().as_secs_f64(),
                });
            }
        }
    }

    write_json(json_path, &rows, quick);

    let mut table = Table::new(
        "S1: dynamic-workload scenarios (steady-state discrepancy, recovery, cross-path identity)",
        &[
            "scheme",
            "graph",
            "workload",
            "rounds",
            "steady max",
            "steady mean",
            "peak load",
            "recovery",
            "injected",
            "paths",
            "identical",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.scheme.clone(),
            r.graph.clone(),
            r.workload.clone(),
            r.report.rounds.to_string(),
            r.report.steady_discrepancy_max.to_string(),
            format!("{:.1}", r.report.steady_discrepancy_mean),
            r.report.peak_load.to_string(),
            r.report
                .recovery_rounds
                .map_or_else(|| "-".into(), |v| v.to_string()),
            r.report.injected_total.to_string(),
            r.paths.to_string(),
            if r.bit_identical { "yes" } else { "NO" }.into(),
        ]);
    }
    Ok(table)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Writes the machine-readable sweep. Failures to write are reported on
/// stderr but do not fail the experiment.
fn write_json(path: &std::path::Path, rows: &[ScenarioRow], quick: bool) {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"dlb-scenarios/v3\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str(&format!("  \"tokens_per_node\": {TOKENS_PER_NODE},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"graph\": \"{}\", \"n\": {}, \"workload\": \"{}\", \
             \"rounds\": {}, \"steady_discrepancy_max\": {}, \"steady_discrepancy_mean\": {:.2}, \
             \"peak_load\": {}, \"peak_discrepancy\": {}, \"recovery_rounds\": {}, \
             \"injected_total\": {}, \"final_total\": {}, \"paths_compared\": {}, \
             \"elapsed_sec\": {:.6}, \"bit_identical\": {}}}{}\n",
            json_escape(&r.scheme),
            json_escape(&r.graph),
            r.n,
            json_escape(&r.workload),
            r.report.rounds,
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
            r.bit_identical,
            if i + 1 == rows.len() { "" } else { "," },
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
    fn quick_sweep_is_bit_identical_and_writes_v3_json() {
        let dir = std::env::temp_dir().join("dlb-scenarios-test");
        let _ = std::fs::create_dir_all(&dir);
        let json_path = dir.join("BENCH_PR4.json");
        let table = scenarios_to(true, &json_path).expect("quick sweep runs");

        // 3 graphs × 3 schemes × 6 workloads.
        assert_eq!(table.num_rows(), 3 * 3 * 6);
        assert!(
            !table.render().contains("NO"),
            "a path diverged under injection:\n{}",
            table.render()
        );

        let json = std::fs::read_to_string(&json_path).expect("json written");
        assert!(json.contains("\"schema\": \"dlb-scenarios/v3\""));
        assert!(json.contains("\"workload\": \"steady(+8)\""));
        assert!(json.contains("\"workload\": \"adversary(B=8)\""));
        assert!(json.contains("\"recovery_rounds\""));
        assert!(json.contains("\"bit_identical\": true"));
        assert!(!json.contains("\"bit_identical\": false"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn conservation_holds_on_every_row() {
        let dir = std::env::temp_dir().join("dlb-scenarios-conservation");
        let _ = std::fs::create_dir_all(&dir);
        let json_path = dir.join("BENCH_PR4.json");
        let _ = scenarios_to(true, &json_path).expect("quick sweep runs");
        let json = std::fs::read_to_string(&json_path).expect("json written");
        // Every row's final_total must equal initial + injected_total;
        // spot-check by parsing the pairs out of the flat rows.
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
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
