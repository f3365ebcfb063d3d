//! Quick-mode smoke test: every workload, untraced and traced, passes
//! its checks and emits every metric `BENCHMARK.json` names, with its
//! unit.

use std::process::Command;

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let string_after = |s: &str, key: &str| -> Option<(String, usize)> {
        let at = s.find(&format!("\"{key}\""))? + key.len() + 2;
        let open = at + s[at..].find('"')? + 1;
        let close = open + s[open..].find('"')?;
        Some((s[open..close].to_string(), close + 1))
    };
    let mut out = Vec::new();
    let mut rest = body;
    while let Some((name, used)) = string_after(rest, "name") {
        let (unit, used_unit) = string_after(&rest[used..], "unit").expect("unit after name");
        out.push((name, unit));
        rest = &rest[used + used_unit..];
    }
    assert!(!out.is_empty(), "{section} lists no metrics");
    out
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_loadbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.2"])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in ["closed-torus", "open-churn", "serve-fleet"] {
        for (trace, metrics) in [("0", &end_to_end), ("1", &per_layer)] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, "),
                "{workload} trace {trace}: {line}"
            );
            assert!(line.contains("\"failed\": 0,"), "{line}");
            for (name, unit) in metrics.iter() {
                let at = line
                    .find(&format!("\"{name}\": {{\"value\": "))
                    .unwrap_or_else(|| panic!("{workload} trace {trace} lacks {name}"));
                let tail = &line[at..];
                let obj = &tail[..tail.find('}').expect("closed metric object")];
                assert!(
                    obj.ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{workload}: {name} has the wrong unit: {obj}"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "closed-torus", "--seed", "x"][..],
        &["--workload", "closed-torus", "--trace", "2"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_loadbench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
