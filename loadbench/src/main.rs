//! `loadbench`: the repository benchmark.
//!
//! ```text
//! loadbench --workload <closed-torus|open-churn|serve-fleet> --seed <n>
//!           --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! Builds the workload's inputs from `--seed`, runs whole episodes of
//! it for `--seconds` seconds, checks every output, and prints a
//! human-readable report followed by one JSON result line. With
//! `--trace 0` the result carries the end-to-end metrics (measured
//! with tracing off); with `--trace 1` it carries the per-layer
//! metrics of a traced run and writes the spans under `out/`. See
//! README.md for the metric tables and the workload rationale.

mod closed_torus;
mod open_churn;
mod probe;
mod serve_fleet;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use stats::{median, median_u64, Metrics, Tally};
use trace::Tracer;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Parsed command line.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs and a short run, for the smoke tests.
    pub quick: bool,
}

const USAGE: &str = "usage: loadbench --workload <closed-torus|open-churn|serve-fleet> \
                     --seed <n> --seconds <s> --trace <0|1> [--quick]";

const WORKLOADS: [&str; 3] = ["closed-torus", "open-churn", "serve-fleet"];

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            cfg.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload {:?}", cfg.workload));
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(cfg)
}

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fixes every generated input.
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `(seed, stream, index)`.
    pub fn new(seed: u64, stream: u64, index: u64) -> SplitMix {
        let mut s = SplitMix(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        s.0 ^= s.next_u64() ^ index.wrapping_mul(0xe703_7ed1_a0b4_28db);
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Runs `episode(k)` for k = 0, 1, … until `seconds` have passed and
/// at least `min` episodes after the first ran. Episode 0 is a
/// warm-up: its checks count, its timings are dropped.
pub fn episodes(seconds: f64, min: usize, mut episode: impl FnMut(usize)) {
    episode(0);
    let start = Instant::now();
    let mut k = 1;
    while k <= min || start.elapsed().as_secs_f64() < seconds {
        episode(k);
        k += 1;
    }
}

/// One measured episode, as a workload hands it over.
pub struct Episode {
    pub setup_ns: u64,
    /// One sample per call (engine chunk or `run_slice`).
    pub call_ns: Vec<u64>,
    /// One sample per tenant visit. An engine workload is one tenant,
    /// so these are its calls.
    pub tenant_ns: Vec<u64>,
    /// Node-rounds one call advances (serve: the episode's mean).
    pub node_rounds_per_call: f64,
    /// Wall time of the timed phase.
    pub timed_ns: u64,
    pub restore_ns: u64,
    pub final_discrepancy: f64,
}

/// What a workload's episodes add up to, for the end-to-end metrics.
///
/// On the 2-CPU Xeon host the bounds were measured on, speed moves
/// between a fast and a slow phase that last seconds, so a run's
/// median call (or whole-run mean rate) depends on how much of the run
/// fell in each phase and swings by a fifth or more from run to run.
/// The slow phase covers more than a tenth of every run, so p90 lands
/// in the same phase every time: calls and restores are reported at
/// p90, throughput as the rate nine calls in ten meet or beat, and the
/// medians go into the report only.
#[derive(Default)]
pub struct EndToEnd {
    pub setup_ns: Vec<u64>,
    pub call_ns: Vec<u64>,
    /// Node-rounds per second of each call.
    pub call_rates: Vec<f64>,
    pub tenant_ns: Vec<u64>,
    pub node_rounds: f64,
    pub timed_ns: u64,
    pub restore_ns: Vec<u64>,
    pub final_discrepancy: Vec<f64>,
}

impl EndToEnd {
    pub fn add(&mut self, ep: Episode) {
        let calls = ep.call_ns.len() as f64;
        self.setup_ns.push(ep.setup_ns);
        self.call_rates.extend(
            ep.call_ns
                .iter()
                .map(|&ns| ep.node_rounds_per_call / (ns.max(1) as f64 / 1e9)),
        );
        self.call_ns.extend(ep.call_ns);
        self.tenant_ns.extend(ep.tenant_ns);
        self.node_rounds += ep.node_rounds_per_call * calls;
        self.timed_ns += ep.timed_ns;
        self.restore_ns.push(ep.restore_ns);
        self.final_discrepancy.push(ep.final_discrepancy);
    }

    /// Whole-run mean rate: node-rounds over timed wall.
    pub fn rate(&self) -> f64 {
        self.node_rounds / (self.timed_ns.max(1) as f64 / 1e9)
    }

    pub fn metrics(&self, tally: &Tally) -> Metrics {
        let eps = self.setup_ns.len();
        let mut m = Metrics::default();
        m.push(
            "setup_s",
            median_u64(&self.setup_ns) / 1e9,
            "s",
            format!("median of {eps} set-ups"),
        );
        let mut rates = self.call_rates.clone();
        rates.sort_by(f64::total_cmp);
        // Nearest rank, as for the percentiles.
        let rank = ((rates.len() as f64 * 0.1).ceil() as usize).max(1) - 1;
        m.push(
            "node_rounds_per_s",
            rates.get(rank).copied().unwrap_or(0.0),
            "node-rounds/s",
            format!(
                "p10 of {} per-call rates; whole-run mean {:.6e}",
                rates.len(),
                self.rate()
            ),
        );
        m.push_percentile("call_p90_ms", &self.call_ns, (0.9, &[0.5]), "ms", 1e6);
        let tenant = (0.95, &[0.5, 0.99][..]);
        m.push_percentile("tenant_p95_us", &self.tenant_ns, tenant, "us", 1e3);
        m.push_percentile("restore_s", &self.restore_ns, (0.9, &[0.5]), "s", 1e9);
        m.push(
            "peak_rss_mb",
            probe::peak_rss_mb(),
            "MiB",
            "VmHWM at exit".into(),
        );
        m.push(
            "final_discrepancy",
            median(&self.final_discrepancy),
            "tokens",
            format!("median over {eps} episodes"),
        );
        m.push(
            "ok_frac",
            1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
            format!(
                "{} of {} calls and checks passed",
                tally.attempted - tally.failed,
                tally.attempted
            ),
        );
        m
    }
}

/// Every per-layer metric, in report order, with its unit.
const LAYER_METRICS: [(&str, &str); 35] = [
    ("graph.build_ms", "ms"),
    ("graph.port_shift_profile_ms", "ms"),
    ("graph.bandwidth_ms", "ms"),
    ("core.kernel_call_fixed_ms", "ms"),
    ("core.kernel_round_us", "us"),
    ("core.allocs_per_call", "count"),
    ("core.alloc_bytes_per_call", "bytes"),
    ("core.minor_faults_per_call", "count"),
    ("core.vector_runs", "count"),
    ("core.vector_rounds_banded", "count"),
    ("core.vector_rounds_blocked", "count"),
    ("core.vector_rounds_i32", "count"),
    ("core.vector_i32_fallbacks", "count"),
    ("core.discrepancy_us", "us"),
    ("core.engine_call_self_ms", "ms"),
    ("topology.next_self_us", "us"),
    ("topology.validation_ms", "ms"),
    ("topology.events", "count"),
    ("topology.swap_shortfall", "count"),
    ("scenario.inject_self_us", "us"),
    ("scenario.injected_tokens", "tokens"),
    ("serve.step_us.send_floor", "us"),
    ("serve.step_us.send_round", "us"),
    ("serve.step_us.rotor", "us"),
    ("serve.step_us.rotor_star", "us"),
    ("serve.step_p99_us", "us"),
    ("serve.sched_overhead_frac", "ratio"),
    ("serve.journal_bytes", "bytes"),
    ("serve.journal_decode_us", "us"),
    ("serve.replay_us", "us"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.snapshot_encode_us", "us"),
    ("serve.resume_us", "us"),
    ("serve.errored_tenants", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// The per-layer numbers of a traced run. A layer a workload does not
/// exercise reports 0.
pub struct Layers([f64; LAYER_METRICS.len()]);

impl Default for Layers {
    fn default() -> Layers {
        Layers([0.0; LAYER_METRICS.len()])
    }
}

impl Layers {
    /// Sets one metric of [`LAYER_METRICS`] by name.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = LAYER_METRICS
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.0[i] = value;
    }

    /// The call-normalised process counters.
    pub fn set_counters(&mut self, c: &probe::Counters, calls: usize) {
        let calls = calls.max(1) as f64;
        self.set("core.allocs_per_call", c.allocs as f64 / calls);
        self.set("core.alloc_bytes_per_call", c.alloc_bytes as f64 / calls);
        self.set("core.minor_faults_per_call", c.minor_faults as f64 / calls);
    }

    /// The engine-call spans shared by the engine workloads.
    pub fn set_engine_spans(&mut self, aggs: &BTreeMap<&str, trace::Agg>) {
        if let Some(a) = aggs.get("core.discrepancy") {
            self.set("core.discrepancy_us", median_u64(&a.durs_ns) / 1e3);
        }
        if let Some(a) = aggs.get("core.engine_call") {
            let self_ms = a.self_ns as f64 / a.count as f64 / 1e6;
            self.set("core.engine_call_self_ms", self_ms);
        }
    }

    /// `1 − traced ÷ untraced` throughput.
    pub fn set_overhead(&mut self, untraced: &EndToEnd, traced: &EndToEnd) {
        let frac = 1.0 - traced.rate() / untraced.rate().max(1e-9);
        self.set("trace.overhead_frac", frac);
    }

    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        for (&(name, unit), &value) in LAYER_METRICS.iter().zip(&self.0) {
            m.push(name, value, unit, String::new());
        }
        m
    }
}

/// Direct calls into the graph layer on an engine workload's graph.
#[derive(Default)]
pub struct GraphProbes {
    build_ns: Vec<u64>,
    port_shift_ns: Vec<u64>,
    bandwidth_ns: Vec<u64>,
}

impl GraphProbes {
    /// Keeps the episode's `graph.build` span and times one
    /// `port_shift_profile` and one `bandwidth` call on `g`.
    pub fn sample(&mut self, g: &dlb_graph::RegularGraph, tracer: &Tracer) {
        let build = tracer
            .spans()
            .iter()
            .rev()
            .find(|s| s.name == "graph.build");
        self.build_ns.extend(build.map(trace::Span::dur_ns));
        let t = Instant::now();
        std::hint::black_box(dlb_graph::relabel::port_shift_profile(g));
        self.port_shift_ns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        std::hint::black_box(dlb_graph::relabel::bandwidth(g));
        self.bandwidth_ns.push(t.elapsed().as_nanos() as u64);
    }

    pub fn fill(&self, l: &mut Layers) {
        l.set("graph.build_ms", median_u64(&self.build_ns) / 1e6);
        let port_shift_ms = median_u64(&self.port_shift_ns) / 1e6;
        l.set("graph.port_shift_profile_ms", port_shift_ms);
        l.set("graph.bandwidth_ms", median_u64(&self.bandwidth_ns) / 1e6);
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    /// The tracer of a traced run, written out at the end.
    pub tracer: Option<Tracer>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("loadbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let fp = probe::Fingerprint::collect();
    let (probe_compute_ms, probe_memory_ms) = probe::host_speed();
    println!(
        "{{\"run_record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"quick\": {}, \"nproc\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"host_probe_compute_ms\": {:.3}, \"host_probe_memory_ms\": {:.3}}}}}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.quick,
        fp.nproc,
        fp.cpu_model.replace('"', "'"),
        fp.rustc.replace('"', "'"),
        fp.commit.replace('"', "'"),
        probe_compute_ms,
        probe_memory_ms
    );

    let started = Instant::now();
    let outcome = match cfg.workload.as_str() {
        "closed-torus" => closed_torus::run(&cfg),
        "open-churn" => open_churn::run(&cfg),
        _ => serve_fleet::run(&cfg),
    };
    let wall = started.elapsed().as_secs_f64();

    if let Some(tracer) = &outcome.tracer {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.jsonl", cfg.workload));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("loadbench: could not write {}: {e}", path.display()),
        }
    }

    println!(
        "{} seed {} ({}, {:.1} s):",
        cfg.workload,
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        wall
    );
    for m in &outcome.metrics.0 {
        println!(
            "  {:<30} {:>16.6} {:<14} {}",
            m.name, m.value, m.unit, m.basis
        );
    }
    let t = &outcome.tally;
    println!(
        "  checks: {} attempted, {} failed (failed_frac {})",
        t.attempted,
        t.failed,
        t.failed as f64 / t.attempted.max(1) as f64
    );
    for f in &t.failures {
        println!("  FAILED: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.failed == 0 && t.attempted > 0,
        t.attempted.max(1),
        t.failed,
        outcome.metrics.to_json()
    );
    ExitCode::SUCCESS
}
