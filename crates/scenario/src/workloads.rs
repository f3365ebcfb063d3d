//! Concrete [`Workload`] generators.
//!
//! All generators are deterministic: randomized ones take explicit
//! seeds and draw from the vendored deterministic RNG, and every
//! generator's [`reset`](Workload::reset) restores the exact
//! post-construction state so one instance can replay its delta stream
//! — the property the differential tests and the scenario harness use
//! to drive every engine path with identical injection.

use dlb_core::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Steady Poisson-like arrivals: every round, `rate` tokens land on
/// independently uniform nodes (the discretised arrival stream of an
/// open queueing system; over many rounds each node receives a
/// binomially distributed — in the limit Poisson — share).
#[derive(Debug, Clone)]
pub struct SteadyArrivals {
    rate: u64,
    seed: u64,
    rng: StdRng,
}

impl SteadyArrivals {
    /// `rate` tokens per round, placement driven by `seed`.
    pub fn new(rate: u64, seed: u64) -> Self {
        SteadyArrivals {
            rate,
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Workload for SteadyArrivals {
    fn label(&self) -> String {
        format!("steady(+{}/round)", self.rate)
    }

    fn inject(&mut self, _round: usize, loads: &[i64], deltas: &mut [i64]) {
        let n = loads.len();
        for _ in 0..self.rate {
            deltas[self.rng.gen_range(0..n)] += 1;
        }
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    // The RNG position is the only mutable state.
    fn cursor(&self) -> Vec<u64> {
        self.rng.state().to_vec()
    }

    fn restore_cursor(&mut self, cursor: &[u64]) -> bool {
        match <[u64; 4]>::try_from(cursor) {
            Ok(s) => {
                self.rng = StdRng::from_state(s);
                true
            }
            Err(_) => false,
        }
    }
}

/// Bursty on/off arrivals: `on` rounds of steady arrivals at `rate`
/// tokens/round, then `off` quiet rounds, repeating. The RNG advances
/// only during on-phases, so the phase structure — not wall-clock
/// round numbers — determines the stream.
#[derive(Debug, Clone)]
pub struct BurstyOnOff {
    on: usize,
    off: usize,
    rate: u64,
    seed: u64,
    rng: StdRng,
}

impl BurstyOnOff {
    /// `on` injecting rounds then `off` quiet rounds, repeating;
    /// `rate` tokens per injecting round.
    ///
    /// # Panics
    ///
    /// Panics if `on == 0` (the workload would never inject and the
    /// caller almost certainly meant [`crate::NoWorkload`]).
    pub fn new(on: usize, off: usize, rate: u64, seed: u64) -> Self {
        assert!(on > 0, "bursty workload needs a non-empty on-phase");
        BurstyOnOff {
            on,
            off,
            rate,
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Whether round `round` (1-based) falls in an on-phase.
    pub fn is_on(&self, round: usize) -> bool {
        (round - 1) % (self.on + self.off) < self.on
    }
}

impl Workload for BurstyOnOff {
    fn label(&self) -> String {
        format!("bursty({}on/{}off,+{})", self.on, self.off, self.rate)
    }

    fn inject(&mut self, round: usize, loads: &[i64], deltas: &mut [i64]) {
        if !self.is_on(round) {
            return;
        }
        let n = loads.len();
        for _ in 0..self.rate {
            deltas[self.rng.gen_range(0..n)] += 1;
        }
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    // The phase is a pure function of the (engine-supplied) round
    // number, so the RNG position is again the whole cursor.
    fn cursor(&self) -> Vec<u64> {
        self.rng.state().to_vec()
    }

    fn restore_cursor(&mut self, cursor: &[u64]) -> bool {
        match <[u64; 4]>::try_from(cursor) {
            Ok(s) => {
                self.rng = StdRng::from_state(s);
                true
            }
            Err(_) => false,
        }
    }
}

/// Hotspot: floods one fixed node with `rate` tokens every round — the
/// worst spatial correlation an arrival process can have, and the
/// dynamic analogue of the paper's point-mass initial distribution.
#[derive(Debug, Clone, Copy)]
pub struct Hotspot {
    node: usize,
    rate: u64,
}

impl Hotspot {
    /// `rate` tokens per round, all on `node`.
    pub fn new(node: usize, rate: u64) -> Self {
        Hotspot { node, rate }
    }
}

impl Workload for Hotspot {
    fn label(&self) -> String {
        format!("hotspot(node {},+{}/round)", self.node, self.rate)
    }

    fn inject(&mut self, _round: usize, _loads: &[i64], deltas: &mut [i64]) {
        deltas[self.node] += self.rate as i64;
    }
}

/// Drain: designated sink nodes each consume up to `rate` tokens per
/// round (work leaving the system — completed requests, expiring
/// jobs). Clamped by default: a sink never removes more than the node
/// holds, so non-overdrawing schemes stay error-free.
/// [`Drain::unclamped`] removes exactly `rate` regardless — the
/// configuration the differential tests use to *provoke* the engines'
/// negative-load handling mid-run.
#[derive(Debug, Clone)]
pub struct Drain {
    sinks: Vec<usize>,
    rate: u64,
    clamped: bool,
}

impl Drain {
    /// Sinks each consuming up to `rate` tokens/round (clamped at the
    /// node's current non-negative load).
    pub fn new(sinks: Vec<usize>, rate: u64) -> Self {
        Drain {
            sinks,
            rate,
            clamped: true,
        }
    }

    /// Sinks each removing exactly `rate` tokens/round, even past
    /// zero — drives loads negative by design.
    pub fn unclamped(sinks: Vec<usize>, rate: u64) -> Self {
        Drain {
            sinks,
            rate,
            clamped: false,
        }
    }
}

impl Workload for Drain {
    fn label(&self) -> String {
        format!(
            "drain({} sinks,-{}/round{})",
            self.sinks.len(),
            self.rate,
            if self.clamped { "" } else { ",unclamped" }
        )
    }

    fn inject(&mut self, _round: usize, loads: &[i64], deltas: &mut [i64]) {
        for &s in &self.sinks {
            let take = if self.clamped {
                (self.rate as i64).min(loads[s].max(0))
            } else {
                self.rate as i64
            };
            deltas[s] -= take;
        }
    }
}

/// The bounded adversary of the dynamic-network model: each round it
/// spends its whole budget of `B` tokens on the currently most-loaded
/// node (ties to the lowest id), making the hottest spot hotter — the
/// placement that maximally fights the balancer while staying within
/// the `≤ B` tokens/round bound under which steady-state discrepancy
/// results are stated.
///
/// Argmax-aware: on the planned execution paths the engine maintains
/// an incremental load index and serves the `(argmax, max)` pair as a
/// hint, so the adversary injects without rescanning the load vector;
/// on the plan-free paths (no hint) it falls back to its own full
/// scan, counted in [`scans`](BoundedAdversary::scans) — the counter
/// the regression tests pin so the planned paths can never silently
/// regress to one `O(n)` scan per injecting round.
#[derive(Debug, Clone, Copy)]
pub struct BoundedAdversary {
    budget: u64,
    scans: u64,
}

impl BoundedAdversary {
    /// An adversary injecting `budget` tokens per round.
    pub fn new(budget: u64) -> Self {
        BoundedAdversary { budget, scans: 0 }
    }

    /// Full `O(n)` argmax scans this instance has performed (zero when
    /// every injection was served from the engine's hint).
    pub fn scans(&self) -> u64 {
        self.scans
    }

    /// The counted fallback scan: lowest id on ties, exactly the tie
    /// rule of the engine's index.
    fn scan_argmax(&mut self, loads: &[i64]) -> usize {
        self.scans += 1;
        let mut target = 0usize;
        for (u, &x) in loads.iter().enumerate() {
            if x > loads[target] {
                target = u;
            }
        }
        target
    }
}

impl Workload for BoundedAdversary {
    fn label(&self) -> String {
        format!("adversary(B={})", self.budget)
    }

    fn inject(&mut self, _round: usize, loads: &[i64], deltas: &mut [i64]) {
        let target = self.scan_argmax(loads);
        deltas[target] += self.budget as i64;
    }

    fn needs_argmax(&self) -> bool {
        true
    }

    fn inject_with_hint(
        &mut self,
        round: usize,
        loads: &[i64],
        argmax: Option<(usize, i64)>,
        deltas: &mut [i64],
    ) {
        match argmax {
            Some((target, _)) => deltas[target] += self.budget as i64,
            None => self.inject(round, loads, deltas),
        }
    }

    fn reset(&mut self) {
        self.scans = 0;
    }

    // The injection stream itself is a pure function of the loads; the
    // cursor only carries the fallback-scan tally so perf accounting
    // survives a checkpoint.
    fn cursor(&self) -> Vec<u64> {
        vec![self.scans]
    }

    fn restore_cursor(&mut self, cursor: &[u64]) -> bool {
        match cursor {
            [scans] => {
                self.scans = *scans;
                true
            }
            _ => false,
        }
    }
}

/// Sums the deltas of several workloads (arrivals plus drains gives a
/// flow-equilibrium scenario). Each child sees a private zeroed buffer,
/// so children that *set* rather than *add* entries still compose.
pub struct Compose {
    children: Vec<Box<dyn Workload>>,
    scratch: Vec<i64>,
}

impl Compose {
    /// Composes `children` by summing their per-round deltas.
    pub fn new(children: Vec<Box<dyn Workload>>) -> Self {
        Compose {
            children,
            scratch: Vec::new(),
        }
    }
}

impl Workload for Compose {
    fn label(&self) -> String {
        let parts: Vec<String> = self.children.iter().map(|c| c.label()).collect();
        format!("compose({})", parts.join(" + "))
    }

    fn inject(&mut self, round: usize, loads: &[i64], deltas: &mut [i64]) {
        self.inject_with_hint(round, loads, None, deltas);
    }

    /// A composition wants the argmax whenever any child does, and
    /// forwards the engine's hint — every child sees the same
    /// pre-round loads, so the same hint is valid for all of them. A
    /// composed `BoundedAdversary` therefore keeps the zero-scan
    /// guarantee of the planned paths.
    fn needs_argmax(&self) -> bool {
        self.children.iter().any(|c| c.needs_argmax())
    }

    fn inject_with_hint(
        &mut self,
        round: usize,
        loads: &[i64],
        argmax: Option<(usize, i64)>,
        deltas: &mut [i64],
    ) {
        self.scratch.resize(loads.len(), 0);
        for child in &mut self.children {
            self.scratch.fill(0);
            child.inject_with_hint(round, loads, argmax, &mut self.scratch);
            for (d, &s) in deltas.iter_mut().zip(&self.scratch) {
                *d += s;
            }
        }
    }

    fn reset(&mut self) {
        for child in &mut self.children {
            child.reset();
        }
    }

    // Length-prefixed per-child frames, so heterogeneous children
    // (including nested compositions) round-trip unambiguously.
    fn cursor(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for child in &self.children {
            let frame = child.cursor();
            out.push(frame.len() as u64);
            out.extend(frame);
        }
        out
    }

    fn restore_cursor(&mut self, cursor: &[u64]) -> bool {
        let mut rest = cursor;
        let mut ok = true;
        for child in &mut self.children {
            let Some((&len, tail)) = rest.split_first() else {
                return false;
            };
            if tail.len() < len as usize {
                return false;
            }
            let (frame, next) = tail.split_at(len as usize);
            ok &= child.restore_cursor(frame);
            rest = next;
        }
        ok && rest.is_empty()
    }
}

/// A named workload configuration — the injection axis of every
/// scenario experiment, mirroring the harness's `SchemeSpec`/
/// `GraphSpec` pattern: a spec is `Clone + Eq`, builds a fresh
/// generator per engine path (identical streams), and labels JSON
/// rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// [`SteadyArrivals`].
    Steady {
        /// Tokens per round.
        rate: u64,
        /// Placement seed.
        seed: u64,
    },
    /// [`BurstyOnOff`].
    Bursty {
        /// Injecting rounds per period.
        on: usize,
        /// Quiet rounds per period.
        off: usize,
        /// Tokens per injecting round.
        rate: u64,
        /// Placement seed.
        seed: u64,
    },
    /// [`Hotspot`] on node 0.
    Hotspot {
        /// Tokens per round.
        rate: u64,
    },
    /// [`Drain`] (clamped) at every 8th node.
    Drain {
        /// Per-sink tokens removed per round.
        rate: u64,
    },
    /// [`Drain::unclamped`] at every 8th node — drives loads negative.
    DrainUnclamped {
        /// Per-sink tokens removed per round.
        rate: u64,
    },
    /// [`BoundedAdversary`].
    Adversary {
        /// Tokens per round, spent on the most-loaded node.
        budget: u64,
    },
    /// [`Compose`]: steady arrivals plus a clamped drain sized to
    /// absorb them — the flow-equilibrium scenario whose total load
    /// hovers around its initial value.
    ArriveAndDrain {
        /// Arrival tokens per round (drain capacity matches).
        rate: u64,
        /// Placement seed.
        seed: u64,
    },
}

impl WorkloadSpec {
    /// The sinks the drain-style specs use: every 8th node.
    fn sinks(n: usize) -> Vec<usize> {
        (0..n).step_by(8).collect()
    }

    /// Instantiates the workload for an `n`-node graph.
    pub fn build(&self, n: usize) -> Box<dyn Workload> {
        match *self {
            WorkloadSpec::Steady { rate, seed } => Box::new(SteadyArrivals::new(rate, seed)),
            WorkloadSpec::Bursty {
                on,
                off,
                rate,
                seed,
            } => Box::new(BurstyOnOff::new(on, off, rate, seed)),
            WorkloadSpec::Hotspot { rate } => Box::new(Hotspot::new(0, rate)),
            WorkloadSpec::Drain { rate } => Box::new(Drain::new(Self::sinks(n), rate)),
            WorkloadSpec::DrainUnclamped { rate } => {
                Box::new(Drain::unclamped(Self::sinks(n), rate))
            }
            WorkloadSpec::Adversary { budget } => Box::new(BoundedAdversary::new(budget)),
            WorkloadSpec::ArriveAndDrain { rate, seed } => {
                let sinks = Self::sinks(n);
                // Per-sink capacity sized so the sinks can absorb the
                // arrival rate once flow reaches them.
                let per_sink = (rate as usize).div_ceil(sinks.len()) as u64;
                Box::new(Compose::new(vec![
                    Box::new(SteadyArrivals::new(rate, seed)),
                    Box::new(Drain::new(sinks, per_sink)),
                ]))
            }
        }
    }

    /// A short label for tables and JSON rows.
    pub fn label(&self) -> String {
        match *self {
            WorkloadSpec::Steady { rate, .. } => format!("steady(+{rate})"),
            WorkloadSpec::Bursty { on, off, rate, .. } => format!("bursty({on}/{off},+{rate})"),
            WorkloadSpec::Hotspot { rate } => format!("hotspot(+{rate})"),
            WorkloadSpec::Drain { rate } => format!("drain(-{rate})"),
            WorkloadSpec::DrainUnclamped { rate } => format!("drain!(-{rate})"),
            WorkloadSpec::Adversary { budget } => format!("adversary(B={budget})"),
            WorkloadSpec::ArriveAndDrain { rate, .. } => format!("arrive+drain({rate})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(w: &mut dyn Workload, n: usize, rounds: usize) -> Vec<Vec<i64>> {
        let loads = vec![10i64; n];
        (1..=rounds)
            .map(|r| {
                let mut d = vec![0i64; n];
                w.inject(r, &loads, &mut d);
                d
            })
            .collect()
    }

    #[test]
    fn steady_injects_exactly_rate_and_replays_after_reset() {
        let mut w = SteadyArrivals::new(7, 3);
        let a = collect(&mut w, 16, 5);
        for d in &a {
            assert_eq!(d.iter().sum::<i64>(), 7);
            assert!(d.iter().all(|&x| x >= 0));
        }
        w.reset();
        assert_eq!(collect(&mut w, 16, 5), a, "reset must replay the stream");
    }

    #[test]
    fn bursty_respects_phases() {
        let mut w = BurstyOnOff::new(2, 3, 5, 1);
        let ds = collect(&mut w, 8, 10);
        let sums: Vec<i64> = ds.iter().map(|d| d.iter().sum()).collect();
        assert_eq!(sums, vec![5, 5, 0, 0, 0, 5, 5, 0, 0, 0]);
    }

    #[test]
    fn hotspot_targets_one_node() {
        let mut w = Hotspot::new(3, 9);
        let ds = collect(&mut w, 8, 2);
        assert_eq!(ds[0][3], 9);
        assert_eq!(ds[0].iter().sum::<i64>(), 9);
    }

    #[test]
    fn clamped_drain_never_overdraws() {
        let mut w = Drain::new(vec![0, 2], 7);
        let loads = vec![3i64, 10, 20, 0];
        let mut d = vec![0i64; 4];
        w.inject(1, &loads, &mut d);
        assert_eq!(d, vec![-3, 0, -7, 0], "sink 0 clamps at its load");
        // Unclamped removes the full rate regardless.
        let mut w = Drain::unclamped(vec![0], 7);
        let mut d = vec![0i64; 4];
        w.inject(1, &loads, &mut d);
        assert_eq!(d[0], -7);
    }

    #[test]
    fn clamped_drain_ignores_negative_loads() {
        let mut w = Drain::new(vec![0], 5);
        let loads = vec![-4i64, 1, 1, 1];
        let mut d = vec![0i64; 4];
        w.inject(1, &loads, &mut d);
        assert_eq!(d[0], 0, "nothing to take from a negative node");
    }

    #[test]
    fn adversary_floods_the_argmax_lowest_id_on_ties() {
        let mut w = BoundedAdversary::new(4);
        let loads = vec![1i64, 9, 9, 2];
        let mut d = vec![0i64; 4];
        w.inject(1, &loads, &mut d);
        assert_eq!(d, vec![0, 4, 0, 0]);
        assert_eq!(w.scans(), 1, "the fallback scan is counted");
        // A hint bypasses the scan entirely and must be trusted.
        let mut d = vec![0i64; 4];
        w.inject_with_hint(2, &loads, Some((1, 9)), &mut d);
        assert_eq!(d, vec![0, 4, 0, 0]);
        assert_eq!(w.scans(), 1, "hinted injection must not rescan");
        w.reset();
        assert_eq!(w.scans(), 0);
    }

    /// Regression (PR 5): the adversary used to rescan the full load
    /// vector for its argmax every injecting round on *every* path.
    /// The planned paths now serve it from the engine's incrementally
    /// maintained load index — zero adversary scans over an entire
    /// run — while the plan-free paths keep the (counted) fallback and
    /// still land on the identical target.
    #[test]
    fn adversary_scans_are_zero_on_the_planned_paths() {
        use dlb_core::schemes::SendFloor;
        use dlb_core::{Engine, LoadVector, StaticTopology};
        use dlb_graph::{generators, BalancingGraph};

        let gp = BalancingGraph::lazy(generators::cycle(32).unwrap());
        let initial = LoadVector::point_mass(32, 320);

        let mut planned = BoundedAdversary::new(7);
        let mut engine = Engine::new(gp.clone(), initial.clone());
        engine
            .run_dyn(&mut SendFloor::new(), 60, None, Some(&mut planned))
            .unwrap();
        assert_eq!(
            planned.scans(),
            0,
            "planned paths must serve the argmax from the engine index"
        );
        let planned_loads = engine.loads().clone();

        let mut fallback = BoundedAdversary::new(7);
        let mut kernel = Engine::new(gp, initial);
        kernel
            .run_kernel_dyn(
                &mut SendFloor::new(),
                60,
                StaticTopology::none(),
                Some(&mut fallback),
            )
            .unwrap();
        assert_eq!(fallback.scans(), 60, "kernel path pays one scan per round");
        assert_eq!(
            kernel.loads(),
            &planned_loads,
            "hint and scan must pick identical targets"
        );
    }

    /// Regression (PR 5 review): `Compose` must forward the argmax
    /// capability and hint — a composed adversary keeps the planned
    /// paths' zero-scan guarantee instead of silently regressing to
    /// one full scan per injecting round.
    #[test]
    fn composed_adversary_keeps_the_zero_scan_guarantee() {
        use dlb_core::schemes::SendFloor;
        use dlb_core::{Engine, LoadVector};
        use dlb_graph::{generators, BalancingGraph};

        /// Panics if the engine ever injects it without a hint.
        struct DemandsHint;
        impl Workload for DemandsHint {
            fn label(&self) -> String {
                "demands-hint".into()
            }
            fn needs_argmax(&self) -> bool {
                true
            }
            fn inject(&mut self, _round: usize, _loads: &[i64], _deltas: &mut [i64]) {
                panic!("planned paths must serve composed children from the engine index");
            }
            fn inject_with_hint(
                &mut self,
                _round: usize,
                loads: &[i64],
                argmax: Option<(usize, i64)>,
                deltas: &mut [i64],
            ) {
                let (node, load) = argmax.expect("hint must be forwarded through Compose");
                assert_eq!(load, loads[node]);
                deltas[node] += 5;
            }
        }

        let mut composed = Compose::new(vec![
            Box::new(DemandsHint),
            Box::new(SteadyArrivals::new(3, 2)),
        ]);
        assert!(composed.needs_argmax(), "any argmax-hungry child suffices");
        let gp = BalancingGraph::lazy(generators::cycle(16).unwrap());
        let mut engine = Engine::new(gp, LoadVector::point_mass(16, 160));
        engine
            .run_dyn(&mut SendFloor::new(), 40, None, Some(&mut composed))
            .unwrap();
        assert_eq!(engine.injected_total(), 40 * (5 + 3));

        // At the trait level, a hint reaches each child verbatim.
        let mut compose = Compose::new(vec![Box::new(BoundedAdversary::new(5))]);
        let loads = vec![1i64, 9, 2, 2];
        let mut deltas = vec![0i64; 4];
        compose.inject_with_hint(1, &loads, Some((1, 9)), &mut deltas);
        assert_eq!(deltas, vec![0, 5, 0, 0], "hint forwarded to the child");
    }

    #[test]
    fn compose_sums_children() {
        let mut w = Compose::new(vec![
            Box::new(Hotspot::new(0, 3)),
            Box::new(Drain::new(vec![0, 1], 2)),
        ]);
        let loads = vec![10i64, 10];
        let mut d = vec![0i64; 2];
        w.inject(1, &loads, &mut d);
        assert_eq!(d, vec![1, -2]);
    }

    /// A fresh same-spec instance restored from a mid-stream cursor
    /// must continue the original's delta stream exactly — the
    /// checkpoint contract every snapshotting tenant relies on.
    #[test]
    fn cursors_resume_the_stream_mid_phase() {
        let check = |mut original: Box<dyn Workload>, mut fresh: Box<dyn Workload>| {
            let label = original.label();
            let _ = collect(original.as_mut(), 16, 7); // advance mid-stream
            let cursor = original.cursor();
            assert!(
                fresh.restore_cursor(&cursor),
                "{label}: cursor shape must match the spec-built instance"
            );
            // `collect` replays rounds 1..=5, but these generators'
            // streams depend on round numbers only through phase
            // structure; the adversary and drains are load-driven.
            let continued = collect(original.as_mut(), 16, 5);
            let restored = collect(fresh.as_mut(), 16, 5);
            assert_eq!(
                restored, continued,
                "{label}: stream diverged after restore"
            );
        };
        check(
            Box::new(SteadyArrivals::new(7, 3)),
            Box::new(SteadyArrivals::new(7, 3)),
        );
        check(
            Box::new(BurstyOnOff::new(3, 2, 5, 1)),
            Box::new(BurstyOnOff::new(3, 2, 5, 1)),
        );
        check(Box::new(Hotspot::new(2, 4)), Box::new(Hotspot::new(2, 4)));
        check(
            Box::new(Drain::new(vec![0, 8], 2)),
            Box::new(Drain::new(vec![0, 8], 2)),
        );
        let compose = || -> Box<dyn Workload> {
            Box::new(Compose::new(vec![
                Box::new(SteadyArrivals::new(4, 9)),
                Box::new(BoundedAdversary::new(3)),
            ]))
        };
        check(compose(), compose());
    }

    #[test]
    fn cursor_restores_reject_mismatched_shapes() {
        let mut w = SteadyArrivals::new(7, 3);
        assert!(!w.restore_cursor(&[1, 2, 3]), "wrong length");
        let mut a = BoundedAdversary::new(4);
        a.inject(1, &[3, 1], &mut [0, 0]);
        let cursor = a.cursor();
        assert_eq!(cursor, vec![1], "scan tally travels in the cursor");
        let mut fresh = BoundedAdversary::new(4);
        assert!(fresh.restore_cursor(&cursor));
        assert_eq!(fresh.scans(), 1);
        assert!(!fresh.restore_cursor(&[1, 2]), "wrong length");
        let mut c = Compose::new(vec![Box::new(SteadyArrivals::new(1, 1))]);
        assert!(!c.restore_cursor(&[9, 0, 0]), "frame longer than cursor");
        assert!(!c.restore_cursor(&[4, 0, 0, 0, 0, 7]), "trailing words");
    }

    #[test]
    fn specs_build_and_label() {
        let specs = [
            WorkloadSpec::Steady { rate: 4, seed: 1 },
            WorkloadSpec::Bursty {
                on: 2,
                off: 2,
                rate: 4,
                seed: 1,
            },
            WorkloadSpec::Hotspot { rate: 4 },
            WorkloadSpec::Drain { rate: 2 },
            WorkloadSpec::DrainUnclamped { rate: 2 },
            WorkloadSpec::Adversary { budget: 4 },
            WorkloadSpec::ArriveAndDrain { rate: 8, seed: 1 },
        ];
        for spec in &specs {
            let mut w = spec.build(32);
            assert!(!spec.label().is_empty());
            assert!(!w.label().is_empty());
            let loads = vec![5i64; 32];
            let mut d = vec![0i64; 32];
            w.inject(1, &loads, &mut d);
            w.reset();
        }
    }
}
