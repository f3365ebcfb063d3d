//! One hosted engine instance: graph × scheme × workload × churn
//! schedule, journaled and snapshot-resumable.
//!
//! A [`Tenant`] owns its [`Engine`], its scheme state, its generator
//! boxes, and an append-only [`Journal`]. Every batch of rounds is run
//! through **recording wrappers** that capture the raw generator
//! output (topology events pre-validation, net injection deltas) so
//! the journal replays the exact same round inputs later — including
//! a round that errors, whose rejected events are recorded too.
//!
//! Replay drives a fresh engine rebuilt from the journal's base
//! snapshot through the recorded rounds and compares the
//! **path-independent outcome** ([`TenantOutcome`]): loads, graph,
//! rotor state, step/injection/event counters and terminal error. The
//! per-path diagnostics (`discrepancy_scans`, `VectorStats.runs`) are
//! deliberately outside the comparison — they count *how* a result was
//! computed, and a replay in one uninterrupted run legitimately
//! dispatches differently than a live tenant served across many
//! scheduler slices.

use std::error::Error;
use std::fmt;

use dlb_core::schemes::{RotorRouter, RotorRouterStar, SendFloor, SendRound};
use dlb_core::{
    Engine, EngineError, LoadVector, NoWorkload, StaticTopology, TopologyEvent, TopologySchedule,
    Workload,
};
use dlb_graph::{BalancingGraph, GraphError, PortOrder, RegularGraph};
use dlb_scenario::WorkloadSpec;
use dlb_topology::{ScheduleSpec, SwapShortfall};

use crate::journal::{Journal, RoundRecord};
use crate::snapshot::{SchemeKind, TenantSnapshot};
use crate::wire::WireError;

/// Errors raised by tenant construction, snapshot resume and replay.
#[derive(Debug, Clone, PartialEq)]
pub enum TenantError {
    /// A snapshot or journal failed to decode.
    Wire(WireError),
    /// A decoded graph or rotor vector failed structural validation.
    Graph(GraphError),
    /// Decoded state that is syntactically valid but semantically
    /// inconsistent (cursor shape mismatch, load/node count mismatch,
    /// out-of-range journal indices).
    Corrupt(String),
}

impl fmt::Display for TenantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantError::Wire(e) => write!(f, "{e}"),
            TenantError::Graph(e) => write!(f, "{e}"),
            TenantError::Corrupt(reason) => write!(f, "corrupt tenant state: {reason}"),
        }
    }
}

impl Error for TenantError {}

impl From<WireError> for TenantError {
    fn from(e: WireError) -> TenantError {
        TenantError::Wire(e)
    }
}

impl From<GraphError> for TenantError {
    fn from(e: GraphError) -> TenantError {
        TenantError::Graph(e)
    }
}

/// The path-independent result of a tenant's run so far: everything
/// the bit-identical execution paths agree on.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// Final loads.
    pub loads: Vec<i64>,
    /// Rounds completed.
    pub step: usize,
    /// Negative node-step count.
    pub negative_node_steps: u64,
    /// Net injected tokens.
    pub injected_total: i64,
    /// Topology events applied (surviving rollback).
    pub topology_events_applied: u64,
    /// Final balancing graph (adjacency, ports, sleep set).
    pub graph: BalancingGraph,
    /// Rotor positions (empty for stateless schemes).
    pub rotors: Vec<u64>,
    /// Terminal error, if the run stopped.
    pub error: Option<EngineError>,
}

/// The concrete scheme a tenant runs; kernel-capable variants take the
/// engine's `run_kernel_dyn` path, ROTOR-ROUTER* the planned
/// `run_dyn` path.
#[derive(Debug, Clone)]
enum SchemeInstance {
    Floor(SendFloor),
    Round(SendRound),
    Rotor(RotorRouter),
    Star(RotorRouterStar),
}

impl SchemeInstance {
    fn build(
        kind: SchemeKind,
        gp: &BalancingGraph,
        rotors: Option<&[u64]>,
    ) -> Result<SchemeInstance, TenantError> {
        let positions = |words: &[u64]| -> Result<Vec<usize>, TenantError> {
            words
                .iter()
                .map(|&w| {
                    usize::try_from(w)
                        .map_err(|_| TenantError::Corrupt(format!("rotor word {w} overflows")))
                })
                .collect()
        };
        Ok(match kind {
            SchemeKind::SendFloor => SchemeInstance::Floor(SendFloor::new()),
            SchemeKind::SendRound => SchemeInstance::Round(SendRound::new()),
            SchemeKind::RotorRouter => SchemeInstance::Rotor(match rotors {
                None => RotorRouter::new(gp, PortOrder::Sequential)?,
                Some(words) => {
                    RotorRouter::with_initial_rotors(gp, PortOrder::Sequential, positions(words)?)?
                }
            }),
            SchemeKind::RotorRouterStar => SchemeInstance::Star(match rotors {
                None => RotorRouterStar::new(gp, PortOrder::Sequential)?,
                Some(words) => RotorRouterStar::with_initial_rotors(
                    gp,
                    PortOrder::Sequential,
                    positions(words)?,
                )?,
            }),
        })
    }

    fn kind(&self) -> SchemeKind {
        match self {
            SchemeInstance::Floor(_) => SchemeKind::SendFloor,
            SchemeInstance::Round(_) => SchemeKind::SendRound,
            SchemeInstance::Rotor(_) => SchemeKind::RotorRouter,
            SchemeInstance::Star(_) => SchemeKind::RotorRouterStar,
        }
    }

    /// Advances `engine` by `steps` rounds on this scheme's path —
    /// `run_kernel_dyn` for the kernel-capable schemes, `run_dyn` for
    /// ROTOR-ROUTER*. Generic over the schedule and workload so
    /// the live and replay callers each keep a monomorphised round
    /// loop.
    fn advance<S: TopologySchedule, W: Workload>(
        &mut self,
        engine: &mut Engine,
        steps: usize,
        schedule: &mut S,
        workload: &mut W,
    ) -> Result<(), EngineError> {
        match self {
            SchemeInstance::Floor(b) => {
                engine.run_kernel_dyn(b, steps, Some(schedule), Some(workload))
            }
            SchemeInstance::Round(b) => {
                engine.run_kernel_dyn(b, steps, Some(schedule), Some(workload))
            }
            SchemeInstance::Rotor(b) => {
                engine.run_kernel_dyn(b, steps, Some(schedule), Some(workload))
            }
            SchemeInstance::Star(b) => engine.run_dyn(b, steps, Some(schedule), Some(workload)),
        }
    }

    fn rotor_words(&self) -> Vec<u64> {
        match self {
            SchemeInstance::Floor(_) | SchemeInstance::Round(_) => Vec::new(),
            SchemeInstance::Rotor(r) => r.rotors().iter().map(|&p| p as u64).collect(),
            SchemeInstance::Star(r) => r.rotors().iter().map(|&p| p as u64).collect(),
        }
    }
}

/// One hosted engine instance. See the [module docs](self).
pub struct Tenant {
    engine: Engine,
    scheme: SchemeInstance,
    workload_spec: Option<WorkloadSpec>,
    workload: Option<Box<dyn Workload>>,
    schedule_spec: ScheduleSpec,
    schedule: Option<Box<dyn TopologySchedule>>,
    journal: Journal,
    error: Option<EngineError>,
}

impl fmt::Debug for Tenant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tenant")
            .field("scheme", &self.scheme.kind())
            .field("rounds_done", &self.engine.step_count())
            .field("workload", &self.workload_spec)
            .field("schedule", &self.schedule_spec)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl Tenant {
    /// Creates a tenant at round zero and opens its journal.
    ///
    /// The schedule/workload generators are built from their specs
    /// ([`ScheduleSpec::Static`] / `None` mean the genuinely closed
    /// regime and keep the vectorized kernel path eligible).
    ///
    /// # Errors
    ///
    /// Returns [`TenantError`] if `initial` does not have one entry
    /// per node, or if the scheme rejects the graph (ROTOR-ROUTER*
    /// requires `d° = d`).
    pub fn new(
        graph: BalancingGraph,
        initial: LoadVector,
        scheme: SchemeKind,
        workload: Option<WorkloadSpec>,
        schedule: ScheduleSpec,
    ) -> Result<Tenant, TenantError> {
        let n = graph.num_nodes();
        if initial.as_slice().len() != n {
            return Err(TenantError::Corrupt(format!(
                "initial loads have {} entries, graph has {n} nodes",
                initial.as_slice().len()
            )));
        }
        let scheme = SchemeInstance::build(scheme, &graph, None)?;
        let engine = Engine::new(graph, initial);
        let mut tenant = Tenant {
            engine,
            scheme,
            workload: workload.as_ref().map(|spec| spec.build(n)),
            workload_spec: workload,
            schedule: schedule.build(),
            schedule_spec: schedule,
            journal: Journal::new(&[]),
            error: None,
        };
        tenant.journal = Journal::new(&tenant.snapshot());
        Ok(tenant)
    }

    /// Rebuilds a tenant from an encoded snapshot, resuming
    /// bit-identically: engine counters, rotor positions and generator
    /// cursors all restored. A fresh journal is opened with this
    /// snapshot as its base.
    ///
    /// # Errors
    ///
    /// Returns [`TenantError`] on undecodable bytes, an invalid graph
    /// or rotor vector, or generator cursors the specs reject.
    pub fn resume_from_snapshot(bytes: &[u8]) -> Result<Tenant, TenantError> {
        let snap = TenantSnapshot::decode(bytes)?;
        Tenant::from_snapshot_contents(snap, Journal::new(bytes))
    }

    fn from_snapshot_contents(
        snap: TenantSnapshot,
        journal: Journal,
    ) -> Result<Tenant, TenantError> {
        let n = snap.engine.graph.num_nodes();
        if snap.engine.loads.len() != n {
            return Err(TenantError::Corrupt(format!(
                "snapshot has {} loads for {n} nodes",
                snap.engine.loads.len()
            )));
        }
        let rotors = (!snap.rotors.is_empty()).then_some(snap.rotors.as_slice());
        let scheme = SchemeInstance::build(snap.scheme, &snap.engine.graph, rotors)?;
        let mut workload = snap.workload.as_ref().map(|spec| spec.build(n));
        if let Some(w) = workload.as_mut() {
            if !w.restore_cursor(&snap.workload_cursor) {
                return Err(TenantError::Corrupt("workload cursor rejected".into()));
            }
        } else if !snap.workload_cursor.is_empty() {
            return Err(TenantError::Corrupt("cursor for an absent workload".into()));
        }
        let mut schedule = snap.schedule.build();
        if let Some(s) = schedule.as_mut() {
            if !s.restore_cursor(&snap.schedule_cursor) {
                return Err(TenantError::Corrupt("schedule cursor rejected".into()));
            }
        } else if !snap.schedule_cursor.is_empty() {
            return Err(TenantError::Corrupt("cursor for a static schedule".into()));
        }
        Ok(Tenant {
            engine: Engine::from_state(snap.engine),
            scheme,
            workload_spec: snap.workload,
            workload,
            schedule_spec: snap.schedule,
            schedule,
            journal,
            error: snap.error,
        })
    }

    /// Serializes the tenant's full resumable state.
    pub fn snapshot(&self) -> Vec<u8> {
        TenantSnapshot {
            engine: self.engine.export_state(),
            scheme: self.scheme.kind(),
            rotors: self.scheme.rotor_words(),
            error: self.error.clone(),
            workload: self.workload_spec.clone(),
            workload_cursor: self
                .workload
                .as_ref()
                .map(|w| w.cursor())
                .unwrap_or_default(),
            schedule: self.schedule_spec.clone(),
            schedule_cursor: self
                .schedule
                .as_ref()
                .map(|s| s.cursor())
                .unwrap_or_default(),
        }
        .encode()
    }

    /// Runs `rounds` more rounds, journaling every generator output.
    ///
    /// Returns `true` if the batch completed cleanly; `false` if the
    /// tenant was already stopped or stopped during the batch (the
    /// error is recorded in the journal and via [`Tenant::error`], and
    /// all subsequent batches are no-ops).
    pub fn run_rounds(&mut self, rounds: usize) -> bool {
        if self.error.is_some() || rounds == 0 {
            return false;
        }
        let mut event_log: Vec<(u64, Vec<TopologyEvent>)> = Vec::new();
        let mut inject_log: Vec<(u64, Vec<(u32, i64)>)> = Vec::new();
        let mut static_topo = StaticTopology;
        let mut no_workload = NoWorkload;
        let schedule_inner: &mut dyn TopologySchedule = match self.schedule.as_mut() {
            Some(s) => &mut **s,
            None => &mut static_topo,
        };
        let workload_inner: &mut dyn Workload = match self.workload.as_mut() {
            Some(w) => &mut **w,
            None => &mut no_workload,
        };
        let mut recording_schedule = RecordingSchedule {
            inner: schedule_inner,
            log: &mut event_log,
        };
        let mut recording_workload = RecordingWorkload {
            inner: workload_inner,
            log: &mut inject_log,
        };
        let result = self.scheme.advance(
            &mut self.engine,
            rounds,
            &mut recording_schedule,
            &mut recording_workload,
        );
        self.append_logs(event_log, inject_log);
        match result {
            Ok(()) => {
                self.journal.record_advance(self.engine.step_count() as u64);
                true
            }
            Err(e) => {
                // The erroring round rolled back, so step_count() is
                // the last completed round; replay must still attempt
                // the next round to reproduce the error.
                let through = error_step(&e)
                    .map(|s| s as u64)
                    .unwrap_or(self.engine.step_count() as u64 + 1);
                self.journal.record_advance(through);
                self.journal.record_error(&e);
                self.error = Some(e);
                false
            }
        }
    }

    /// Merges the per-round event and injection logs (both ascending
    /// in round) into journal round records.
    fn append_logs(
        &mut self,
        event_log: Vec<(u64, Vec<TopologyEvent>)>,
        inject_log: Vec<(u64, Vec<(u32, i64)>)>,
    ) {
        let mut events = event_log.into_iter().peekable();
        let mut deltas = inject_log.into_iter().peekable();
        loop {
            let next_round = match (events.peek(), deltas.peek()) {
                (Some(&(er, _)), Some(&(dr, _))) => er.min(dr),
                (Some(&(er, _)), None) => er,
                (None, Some(&(dr, _))) => dr,
                (None, None) => break,
            };
            let ev = match events.peek() {
                Some(&(r, _)) if r == next_round => {
                    events.next().map(|(_, e)| e).unwrap_or_default()
                }
                _ => Vec::new(),
            };
            let dv = match deltas.peek() {
                Some(&(r, _)) if r == next_round => {
                    deltas.next().map(|(_, d)| d).unwrap_or_default()
                }
                _ => Vec::new(),
            };
            self.journal.record_round(next_round, &ev, &dv);
        }
    }

    /// The terminal error, if the tenant has stopped.
    pub fn error(&self) -> Option<&EngineError> {
        self.error.as_ref()
    }

    /// Rounds completed so far (absolute, including pre-snapshot
    /// history for resumed tenants).
    pub fn rounds_done(&self) -> usize {
        self.engine.step_count()
    }

    /// The scheme this tenant runs.
    pub fn scheme(&self) -> SchemeKind {
        self.scheme.kind()
    }

    /// Current loads.
    pub fn loads(&self) -> &LoadVector {
        self.engine.loads()
    }

    /// The tenant's journal (header + base snapshot + records).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The path-independent outcome of the run so far.
    pub fn outcome(&self) -> TenantOutcome {
        let state = self.engine.export_state();
        TenantOutcome {
            loads: state.loads,
            step: state.step,
            negative_node_steps: state.negative_node_steps,
            injected_total: state.injected_total,
            topology_events_applied: state.topology_events_applied,
            graph: state.graph,
            rotors: self.scheme.rotor_words(),
            error: self.error.clone(),
        }
    }

    /// Replays a journal from its base snapshot: rebuilds the engine
    /// and scheme, feeds the recorded events/deltas back, and drives
    /// to the recorded horizon.
    ///
    /// # Errors
    ///
    /// Returns [`TenantError`] on an undecodable journal or recorded
    /// node indices outside the graph.
    pub fn replay(journal: &Journal) -> Result<TenantOutcome, TenantError> {
        let contents = journal.decode()?;
        let n = contents.base.engine.graph.num_nodes();
        for rec in &contents.rounds {
            if rec.deltas.iter().any(|&(u, _)| u as usize >= n) {
                return Err(TenantError::Corrupt(format!(
                    "journal round {} injects outside the graph",
                    rec.round
                )));
            }
        }
        let base_step = contents.base.engine.step as u64;
        let rotors = (!contents.base.rotors.is_empty()).then_some(contents.base.rotors.as_slice());
        let mut scheme =
            SchemeInstance::build(contents.base.scheme, &contents.base.engine.graph, rotors)?;
        let mut engine = Engine::from_state(contents.base.engine.clone());
        let mut error = contents.base.error.clone();
        if error.is_none() && contents.through_round > base_step {
            let steps = (contents.through_round - base_step) as usize;
            let mut replay_schedule = ReplaySchedule {
                records: &contents.rounds,
                idx: 0,
            };
            let mut replay_workload = ReplayWorkload {
                records: &contents.rounds,
                idx: 0,
            };
            if let Err(e) = scheme.advance(
                &mut engine,
                steps,
                &mut replay_schedule,
                &mut replay_workload,
            ) {
                error = Some(e);
            }
        }
        let state = engine.export_state();
        Ok(TenantOutcome {
            loads: state.loads,
            step: state.step,
            negative_node_steps: state.negative_node_steps,
            injected_total: state.injected_total,
            topology_events_applied: state.topology_events_applied,
            graph: state.graph,
            rotors: scheme.rotor_words(),
            error,
        })
    }

    /// Replays this tenant's own journal and compares against the live
    /// state — the serve layer's end-to-end integrity check.
    ///
    /// # Errors
    ///
    /// Returns [`TenantError`] if the journal fails to decode (replay
    /// *divergence* is the `Ok(false)` case, not an error).
    pub fn replay_matches(&self) -> Result<bool, TenantError> {
        Ok(Tenant::replay(&self.journal)? == self.outcome())
    }
}

fn error_step(e: &EngineError) -> Option<usize> {
    match e {
        EngineError::Overdraw { step, .. }
        | EngineError::NegativeLoad { step, .. }
        | EngineError::Topology { step, .. }
        | EngineError::WorkerPanic { step, .. } => Some(*step),
        EngineError::ShapeMismatch { .. } => None,
        _ => None,
    }
}

/// Wraps a live schedule, logging every emitted event (pre-validation)
/// keyed by round.
struct RecordingSchedule<'a> {
    inner: &'a mut dyn TopologySchedule,
    log: &'a mut Vec<(u64, Vec<TopologyEvent>)>,
}

impl TopologySchedule for RecordingSchedule<'_> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn events(&mut self, round: usize, graph: &RegularGraph, out: &mut Vec<TopologyEvent>) {
        let before = out.len();
        self.inner.events(round, graph, out);
        if out.len() > before {
            self.log.push((round as u64, out[before..].to_vec()));
        }
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

/// Wraps a live workload, logging the net per-round deltas (the engine
/// hands the workload a zeroed buffer, so the non-zero entries after
/// the inner call are exactly this round's net injection).
struct RecordingWorkload<'a> {
    inner: &'a mut dyn Workload,
    log: &'a mut Vec<(u64, Vec<(u32, i64)>)>,
}

impl RecordingWorkload<'_> {
    fn record(&mut self, round: usize, deltas: &[i64]) {
        let sparse: Vec<(u32, i64)> = deltas
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != 0)
            .map(|(u, &d)| (u as u32, d))
            .collect();
        if !sparse.is_empty() {
            self.log.push((round as u64, sparse));
        }
    }
}

impl Workload for RecordingWorkload<'_> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn inject(&mut self, round: usize, loads: &[i64], deltas: &mut [i64]) {
        self.inner.inject(round, loads, deltas);
        self.record(round, deltas);
    }

    fn inject_with_hint(
        &mut self,
        round: usize,
        loads: &[i64],
        argmax: Option<(usize, i64)>,
        deltas: &mut [i64],
    ) {
        self.inner.inject_with_hint(round, loads, argmax, deltas);
        self.record(round, deltas);
    }

    fn reset(&mut self) {
        self.inner.reset();
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

/// Feeds recorded topology events back, round by round.
struct ReplaySchedule<'a> {
    records: &'a [RoundRecord],
    idx: usize,
}

impl TopologySchedule for ReplaySchedule<'_> {
    fn label(&self) -> String {
        "replay".into()
    }

    fn events(&mut self, round: usize, _graph: &RegularGraph, out: &mut Vec<TopologyEvent>) {
        while self
            .records
            .get(self.idx)
            .is_some_and(|r| r.round < round as u64)
        {
            self.idx += 1;
        }
        if let Some(rec) = self.records.get(self.idx) {
            if rec.round == round as u64 {
                out.extend(rec.events.iter().cloned());
            }
        }
    }

    fn is_noop(&self) -> bool {
        // No recorded events anywhere: the replay is churn-free and the
        // vectorized kernel rounds stay eligible, like the live run.
        self.records.iter().all(|r| r.events.is_empty())
    }
}

/// Feeds recorded injection deltas back, round by round.
struct ReplayWorkload<'a> {
    records: &'a [RoundRecord],
    idx: usize,
}

impl Workload for ReplayWorkload<'_> {
    fn label(&self) -> String {
        "replay".into()
    }

    fn inject(&mut self, round: usize, _loads: &[i64], deltas: &mut [i64]) {
        while self
            .records
            .get(self.idx)
            .is_some_and(|r| r.round < round as u64)
        {
            self.idx += 1;
        }
        if let Some(rec) = self.records.get(self.idx) {
            if rec.round == round as u64 {
                for &(u, d) in &rec.deltas {
                    deltas[u as usize] += d;
                }
            }
        }
    }

    fn is_noop(&self) -> bool {
        self.records.iter().all(|r| r.deltas.is_empty())
    }
}
