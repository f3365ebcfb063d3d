//! Plan-free delta kernels: the engine's fastest serial path.
//!
//! Every scheme in the paper is a *local* rule — node `u`'s outgoing
//! flows at step `t` are a pure function of `x_t(u)` (plus, for the
//! rotor-router, a rotor position). The planned paths nevertheless
//! materialise the full [`FlowPlan`](crate::FlowPlan) matrix every
//! round: `n·d⁺` `u64` writes that the engine immediately re-reads,
//! sums, and discards. The kernel path removes that round trip
//! entirely: [`Engine::run_kernel`](crate::Engine::run_kernel) streams
//! once over the CSR adjacency per round, computes each node's port
//! flows in registers (a stack buffer the optimiser scalarises), and
//! applies signed load deltas into a double-buffered `Vec<i64>` — no
//! plan writes, no touched-set bookkeeping, no plan for a fairness
//! monitor to observe.
//!
//! Loads are double-buffered per round: the kernel reads `x_t` from the
//! front buffer and accumulates `x_{t+1}` in the back buffer, so a
//! round that errors simply discards the back buffer and the engine
//! keeps the exact guarantee of the planned paths — on error, loads are
//! those after the last fully completed round, and the reported
//! [`Overdraw`](crate::EngineError::Overdraw)/
//! [`NegativeLoad`](crate::EngineError::NegativeLoad) carries the same
//! step and node as [`Engine::step`](crate::Engine::step) would report.
//!
//! The inner loop is monomorphised per total degree: `d⁺ ∈ {2, 4, 6, 8}`
//! (bare cycle, lazy cycle, lazy hypercube(3), lazy torus, …) run with a
//! `[u64; DP]` flow buffer whose length the optimiser knows at compile
//! time, so the per-port loops unroll fully; every other degree takes a
//! generic fallback over a reused `Vec<u64>`.
//!
//! The loop is additionally monomorphised over an optional
//! [`Workload`] **and** an optional
//! [`TopologySchedule`]:
//! [`Engine::run_kernel_dyn`](crate::Engine::run_kernel_dyn) runs the
//! full dynamic round structure — mutate topology, inject load, hand
//! asleep queues to live neighbours, negative-check, plan, validate,
//! route — while the `NoWorkload`/`StaticTopology` instantiation behind
//! the closed-system [`Engine::run_kernel`](crate::Engine::run_kernel)
//! folds both branches away and compiles to the fixed-graph loop
//! above. An erroring round rolls back its injection *and* its
//! topology events, so on error both loads and graph are those after
//! the last fully completed round.

use dlb_graph::{mutate, BalancingGraph, DynamicConnectivity, TopologyEvent};
use dlb_obs::{Phase, Sink};
use dlb_topology::{self as topology, TopologySchedule};

use crate::workload::Workload;
use crate::{Balancer, EngineError};

pub mod vector;

/// A balancer whose per-node flows are a pure function of the node's
/// current load and the scheme's own per-node state — the class the
/// plan-free kernel path can execute. A kernel may carry per-node
/// state (the rotor-router advances its rotors as it plans).
/// Implementations must write **every** entry of `flows`
/// (`flows.len() == d⁺`; the buffer is reused across nodes and arrives
/// dirty) and must produce exactly the flows their
/// [`Balancer::plan`] would put in a [`FlowPlan`](crate::FlowPlan) row,
/// so the kernel path stays bit-identical to the planned paths.
/// `kernel_node` is never called for `load == 0` (planned paths skip
/// zero-load nodes too, and rotors must not advance for them).
///
/// One deliberate asymmetry on the *error* path: when a round is
/// rejected, the planned paths have already called `plan` for every
/// node, while the kernel stops streaming at the offending node — so
/// for a stateful scheme that trips `Overdraw` despite claiming
/// `may_overdraw() == false`, per-node state after the failed round is
/// unspecified (loads and the reported error still match exactly). No
/// in-tree kernel scheme can reach this: the rotor-router sends
/// exactly its load, and negative loads are rejected before planning.
pub trait KernelBalancer: Balancer {
    /// Writes node `u`'s complete `d⁺`-port flow assignment for load
    /// `load` into `flows`, updating any per-node scheme state exactly
    /// as [`Balancer::plan`] would.
    fn kernel_node(&mut self, gp: &BalancingGraph, u: usize, load: i64, flows: &mut [u64]);

    /// The scheme's closed-form uniform description on `gp`, if it has
    /// one — the capability hook behind the engine's whole-array
    /// vector dispatch (see [`vector`]). The default answers `None`
    /// (stateful or non-uniform schemes keep the scalar stream).
    ///
    /// An override returns `None` on graphs where its closed form does
    /// not hold (e.g. SEND([x/d⁺]) with `d° < d`, which must keep the
    /// scalar path so its error behaviour stays bit-identical).
    fn uniform_kernel(&self, gp: &BalancingGraph) -> Option<vector::UniformSpec> {
        let _ = gp;
        None
    }
}

/// Parameters of a kernel run, bundled to keep the entry points tidy.
pub(crate) struct KernelRun {
    /// Whether to enforce the non-overdrawing class invariants.
    pub check: bool,
    /// Rounds to execute.
    pub steps: usize,
    /// Steps already completed by the engine (for 1-based error steps).
    pub base_step: usize,
    /// Negative nodes on entry (the engine's incremental count).
    pub negative_count: usize,
}

/// Counters a kernel run hands back to the engine, which folds them
/// into its cumulative totals — the numbers the engine's
/// `fill_metrics` exports into the dlb-obs MetricRegistry.
pub(crate) struct KernelRunStats {
    /// Full rounds completed (an erroring round is not counted and does
    /// not mutate loads).
    pub steps_done: usize,
    /// Node-steps that ended with negative load, summed over the run.
    pub negative_node_steps: u64,
    /// Negative nodes after the final completed round.
    pub negative_count: usize,
    /// Net workload injection applied over the completed rounds (an
    /// erroring round's injection is undone and not counted).
    pub injected: i64,
    /// Topology events applied over the completed rounds (an erroring
    /// round's events are undone and not counted).
    pub topology_events: u64,
    /// Full `O(n)` negative-load recounts the run performed. Since the
    /// recount for overdrawing schemes was folded into the streaming
    /// apply (every `next[]` write updates the count incrementally),
    /// this is identically zero on every kernel path — the engine
    /// accumulates it into [`Engine::negative_rescans`](crate::Engine::negative_rescans)
    /// and a regression test pins it at zero, so a future "just rescan"
    /// shortcut cannot sneak the `O(n·steps)` cost back in silently.
    pub negative_rescans: u64,
}

/// Sums one planned node's original-edge outflow and, when `check` is
/// set, enforces the non-overdrawing invariant.
///
/// `step` is the 1-based step the error would belong to.
#[inline]
fn validate_outflow(
    flows: &[u64],
    d: usize,
    check: bool,
    node: usize,
    load: i64,
    step: usize,
) -> Result<u64, EngineError> {
    let mut orig = 0u64;
    for &f in &flows[..d] {
        orig += f;
    }
    if check {
        let mut lazy = 0u64;
        for &f in &flows[d..] {
            lazy += f;
        }
        let sent = orig + lazy;
        if sent > load as u64 {
            return Err(EngineError::Overdraw {
                node,
                load,
                planned: sent,
                step,
            });
        }
    }
    Ok(orig)
}

/// A reusable per-node flow buffer; the two implementations are how the
/// round loop is monomorphised per degree. For `[u64; DP]` the length
/// is a compile-time constant, so the port loops in the round body
/// unroll fully; `Vec<u64>` is the any-degree fallback.
trait FlowsBuf {
    fn with_len(d_plus: usize) -> Self;
    fn as_mut(&mut self) -> &mut [u64];
}

impl<const DP: usize> FlowsBuf for [u64; DP] {
    #[inline]
    fn with_len(d_plus: usize) -> Self {
        debug_assert_eq!(d_plus, DP);
        [0; DP]
    }
    #[inline]
    fn as_mut(&mut self) -> &mut [u64] {
        self
    }
}

impl FlowsBuf for Vec<u64> {
    #[inline]
    fn with_len(d_plus: usize) -> Self {
        vec![0; d_plus]
    }
    #[inline]
    fn as_mut(&mut self) -> &mut [u64] {
        self
    }
}

/// Applies a round's injection deltas to `loads` (or, with `negate`,
/// undoes them — the exact inverse, each negative-count update
/// included, so an erroring round restores both the loads and the
/// caller's incremental counter to the last completed round). Returns
/// the net signed delta (pre-`negate`).
///
/// Two loops behind one probe: sparse delta vectors (hotspot, drain —
/// a handful of nonzero entries) keep the skip-zero branch, while
/// mostly-nonzero vectors (steady arrivals touch every node) take a
/// branchless dense loop that unconditionally writes every entry — a
/// zero delta rewrites the old value and contributes nothing to either
/// the sum or the negative count, so the two loops are exactly
/// equivalent and the probe is free to be a heuristic.
#[inline]
fn apply_deltas(loads: &mut [i64], deltas: &[i64], negate: bool, negative: &mut usize) -> i64 {
    const PROBE: usize = 64;
    let probe_len = deltas.len().min(PROBE);
    let nonzero = deltas[..probe_len].iter().filter(|&&dv| dv != 0).count();
    if probe_len > 0 && 2 * nonzero >= probe_len {
        return apply_deltas_dense(loads, deltas, negate, negative);
    }
    let mut sum = 0i64;
    for (x, &dv) in loads.iter_mut().zip(deltas) {
        if dv != 0 {
            let old = *x;
            let new = if negate { old - dv } else { old + dv };
            *negative = *negative + usize::from(new < 0) - usize::from(old < 0);
            *x = new;
            sum += dv;
        }
    }
    sum
}

/// The branchless dense variant: every entry is written, negative
/// bookkeeping is a pair of flag adds, and there is no per-element
/// branch for the predictor to miss on a dense delta vector.
fn apply_deltas_dense(
    loads: &mut [i64],
    deltas: &[i64],
    negate: bool,
    negative: &mut usize,
) -> i64 {
    let sign = if negate { -1i64 } else { 1i64 };
    let mut sum = 0i64;
    let mut neg = *negative;
    for (x, &dv) in loads.iter_mut().zip(deltas) {
        let old = *x;
        let new = old + sign * dv;
        neg = neg + usize::from(new < 0) - usize::from(old < 0);
        *x = new;
        sum += dv;
    }
    *negative = neg;
    sum
}

/// Runs `steps` plan-free rounds of `kernel` over `loads`, using `back`
/// as the second half of the double buffer (`back.len() == loads.len()`;
/// its contents on entry are irrelevant). An optional [`Workload`]
/// injects signed per-node deltas and an optional [`TopologySchedule`]
/// mutates the graph at the start of every round (see the round
/// structure in [`crate::workload`] and the module docs).
///
/// Dispatches to a degree-monomorphised round loop. On return, `loads`
/// holds the state after the last fully completed round, and so does
/// the graph (an erroring round's events are undone).
///
/// The loop is monomorphised over the [`Sink`] too: the `NoopSink`
/// instantiation (what the untraced entry points pass) folds every
/// probe away, while a recording sink sees per-round `Mutate`,
/// `Inject`/`Handoff` and fused `Stream` spans. Sinks observe only —
/// loads, errors and counters are bit-identical across sinks.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_rounds<K, S, W, Si>(
    gp: &mut BalancingGraph,
    loads: &mut [i64],
    back: &mut [i64],
    run: KernelRun,
    schedule: Option<&mut S>,
    workload: Option<&mut W>,
    checker: Option<&mut DynamicConnectivity>,
    kernel: &mut K,
    sink: &mut Si,
) -> (KernelRunStats, Option<EngineError>)
where
    K: KernelBalancer + ?Sized,
    S: TopologySchedule + ?Sized,
    W: Workload + ?Sized,
    Si: Sink,
{
    match gp.degree_plus() {
        2 => check_impl::<K, [u64; 2], S, W, Si>(
            gp, loads, back, run, schedule, workload, checker, kernel, sink,
        ),
        4 => check_impl::<K, [u64; 4], S, W, Si>(
            gp, loads, back, run, schedule, workload, checker, kernel, sink,
        ),
        6 => check_impl::<K, [u64; 6], S, W, Si>(
            gp, loads, back, run, schedule, workload, checker, kernel, sink,
        ),
        8 => check_impl::<K, [u64; 8], S, W, Si>(
            gp, loads, back, run, schedule, workload, checker, kernel, sink,
        ),
        _ => check_impl::<K, Vec<u64>, S, W, Si>(
            gp, loads, back, run, schedule, workload, checker, kernel, sink,
        ),
    }
}

/// Second dispatch layer: monomorphises the round loop over the class
/// check. The non-overdrawing loop (`CHECK = true`) keeps its writes
/// free of negative bookkeeping (the invariant makes it dead weight),
/// while the overdrawing loop (`CHECK = false`) threads the incremental
/// count through every write — the fold that replaced the per-round
/// `O(n)` rescan.
#[allow(clippy::too_many_arguments)]
fn check_impl<K, B, S, W, Si>(
    gp: &mut BalancingGraph,
    loads: &mut [i64],
    back: &mut [i64],
    run: KernelRun,
    schedule: Option<&mut S>,
    workload: Option<&mut W>,
    checker: Option<&mut DynamicConnectivity>,
    kernel: &mut K,
    sink: &mut Si,
) -> (KernelRunStats, Option<EngineError>)
where
    K: KernelBalancer + ?Sized,
    B: FlowsBuf,
    S: TopologySchedule + ?Sized,
    W: Workload + ?Sized,
    Si: Sink,
{
    if run.check {
        rounds_impl::<K, B, S, W, Si, true>(
            gp, loads, back, run, schedule, workload, checker, kernel, sink,
        )
    } else {
        rounds_impl::<K, B, S, W, Si, false>(
            gp, loads, back, run, schedule, workload, checker, kernel, sink,
        )
    }
}

/// The round loop, monomorphised over the scheme, the flow
/// buffer (and through it, for the array buffers, the total degree),
/// the schedule type and the workload type — so the
/// `StaticTopology`/`NoWorkload` instantiation folds the churn and
/// injection branches away and compiles to the closed-system loop.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn rounds_impl<K, B, S, W, Si, const CHECK: bool>(
    gp: &mut BalancingGraph,
    loads: &mut [i64],
    back: &mut [i64],
    run: KernelRun,
    mut schedule: Option<&mut S>,
    mut workload: Option<&mut W>,
    mut checker: Option<&mut DynamicConnectivity>,
    kernel: &mut K,
    sink: &mut Si,
) -> (KernelRunStats, Option<EngineError>)
where
    K: KernelBalancer + ?Sized,
    B: FlowsBuf,
    S: TopologySchedule + ?Sized,
    W: Workload + ?Sized,
    Si: Sink,
{
    let KernelRun {
        check,
        steps,
        base_step,
        negative_count,
    } = run;
    debug_assert_eq!(check, CHECK, "check_impl dispatches on run.check");
    let n = loads.len();
    let d = gp.degree();
    let d_plus = gp.degree_plus();
    let mut flows = B::with_len(d_plus);

    // Dynamic mode: a schedule can put nodes to sleep at any round,
    // and pre-existing sleepers need their queues forwarded even under
    // a `None` schedule. Without either, the loop below is exactly the
    // fixed-topology loop.
    let dynamic = schedule.is_some() || gp.graph().asleep_count() > 0;
    let inject_mode = workload.is_some() || dynamic;

    // The double buffer: `cur` holds x_t, `next` accumulates x_{t+1}.
    // The roles swap each completed round; an erroring round leaves
    // `cur` untouched and discards `next`.
    let mut cur: &mut [i64] = loads;
    let mut next: &mut [i64] = back;

    let mut negative = negative_count;
    let mut negative_node_steps = 0u64;
    let mut steps_done = 0usize;
    let mut injected = 0i64;
    let mut topology_events = 0u64;
    let mut error = None;
    // The round's injection deltas, kept so an erroring round can undo
    // exactly what it applied; allocated only when a round can inject
    // (workload deltas or asleep-queue handoffs).
    let mut inj: Vec<i64> = if inject_mode {
        vec![0i64; n]
    } else {
        Vec::new()
    };
    // This round's applied topology events, for the rollback path.
    let mut ev_scratch: Vec<TopologyEvent> = Vec::new();
    let mut ev_applied: Vec<TopologyEvent> = Vec::new();
    // Whether the *current* round's deltas have been applied (so the
    // common error exit never undoes a stale buffer).
    let mut round_applied = false;

    'rounds: for iter in 0..steps {
        let step_no = base_step + iter + 1;
        round_applied = false;

        // Phase 0 — topology: the schedule's events mutate the graph
        // in place. A rejected event aborts the round before any load
        // moved (drive_events has already rolled the graph back).
        if dynamic {
            ev_applied.clear();
            if let Some(s) = schedule.as_mut() {
                let probe = sink.start();
                if let Err(e) = topology::drive_events_checked(
                    &mut **s,
                    step_no,
                    gp.graph_mut(),
                    &mut ev_scratch,
                    &mut ev_applied,
                    checker.as_deref_mut(),
                ) {
                    error = Some(EngineError::Topology {
                        step: step_no,
                        reason: e.to_string(),
                    });
                    break 'rounds;
                }
                sink.span(Phase::Mutate, step_no as u64, probe);
            }
        }

        // Phase 1 — injection + failure handoff: x'_t = x_t + w_t,
        // then every asleep node's queue (same-round injection
        // included) moves to its live neighbours. Applied in place to
        // the front buffer so planning reads the injected loads; the
        // negative count tracks every write and the undo below
        // reverses both exactly. Gated per round — like the serial
        // engine — so a schedule-only run pays nothing on rounds with
        // no deltas to apply (no workload, nobody asleep).
        let mut injected_round = 0i64;
        if workload.is_some() || gp.graph().asleep_count() > 0 {
            let probe = sink.start();
            inj.fill(0);
            if let Some(w) = workload.as_mut() {
                // No argmax hint on the kernel path: the double
                // buffer's writes bypass the engine's load index, so
                // argmax-hungry workloads fall back to their own scan.
                w.inject_with_hint(step_no, cur, None, &mut inj);
            }
            if gp.graph().asleep_count() > 0 {
                sink.span(Phase::Inject, step_no as u64, probe);
                let probe = sink.start();
                mutate::handoff_deltas(gp.graph(), cur, &mut inj);
                sink.span(Phase::Handoff, step_no as u64, probe);
                let probe = sink.start();
                injected_round = apply_deltas(cur, &inj, false, &mut negative);
                sink.span(Phase::Inject, step_no as u64, probe);
            } else {
                injected_round = apply_deltas(cur, &inj, false, &mut negative);
                sink.span(Phase::Inject, step_no as u64, probe);
            }
            round_applied = true;
        }

        // Pre-plan class check, O(1) via the maintained count; the
        // offending node is only searched for on the error path —
        // lowest id first, matching the serial engine. The check sees
        // the post-injection loads, so a workload that over-drains a
        // node surfaces here exactly like a negative seed.
        if CHECK && negative > 0 {
            let node = cur
                .iter()
                .position(|&x| x < 0)
                .expect("negative > 0 implies a negative node");
            error = Some(EngineError::NegativeLoad {
                node,
                load: cur[node],
                step: step_no,
            });
            break 'rounds;
        }

        let stream_probe = sink.start();
        let graph = gp.graph();
        next.copy_from_slice(cur);
        // Overdrawing schemes (`CHECK = false`) maintain the back
        // buffer's negative count *through the streaming writes* —
        // `next` starts as a copy of `cur` (count: `negative`), and
        // every subtract/add below adjusts incrementally, replacing
        // the per-round O(n) rescan this loop used to pay.
        // Non-overdrawing schemes keep every load non-negative
        // invariantly once the pre-plan check passes, so their writes
        // carry no bookkeeping at all.
        let mut neg_next = negative;
        for u in 0..n {
            let x = cur[u];
            if x == 0 {
                // Zero-load nodes plan nothing and their state (rotor)
                // must not advance — exactly as the planned paths skip
                // them. Asleep nodes land here too: the handoff above
                // emptied them before planning (except the documented
                // all-neighbours-asleep corner, where the node keeps
                // its queue and keeps balancing it — identically on
                // every path).
                continue;
            }
            let fl = flows.as_mut();
            kernel.kernel_node(gp, u, x, fl);
            // Nodes are streamed in ascending id order, which is
            // exactly the planned paths' first-touch order for
            // per-node schemes: same error node, same step.
            let orig = match validate_outflow(fl, d, CHECK, u, x, step_no) {
                Ok(orig) => orig,
                Err(e) => {
                    error = Some(e);
                    break 'rounds;
                }
            };
            // Only tokens crossing an original edge move; self-loop and
            // retained tokens never leave home.
            if orig != 0 {
                if CHECK {
                    next[u] -= orig as i64;
                } else {
                    let old = next[u];
                    let new = old - orig as i64;
                    neg_next = neg_next + usize::from(new < 0) - usize::from(old < 0);
                    next[u] = new;
                }
            }
            let nbrs = graph.neighbors(u);
            for (p, &f) in fl[..d].iter().enumerate() {
                if f != 0 {
                    let t = nbrs[p] as usize;
                    if CHECK {
                        next[t] += f as i64;
                    } else {
                        let old = next[t];
                        let new = old + f as i64;
                        neg_next = neg_next + usize::from(new < 0) - usize::from(old < 0);
                        next[t] = new;
                    }
                }
            }
        }

        sink.span(Phase::Stream, step_no as u64, stream_probe);
        std::mem::swap(&mut cur, &mut next);
        steps_done = iter + 1;
        injected += injected_round;
        topology_events += ev_applied.len() as u64;
        round_applied = false;
        if !CHECK {
            negative = neg_next;
            debug_assert_eq!(negative, cur.iter().filter(|&&x| x < 0).count());
        }
        negative_node_steps += negative as u64;
    }

    // An erroring round keeps nothing: its deltas are reversed on the
    // front buffer and its topology events are unwound on the graph,
    // so loads *and* graph are those after the last completed round.
    if error.is_some() {
        if round_applied {
            apply_deltas(cur, &inj, true, &mut negative);
        }
        topology::undo_events_checked(gp.graph_mut(), &ev_applied, checker);
    }

    // `loads` must end up holding the final state: after an odd number
    // of completed rounds `cur` aliases the scratch buffer.
    if steps_done % 2 == 1 {
        next.copy_from_slice(cur);
    }

    (
        KernelRunStats {
            steps_done,
            negative_node_steps,
            negative_count: negative,
            injected,
            topology_events,
            negative_rescans: 0,
        },
        error,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::SendFloor;
    use crate::{Engine, LoadVector};
    use dlb_graph::generators;

    fn lazy_cycle(n: usize) -> BalancingGraph {
        BalancingGraph::lazy(generators::cycle(n).unwrap())
    }

    #[test]
    fn kernel_path_matches_stepping_on_odd_and_even_horizons() {
        for steps in [0usize, 1, 2, 7, 96, 97] {
            let mut slow = Engine::new(lazy_cycle(16), LoadVector::point_mass(16, 1601));
            let mut fast = Engine::new(lazy_cycle(16), LoadVector::point_mass(16, 1601));
            let mut bal = SendFloor::new();
            for _ in 0..steps {
                slow.step(&mut bal).unwrap();
            }
            fast.run_kernel(&mut SendFloor::new(), steps).unwrap();
            assert_eq!(slow.loads(), fast.loads(), "diverged at {steps} steps");
            assert_eq!(fast.step_count(), steps);
        }
    }

    #[test]
    fn generic_fallback_matches_on_unmatched_degree() {
        // d = 2, d° = 3 ⇒ d⁺ = 5: no monomorphised kernel, Vec fallback.
        let make = || BalancingGraph::with_self_loops(generators::cycle(12).unwrap(), 3).unwrap();
        let mut slow = Engine::new(make(), LoadVector::point_mass(12, 997));
        let mut fast = Engine::new(make(), LoadVector::point_mass(12, 997));
        let mut bal = SendFloor::new();
        for _ in 0..41 {
            slow.step(&mut bal).unwrap();
        }
        fast.run_kernel(&mut SendFloor::new(), 41).unwrap();
        assert_eq!(slow.loads(), fast.loads());
    }

    #[test]
    fn kernel_rejects_negative_seed_like_step() {
        let mut engine = Engine::new(lazy_cycle(4), LoadVector::new(vec![5, -1, 3, 3]));
        let err = engine.run_kernel(&mut SendFloor::new(), 5).unwrap_err();
        assert_eq!(
            err,
            EngineError::NegativeLoad {
                node: 1,
                load: -1,
                step: 1
            }
        );
        assert_eq!(engine.step_count(), 0);
        assert_eq!(engine.loads().as_slice(), &[5, -1, 3, 3]);
    }

    #[test]
    fn erroring_round_discards_the_back_buffer() {
        /// Sends 1 token over port 0 per step, but overdraws once the
        /// node's load falls below the per-node threshold.
        struct TripsAtStep3;
        impl Balancer for TripsAtStep3 {
            fn name(&self) -> &'static str {
                "trips-at-step-3"
            }
            fn plan(
                &mut self,
                _gp: &BalancingGraph,
                _loads: &LoadVector,
                _plan: &mut crate::FlowPlan,
            ) {
                unreachable!("kernel-only test scheme")
            }
        }
        impl KernelBalancer for TripsAtStep3 {
            fn kernel_node(
                &mut self,
                _gp: &BalancingGraph,
                u: usize,
                load: i64,
                flows: &mut [u64],
            ) {
                flows.fill(0);
                // Node 0 always plans 3: from 10 its load runs 10, 7, 4,
                // 1 — and at load 1 the plan overdraws on step 4.
                if u == 0 {
                    let _ = load;
                    flows[0] = 3;
                }
            }
        }
        let mut engine = Engine::new(lazy_cycle(4), LoadVector::point_mass(4, 10));
        let err = engine.run_kernel(&mut TripsAtStep3, 10).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::Overdraw {
                    node: 0,
                    load: 1,
                    planned: 3,
                    step: 4
                }
            ),
            "unexpected error {err:?}"
        );
        // Three rounds completed; the fourth mutated nothing.
        assert_eq!(engine.step_count(), 3);
        assert_eq!(engine.loads().as_slice(), &[1, 9, 0, 0]);
        assert_eq!(engine.loads().total(), 10);
    }

    /// The reference `apply_deltas` semantics, branch-per-element, with
    /// no density dispatch — what both production loops must equal.
    fn apply_deltas_reference(
        loads: &mut [i64],
        deltas: &[i64],
        negate: bool,
        negative: &mut usize,
    ) -> i64 {
        let mut sum = 0i64;
        for (x, &dv) in loads.iter_mut().zip(deltas) {
            if dv != 0 {
                let old = *x;
                let new = if negate { old - dv } else { old + dv };
                *negative = *negative + usize::from(new < 0) - usize::from(old < 0);
                *x = new;
                sum += dv;
            }
        }
        sum
    }

    #[test]
    fn apply_deltas_dense_and_sparse_loops_agree_with_the_reference() {
        // Deterministic pseudo-random mixtures at several densities,
        // so both sides of the probe's cutover are exercised — 0%
        // (all-zero), sparse, the 50% boundary, dense, 100% — with
        // sign changes crossing zero in both directions, and both
        // `negate` polarities (the erroring-round undo path).
        let n = 257; // off the probe window and not lane-aligned
        for density_pct in [0usize, 3, 40, 50, 60, 97, 100] {
            for negate in [false, true] {
                let mut state = 0x9e37_79b9_u64;
                let mut rnd = move || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) as i64
                };
                let loads0: Vec<i64> = (0..n).map(|_| rnd() % 11 - 5).collect();
                let deltas: Vec<i64> = (0..n)
                    .map(|_| {
                        if (rnd().unsigned_abs() as usize % 100) < density_pct {
                            rnd() % 9 - 4
                        } else {
                            0
                        }
                    })
                    .collect();
                let mut expected = loads0.clone();
                let mut expected_neg = expected.iter().filter(|&&x| x < 0).count();
                let expected_sum =
                    apply_deltas_reference(&mut expected, &deltas, negate, &mut expected_neg);

                let mut got = loads0.clone();
                let mut got_neg = got.iter().filter(|&&x| x < 0).count();
                let got_sum = apply_deltas(&mut got, &deltas, negate, &mut got_neg);

                assert_eq!(got, expected, "loads at density {density_pct}%");
                assert_eq!(got_neg, expected_neg, "negative count at {density_pct}%");
                assert_eq!(got_sum, expected_sum, "net delta at {density_pct}%");
                assert_eq!(got_neg, got.iter().filter(|&&x| x < 0).count());
            }
        }
    }
}
