//! Vectorized whole-array rounds for uniform closed-form schemes.
//!
//! The scalar kernel ([`super`]) streams node-at-a-time: load a node,
//! compute its `d⁺` port flows in registers, scatter them. For the SEND
//! family that is more structure than the mathematics needs — every
//! original port of node `u` carries the *same* flow `b(x_u)`, a pure
//! function of the node's load:
//!
//! * **SEND(⌊x/d⁺⌋)**: `b(x) = ⌊x/d⁺⌋` (self-loops keep the surplus at
//!   home, so only `b` ever crosses an edge);
//! * **SEND([x/d⁺])**: `b(x) = ⌊(x + ⌊d⁺/2⌋)/d⁺⌋` — the half-up
//!   nearest integer, identical to the scalar rule `base + (2e ≥ d⁺)`
//!   for both parities of `d⁺`.
//!
//! A whole round therefore collapses to two array passes:
//!
//! ```text
//! pass 1:  b[u]    = (x[u] + bias) / d⁺        (bias = 0 or ⌊d⁺/2⌋)
//! pass 2:  x'[u]   = x[u] − d·b[u] + Σ_{p<d} b[nbr(u, p)]
//! ```
//!
//! both written as explicit 8/16-lane chunked loops the autovectorizer
//! lifts (no `std::simd`, so the vendored toolchain builds unchanged),
//! with the division strength-reduced to a shift (power-of-two `d⁺`)
//! or a Granlund–Montgomery multiply-high (everything else).
//!
//! **Why the overdraw check vanishes on this path** (assert-backed in
//! the round loops):
//!
//! * Floor: `d·b(x) ≤ d⁺·⌊x/d⁺⌋ ≤ x` — a node never sends more than it
//!   has, for any `d°` (the surplus stays home either way).
//! * Round: dispatched only when `d° ≥ d` (the scheme's own class
//!   requirement). Then `d⁺ ≥ 2d`, and rounding up implies
//!   `e = x mod d⁺ ≥ ⌈d⁺/2⌉ ≥ d`, so
//!   `d·b(x) = d·⌊x/d⁺⌋ + d ≤ d⁺·⌊x/d⁺⌋ + e = x`.
//!
//! Consequently loads stay non-negative invariantly once the engine's
//! entry check passes, `NegativeLoad` keeps exact step/node parity with
//! the scalar kernel (both reject a negative seed at round 1, lowest id
//! first), and per-round negative accounting is identically zero.
//!
//! Pass 2 comes in two gather strategies behind one dispatch:
//!
//! * **banded** — when the labeling is shift-structured (each port's
//!   neighbour is `u + o_p` for all but a few wrap nodes, cf.
//!   [`dlb_graph::relabel::port_shift_profile`]), the gather becomes
//!   one shifted whole-slice add per port plus an exception patch
//!   list: zero index gathers in the hot loop.
//! * **cache-blocked CSR** — otherwise nodes are processed in blocks
//!   sized from [`dlb_graph::relabel::bandwidth`] so the window of `b`
//!   a block gathers from stays L2-resident (the RCM relabeling from
//!   PR 3 is what makes that window narrow).
//!
//! Either plan depends only on the adjacency and the strategy, so the
//! engine builds it on its first vector dispatch and reuses it across
//! calls until the graph mutates or the strategy changes; chunked runs
//! pay the `O(n·d)` profiling once, not once per call.
//!
//! Finally, an **`i32` compressed mode** runs the same two strategies
//! over `Vec<i32>` front/back buffers at twice the lane density. Entry
//! and every subsequent round are guarded in O(1) against the
//! maintained running maximum (re-verified per block/pass as the back
//! buffer is written); the moment the guard trips the run converts to
//! the i64 buffers and continues — a loud, counted fallback
//! ([`VectorStats::i32_fallbacks`]), never silent wraparound.

use dlb_graph::{relabel, BalancingGraph};

/// The closed-form uniform flow a scheme sends over **every** original
/// port, as a function of the node's load — the capability the vector
/// path executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UniformSpec {
    /// `b(x) = ⌊x/d⁺⌋` — SEND(⌊x/d⁺⌋) on any graph.
    Floor,
    /// `b(x) = ⌊(x + ⌊d⁺/2⌋)/d⁺⌋` — SEND([x/d⁺]), valid only with
    /// `d° ≥ d` (the scheme's own class requirement; see the module
    /// docs for why that makes overdraw impossible).
    Round,
}

impl UniformSpec {
    /// The pre-division additive bias that turns floor division into
    /// this spec's rounding rule.
    #[inline]
    #[must_use]
    pub fn bias(self, d_plus: usize) -> u64 {
        match self {
            UniformSpec::Floor => 0,
            UniformSpec::Round => (d_plus / 2) as u64,
        }
    }
}

/// Which gather strategy the vector path uses for pass 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VectorStrategy {
    /// Probe the labeling and pick: banded when the port-shift
    /// exception count is below `n/8`, blocked CSR otherwise.
    #[default]
    Auto,
    /// Force shifted-slice adds + exception patches (correct on any
    /// graph; fast only when exceptions are rare).
    Banded,
    /// Force the cache-blocked CSR gather.
    BlockedCsr,
}

/// Which load width the vector path runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VectorWidth {
    /// `i32` when the entry maximum fits the default headroom limit
    /// ([`I32_HEADROOM_LIMIT`]), `i64` otherwise.
    #[default]
    Auto,
    /// Force the full-width `i64` buffers.
    I64,
    /// Force the compressed mode with an explicit headroom limit
    /// (clamped to [`I32_HEADROOM_LIMIT`]; primarily a test knob for
    /// exercising the mid-run fallback with small loads).
    I32 {
        /// Maximum load at which an `i32` round may start.
        limit: i32,
    },
}

/// Configuration of the vector dispatch — a tuning/test knob; the
/// defaults (`enabled`, everything `Auto`) are what production runs
/// want, and every setting is bit-identical to every other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorConfig {
    /// Master switch; `false` keeps every run on the scalar kernel
    /// (the differential batteries use this to pin the oracle).
    pub enabled: bool,
    /// Gather strategy selection.
    pub strategy: VectorStrategy,
    /// Load width selection.
    pub width: VectorWidth,
}

impl Default for VectorConfig {
    fn default() -> Self {
        VectorConfig {
            enabled: true,
            strategy: VectorStrategy::Auto,
            width: VectorWidth::Auto,
        }
    }
}

/// Counters the vector path maintains across an engine's lifetime —
/// the telemetry behind the harness's `inner_loop`/`load_width` fields
/// and the CI gate that vector-eligible runs actually dispatched.
/// Exported as `engine_vector_*` counters by the engine's
/// `fill_metrics` into the dlb-obs MetricRegistry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VectorStats {
    /// Vector-path runs dispatched (each `run_kernel` call that took
    /// the whole-array path counts once).
    pub runs: u64,
    /// Rounds executed with the banded (shifted-slice) gather.
    pub rounds_banded: u64,
    /// Rounds executed with the cache-blocked CSR gather.
    pub rounds_blocked: u64,
    /// Rounds executed over the compressed `i32` buffers (a subset of
    /// the two counters above).
    pub rounds_i32: u64,
    /// Mid-run (or at-entry, for a forced-`i32` run whose seed never
    /// fit) conversions from `i32` back to `i64` because the headroom
    /// guard tripped.
    pub i32_fallbacks: u64,
}

/// Default `i32` headroom limit: loads at or below this may enter an
/// `i32` round. Intermediates are bounded by `2·limit + 2·d` even
/// through the banded patch pass (each node receives at most `d`
/// legitimate and `d` transiently-wrong `b` additions, each at most
/// `(limit + bias)/d⁺ + 1`), so `i32::MAX / 8` leaves a ~4× margin
/// below `i32::MAX` on top of that worst case.
pub const I32_HEADROOM_LIMIT: i32 = i32::MAX / 8;

/// i64 safety ceiling: the vector path declines (returns to the scalar
/// kernel) when the entry maximum plus the worst-case per-round growth
/// (`2·d⁺` per round, see `max_growth_bound`) could exceed this. The
/// scalar kernel handles such astronomically loaded runs bit-exactly;
/// declining keeps the vector path's intermediate sums provably
/// overflow-free without per-element checks.
const I64_SAFE_LIMIT: i64 = i64::MAX / 8;

/// Lanes per chunk in the explicitly chunked i64 passes.
const LANES_64: usize = 8;
/// Lanes per chunk in the explicitly chunked i32 passes.
const LANES_32: usize = 16;

/// Banded dispatch threshold: Auto picks banded when total port-shift
/// exceptions are at most `n / BANDED_EXCEPTION_DIV`.
const BANDED_EXCEPTION_DIV: usize = 8;

/// L2 target for the blocked gather window, in `b`-array entries.
const L2_TARGET_BYTES: usize = 256 * 1024;

/// Strength-reduced unsigned division by the runtime constant `d⁺`.
///
/// For non-powers-of-two this is the Granlund–Montgomery round-up
/// scheme: with `ℓ = ⌈log₂ d⌉`, `p = N − 1 + ℓ` and
/// `m = ⌈2^p / d⌉`, `⌊x·m / 2^p⌋ = ⌊x/d⌋` holds for all
/// `0 ≤ x < 2^(N−1)`: writing `Δ = m·d − 2^p ∈ [0, d)` and
/// `x = qd + r`, the error term is `r/d + x·Δ/(d·2^p) < 1` because
/// `x·Δ < 2^(N−1)·d ≤ 2^(N−1+ℓ) = 2^p`. The i64 variant (`N = 64`)
/// covers every non-negative `i64` load; the i32 variant (`N = 32`)
/// covers every value the compressed mode admits. `m` fits the word:
/// for non-powers-of-two, `d > 2^(ℓ−1)` gives `m < 2^N`.
#[derive(Debug, Clone, Copy)]
enum DivMagic {
    /// `d⁺ = 1`: the identity (a 1-regular balancing graph).
    One,
    /// `d⁺` a power of two: a plain shift, which autovectorizes best.
    Pow2 {
        /// `log₂ d⁺`.
        shift: u32,
    },
    /// Multiply-high by the precomputed reciprocal.
    Mul {
        /// `⌈2^shift / d⁺⌉`.
        mul: u64,
        /// `N − 1 + ⌈log₂ d⁺⌉`.
        shift: u32,
    },
}

impl DivMagic {
    /// Builds the reciprocal for dividends `x < 2^63` (i64 loads).
    fn new64(d: u64) -> DivMagic {
        debug_assert!(d >= 1);
        if d == 1 {
            DivMagic::One
        } else if d.is_power_of_two() {
            DivMagic::Pow2 {
                shift: d.trailing_zeros(),
            }
        } else {
            let l = 64 - (d - 1).leading_zeros();
            let p = 63 + l;
            let mul = (1u128 << p).div_ceil(u128::from(d)) as u64;
            DivMagic::Mul { mul, shift: p }
        }
    }

    /// Builds the reciprocal for dividends `x < 2^31` (i32 loads); the
    /// multiply stays within `u64`, which the autovectorizer lowers to
    /// packed 32×32→64 multiplies.
    fn new32(d: u64) -> DivMagic {
        debug_assert!(d >= 1);
        if d == 1 {
            DivMagic::One
        } else if d.is_power_of_two() {
            DivMagic::Pow2 {
                shift: d.trailing_zeros(),
            }
        } else {
            let l = 64 - (d - 1).leading_zeros();
            let p = 31 + l;
            let mul = (1u64 << p).div_ceil(d);
            debug_assert!(mul < (1u64 << 32));
            DivMagic::Mul { mul, shift: p }
        }
    }

    /// `⌊x / d⁺⌋` for `x < 2^63` (use with [`DivMagic::new64`]).
    #[inline]
    fn div64(self, x: u64) -> u64 {
        match self {
            DivMagic::One => x,
            DivMagic::Pow2 { shift } => x >> shift,
            DivMagic::Mul { mul, shift } => ((u128::from(x) * u128::from(mul)) >> shift) as u64,
        }
    }

    /// `⌊x / d⁺⌋` for `x < 2^31` (use with [`DivMagic::new32`]).
    #[inline]
    fn div32(self, x: u32) -> u32 {
        match self {
            DivMagic::One => x,
            DivMagic::Pow2 { shift } => x >> shift,
            DivMagic::Mul { mul, shift } => ((u64::from(x) * mul) >> shift) as u32,
        }
    }
}

/// The gather plan pass 2 executes. A pure function of the graph's
/// adjacency and the requested [`VectorStrategy`], so the engine builds
/// it once ([`plan_gather`]) and reuses it until the graph mutates or
/// the strategy changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Gather {
    /// Per original port: dominant shift offset + exception patches
    /// `(u, actual v)`.
    Banded {
        offsets: Vec<i64>,
        exceptions: Vec<Vec<(u32, u32)>>,
    },
    /// CSR gather in node blocks of the given size.
    Blocked { block: usize },
}

/// Profiles the labeling and picks the gather strategy. The banded
/// plan is exactly [`relabel::port_shift_profile`]: each port's
/// dominant shift offset plus the exception patches; a labeling whose
/// exceptions exceed `n / 8` (too many wrap edges — a 2-row torus, a
/// scattered random graph) simply takes the blocked path. Both
/// strategies are exact on every graph, so the cutover is purely a
/// performance decision.
pub(crate) fn plan_gather(gp: &BalancingGraph, choice: VectorStrategy) -> Gather {
    let graph = gp.graph();
    let blocked = || Gather::Blocked {
        block: blocked_block_size(graph),
    };
    match choice {
        VectorStrategy::BlockedCsr => blocked(),
        VectorStrategy::Banded | VectorStrategy::Auto => {
            let profile = relabel::port_shift_profile(graph);
            let budget = graph.num_nodes() / BANDED_EXCEPTION_DIV;
            if matches!(choice, VectorStrategy::Auto) && profile.num_exceptions() > budget {
                return blocked();
            }
            Gather::Banded {
                offsets: profile.offsets,
                exceptions: profile.exceptions,
            }
        }
    }
}

/// Block size for the CSR gather: with adjacency bandwidth `bw`, a
/// block of `B` nodes gathers `b` from a window of `B + 2·bw` entries;
/// sizing `B` so the window fits the L2 target keeps the gather
/// resident. Small graphs collapse to a single block.
fn blocked_block_size(graph: &dlb_graph::RegularGraph) -> usize {
    let entries = L2_TARGET_BYTES / std::mem::size_of::<i64>();
    let bw = relabel::bandwidth(graph);
    let n = graph.num_nodes().max(1);
    entries.saturating_sub(2 * bw).max(1024).min(n)
}

/// Everything a run needs: the per-call constants plus the cached
/// gather plan.
struct Plan<'g> {
    d: usize,
    bias: u64,
    magic64: DivMagic,
    magic32: DivMagic,
    gather: &'g Gather,
}

/// Worst-case additive growth of the maximum load per round: pass 2
/// gives `x' ≤ x·(1 − d/d⁺) + d·b_max + receives' bias slack`, which
/// for both specs is bounded by `max + 2·d ≤ max + 2·d⁺` (Floor is in
/// fact non-increasing; Round can climb by `O(d)` when a node between
/// two heavier neighbours rounds down while they round up).
fn max_growth_bound(d_plus: usize, steps: usize) -> i64 {
    (2 * d_plus as i64).saturating_mul(steps as i64)
}

/// Runs `steps` whole-array rounds of `spec` over `loads`. Returns
/// `false` (loads untouched) when the run declines — only when the
/// entry maximum is so close to `i64::MAX` that the overflow-freedom
/// argument above would not hold; the caller then uses the scalar
/// kernel, which is bit-identical. The caller has already verified:
/// no schedule, no workload, no asleep nodes, no negative loads, and
/// `gather` is [`plan_gather`]'s plan for `gp` under `config.strategy`.
pub(crate) fn run_uniform(
    gp: &BalancingGraph,
    gather: &Gather,
    loads: &mut [i64],
    spec: UniformSpec,
    steps: usize,
    config: &VectorConfig,
    stats: &mut VectorStats,
) -> bool {
    let d = gp.degree();
    let d_plus = gp.degree_plus();
    debug_assert!(matches!(spec, UniformSpec::Floor) || gp.num_self_loops() >= d);
    let max0 = loads.iter().copied().max().unwrap_or(0);
    debug_assert!(loads.iter().all(|&x| x >= 0));
    if max0.saturating_add(max_growth_bound(d_plus, steps)) > I64_SAFE_LIMIT {
        return false;
    }
    let plan = Plan {
        d,
        bias: spec.bias(d_plus),
        magic64: DivMagic::new64(d_plus as u64),
        magic32: DivMagic::new32(d_plus as u64),
        gather,
    };
    stats.runs += 1;

    // Width decision. Forced-i32 runs whose seed never fits the limit
    // still honour the forced width's *intent* loudly: the guard trips
    // at entry, the fallback is counted, and the run completes on i64.
    let (want_i32, limit) = match config.width {
        VectorWidth::Auto => (max0 <= i64::from(I32_HEADROOM_LIMIT), I32_HEADROOM_LIMIT),
        VectorWidth::I64 => (false, I32_HEADROOM_LIMIT),
        VectorWidth::I32 { limit } => (true, limit.clamp(0, I32_HEADROOM_LIMIT)),
    };

    let adj = gp.graph().adjacency_slots();
    let mut remaining = steps;
    if want_i32 {
        if max0 > i64::from(limit) {
            stats.i32_fallbacks += 1;
        } else {
            remaining = run_i32(loads, &plan, adj, remaining, limit, stats);
        }
    }
    if remaining > 0 {
        run_i64(loads, &plan, adj, remaining, stats);
    }
    true
}

/// The i64 rounds: double-buffers internally and writes the final
/// state back into `loads`.
fn run_i64(loads: &mut [i64], plan: &Plan, adj: &[u32], steps: usize, stats: &mut VectorStats) {
    let n = loads.len();
    let mut b = vec![0i64; n];
    let mut back = vec![0i64; n];
    let mut cur: &mut [i64] = loads;
    let mut next: &mut [i64] = &mut back;
    for _ in 0..steps {
        round_i64(cur, next, &mut b, plan, adj, stats);
        std::mem::swap(&mut cur, &mut next);
    }
    if steps % 2 == 1 {
        next.copy_from_slice(cur);
    }
}

/// One i64 round: pass 1 (divide), pass 2 (gather per strategy).
fn round_i64(
    cur: &[i64],
    next: &mut [i64],
    b: &mut [i64],
    plan: &Plan,
    adj: &[u32],
    stats: &mut VectorStats,
) {
    let n = cur.len();
    let d = plan.d;
    let bias = plan.bias;
    let magic = plan.magic64;
    debug_assert!(cur.iter().all(|&x| x >= 0), "vector path requires x ≥ 0");

    // Pass 1 — b[u] = (x[u] + bias) / d⁺, explicit 8-lane chunks. The
    // subtraction x − d·b is fused in (both arrays are hot here).
    {
        let di = d as i64;
        let mut cx = cur.chunks_exact(LANES_64);
        let mut cb = b.chunks_exact_mut(LANES_64);
        let mut cn = next.chunks_exact_mut(LANES_64);
        for ((xs, bs), ns) in (&mut cx).zip(&mut cb).zip(&mut cn) {
            for k in 0..LANES_64 {
                let q = magic.div64(xs[k] as u64 + bias) as i64;
                bs[k] = q;
                ns[k] = xs[k] - di * q;
            }
        }
        for ((x, bq), nx) in cx
            .remainder()
            .iter()
            .zip(cb.into_remainder())
            .zip(cn.into_remainder())
        {
            let q = magic.div64(*x as u64 + bias) as i64;
            *bq = q;
            *nx = x - di * q;
        }
    }
    // Overdraw-freedom, by construction (module docs): d·b(x) ≤ x for
    // both specs on their admitted graphs, so next ≥ 0 before receives.
    debug_assert!(next.iter().all(|&x| x >= 0));

    // Pass 2 — receives.
    match plan.gather {
        Gather::Banded {
            offsets,
            exceptions,
        } => {
            stats.rounds_banded += 1;
            for (p, &o) in offsets.iter().enumerate() {
                // Bulk shifted add: next[u + o] += b[u] for all u where
                // u + o is in range; wrap nodes are patched after.
                let (dst, src) = shifted_pair_mut(next, b, o);
                let mut cd = dst.chunks_exact_mut(LANES_64);
                let mut cs = src.chunks_exact(LANES_64);
                for (ds, ss) in (&mut cd).zip(&mut cs) {
                    for k in 0..LANES_64 {
                        ds[k] += ss[k];
                    }
                }
                for (dv, sv) in cd.into_remainder().iter_mut().zip(cs.remainder()) {
                    *dv += sv;
                }
                for &(u, v) in &exceptions[p] {
                    let u = u as usize;
                    let shifted = u as i64 + o;
                    if (0..n as i64).contains(&shifted) {
                        next[shifted as usize] -= b[u];
                    }
                    next[v as usize] += b[u];
                }
            }
        }
        Gather::Blocked { block } => {
            stats.rounds_blocked += 1;
            match d {
                2 => blocked_gather_i64::<2>(next, b, adj, *block),
                4 => blocked_gather_i64::<4>(next, b, adj, *block),
                _ => {
                    for (u, nx) in next.iter_mut().enumerate() {
                        let mut acc = *nx;
                        for &v in &adj[u * d..(u + 1) * d] {
                            acc += b[v as usize];
                        }
                        *nx = acc;
                    }
                }
            }
        }
    }
    debug_assert_eq!(
        cur.iter().sum::<i64>(),
        next.iter().sum::<i64>(),
        "a vector round must conserve tokens"
    );
}

/// The degree-monomorphised CSR gather, in L2-sized node blocks.
fn blocked_gather_i64<const D: usize>(next: &mut [i64], b: &[i64], adj: &[u32], block: usize) {
    for (blk_i, nxs) in next.chunks_mut(block).enumerate() {
        let base = blk_i * block;
        for (i, nx) in nxs.iter_mut().enumerate() {
            let u = base + i;
            let mut acc = *nx;
            for &v in &adj[u * D..u * D + D] {
                acc += b[v as usize];
            }
            *nx = acc;
        }
    }
}

/// The i32 compressed rounds: converts in, runs until done or the
/// headroom guard trips, converts out. Returns the number of rounds
/// still to run on i64 (0 when everything completed compressed).
fn run_i32(
    loads: &mut [i64],
    plan: &Plan,
    adj: &[u32],
    steps: usize,
    limit: i32,
    stats: &mut VectorStats,
) -> usize {
    let n = loads.len();
    let mut front: Vec<i32> = loads.iter().map(|&x| x as i32).collect();
    let mut back = vec![0i32; n];
    let mut b = vec![0i32; n];
    let mut cur: &mut [i32] = &mut front;
    let mut next: &mut [i32] = &mut back;
    let mut done = 0usize;
    for _ in 0..steps {
        let round_max = round_i32(cur, next, &mut b, plan, adj, stats);
        std::mem::swap(&mut cur, &mut next);
        done += 1;
        if round_max > limit && done < steps {
            // Headroom gone: hand the remaining rounds to the i64 path,
            // loudly. (The round just completed is exact — the guard
            // limit is far below the arithmetic overflow bound.)
            stats.i32_fallbacks += 1;
            break;
        }
    }
    for (out, &x) in loads.iter_mut().zip(cur.iter()) {
        *out = i64::from(x);
    }
    steps - done
}

/// One i32 round; returns the maximum of the written back buffer (the
/// maintained invariant the next round's O(1) headroom check reads).
fn round_i32(
    cur: &[i32],
    next: &mut [i32],
    b: &mut [i32],
    plan: &Plan,
    adj: &[u32],
    stats: &mut VectorStats,
) -> i32 {
    let n = cur.len();
    let d = plan.d;
    let bias = plan.bias as u32;
    let magic = plan.magic32;
    debug_assert!(cur.iter().all(|&x| x >= 0));

    {
        let di = d as i32;
        let mut cx = cur.chunks_exact(LANES_32);
        let mut cb = b.chunks_exact_mut(LANES_32);
        let mut cn = next.chunks_exact_mut(LANES_32);
        for ((xs, bs), ns) in (&mut cx).zip(&mut cb).zip(&mut cn) {
            for k in 0..LANES_32 {
                let q = magic.div32(xs[k] as u32 + bias) as i32;
                bs[k] = q;
                ns[k] = xs[k] - di * q;
            }
        }
        for ((x, bq), nx) in cx
            .remainder()
            .iter()
            .zip(cb.into_remainder())
            .zip(cn.into_remainder())
        {
            let q = magic.div32(*x as u32 + bias) as i32;
            *bq = q;
            *nx = x - di * q;
        }
    }
    debug_assert!(next.iter().all(|&x| x >= 0));

    let mut round_max = 0i32;
    match plan.gather {
        Gather::Banded {
            offsets,
            exceptions,
        } => {
            stats.rounds_banded += 1;
            for (p, &o) in offsets.iter().enumerate() {
                let (dst, src) = shifted_pair_mut(next, b, o);
                let mut cd = dst.chunks_exact_mut(LANES_32);
                let mut cs = src.chunks_exact(LANES_32);
                for (ds, ss) in (&mut cd).zip(&mut cs) {
                    for k in 0..LANES_32 {
                        ds[k] += ss[k];
                    }
                }
                for (dv, sv) in cd.into_remainder().iter_mut().zip(cs.remainder()) {
                    *dv += sv;
                }
                for &(u, v) in &exceptions[p] {
                    let u = u as usize;
                    let shifted = u as i64 + o;
                    if (0..n as i64).contains(&shifted) {
                        next[shifted as usize] -= b[u];
                    }
                    next[v as usize] += b[u];
                }
            }
            // The maintained max: one chunked pass (the per-lane fold
            // is the price of the zero-gather hot loop above).
            let mut cm = next.chunks_exact(LANES_32);
            for ch in &mut cm {
                for &x in ch {
                    round_max = round_max.max(x);
                }
            }
            for &x in cm.remainder() {
                round_max = round_max.max(x);
            }
        }
        Gather::Blocked { block } => {
            stats.rounds_blocked += 1;
            round_max = match d {
                2 => blocked_gather_i32::<2>(next, b, adj, *block),
                4 => blocked_gather_i32::<4>(next, b, adj, *block),
                _ => {
                    let mut mx = 0i32;
                    for (u, nx) in next.iter_mut().enumerate() {
                        let mut acc = *nx;
                        for &v in &adj[u * d..(u + 1) * d] {
                            acc += b[v as usize];
                        }
                        *nx = acc;
                        mx = mx.max(acc);
                    }
                    mx
                }
            };
        }
    }
    stats.rounds_i32 += 1;
    debug_assert_eq!(
        cur.iter().map(|&x| i64::from(x)).sum::<i64>(),
        next.iter().map(|&x| i64::from(x)).sum::<i64>(),
        "a compressed round must conserve tokens"
    );
    round_max
}

/// The degree-monomorphised i32 CSR gather; folds the block's running
/// maximum as it writes (the per-block headroom re-verification).
fn blocked_gather_i32<const D: usize>(
    next: &mut [i32],
    b: &[i32],
    adj: &[u32],
    block: usize,
) -> i32 {
    let mut mx = 0i32;
    for (blk_i, nxs) in next.chunks_mut(block).enumerate() {
        let base = blk_i * block;
        for (i, nx) in nxs.iter_mut().enumerate() {
            let u = base + i;
            let mut acc = *nx;
            for &v in &adj[u * D..u * D + D] {
                acc += b[v as usize];
            }
            *nx = acc;
            mx = mx.max(acc);
        }
    }
    mx
}

/// The aligned (destination, source) slice pair of a shifted add with
/// offset `o`: `dst[i] += src[i]` implements `next[u + o] += b[u]`
/// over every `u` with `u + o` in range.
fn shifted_pair_mut<'a, T>(next: &'a mut [T], b: &'a [T], o: i64) -> (&'a mut [T], &'a [T]) {
    let n = next.len();
    if o >= 0 {
        let o = (o as usize).min(n);
        (&mut next[o..], &b[..n - o])
    } else {
        let o = ((-o) as usize).min(n);
        (&mut next[..n - o], &b[o..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_graph::generators;

    #[test]
    fn magic_division_is_exact_for_every_small_divisor() {
        // Every divisor the balancing graphs can produce, against a
        // sweep of dividends including the extremes of each range.
        for d in 1u64..=512 {
            let m64 = DivMagic::new64(d);
            let m32 = DivMagic::new32(d);
            let mut xs: Vec<u64> = (0..2048).collect();
            xs.extend((0..64).map(|i| (1u64 << 62) - i));
            xs.extend((0..64).map(|i| i64::MAX as u64 - i));
            xs.extend((0..64).map(|i| d.saturating_mul(1_000_003).wrapping_add(i)));
            for &x in &xs {
                assert_eq!(m64.div64(x), x / d, "64-bit x={x} d={d}");
                let x32 = (x % (1 << 31)) as u32;
                assert_eq!(m32.div32(x32), x32 / d as u32, "32-bit x={x32} d={d}");
            }
            // The full i32-range extremes for the 32-bit reciprocal.
            for x in [0u32, 1, i32::MAX as u32, i32::MAX as u32 - 1] {
                assert_eq!(m32.div32(x), x / d as u32, "32-bit extreme x={x} d={d}");
            }
        }
    }

    #[test]
    fn round_bias_reproduces_half_up_for_both_parities() {
        for d_plus in [2usize, 3, 4, 5, 6, 7, 8, 9] {
            let bias = UniformSpec::Round.bias(d_plus);
            for x in 0u64..200 {
                let base = x / d_plus as u64;
                let e = (x % d_plus as u64) as usize;
                let scalar = base + u64::from(2 * e >= d_plus);
                assert_eq!((x + bias) / d_plus as u64, scalar, "x={x} d⁺={d_plus}");
            }
        }
    }

    #[test]
    fn shifted_pair_handles_both_directions_and_saturation() {
        let mut next = vec![0i64; 5];
        let b = vec![1i64, 2, 3, 4, 5];
        let (d, s) = shifted_pair_mut(&mut next, &b, 2);
        assert_eq!(d.len(), 3);
        assert_eq!(s, &[1, 2, 3]);
        let (d, s) = shifted_pair_mut(&mut next, &b, -1);
        assert_eq!(d.len(), 4);
        assert_eq!(s, &[2, 3, 4, 5]);
        let (d, s) = shifted_pair_mut(&mut next, &b, 99);
        assert_eq!(d.len(), 0);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn auto_strategy_is_banded_on_cycles_and_blocked_on_scattered_graphs() {
        let cyc = BalancingGraph::lazy(generators::cycle(64).unwrap());
        assert!(matches!(
            plan_gather(&cyc, VectorStrategy::Auto),
            Gather::Banded { .. }
        ));
        // A square torus has 4·s wrap exceptions over n = s² nodes:
        // inside the n/8 budget once s ≥ 32.
        let torus = BalancingGraph::lazy(generators::torus(2, 64).unwrap());
        assert!(matches!(
            plan_gather(&torus, VectorStrategy::Auto),
            Gather::Banded { .. }
        ));
        // Below that (s = 16: 64 exceptions > budget 32) the wrap
        // edges dominate and Auto prefers the blocked gather.
        let small = BalancingGraph::lazy(generators::torus(2, 16).unwrap());
        assert!(matches!(
            plan_gather(&small, VectorStrategy::Auto),
            Gather::Blocked { .. }
        ));
        let rnd = BalancingGraph::lazy(generators::random_regular(256, 4, 7).unwrap());
        assert!(matches!(
            plan_gather(&rnd, VectorStrategy::Auto),
            Gather::Blocked { .. }
        ));
    }

    #[test]
    fn forced_strategies_agree_with_each_other_everywhere() {
        // Banded with a huge exception list is slow but must stay
        // exact: force both strategies on a scattered graph and on a
        // cycle, at both widths, and require identical trajectories.
        let graphs = [
            BalancingGraph::lazy(generators::random_regular(96, 4, 3).unwrap()),
            BalancingGraph::lazy(generators::cycle(97).unwrap()),
        ];
        for gp in &graphs {
            let n = gp.num_nodes();
            let seed: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 211).collect();
            let mut reference: Option<Vec<i64>> = None;
            for strategy in [VectorStrategy::Banded, VectorStrategy::BlockedCsr] {
                for width in [VectorWidth::I64, VectorWidth::I32 { limit: 1 << 20 }] {
                    let config = VectorConfig {
                        enabled: true,
                        strategy,
                        width,
                    };
                    let mut loads = seed.clone();
                    let mut stats = VectorStats::default();
                    assert!(run_uniform(
                        gp,
                        &plan_gather(gp, strategy),
                        &mut loads,
                        UniformSpec::Floor,
                        9,
                        &config,
                        &mut stats
                    ));
                    match &reference {
                        None => reference = Some(loads),
                        Some(r) => {
                            assert_eq!(r, &loads, "{strategy:?}/{width:?} diverged on n={n}")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn declines_only_on_astronomical_loads() {
        let gp = BalancingGraph::lazy(generators::cycle(8).unwrap());
        let config = VectorConfig::default();
        let mut stats = VectorStats::default();
        let gather = plan_gather(&gp, config.strategy);
        let mut fine = vec![1i64 << 40; 8];
        assert!(run_uniform(
            &gp,
            &gather,
            &mut fine,
            UniformSpec::Floor,
            4,
            &config,
            &mut stats
        ));
        let mut huge = vec![i64::MAX / 2; 8];
        let before = huge.clone();
        assert!(!run_uniform(
            &gp,
            &gather,
            &mut huge,
            UniformSpec::Floor,
            4,
            &config,
            &mut stats
        ));
        assert_eq!(huge, before, "a declined run must not touch loads");
    }
}
