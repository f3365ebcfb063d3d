use dlb_graph::BalancingGraph;

/// The per-step flow assignment `f_t`: how many tokens each node sends
/// through each of its `d⁺` ports this round.
///
/// Balancers fill a `FlowPlan` in [`Balancer::plan`]; the
/// [`Engine`](crate::Engine) then routes tokens and updates the
/// cumulative ledger. Flows are unsigned — a node cannot send negative
/// tokens — but a plan may *overdraw* (send more than the node holds),
/// which is how the negative-load behaviour of the \[4\]/\[18\] baselines
/// arises.
///
/// The plan remembers which nodes were written this round (the
/// *touched* set), so [`clear`](FlowPlan::clear) and the engine's
/// validation/routing passes cost `O(touched · d⁺)` rather than
/// `O(n · d⁺)` — the difference between a point mass that has spread to
/// a handful of nodes and a full sweep of a million-node graph. A node
/// never written holds all-zero flows by construction.
///
/// [`Balancer::plan`]: crate::Balancer::plan
#[derive(Debug, Clone, Eq)]
pub struct FlowPlan {
    n: usize,
    d_plus: usize,
    flows: Vec<u64>,
    /// Nodes written this round, in first-touch order.
    touched: Vec<u32>,
    /// Per-node membership flag for `touched`.
    dirty: Vec<bool>,
}

/// Equality is over the flow assignment only: two plans with the same
/// flows are equal regardless of the order (or over-approximation) of
/// their touched sets.
impl PartialEq for FlowPlan {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.d_plus == other.d_plus && self.flows == other.flows
    }
}

impl FlowPlan {
    /// An all-zero plan shaped for `gp`.
    ///
    /// # Panics
    ///
    /// Panics if `gp` has more than `u32::MAX` nodes (the touched set
    /// stores node ids as `u32`).
    pub fn for_graph(gp: &BalancingGraph) -> Self {
        let n = gp.num_nodes();
        assert!(n <= u32::MAX as usize, "n = {n} exceeds the node id space");
        FlowPlan {
            n,
            d_plus: gp.degree_plus(),
            flows: vec![0; n * gp.degree_plus()],
            touched: Vec::new(),
            dirty: vec![false; n],
        }
    }

    /// Number of nodes the plan covers.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Ports per node (`d⁺`).
    #[inline]
    pub fn degree_plus(&self) -> usize {
        self.d_plus
    }

    #[inline]
    fn mark(&mut self, u: usize) {
        if !self.dirty[u] {
            self.dirty[u] = true;
            self.touched.push(u as u32);
        }
    }

    /// The nodes written since the last [`clear`](FlowPlan::clear), in
    /// first-touch order. Nodes outside this set hold all-zero flows.
    #[inline]
    pub fn touched(&self) -> impl Iterator<Item = usize> + '_ {
        self.touched.iter().map(|&u| u as usize)
    }

    /// Number of touched nodes.
    #[inline]
    pub fn touched_len(&self) -> usize {
        self.touched.len()
    }

    /// Whether node `u` was written since the last clear.
    #[inline]
    pub fn is_touched(&self, u: usize) -> bool {
        self.dirty[u]
    }

    /// Resets all flows to zero (reusing the allocation between steps).
    /// Costs `O(touched · d⁺)`, not `O(n · d⁺)`.
    pub fn clear(&mut self) {
        let d_plus = self.d_plus;
        for &u in &self.touched {
            let u = u as usize;
            self.flows[u * d_plus..(u + 1) * d_plus].fill(0);
            self.dirty[u] = false;
        }
        self.touched.clear();
    }

    /// Tokens node `u` sends through port `p`.
    #[inline]
    pub fn get(&self, u: usize, p: usize) -> u64 {
        self.flows[u * self.d_plus + p]
    }

    /// Sets the tokens node `u` sends through port `p`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `p` is out of range.
    #[inline]
    pub fn set(&mut self, u: usize, p: usize, tokens: u64) {
        assert!(p < self.d_plus, "port {p} out of range");
        self.mark(u);
        self.flows[u * self.d_plus + p] = tokens;
    }

    /// Adds to the tokens node `u` sends through port `p`.
    #[inline]
    pub fn add(&mut self, u: usize, p: usize, tokens: u64) {
        assert!(p < self.d_plus, "port {p} out of range");
        self.mark(u);
        self.flows[u * self.d_plus + p] += tokens;
    }

    /// The flows of node `u`, indexed by port.
    #[inline]
    pub fn node(&self, u: usize) -> &[u64] {
        &self.flows[u * self.d_plus..(u + 1) * self.d_plus]
    }

    /// Mutable flows of node `u`, indexed by port.
    ///
    /// Marks `u` as touched (the caller is assumed to write).
    #[inline]
    pub fn node_mut(&mut self, u: usize) -> &mut [u64] {
        self.mark(u);
        &mut self.flows[u * self.d_plus..(u + 1) * self.d_plus]
    }

    /// Total tokens node `u` sends this step, `f_t^out(u)`.
    pub fn node_total(&self, u: usize) -> u64 {
        self.node(u).iter().sum()
    }
}

/// The cumulative flow ledger `F_t(e) = Σ_{τ≤t} f_τ(e)` per (node, port).
///
/// Definition 2.1 (cumulative δ-fairness) is a statement about this
/// ledger: for all `t` and every pair of *original* edges `e₁, e₂` of a
/// node, `|F_t(e₁) − F_t(e₂)| ≤ δ`. A
/// [`FairnessMonitor`](crate::fairness::FairnessMonitor) owns one and
/// records every step it observes into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CumulativeLedger {
    n: usize,
    d: usize,
    d_plus: usize,
    totals: Vec<u64>,
    steps: usize,
}

impl CumulativeLedger {
    /// An empty ledger shaped for `gp`.
    pub fn for_graph(gp: &BalancingGraph) -> Self {
        CumulativeLedger {
            n: gp.num_nodes(),
            d: gp.degree(),
            d_plus: gp.degree_plus(),
            totals: vec![0; gp.num_nodes() * gp.degree_plus()],
            steps: 0,
        }
    }

    /// Number of steps accumulated.
    #[inline]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Accumulates one step's flows.
    ///
    /// Only the plan's touched nodes are visited (untouched nodes carry
    /// zero flow), so recording costs `O(touched · d⁺)`.
    ///
    /// # Panics
    ///
    /// Panics if the plan's shape differs from the ledger's.
    pub fn record(&mut self, plan: &FlowPlan) {
        assert_eq!(plan.num_nodes(), self.n, "plan shape mismatch");
        assert_eq!(plan.degree_plus(), self.d_plus, "plan shape mismatch");
        let d_plus = self.d_plus;
        for u in plan.touched() {
            let range = u * d_plus..(u + 1) * d_plus;
            for (total, flow) in self.totals[range.clone()]
                .iter_mut()
                .zip(&plan.flows[range])
            {
                *total += flow;
            }
        }
        self.steps += 1;
    }

    /// Cumulative flow `F_t` for node `u`, indexed by port.
    #[inline]
    pub fn node(&self, u: usize) -> &[u64] {
        &self.totals[u * self.d_plus..(u + 1) * self.d_plus]
    }

    /// Cumulative flow over one port.
    #[inline]
    pub fn get(&self, u: usize, p: usize) -> u64 {
        self.totals[u * self.d_plus + p]
    }

    /// `F_t^out(u)`: cumulative tokens sent by `u` over all ports.
    pub fn node_total(&self, u: usize) -> u64 {
        self.node(u).iter().sum()
    }

    /// The largest spread `max_{e₁,e₂ ∈ E_u} |F_t(e₁) − F_t(e₂)|` over
    /// *original* ports, maximised over all nodes — the δ witnessed by
    /// the run so far.
    ///
    /// Returns 0 when `d < 2` (no pair of original edges to compare).
    pub fn original_edge_spread(&self) -> u64 {
        let mut worst = 0;
        for u in 0..self.n {
            let originals = &self.node(u)[..self.d];
            if originals.len() < 2 {
                continue;
            }
            let max = *originals.iter().max().expect("d >= 2");
            let min = *originals.iter().min().expect("d >= 2");
            worst = worst.max(max - min);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_graph::{generators, BalancingGraph};

    fn lazy_cycle(n: usize) -> BalancingGraph {
        BalancingGraph::lazy(generators::cycle(n).unwrap())
    }

    #[test]
    fn plan_shape_and_access() {
        let gp = lazy_cycle(4);
        let mut plan = FlowPlan::for_graph(&gp);
        assert_eq!(plan.num_nodes(), 4);
        assert_eq!(plan.degree_plus(), 4);
        plan.set(1, 2, 7);
        plan.add(1, 2, 3);
        assert_eq!(plan.get(1, 2), 10);
        assert_eq!(plan.node(1), &[0, 0, 10, 0]);
        assert_eq!(plan.node_total(1), 10);
        plan.clear();
        assert_eq!(plan.node_total(1), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn plan_rejects_bad_port() {
        let gp = lazy_cycle(4);
        let mut plan = FlowPlan::for_graph(&gp);
        plan.set(0, 4, 1);
    }

    #[test]
    fn ledger_accumulates_and_counts_steps() {
        let gp = lazy_cycle(3);
        let mut ledger = CumulativeLedger::for_graph(&gp);
        let mut plan = FlowPlan::for_graph(&gp);
        plan.set(0, 0, 2);
        plan.set(0, 1, 1);
        ledger.record(&plan);
        ledger.record(&plan);
        assert_eq!(ledger.steps(), 2);
        assert_eq!(ledger.get(0, 0), 4);
        assert_eq!(ledger.get(0, 1), 2);
        assert_eq!(ledger.node_total(0), 6);
    }

    #[test]
    fn spread_measures_original_ports_only() {
        let gp = lazy_cycle(3);
        let mut ledger = CumulativeLedger::for_graph(&gp);
        let mut plan = FlowPlan::for_graph(&gp);
        // Original ports 0, 1 get unequal flow; self-loop port 2 gets a
        // huge flow which must NOT count toward the spread.
        plan.set(0, 0, 5);
        plan.set(0, 1, 3);
        plan.set(0, 2, 1000);
        ledger.record(&plan);
        assert_eq!(ledger.original_edge_spread(), 2);
    }

    #[test]
    fn touched_tracks_written_nodes_and_clear_resets() {
        let gp = lazy_cycle(5);
        let mut plan = FlowPlan::for_graph(&gp);
        assert_eq!(plan.touched_len(), 0);
        plan.set(3, 0, 7);
        plan.add(1, 1, 2);
        plan.set(3, 2, 1); // re-touching does not duplicate
        let touched: Vec<usize> = plan.touched().collect();
        assert_eq!(touched, vec![3, 1], "first-touch order");
        assert!(plan.is_touched(3) && plan.is_touched(1));
        assert!(!plan.is_touched(0));
        plan.clear();
        assert_eq!(plan.touched_len(), 0);
        assert!(!plan.is_touched(3));
        assert_eq!(plan.node_total(3), 0);
        assert_eq!(plan.node_total(1), 0);
    }

    #[test]
    fn equality_ignores_touch_bookkeeping() {
        let gp = lazy_cycle(4);
        let mut a = FlowPlan::for_graph(&gp);
        let mut b = FlowPlan::for_graph(&gp);
        // b touches a node with zeros only; flows stay equal.
        b.node_mut(2);
        assert_eq!(a, b);
        a.set(1, 1, 4);
        assert_ne!(a, b);
        b.set(1, 1, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn ledger_record_covers_touched_nodes_only_but_exactly() {
        let gp = lazy_cycle(4);
        let mut ledger = CumulativeLedger::for_graph(&gp);
        let mut plan = FlowPlan::for_graph(&gp);
        plan.set(2, 1, 9);
        ledger.record(&plan);
        plan.clear();
        plan.set(0, 3, 4);
        ledger.record(&plan);
        assert_eq!(ledger.get(2, 1), 9);
        assert_eq!(ledger.get(0, 3), 4);
        assert_eq!(ledger.steps(), 2);
        assert_eq!(ledger.node_total(1), 0);
    }

    #[test]
    fn node_mut_allows_bulk_writes() {
        let gp = lazy_cycle(3);
        let mut plan = FlowPlan::for_graph(&gp);
        plan.node_mut(2).copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(plan.node_total(2), 10);
    }
}
