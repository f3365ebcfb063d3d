use dlb_graph::{BalancingGraph, GraphError, PortOrder};

use crate::balancer::split_load;
use crate::{Balancer, FlowPlan, LoadVector};

/// ROTOR-ROUTER\*: the self-preferring rotor-router variant (§1.1).
///
/// Requires the paper's main regime `d° = d` (so `d⁺ = 2d`). One
/// self-loop is designated **special** and always receives
/// `⌈x_t(u)/2d⌉` tokens; the remaining tokens are distributed by an
/// ordinary rotor over the other `2d − 1` ports (`d` original edges and
/// `d − 1` plain self-loops).
///
/// This makes the scheme a **good 1-balancer** (Observation 3.2): it is
/// round-fair (every port still gets `⌊x/d⁺⌋` or `⌈x/d⁺⌉` — the special
/// loop absorbs exactly one surplus token whenever there is any), it is
/// cumulatively 1-fair on original edges (the inner rotor guarantees
/// it), and at least `min{1, e(u)}` self-loops — the special one —
/// receive the ceiling.
///
/// By Theorem 3.3 it therefore reaches `O(d)` discrepancy within
/// `O(T + d·log²n/µ)` steps, which the `thm33` experiments measure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotorRouterStar {
    /// All per-node cyclic sequences over the `2d − 1` non-special
    /// ports, flattened into one contiguous allocation: node `u`'s
    /// sequence is `sequences[u * stride .. (u + 1) * stride]` with the
    /// constant stride `2d − 1`.
    sequences: Vec<u16>,
    /// Sequence length per node (`d⁺ − 1`).
    stride: usize,
    rotors: Vec<usize>,
    initial_rotors: Vec<usize>,
    special_port: usize,
}

impl RotorRouterStar {
    /// Builds the scheme for `gp`.
    ///
    /// The inner rotor order is derived from `order` by dropping the
    /// special port (the last self-loop).
    ///
    /// # Errors
    ///
    /// Returns an error if `gp` does not satisfy `d° = d`, or if
    /// `order` is invalid for `gp`.
    pub fn new(gp: &BalancingGraph, order: PortOrder) -> Result<Self, GraphError> {
        let d = gp.degree();
        if gp.num_self_loops() != d {
            return Err(GraphError::InvalidParameters {
                reason: format!(
                    "ROTOR-ROUTER* requires d° = d, got d° = {}, d = {d}",
                    gp.num_self_loops()
                ),
            });
        }
        let special_port = gp.degree_plus() - 1;
        let n = gp.num_nodes();
        let stride = gp.degree_plus() - 1;
        let mut sequences = Vec::with_capacity(n * stride);
        for u in 0..n {
            let full = order.sequence_for(gp, u)?;
            sequences.extend(full.into_iter().filter(|&p| p as usize != special_port));
        }
        Ok(RotorRouterStar {
            sequences,
            stride,
            rotors: vec![0; n],
            initial_rotors: vec![0; n],
            special_port,
        })
    }

    /// Builds the scheme with explicit initial positions for the inner
    /// rotor (the snapshot-restore constructor, mirroring
    /// [`RotorRouter::with_initial_rotors`](crate::schemes::RotorRouter::with_initial_rotors)).
    ///
    /// # Errors
    ///
    /// Returns an error if `gp` does not satisfy `d° = d`, or if
    /// `rotors` has the wrong length or an out-of-range position (the
    /// inner rotor runs over `d⁺ − 1` ports).
    pub fn with_initial_rotors(
        gp: &BalancingGraph,
        order: PortOrder,
        rotors: Vec<usize>,
    ) -> Result<Self, GraphError> {
        let mut rrs = RotorRouterStar::new(gp, order)?;
        if rotors.len() != gp.num_nodes() {
            return Err(GraphError::InvalidParameters {
                reason: format!(
                    "rotor vector has {} entries, expected n = {}",
                    rotors.len(),
                    gp.num_nodes()
                ),
            });
        }
        for (u, &r) in rotors.iter().enumerate() {
            if r >= rrs.stride {
                return Err(GraphError::InvalidParameters {
                    reason: format!("inner rotor position {r} out of range at node {u}"),
                });
            }
        }
        rrs.initial_rotors.clone_from(&rotors);
        rrs.rotors = rotors;
        Ok(rrs)
    }

    /// The port index of the special self-loop.
    pub fn special_port(&self) -> usize {
        self.special_port
    }

    /// Current rotor positions of the inner rotor.
    pub fn rotors(&self) -> &[usize] {
        &self.rotors
    }
}

impl Balancer for RotorRouterStar {
    fn name(&self) -> &'static str {
        "rotor-router-star"
    }

    fn plan(&mut self, gp: &BalancingGraph, loads: &LoadVector, plan: &mut FlowPlan) {
        let d_plus = gp.degree_plus();
        let inner_len = d_plus - 1;
        for u in 0..gp.num_nodes() {
            let (base, e) = split_load(loads.get(u), d_plus);
            // Special self-loop takes the ceiling ⌈x/2d⌉.
            let special_flow = base + u64::from(e > 0);
            let flows = plan.node_mut(u);
            flows[self.special_port] = special_flow;
            // Remaining y = x − special = inner_len·base + (e−1 if e>0):
            // plain rotor round-robin over the other ports.
            let inner_extras = e.saturating_sub(1);
            let seq = &self.sequences[u * self.stride..(u + 1) * self.stride];
            for &p in seq {
                flows[p as usize] = base;
            }
            let rotor = self.rotors[u];
            for i in 0..inner_extras {
                let port = seq[(rotor + i) % inner_len] as usize;
                flows[port] += 1;
            }
            self.rotors[u] = (rotor + inner_extras) % inner_len;
        }
    }

    fn reset(&mut self) {
        self.rotors.clone_from(&self.initial_rotors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use dlb_graph::generators;

    fn lazy_cycle(n: usize) -> BalancingGraph {
        BalancingGraph::lazy(generators::cycle(n).unwrap())
    }

    #[test]
    fn special_loop_gets_ceiling() {
        let gp = lazy_cycle(4); // d = 2, d⁺ = 4, special = port 3
        let mut rrs = RotorRouterStar::new(&gp, PortOrder::Sequential).unwrap();
        let loads = LoadVector::uniform(4, 7); // base 1, e 3 ⇒ ceil 2
        let mut plan = FlowPlan::for_graph(&gp);
        rrs.plan(&gp, &loads, &mut plan);
        assert_eq!(plan.get(0, 3), 2, "special self-loop takes ⌈7/4⌉");
        assert_eq!(plan.node_total(0), 7, "everything sent");
        // Inner rotor spreads e−1 = 2 extras over ports 0, 1.
        assert_eq!(plan.node(0), &[2, 2, 1, 2]);
    }

    #[test]
    fn exact_multiples_send_base_everywhere() {
        let gp = lazy_cycle(4);
        let mut rrs = RotorRouterStar::new(&gp, PortOrder::Sequential).unwrap();
        let loads = LoadVector::uniform(4, 8); // e = 0
        let mut plan = FlowPlan::for_graph(&gp);
        rrs.plan(&gp, &loads, &mut plan);
        assert_eq!(plan.node(0), &[2, 2, 2, 2]);
    }

    #[test]
    fn is_good_one_balancer_by_monitor() {
        let gp = lazy_cycle(8);
        let mut rrs = RotorRouterStar::new(&gp, PortOrder::Sequential).unwrap();
        let mut engine = Engine::new(gp, LoadVector::point_mass(8, 1013));
        engine.attach_monitor();
        engine.run(&mut rrs, 500).unwrap();
        let m = engine.monitor().unwrap();
        assert_eq!(m.round_violations(), 0, "round-fair");
        assert_eq!(m.floor_violations(), 0);
        // Good 1-balancer: witnessed s must be at least 1 (or entirely
        // unconstrained).
        match m.witnessed_s() {
            None => {}
            Some(s) => assert!(s >= 1, "witnessed s = {s}"),
        }
        // Cumulative 1-fairness on original edges.
        assert!(engine.monitor().unwrap().ledger().original_edge_spread() <= 1);
    }

    #[test]
    fn rejects_wrong_laziness() {
        let gp = BalancingGraph::with_self_loops(generators::cycle(4).unwrap(), 1).unwrap();
        assert!(RotorRouterStar::new(&gp, PortOrder::Sequential).is_err());
        let gp = BalancingGraph::bare(generators::cycle(4).unwrap());
        assert!(RotorRouterStar::new(&gp, PortOrder::Sequential).is_err());
    }

    #[test]
    fn conserves_tokens_over_long_runs() {
        let gp = lazy_cycle(16);
        let mut rrs = RotorRouterStar::new(&gp, PortOrder::Sequential).unwrap();
        let mut engine = Engine::new(gp, LoadVector::point_mass(16, 12345));
        engine.run(&mut rrs, 1000).unwrap();
        assert_eq!(engine.loads().total(), 12345);
    }

    #[test]
    fn reaches_theorem_33_discrepancy_on_cycle() {
        // Theorem 3.3: (2δ+1)d⁺ + 4d° = 3·4 + 4·2 = 20 for the cycle,
        // given enough time. Empirically it lands much lower.
        let gp = lazy_cycle(32);
        let mut rrs = RotorRouterStar::new(&gp, PortOrder::Sequential).unwrap();
        let mut engine = Engine::new(gp, LoadVector::point_mass(32, 6400));
        engine.run(&mut rrs, 20_000).unwrap();
        assert!(
            engine.loads().discrepancy() <= 20,
            "discrepancy {}",
            engine.loads().discrepancy()
        );
    }

    #[test]
    fn reset_restores_rotors() {
        let gp = lazy_cycle(4);
        let mut rrs = RotorRouterStar::new(&gp, PortOrder::Sequential).unwrap();
        let loads = LoadVector::uniform(4, 7);
        let mut plan = FlowPlan::for_graph(&gp);
        rrs.plan(&gp, &loads, &mut plan);
        assert_ne!(rrs.rotors(), &[0, 0, 0, 0]);
        rrs.reset();
        assert_eq!(rrs.rotors(), &[0, 0, 0, 0]);
    }

    /// The snapshot-restore constructor: rebuilding from captured
    /// rotor positions continues the plan stream bit-identically.
    #[test]
    fn with_initial_rotors_resumes_the_plan_stream() {
        let gp = lazy_cycle(8);
        let mut original = RotorRouterStar::new(&gp, PortOrder::Sequential).unwrap();
        let mut engine = Engine::new(gp.clone(), LoadVector::point_mass(8, 1013));
        engine.run(&mut original, 50).unwrap();

        let mut restored = RotorRouterStar::with_initial_rotors(
            &gp,
            PortOrder::Sequential,
            original.rotors().to_vec(),
        )
        .unwrap();
        let mut resumed = Engine::from_state(engine.export_state());
        engine.run(&mut original, 50).unwrap();
        resumed.run(&mut restored, 50).unwrap();
        assert_eq!(resumed.loads(), engine.loads());
        assert_eq!(restored.rotors(), original.rotors());

        // Shape errors are reported, not asserted.
        assert!(
            RotorRouterStar::with_initial_rotors(&gp, PortOrder::Sequential, vec![0; 7]).is_err()
        );
        assert!(
            RotorRouterStar::with_initial_rotors(&gp, PortOrder::Sequential, vec![3; 8]).is_err()
        );
    }
}
