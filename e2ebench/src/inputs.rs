//! Seeded input generation: parent graphs, fault sequences and query
//! pairs. Everything the program under test receives comes from here,
//! and the same seed always gives the same inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spanner_graph::bfs::{connected_components, hop_distances};
use spanner_graph::generators::random_geometric;
use spanner_graph::{FaultMask, Graph, NodeId};
use std::collections::VecDeque;

/// Input streams, kept apart so that adding draws to one never shifts
/// another.
#[derive(Clone, Copy, Debug)]
pub enum Stream {
    /// Parent graph number `index`.
    Graph = 1,
    /// Cold-start probes (fault and first pair).
    Probe = 2,
    /// Serving traffic.
    Traffic = 3,
}

/// A seeded generator for `stream`, instance `index`.
pub fn rng(seed: u64, stream: Stream, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix(mix(seed ^ 0x9e37_79b9_7f4a_7c15, stream as u64), index))
}

/// SplitMix64 finalizer over `a ⊕ b`.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a.wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The parent graph: `n` uniform points in the unit square, joined
/// within the radius that gives mean degree ≈ 7, Euclidean weights.
pub fn parent_graph(n: usize, seed: u64, index: u64) -> Graph {
    let radius = (7.0 / (std::f64::consts::PI * n as f64)).sqrt();
    random_geometric(n, radius, &mut rng(seed, Stream::Graph, index))
}

/// The parent graph's largest connected component and a
/// pseudo-diameter pair inside it (a double BFS sweep): the first-route
/// probe, chosen far so that its cost does not hinge on the draw.
#[derive(Clone, Debug)]
pub struct Giant {
    /// Vertices of the largest component.
    pub nodes: Vec<NodeId>,
    /// Two vertices of the component, about a hop diameter apart.
    pub far_pair: (NodeId, NodeId),
}

impl Giant {
    /// Computes the giant component of `g`.
    pub fn of(g: &Graph) -> Giant {
        let clear = FaultMask::for_graph(g);
        let (comp, count) = connected_components(g, &clear);
        let mut sizes = vec![0usize; count];
        for &c in &comp {
            sizes[c] += 1;
        }
        let big = (0..count)
            .max_by_key(|&c| sizes[c])
            .expect("graph has vertices");
        let nodes: Vec<NodeId> = g.nodes().filter(|v| comp[v.index()] == big).collect();
        let farthest = |from: NodeId| {
            let hops = hop_distances(g, from, &clear);
            *nodes
                .iter()
                .max_by_key(|v| (hops[v.index()], v.index()))
                .expect("component is nonempty")
        };
        let a = farthest(nodes[0]);
        let b = farthest(a);
        Giant {
            nodes,
            far_pair: (a, b),
        }
    }

    /// A uniform giant-component vertex outside `avoid`.
    pub fn pick(&self, rng: &mut StdRng, avoid: &[NodeId]) -> NodeId {
        assert!(self.nodes.len() > avoid.len(), "component too small");
        loop {
            let v = self.nodes[rng.gen_range(0..self.nodes.len())];
            if !avoid.contains(&v) {
                return v;
            }
        }
    }
}

/// `k` targets at 1 to `hops` parent hops from `src` in `g ∖ {fault}`,
/// drawn uniformly (with repeats only when fewer than `k` exist).
pub fn near_targets(
    g: &Graph,
    src: NodeId,
    fault: NodeId,
    hops: u32,
    k: usize,
    rng: &mut StdRng,
) -> Vec<NodeId> {
    let mut seen = vec![src, fault];
    let mut ball = Vec::new();
    let mut queue = VecDeque::from([(src, 0u32)]);
    while let Some((v, d)) = queue.pop_front() {
        if d == hops {
            continue;
        }
        for (to, _) in g.neighbors(v) {
            if !seen.contains(&to) {
                seen.push(to);
                ball.push(to);
                queue.push_back((to, d + 1));
            }
        }
    }
    if ball.is_empty() {
        // Only the fault separates src from the rest; serve the trivial pair.
        return vec![src; k];
    }
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let at = rng.gen_range(0..ball.len());
        if ball.len() >= k {
            out.push(ball.swap_remove(at));
        } else {
            out.push(ball[at]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = parent_graph(300, 7, 0);
        let b = parent_graph(300, 7, 0);
        let c = parent_graph(300, 8, 0);
        assert_eq!(a.edge_count(), b.edge_count());
        assert!(a.edges().zip(b.edges()).all(|(x, y)| x == y));
        assert_ne!(
            a.edges().map(|(_, e)| e.weight().get()).sum::<u64>(),
            c.edges().map(|(_, e)| e.weight().get()).sum::<u64>()
        );
    }

    #[test]
    fn near_targets_stay_within_hops_and_avoid_the_fault() {
        let g = parent_graph(400, 3, 0);
        let giant = Giant::of(&g);
        let mut r = rng(3, Stream::Traffic, 0);
        for _ in 0..20 {
            let fault = giant.pick(&mut r, &[]);
            let src = giant.pick(&mut r, &[fault]);
            let mut mask = FaultMask::for_graph(&g);
            mask.fault_vertex(fault);
            let hops = hop_distances(&g, src, &mask);
            for t in near_targets(&g, src, fault, 3, 4, &mut r) {
                assert_ne!(t, fault);
                assert!(t == src || (1..=3).contains(&hops[t.index()]));
            }
        }
    }
}
