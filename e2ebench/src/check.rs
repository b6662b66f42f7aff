//! Correctness gates on served answers, run outside every timed region.
//!
//! An answer for pair `(u, v)` under vertex fault set `F` passes when
//! - it equals [`route_one`] over the owned `decode` of the same artifact;
//! - a route is a path of live spanner edges from `u` to `v` whose
//!   weights sum to its distance, and that distance is at most
//!   `stretch · dist_{G∖F}(u, v)` by a Dijkstra on the parent;
//! - an error is returned only when `G ∖ F` disconnects the pair.

use spanner_core::routing::{Route, RouteError};
use spanner_core::serve::route_one;
use spanner_core::FrozenSpanner;
use spanner_faults::FaultSet;
use spanner_graph::{DijkstraEngine, Dist, FaultMask, Graph, GraphView, NodeId, PathScratch};

/// Checks answers against one artifact and its parent graph.
pub struct Checker<'a> {
    parent: &'a Graph,
    reference: &'a FrozenSpanner,
    stretch: u64,
    engine: DijkstraEngine,
    scratch: PathScratch,
    parent_engine: DijkstraEngine,
}

impl<'a> Checker<'a> {
    /// A checker for answers served from `reference`'s artifact.
    pub fn new(parent: &'a Graph, reference: &'a FrozenSpanner) -> Self {
        Checker {
            parent,
            reference,
            stretch: reference.stretch(),
            engine: DijkstraEngine::new(),
            scratch: PathScratch::new(),
            parent_engine: DijkstraEngine::new(),
        }
    }

    /// Checks `answer` for `(u, v)` under the single vertex fault `fault`.
    ///
    /// # Errors
    ///
    /// A description of the first gate the answer fails.
    pub fn check(
        &mut self,
        fault: NodeId,
        (u, v): (NodeId, NodeId),
        answer: &Result<Route, RouteError>,
    ) -> Result<(), String> {
        let faults = FaultSet::vertices([fault]);
        let mut mask =
            FaultMask::with_capacity(self.reference.node_count(), self.reference.edge_count());
        self.reference.apply_faults(&faults, &mut mask);
        let expected = route_one(
            self.reference,
            &mut self.engine,
            &mut self.scratch,
            &mask,
            u,
            v,
        );
        if *answer != expected {
            return Err(format!(
                "{u}->{v}: served {answer:?}, reference {expected:?}"
            ));
        }
        let mut parent_mask = FaultMask::for_graph(self.parent);
        parent_mask.fault_vertex(fault);
        let parent_dist =
            self.parent_engine
                .dist_bounded(self.parent, u, v, Dist::INFINITE, &parent_mask);
        match (answer, parent_dist) {
            (Ok(route), Some(base)) => {
                self.check_path(route, &mask, u, v)?;
                let limit = base.value().expect("finite") * self.stretch;
                let got = route.dist.value().expect("finite route");
                if got > limit {
                    return Err(format!(
                        "{u}->{v}: stretch violated, {got} > {} x {}",
                        self.stretch, base
                    ));
                }
                Ok(())
            }
            (Ok(_), None) => Err(format!(
                "{u}->{v}: routed although G-F disconnects the pair"
            )),
            (Err(RouteError::Unreachable { .. }), None) => Ok(()),
            (Err(e), _) => Err(format!(
                "{u}->{v}: typed error {e:?} for a pair G-F connects"
            )),
        }
    }

    fn check_path(
        &self,
        route: &Route,
        mask: &FaultMask,
        u: NodeId,
        v: NodeId,
    ) -> Result<(), String> {
        let csr = self.reference.csr();
        let ends_ok = route.nodes.first() == Some(&u) && route.nodes.last() == Some(&v);
        if !ends_ok || route.nodes.len() != route.edges.len() + 1 {
            return Err(format!("{u}->{v}: malformed route"));
        }
        let mut total = Dist::ZERO;
        for (i, &e) in route.edges.iter().enumerate() {
            let (a, b) = csr.edge_endpoints(e);
            let (x, y) = (route.nodes[i], route.nodes[i + 1]);
            let joins = (a, b) == (x, y) || (a, b) == (y, x);
            if !joins || !mask.allows(y, e) || mask.is_vertex_faulted(x) {
                return Err(format!("{u}->{v}: hop {i} is not a live spanner edge"));
            }
            total = total + csr.edge_weight(e);
        }
        if total != route.dist {
            return Err(format!(
                "{u}->{v}: route weighs {total}, claims {}",
                route.dist
            ));
        }
        Ok(())
    }
}
