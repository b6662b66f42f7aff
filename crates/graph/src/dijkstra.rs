//! Fault-masked, bound-aware Dijkstra.
//!
//! Two features matter for spanner construction beyond textbook Dijkstra:
//!
//! 1. **Fault masks** — queries run against `H ∖ F` for many candidate fault
//!    sets `F` without copying the graph ([`FaultMask`]).
//! 2. **Distance bounds** — the greedy test only asks whether
//!    `dist(u, v) ≤ k·w`; the search can stop as soon as the frontier passes
//!    the bound, which on bounded queries turns Dijkstra from O(m log n)
//!    into "O(size of the k·w ball)".
//!
//! [`DijkstraEngine`] owns the scratch arrays (distances, parents, heap) and
//! reuses them across queries via epoch stamping, so a query allocates
//! nothing after warm-up. The fault-set search oracles issue up to `O(k^f)`
//! queries per greedy edge; this reuse is what keeps them tractable.
//!
//! # Scratch-reuse contract
//!
//! The engine is generic over [`GraphView`], so the same monomorphized
//! loop serves both the growable [`Graph`](crate::Graph) and the flat
//! [`IncrementalCsr`](crate::IncrementalCsr) layouts. Two rules keep the
//! hot path allocation-free:
//!
//! 1. **Engine scratch grows, never shrinks.** `prepare` resizes the
//!    distance/parent/epoch arrays only when a larger graph appears;
//!    steady-state queries recycle them via epoch stamping.
//! 2. **Path extraction writes into caller buffers.**
//!    [`DijkstraEngine::shortest_path_bounded_into`] fills a caller-owned
//!    [`PathScratch`] (clearing, not reallocating, its vectors).
//!    [`DijkstraEngine::shortest_path_bounded`] is the allocating
//!    convenience wrapper; loops should prefer the `_into` form.
//!
//! # Canonical searches
//!
//! A plain Dijkstra returns *a* shortest path; which one, among equally
//! short ones, depends on the order neighbors were relaxed and ties were
//! popped. Serving needs more: a route must not depend on how it was
//! searched for, so that a batch extraction, a goal-directed search and
//! the single-pair reference all return the same one. The **canonical
//! shortest-path tree** gives every reached vertex `v ≠ src` the parent
//! `(u, e)` that is smallest (by vertex id, then edge id) among its
//! *tight* predecessors — live edges `e = uv` with
//! `dist(u) + w(e) = dist(v)` — and the canonical route to `dst` is the
//! tree path. Weights are strictly positive, so every tight predecessor
//! of `v` has a strictly smaller distance and is settled, and has offered
//! itself to `v`, before `v` settles; keeping the smallest offer among
//! equal-distance ones therefore fixes `v`'s parent no matter where the
//! search stops or in what order it ran.
//!
//! [`DijkstraEngine::search_from`] and [`DijkstraEngine::canonical_query`]
//! build that tree. With [`Landmarks`], `canonical_query` runs A* keyed by
//! `(dist + h, dist)`: a consistent `h` with ties broken toward the smaller
//! distance still settles every tight predecessor first, so the
//! goal-directed route is the same canonical route. The construction-side
//! queries ([`DijkstraEngine::dist_bounded`],
//! [`DijkstraEngine::shortest_path_bounded_into`]) skip the tie-break:
//! they only need some shortest path, and they run far more often.

use crate::adjacency::GraphView;
use crate::{Dist, EdgeId, FaultMask, IndexedHeap, NodeId, UnionFind, Weight};

/// A shortest path found by [`DijkstraEngine::shortest_path_bounded`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShortestPath {
    /// Total weight of the path.
    pub dist: Dist,
    /// Vertices from source to target, inclusive.
    pub nodes: Vec<NodeId>,
    /// Edges in path order (`nodes.len() - 1` of them).
    pub edges: Vec<EdgeId>,
}

impl ShortestPath {
    /// The vertices strictly between source and target.
    ///
    /// These are the branching candidates for vertex fault search: any fault
    /// set that blocks this path must contain one of them (or an edge).
    pub fn interior_nodes(&self) -> &[NodeId] {
        if self.nodes.len() <= 2 {
            &[]
        } else {
            &self.nodes[1..self.nodes.len() - 1]
        }
    }

    /// Number of edges on the path.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the path is a single vertex (source == target).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// A reusable shortest-path buffer for
/// [`DijkstraEngine::shortest_path_bounded_into`].
///
/// Holds the same data as [`ShortestPath`] but is designed to be owned by
/// a long-lived caller (a fault oracle's per-construction scratch) and
/// refilled on every query without reallocating.
#[derive(Clone, Debug, Default)]
pub struct PathScratch {
    dist: Dist,
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl PathScratch {
    /// Creates an empty scratch buffer.
    pub fn new() -> Self {
        PathScratch::default()
    }

    /// Total weight of the last extracted path.
    pub fn dist(&self) -> Dist {
        self.dist
    }

    /// Vertices from source to target, inclusive.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Edges in path order (`nodes().len() - 1` of them).
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// The vertices strictly between source and target (the vertex-model
    /// branching candidates).
    pub fn interior_nodes(&self) -> &[NodeId] {
        if self.nodes.len() <= 2 {
            &[]
        } else {
            &self.nodes[1..self.nodes.len() - 1]
        }
    }

    /// Number of edges on the path.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the path is a single vertex (source == target).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

const NO_PARENT: u32 = u32::MAX;

/// Sentinel for "the last search had no early-stop target".
const NO_TARGET: u32 = u32::MAX;

/// Reusable Dijkstra scratch space for one graph size.
///
/// The engine is sized lazily to the largest graph it has seen; it can be
/// shared across graphs as long as node ids fit.
///
/// # Examples
///
/// ```
/// use spanner_graph::{DijkstraEngine, Dist, FaultMask, Graph, NodeId};
///
/// let g = Graph::from_weighted_edges(4, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 2, 5)])?;
/// let mut engine = DijkstraEngine::new();
/// let mask = FaultMask::for_graph(&g);
/// let d = engine.dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::finite(10), &mask);
/// assert_eq!(d, Some(Dist::finite(2)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DijkstraEngine {
    dist: Vec<Dist>,
    parent_node: Vec<u32>,
    parent_edge: Vec<u32>,
    epoch: Vec<u32>,
    current_epoch: u32,
    heap: Option<IndexedHeap<u64>>,
    /// The A* heap, keyed by `(dist + h, dist)`; allocated on the first
    /// goal-directed query.
    goal_heap: Option<IndexedHeap<(u64, u64)>>,
    /// The last search's early-stop target ([`NO_TARGET`] for a full
    /// [`DijkstraEngine::search_from`]-style run) and bound — what
    /// [`DijkstraEngine::extract_path_into`] needs to tell settled
    /// distances from tentative ones.
    last_dst: u32,
    last_bound: Dist,
    /// Number of heap pops across all queries (exposed for experiments that
    /// measure oracle work in machine-independent units).
    pops: u64,
}

impl Default for DijkstraEngine {
    fn default() -> Self {
        DijkstraEngine {
            dist: Vec::new(),
            parent_node: Vec::new(),
            parent_edge: Vec::new(),
            epoch: Vec::new(),
            current_epoch: 0,
            heap: None,
            goal_heap: None,
            last_dst: NO_TARGET,
            last_bound: Dist::INFINITE,
            pops: 0,
        }
    }
}

impl DijkstraEngine {
    /// Creates an engine with no allocated scratch space.
    pub fn new() -> Self {
        DijkstraEngine::default()
    }

    /// Total heap pops across all queries so far (a machine-independent
    /// work measure used by the oracle-cost experiments).
    pub fn pop_count(&self) -> u64 {
        self.pops
    }

    /// Resets the pop counter.
    pub fn reset_pop_count(&mut self) {
        self.pops = 0;
    }

    fn prepare(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, Dist::INFINITE);
            self.parent_node.resize(n, NO_PARENT);
            self.parent_edge.resize(n, NO_PARENT);
            self.epoch.resize(n, 0);
            self.heap = Some(IndexedHeap::new(n));
            self.goal_heap = None;
        } else if let Some(heap) = &mut self.heap {
            if heap.is_empty() {
                // nothing to do
            } else {
                heap.clear();
            }
        }
        self.current_epoch = self.current_epoch.wrapping_add(1);
        if self.current_epoch == 0 {
            // Epoch counter wrapped: invalidate everything explicitly.
            self.epoch.fill(0);
            self.current_epoch = 1;
        }
    }

    #[inline]
    fn is_fresh(&self, v: usize) -> bool {
        self.epoch[v] == self.current_epoch
    }

    #[inline]
    fn touch(&mut self, v: usize) {
        if self.epoch[v] != self.current_epoch {
            self.epoch[v] = self.current_epoch;
            self.dist[v] = Dist::INFINITE;
            self.parent_node[v] = NO_PARENT;
            self.parent_edge[v] = NO_PARENT;
        }
    }

    /// Computes `dist(src, dst)` in `graph ∖ mask`, provided it is at most
    /// `bound`. Returns `None` when the distance exceeds `bound` (including
    /// unreachable). `src == dst` always yields `Some(Dist::ZERO)` unless the
    /// vertex itself is faulted.
    pub fn dist_bounded<V: GraphView>(
        &mut self,
        graph: &V,
        src: NodeId,
        dst: NodeId,
        bound: Dist,
        mask: &FaultMask,
    ) -> Option<Dist> {
        self.run::<V, false>(graph, src, Some(dst), bound, mask);
        let d = self.query_dist(dst);
        (d.is_finite() && d <= bound).then_some(d)
    }

    /// Like [`DijkstraEngine::dist_bounded`], but also reconstructs one
    /// shortest path into the reusable `out` buffer. Returns `true` (with
    /// `out` filled) when a path within `bound` exists; on `false`, `out`
    /// is cleared.
    ///
    /// This is the zero-allocation form the oracle hot loop uses; see the
    /// module docs for the scratch-reuse contract.
    pub fn shortest_path_bounded_into<V: GraphView>(
        &mut self,
        graph: &V,
        src: NodeId,
        dst: NodeId,
        bound: Dist,
        mask: &FaultMask,
        out: &mut PathScratch,
    ) -> bool {
        self.run::<V, false>(graph, src, Some(dst), bound, mask);
        self.extract_path_into(dst, bound, out)
    }

    /// Runs a full single-source search (no target early-stop) that
    /// builds the canonical shortest-path tree (see the module docs),
    /// leaving the settled distances and parent links in the engine for
    /// subsequent [`DijkstraEngine::extract_path_into`] calls. This is
    /// the batch-serving amortization: queries sharing a source share one
    /// search and pay only per-target extraction.
    pub fn search_from<V: GraphView>(
        &mut self,
        graph: &V,
        src: NodeId,
        bound: Dist,
        mask: &FaultMask,
    ) {
        self.run::<V, true>(graph, src, None, bound, mask);
    }

    /// The canonical single-pair query: `dist(src, dst)` in
    /// `graph ∖ mask` (`None` when unreachable), leaving the canonical
    /// route to `dst` for [`DijkstraEngine::extract_path_into`].
    ///
    /// Without `goal` this is Dijkstra stopped at `dst`. With `goal` it is
    /// A* over the landmark lower bounds, which must have been computed on
    /// `graph` itself (any fault mask is fine: faults only delete, so the
    /// fault-free bounds stay admissible). Both return the same distance
    /// and leave the same route; A* settles fewer vertices on far pairs.
    ///
    /// # Panics
    ///
    /// Panics if `goal` was built for a graph with fewer vertices than
    /// `src` or `dst` indexes.
    pub fn canonical_query<V: GraphView>(
        &mut self,
        graph: &V,
        src: NodeId,
        dst: NodeId,
        mask: &FaultMask,
        goal: Option<&Landmarks>,
    ) -> Option<Dist> {
        match goal {
            None => self.run::<V, true>(graph, src, Some(dst), Dist::INFINITE, mask),
            Some(landmarks) => self.run_goal(graph, src, dst, mask, landmarks),
        }
        let d = self.query_dist(dst);
        d.is_finite().then_some(d)
    }

    /// Extracts the shortest path to `dst` from the engine's most recent
    /// search. Returns `true` with `out` filled iff `dst` was **settled**
    /// within `bound` by that search; on `false`, `out` is cleared.
    ///
    /// After a canonical search ([`DijkstraEngine::search_from`] or
    /// [`DijkstraEngine::canonical_query`]) the path is the canonical
    /// route of the module docs: each vertex's parent is its smallest
    /// tight predecessor, fixed before the vertex settles. So a path
    /// extracted from a full search is **bit-identical** to what a
    /// dedicated canonical `src → dst` query (which stops early at `dst`,
    /// with or without landmarks) returns. The batch query engine relies
    /// on this equivalence.
    ///
    /// Only settled values are trusted: after a target-less search
    /// ([`DijkstraEngine::search_from`]) every vertex within the
    /// *search's* bound is settled, so anything beyond that bound
    /// reports `false` even when a (tentative, possibly suboptimal)
    /// distance exists. After a pair query, only that query's own target
    /// is settled.
    ///
    /// # Panics
    ///
    /// Panics if the most recent search was a pair query for a different
    /// target — its other vertices may hold tentative, suboptimal
    /// distances, so extracting them would be silently wrong.
    pub fn extract_path_into(&self, dst: NodeId, bound: Dist, out: &mut PathScratch) -> bool {
        assert!(
            self.last_dst == NO_TARGET || self.last_dst == dst.raw(),
            "extract_path_into needs a full search (search_from) or the pair query's own target"
        );
        out.nodes.clear();
        out.edges.clear();
        let dist = self.query_dist(dst);
        // For a target-less search, distances beyond the search bound are
        // tentative (the vertex never settled) — refuse them.
        let settled_bound = if self.last_dst == NO_TARGET {
            bound.min(self.last_bound)
        } else {
            bound
        };
        if !dist.is_finite() || dist > settled_bound {
            return false;
        }
        out.dist = dist;
        out.nodes.push(dst);
        let mut cur = dst;
        loop {
            let pn = self.parent_node[cur.index()];
            if pn == NO_PARENT {
                break; // reached the search source
            }
            let pe = self.parent_edge[cur.index()];
            out.edges.push(EdgeId::new(pe as usize));
            cur = NodeId::new(pn as usize);
            out.nodes.push(cur);
        }
        out.nodes.reverse();
        out.edges.reverse();
        true
    }

    /// Like [`DijkstraEngine::dist_bounded`], but also reconstructs one
    /// shortest path. Allocates the result; loops should prefer
    /// [`DijkstraEngine::shortest_path_bounded_into`].
    pub fn shortest_path_bounded<V: GraphView>(
        &mut self,
        graph: &V,
        src: NodeId,
        dst: NodeId,
        bound: Dist,
        mask: &FaultMask,
    ) -> Option<ShortestPath> {
        let mut out = PathScratch::new();
        if self.shortest_path_bounded_into(graph, src, dst, bound, mask, &mut out) {
            Some(ShortestPath {
                dist: out.dist,
                nodes: out.nodes,
                edges: out.edges,
            })
        } else {
            None
        }
    }

    /// Single-source shortest distances in `graph ∖ mask`, stopping at
    /// `bound` (vertices farther than `bound` report `Dist::INFINITE`).
    pub fn sssp_bounded<V: GraphView>(
        &mut self,
        graph: &V,
        src: NodeId,
        bound: Dist,
        mask: &FaultMask,
    ) -> Vec<Dist> {
        self.run::<V, false>(graph, src, None, bound, mask);
        (0..graph.node_count())
            .map(|v| {
                let d = self.query_dist(NodeId::new(v));
                if d <= bound {
                    d
                } else {
                    Dist::INFINITE
                }
            })
            .collect()
    }

    /// Unbounded single-source shortest distances in `graph ∖ mask`.
    pub fn sssp<V: GraphView>(&mut self, graph: &V, src: NodeId, mask: &FaultMask) -> Vec<Dist> {
        self.sssp_bounded(graph, src, Dist::INFINITE, mask)
    }

    fn query_dist(&self, v: NodeId) -> Dist {
        if v.index() < self.epoch.len() && self.is_fresh(v.index()) {
            self.dist[v.index()]
        } else {
            Dist::INFINITE
        }
    }

    /// Dijkstra from `src`, stopping at `dst` (if any) or past `bound`.
    /// `CANONICAL` adds the smallest-predecessor tie-break that makes the
    /// parent links the canonical tree; without it the first offer among
    /// equal-distance ones wins.
    fn run<V: GraphView, const CANONICAL: bool>(
        &mut self,
        graph: &V,
        src: NodeId,
        dst: Option<NodeId>,
        bound: Dist,
        mask: &FaultMask,
    ) {
        let n = graph.node_count();
        self.prepare(n);
        self.last_dst = dst.map(NodeId::raw).unwrap_or(NO_TARGET);
        self.last_bound = bound;
        if mask.is_vertex_faulted(src) {
            return;
        }
        if let Some(d) = dst {
            if mask.is_vertex_faulted(d) {
                return;
            }
        }
        self.touch(src.index());
        self.dist[src.index()] = Dist::ZERO;
        let mut heap = self.heap.take().expect("heap initialized by prepare");
        heap.clear();
        heap.push_or_decrease(src.index(), 0);
        while let Some((v, dv)) = heap.pop() {
            self.pops += 1;
            let dv = Dist::finite(dv);
            if dv > self.dist[v] {
                continue; // stale (cannot happen with indexed heap, but cheap)
            }
            if Some(NodeId::new(v)) == dst {
                break;
            }
            if dv > bound {
                break;
            }
            graph.for_each_neighbor(NodeId::new(v), |to, eid, w: Weight| {
                if !mask.allows(to, eid) {
                    return;
                }
                let cand = dv + w;
                if cand > bound {
                    return;
                }
                self.touch(to.index());
                if cand < self.dist[to.index()] {
                    self.dist[to.index()] = cand;
                    self.parent_node[to.index()] = v as u32;
                    self.parent_edge[to.index()] = eid.raw();
                    heap.push_or_decrease(to.index(), cand.value().expect("finite"));
                } else if CANONICAL && cand == self.dist[to.index()] {
                    self.offer_tie(to.index(), v as u32, eid.raw());
                }
            });
        }
        self.heap = Some(heap);
    }

    /// An equal-distance offer of parent `(node, edge)` to `v`: the
    /// canonical tree keeps the smallest.
    #[inline]
    fn offer_tie(&mut self, v: usize, node: u32, edge: u32) {
        if (node, edge) < (self.parent_node[v], self.parent_edge[v]) {
            self.parent_node[v] = node;
            self.parent_edge[v] = edge;
        }
    }

    /// Canonical A* from `src` to `dst` over the landmark bounds (see
    /// [`DijkstraEngine::canonical_query`]). The heap key is
    /// `(dist + h, dist)`: along any edge `h` drops by at most the edge
    /// weight, so a tight predecessor's key is never larger in its first
    /// component and strictly smaller in its second, and it settles first.
    fn run_goal<V: GraphView>(
        &mut self,
        graph: &V,
        src: NodeId,
        dst: NodeId,
        mask: &FaultMask,
        goal: &Landmarks,
    ) {
        self.prepare(graph.node_count());
        self.last_dst = dst.raw();
        self.last_bound = Dist::INFINITE;
        if mask.is_vertex_faulted(src) || mask.is_vertex_faulted(dst) {
            return;
        }
        let target = &goal.rows[dst.index()];
        if !Landmarks::same_component(&goal.rows[src.index()], target) {
            return; // different components of the fault-free graph
        }
        let mut heap = self
            .goal_heap
            .take()
            .unwrap_or_else(|| IndexedHeap::new(self.dist.len()));
        heap.clear();
        self.touch(src.index());
        self.dist[src.index()] = Dist::ZERO;
        heap.push_or_decrease(
            src.index(),
            (Landmarks::bound(&goal.rows[src.index()], target), 0),
        );
        while let Some((v, (_, dv))) = heap.pop() {
            self.pops += 1;
            if v == dst.index() {
                break;
            }
            let dv = Dist::finite(dv);
            graph.for_each_neighbor(NodeId::new(v), |to, eid, w: Weight| {
                if !mask.allows(to, eid) {
                    return;
                }
                let cand = dv + w;
                let slot = to.index();
                self.touch(slot);
                if cand < self.dist[slot] {
                    self.dist[slot] = cand;
                    self.parent_node[slot] = v as u32;
                    self.parent_edge[slot] = eid.raw();
                    let d = cand.value().expect("finite");
                    let h = Landmarks::bound(&goal.rows[slot], target);
                    heap.push_or_decrease(slot, (d.saturating_add(h), d));
                } else if cand == self.dist[slot] {
                    self.offer_tie(slot, v as u32, eid.raw());
                }
            });
        }
        self.goal_heap = Some(heap);
    }
}

/// How many landmarks a [`Landmarks`] table holds (fewer are placed only
/// when the graph's largest component has fewer vertices).
pub const LANDMARKS: usize = 8;

/// A landmark-table entry for a vertex the landmark does not reach.
const UNREACHED: u64 = u64::MAX;

/// Landmark distances for goal-directed search (ALT: A*, landmarks and
/// the triangle inequality).
///
/// For landmarks `l` and an undirected graph `H`,
/// `h(v) = max_l |d_H(l, t) − d_H(l, v)|` is a lower bound on
/// `d_H(v, t)` and changes by at most `w(uv)` along any edge `uv`, so A*
/// with it is exact and settles each vertex once. Deleting vertices or
/// edges only lengthens distances, so a table computed once on the
/// fault-free graph stays a valid bound under every fault mask.
///
/// Landmarks are placed by farthest-point selection inside the largest
/// component: the first is the vertex farthest from that component's
/// smallest id, each next one maximizes the distance to the nearest
/// landmark already placed (ties to the smallest id).
pub struct Landmarks {
    ids: Vec<NodeId>,
    /// Per vertex, its distance from each landmark ([`UNREACHED`] when
    /// the landmark does not reach it; unused slots hold 0).
    rows: Vec<[u64; LANDMARKS]>,
}

impl Landmarks {
    /// Places up to [`LANDMARKS`] landmarks on the fault-free `graph` and
    /// records every vertex's distance from each (one Dijkstra per
    /// landmark, plus one to place the first).
    pub fn farthest_point<V: GraphView>(graph: &V) -> Landmarks {
        let n = graph.node_count();
        let mut landmarks = Landmarks {
            ids: Vec::with_capacity(LANDMARKS),
            rows: vec![[0; LANDMARKS]; n],
        };
        let Some(seed) = largest_component_min(graph) else {
            return landmarks;
        };
        let mask = FaultMask::with_capacity(n, graph.edge_count());
        let mut engine = DijkstraEngine::new();
        // Distance from the seed, then from the nearest placed landmark.
        let mut nearest = engine.sssp(graph, seed, &mask);
        for slot in 0..LANDMARKS {
            let pick = (0..n)
                .filter(|&v| nearest[v].is_finite())
                .max_by_key(|&v| (nearest[v], std::cmp::Reverse(v)))
                .expect("the seed reaches itself");
            if slot > 0 && nearest[pick] == Dist::ZERO {
                break; // every vertex of the component is a landmark
            }
            let from_pick = engine.sssp(graph, NodeId::new(pick), &mask);
            for (v, d) in from_pick.into_iter().enumerate() {
                landmarks.rows[v][slot] = d.value().unwrap_or(UNREACHED);
                nearest[v] = if slot == 0 { d } else { nearest[v].min(d) };
            }
            landmarks.ids.push(NodeId::new(pick));
        }
        landmarks
    }

    /// The landmark vertices, in placement order.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The lower bound on `dist(v, t)` in the graph the table was built
    /// on, and so in every fault-masked view of it: `Dist::INFINITE` when
    /// some landmark reaches exactly one of them.
    pub fn lower_bound(&self, v: NodeId, t: NodeId) -> Dist {
        let (row_v, row_t) = (&self.rows[v.index()], &self.rows[t.index()]);
        if Landmarks::same_component(row_v, row_t) {
            Dist::finite(Landmarks::bound(row_v, row_t))
        } else {
            Dist::INFINITE
        }
    }

    /// Whether no landmark tells the two vertices' components apart.
    #[inline]
    fn same_component(a: &[u64; LANDMARKS], b: &[u64; LANDMARKS]) -> bool {
        a.iter()
            .zip(b)
            .all(|(x, y)| (*x == UNREACHED) == (*y == UNREACHED))
    }

    /// `max_l |a_l − b_l|` for two rows of one component (a landmark that
    /// reaches neither contributes `|MAX − MAX| = 0`).
    #[inline]
    fn bound(a: &[u64; LANDMARKS], b: &[u64; LANDMARKS]) -> u64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.abs_diff(*y))
            .max()
            .unwrap_or(0)
    }
}

impl std::fmt::Debug for Landmarks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Landmarks")
            .field("ids", &self.ids)
            .field("nodes", &self.rows.len())
            .finish()
    }
}

/// The smallest vertex of the largest component (ties to the component
/// with the smallest vertex); `None` for an empty graph.
fn largest_component_min<V: GraphView>(graph: &V) -> Option<NodeId> {
    let n = graph.node_count();
    let mut components = UnionFind::new(n);
    for e in 0..graph.edge_count() {
        let (a, b) = graph.edge_endpoints(EdgeId::new(e));
        components.union(a.index(), b.index());
    }
    let mut size = vec![0usize; n];
    let mut first = vec![usize::MAX; n];
    for v in 0..n {
        let root = components.find(v);
        size[root] += 1;
        first[root] = first[root].min(v);
    }
    (0..n)
        .filter(|&r| size[r] > 0)
        .max_by_key(|&r| (size[r], std::cmp::Reverse(first[r])))
        .map(|r| NodeId::new(first[r]))
}

/// One-shot convenience: `dist(src, dst)` in `graph ∖ mask` if `≤ bound`.
///
/// Allocates a fresh engine; prefer [`DijkstraEngine`] in loops.
///
/// # Examples
///
/// ```
/// use spanner_graph::{dijkstra, Dist, FaultMask, Graph, NodeId};
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)])?;
/// let mask = FaultMask::for_graph(&g);
/// let d = dijkstra::dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::finite(5), &mask);
/// assert_eq!(d, Some(Dist::finite(2)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn dist_bounded<V: GraphView>(
    graph: &V,
    src: NodeId,
    dst: NodeId,
    bound: Dist,
    mask: &FaultMask,
) -> Option<Dist> {
    DijkstraEngine::new().dist_bounded(graph, src, dst, bound, mask)
}

/// One-shot convenience: unbounded distance, `Dist::INFINITE` if unreachable.
pub fn dist<V: GraphView>(graph: &V, src: NodeId, dst: NodeId, mask: &FaultMask) -> Dist {
    dist_bounded(graph, src, dst, Dist::INFINITE, mask).unwrap_or(Dist::INFINITE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn weighted_diamond() -> Graph {
        // 0 -1- 1 -1- 2  and  0 -1- 3 -5- 2
        Graph::from_weighted_edges(4, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 2, 5)]).unwrap()
    }

    #[test]
    fn finds_shortest_distance() {
        let g = weighted_diamond();
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        assert_eq!(
            e.dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::INFINITE, &mask),
            Some(Dist::finite(2))
        );
    }

    #[test]
    fn respects_bound() {
        let g = weighted_diamond();
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        assert_eq!(
            e.dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::finite(1), &mask),
            None
        );
        assert_eq!(
            e.dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::finite(2), &mask),
            Some(Dist::finite(2))
        );
    }

    #[test]
    fn vertex_fault_reroutes() {
        let g = weighted_diamond();
        let mut mask = FaultMask::for_graph(&g);
        mask.fault_vertex(NodeId::new(1));
        let mut e = DijkstraEngine::new();
        assert_eq!(
            e.dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::INFINITE, &mask),
            Some(Dist::finite(6))
        );
    }

    #[test]
    fn edge_fault_reroutes() {
        let g = weighted_diamond();
        let mut mask = FaultMask::for_graph(&g);
        mask.fault_edge(EdgeId::new(1)); // 1-2
        let mut e = DijkstraEngine::new();
        assert_eq!(
            e.dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::INFINITE, &mask),
            Some(Dist::finite(6))
        );
    }

    #[test]
    fn disconnection_reports_none() {
        let g = weighted_diamond();
        let mut mask = FaultMask::for_graph(&g);
        mask.fault_vertex(NodeId::new(1));
        mask.fault_vertex(NodeId::new(3));
        let mut e = DijkstraEngine::new();
        assert_eq!(
            e.dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::INFINITE, &mask),
            None
        );
    }

    #[test]
    fn faulted_source_or_target_unreachable() {
        let g = weighted_diamond();
        let mut mask = FaultMask::for_graph(&g);
        mask.fault_vertex(NodeId::new(0));
        let mut e = DijkstraEngine::new();
        assert_eq!(
            e.dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::INFINITE, &mask),
            None
        );
        assert_eq!(
            e.dist_bounded(&g, NodeId::new(2), NodeId::new(0), Dist::INFINITE, &mask),
            None
        );
    }

    #[test]
    fn same_node_distance_zero() {
        let g = weighted_diamond();
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        assert_eq!(
            e.dist_bounded(&g, NodeId::new(3), NodeId::new(3), Dist::ZERO, &mask),
            Some(Dist::ZERO)
        );
    }

    #[test]
    fn path_reconstruction_matches_distance() {
        let g = weighted_diamond();
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        let p = e
            .shortest_path_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::INFINITE, &mask)
            .unwrap();
        assert_eq!(p.dist, Dist::finite(2));
        assert_eq!(
            p.nodes,
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
        );
        assert_eq!(p.edges.len(), 2);
        assert_eq!(p.interior_nodes(), &[NodeId::new(1)]);
        let total: Dist = p.edges.iter().map(|e| g.weight(*e).to_dist()).sum();
        assert_eq!(total, p.dist);
    }

    #[test]
    fn engine_reuse_across_queries() {
        let g = weighted_diamond();
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        for _ in 0..100 {
            assert_eq!(
                e.dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::INFINITE, &mask),
                Some(Dist::finite(2))
            );
        }
        assert!(e.pop_count() > 0);
    }

    #[test]
    fn sssp_matches_pairwise() {
        let g = weighted_diamond();
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        let d = e.sssp(&g, NodeId::new(0), &mask);
        assert_eq!(d[0], Dist::ZERO);
        assert_eq!(d[1], Dist::finite(1));
        assert_eq!(d[2], Dist::finite(2));
        assert_eq!(d[3], Dist::finite(1));
    }

    #[test]
    fn sssp_bounded_cuts_off() {
        let g = weighted_diamond();
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        let d = e.sssp_bounded(&g, NodeId::new(0), Dist::finite(1), &mask);
        assert_eq!(d[2], Dist::INFINITE);
        assert_eq!(d[1], Dist::finite(1));
    }

    #[test]
    fn one_shot_helpers() {
        let g = weighted_diamond();
        let mask = FaultMask::for_graph(&g);
        assert_eq!(
            dist(&g, NodeId::new(0), NodeId::new(2), &mask),
            Dist::finite(2)
        );
        assert_eq!(
            dist_bounded(&g, NodeId::new(0), NodeId::new(2), Dist::finite(1), &mask),
            None
        );
    }

    #[test]
    fn shared_search_extraction_matches_pair_queries() {
        // One search_from, many extractions — each must be bit-identical
        // to a dedicated early-stopped pair query (the batch-serving
        // equivalence the query engine relies on).
        use crate::generators;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        let g = generators::erdos_renyi(30, 0.15, &mut rng);
        let mut mask = FaultMask::for_graph(&g);
        mask.fault_vertex(NodeId::new(7));
        let mut shared = DijkstraEngine::new();
        let mut dedicated = DijkstraEngine::new();
        for src in [0usize, 11, 23] {
            shared.search_from(&g, NodeId::new(src), Dist::INFINITE, &mask);
            for dst in 0..30usize {
                let mut from_shared = PathScratch::new();
                let found =
                    shared.extract_path_into(NodeId::new(dst), Dist::INFINITE, &mut from_shared);
                let direct =
                    dedicated.canonical_query(&g, NodeId::new(src), NodeId::new(dst), &mask, None);
                let mut from_pair = PathScratch::new();
                assert_eq!(
                    dedicated.extract_path_into(NodeId::new(dst), Dist::INFINITE, &mut from_pair),
                    direct.is_some()
                );
                assert_eq!(found, direct.is_some(), "{src}->{dst} reachability");
                if let Some(d) = direct {
                    assert_eq!(from_shared.dist(), d, "{src}->{dst} dist");
                    assert_eq!(from_shared.nodes(), from_pair.nodes(), "{src}->{dst} nodes");
                    assert_eq!(from_shared.edges(), from_pair.edges(), "{src}->{dst} edges");
                }
            }
        }
    }

    /// The canonical route built independently: every vertex's parent is
    /// its smallest tight predecessor over exact distances.
    fn canonical_by_definition(
        g: &Graph,
        mask: &FaultMask,
        src: NodeId,
        dst: NodeId,
    ) -> Option<Vec<NodeId>> {
        let d = DijkstraEngine::new().sssp(g, src, mask);
        if !d[dst.index()].is_finite() {
            return None;
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            let (u, _) = g
                .edges()
                .filter_map(|(e, edge)| {
                    let (a, b) = (edge.u(), edge.v());
                    let u = if b == cur {
                        a
                    } else if a == cur {
                        b
                    } else {
                        return None;
                    };
                    let tight = mask.allows(cur, e)
                        && !mask.is_vertex_faulted(u)
                        && d[u.index()] + g.weight(e) == d[cur.index()];
                    tight.then_some((u, e))
                })
                .min()
                .expect("a reached vertex has a tight predecessor");
            path.push(u);
            cur = u;
        }
        path.reverse();
        Some(path)
    }

    /// Unit weights make ties everywhere: pair queries, shared searches
    /// and A* must all return the route the definition picks.
    #[test]
    fn canonical_searches_follow_the_definition_on_unit_weights() {
        use crate::generators;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::erdos_renyi(40, 0.12, &mut rng);
        let landmarks = Landmarks::farthest_point(&g);
        let mut mask = FaultMask::for_graph(&g);
        mask.fault_vertex(NodeId::new(3));
        mask.fault_edge(EdgeId::new(0));
        let (mut pair, mut goal, mut shared) = (
            DijkstraEngine::new(),
            DijkstraEngine::new(),
            DijkstraEngine::new(),
        );
        let mut out = PathScratch::new();
        for src in (0..40).step_by(7).map(NodeId::new) {
            shared.search_from(&g, src, Dist::INFINITE, &mask);
            for dst in (0..40).map(NodeId::new) {
                let want = canonical_by_definition(&g, &mask, src, dst)
                    .filter(|_| !mask.is_vertex_faulted(src));
                let want = want.unwrap_or_default();
                pair.canonical_query(&g, src, dst, &mask, None);
                pair.extract_path_into(dst, Dist::INFINITE, &mut out);
                assert_eq!(out.nodes(), &want[..], "dijkstra {src}->{dst}");
                goal.canonical_query(&g, src, dst, &mask, Some(&landmarks));
                goal.extract_path_into(dst, Dist::INFINITE, &mut out);
                assert_eq!(out.nodes(), &want[..], "A* {src}->{dst}");
                shared.extract_path_into(dst, Dist::INFINITE, &mut out);
                assert_eq!(out.nodes(), &want[..], "shared {src}->{dst}");
            }
        }
    }

    #[test]
    fn goal_directed_query_settles_fewer_vertices_on_a_grid() {
        use crate::generators;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::with_uniform_weights(&generators::grid(30, 30), 1, 100, &mut rng);
        let mask = FaultMask::for_graph(&g);
        let landmarks = Landmarks::farthest_point(&g);
        assert_eq!(landmarks.ids().len(), LANDMARKS);
        let (mut plain, mut goal) = (DijkstraEngine::new(), DijkstraEngine::new());
        let (src, dst) = (NodeId::new(31), NodeId::new(29 * 30 + 20));
        let d = plain.canonical_query(&g, src, dst, &mask, None);
        assert_eq!(
            goal.canonical_query(&g, src, dst, &mask, Some(&landmarks)),
            d
        );
        assert!(
            goal.pop_count() * 2 < plain.pop_count(),
            "A* settled {} of Dijkstra's {}",
            goal.pop_count(),
            plain.pop_count()
        );
    }

    #[test]
    fn landmark_bounds_are_admissible_and_split_components() {
        // Two components: a weighted path 0..6 and an edge 6-7.
        let g = Graph::from_weighted_edges(
            8,
            [
                (0, 1, 2),
                (1, 2, 1),
                (2, 3, 4),
                (3, 4, 1),
                (4, 5, 3),
                (6, 7, 1),
            ],
        )
        .unwrap();
        let landmarks = Landmarks::farthest_point(&g);
        assert!(landmarks.ids().iter().all(|l| l.index() < 6));
        let mask = FaultMask::for_graph(&g);
        for v in (0..8).map(NodeId::new) {
            let exact = DijkstraEngine::new().sssp(&g, v, &mask);
            for t in (0..8).map(NodeId::new) {
                let bound = landmarks.lower_bound(v, t);
                assert!(bound <= exact[t.index()], "{v}->{t}");
                assert_eq!(
                    bound.is_finite(),
                    exact[t.index()].is_finite() || v.index() >= 6 && t.index() >= 6
                );
            }
        }
        // The cross-component query ends before settling anything.
        let mut e = DijkstraEngine::new();
        let far = e.canonical_query(&g, NodeId::new(0), NodeId::new(7), &mask, Some(&landmarks));
        assert_eq!((far, e.pop_count()), (None, 0));
    }

    #[test]
    #[should_panic(expected = "pair query's own target")]
    fn extraction_after_pair_query_rejects_other_targets() {
        // s-t (1), s-x (5), t-x (1): the early-stopped s→t query leaves x
        // with a tentative dist of 5 (true dist 2). Extracting x would be
        // silently wrong — it must panic instead.
        let g = Graph::from_weighted_edges(3, [(0, 1, 1), (0, 2, 5), (1, 2, 1)]).unwrap();
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        assert!(e
            .dist_bounded(&g, NodeId::new(0), NodeId::new(1), Dist::INFINITE, &mask)
            .is_some());
        let mut out = PathScratch::new();
        let _ = e.extract_path_into(NodeId::new(2), Dist::INFINITE, &mut out);
    }

    #[test]
    fn bounded_search_extraction_refuses_unsettled_frontier() {
        // Path 0-1-2-3 (unit weights), search bounded at 1: vertex 2 may
        // carry a tentative distance but was never settled — extraction
        // must refuse it rather than trust it, even with a larger
        // extraction bound.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        e.search_from(&g, NodeId::new(0), Dist::finite(1), &mask);
        let mut out = PathScratch::new();
        assert!(e.extract_path_into(NodeId::new(1), Dist::INFINITE, &mut out));
        assert_eq!(out.dist(), Dist::finite(1));
        assert!(
            !e.extract_path_into(NodeId::new(2), Dist::INFINITE, &mut out),
            "beyond the search bound nothing is settled"
        );
    }

    #[test]
    fn path_in_empty_graph_is_none() {
        let g = Graph::new(2);
        let mask = FaultMask::for_graph(&g);
        let mut e = DijkstraEngine::new();
        assert_eq!(
            e.shortest_path_bounded(&g, NodeId::new(0), NodeId::new(1), Dist::INFINITE, &mask),
            None
        );
    }
}
