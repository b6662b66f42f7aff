//! The bounded-search-tree fault oracle.
//!
//! The key observation: any fault set `F` that pushes `dist(u, v)` above
//! the bound must *hit the current shortest path* — in the vertex model one
//! of its (at most `⌈bound/min-weight⌉ − 1`) interior vertices, in the edge
//! model one of its edges. Branching over those candidates and recursing
//! with budget `f − 1` explores `O(k^f)` search nodes instead of the
//! `O(n^f)` of brute force, while remaining exact.
//!
//! Two accelerations, both optional (for the ablation experiments) and both
//! sound:
//!
//! * **Packing pruning** ([`crate::packing`]): if more than
//!   `remaining-budget` pairwise disjoint short paths survive, no extension
//!   of the current fault set can work — stop.
//! * **Memoization**: the same fault *set* reached by different orders
//!   explores the same subtree; a hash set of visited sets collapses those
//!   permutations.
//!
//! This is still exponential in `f` — the paper explicitly leaves a faster
//! FT-greedy as an open problem, and experiment E9 measures exactly this
//! growth.
//!
//! # Scratch-reuse contract
//!
//! One oracle instance is meant to serve a whole FT-greedy construction
//! (thousands of queries against a growing spanner). Everything the
//! search needs lives in a per-oracle [`SearchScratch`]:
//!
//! * the working [`FaultMask`] is cleared in place per query
//!   ([`FaultMask::reset_for`]) — growth is counted in
//!   [`OracleStats::scratch_rebuilds`] and goes flat after warm-up;
//! * branching candidates go into a segmented arena (one `Vec`, ranges
//!   per recursion level) instead of a fresh `Vec` per search node;
//! * path extraction reuses [`PathScratch`] buffers
//!   ([`DijkstraEngine::shortest_path_bounded_into`]);
//! * the memo keys are order-independent 128-bit Zobrist fingerprints of
//!   the current fault set, maintained incrementally on push/pop — the
//!   pre-PR-2 clone + sort of the fault vector per search node is gone.
//!
//! # Memo key collisions
//!
//! A memo hit is trusted without comparing fault sets. A collision —
//! an unexplored set whose 128-bit key equals an explored one's — would
//! skip that set's subtree; if it held the query's only blocking set,
//! FT-greedy would drop an edge it must keep and the spanner could break
//! the fault-tolerance contract. The risk is accepted: two sets collide
//! with probability about 2⁻¹²⁸ ([`crate::fingerprint`]), the search
//! only builds sets of at most `f` components, so even 10⁸ explored
//! nodes leave any collision near 2⁻⁷⁵, and the end-to-end benchmark
//! certifies every artifact it builds with the exact checker
//! (`certify_vft_exact`). Serving's epoch interning, where a collision
//! would mix two tenants' failures, does compare sets on a hit.
//!
//! Queries are generic over [`GraphView`], so FT-greedy points the oracle
//! at the spanner's flat [`IncrementalCsr`](spanner_graph::IncrementalCsr)
//! view while one-off callers keep passing a [`Graph`]. The frozen
//! pre-optimization implementation survives as
//! [`crate::reference::ReferenceBranchingOracle`] and the equivalence
//! property tests pin this oracle's output (spanner and witnesses) to it.

use crate::fingerprint::{component_hash, SetFingerprint};
use crate::packing::{disjoint_path_packing_counted, PackingScratch};
use crate::{FaultModel, FaultOracle, FaultSet, OracleQuery, OracleStats};
use spanner_graph::connectivity::CutScratch;
use spanner_graph::{
    DijkstraEngine, Dist, EdgeId, FaultMask, Graph, GraphView, NodeId, PathScratch,
};
use std::collections::HashSet;

/// Feature toggles for [`BranchingOracle`] (used by the ablation benches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchingConfig {
    /// Enable the disjoint-path packing prune.
    pub use_packing: bool,
    /// Enable fault-set memoization.
    pub use_memo: bool,
    /// Enable the global min-cut shortcut: if the whole graph has an
    /// `s–t` cut (vertex or edge, per model) of size ≤ budget, that cut
    /// blocks *every* path — in particular all short ones — so it is a
    /// valid witness without any search. Sound; found via bounded
    /// max-flow before branching starts.
    pub use_cut_shortcut: bool,
}

impl Default for BranchingConfig {
    fn default() -> Self {
        BranchingConfig {
            use_packing: true,
            use_memo: true,
            use_cut_shortcut: true,
        }
    }
}

/// The branching fault oracle. See the module docs.
///
/// # Examples
///
/// ```
/// use spanner_faults::{BranchingOracle, FaultModel, FaultOracle, OracleQuery};
/// use spanner_graph::{Dist, Graph, NodeId};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)])?;
/// let mut oracle = BranchingOracle::new();
/// let query = OracleQuery {
///     u: NodeId::new(0),
///     v: NodeId::new(3),
///     bound: Dist::finite(2),
///     budget: 2,
///     model: FaultModel::Vertex,
/// };
/// let f = oracle.find_blocking_faults(&g, query).unwrap();
/// assert_eq!(f.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct BranchingOracle {
    engine: DijkstraEngine,
    config: BranchingConfig,
    stats: OracleStats,
    scratch: SearchScratch,
}

/// Per-oracle reusable state (see the module docs). Everything here is
/// cleared — not reallocated — between queries.
#[derive(Debug, Default)]
struct SearchScratch {
    /// Working fault mask the DFS toggles in place.
    mask: FaultMask,
    /// The fault set along the current DFS root-to-node path.
    current: Vec<usize>,
    /// Order-independent fingerprints of visited fault sets.
    memo: HashSet<(u64, u64)>,
    /// Segmented candidate arena: each recursion level appends its
    /// candidates and truncates back on exit.
    cand: Vec<usize>,
    /// Incremental Zobrist fingerprint of `current` (shared scheme:
    /// [`crate::fingerprint`]).
    key: SetFingerprint,
    /// Shortest-path buffer for the node's witness path.
    path: PathScratch,
    /// Buffers for the packing probe.
    packing: PackingScratch,
    /// Flow network + residual buffers for the min-cut shortcut.
    cuts: CutScratch,
}

impl BranchingOracle {
    /// Creates an oracle with both accelerations enabled.
    pub fn new() -> Self {
        BranchingOracle::default()
    }

    /// Creates an oracle with explicit feature toggles.
    pub fn with_config(config: BranchingConfig) -> Self {
        BranchingOracle {
            engine: DijkstraEngine::new(),
            config,
            stats: OracleStats::default(),
            scratch: SearchScratch::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> BranchingConfig {
        self.config
    }

    /// Clears the per-query scratch (keeping allocations) and sizes the
    /// working mask for `view`. Counts a scratch rebuild when the mask
    /// storage genuinely grew.
    fn begin_query<V: GraphView>(&mut self, view: &V) {
        if self
            .scratch
            .mask
            .reset_for(view.node_count(), view.edge_count())
        {
            self.stats.scratch_rebuilds += 1;
        }
        self.scratch.current.clear();
        self.scratch.memo.clear();
        self.scratch.cand.clear();
        self.scratch.key = SetFingerprint::EMPTY;
    }

    /// Applies fault `c`: mask bit, DFS path, fingerprint.
    fn push_fault(&mut self, model: FaultModel, c: usize) {
        match model {
            FaultModel::Vertex => {
                self.scratch.mask.fault_vertex(NodeId::new(c));
            }
            FaultModel::Edge => {
                self.scratch.mask.fault_edge(EdgeId::new(c));
            }
        }
        self.scratch.current.push(c);
        self.scratch.key.add(component_hash(model, c));
    }

    /// Reverts [`BranchingOracle::push_fault`].
    fn pop_fault(&mut self, model: FaultModel) {
        let c = self.scratch.current.pop().expect("pop without push");
        match model {
            FaultModel::Vertex => {
                self.scratch.mask.restore_vertex(NodeId::new(c));
            }
            FaultModel::Edge => {
                self.scratch.mask.restore_edge(EdgeId::new(c));
            }
        }
        self.scratch.key.remove(component_hash(model, c));
    }

    /// The bounded-search-tree DFS. On success (`true`) the blocking set
    /// is left applied in `scratch.current`/`scratch.mask`; on failure all
    /// faults pushed at this level are reverted.
    fn search<V: GraphView>(&mut self, view: &V, q: &OracleQuery) -> bool {
        self.stats.nodes_explored += 1;
        self.stats.shortest_path_queries += 1;
        if !self.engine.shortest_path_bounded_into(
            view,
            q.u,
            q.v,
            q.bound,
            &self.scratch.mask,
            &mut self.scratch.path,
        ) {
            return true; // dist already exceeds the bound
        }
        let remaining = q.budget - self.scratch.current.len();
        if remaining == 0 {
            return false;
        }
        let cand_start = self.scratch.cand.len();
        match q.model {
            FaultModel::Vertex => {
                for n in self.scratch.path.interior_nodes() {
                    self.scratch.cand.push(n.index());
                }
            }
            FaultModel::Edge => {
                for e in self.scratch.path.edges() {
                    self.scratch.cand.push(e.index());
                }
            }
        }
        let cand_end = self.scratch.cand.len();
        if cand_end == cand_start {
            // Vertex model, direct u-v edge: unblockable.
            return false;
        }
        if self.config.use_packing {
            let probe = disjoint_path_packing_counted(
                view,
                &mut self.engine,
                &self.scratch.mask,
                q.u,
                q.v,
                q.bound,
                q.model,
                remaining + 1,
                &mut self.scratch.packing,
            );
            self.stats.shortest_path_queries += probe.queries;
            if probe.packed > remaining {
                self.stats.packing_prunes += 1;
                self.scratch.cand.truncate(cand_start);
                return false;
            }
        }
        let mut found = false;
        for i in cand_start..cand_end {
            let c = self.scratch.cand[i];
            self.push_fault(q.model, c);
            let skip = if self.config.use_memo {
                let key = self.scratch.key.pair();
                if self.scratch.memo.insert(key) {
                    false
                } else {
                    self.stats.memo_hits += 1;
                    true
                }
            } else {
                false
            };
            if !skip && self.search(view, q) {
                found = true;
                break;
            }
            self.pop_fault(q.model);
        }
        self.scratch.cand.truncate(cand_start);
        found
    }

    /// Builds the result fault set from the DFS path left in scratch.
    fn collect_current(&self, model: FaultModel) -> FaultSet {
        match model {
            FaultModel::Vertex => {
                FaultSet::vertices(self.scratch.current.iter().map(|c| NodeId::new(*c)))
            }
            FaultModel::Edge => {
                FaultSet::edges(self.scratch.current.iter().map(|c| EdgeId::new(*c)))
            }
        }
    }

    /// Like [`FaultOracle::find_blocking_faults`] but generic over the
    /// graph layout — FT-greedy points this at the spanner's incremental
    /// CSR view so the whole oracle loop runs over flat memory.
    pub fn find_blocking_faults_in<V: GraphView>(
        &mut self,
        view: &V,
        query: OracleQuery,
    ) -> Option<FaultSet> {
        self.begin_query(view);
        if self.config.use_cut_shortcut && query.budget > 0 {
            if let Some(cut) = cut_shortcut_with_prefilter(
                view,
                &mut self.engine,
                &self.scratch.mask,
                &mut self.scratch.packing,
                &mut self.scratch.cuts,
                &mut self.stats,
                query,
            ) {
                return Some(cut);
            }
        }
        if self.search(view, &query) {
            Some(self.collect_current(query.model))
        } else {
            None
        }
    }

    /// Like [`BranchingOracle::find_blocking_faults_in`], but starts the
    /// search from a pre-committed partial fault set (counted against the
    /// budget). Used by the parallel oracle to fan the root branches out
    /// across workers; also handy for "what if X were already down?"
    /// analyses.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is larger than the budget or disagrees with the
    /// query's fault model.
    pub fn find_blocking_faults_with_initial_in<V: GraphView>(
        &mut self,
        view: &V,
        query: OracleQuery,
        initial: &FaultSet,
    ) -> Option<FaultSet> {
        assert!(initial.len() <= query.budget, "initial set exceeds budget");
        assert!(
            initial.is_empty() || initial.model() == query.model,
            "initial set model mismatch"
        );
        self.begin_query(view);
        match initial {
            FaultSet::Vertices(v) => {
                for n in v.iter() {
                    self.push_fault(FaultModel::Vertex, n.index());
                }
            }
            FaultSet::Edges(e) => {
                for id in e.iter() {
                    self.push_fault(FaultModel::Edge, id.index());
                }
            }
        }
        if self.search(view, &query) {
            Some(self.collect_current(query.model))
        } else {
            None
        }
    }

    /// [`BranchingOracle::find_blocking_faults_with_initial_in`] over a
    /// plain [`Graph`] (kept for API compatibility).
    pub fn find_blocking_faults_with_initial(
        &mut self,
        graph: &Graph,
        query: OracleQuery,
        initial: &FaultSet,
    ) -> Option<FaultSet> {
        self.find_blocking_faults_with_initial_in(graph, query, initial)
    }
}

/// The shared front of both exact oracles: a Menger disjoint-path
/// pre-filter followed — only when the pre-filter proves nothing — by the
/// exact min-cut shortcut. One implementation serves the sequential and
/// the pooled parallel oracle so their root phases cannot drift apart
/// (their outputs are contractually identical).
///
/// The pre-filter greedily packs `budget + 1` pairwise disjoint `u–v`
/// paths of *unbounded* length. Any such family is a Menger certificate
/// that every `u–v` cut exceeds the budget, so the exact max-flow — which
/// would build and solve a network only to answer "no cut" — is skipped
/// with byte-identical output. Greedy packing is not Menger-optimal, so a
/// short family proves nothing and the exact cut runs.
///
/// `mask` must be the query's (empty) base mask. Returns `Some(witness)`
/// when a cut within budget decides the query; `None` means "no shortcut
/// — run the branching search".
pub(crate) fn cut_shortcut_with_prefilter<V: GraphView>(
    view: &V,
    engine: &mut DijkstraEngine,
    mask: &FaultMask,
    packing: &mut PackingScratch,
    cuts: &mut CutScratch,
    stats: &mut OracleStats,
    query: OracleQuery,
) -> Option<FaultSet> {
    let probe = disjoint_path_packing_counted(
        view,
        engine,
        mask,
        query.u,
        query.v,
        Dist::INFINITE,
        query.model,
        query.budget + 1,
        packing,
    );
    stats.shortest_path_queries += probe.queries;
    if probe.packed > query.budget {
        return None; // certified: no cut within budget exists
    }
    let witness = match query.model {
        FaultModel::Vertex => spanner_graph::connectivity::min_vertex_cut_st_with(
            view,
            mask,
            query.u,
            query.v,
            query.budget as u32,
            cuts,
        )
        .map(FaultSet::vertices),
        FaultModel::Edge => spanner_graph::connectivity::min_edge_cut_st_with(
            view,
            mask,
            query.u,
            query.v,
            query.budget as u32,
            cuts,
        )
        .map(FaultSet::edges),
    };
    if witness.is_some() {
        stats.cut_shortcuts += 1;
    }
    witness
}

impl FaultOracle for BranchingOracle {
    fn find_blocking_faults(&mut self, graph: &Graph, query: OracleQuery) -> Option<FaultSet> {
        self.find_blocking_faults_in(graph, query)
    }

    fn stats(&self) -> OracleStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = OracleStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::Dist;

    fn q(u: usize, v: usize, bound: u64, budget: usize, model: FaultModel) -> OracleQuery {
        OracleQuery {
            u: NodeId::new(u),
            v: NodeId::new(v),
            bound: Dist::finite(bound),
            budget,
            model,
        }
    }

    fn diamond() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn finds_vertex_cut() {
        let g = diamond();
        let mut o = BranchingOracle::new();
        let f = o
            .find_blocking_faults(&g, q(0, 3, 2, 2, FaultModel::Vertex))
            .unwrap();
        assert_eq!(f, FaultSet::vertices([NodeId::new(1), NodeId::new(2)]));
    }

    #[test]
    fn budget_too_small_fails() {
        let g = diamond();
        let mut o = BranchingOracle::new();
        assert!(o
            .find_blocking_faults(&g, q(0, 3, 2, 1, FaultModel::Vertex))
            .is_none());
    }

    #[test]
    fn direct_edge_unblockable_in_vertex_model() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let mut o = BranchingOracle::new();
        assert!(o
            .find_blocking_faults(&g, q(0, 1, 1, 10, FaultModel::Vertex))
            .is_none());
    }

    #[test]
    fn edge_model_blocks_direct_edge() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let mut o = BranchingOracle::new();
        let f = o
            .find_blocking_faults(&g, q(0, 1, 1, 1, FaultModel::Edge))
            .unwrap();
        assert_eq!(f, FaultSet::edges([EdgeId::new(0)]));
    }

    #[test]
    fn already_far_needs_no_faults() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let mut o = BranchingOracle::new();
        let f = o
            .find_blocking_faults(&g, q(0, 2, 1, 0, FaultModel::Vertex))
            .unwrap();
        assert!(f.is_empty());
    }

    #[test]
    fn all_config_variants_agree_on_diamond() {
        let g = diamond();
        for use_packing in [false, true] {
            for use_memo in [false, true] {
                for use_cut_shortcut in [false, true] {
                    let mut o = BranchingOracle::with_config(BranchingConfig {
                        use_packing,
                        use_memo,
                        use_cut_shortcut,
                    });
                    let f = o.find_blocking_faults(&g, q(0, 3, 2, 2, FaultModel::Vertex));
                    assert!(
                        f.is_some(),
                        "packing={use_packing} memo={use_memo} cut={use_cut_shortcut}"
                    );
                    let none = o.find_blocking_faults(&g, q(0, 3, 2, 1, FaultModel::Vertex));
                    assert!(
                        none.is_none(),
                        "packing={use_packing} memo={use_memo} cut={use_cut_shortcut}"
                    );
                }
            }
        }
    }

    #[test]
    fn weighted_bound_respected() {
        // 0 -5- 1, alternative 0 -1- 2 -1- 1. Stretch bound 10: alt path
        // weight 2 <= 10, needs vertex 2 faulted.
        let g = Graph::from_weighted_edges(3, [(0, 2, 1), (2, 1, 1)]).unwrap();
        let mut o = BranchingOracle::new();
        let f = o
            .find_blocking_faults(&g, q(0, 1, 10, 1, FaultModel::Vertex))
            .unwrap();
        assert_eq!(f, FaultSet::vertices([NodeId::new(2)]));
    }

    #[test]
    fn returned_set_actually_blocks() {
        use spanner_graph::dijkstra;
        let g =
            Graph::from_edges(6, [(0, 1), (1, 5), (0, 2), (2, 5), (0, 3), (3, 4), (4, 5)]).unwrap();
        let mut o = BranchingOracle::new();
        let query = q(0, 5, 2, 2, FaultModel::Vertex);
        let f = o.find_blocking_faults(&g, query).unwrap();
        let mask = f.to_mask(g.node_count(), g.edge_count());
        let d = dijkstra::dist(&g, NodeId::new(0), NodeId::new(5), &mask);
        assert!(d > Dist::finite(2));
    }

    #[test]
    fn scratch_rebuilds_go_flat_after_first_query() {
        // The mask/memo/arena reuse contract: the first query on a graph
        // of a given size may grow scratch; repeats must not.
        let g =
            Graph::from_edges(6, [(0, 1), (1, 5), (0, 2), (2, 5), (0, 3), (3, 4), (4, 5)]).unwrap();
        let mut o = BranchingOracle::new();
        let query = q(0, 5, 2, 2, FaultModel::Vertex);
        let _ = o.find_blocking_faults(&g, query);
        let after_first = o.stats().scratch_rebuilds;
        assert!(after_first >= 1, "first query must size the scratch");
        for _ in 0..50 {
            let _ = o.find_blocking_faults(&g, query);
        }
        assert_eq!(
            o.stats().scratch_rebuilds,
            after_first,
            "steady-state queries must not rebuild scratch"
        );
    }

    #[test]
    fn memo_reduces_exploration() {
        // A graph with many symmetric routes provokes permutation blowup.
        let mut g = Graph::new(2);
        for _ in 0..6 {
            let a = g.add_node();
            let b = g.add_node();
            g.add_edge(NodeId::new(0), a, spanner_graph::Weight::UNIT);
            g.add_edge(a, b, spanner_graph::Weight::UNIT);
            g.add_edge(b, NodeId::new(1), spanner_graph::Weight::UNIT);
        }
        let query = q(0, 1, 3, 4, FaultModel::Vertex);
        let mut with_memo = BranchingOracle::with_config(BranchingConfig {
            use_packing: false,
            use_memo: true,
            use_cut_shortcut: false,
        });
        let mut without_memo = BranchingOracle::with_config(BranchingConfig {
            use_packing: false,
            use_memo: false,
            use_cut_shortcut: false,
        });
        let a = with_memo.find_blocking_faults(&g, query);
        let b = without_memo.find_blocking_faults(&g, query);
        assert_eq!(a.is_some(), b.is_some());
        assert!(
            with_memo.stats().nodes_explored <= without_memo.stats().nodes_explored,
            "memo {} vs plain {}",
            with_memo.stats().nodes_explored,
            without_memo.stats().nodes_explored
        );
    }
}
