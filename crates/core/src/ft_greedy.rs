//! Algorithm 1 of Bodwin–Patel: the fault tolerant greedy spanner.
//!
//! ```text
//! function ft-greedy(G = (V, E, w), k, f)
//!     H ← (V, ∅, w)
//!     for (u, v) ∈ E in order of increasing weight do
//!         if ∃ F, |F| ≤ f vertices (edges), with dist_{H∖F}(u, v) > k·w(u, v) then
//!             add (u, v) to H
//!     return H
//! ```
//!
//! The existence test is delegated to a [`FaultOracle`]; the witness `F_e`
//! found for every kept edge is recorded, because Lemma 3 turns exactly
//! those witnesses into the `(k+1)`-blocking set that drives the size
//! analysis (see [`crate::blocking`]).
//!
//! With `f = 0` this is precisely the classic greedy algorithm
//! ([`crate::greedy_spanner`]); the equivalence is tested.

use crate::Spanner;
use spanner_faults::{
    BranchingConfig, BranchingOracle, ExhaustiveOracle, FaultModel, FaultOracle, FaultSet,
    GreedyHeuristicOracle, HittingSetOracle, OracleQuery, OracleStats, ParallelBranchingOracle,
};
use spanner_graph::{EdgeId, Graph};

/// Which oracle implementation FT-greedy should use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OracleKind {
    /// Bounded search tree with packing pruning and memoization (default).
    #[default]
    Branching,
    /// Branching with explicit feature toggles (for ablations).
    BranchingWith(BranchingConfig),
    /// Brute-force subset enumeration (tiny instances only).
    Exhaustive,
    /// Path-enumeration + hitting-set branch & bound.
    HittingSet,
    /// Branching with the root subtrees fanned out over this many worker
    /// threads (exact; useful at large `f` on dense instances).
    Parallel(usize),
    /// **Inexact** polynomial-time heuristic (the open-problem probe):
    /// kept edges are always justified, but edges may be dropped wrongly,
    /// so the output can fail fault audits. For experiment E11; do not use
    /// when the fault-tolerance contract must hold.
    Heuristic,
}

impl OracleKind {
    fn instantiate(self) -> Box<dyn FaultOracle> {
        match self {
            OracleKind::Branching => Box::new(BranchingOracle::new()),
            OracleKind::BranchingWith(cfg) => Box::new(BranchingOracle::with_config(cfg)),
            OracleKind::Exhaustive => Box::new(ExhaustiveOracle::new()),
            OracleKind::HittingSet => Box::new(HittingSetOracle::new()),
            OracleKind::Parallel(threads) => Box::new(ParallelBranchingOracle::new(threads)),
            OracleKind::Heuristic => Box::new(GreedyHeuristicOracle::new()),
        }
    }

    /// Whether this oracle is exact (`false` only for
    /// [`OracleKind::Heuristic`]).
    pub fn is_exact(self) -> bool {
        !matches!(self, OracleKind::Heuristic)
    }
}

/// Configurable FT-greedy runner (non-consuming builder).
///
/// # Examples
///
/// ```
/// use spanner_core::FtGreedy;
/// use spanner_faults::FaultModel;
/// use spanner_graph::generators::complete;
///
/// let g = complete(10);
/// let ft = FtGreedy::new(&g, 3).faults(1).model(FaultModel::Vertex).run();
/// // A 1-VFT spanner needs at least min-degree 2 everywhere.
/// assert!(ft.spanner().edge_count() >= g.node_count());
/// ```
#[derive(Debug)]
pub struct FtGreedy<'a> {
    graph: &'a Graph,
    stretch: u64,
    faults: usize,
    model: FaultModel,
    oracle: OracleKind,
}

impl<'a> FtGreedy<'a> {
    /// Starts configuring a run over `graph` with the given stretch.
    ///
    /// Defaults: `faults = 0`, vertex model, branching oracle.
    ///
    /// # Panics
    ///
    /// Panics if `stretch == 0`.
    pub fn new(graph: &'a Graph, stretch: u64) -> Self {
        assert!(stretch >= 1, "stretch must be positive");
        FtGreedy {
            graph,
            stretch,
            faults: 0,
            model: FaultModel::Vertex,
            oracle: OracleKind::default(),
        }
    }

    /// Sets the fault budget `f`.
    pub fn faults(&mut self, faults: usize) -> &mut Self {
        self.faults = faults;
        self
    }

    /// Sets the fault model (vertex or edge).
    pub fn model(&mut self, model: FaultModel) -> &mut Self {
        self.model = model;
        self
    }

    /// Selects the oracle implementation.
    pub fn oracle(&mut self, oracle: OracleKind) -> &mut Self {
        self.oracle = oracle;
        self
    }

    /// The oracle query for a parent edge at this run's parameters.
    fn query_for(&self, parent_id: EdgeId) -> OracleQuery {
        let e = self.graph.edge(parent_id);
        OracleQuery {
            u: e.u(),
            v: e.v(),
            bound: e.weight().stretched(self.stretch),
            budget: self.faults,
            model: self.model,
        }
    }

    /// Runs Algorithm 1 and returns the fault tolerant spanner with its
    /// recorded witnesses.
    ///
    /// The default branching oracle (and its `BranchingWith`/`Parallel`
    /// variants) runs through a monomorphized hot loop over the spanner's
    /// incremental CSR view — no `Box<dyn>` dispatch, no per-query
    /// allocation. The remaining oracle kinds go through the generic
    /// [`FtGreedy::run_with_oracle`] path.
    pub fn run(&self) -> FtSpanner {
        match self.oracle {
            OracleKind::Branching => self.run_branching(BranchingConfig::default()),
            OracleKind::BranchingWith(config) => self.run_branching(config),
            OracleKind::Parallel(threads) => self.run_pooled(threads),
            kind => {
                let mut oracle = kind.instantiate();
                self.run_with_oracle(oracle.as_mut())
            }
        }
    }

    /// Runs Algorithm 1 with a caller-provided oracle, querying the
    /// growing spanner's [`Graph`]. Monomorphized over the oracle type;
    /// useful for custom oracles and for pinning the optimized paths to
    /// [`spanner_faults::reference::ReferenceBranchingOracle`] in tests
    /// and benchmarks.
    pub fn run_with_oracle<O: FaultOracle + ?Sized>(&self, oracle: &mut O) -> FtSpanner {
        let mut spanner = Spanner::empty(self.graph, self.stretch);
        let mut witnesses = Vec::new();
        // The (weight, id) scan order is computed exactly once per run.
        for parent_id in self.graph.edges_by_weight() {
            let query = self.query_for(parent_id);
            if let Some(found) = oracle.find_blocking_faults(spanner.graph(), query) {
                let e = self.graph.edge(parent_id);
                spanner.push_edge(parent_id, e.u(), e.v(), e.weight());
                witnesses.push(found);
            }
        }
        self.finish(spanner, witnesses, oracle.stats())
    }

    /// The optimized sequential path: one [`BranchingOracle`] whose
    /// scratch lives for the whole construction, querying the spanner's
    /// flat CSR view.
    fn run_branching(&self, config: BranchingConfig) -> FtSpanner {
        let mut oracle = BranchingOracle::with_config(config);
        let mut spanner = Spanner::empty(self.graph, self.stretch);
        let mut witnesses = Vec::new();
        for parent_id in self.graph.edges_by_weight() {
            let query = self.query_for(parent_id);
            if let Some(found) = oracle.find_blocking_faults_in(spanner.view(), query) {
                let e = self.graph.edge(parent_id);
                spanner.push_edge(parent_id, e.u(), e.v(), e.weight());
                witnesses.push(found);
            }
        }
        self.finish(spanner, witnesses, oracle.stats())
    }

    /// The optimized parallel path: a persistent worker pool sharing an
    /// incremental CSR view of the spanner, alive for the whole run
    /// (the pre-PR-2 implementation spawned threads per query).
    fn run_pooled(&self, threads: usize) -> FtSpanner {
        let mut oracle = ParallelBranchingOracle::new(threads);
        self.run_pooled_with(&mut oracle)
    }

    /// The `Parallel` path of [`FtGreedy::run`] over a **caller-owned**
    /// pooled oracle, so one persistent worker pool (and its scratch)
    /// can serve many constructions. `run()` with
    /// [`OracleKind::Parallel`] used to spawn — and join — a fresh pool
    /// per construction; partitioned builds
    /// ([`crate::partition`]) run every shard and the boundary stitch
    /// through a single oracle instead, and
    /// [`spanner_faults::OracleStats::pool_spawns`] proves it.
    ///
    /// The shared view is reset to this run's graph; the oracle's
    /// cumulative work counters keep accumulating across runs (reset
    /// them with [`spanner_faults::FaultOracle::reset_stats`] if
    /// per-run numbers are wanted). The returned
    /// [`FtSpanner::stats`] is the cumulative snapshot at finish.
    pub fn run_pooled_with(&self, oracle: &mut ParallelBranchingOracle) -> FtSpanner {
        oracle.view_reset(self.graph.node_count());
        // During the run the oracle's shared view *is* the growing
        // spanner; the `Spanner` (with its own CSR mirror) is assembled
        // once at the end rather than maintained redundantly per edge.
        let mut kept = Vec::new();
        let mut witnesses = Vec::new();
        for parent_id in self.graph.edges_by_weight() {
            let query = self.query_for(parent_id);
            if let Some(found) = oracle.find_blocking_faults_in_view(query) {
                let e = self.graph.edge(parent_id);
                oracle.view_push_edge(e.u(), e.v(), e.weight());
                kept.push(parent_id);
                witnesses.push(found);
            }
        }
        let spanner = Spanner::from_kept_edges_in_order(self.graph, kept, self.stretch);
        self.finish(spanner, witnesses, oracle.stats())
    }

    fn finish(&self, spanner: Spanner, witnesses: Vec<FaultSet>, stats: OracleStats) -> FtSpanner {
        FtSpanner {
            spanner,
            witnesses,
            model: self.model,
            faults: self.faults,
            stats,
        }
    }
}

/// The output of [`FtGreedy::run`]: the spanner plus the per-edge witness
/// fault sets and oracle work counters.
#[derive(Clone, Debug)]
pub struct FtSpanner {
    spanner: Spanner,
    witnesses: Vec<FaultSet>,
    model: FaultModel,
    faults: usize,
    stats: OracleStats,
}

impl FtSpanner {
    /// Assembles an `FtSpanner` from its parts; the partitioned
    /// construction ([`crate::partition`]) builds its stitched union
    /// result through this.
    pub(crate) fn from_parts(
        spanner: Spanner,
        witnesses: Vec<FaultSet>,
        model: FaultModel,
        faults: usize,
        stats: OracleStats,
    ) -> Self {
        FtSpanner {
            spanner,
            witnesses,
            model,
            faults,
            stats,
        }
    }

    /// The constructed spanner.
    pub fn spanner(&self) -> &Spanner {
        &self.spanner
    }

    /// Consumes self, returning the spanner.
    pub fn into_spanner(self) -> Spanner {
        self.spanner
    }

    /// The witness fault set recorded when spanner edge `i` was added:
    /// at that moment, `dist_{H∖F_i}(u_i, v_i) > k·w_i` held.
    ///
    /// Indexed by *spanner* edge id. Fault-set edge ids refer to spanner
    /// edge ids (the partial `H` the oracle ran against), matching the
    /// blocking-set definition of the paper.
    pub fn witnesses(&self) -> &[FaultSet] {
        &self.witnesses
    }

    /// The fault model the spanner was built for.
    pub fn model(&self) -> FaultModel {
        self.model
    }

    /// The fault budget `f` the spanner was built for.
    pub fn faults(&self) -> usize {
        self.faults
    }

    /// Oracle work counters for the whole construction.
    pub fn stats(&self) -> OracleStats {
        self.stats
    }

    /// Seals the construction into an immutable
    /// [`FrozenSpanner`](crate::FrozenSpanner) serving artifact carrying
    /// the full metadata: `parent` (written into the artifact's bytes,
    /// decoded back on first use), the fault budget and model it was
    /// built for, and the recorded witness fault sets.
    pub fn freeze(&self, parent: &Graph) -> crate::FrozenSpanner {
        crate::FrozenSpanner::assemble(
            &self.spanner,
            Some(parent),
            Some(self.faults),
            self.model,
            &self.witnesses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy_spanner;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spanner_graph::generators::{complete, cycle, grid, with_uniform_weights};

    #[test]
    fn zero_faults_matches_classic_greedy() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = with_uniform_weights(&complete(14), 1, 30, &mut rng);
        for stretch in [1u64, 3, 5] {
            let classic = greedy_spanner(&g, stretch);
            let ft = FtGreedy::new(&g, stretch).run();
            assert_eq!(
                classic.parent_edge_ids(),
                ft.spanner().parent_edge_ids(),
                "stretch {stretch}"
            );
            // All witnesses are empty at f = 0.
            assert!(ft.witnesses().iter().all(|w| w.is_empty()));
        }
    }

    #[test]
    fn witnesses_match_edges() {
        let g = complete(8);
        let ft = FtGreedy::new(&g, 3).faults(1).run();
        assert_eq!(ft.witnesses().len(), ft.spanner().edge_count());
        assert!(ft.witnesses().iter().all(|w| w.len() <= 1));
        assert_eq!(ft.faults(), 1);
        assert_eq!(ft.model(), FaultModel::Vertex);
    }

    #[test]
    fn ft_spanner_grows_with_budget() {
        let g = complete(12);
        let mut sizes = Vec::new();
        for f in 0..3 {
            let ft = FtGreedy::new(&g, 3).faults(f).run();
            sizes.push(ft.spanner().edge_count());
        }
        assert!(sizes[0] <= sizes[1] && sizes[1] <= sizes[2], "{sizes:?}");
        assert!(sizes[2] > sizes[0], "budget should change the output here");
    }

    #[test]
    fn cycle_is_fully_kept_under_one_vertex_fault() {
        // C6 with f=1, k=3: losing any vertex makes the cycle a path;
        // every edge is needed.
        let g = cycle(6);
        let ft = FtGreedy::new(&g, 3).faults(1).run();
        assert_eq!(ft.spanner().edge_count(), 6);
    }

    #[test]
    fn oracle_kinds_agree_on_small_graphs() {
        let g = grid(3, 3);
        let mut sizes = Vec::new();
        for kind in [
            OracleKind::Branching,
            OracleKind::Exhaustive,
            OracleKind::HittingSet,
            OracleKind::BranchingWith(BranchingConfig {
                use_packing: false,
                use_memo: false,
                use_cut_shortcut: false,
            }),
            OracleKind::Parallel(3),
        ] {
            let ft = FtGreedy::new(&g, 3).faults(1).oracle(kind).run();
            sizes.push(ft.spanner().edge_count());
        }
        assert!(
            sizes.windows(2).all(|w| w[0] == w[1]),
            "oracle kinds disagree: {sizes:?}"
        );
    }

    #[test]
    fn edge_model_also_runs() {
        let g = complete(8);
        let ft = FtGreedy::new(&g, 3).faults(1).model(FaultModel::Edge).run();
        assert!(ft.spanner().edge_count() >= 8);
        assert_eq!(ft.model(), FaultModel::Edge);
    }

    #[test]
    fn stats_are_populated() {
        let g = complete(8);
        let ft = FtGreedy::new(&g, 3).faults(1).run();
        assert!(ft.stats().shortest_path_queries > 0);
        assert!(ft.stats().nodes_explored > 0);
    }
}
