//! Property tests for the routing and simulation layers.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spanner_core::routing::RouteError;
use spanner_core::simulation::{simulate, SimulationConfig};
use spanner_core::{BatchCoalescer, EpochServer, FtGreedy};
use spanner_faults::{FaultModel, FaultSet};
use spanner_graph::{Graph, NodeId, Weight};
use std::sync::Arc;

fn arb_graph(max_n: usize, max_w: u64) -> impl Strategy<Value = Graph> {
    (5..=max_n).prop_flat_map(move |n| {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let m = pairs.len();
        (
            proptest::collection::vec(0..10u32, m),
            proptest::collection::vec(1..=max_w, m),
        )
            .prop_map(move |(keep, ws)| {
                let mut g = Graph::new(n);
                for (i, &(u, v)) in pairs.iter().enumerate() {
                    if keep[i] < 7 {
                        g.add_edge_unchecked(
                            NodeId::new(u),
                            NodeId::new(v),
                            Weight::new(ws[i]).unwrap(),
                        );
                    }
                }
                g
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every route a serving session returns is structurally valid:
    /// consecutive nodes joined by the listed spanner edges, no faulted
    /// component used, weight adds up.
    #[test]
    fn routes_are_structurally_valid(
        g in arb_graph(9, 4),
        faults in proptest::collection::vec(any::<u32>(), 0..3),
    ) {
        let ft = FtGreedy::new(&g, 3).faults(faults.len()).run();
        let spanner = ft.into_spanner();
        let h = spanner.graph().clone();
        let server = EpochServer::new(Arc::new(spanner.freeze()));
        let fault_set = FaultSet::vertices(
            faults.iter().map(|f| NodeId::new(*f as usize % g.node_count())),
        );
        let mut session = server.epoch(&fault_set);
        for u in 0..g.node_count() {
            for v in (u + 1)..g.node_count() {
                let (u, v) = (NodeId::new(u), NodeId::new(v));
                match session.route(u, v) {
                    Ok(route) => {
                        prop_assert_eq!(*route.nodes.first().unwrap(), u);
                        prop_assert_eq!(*route.nodes.last().unwrap(), v);
                        prop_assert_eq!(route.edges.len() + 1, route.nodes.len());
                        let mut total = 0u64;
                        for (i, e) in route.edges.iter().enumerate() {
                            let (a, b) = h.endpoints(*e);
                            let (x, y) = (route.nodes[i], route.nodes[i + 1]);
                            prop_assert!((a, b) == (x, y) || (a, b) == (y, x));
                            total += h.weight(*e).get();
                        }
                        prop_assert_eq!(route.dist.value(), Some(total));
                        for n in &route.nodes {
                            prop_assert!(!fault_set.vertex_faults().contains(n));
                        }
                    }
                    Err(RouteError::EndpointFailed(x)) => {
                        prop_assert!(x == u || x == v);
                        prop_assert!(fault_set.vertex_faults().contains(&x));
                    }
                    Err(RouteError::Unreachable { .. }) => {
                        // Allowed only when faults exceed what the spanner
                        // was built for OR the parent is disconnected too —
                        // checked by the FT property tests elsewhere.
                    }
                    // RouteError is #[non_exhaustive].
                    Err(other) => prop_assert!(false, "unexpected error {other}"),
                }
            }
        }
    }

    /// An endpoint outside the artifact is `route/invalid-endpoint` on
    /// every serving entry — never `route/unreachable`, never a panic —
    /// checked endpoint by endpoint, source first, range before faults.
    #[test]
    fn out_of_range_endpoints_are_invalid_on_every_entry(
        g in arb_graph(8, 4),
        beyond in 0usize..4,
        faults in proptest::collection::vec(any::<u32>(), 0..3),
        bad_source in any::<bool>(),
    ) {
        let n = g.node_count();
        let frozen = Arc::new(FtGreedy::new(&g, 3).faults(1).run().freeze(&g));
        let server = EpochServer::new(Arc::clone(&frozen)).with_threads(2);
        let fault_set = FaultSet::vertices(faults.iter().map(|f| NodeId::new(*f as usize % n)));
        let mut session = server.epoch(&fault_set);
        let bad = NodeId::new(n + beyond);
        let mut pairs = Vec::new();
        let mut expected = Vec::new();
        for other in (0..n).map(NodeId::new) {
            let failed = fault_set.vertex_faults().contains(&other);
            let (pair, err) = if bad_source {
                ((bad, other), RouteError::InvalidEndpoint(bad))
            } else if failed {
                ((other, bad), RouteError::EndpointFailed(other))
            } else {
                ((other, bad), RouteError::InvalidEndpoint(bad))
            };
            prop_assert_eq!(session.route(pair.0, pair.1), Err(err.clone()));
            prop_assert_eq!(session.route_cost(pair.0, pair.1), Err(err.clone()));
            prop_assert_eq!(err.code(), if failed && !bad_source {
                "route/endpoint-failed"
            } else {
                "route/invalid-endpoint"
            });
            pairs.push(pair);
            expected.push(Err(err));
        }
        prop_assert_eq!(&session.route_batch(&pairs), &expected);
        prop_assert_eq!(&session.par_route_batch(&pairs), &expected);
        let mut front = BatchCoalescer::new(&server);
        let ticket = front.submit(&session, &pairs);
        prop_assert_eq!(&front.flush()[ticket.index()], &expected);
    }

    /// Simulation invariants hold for arbitrary (sane) configurations.
    #[test]
    fn simulation_counters_consistent(
        g in arb_graph(8, 3),
        steps in 5usize..40,
        fail_pct in 0u32..20,
        repair_pct in 10u32..90,
        seed in 0u64..1000,
    ) {
        let f = 1usize;
        let ft = FtGreedy::new(&g, 3).faults(f).run();
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = simulate(
            &g,
            ft.into_spanner(),
            f,
            SimulationConfig {
                steps,
                failure_probability: fail_pct as f64 / 100.0,
                repair_probability: repair_pct as f64 / 100.0,
                queries_per_step: 3,
                model: FaultModel::Vertex,
            },
            &mut rng,
        );
        prop_assert_eq!(outcome.steps, steps);
        prop_assert!(outcome.steps_within_budget <= steps);
        prop_assert!(outcome.routed <= outcome.queries);
        prop_assert!(outcome.served_within_stretch <= outcome.routed);
        prop_assert!(outcome.in_budget_queries <= outcome.queries);
        prop_assert!(outcome.in_budget_served_within_stretch <= outcome.in_budget_queries);
        prop_assert!(outcome.in_budget_hit_rate() <= 1.0 + 1e-9);
        prop_assert!(outcome.overall_hit_rate() <= 1.0 + 1e-9);
        // FT contract: a correct f-FT spanner never violates in budget,
        // so its in-budget hit rate is exactly 1.
        prop_assert_eq!(outcome.contract_violations, 0);
        prop_assert_eq!(outcome.in_budget_hit_rate(), 1.0);
        prop_assert!(outcome.events.iter().all(|e| !e.in_budget));
    }
}
