//! The serving half: tenant sessions over one zero-copy `EpochServer`,
//! driven in closed loop by one thread, and the traced replay that
//! compares each served round against bare `route_one` calls.

use crate::clock::CpuInstant;
use crate::inputs::{near_targets, Giant};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use spanner_core::routing::{Route, RouteError};
use spanner_core::serve::route_one;
use spanner_core::{BatchCoalescer, EpochDelta, EpochHandle, EpochServer, FrozenSpanner};
use spanner_faults::FaultSet;
use spanner_graph::{DijkstraEngine, FaultMask, Graph, NodeId, PathScratch};
use std::hint::black_box;

/// One tenant's batch: the vertex its epoch has failed and its pairs.
#[derive(Clone, Debug)]
pub struct Submission {
    /// The single faulted vertex of the tenant's epoch.
    pub fault: NodeId,
    /// The pairs routed under it.
    pub pairs: Vec<(NodeId, NodeId)>,
}

/// What one measured round served.
#[derive(Debug)]
pub struct RoundOutcome {
    /// CPU seconds of the round's timed region.
    pub secs: f64,
    /// Request-to-answer latencies, microseconds.
    pub latencies_us: Vec<f64>,
    /// Each submission with its answers, in pair order.
    pub served: Vec<(Submission, Vec<Result<Route, RouteError>>)>,
}

/// Tenant sessions and the traffic that drives them. Each tenant always
/// has exactly one vertex failed: an epoch restores it and fails a fresh
/// one, a one-vertex `EpochDelta`.
pub struct Traffic<'a> {
    graph: &'a Graph,
    giant: &'a Giant,
    rng: StdRng,
    sessions: Vec<EpochHandle>,
    faults: Vec<NodeId>,
    coalescer: BatchCoalescer,
    requests: u64,
}

impl<'a> Traffic<'a> {
    /// Opens `tenants` sessions on `server`, each advanced to its first
    /// one-vertex fault (outside any measurement).
    pub fn new(
        server: &EpochServer,
        graph: &'a Graph,
        giant: &'a Giant,
        mut rng: StdRng,
        tenants: usize,
    ) -> Self {
        let mut sessions = Vec::with_capacity(tenants);
        let mut faults = Vec::with_capacity(tenants);
        for _ in 0..tenants {
            let fault = giant.pick(&mut rng, &[]);
            let mut session = server.epoch_clear();
            session.advance(EpochDelta::new().fault_vertex(fault));
            sessions.push(session);
            faults.push(fault);
        }
        Traffic {
            graph,
            giant,
            rng,
            sessions,
            faults,
            coalescer: BatchCoalescer::new(server),
            requests: 0,
        }
    }

    fn request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    /// Draws tenant `t`'s next fault and its epoch delta.
    fn next_epoch(&mut self, t: usize) -> (NodeId, EpochDelta) {
        let next = self.giant.pick(&mut self.rng, &[self.faults[t]]);
        let mut delta = EpochDelta::new();
        delta.restore_vertex(self.faults[t]).fault_vertex(next);
        (next, delta)
    }

    /// `serve-far`: the next tenant (round-robin) advances one epoch and
    /// routes `pairs` uniform giant-component pairs one at a time. A
    /// request is one route.
    pub fn far_epoch(&mut self, pairs: usize, tr: &mut Tracer, round: u64) -> RoundOutcome {
        let t = (round % self.sessions.len() as u64) as usize;
        let (fault, delta) = self.next_epoch(t);
        let plan: Vec<(NodeId, NodeId)> = (0..pairs)
            .map(|_| {
                let a = self.giant.pick(&mut self.rng, &[fault]);
                (a, self.giant.pick(&mut self.rng, &[fault, a]))
            })
            .collect();
        let ids: Vec<u64> = (0..=pairs).map(|_| self.request()).collect();
        let mut answers = Vec::with_capacity(pairs);
        let mut latencies_us = Vec::with_capacity(pairs);

        let root = tr.enter("bench.round", ids[0]);
        let start = CpuInstant::now();
        let s = tr.enter("serve.advance", ids[0]);
        self.sessions[t].advance(&delta);
        tr.exit(s);
        for (&(u, v), &id) in plan.iter().zip(&ids[1..]) {
            let asked = CpuInstant::now();
            let s = tr.enter("serve.route", id);
            answers.push(self.sessions[t].route(u, v));
            tr.exit(s);
            latencies_us.push(asked.elapsed().as_secs_f64() * 1e6);
        }
        let secs = start.elapsed().as_secs_f64();
        tr.exit(root);

        self.faults[t] = fault;
        RoundOutcome {
            secs,
            latencies_us,
            served: vec![(Submission { fault, pairs: plan }, answers)],
        }
    }

    /// `serve-near-churn`: every tenant advances one epoch and submits
    /// `pairs` pairs from one source to targets at most `hops` parent
    /// hops away; one coalescer flush serves them all. A request is one
    /// tenant batch, from its submit until the flush returns.
    pub fn near_round(&mut self, pairs: usize, hops: u32, tr: &mut Tracer) -> RoundOutcome {
        let tenants = self.sessions.len();
        let mut plans = Vec::with_capacity(tenants);
        for t in 0..tenants {
            let (fault, delta) = self.next_epoch(t);
            let src = self.giant.pick(&mut self.rng, &[fault]);
            let targets = near_targets(self.graph, src, fault, hops, pairs, &mut self.rng);
            let sub = Submission {
                fault,
                pairs: targets.into_iter().map(|to| (src, to)).collect(),
            };
            plans.push((delta, sub, self.request()));
        }
        let flush_id = self.request();
        let mut submitted = Vec::with_capacity(tenants);

        let root = tr.enter("bench.round", flush_id);
        let start = CpuInstant::now();
        for (t, (delta, sub, id)) in plans.iter().enumerate() {
            let s = tr.enter("serve.advance", *id);
            self.sessions[t].advance(delta);
            tr.exit(s);
            let asked = CpuInstant::now();
            let s = tr.enter("serve.submit", *id);
            let ticket = self.coalescer.submit(&self.sessions[t], &sub.pairs);
            tr.exit(s);
            submitted.push((ticket, asked));
        }
        let s = tr.enter("serve.flush", flush_id);
        let mut answers = self.coalescer.flush();
        tr.exit(s);
        let done = CpuInstant::now();
        let secs = (done - start).as_secs_f64();
        tr.exit(root);

        let latencies_us = submitted
            .iter()
            .map(|(_, asked)| (done - *asked).as_secs_f64() * 1e6)
            .collect();
        let served = plans
            .into_iter()
            .zip(&submitted)
            .enumerate()
            .map(|(t, ((_, sub, _), (ticket, _)))| {
                self.faults[t] = sub.fault;
                (sub, std::mem::take(&mut answers[ticket.index()]))
            })
            .collect();
        RoundOutcome {
            secs,
            latencies_us,
            served,
        }
    }
}

/// Runs `call` once untimed, so that caches and scratch are warm, then
/// times a second identical run inside a span named `name`.
fn warm_timed<T>(
    tr: &mut Tracer,
    name: &'static str,
    req: u64,
    mut call: impl FnMut() -> T,
) -> f64 {
    black_box(call());
    let t = CpuInstant::now();
    let s = tr.enter(name, req);
    black_box(call());
    tr.exit(s);
    t.elapsed().as_secs_f64()
}

/// Per-pair and per-round comparisons from the traced replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// Vertices settled per pair by `route_one` (`DijkstraEngine::pop_count`).
    pub settled: Vec<f64>,
    /// `route_one` time per pair over the `open`ed artifact, microseconds.
    pub route_one_us: Vec<f64>,
    /// Σ `route_one` seconds over the owned (frozen) artifact.
    pub owned_s: f64,
    /// Σ `route_one` seconds over the `open`ed artifact.
    pub mapped_s: f64,
    /// Σ session `EpochHandle::route` seconds.
    pub session_s: f64,
    /// Σ `BatchCoalescer::flush` seconds.
    pub flush_s: f64,
}

impl Replay {
    /// Replays one round's submissions: every pair through `route_one`
    /// over the `owned` artifact (as frozen, typed CSR) and the mapped one
    /// the server serves (byte-backed CSR), alternating which goes first, and through a session `route`, each timed warm, then the
    /// whole round through one coalescer submit/flush. Answers are
    /// discarded; they were checked when served.
    pub fn round(
        &mut self,
        round: &[Submission],
        owned: &FrozenSpanner,
        server: &EpochServer,
        tr: &mut Tracer,
        req: u64,
    ) {
        let mapped = server.artifact().as_ref();
        let mut engine = DijkstraEngine::new();
        let mut scratch = PathScratch::new();
        let mut sessions = Vec::with_capacity(round.len());
        for sub in round {
            let faults = FaultSet::vertices([sub.fault]);
            let mask_of = |art: &FrozenSpanner| {
                let mut mask = FaultMask::with_capacity(art.node_count(), art.edge_count());
                art.apply_faults(&faults, &mut mask);
                mask
            };
            let (owned_mask, mapped_mask) = (mask_of(owned), mask_of(mapped));
            let mut session = server.epoch(&faults);
            for (i, &(u, v)) in sub.pairs.iter().enumerate() {
                let mut route_one_on = |art: &FrozenSpanner, mask: &FaultMask| {
                    warm_timed(tr, "graph.route_one", req, || {
                        route_one(art, &mut engine, &mut scratch, mask, u, v).ok()
                    })
                };
                let (o, m) = if i % 2 == 0 {
                    let o = route_one_on(owned, &owned_mask);
                    (o, route_one_on(mapped, &mapped_mask))
                } else {
                    let m = route_one_on(mapped, &mapped_mask);
                    (route_one_on(owned, &owned_mask), m)
                };
                // Four identical searches ran: warm-up and timed, per artifact.
                self.settled.push((engine.pop_count() / 4) as f64);
                engine.reset_pop_count();
                self.owned_s += o;
                self.mapped_s += m;
                self.route_one_us.push(m * 1e6);
                self.session_s += warm_timed(tr, "serve.route", req, || session.route(u, v).ok());
            }
            sessions.push(session);
        }
        let mut coalescer = BatchCoalescer::new(server);
        for (sub, session) in round.iter().zip(&sessions) {
            let s = tr.enter("serve.submit", req);
            coalescer.submit(session, &sub.pairs);
            tr.exit(s);
        }
        let t = CpuInstant::now();
        let s = tr.enter("serve.flush", req);
        black_box(coalescer.flush());
        tr.exit(s);
        self.flush_s += t.elapsed().as_secs_f64();
    }

    /// Pairs replayed so far.
    pub fn pairs(&self) -> usize {
        self.settled.len()
    }
}
