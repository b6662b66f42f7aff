//! End-to-end benchmark of the vertex-fault-tolerant spanner pipeline at
//! n = 10⁴: parent graph → `PartitionedFtGreedy` → `certify_vft_exact` →
//! freeze → v2-sharded encode → file → zero-copy `open` → multi-tenant
//! `EpochServer` serving.
//!
//! Three workloads share one geometric parent graph family (mean degree
//! ≈ 7, stretch 3, one vertex fault):
//! - `build` repeats the whole pipeline, ending in a cold start;
//! - `serve-far` routes uniform far pairs, one at a time, over two tenant
//!   sessions whose epochs advance by one-vertex deltas;
//! - `serve-near-churn` has eight tenants advance every round and submit
//!   near pairs from one source, served by one coalescer flush.
//!
//! A plain run reports the end-to-end metrics ([`END_TO_END`]). A traced
//! run records a span around every call into the program, reports the
//! per-layer metrics ([`per_layer_names`]) and writes the spans out. Every
//! served answer in a fixed sample is checked against the reference
//! router and the stretch bound on the parent, outside the timed regions.

pub mod calibrate;
pub mod check;
pub mod clock;
pub mod gates;
pub mod inputs;
pub mod pipeline;
pub mod serving;
pub mod stats;
pub mod trace;

use calibrate::{Speed, BUILD_PROBE_RUNS, SERVE_PROBE_RUNS};
use check::Checker;
use clock::CpuInstant;
use gates::Gates;
use inputs::{parent_graph, rng, Giant, Stream};
use pipeline::{BuildParams, Built, ColdStart, SECTIONS};
use serving::{Replay, Submission, Traffic};
use spanner_core::{EpochServer, FrozenSpanner, PartitionReport, ServerStats};
use spanner_faults::OracleStats;
use spanner_graph::io::binary::fnv1a64;
use stats::{median, quantile};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use trace::Tracer;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The whole pipeline, repeatedly.
    Build,
    /// Far single routes over two tenant sessions.
    ServeFar,
    /// Near coalesced batches over eight churning tenant sessions.
    ServeNearChurn,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::Build,
        Workload::ServeFar,
        Workload::ServeNearChurn,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Build => "build",
            Workload::ServeFar => "serve-far",
            Workload::ServeNearChurn => "serve-near-churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale: the measured one, or a smoke scale that runs in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// n = 10⁴.
    Full,
    /// n = 400, for the benchmark's own tests.
    Smoke,
}

/// Windows a run's timed seconds are cut into.
const WINDOWS: f64 = 10.0;

/// Tenant sessions of `serve-far`.
const FAR_TENANTS: usize = 2;
/// Tenant sessions of `serve-near-churn`.
const NEAR_TENANTS: usize = 8;
/// Pairs each `serve-near-churn` tenant submits per round.
const NEAR_PAIRS: usize = 4;
/// Parent hops bounding a `serve-near-churn` target from its source.
const NEAR_HOPS: u32 = 3;

/// Sizes that follow from the scale.
struct Sizes {
    n: usize,
    shard_target: usize,
    /// Set-ups per run (graphs generated for `build`, artifacts built for
    /// the serve workloads); `setup_s` is their median.
    setup_reps: u64,
    /// Replicas cold-started on every artifact built.
    cold_probes: usize,
    /// Pairs each `serve-far` epoch routes.
    far_pairs: usize,
    /// Every `check_stride`-th far answer is checked.
    far_check_stride: u64,
    /// Every `check_stride`-th near answer is checked.
    near_check_stride: u64,
    /// Pairs the traced run replays.
    replay_pairs: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        let full = scale == Scale::Full;
        Sizes {
            n: if full { 10_000 } else { 400 },
            shard_target: if full { 256 } else { 64 },
            setup_reps: if full { 5 } else { 2 },
            cold_probes: if full { 16 } else { 2 },
            far_pairs: if full { 64 } else { 16 },
            far_check_stride: if full { 16 } else { 1 },
            near_check_stride: if full { 4 } else { 1 },
            replay_pairs: if full { 1024 } else { 64 },
        }
    }
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// The seed every input derives from.
    pub seed: u64,
    /// Timed seconds to measure: process CPU seconds summed over the timed
    /// regions (see [`clock`]).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of plain (end-to-end).
    pub trace: bool,
    /// Input scale.
    pub scale: Scale,
    /// Directory for artifacts (removed at exit) and span files (kept).
    pub work_dir: PathBuf,
    /// Corrupts one served answer before it is checked; the gates must
    /// count it as failed.
    pub corrupt_answer: bool,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run found.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (artifacts built, answers served).
    pub attempted: u64,
    /// Operations that failed a correctness gate.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Sample counts behind the reported percentiles.
    pub samples: Vec<(&'static str, usize)>,
    /// The host slowdowns the speed probes measured (see [`calibrate`]):
    /// lowest, median and highest.
    pub slowdown: [f64; 3],
}

impl Outcome {
    /// True when no gate failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The share of attempted operations that failed.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its value and unit.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// End-to-end metrics of a plain run: name and unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("build_s", "s"),
    ("cold_start_ms", "ms"),
    ("spanner_edges", "count"),
    ("artifact_bytes", "bytes"),
    ("queries_per_s", "1/s"),
    ("answer_p50_us", "us"),
    ("answer_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Layers whose share of traced round time is reported as
/// `<layer>.self_frac`.
const SELF_TIME_LAYERS: [&str; 6] = ["bench", "partition", "verify", "frozen", "io", "serve"];

/// Per-layer metrics of a traced run: name and unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("graph.generate_s", "s"),
        ("graph.dijkstra.settled_p50", "count"),
        ("graph.dijkstra.settled_p99", "count"),
        ("graph.dijkstra.route_one_p50_us", "us"),
        ("graph.csr.mapped_over_owned", "ratio"),
        ("faults.nodes_explored", "count"),
        ("faults.sp_queries", "count"),
        ("faults.cut_shortcuts", "count"),
        ("faults.packing_prunes", "count"),
        ("faults.memo_hits", "count"),
        ("faults.scratch_rebuilds", "count"),
        ("faults.pool_spawns", "count"),
        ("partition.run_s", "s"),
        ("partition.phase_partition_s", "s"),
        ("partition.phase_build_s", "s"),
        ("partition.phase_stitch_s", "s"),
        ("partition.shards", "count"),
        ("partition.largest_shard", "count"),
        ("partition.cross_edges", "count"),
        ("partition.stitch_candidates", "count"),
        ("partition.stitch_keep_ratio", "ratio"),
        ("verify.certify_s", "s"),
        ("frozen.freeze_s", "s"),
        ("frozen.encode_s", "s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    names.extend(
        SECTIONS
            .iter()
            .map(|(_, tag)| (format!("frozen.section_bytes.{tag}"), "bytes")),
    );
    names.extend(
        [
            ("frozen.open_ms", "ms"),
            ("frozen.decode_ms", "ms"),
            ("frozen.first_route_us", "us"),
            ("serve.advance_p50_us", "us"),
            ("serve.advance_p99_us", "us"),
            ("serve.epochs_opened", "count"),
            ("serve.views_built", "count"),
            ("serve.views_shared", "count"),
            ("serve.delta_component_ops", "count"),
            ("serve.submit_us", "us"),
            ("serve.flush_p50_us", "us"),
            ("serve.batch_amortization", "ratio"),
            ("serve.route_over_route_one", "ratio"),
            ("trace.overhead_frac", "frac"),
            ("trace.round_us", "us"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    names.extend(
        SELF_TIME_LAYERS
            .iter()
            .map(|l| (format!("{l}.self_frac"), "frac")),
    );
    names
}

/// Everything a run measures, before it is reduced to metrics.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
    build_s: Vec<f64>,
    cold_start_s: Vec<f64>,
    open_s: Vec<f64>,
    decode_s: Vec<f64>,
    first_route_s: Vec<f64>,
    spanner_edges: Vec<f64>,
    artifact_bytes: Vec<f64>,
    partition_s: Vec<f64>,
    phase_partition_s: Vec<f64>,
    phase_build_s: Vec<f64>,
    phase_stitch_s: Vec<f64>,
    certify_s: Vec<f64>,
    freeze_s: Vec<f64>,
    encode_s: Vec<f64>,
    /// Counters of the first construction.
    first_build: Option<(OracleStats, PartitionReport, [usize; 6])>,
    /// Answers served so far (the check sampling counts them).
    answered: u64,
    /// Closed windows of timed serving, and the one being filled.
    windows: Vec<Window>,
    open_window: Window,
    server: ServerStats,
    cold_server: ServerStats,
    plain_rounds_s: Vec<f64>,
    traced_rounds_s: Vec<f64>,
    replay: Replay,
    /// Host-speed probes, and the slowdown the latest one measured.
    speed: Speed,
    slowdown: f64,
}

/// A slice of the timed serving: answers, timed seconds and latencies.
/// The serving metrics are medians over a run's windows, so that a host
/// stall shorter than half the run does not move them.
#[derive(Default)]
struct Window {
    answered: u64,
    /// Timed CPU seconds, as measured.
    cpu_s: f64,
    /// Timed reference seconds (see [`calibrate`]).
    secs: f64,
    latencies_us: Vec<f64>,
}

impl Window {
    /// Adds a round's `answered` queries and request latencies, timed in
    /// `secs` CPU seconds, not yet scaled.
    fn add(&mut self, secs: f64, answered: u64, latencies_us: &[f64]) {
        self.answered += answered;
        self.cpu_s += secs;
        self.secs += secs;
        self.latencies_us.extend_from_slice(latencies_us);
    }

    /// Divides the window's times by the host slowdown `k` they ran at.
    fn scaled(mut self, k: f64) -> Window {
        self.secs /= k;
        self.latencies_us.iter_mut().for_each(|l| *l /= k);
        self
    }
}

/// Timed CPU seconds of serving between two host-speed probes.
const SEGMENT_S: f64 = 0.5;

impl Samples {
    /// Probes the host's speed with `runs` kernel runs and returns the
    /// slowdown of the work done since the previous probe: the mean of
    /// the two probes around it.
    fn reprobe(&mut self, runs: usize) -> f64 {
        let before = self.slowdown;
        self.slowdown = self.speed.probe(runs);
        if before > 0.0 {
            (before + self.slowdown) / 2.0
        } else {
            self.slowdown
        }
    }

    /// Adds a scaled slice of serving to the open window and closes the
    /// window once it holds `window_s` timed CPU seconds.
    fn served(&mut self, slice: Window, window_s: f64) {
        let w = &mut self.open_window;
        w.answered += slice.answered;
        w.cpu_s += slice.cpu_s;
        w.secs += slice.secs;
        w.latencies_us.extend(slice.latencies_us);
        if w.cpu_s >= window_s {
            self.windows.push(std::mem::take(w));
        }
    }

    /// The closed windows, or the open one when none closed.
    fn serving_windows(&self) -> &[Window] {
        if self.windows.is_empty() {
            std::slice::from_ref(&self.open_window)
        } else {
            &self.windows
        }
    }

    fn record_build(&mut self, built: &Built) -> Result<(), String> {
        let r = &built.report;
        self.spanner_edges.push(built.frozen.edge_count() as f64);
        self.artifact_bytes.push(built.bytes.len() as f64);
        self.partition_s.push(built.partition_s);
        self.phase_partition_s.push(r.partition_secs);
        self.phase_build_s.push(r.build_secs);
        self.phase_stitch_s.push(r.stitch_secs);
        self.certify_s.push(built.certify_s);
        self.freeze_s.push(built.freeze_s);
        self.encode_s.push(built.encode_s);
        if self.first_build.is_none() {
            let sections = pipeline::section_bytes(&built.bytes)?;
            self.first_build = Some((built.oracle, r.clone(), sections));
        }
        Ok(())
    }

    fn record_cold(&mut self, cold: &ColdStart) {
        self.cold_start_s.push(cold.total_s);
        self.open_s.push(cold.open_s);
        self.first_route_s.push(cold.first_route_s);
    }
}

/// Gates for one built artifact: exact certification, and the same bytes
/// as every earlier build of the same graph (`first`).
fn artifact_gates(built: &Built, first: &mut Option<u64>) -> Result<(), String> {
    if let Some(v) = &built.violation {
        return Err(format!("certify_vft_exact: {v}"));
    }
    let hash = fnv1a64(&built.bytes);
    match first {
        Some(h) if *h != hash => {
            Err("construction is not deterministic: artifact bytes differ".into())
        }
        _ => {
            *first = Some(hash);
            Ok(())
        }
    }
}

/// Runs `round` until the timed (CPU) seconds it reports reach the
/// budget, or until the wall clock reaches a cap that bounds the run
/// under host steal. A
/// traced run spends the first half untraced and the second half
/// traced, so the two can be compared. Returns the round times of each
/// half.
fn measure(
    cfg: &Config,
    tr: &mut Tracer,
    mut round: impl FnMut(&mut Tracer, u64) -> Result<f64, String>,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let wall = Instant::now();
    let wall_limit = 1.25 * cfg.seconds + 5.0;
    let phases: &[(bool, f64)] = if cfg.trace {
        &[(false, 0.5), (true, 1.0)]
    } else {
        &[(false, 1.0)]
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut spent, mut r) = (0.0, 0u64);
    for &(on, share) in phases {
        tr.set_enabled(on);
        let sink = if on { &mut traced } else { &mut plain };
        loop {
            let secs = round(tr, r)?;
            r += 1;
            spent += secs;
            sink.push(secs);
            if spent >= share * cfg.seconds || wall.elapsed().as_secs_f64() > wall_limit {
                break;
            }
        }
    }
    tr.set_enabled(false);
    Ok((plain, traced))
}

/// Construction pool width. One worker: on the 2-vCPU host the first
/// numbers come from, two workers built no faster than one (A/B over
/// alternating runs), and each oracle query's cross-thread hand-off is
/// exposed to host CPU steal.
const CONSTRUCTION_THREADS: usize = 1;

fn add_stats(into: &mut ServerStats, s: ServerStats) {
    into.epochs_opened += s.epochs_opened;
    into.views_built += s.views_built;
    into.views_shared += s.views_shared;
    into.delta_component_ops += s.delta_component_ops;
}

/// A parent graph ready to build from: its giant component and the
/// cold-start probe (one faulted vertex, a far pair), with the seconds
/// generation took.
struct Prepared {
    graph: spanner_graph::Graph,
    giant: Giant,
    fault: spanner_graph::NodeId,
    generate_s: f64,
}

fn prepare(n: usize, seed: u64, index: u64) -> Prepared {
    let t = CpuInstant::now();
    let graph = parent_graph(n, seed, index);
    let generate_s = t.elapsed().as_secs_f64();
    let giant = Giant::of(&graph);
    let (a, b) = giant.far_pair;
    let fault = giant.pick(&mut rng(seed, Stream::Probe, index), &[a, b]);
    Prepared {
        graph,
        giant,
        fault,
        generate_s,
    }
}

/// The parent-graph seed of the serve workloads' artifact. Their traffic
/// comes from the run's seed; the artifact they serve is one fixed
/// fixture, so that its build-side metrics do not vary with the traffic
/// seed. The `build` workload varies the graph with the seed.
const SERVE_FIXTURE_SEED: u64 = 2019;

/// The timed work on one parent graph: its artifact built and written,
/// and `cold_probes` replicas cold-started on it.
struct Probed {
    built: Built,
    colds: Vec<ColdStart>,
    /// Graph → first replica's first answer, seconds.
    build_s: f64,
    /// Everything, all probes included, seconds.
    timed_s: f64,
}

impl Probed {
    /// Divides every time measured by the host slowdown `k` it ran at.
    fn scale(&mut self, k: f64) {
        self.build_s /= k;
        self.timed_s /= k;
        let b = &mut self.built;
        for t in [
            &mut b.partition_s,
            &mut b.certify_s,
            &mut b.freeze_s,
            &mut b.encode_s,
        ] {
            *t /= k;
        }
        for c in &mut self.colds {
            c.total_s /= k;
            c.open_s /= k;
            c.first_route_s /= k;
        }
    }
}

fn build_and_probe(
    p: &Prepared,
    sz: &Sizes,
    path: &std::path::Path,
    tr: &mut Tracer,
    req: u64,
) -> Result<Probed, String> {
    let params = BuildParams {
        shard_target: sz.shard_target,
        threads: CONSTRUCTION_THREADS,
    };
    let t = CpuInstant::now();
    let built = pipeline::build(&p.graph, params, path, tr, req)?;
    let mut colds = vec![pipeline::cold_start(
        path,
        p.fault,
        p.giant.far_pair,
        tr,
        req,
    )?];
    let build_s = t.elapsed().as_secs_f64();
    for _ in 1..sz.cold_probes {
        colds.push(pipeline::cold_start(
            path,
            p.fault,
            p.giant.far_pair,
            tr,
            req,
        )?);
    }
    Ok(Probed {
        built,
        colds,
        build_s,
        timed_s: t.elapsed().as_secs_f64(),
    })
}

/// Records what [`build_and_probe`] measured and runs its gates
/// (untimed): exact certification, determinism against `first_hash`,
/// and every replica's first answer. Returns the `decode` of the bytes
/// (the reference later checks serve from) and the artifact as frozen.
fn settle(
    p: &Prepared,
    probed: Probed,
    first_hash: &mut Option<u64>,
    tr: &mut Tracer,
    req: u64,
    gates: &mut Gates,
    m: &mut Samples,
) -> Result<(FrozenSpanner, FrozenSpanner), String> {
    m.build_s.push(probed.build_s);
    m.record_build(&probed.built)?;
    let (decoded, decode_s) = pipeline::decode(&probed.built.bytes, tr, req)?;
    m.decode_s.push(decode_s / m.slowdown);
    gates.op(artifact_gates(&probed.built, first_hash));
    let mut checker = Checker::new(&p.graph, &decoded);
    for cold in probed.colds {
        m.record_cold(&cold);
        add_stats(&mut m.cold_server, cold.stats);
        gates.answer(&mut checker, p.fault, p.giant.far_pair, cold.answer);
    }
    drop(checker);
    Ok((decoded, probed.built.frozen))
}

/// The `build` workload. Each measured round takes a fresh parent graph
/// (graph `r` of the seed), builds, certifies, encodes and writes its
/// artifact, and cold-starts replicas on it; a request is one replica's
/// first route. Set-up generates the first graphs.
fn run_build(
    cfg: &Config,
    sz: &Sizes,
    dir: &std::path::Path,
    tr: &mut Tracer,
    gates: &mut Gates,
    m: &mut Samples,
) -> Result<(), String> {
    m.reprobe(BUILD_PROBE_RUNS);
    let mut pool: std::collections::VecDeque<Prepared> = (0..sz.setup_reps)
        .map(|i| {
            let mut p = prepare(sz.n, cfg.seed, i);
            p.generate_s /= m.reprobe(BUILD_PROBE_RUNS);
            m.setup_s.push(p.generate_s);
            p
        })
        .collect();
    let (plain, traced) = measure(cfg, tr, |tr, r| {
        let p = pool.pop_front().unwrap_or_else(|| {
            let mut p = prepare(sz.n, cfg.seed, r);
            p.generate_s /= m.slowdown;
            p
        });
        m.generate_s.push(p.generate_s);
        let path = dir.join(format!("artifact-{r}.vft"));
        let root = tr.enter("bench.round", r);
        let probed = build_and_probe(&p, sz, &path, tr, r);
        tr.exit(root);
        let mut probed = probed?;
        let secs = probed.timed_s;
        let k = m.reprobe(BUILD_PROBE_RUNS);
        let firsts = Window {
            answered: probed.colds.len() as u64,
            cpu_s: secs,
            secs,
            latencies_us: probed.colds.iter().map(|c| c.first_route_s * 1e6).collect(),
        };
        m.answered += firsts.answered;
        m.served(firsts.scaled(k), cfg.seconds / WINDOWS);
        probed.scale(k);
        let (_, frozen) = settle(&p, probed, &mut None, tr, r, gates, m)?;
        if cfg.trace && m.replay.pairs() < sz.replay_pairs {
            let server = EpochServer::from_mapped(pipeline::map_and_open(&path, tr, r)?);
            let round = [Submission {
                fault: p.fault,
                pairs: vec![p.giant.far_pair],
            }];
            m.replay.round(&round, &frozen, &server, tr, r);
        }
        fs::remove_file(&path).map_err(|e| format!("cannot remove {}: {e}", path.display()))?;
        Ok(secs)
    })?;
    m.plain_rounds_s = plain;
    m.traced_rounds_s = traced;
    m.server = m.cold_server;
    Ok(())
}

/// The serve workloads. Set-up builds the fixture artifact `setup_reps`
/// times (checking that every build is identical) and cold-starts
/// replicas on it; the measured rounds then serve tenant traffic from
/// one zero-copy server.
fn run_serve(
    cfg: &Config,
    sz: &Sizes,
    dir: &std::path::Path,
    tr: &mut Tracer,
    gates: &mut Gates,
    m: &mut Samples,
) -> Result<(), String> {
    let path = dir.join("artifact.vft");
    let mut first_hash = None;
    let mut kept = None;
    m.reprobe(BUILD_PROBE_RUNS);
    for rep in 0..sz.setup_reps {
        let mut p = prepare(sz.n, SERVE_FIXTURE_SEED, 0);
        let mut probed = build_and_probe(&p, sz, &path, tr, rep)?;
        let k = m.reprobe(BUILD_PROBE_RUNS);
        probed.scale(k);
        p.generate_s /= k;
        m.generate_s.push(p.generate_s);
        m.setup_s.push(p.generate_s + probed.build_s);
        let (decoded, frozen) = settle(&p, probed, &mut first_hash, tr, rep, gates, m)?;
        kept = Some((p, decoded, frozen));
    }
    let (p, decoded, frozen) = kept.expect("at least one set-up");

    let server = EpochServer::from_mapped(pipeline::map_and_open(&path, tr, 0)?);
    let far = cfg.workload == Workload::ServeFar;
    let tenants = if far { FAR_TENANTS } else { NEAR_TENANTS };
    let stride = if far {
        sz.far_check_stride
    } else {
        sz.near_check_stride
    };
    let mut traffic = Traffic::new(
        &server,
        &p.graph,
        &p.giant,
        rng(cfg.seed, Stream::Traffic, 0),
        tenants,
    );
    let mut sampled = Vec::new();
    let mut replay_rounds: Vec<Vec<Submission>> = Vec::new();
    let mut replay_pairs = 0;
    let mut segment = Window::default();
    m.reprobe(SERVE_PROBE_RUNS);
    let (plain, traced) = measure(cfg, tr, |tr, r| {
        let out = if far {
            traffic.far_epoch(sz.far_pairs, tr, r)
        } else {
            traffic.near_round(NEAR_PAIRS, NEAR_HOPS, tr)
        };
        let answered = out
            .served
            .iter()
            .map(|(sub, _)| sub.pairs.len() as u64)
            .sum();
        segment.add(out.secs, answered, &out.latencies_us);
        if segment.cpu_s >= SEGMENT_S {
            let k = m.reprobe(SERVE_PROBE_RUNS);
            m.served(
                std::mem::take(&mut segment).scaled(k),
                cfg.seconds / WINDOWS,
            );
        }
        let mut round = Vec::new();
        for (sub, answers) in out.served {
            for (&pair, answer) in sub.pairs.iter().zip(answers) {
                if m.answered.is_multiple_of(stride) {
                    sampled.push((sub.fault, pair, answer));
                } else {
                    gates.unchecked(1);
                }
                m.answered += 1;
            }
            if cfg.trace && replay_pairs < sz.replay_pairs {
                replay_pairs += sub.pairs.len();
                round.push(sub);
            }
        }
        if !round.is_empty() {
            replay_rounds.push(round);
        }
        Ok(out.secs)
    })?;
    if segment.answered > 0 {
        let k = m.reprobe(SERVE_PROBE_RUNS);
        m.served(segment.scaled(k), cfg.seconds / WINDOWS);
    }
    m.plain_rounds_s = plain;
    m.traced_rounds_s = traced;
    m.server = server.stats();
    drop(traffic);

    let mut checker = Checker::new(&p.graph, &decoded);
    for (fault, pair, answer) in sampled {
        gates.answer(&mut checker, fault, pair, answer);
    }
    if cfg.trace {
        tr.set_enabled(true);
        for (i, round) in replay_rounds.iter().enumerate() {
            m.replay.round(round, &frozen, &server, tr, i as u64);
        }
        tr.set_enabled(false);
    }
    Ok(())
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn end_to_end(m: &Samples) -> Result<Vec<Metric>, String> {
    let per_window =
        |f: fn(&Window) -> f64| -> Vec<f64> { m.serving_windows().iter().map(f).collect() };
    let values = [
        median(&m.setup_s),
        median(&m.build_s),
        median(&m.cold_start_s) * 1e3,
        median(&m.spanner_edges),
        median(&m.artifact_bytes),
        median(&per_window(|w| w.answered as f64 / w.secs)),
        median(&per_window(|w| quantile(&w.latencies_us, 0.5))),
        median(&per_window(|w| quantile(&w.latencies_us, 0.99))),
        stats::peak_rss_mb()?,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| metric(name, value, unit))
        .collect())
}

fn per_layer(m: &Samples, tr: &Tracer) -> Vec<Metric> {
    let (oracle, report, sections) = m.first_build.clone().expect("at least one build");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let r = &m.replay;
    let self_ns = tr.self_ns_by_layer("bench.round");
    let traced_ns: u64 = self_ns.values().sum();
    let mut values = vec![
        median(&m.generate_s),
        quantile(&r.settled, 0.5),
        quantile(&r.settled, 0.99),
        quantile(&r.route_one_us, 0.5),
        r.mapped_s / r.owned_s,
        oracle.nodes_explored as f64,
        oracle.shortest_path_queries as f64,
        oracle.cut_shortcuts as f64,
        oracle.packing_prunes as f64,
        oracle.memo_hits as f64,
        oracle.scratch_rebuilds as f64,
        oracle.pool_spawns as f64,
        median(&m.partition_s),
        median(&m.phase_partition_s),
        median(&m.phase_build_s),
        median(&m.phase_stitch_s),
        report.shards as f64,
        report.largest_shard as f64,
        report.cross_edges as f64,
        report.stitch_candidates as f64,
        report.stitch_kept as f64 / report.stitch_candidates.max(1) as f64,
        median(&m.certify_s),
        median(&m.freeze_s),
        median(&m.encode_s),
    ];
    values.extend(sections.iter().map(|&b| b as f64));
    let advance = tr.durations_us("serve.advance");
    values.extend([
        median(&m.open_s) * 1e3,
        median(&m.decode_s) * 1e3,
        median(&m.first_route_s) * 1e6,
        quantile(&advance, 0.5),
        quantile(&advance, 0.99),
        m.server.epochs_opened as f64,
        m.server.views_built as f64,
        m.server.views_shared as f64,
        m.server.delta_component_ops as f64,
        median(&tr.durations_us("serve.submit")),
        median(&tr.durations_us("serve.flush")),
        r.mapped_s / r.flush_s,
        r.session_s / r.mapped_s,
        mean(&m.traced_rounds_s) / mean(&m.plain_rounds_s) - 1.0,
        mean(&m.traced_rounds_s) * 1e6,
    ]);
    values.extend(
        SELF_TIME_LAYERS
            .iter()
            .map(|l| self_ns.get(l).copied().unwrap_or(0) as f64 / traced_ns.max(1) as f64),
    );
    per_layer_names()
        .into_iter()
        .zip(values)
        .map(|((name, unit), value)| metric(name, value, unit))
        .collect()
}

/// Runs one workload and reduces what it measured to metrics.
///
/// # Errors
///
/// When the run cannot complete (file system, artifact decode) or a
/// metric comes out undefined.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let sz = Sizes::of(cfg.scale);
    // Unique per run, also when one process runs several (the tests do):
    // a run rewrites files another run may have mapped.
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let dir = cfg.work_dir.join(format!(
        "run-{}-{}-{}-{}",
        cfg.workload.name(),
        cfg.seed,
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut tr = Tracer::new(false);
    let mut gates = Gates {
        corrupt_next: cfg.corrupt_answer,
        ..Gates::default()
    };
    let mut m = Samples::default();
    let ran = match cfg.workload {
        Workload::Build => run_build(cfg, &sz, &dir, &mut tr, &mut gates, &mut m),
        Workload::ServeFar | Workload::ServeNearChurn => {
            run_serve(cfg, &sz, &dir, &mut tr, &mut gates, &mut m)
        }
    };
    let _ = fs::remove_dir_all(&dir);
    ran?;

    let metrics = if cfg.trace {
        let spans = cfg.work_dir.join("traces").join(format!(
            "{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        tr.write_jsonl(&spans)
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
        per_layer(&m, &tr)
    } else {
        end_to_end(&m)?
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is undefined ({})", bad.name, bad.value));
    }
    Ok(Outcome {
        attempted: gates.attempted,
        failed: gates.failed,
        failures: gates.messages,
        metrics,
        samples: vec![
            ("answers", m.answered as usize),
            ("windows", m.serving_windows().len()),
            (
                "requests in the smallest window",
                m.serving_windows()
                    .iter()
                    .map(|w| w.latencies_us.len())
                    .min()
                    .unwrap_or(0),
            ),
            ("builds", m.build_s.len()),
            ("cold starts", m.cold_start_s.len()),
            ("replayed pairs", m.replay.pairs()),
            ("speed probes", m.speed.probes_s.len()),
        ],
        slowdown: [f64::MIN_POSITIVE, 0.5, 1.0]
            .map(|p| quantile(&m.speed.probes_s, p) / calibrate::NOMINAL_PROBE_S),
    })
}
