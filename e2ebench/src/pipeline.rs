//! The build half of the pipeline: parent graph → `PartitionedFtGreedy`
//! → `certify_vft_exact` → freeze → v2-sharded encode → file, and the
//! cold start that reads it back: map → `open` → `EpochServer` → first
//! epoch → first route. Every call into the program is timed here and
//! wrapped in a span.

use crate::clock::CpuInstant;
use crate::trace::Tracer;
use spanner_core::frozen::{
    ARTIFACT_MAGIC, ARTIFACT_VERSION_V2, FLAG_WITNESSES_DETACHED, FLAG_WITNESSES_SHARDED,
    SECTION_META, SECTION_PARENT, SECTION_PARENT_EDGES, SECTION_SPANNER, SECTION_WITNESSES,
    SECTION_WITNESS_INDEX,
};
use spanner_core::routing::{Route, RouteError};
use spanner_core::verify::certify_vft_exact;
use spanner_core::{
    EpochDelta, EpochServer, FrozenSpanner, MappedSpanner, PartitionReport, PartitionedFtGreedy,
    ServerStats,
};
use spanner_faults::OracleStats;
use spanner_graph::io::binary::parse_container_v2;
use spanner_graph::{Graph, NodeId, SharedBytes};
use std::fs;
use std::path::Path;
use std::sync::Arc;

/// Stretch `k` of every artifact.
pub const STRETCH: u64 = 3;
/// Vertex-fault budget `f` of every artifact.
pub const FAULTS: usize = 1;

/// Construction settings.
#[derive(Clone, Copy, Debug)]
pub struct BuildParams {
    /// Partitioner target shard size.
    pub shard_target: usize,
    /// Worker-pool width for the construction.
    pub threads: usize,
}

/// One artifact built and written, with what each step took.
#[derive(Debug)]
pub struct Built {
    /// The artifact as frozen: owned, with a typed in-memory CSR (the
    /// v2 bytes, decoded or opened, keep a byte-backed one).
    pub frozen: FrozenSpanner,
    /// Encoded artifact bytes.
    pub bytes: Vec<u8>,
    /// Oracle work counters of the construction.
    pub oracle: OracleStats,
    /// Partition shape and phase times.
    pub report: PartitionReport,
    /// `None` when the exact certifier found no violation.
    pub violation: Option<String>,
    /// `PartitionedFtGreedy::run` CPU seconds.
    pub partition_s: f64,
    /// `certify_vft_exact` CPU seconds.
    pub certify_s: f64,
    /// `FtSpanner::freeze` CPU seconds.
    pub freeze_s: f64,
    /// `to_v2_sharded` + `encode` CPU seconds.
    pub encode_s: f64,
}

/// Builds, certifies, encodes and writes the artifact for `g` to `path`.
///
/// # Errors
///
/// File-system errors.
pub fn build(
    g: &Graph,
    params: BuildParams,
    path: &Path,
    tr: &mut Tracer,
    req: u64,
) -> Result<Built, String> {
    let t = CpuInstant::now();
    let s = tr.enter("partition.run", req);
    let built = PartitionedFtGreedy::new(g, STRETCH)
        .faults(FAULTS)
        .shard_target(params.shard_target)
        .threads(params.threads)
        .run();
    tr.exit(s);
    let partition_s = t.elapsed().as_secs_f64();

    let t = CpuInstant::now();
    let s = tr.enter("verify.certify", req);
    let violation = certify_vft_exact(g, built.ft().spanner(), FAULTS);
    tr.exit(s);
    let certify_s = t.elapsed().as_secs_f64();

    let t = CpuInstant::now();
    let s = tr.enter("frozen.freeze", req);
    let frozen = built.ft().freeze(g);
    tr.exit(s);
    let freeze_s = t.elapsed().as_secs_f64();

    let t = CpuInstant::now();
    let s = tr.enter("frozen.encode", req);
    let bytes = frozen.to_v2_sharded().encode();
    tr.exit(s);
    let encode_s = t.elapsed().as_secs_f64();

    let s = tr.enter("io.write", req);
    let written = fs::write(path, &bytes);
    tr.exit(s);
    written.map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    Ok(Built {
        frozen,
        bytes,
        oracle: built.ft().stats(),
        report: built.report().clone(),
        violation: violation.map(|(e, f)| format!("parent edge {e} blocked by {f:?}")),
        partition_s,
        certify_s,
        freeze_s,
        encode_s,
    })
}

/// Maps the artifact file and opens it in place (zero-copy).
///
/// # Errors
///
/// File-system and artifact errors.
pub fn map_and_open(path: &Path, tr: &mut Tracer, req: u64) -> Result<MappedSpanner, String> {
    let s = tr.enter("io.map", req);
    let mapped = fs::File::open(path).and_then(|f| mmapio::Mmap::map_file(&f));
    tr.exit(s);
    let mapped = mapped.map_err(|e| format!("cannot map {}: {e}", path.display()))?;
    let s = tr.enter("frozen.open", req);
    let opened = FrozenSpanner::open(SharedBytes::from_source(Arc::new(mapped)));
    tr.exit(s);
    opened.map_err(|e| format!("open failed: error[{}] {e}", e.code()))
}

/// A cold start: what a replica does when it comes up on the file.
#[derive(Debug)]
pub struct ColdStart {
    /// Map + `open` + `EpochServer` + first epoch + first route, seconds.
    pub total_s: f64,
    /// Map + `FrozenSpanner::open`, seconds.
    pub open_s: f64,
    /// The first route alone, seconds.
    pub first_route_s: f64,
    /// The first route's answer.
    pub answer: Result<Route, RouteError>,
    /// The replica's serving counters after its first route.
    pub stats: ServerStats,
}

/// Cold-starts a replica on `path` under the single vertex fault `fault`
/// and answers `pair`.
///
/// # Errors
///
/// File-system and artifact errors.
pub fn cold_start(
    path: &Path,
    fault: NodeId,
    pair: (NodeId, NodeId),
    tr: &mut Tracer,
    req: u64,
) -> Result<ColdStart, String> {
    let t = CpuInstant::now();
    let mapped = map_and_open(path, tr, req)?;
    let open_s = t.elapsed().as_secs_f64();
    let s = tr.enter("serve.server_new", req);
    let server = EpochServer::from_mapped(mapped);
    let mut session = server.epoch_clear();
    tr.exit(s);
    let s = tr.enter("serve.advance", req);
    session.advance(EpochDelta::new().fault_vertex(fault));
    tr.exit(s);
    let t_route = CpuInstant::now();
    let s = tr.enter("serve.route", req);
    let answer = session.route(pair.0, pair.1);
    tr.exit(s);
    let first_route_s = t_route.elapsed().as_secs_f64();
    Ok(ColdStart {
        total_s: t.elapsed().as_secs_f64(),
        open_s,
        first_route_s,
        answer,
        stats: server.stats(),
    })
}

/// Decodes the artifact with full validation (the reference the checks
/// serve from), returning it with the decode time in seconds.
///
/// # Errors
///
/// Artifact errors.
pub fn decode(bytes: &[u8], tr: &mut Tracer, req: u64) -> Result<(FrozenSpanner, f64), String> {
    let t = CpuInstant::now();
    let s = tr.enter("frozen.decode", req);
    let decoded = FrozenSpanner::decode(bytes);
    tr.exit(s);
    let secs = t.elapsed().as_secs_f64();
    decoded
        .map(|d| (d, secs))
        .map_err(|e| format!("decode failed: error[{}] {e}", e.code()))
}

/// Section tags of the v2 container and the metric suffix for each.
pub const SECTIONS: [(u32, &str); 6] = [
    (SECTION_META, "meta"),
    (SECTION_SPANNER, "spanner"),
    (SECTION_PARENT_EDGES, "parent_edges"),
    (SECTION_WITNESSES, "witnesses"),
    (SECTION_PARENT, "parent"),
    (SECTION_WITNESS_INDEX, "witness_index"),
];

/// Payload bytes per section, in [`SECTIONS`] order (0 when absent).
///
/// # Errors
///
/// When the container does not parse.
pub fn section_bytes(bytes: &[u8]) -> Result<[usize; 6], String> {
    let container = parse_container_v2(
        bytes,
        ARTIFACT_MAGIC,
        ARTIFACT_VERSION_V2,
        FLAG_WITNESSES_DETACHED | FLAG_WITNESSES_SHARDED,
    )
    .map_err(|e| format!("container does not parse: {e}"))?;
    Ok(SECTIONS.map(|(tag, _)| container.section(tag).map_or(0, |s| s.len)))
}
