//! The frozen spanner artifact: the construction's output, sealed for
//! serving.
//!
//! A [`Spanner`] is a *construction-time* object: it
//! grows edge by edge and keeps an incremental CSR view so the fault
//! oracle can query it mid-build. Once the construction finishes, the
//! consumer-facing problem inverts — the spanner never changes again,
//! but it is read by every query of every epoch, possibly from many
//! threads at once. [`FrozenSpanner`] is the artifact for that phase:
//!
//! * the adjacency is finalized into a cache-packed, immutable
//!   [`FrozenCsr`] (one contiguous record per neighbor slot);
//! * the bookkeeping a serving layer needs travels with it — the
//!   spanner-edge → parent-edge map *and* its precomputed inverse (so
//!   translating a parent-id fault set costs O(|F|), not O(|E(H)|) as
//!   [`Spanner::fault_mask`](crate::Spanner::fault_mask) pays), the
//!   stretch target, and optionally the parent graph, the fault
//!   budget/model it was built for, and the recorded witness fault sets;
//! * the whole structure is immutable and `Send + Sync`: share one
//!   artifact across any number of
//!   [`EpochServer`](crate::serve::EpochServer) sessions via `Arc` and
//!   serve from every core at once.
//!
//! Freeze from either layer: [`Spanner::freeze`](crate::Spanner::freeze)
//! seals the subgraph alone; [`FtSpanner::freeze`](crate::FtSpanner::freeze)
//! additionally records the parent graph, budget, model and witnesses
//! (the metadata adversarial replay and stretch audits feed on).
//!
//! # One form: the canonical container
//!
//! Every `FrozenSpanner` is one [`SharedBytes`] buffer holding a
//! *canonical* `VFTSPANR` v2 container (byte-level spec in
//! `docs/ARTIFACT_FORMAT.md`), and every accessor reads from it: the
//! packed adjacency and translation tables in place, the witness map as
//! per-edge records behind an offset index ([`FLAG_WITNESSES_SHARDED`]),
//! the parent graph decoded on first use. A freeze writes those bytes
//! straight from the construction and validates them exactly as
//! [`FrozenSpanner::open`] validates a mapped file, so a freeze, a
//! decode and a zero-copy open serve from identical bytes and
//! [`FrozenSpanner::encode`] is a copy. The routing-only replica
//! [`FrozenSpanner::detach_witnesses`] writes is the other canonical
//! form ([`FLAG_WITNESSES_DETACHED`]).
//!
//! Serving needs no construction: everything a replica needs travels
//! in the bytes, so [`FrozenSpanner::decode`] or `open` load an artifact
//! in another process without re-running FT-greedy. Two older layouts
//! are *imported* on load and never written back by `encode`: the v1
//! container and the monolithic-witness v2 layout. Both validate with
//! the error codes they always had and are re-laid through the one
//! canonical writer; [`FrozenSpanner::encode_v1`] still writes v1.
//!
//! The codec's contract, pinned by `tests/artifact_props.rs`:
//!
//! * `decode(encode(a))` re-encodes **byte-identically** and serves
//!   every epoch'd query batch **bit-identically** to `a`;
//! * truncated, corrupt, or crafted input returns a typed
//!   [`ArtifactError`] — decoding never panics;
//! * unknown format versions and unknown sections are rejected with
//!   typed errors, never misread (the compatibility policy).
//!
//! The `spanner-artifact` harness binary wraps the codec for the shell
//! (`build` / `inspect` / `migrate` / `serve`), and CI round-trips an
//! artifact through a fresh process on every push.

use crate::Spanner;
use spanner_faults::{FaultModel, FaultSet};
use spanner_graph::bytes::{read_u32_at, read_u64_at, SharedBytes};
use spanner_graph::io::binary::{
    self, put_u32, put_u64, BinaryError, ByteReader, ContainerWriter, SectionSource, SectionV2,
};
use spanner_graph::{EdgeId, FaultMask, FrozenCsr, Graph, GraphView, NodeId};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Magic bytes of a persisted [`FrozenSpanner`] container.
pub const ARTIFACT_MAGIC: [u8; 8] = *b"VFTSPANR";

/// The v1 container format: tag/length section framing, byte-wise
/// checksum. [`FrozenSpanner::decode`] imports it forever;
/// [`FrozenSpanner::encode_v1`] still writes it.
pub const ARTIFACT_VERSION: u32 = 1;

/// The v2 container format: alignment-padded sections behind a 64-bit
/// section table, readable **in place** via [`FrozenSpanner::open`] —
/// the format every artifact is held and written in.
pub const ARTIFACT_VERSION_V2: u32 = 2;

/// v2 header flag: the artifact is routing-only — the witness section
/// was detached at build time and witness accessors return
/// [`ArtifactError::WitnessesDetached`].
pub const FLAG_WITNESSES_DETACHED: u32 = 1;

/// v2 header flag: the witness map is stored *sharded* — every record is
/// zero-padded to an 8-byte boundary and a [`SECTION_WITNESS_INDEX`]
/// section carries per-edge offsets into it, so
/// [`FrozenSpanner::witnesses_for`] decodes only the bytes of the edge
/// it was asked about. Set on every canonical artifact that carries a
/// witness map; a v2 container without it is the monolithic layout,
/// imported on load.
pub const FLAG_WITNESSES_SHARDED: u32 = 2;

/// Construction metadata: stretch, model, budget, counts.
pub const SECTION_META: u32 = 1;
/// The spanner adjacency (graph payload, edge ids = spanner edge ids).
pub const SECTION_SPANNER: u32 = 2;
/// Spanner-edge → parent-edge id map, in spanner edge-id order.
pub const SECTION_PARENT_EDGES: u32 = 3;
/// Recorded witness fault sets, indexed by spanner edge id.
pub const SECTION_WITNESSES: u32 = 4;
/// The parent graph (graph payload), present iff the artifact carries
/// the handle.
pub const SECTION_PARENT: u32 = 5;
/// Per-edge offset index over [`SECTION_WITNESSES`]: `count` then
/// `count + 1` monotone 8-aligned `u64` offsets bracketing each witness
/// record. Present iff [`FLAG_WITNESSES_SHARDED`] is set.
pub const SECTION_WITNESS_INDEX: u32 = 6;

/// Errors from [`FrozenSpanner::decode`] / [`FrozenSpanner::open`]:
/// either the container itself is bad, it parsed but describes an
/// inconsistent artifact, or an accessor asked for data the artifact was
/// deliberately built without. Hostile input always lands here — never
/// in a panic.
///
/// `Clone` so lazily-decoded sections can memoize a failure and return
/// it verbatim on every subsequent access.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum ArtifactError {
    /// The binary container was malformed (truncation, corruption, bad
    /// magic/version/section framing, invalid graph payload).
    Format(BinaryError),
    /// The container parsed, but its sections contradict each other
    /// (counts disagree, translation table out of range, spanner edges
    /// absent from the parent, …).
    Inconsistent {
        /// What was being cross-checked.
        context: &'static str,
        /// The contradiction found.
        detail: String,
    },
    /// The artifact is a routing-only replica: its witness section was
    /// detached at build time ([`FLAG_WITNESSES_DETACHED`]), so witness
    /// queries cannot be served from it.
    WitnessesDetached,
}

/// Stable error codes [`ArtifactError`] adds on top of the
/// [`BinaryError`] taxonomy
/// ([`BINARY_ERROR_CODES`](spanner_graph::io::binary::BINARY_ERROR_CODES)).
/// The full decode-path code set is the union of the two; the snapshot
/// test in `tests/error_taxonomy.rs` pins it.
pub const ARTIFACT_ERROR_CODES: &[&str] =
    &["artifact/cross-section", "artifact/witnesses-detached"];

impl ArtifactError {
    /// A stable, machine-readable error code (part of the public error
    /// taxonomy: codes never change meaning; new variants get new
    /// codes). Match on codes, not on variants, when forward
    /// compatibility matters — the enum is `#[non_exhaustive]`.
    ///
    /// [`ArtifactError::Format`] routes straight through
    /// [`BinaryError::code`] so the container-level taxonomy has one
    /// source of truth; the only code added at this layer is
    /// `artifact/cross-section` for sections that parse individually
    /// but contradict each other.
    pub fn code(&self) -> &'static str {
        match self {
            ArtifactError::Format(e) => e.code(),
            ArtifactError::Inconsistent { .. } => "artifact/cross-section",
            ArtifactError::WitnessesDetached => "artifact/witnesses-detached",
        }
    }

    /// The operator-facing remediation hint for this error's code (one
    /// source of truth with the container layer:
    /// [`binary::remediation_for_code`]).
    pub fn remediation(&self) -> &'static str {
        binary::remediation_for_code(self.code())
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Format(e) => write!(f, "invalid artifact container: {e}"),
            ArtifactError::Inconsistent { context, detail } => {
                write!(f, "inconsistent artifact ({context}): {detail}")
            }
            ArtifactError::WitnessesDetached => {
                write!(f, "witnesses are detached from this routing-only artifact")
            }
        }
    }
}

impl Error for ArtifactError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ArtifactError::Format(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BinaryError> for ArtifactError {
    fn from(e: BinaryError) -> Self {
        ArtifactError::Format(e)
    }
}

/// Shorthand for building [`ArtifactError::Inconsistent`].
fn inconsistent(context: &'static str, detail: String) -> ArtifactError {
    ArtifactError::Inconsistent { context, detail }
}

/// Sentinel in the parent→spanner edge map for "not kept".
const NOT_KEPT: u32 = u32::MAX;

/// The spanner↔parent edge translation tables, read in place from
/// their canonical `PARENT_EDGES` section bytes: `fwd_count u64`, the
/// forward table (spanner edge → parent edge id, one `u32` each), then
/// `inv_count u64` and the precomputed inverse (parent edge → spanner
/// edge or `NOT_KEPT`). A freeze writes those bytes with
/// [`TranslationTables::write`]; every load validates them where they
/// lie ([`validate_tables_v2`]). The v1 payload is byte-identical, so an
/// import copies it.
///
/// Both directions travel in the artifact. The inverse is derivable
/// from the forward table, but *storing* it is what keeps decode's
/// allocations bounded by the input: its length is guarded against the
/// bytes actually present, where a re-derived table would be sized by an
/// attacker-controlled maximum id (a crafted 100-byte file claiming
/// parent edge 0xfffffffe must not conjure a 16 GiB allocation).
#[derive(Clone, Debug)]
struct TranslationTables {
    bytes: SharedBytes,
    /// Absolute section range inside `bytes`.
    at: usize,
    len: usize,
    fwd_count: usize,
    inv_count: usize,
}

impl TranslationTables {
    /// Appends the canonical payload of a forward table and its inverse.
    /// The caller vouches that `spanner_of_parent` is the inverse of
    /// `parent_edges`.
    fn write(out: &mut Vec<u8>, parent_edges: &[EdgeId], spanner_of_parent: &[u32]) {
        put_u64(out, parent_edges.len() as u64);
        for id in parent_edges {
            put_u32(out, id.raw());
        }
        put_u64(out, spanner_of_parent.len() as u64);
        for own in spanner_of_parent {
            put_u32(out, *own);
        }
    }

    /// Parent edge id of spanner edge `i`. Panics if `i` is out of range.
    fn fwd(&self, i: usize) -> EdgeId {
        assert!(i < self.fwd_count, "spanner edge out of range");
        EdgeId::from(read_u32_at(self.bytes.as_slice(), self.at + 8 + 4 * i))
    }

    /// Inverse slot of parent edge `s` (`NOT_KEPT` when not kept).
    /// Panics if `s` is out of range.
    fn inv(&self, s: usize) -> u32 {
        assert!(s < self.inv_count, "parent edge slot out of range");
        read_u32_at(
            self.bytes.as_slice(),
            self.at + 16 + 4 * self.fwd_count + 4 * s,
        )
    }

    /// The canonical `PARENT_EDGES` section payload.
    fn payload(&self) -> &[u8] {
        &self.bytes.as_slice()[self.at..self.at + self.len]
    }
}

/// The `PARENT` section of an artifact that carries its parent graph:
/// where it lies in the artifact's bytes, and the graph decoded (and
/// cross-checked against the spanner) on first use. Clones share the
/// memo cell, so one decode serves every handle.
#[derive(Clone, Debug)]
struct ParentSection {
    at: usize,
    len: usize,
    cell: Arc<OnceLock<Result<Arc<Graph>, ArtifactError>>>,
}

/// The witness map: sharded records behind a validated per-edge offset
/// index inside the artifact's bytes (single records decoded on demand,
/// the full map only when [`FrozenSpanner::witnesses`] forces it), or
/// detached at build time (routing-only replica).
///
/// The `touched` counter meters witness-section bytes actually read —
/// the instrumentation `witnessbench` and the sharded-access tests
/// assert on. Shared across clones like the memo cell.
#[derive(Clone, Debug)]
enum WitnessStore {
    Sharded {
        /// Witness section range inside the artifact's bytes.
        at: usize,
        len: usize,
        /// Witness-index section range inside the artifact's bytes.
        idx_at: usize,
        idx_len: usize,
        /// Record count (validated against the payload header at load).
        count: usize,
        cell: Arc<OnceLock<Result<Vec<FaultSet>, ArtifactError>>>,
        touched: Arc<AtomicU64>,
    },
    Detached,
}

/// An immutable, shareable spanner artifact (see the module docs).
///
/// # Examples
///
/// ```
/// use spanner_core::FtGreedy;
/// use spanner_graph::generators::complete;
/// use std::sync::Arc;
///
/// let g = complete(8);
/// let ft = FtGreedy::new(&g, 3).faults(1).run();
/// let frozen = Arc::new(ft.freeze(&g));
/// assert_eq!(frozen.stretch(), 3);
/// assert_eq!(frozen.budget(), Some(1));
/// assert_eq!(frozen.witnesses().unwrap().len(), frozen.edge_count());
/// ```
#[derive(Clone, Debug)]
pub struct FrozenSpanner {
    /// The canonical v2 container every accessor reads from.
    bytes: SharedBytes,
    csr: FrozenCsr,
    tables: TranslationTables,
    parent: Option<ParentSection>,
    meta: MetaFields,
    witnesses: WitnessStore,
}

impl FrozenSpanner {
    /// Seals a bare spanner (no parent, no budget metadata, no
    /// witnesses); the artifact [`Spanner::freeze`](crate::Spanner::freeze)
    /// builds.
    pub fn from_spanner(spanner: &Spanner) -> Self {
        FrozenSpanner::assemble(spanner, None, None, FaultModel::Vertex, &[])
    }

    /// Seals a spanner together with its construction metadata; the
    /// artifact [`FtSpanner::freeze`](crate::FtSpanner::freeze) builds.
    /// Writes the canonical container straight from the borrowed
    /// construction — spanner view, translation tables, witness sets and
    /// parent graph — then validates it like [`FrozenSpanner::open`].
    pub(crate) fn assemble(
        spanner: &Spanner,
        parent: Option<&Graph>,
        budget: Option<usize>,
        model: FaultModel,
        witnesses: &[FaultSet],
    ) -> Self {
        let view = spanner.graph();
        let parent_edges = spanner.parent_edge_ids();
        let spanner_of_parent = inverse_translation(parent.map(|p| p.edge_count()), parent_edges);
        let meta = MetaFields {
            stretch: spanner.stretch(),
            model,
            budget,
            node_count: view.node_count(),
            edge_count: view.edge_count(),
        };
        let csr = SectionSource {
            tag: SECTION_SPANNER,
            len: FrozenCsr::payload_len(view.node_count(), view.edge_count()),
            write: Box::new(|out: &mut Vec<u8>| FrozenCsr::write_payload(view, out)),
        };
        let tables = SectionSource {
            tag: SECTION_PARENT_EDGES,
            len: 16 + 4 * (parent_edges.len() + spanner_of_parent.len()),
            write: Box::new(|out: &mut Vec<u8>| {
                TranslationTables::write(out, parent_edges, &spanner_of_parent)
            }),
        };
        let parent = parent.map(|p| SectionSource {
            tag: SECTION_PARENT,
            len: binary::view_payload_len(p.edge_count()),
            write: Box::new(move |out: &mut Vec<u8>| binary::write_view_payload(p, out)),
        });
        write_canonical(&meta, csr, tables, Some(witnesses), parent)
            .expect("a freeze writes a valid canonical container")
    }

    /// The packed adjacency queries run over.
    pub fn csr(&self) -> &FrozenCsr {
        &self.csr
    }

    /// Number of vertices (same ids as the parent graph).
    pub fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    /// Number of spanner edges.
    pub fn edge_count(&self) -> usize {
        self.csr.edge_count()
    }

    /// The stretch target the spanner was built for.
    pub fn stretch(&self) -> u64 {
        self.meta.stretch
    }

    /// The fault budget the spanner was built for (`None` when frozen
    /// from a bare [`Spanner`], which records none).
    pub fn budget(&self) -> Option<usize> {
        self.meta.budget
    }

    /// The fault model of the construction (meaningful when
    /// [`FrozenSpanner::budget`] is set).
    pub fn model(&self) -> FaultModel {
        self.meta.model
    }

    /// Whether the witness section was detached at build time
    /// (routing-only replica).
    pub fn witnesses_detached(&self) -> bool {
        matches!(self.witnesses, WitnessStore::Detached)
    }

    /// Witness-section bytes this artifact has actually read so far:
    /// index entries plus record extents for per-edge access, the whole
    /// witness and index sections once when [`FrozenSpanner::witnesses`]
    /// forces the full map. Always 0 for a detached artifact, and for
    /// an import whose witness map was decoded on the way in — the
    /// meter exists for the serving paths, where "how many bytes did
    /// that lookup fault in" is the quantity `witnessbench` gates.
    pub fn witness_bytes_touched(&self) -> u64 {
        match &self.witnesses {
            WitnessStore::Sharded { touched, .. } => touched.load(Ordering::Relaxed),
            WitnessStore::Detached => 0,
        }
    }

    /// The parent graph, when the artifact carries one.
    ///
    /// The parent section is decoded (and fully cross-checked against
    /// the spanner) on first use, then memoized — including a memoized
    /// failure.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] when the parent section is corrupt or
    /// contradicts the spanner sections. Artifacts built in process or
    /// loaded with [`FrozenSpanner::decode`] never fail here.
    pub fn parent(&self) -> Result<Option<&Arc<Graph>>, ArtifactError> {
        let Some(p) = &self.parent else {
            return Ok(None);
        };
        let res = p.cell.get_or_init(|| {
            let payload = &self.bytes.as_slice()[p.at..p.at + p.len];
            parse_checked_parent(payload, &self.csr, &self.tables).map(Arc::new)
        });
        match res {
            Ok(g) => Ok(Some(g)),
            Err(e) => Err(e.clone()),
        }
    }

    /// The recorded witness fault sets, indexed by spanner edge id
    /// (empty when frozen from a bare spanner).
    ///
    /// The whole witness section is decoded on first use, then
    /// memoized; per-edge serving should prefer
    /// [`FrozenSpanner::witnesses_for`].
    ///
    /// # Errors
    ///
    /// [`ArtifactError::WitnessesDetached`] on a routing-only replica;
    /// otherwise an [`ArtifactError`] when a witness record is corrupt.
    pub fn witnesses(&self) -> Result<&[FaultSet], ArtifactError> {
        let WitnessStore::Sharded {
            at,
            len,
            idx_at,
            idx_len,
            cell,
            touched,
            ..
        } = &self.witnesses
        else {
            return Err(ArtifactError::WitnessesDetached);
        };
        let res = cell.get_or_init(|| {
            touched.fetch_add((*len + *idx_len) as u64, Ordering::Relaxed);
            let data = self.bytes.as_slice();
            parse_sharded_witness_payload(
                &data[*at..*at + *len],
                &data[*idx_at..*idx_at + *idx_len],
                self.node_count(),
                self.edge_count(),
            )
        });
        match res {
            Ok(w) => Ok(w),
            Err(e) => Err(e.clone()),
        }
    }

    /// The witness fault set of one spanner edge.
    ///
    /// This is the page-granular path: two index entries locate edge
    /// `e`'s record and only that record's bytes are read and decoded —
    /// O(|F_e|) per call, no up-front scan, nothing memoized. An
    /// artifact carrying no witness map (frozen from a bare [`Spanner`])
    /// answers with an empty set in the artifact's fault model.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::WitnessesDetached`] on a routing-only replica;
    /// otherwise an [`ArtifactError`] when the record is corrupt.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn witnesses_for(&self, edge: EdgeId) -> Result<FaultSet, ArtifactError> {
        let i = edge.index();
        assert!(i < self.edge_count(), "spanner edge out of range");
        let WitnessStore::Sharded {
            at,
            idx_at,
            count,
            touched,
            ..
        } = &self.witnesses
        else {
            return Err(ArtifactError::WitnessesDetached);
        };
        if *count == 0 {
            return Ok(FaultSet::empty(self.meta.model));
        }
        // The offset index was validated at load time (monotone,
        // 8-aligned, bracketed by the payload), so these two reads and
        // the record slice are in bounds.
        let data = self.bytes.as_slice();
        let start = read_u64_at(data, idx_at + 8 + 8 * i) as usize;
        let next = read_u64_at(data, idx_at + 8 + 8 * (i + 1)) as usize;
        touched.fetch_add(16 + (next - start) as u64, Ordering::Relaxed);
        parse_sharded_witness_record(
            &data[*at + start..*at + next],
            i,
            self.node_count(),
            self.edge_count(),
        )
    }

    /// Parent edge id of a spanner edge.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn parent_edge(&self, edge: EdgeId) -> EdgeId {
        self.tables.fwd(edge.index())
    }

    /// All kept parent edge ids, in spanner edge-id order.
    pub fn parent_edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.tables.fwd_count).map(move |i| self.tables.fwd(i))
    }

    /// The spanner copy of a parent edge, if it was kept (O(1), unlike
    /// the linear scan a construction-time
    /// [`Spanner`] would need).
    pub fn spanner_edge_of_parent(&self, parent_edge: EdgeId) -> Option<EdgeId> {
        let s = parent_edge.index();
        if s >= self.tables.inv_count {
            return None;
        }
        match self.tables.inv(s) {
            NOT_KEPT => None,
            own => Some(EdgeId::new(own as usize)),
        }
    }

    /// Applies a fault set expressed in *parent* ids into a mask over
    /// the spanner: vertex faults carry over unchanged, edge faults hit
    /// the spanner copies of those parent edges (absent copies are
    /// no-ops). The mask is the caller's reusable epoch scratch; this
    /// method only adds faults, it never clears.
    pub fn apply_faults(&self, faults: &FaultSet, mask: &mut FaultMask) {
        for v in faults.vertex_faults() {
            mask.fault_vertex(*v);
        }
        for e in faults.edge_faults() {
            if let Some(own) = self.spanner_edge_of_parent(*e) {
                mask.fault_edge(own);
            }
        }
    }

    /// Fills the memo cells with a parent graph and witness map an
    /// import already decoded and validated, so forcing them later does
    /// not decode the same data a second time.
    fn memoize(self, parent: Option<Arc<Graph>>, witnesses: Vec<FaultSet>) -> Self {
        if let (Some(p), Some(graph)) = (&self.parent, parent) {
            let _ = p.cell.set(Ok(graph));
        }
        if let WitnessStore::Sharded { cell, .. } = &self.witnesses {
            let _ = cell.set(Ok(witnesses));
        }
        self
    }
}

/// Builds the parent→spanner inverse of a `parent_edges` table: one slot
/// per parent edge id (the parent's edge count when the parent is
/// available, otherwise just enough to cover the referenced ids),
/// `NOT_KEPT` where the parent edge did not survive. Shared by
/// [`FrozenSpanner::assemble`] and the v1 import so the two cannot
/// drift.
fn inverse_translation(parent_edge_count: Option<usize>, parent_edges: &[EdgeId]) -> Vec<u32> {
    let slots = parent_edge_count.unwrap_or(0).max(
        parent_edges
            .iter()
            .map(|e| e.index() + 1)
            .max()
            .unwrap_or(0),
    );
    let mut spanner_of_parent = vec![NOT_KEPT; slots];
    for (own, parent_id) in parent_edges.iter().enumerate() {
        spanner_of_parent[parent_id.index()] = own as u32;
    }
    spanner_of_parent
}

/// Byte length of the `META` payload: stretch u64, model u8, budget
/// flag u8, budget u64, node count u64, edge count u64.
const META_PAYLOAD_LEN: usize = 8 + 1 + 1 + 8 + 8 + 8;

/// The fields of a `META` section.
#[derive(Clone, Debug)]
struct MetaFields {
    stretch: u64,
    model: FaultModel,
    budget: Option<usize>,
    node_count: usize,
    edge_count: usize,
}

impl MetaFields {
    /// Appends the [`META_PAYLOAD_LEN`]-byte `META` payload (identical
    /// in v1 and v2).
    fn write(&self, out: &mut Vec<u8>) {
        put_u64(out, self.stretch);
        out.push(match self.model {
            FaultModel::Vertex => 0,
            FaultModel::Edge => 1,
        });
        out.push(self.budget.is_some() as u8);
        put_u64(out, self.budget.unwrap_or(0) as u64);
        put_u64(out, self.node_count as u64);
        put_u64(out, self.edge_count as u64);
    }
}

/// Parses the [`META_PAYLOAD_LEN`]-byte `META` payload (identical in v1
/// and v2).
fn parse_meta_payload(payload: &[u8]) -> Result<MetaFields, ArtifactError> {
    let mut r = ByteReader::new(payload);
    let stretch = r.u64("stretch")?;
    let model = match r.u8("fault model")? {
        0 => FaultModel::Vertex,
        1 => FaultModel::Edge,
        other => {
            return Err(BinaryError::Malformed {
                context: "fault model",
                detail: format!("unknown tag {other}"),
            }
            .into())
        }
    };
    let has_budget = match r.u8("budget flag")? {
        0 => false,
        1 => true,
        other => {
            return Err(BinaryError::Malformed {
                context: "budget flag",
                detail: format!("expected 0 or 1, found {other}"),
            }
            .into())
        }
    };
    let budget_raw = r.u64("budget")?;
    if !has_budget && budget_raw != 0 {
        return Err(BinaryError::Malformed {
            context: "budget",
            detail: format!("flag says absent but value is {budget_raw}"),
        }
        .into());
    }
    let budget = has_budget.then_some(budget_raw as usize);
    let node_count = r.u64("node count")? as usize;
    let edge_count = r.u64("edge count")? as usize;
    r.expect_drained("meta")?;
    Ok(MetaFields {
        stretch,
        model,
        budget,
        node_count,
        edge_count,
    })
}

/// Appends one witness record body: model tag u8, length u64, then the
/// ids. Identical in the monolithic and sharded layouts; only the
/// framing around it differs.
fn write_witness_record(out: &mut Vec<u8>, set: &FaultSet) {
    out.push(match set.model() {
        FaultModel::Vertex => 0,
        FaultModel::Edge => 1,
    });
    put_u64(out, set.len() as u64);
    for v in set.vertex_faults() {
        put_u32(out, v.raw());
    }
    for e in set.edge_faults() {
        put_u32(out, e.raw());
    }
}

/// Byte length of one sharded witness record: its body zero-padded to
/// the next 8-byte boundary, so every record starts aligned and the
/// final offset closes the section aligned.
fn sharded_record_len(set: &FaultSet) -> usize {
    (9 + 4 * set.len()).next_multiple_of(binary::V2_SECTION_ALIGN)
}

/// The sharded `WITNESSES` section: `count u64`, then each record
/// padded to [`sharded_record_len`].
fn sharded_witness_section(sets: &[FaultSet]) -> SectionSource<'_> {
    SectionSource {
        tag: SECTION_WITNESSES,
        len: 8 + sets.iter().map(sharded_record_len).sum::<usize>(),
        write: Box::new(move |out: &mut Vec<u8>| {
            put_u64(out, sets.len() as u64);
            for set in sets {
                let end = out.len() + sharded_record_len(set);
                write_witness_record(out, set);
                out.resize(end, 0);
            }
        }),
    }
}

/// The `WITNESS_INDEX` section over [`sharded_witness_section`]:
/// `count u64`, then the `count + 1` record-boundary offsets.
fn witness_index_section(sets: &[FaultSet]) -> SectionSource<'_> {
    SectionSource {
        tag: SECTION_WITNESS_INDEX,
        len: 8 * (sets.len() + 2),
        write: Box::new(move |out: &mut Vec<u8>| {
            put_u64(out, sets.len() as u64);
            let mut offset = 8;
            put_u64(out, offset as u64);
            for set in sets {
                offset += sharded_record_len(set);
                put_u64(out, offset as u64);
            }
        }),
    }
}

/// Parses and validates one witness record (model tag, length, ids)
/// from `r`: ids in range for their model's id space, stored normalized
/// (sorted, deduplicated) so accept implies canonical re-encode. The
/// record body is byte-identical between the monolithic and sharded
/// layouts; only the framing around it differs.
fn parse_witness_record(
    r: &mut ByteReader<'_>,
    i: usize,
    node_count: usize,
    edge_count: usize,
) -> Result<FaultSet, ArtifactError> {
    let model_tag = r.u8("witness model")?;
    let len = r.count(4, "witness length")?;
    let mut ids = Vec::with_capacity(len);
    for _ in 0..len {
        ids.push(r.u32("witness component id")? as usize);
    }
    let bound = match model_tag {
        0 => node_count,
        1 => edge_count,
        other => {
            return Err(BinaryError::Malformed {
                context: "witness model",
                detail: format!("unknown tag {other}"),
            }
            .into())
        }
    };
    if let Some(&bad) = ids.iter().find(|&&id| id >= bound) {
        return Err(inconsistent(
            "witness map",
            format!("witness {i} references component {bad}, id space is {bound}"),
        ));
    }
    // The format stores witness ids normalized (sorted ascending,
    // deduplicated). The FaultSet constructors would silently
    // renormalize a crafted record — and then the artifact would
    // no longer re-encode to the bytes that were accepted, so
    // reject denormalized input here with a typed error instead.
    if ids.windows(2).any(|w| w[0] >= w[1]) {
        return Err(inconsistent(
            "witness map",
            format!("witness {i} ids are not sorted and deduplicated"),
        ));
    }
    Ok(if model_tag == 0 {
        FaultSet::vertices(ids.into_iter().map(NodeId::new))
    } else {
        FaultSet::edges(ids.into_iter().map(EdgeId::new))
    })
}

/// Parses and validates a monolithic `WITNESSES` payload (records packed
/// back to back, no padding): the v1 layout and the monolithic v2
/// layout, both imported on load.
fn parse_witness_payload(
    payload: &[u8],
    node_count: usize,
    edge_count: usize,
) -> Result<Vec<FaultSet>, ArtifactError> {
    let mut r = ByteReader::new(payload);
    let count = r.count(9, "witness count")?;
    if count != 0 && count != edge_count {
        return Err(inconsistent(
            "witness map",
            format!("{count} witness sets for {edge_count} spanner edges"),
        ));
    }
    let mut witnesses = Vec::with_capacity(count);
    for i in 0..count {
        witnesses.push(parse_witness_record(&mut r, i, node_count, edge_count)?);
    }
    r.expect_drained("witness map")?;
    Ok(witnesses)
}

/// Parses and validates one *sharded* witness record: the record body
/// followed by zero padding up to the 8-byte boundary the offset index
/// promised. The indexed extent must be exactly the canonical padded
/// length — a record that under- or over-fills its slice means the
/// index and payload disagree, which is the sharded layout's own
/// failure class ([`BinaryError::WitnessIndex`]).
fn parse_sharded_witness_record(
    rec: &[u8],
    i: usize,
    node_count: usize,
    edge_count: usize,
) -> Result<FaultSet, ArtifactError> {
    let mut r = ByteReader::new(rec);
    let set = parse_witness_record(&mut r, i, node_count, edge_count)?;
    let body = 9 + 4 * set.len();
    let padded = sharded_record_len(&set);
    if rec.len() != padded {
        return Err(BinaryError::WitnessIndex {
            context: "witness record",
            detail: format!(
                "record {i} is indexed as {} bytes, its body pads to {padded}",
                rec.len()
            ),
        }
        .into());
    }
    if rec[body..].iter().any(|&b| b != 0) {
        return Err(BinaryError::WitnessIndex {
            context: "witness record",
            detail: format!("record {i} carries nonzero padding"),
        }
        .into());
    }
    Ok(set)
}

/// Parses and validates a full sharded `WITNESSES` payload against its
/// offset index: every record must start exactly where the index says,
/// fill its indexed extent, and pass the shared per-record checks. This
/// is the force-everything path ([`FrozenSpanner::witnesses`], which
/// [`FrozenSpanner::decode`] uses to validate the whole file); per-edge
/// serving goes through [`parse_sharded_witness_record`] directly.
fn parse_sharded_witness_payload(
    payload: &[u8],
    idx_payload: &[u8],
    node_count: usize,
    edge_count: usize,
) -> Result<Vec<FaultSet>, ArtifactError> {
    let count = binary::parse_offset_index(idx_payload, 8, payload.len() as u64)?;
    let declared = read_u64_at(payload, 0) as usize;
    if declared != count {
        return Err(BinaryError::WitnessIndex {
            context: "witness index",
            detail: format!("index holds {count} records, witness map declares {declared}"),
        }
        .into());
    }
    if count != 0 && count != edge_count {
        return Err(inconsistent(
            "witness map",
            format!("{count} witness sets for {edge_count} spanner edges"),
        ));
    }
    let offset_at = |i: usize| read_u64_at(idx_payload, 8 + 8 * i) as usize;
    let mut witnesses = Vec::with_capacity(count);
    for i in 0..count {
        witnesses.push(parse_sharded_witness_record(
            &payload[offset_at(i)..offset_at(i + 1)],
            i,
            node_count,
            edge_count,
        )?);
    }
    Ok(witnesses)
}

/// Parses a `PARENT` payload into a [`Graph`] (full simple-graph
/// invariants re-enforced) whose node count must be the spanner's.
fn parse_parent(payload: &[u8], node_count: usize) -> Result<Graph, ArtifactError> {
    let mut r = ByteReader::new(payload);
    let parent = binary::read_graph_payload(&mut r)?;
    r.expect_drained("parent graph")?;
    if parent.node_count() != node_count {
        return Err(inconsistent(
            "parent shape",
            format!(
                "parent has {} nodes, spanner has {node_count}",
                parent.node_count()
            ),
        ));
    }
    Ok(parent)
}

/// Checks that spanner edge `i` and parent edge `parent_edges[i]` agree
/// in endpoints and weight, for every spanner edge.
fn check_parent_edges(
    parent: &Graph,
    csr: &FrozenCsr,
    parent_edges: impl Iterator<Item = EdgeId>,
) -> Result<(), ArtifactError> {
    for (own, parent_id) in parent_edges.enumerate() {
        if parent_id.index() >= parent.edge_count() {
            return Err(inconsistent(
                "parent-edge table",
                format!(
                    "spanner edge {own} maps to parent edge {parent_id} but the parent has {} edges",
                    parent.edge_count()
                ),
            ));
        }
        let own_id = EdgeId::new(own);
        let e = parent.edge(parent_id);
        if csr.edge_endpoints(own_id) != e.endpoints() || csr.edge_weight(own_id) != e.weight() {
            return Err(inconsistent(
                "parent-edge table",
                format!("spanner edge {own} disagrees with parent edge {parent_id}"),
            ));
        }
    }
    Ok(())
}

/// Parses a `PARENT` payload ([`parse_parent`]) and cross-checks it
/// against the translation tables: one inverse slot per parent edge,
/// and every spanner edge present in the parent ([`check_parent_edges`]).
fn parse_checked_parent(
    payload: &[u8],
    csr: &FrozenCsr,
    tables: &TranslationTables,
) -> Result<Graph, ArtifactError> {
    let parent = parse_parent(payload, csr.node_count())?;
    if tables.inv_count != parent.edge_count() {
        return Err(inconsistent(
            "parent-edge table",
            format!(
                "inverse has {} slots, parent has {} edges",
                tables.inv_count,
                parent.edge_count()
            ),
        ));
    }
    check_parent_edges(&parent, csr, (0..tables.fwd_count).map(|i| tables.fwd(i)))?;
    Ok(parent)
}

/// Validates a v2 `PARENT_EDGES` section **in place** and returns the
/// table view over it. O(fwd + inv) scans, no allocation sized by the
/// input. The checks pin the stored inverse to exactly the inverse
/// function of the forward table (back-pointer agreement + a kept-slot
/// census that also proves the forward table injective), and — when no
/// parent travels with the artifact — the canonical slot count
/// `max(fwd) + 1`; with a parent, the slot count is checked against the
/// parent's edge count when the parent is decoded.
fn validate_tables_v2(
    bytes: &SharedBytes,
    at: usize,
    len: usize,
    edge_count: usize,
    parent_present: bool,
) -> Result<TranslationTables, ArtifactError> {
    let data = bytes.as_slice();
    if len < 16 {
        return Err(BinaryError::Truncated {
            context: "parent-edge table",
        }
        .into());
    }
    let fwd_count_raw = read_u64_at(data, at);
    if fwd_count_raw != edge_count as u64 {
        return Err(inconsistent(
            "parent-edge table",
            format!("{fwd_count_raw} entries for {edge_count} spanner edges"),
        ));
    }
    let fwd_count = edge_count;
    let inv_header = 8 + 4 * fwd_count;
    let Some(inv_bytes) = len.checked_sub(inv_header + 8) else {
        return Err(BinaryError::Truncated {
            context: "parent-edge table",
        }
        .into());
    };
    let inv_count_raw = read_u64_at(data, at + inv_header);
    if inv_bytes % 4 != 0 || inv_count_raw != (inv_bytes / 4) as u64 {
        return Err(BinaryError::Malformed {
            context: "parent-edge table",
            detail: format!(
                "{inv_count_raw} inverse slots declared, {inv_bytes} payload bytes present"
            ),
        }
        .into());
    }
    let inv_count = inv_count_raw as usize;
    let fwd = |i: usize| read_u32_at(data, at + 8 + 4 * i) as usize;
    let inv = |s: usize| read_u32_at(data, at + inv_header + 8 + 4 * s);
    let mut max_fwd_plus1 = 0usize;
    for own in 0..fwd_count {
        let pid = fwd(own);
        if pid >= inv_count {
            return Err(inconsistent(
                "parent-edge table",
                format!("forward table references parent edge {pid} outside the {inv_count}-slot inverse"),
            ));
        }
        max_fwd_plus1 = max_fwd_plus1.max(pid + 1);
    }
    let mut kept = 0usize;
    for s in 0..inv_count {
        let own = inv(s);
        if own == NOT_KEPT {
            continue;
        }
        kept += 1;
        if own as usize >= fwd_count || fwd(own as usize) != s {
            return Err(inconsistent(
                "parent-edge table",
                format!("stored inverse disagrees with the forward table at slot {s}"),
            ));
        }
    }
    // kept == edge_count, with every kept slot pointing at a distinct
    // forward entry that points back, makes slot↔entry a bijection:
    // the stored inverse IS the inverse function, and the forward table
    // is injective (two spanner copies of one parent edge would let
    // `apply_faults` mask only one of them).
    if kept != edge_count {
        return Err(inconsistent(
            "parent-edge table",
            format!(
                "forward table is not injective: {edge_count} spanner edges share {kept} parent edges"
            ),
        ));
    }
    if !parent_present && inv_count != max_fwd_plus1 {
        return Err(inconsistent(
            "parent-edge table",
            format!("inverse has {inv_count} slots, canonical is {max_fwd_plus1}"),
        ));
    }
    Ok(TranslationTables {
        bytes: bytes.clone(),
        at,
        len,
        fwd_count,
        inv_count,
    })
}

/// The one writer: lays out the canonical v2 container — `META`,
/// `SPANNER`, `PARENT_EDGES`, the sharded `WITNESSES` (absent when
/// `witnesses` is `None`: a routing-only replica), `PARENT` when given,
/// then `WITNESS_INDEX` — straight into one aligned buffer, and loads it
/// through the same validation as [`FrozenSpanner::open`].
///
/// # Errors
///
/// Whatever that validation finds. A freeze cannot fail it; an import
/// can only where the older layout accepted something the canonical one
/// refuses (a v1 spanner section with parallel edges).
fn write_canonical<'a>(
    meta: &'a MetaFields,
    spanner: SectionSource<'a>,
    tables: SectionSource<'a>,
    witnesses: Option<&'a [FaultSet]>,
    parent: Option<SectionSource<'a>>,
) -> Result<FrozenSpanner, ArtifactError> {
    let meta = SectionSource {
        tag: SECTION_META,
        len: META_PAYLOAD_LEN,
        write: Box::new(move |out: &mut Vec<u8>| meta.write(out)),
    };
    let mut sections = vec![meta, spanner, tables];
    sections.extend(witnesses.map(sharded_witness_section));
    sections.extend(parent);
    sections.extend(witnesses.map(witness_index_section));
    let flags = if witnesses.is_some() {
        FLAG_WITNESSES_SHARDED
    } else {
        FLAG_WITNESSES_DETACHED
    };
    let bytes = SharedBytes::write_aligned(binary::container_v2_len(&sections), |out| {
        binary::write_container_v2(out, ARTIFACT_MAGIC, ARTIFACT_VERSION_V2, flags, sections);
    });
    FrozenSpanner::load_v2(bytes, false)
}

/// Re-lays a monolithic-witness v2 container — already checked up to
/// its witness map by [`FrozenSpanner::load_v2`] — through the
/// canonical writer. Its witness records are decoded here, so their
/// errors surface now with the codes they always had; with `eager` the
/// parent is checked first, the order [`FrozenSpanner::decode`] reports
/// errors in for every layout.
fn import_monolithic(
    meta: &MetaFields,
    csr: &FrozenCsr,
    tables: &TranslationTables,
    parent: Option<&[u8]>,
    map: &[u8],
    eager: bool,
) -> Result<FrozenSpanner, ArtifactError> {
    let parent_graph = match parent {
        Some(payload) if eager => Some(Arc::new(parse_checked_parent(payload, csr, tables)?)),
        _ => None,
    };
    let sets = parse_witness_payload(map, meta.node_count, meta.edge_count)?;
    let frozen = write_canonical(
        meta,
        SectionSource::bytes(SECTION_SPANNER, csr.payload()),
        SectionSource::bytes(SECTION_PARENT_EDGES, tables.payload()),
        Some(&sets),
        parent.map(|payload| SectionSource::bytes(SECTION_PARENT, payload)),
    )?;
    Ok(frozen.memoize(parent_graph, sets))
}

impl FrozenSpanner {
    /// The artifact's bytes: the canonical v2 container (spec:
    /// `docs/ARTIFACT_FORMAT.md`). The encoding is canonical — the same
    /// artifact always yields the same bytes — and self-contained:
    /// [`FrozenSpanner::decode`] or [`FrozenSpanner::open`] rebuild an
    /// artifact that serves bit-identically, in any process, with no
    /// access to the construction. A copy: the artifact already lives
    /// in this form.
    ///
    /// # Examples
    ///
    /// ```
    /// use spanner_core::{FrozenSpanner, FtGreedy};
    /// use spanner_graph::generators::complete;
    ///
    /// let g = complete(8);
    /// let frozen = FtGreedy::new(&g, 3).faults(1).run().freeze(&g);
    /// let bytes = frozen.encode();
    /// let back = FrozenSpanner::decode(&bytes)?;
    /// assert_eq!(back.encode(), bytes); // canonical roundtrip
    /// # Ok::<(), spanner_core::frozen::ArtifactError>(())
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        self.bytes.as_slice().to_vec()
    }

    /// The same artifact as a v1 container (record framing, byte-wise
    /// checksum, unpadded witness records), for consumers that still
    /// read v1. [`FrozenSpanner::decode`] imports the result back to
    /// this artifact. Forces the parent graph and witness map first, so
    /// a corrupt section surfaces as an error rather than as bytes.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::WitnessesDetached`] for a routing-only replica
    /// (v1 has no flag field to mark the absence); otherwise the error
    /// of a corrupt parent or witness section.
    pub fn encode_v1(&self) -> Result<Vec<u8>, ArtifactError> {
        let sets = self.witnesses()?;
        self.parent()?;
        let mut meta = Vec::with_capacity(META_PAYLOAD_LEN);
        self.meta.write(&mut meta);
        let mut spanner = Vec::with_capacity(binary::view_payload_len(self.edge_count()));
        binary::write_view_payload(&self.csr, &mut spanner);
        let mut witnesses = Vec::new();
        put_u64(&mut witnesses, sets.len() as u64);
        for set in sets {
            write_witness_record(&mut witnesses, set);
        }
        let mut w = ContainerWriter::new(ARTIFACT_MAGIC, ARTIFACT_VERSION);
        w.section(SECTION_META, &meta)
            .section(SECTION_SPANNER, &spanner)
            .section(SECTION_PARENT_EDGES, self.tables.payload())
            .section(SECTION_WITNESSES, &witnesses);
        if let Some(p) = &self.parent {
            w.section(SECTION_PARENT, &self.bytes.as_slice()[p.at..p.at + p.len]);
        }
        Ok(w.finish())
    }

    /// This artifact, unchanged: every artifact is already held in the
    /// canonical sharded-witness layout (or is a routing-only replica,
    /// which has no witness map to shard). A clone — the memo cells and
    /// the byte buffer are shared — kept for callers that name the
    /// layout they serve.
    pub fn to_v2_sharded(&self) -> FrozenSpanner {
        self.clone()
    }

    /// A routing-only copy of this artifact: the witness sections (which
    /// dominate artifact size) are dropped, the v2 header carries
    /// [`FLAG_WITNESSES_DETACHED`], and [`FrozenSpanner::witnesses`]
    /// returns [`ArtifactError::WitnessesDetached`]. Copies the other
    /// sections' bytes as they are — it reads no witness record, so it
    /// cannot fail on one.
    pub fn detach_witnesses(&self) -> FrozenSpanner {
        if self.witnesses_detached() {
            return self.clone();
        }
        let parent = self.parent.as_ref().map(|p| {
            SectionSource::bytes(SECTION_PARENT, &self.bytes.as_slice()[p.at..p.at + p.len])
        });
        write_canonical(
            &self.meta,
            SectionSource::bytes(SECTION_SPANNER, self.csr.payload()),
            SectionSource::bytes(SECTION_PARENT_EDGES, self.tables.payload()),
            None,
            parent,
        )
        .expect("a valid artifact's sections re-lay as a valid container")
    }

    /// Loads an artifact from bytes in any supported layout, revalidating
    /// every invariant the serving layer relies on (translation tables
    /// in range, witness map sized to the edge set, spanner edges
    /// present in the parent with identical endpoints and weights) —
    /// the parent graph and every witness record included.
    ///
    /// Canonical bytes (what [`FrozenSpanner::encode`] writes) load as
    /// [`FrozenSpanner::open`] over an aligned copy, with the parent and
    /// witness map forced; a v1 container or a monolithic-witness v2
    /// container is imported: validated with the codes it always had,
    /// then re-laid as the canonical container.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] on any defect — truncation, corruption, an
    /// unknown version or section, or internally contradictory sections.
    /// No input, however hostile, can cause a panic.
    pub fn decode(bytes: &[u8]) -> Result<FrozenSpanner, ArtifactError> {
        // Dispatch on the declared version field; each branch then
        // re-validates the whole container (checksum first) for its
        // format, so a lying version field still fails closed.
        let frozen = if bytes.len() >= 12 && bytes[8..12] == ARTIFACT_VERSION_V2.to_le_bytes() {
            Self::load_v2(SharedBytes::copy_aligned(bytes), true)?
        } else {
            Self::import_v1(bytes)?
        };
        // Force (and memoize) the parent and witness map so decode()
        // means "the whole file is valid". A detached witness store is
        // not an invalid file.
        frozen.parent()?;
        match frozen.witnesses() {
            Ok(_) | Err(ArtifactError::WitnessesDetached) => {}
            Err(e) => return Err(e),
        }
        Ok(frozen)
    }

    /// Imports a v1 container: every section validated with the v1
    /// codes, then re-laid through the canonical writer with the parent
    /// graph and witness map it decoded memoized.
    fn import_v1(bytes: &[u8]) -> Result<FrozenSpanner, ArtifactError> {
        let container = binary::parse_container(bytes, ARTIFACT_MAGIC, ARTIFACT_VERSION)?;
        for section in &container.sections {
            if !matches!(
                section.tag,
                SECTION_META
                    | SECTION_SPANNER
                    | SECTION_PARENT_EDGES
                    | SECTION_WITNESSES
                    | SECTION_PARENT
            ) {
                return Err(BinaryError::UnknownSection { tag: section.tag }.into());
            }
        }
        let require = |tag: u32, name: &'static str| {
            container
                .section(tag)
                .ok_or(BinaryError::MissingSection { name })
        };

        // META: the declared shape everything else is checked against.
        let meta = parse_meta_payload(require(SECTION_META, "meta")?)?;
        let (node_count, edge_count) = (meta.node_count, meta.edge_count);

        // SPANNER: the packed adjacency, cross-checked against META.
        let mut r = ByteReader::new(require(SECTION_SPANNER, "spanner adjacency")?);
        let csr = binary::read_frozen_csr_payload(&mut r)?;
        r.expect_drained("spanner adjacency")?;
        if csr.node_count() != node_count || csr.edge_count() != edge_count {
            return Err(inconsistent(
                "spanner shape",
                format!(
                    "meta declares {node_count} nodes / {edge_count} edges, adjacency holds {} / {}",
                    csr.node_count(),
                    csr.edge_count()
                ),
            ));
        }

        // PARENT (optional): full simple-graph invariants re-enforced.
        let parent_payload = container.section(SECTION_PARENT);
        let parent = match parent_payload {
            None => None,
            Some(payload) => Some(Arc::new(parse_parent(payload, node_count)?)),
        };

        // PARENT_EDGES: both translation directions. The stored inverse
        // is read first under the bytes-present allocation guard
        // (`ByteReader::count`), then proven equal to what the freezing
        // path would have derived — never re-derived from the forward
        // ids, whose attacker-controlled maximum would otherwise size
        // the table (and the allocation) unboundedly.
        let tables_payload = require(SECTION_PARENT_EDGES, "parent-edge table")?;
        let mut r = ByteReader::new(tables_payload);
        let count = r.count(4, "parent-edge count")?;
        if count != edge_count {
            return Err(inconsistent(
                "parent-edge table",
                format!("{count} entries for {edge_count} spanner edges"),
            ));
        }
        let mut parent_edges = Vec::with_capacity(count);
        for _ in 0..count {
            parent_edges.push(EdgeId::from(r.u32("parent edge id")?));
        }
        let slots = r.count(4, "parent-edge slot count")?;
        let mut spanner_of_parent = Vec::with_capacity(slots);
        for _ in 0..slots {
            spanner_of_parent.push(r.u32("parent-edge slot")?);
        }
        r.expect_drained("parent-edge table")?;
        if let Some(&widest) = parent_edges.iter().max() {
            if widest.index() >= slots {
                return Err(inconsistent(
                    "parent-edge table",
                    format!(
                        "forward table references parent edge {widest} outside the {slots}-slot inverse"
                    ),
                ));
            }
        }
        let expected = inverse_translation(parent.as_ref().map(|p| p.edge_count()), &parent_edges);
        if expected != spanner_of_parent {
            return Err(inconsistent(
                "parent-edge table",
                format!(
                    "stored inverse ({} slots) disagrees with the forward table (expect {} slots)",
                    spanner_of_parent.len(),
                    expected.len()
                ),
            ));
        }
        // Injectivity: two spanner edges claiming the same parent edge
        // would let `apply_faults` mask only one copy of a failed link,
        // serving routes over the other. The inverse keeps one entry per
        // distinct parent id, so a simple census detects collisions.
        let kept = spanner_of_parent.iter().filter(|&&s| s != NOT_KEPT).count();
        if kept != edge_count {
            return Err(inconsistent(
                "parent-edge table",
                format!(
                    "forward table is not injective: {edge_count} spanner edges share {kept} parent edges"
                ),
            ));
        }
        if let Some(parent) = &parent {
            check_parent_edges(parent, &csr, parent_edges.iter().copied())?;
        }

        // WITNESSES: indexed by spanner edge id; ids validated against
        // the id spaces they reference (vertex ids over the shared
        // vertex set, edge ids over the partial spanner, matching
        // `FtSpanner::witnesses`).
        let witnesses = parse_witness_payload(
            require(SECTION_WITNESSES, "witness map")?,
            node_count,
            edge_count,
        )?;

        // The v1 table and parent payloads are byte-identical to their
        // canonical sections; the adjacency is re-laid as the v2 CSR.
        let frozen = write_canonical(
            &meta,
            SectionSource::bytes(SECTION_SPANNER, csr.payload()),
            SectionSource::bytes(SECTION_PARENT_EDGES, tables_payload),
            Some(&witnesses),
            parent_payload.map(|payload| SectionSource::bytes(SECTION_PARENT, payload)),
        )?;
        Ok(frozen.memoize(parent, witnesses))
    }

    /// Loads a v2 container over `bytes` after every check `open`
    /// makes before serving: envelope, flags, section set and order,
    /// `META`, the `SPANNER` CSR, the translation tables and the witness
    /// offset index. Canonical bytes are then served where they lie,
    /// the parent and witness records left for their first use; a
    /// monolithic-witness container is imported
    /// ([`import_monolithic`]). `eager` is the
    /// [`FrozenSpanner::decode`] path, which checks the parent before an
    /// import decodes the witness map.
    fn load_v2(bytes: SharedBytes, eager: bool) -> Result<FrozenSpanner, ArtifactError> {
        let container = binary::parse_container_v2(
            bytes.as_slice(),
            ARTIFACT_MAGIC,
            ARTIFACT_VERSION_V2,
            FLAG_WITNESSES_DETACHED | FLAG_WITNESSES_SHARDED,
        )?;
        let detached = container.flags & FLAG_WITNESSES_DETACHED != 0;
        let sharded = container.flags & FLAG_WITNESSES_SHARDED != 0;
        if detached && sharded {
            return Err(BinaryError::Malformed {
                context: "header flags",
                detail: "witness map declared both detached and sharded".to_string(),
            }
            .into());
        }
        for section in &container.sections {
            match section.tag {
                SECTION_META | SECTION_SPANNER | SECTION_PARENT_EDGES | SECTION_PARENT => {}
                SECTION_WITNESSES if !detached => {}
                SECTION_WITNESSES => {
                    return Err(BinaryError::Malformed {
                        context: "witness map",
                        detail: "detached artifact carries a witness section".to_string(),
                    }
                    .into())
                }
                SECTION_WITNESS_INDEX if sharded => {}
                SECTION_WITNESS_INDEX => {
                    return Err(BinaryError::WitnessIndex {
                        context: "witness index",
                        detail: "index section present without the sharded header flag".to_string(),
                    }
                    .into())
                }
                tag => return Err(BinaryError::UnknownSection { tag }.into()),
            }
        }
        // Canonical section order: ascending tags, the order the writer
        // emits. Anything else would decode fine but re-encode to
        // different bytes, breaking the canonical-roundtrip oracle.
        if container.sections.windows(2).any(|w| w[0].tag >= w[1].tag) {
            return Err(BinaryError::Malformed {
                context: "section table",
                detail: "sections are not in canonical tag order".to_string(),
            }
            .into());
        }
        let require = |tag: u32, name: &'static str| {
            container
                .section(tag)
                .ok_or(BinaryError::MissingSection { name })
        };
        let data = bytes.as_slice();
        let section_bytes = |s: SectionV2| &data[s.offset..s.offset + s.len];

        let meta = parse_meta_payload(section_bytes(require(SECTION_META, "meta")?))?;

        // SPANNER: validated in place — alignment, counts, ranges,
        // adjacency ≡ canonical derivation, no duplicate edges — then
        // read where it lies, not rebuilt.
        let sp = require(SECTION_SPANNER, "spanner adjacency")?;
        let csr = FrozenCsr::from_bytes(bytes.clone(), sp.offset, sp.len)?;
        csr.check_simple()?;
        if csr.node_count() != meta.node_count || csr.edge_count() != meta.edge_count {
            return Err(inconsistent(
                "spanner shape",
                format!(
                    "meta declares {} nodes / {} edges, adjacency holds {} / {}",
                    meta.node_count,
                    meta.edge_count,
                    csr.node_count(),
                    csr.edge_count()
                ),
            ));
        }

        let parent = container.section(SECTION_PARENT);
        let pe = require(SECTION_PARENT_EDGES, "parent-edge table")?;
        let tables =
            validate_tables_v2(&bytes, pe.offset, pe.len, meta.edge_count, parent.is_some())?;

        let witnesses = if detached {
            WitnessStore::Detached
        } else {
            let map = require(SECTION_WITNESSES, "witness map")?;
            if !sharded {
                let parent = parent.map(section_bytes);
                let map = section_bytes(map);
                return import_monolithic(&meta, &csr, &tables, parent, map, eager);
            }
            // The offset index is validated up front — O(count) over the
            // index section only, never the payload — so per-edge access
            // can slice records without any bounds arithmetic of its own.
            let index = require(SECTION_WITNESS_INDEX, "witness index")?;
            let count = binary::parse_offset_index(section_bytes(index), 8, map.len as u64)?;
            let declared = read_u64_at(data, map.offset) as usize;
            if declared != count {
                return Err(BinaryError::WitnessIndex {
                    context: "witness index",
                    detail: format!("index holds {count} records, witness map declares {declared}"),
                }
                .into());
            }
            if count != 0 && count != meta.edge_count {
                return Err(inconsistent(
                    "witness map",
                    format!("{count} witness sets for {} spanner edges", meta.edge_count),
                ));
            }
            WitnessStore::Sharded {
                at: map.offset,
                len: map.len,
                idx_at: index.offset,
                idx_len: index.len,
                count,
                cell: Arc::new(OnceLock::new()),
                touched: Arc::new(AtomicU64::new(0)),
            }
        };
        Ok(FrozenSpanner {
            parent: parent.map(|p| ParentSection {
                at: p.offset,
                len: p.len,
                cell: Arc::new(OnceLock::new()),
            }),
            bytes,
            csr,
            tables,
            meta,
            witnesses,
        })
    }

    /// Opens a v2 artifact **in place**: the packed adjacency,
    /// translation tables and witness index are validated and then
    /// *borrowed* from `bytes` (an mmap'd file, an aligned heap buffer,
    /// …) with no `Vec` rebuild; the parent graph and each witness
    /// record are decoded on first use. Open cost is O(header +
    /// validation scans) — the cold-start path for "build once, serve
    /// from thousands of replicas".
    ///
    /// A monolithic-witness v2 container is imported instead: its
    /// witness map is decoded and the artifact re-laid into a fresh
    /// canonical buffer, so the result does not borrow `bytes` (run
    /// `spanner-artifact migrate` once to serve it in place). v1
    /// artifacts are rejected with a typed
    /// [`BinaryError::UnsupportedVersion`]; [`FrozenSpanner::decode`]
    /// keeps importing them forever.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] on any structural defect, including a buffer
    /// that misses the 8-byte base alignment
    /// (`artifact/misaligned-section`). Hostile input cannot panic and
    /// cannot size an allocation beyond the bytes present.
    pub fn open(bytes: SharedBytes) -> Result<MappedSpanner, ArtifactError> {
        Ok(MappedSpanner {
            inner: Self::load_v2(bytes, false)?,
        })
    }
}

/// An artifact opened over a shared byte buffer — the result of
/// [`FrozenSpanner::open`]. Derefs to [`FrozenSpanner`], so every
/// serving API works unchanged; the wrapper exists to make "this came
/// from the zero-copy path" explicit in signatures like
/// `EpochServer::from_mapped`.
#[derive(Clone, Debug)]
pub struct MappedSpanner {
    inner: FrozenSpanner,
}

impl MappedSpanner {
    /// The underlying artifact.
    pub fn spanner(&self) -> &FrozenSpanner {
        &self.inner
    }

    /// Unwraps into the underlying artifact.
    pub fn into_inner(self) -> FrozenSpanner {
        self.inner
    }
}

impl std::ops::Deref for MappedSpanner {
    type Target = FrozenSpanner;

    fn deref(&self) -> &FrozenSpanner {
        &self.inner
    }
}

/// Compile-time proof of the serving contract: one artifact, any number
/// of threads.
#[allow(dead_code)]
fn frozen_spanner_is_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<FrozenSpanner>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FtGreedy;
    use spanner_graph::generators::{complete, cycle};
    use spanner_graph::NodeId;

    #[test]
    fn freeze_preserves_structure_and_metadata() {
        let g = complete(10);
        let ft = FtGreedy::new(&g, 3).faults(1).run();
        let frozen = ft.freeze(&g);
        assert_eq!(frozen.node_count(), 10);
        assert_eq!(frozen.edge_count(), ft.spanner().edge_count());
        assert_eq!(frozen.stretch(), 3);
        assert_eq!(frozen.budget(), Some(1));
        assert_eq!(frozen.model(), FaultModel::Vertex);
        assert_eq!(
            frozen.encode()[8..16],
            [
                ARTIFACT_VERSION_V2.to_le_bytes(),
                FLAG_WITNESSES_SHARDED.to_le_bytes()
            ]
            .concat(),
            "a freeze is held as the canonical sharded v2 container"
        );
        assert_eq!(frozen.witnesses().unwrap(), ft.witnesses());
        assert_eq!(
            frozen.parent_edge_ids().collect::<Vec<_>>(),
            ft.spanner().parent_edge_ids()
        );
        assert_eq!(
            frozen.parent().unwrap().unwrap().edge_count(),
            g.edge_count()
        );
    }

    #[test]
    fn bare_freeze_has_no_metadata() {
        let g = cycle(6);
        let s = Spanner::from_parent_edges(&g, g.edge_ids(), 3);
        let frozen = s.freeze();
        assert_eq!(frozen.budget(), None);
        assert!(frozen.parent().unwrap().is_none());
        assert!(frozen.witnesses().unwrap().is_empty());
        assert_eq!(frozen.edge_count(), 6);
    }

    #[test]
    fn parent_edge_translation_round_trips() {
        let g = cycle(4);
        let s = Spanner::from_parent_edges(&g, [EdgeId::new(1), EdgeId::new(3)], 3);
        let frozen = s.freeze();
        assert_eq!(
            frozen.spanner_edge_of_parent(EdgeId::new(1)),
            Some(EdgeId::new(0))
        );
        assert_eq!(
            frozen.spanner_edge_of_parent(EdgeId::new(3)),
            Some(EdgeId::new(1))
        );
        assert_eq!(frozen.spanner_edge_of_parent(EdgeId::new(0)), None);
        assert_eq!(frozen.spanner_edge_of_parent(EdgeId::new(99)), None);
        assert_eq!(frozen.parent_edge(EdgeId::new(1)), EdgeId::new(3));
    }

    #[test]
    fn codec_round_trips_full_artifact() {
        let g = complete(10);
        let ft = FtGreedy::new(&g, 3).faults(2).run();
        let frozen = ft.freeze(&g);
        let bytes = frozen.encode();
        let back = FrozenSpanner::decode(&bytes).unwrap();
        assert_eq!(back.encode(), bytes, "re-encoding must be byte-identical");
        let container = binary::parse_container_v2(
            &bytes,
            ARTIFACT_MAGIC,
            ARTIFACT_VERSION_V2,
            FLAG_WITNESSES_SHARDED,
        )
        .unwrap();
        assert_eq!(container.section(SECTION_META).unwrap().len, 34);
        assert_eq!(META_PAYLOAD_LEN, 34);
        let v1 = frozen.encode_v1().unwrap();
        let v1_container = binary::parse_container(&v1, ARTIFACT_MAGIC, ARTIFACT_VERSION).unwrap();
        assert_eq!(v1_container.section(SECTION_META).unwrap().len(), 34);
        let imported = FrozenSpanner::decode(&v1).unwrap();
        assert_eq!(
            imported.encode(),
            bytes,
            "a v1 import re-lays as the canonical bytes"
        );
        assert_eq!(imported.encode_v1().unwrap(), v1);
        assert_eq!(back.node_count(), frozen.node_count());
        assert_eq!(back.edge_count(), frozen.edge_count());
        assert_eq!(back.stretch(), frozen.stretch());
        assert_eq!(back.budget(), frozen.budget());
        assert_eq!(back.model(), frozen.model());
        assert_eq!(back.witnesses().unwrap(), frozen.witnesses().unwrap());
        assert_eq!(
            back.parent_edge_ids().collect::<Vec<_>>(),
            frozen.parent_edge_ids().collect::<Vec<_>>()
        );
        for pe in 0..g.edge_count() {
            assert_eq!(
                back.spanner_edge_of_parent(EdgeId::new(pe)),
                frozen.spanner_edge_of_parent(EdgeId::new(pe))
            );
        }
        let p = back.parent().unwrap().unwrap();
        assert_eq!(p.edge_count(), g.edge_count());
        for (id, e) in g.edges() {
            assert_eq!(p.endpoints(id), e.endpoints());
            assert_eq!(p.weight(id), e.weight());
        }
    }

    #[test]
    fn codec_round_trips_bare_artifact() {
        let g = cycle(6);
        let s = Spanner::from_parent_edges(&g, [EdgeId::new(1), EdgeId::new(4)], 5);
        let frozen = s.freeze();
        let bytes = frozen.encode();
        let back = FrozenSpanner::decode(&bytes).unwrap();
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.budget(), None);
        assert!(back.parent().unwrap().is_none());
        assert!(back.witnesses().unwrap().is_empty());
        assert_eq!(
            back.spanner_edge_of_parent(EdgeId::new(4)),
            Some(EdgeId::new(1))
        );
        assert_eq!(back.spanner_edge_of_parent(EdgeId::new(0)), None);

        // Every freeze is canonical: for every generator family, the
        // empty graph and an incremental view with appends still
        // pending, the frozen CSR's bytes are exactly the v2 artifact's
        // SPANNER section and what a v1 decode rebuilds from the edge
        // list, and they serve Dijkstra under faults exactly like the
        // source graph.
        use rand::SeedableRng;
        use spanner_graph::{
            generators as gen, DijkstraEngine, Dist, IncrementalCsr, SharedBytes, Weight,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let geometric = gen::random_geometric(40, 0.3, &mut rng);
        let graphs = vec![
            gen::complete(7),
            gen::complete_bipartite(3, 4),
            gen::path(6),
            gen::star(5),
            gen::grid(4, 5),
            gen::hypercube(3),
            gen::petersen(),
            gen::generalized_petersen(7, 2),
            gen::with_uniform_weights(&geometric, 1, 9, &mut rng),
            gen::cartesian_product(&gen::cycle(3), &gen::path(4)),
            gen::erdos_renyi(30, 0.2, &mut rng),
            gen::gnm(25, 60, &mut rng),
            gen::random_regular(20, 3, &mut rng),
            gen::preferential_attachment(30, 2, &mut rng),
            gen::watts_strogatz(30, 4, 0.2, &mut rng),
            gen::with_constant_weight(&gen::cycle(8), Weight::new(3).unwrap()),
            Graph::new(0),
        ];
        let mut pending = IncrementalCsr::new(6);
        let mut mirror = Graph::new(6);
        for (u, v) in [
            (0usize, 1usize),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (1, 4),
        ] {
            pending.push_edge(NodeId::new(u), NodeId::new(v), Weight::UNIT);
            mirror.add_edge_unchecked(NodeId::new(u), NodeId::new(v), Weight::UNIT);
        }
        assert!(pending.pending_len() > 0, "appends must still be pending");
        let mut cases: Vec<(FrozenCsr, Graph)> = graphs
            .into_iter()
            .map(|g| (FrozenCsr::from_view(&g), g))
            .collect();
        cases.push((FrozenCsr::from_view(&pending), mirror));
        for (i, (frozen, g)) in cases.iter().enumerate() {
            let bare = Spanner::from_parent_edges(g, g.edge_ids(), 3).freeze();
            let v1_decoded = FrozenSpanner::decode(&bare.encode_v1().unwrap()).unwrap();
            assert_eq!(v1_decoded.csr().payload(), frozen.payload(), "graph {i}");
            let v2 = bare.encode();
            let container = binary::parse_container_v2(
                &v2,
                ARTIFACT_MAGIC,
                ARTIFACT_VERSION_V2,
                FLAG_WITNESSES_SHARDED,
            )
            .unwrap();
            let sp = container.section(SECTION_SPANNER).unwrap();
            assert_eq!(
                frozen.payload(),
                &v2[sp.offset..sp.offset + sp.len],
                "graph {i}"
            );
            let opened = FrozenSpanner::open(SharedBytes::copy_aligned(&v2)).unwrap();
            assert_eq!(opened.encode(), v2, "graph {i}");

            let n = g.node_count();
            let mut mask = FaultMask::for_graph(g);
            if n > 2 {
                mask.fault_vertex(NodeId::new(n / 2));
            }
            if g.edge_count() > 1 {
                mask.fault_edge(EdgeId::new(1));
            }
            let mut engine = DijkstraEngine::new();
            for (s, t) in [
                (0, n.saturating_sub(1)),
                (1, n / 3),
                (n / 4, n.saturating_sub(2)),
            ] {
                if s >= n || t >= n {
                    continue;
                }
                let (s, t) = (NodeId::new(s), NodeId::new(t));
                assert_eq!(
                    engine.shortest_path_bounded(frozen, s, t, Dist::INFINITE, &mask),
                    engine.shortest_path_bounded(g, s, t, Dist::INFINITE, &mask),
                    "graph {i} pair ({s},{t})"
                );
            }
        }
    }

    #[test]
    fn decode_rejects_truncation_and_corruption_everywhere() {
        let g = complete(7);
        let frozen = FtGreedy::new(&g, 3).faults(1).run().freeze(&g);
        for bytes in [frozen.encode(), frozen.encode_v1().unwrap()] {
            for len in 0..bytes.len() {
                assert!(
                    FrozenSpanner::decode(&bytes[..len]).is_err(),
                    "truncation to {len} bytes must fail"
                );
            }
            for i in (0..bytes.len()).step_by(3) {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 0x2a;
                assert!(
                    FrozenSpanner::decode(&corrupt).is_err(),
                    "flipping byte {i} must be detected"
                );
            }
        }
    }

    #[test]
    fn decode_rejects_cross_section_contradictions() {
        use spanner_graph::io::binary::{put_u32, put_u64, write_view_payload, ContainerWriter};
        let g = cycle(5);
        let frozen = Spanner::from_parent_edges(&g, g.edge_ids(), 3).freeze();
        // Rebuild the container by hand with a parent-edge table that is
        // one entry short: the count cross-check must catch it.
        let mut meta = Vec::new();
        put_u64(&mut meta, frozen.stretch());
        meta.push(0); // vertex model
        meta.push(0); // no budget
        put_u64(&mut meta, 0);
        put_u64(&mut meta, frozen.node_count() as u64);
        put_u64(&mut meta, frozen.edge_count() as u64);
        let mut spanner = Vec::new();
        write_view_payload(frozen.csr(), &mut spanner);
        let mut short_table = Vec::new();
        put_u64(&mut short_table, (frozen.edge_count() - 1) as u64);
        for id in frozen.parent_edge_ids().skip(1) {
            put_u32(&mut short_table, id.raw());
        }
        let mut witnesses = Vec::new();
        put_u64(&mut witnesses, 0);
        let mut w = ContainerWriter::new(ARTIFACT_MAGIC, ARTIFACT_VERSION);
        w.section(SECTION_META, &meta)
            .section(SECTION_SPANNER, &spanner)
            .section(SECTION_PARENT_EDGES, &short_table)
            .section(SECTION_WITNESSES, &witnesses);
        let err = FrozenSpanner::decode(&w.finish()).unwrap_err();
        assert!(
            matches!(err, ArtifactError::Inconsistent { .. }),
            "want Inconsistent, got {err}"
        );
        assert!(err.to_string().contains("parent-edge table"), "{err}");
    }

    #[test]
    fn huge_parent_edge_ids_cannot_force_allocations() {
        use spanner_graph::io::binary::{put_u32, put_u64, write_view_payload, ContainerWriter};
        // A crafted *bare* artifact (no parent section) whose one
        // spanner edge claims parent edge id 0xfffffffe. The inverse
        // table that id implies would be ~16 GiB; decode must reject the
        // file from its stored (bytes-bounded) sections instead of ever
        // sizing an allocation from the id.
        let g = cycle(3);
        let frozen = Spanner::from_parent_edges(&g, [EdgeId::new(0)], 3).freeze();
        let mut meta = Vec::new();
        put_u64(&mut meta, 3);
        meta.push(0);
        meta.push(0);
        put_u64(&mut meta, 0);
        put_u64(&mut meta, frozen.node_count() as u64);
        put_u64(&mut meta, 1);
        let mut spanner = Vec::new();
        write_view_payload(frozen.csr(), &mut spanner);
        let mut witnesses = Vec::new();
        put_u64(&mut witnesses, 0);
        // Case A: the inverse claims u64::MAX slots — the bytes-present
        // guard rejects the count before any allocation.
        // Case B: the inverse is tiny — the forward id falls outside it.
        for inverse_slots in [u64::MAX, 1] {
            let mut table = Vec::new();
            put_u64(&mut table, 1);
            put_u32(&mut table, 0xffff_fffe);
            put_u64(&mut table, inverse_slots);
            if inverse_slots == 1 {
                put_u32(&mut table, 0);
            }
            let mut w = ContainerWriter::new(ARTIFACT_MAGIC, ARTIFACT_VERSION);
            w.section(SECTION_META, &meta)
                .section(SECTION_SPANNER, &spanner)
                .section(SECTION_PARENT_EDGES, &table)
                .section(SECTION_WITNESSES, &witnesses);
            let err = FrozenSpanner::decode(&w.finish()).unwrap_err();
            assert!(
                err.to_string().contains("parent-edge"),
                "slots={inverse_slots}: {err}"
            );
        }
    }

    #[test]
    fn noninjective_forward_table_rejected() {
        use spanner_graph::io::binary::{put_u32, put_u64, ContainerWriter};
        // Two spanner copies of the same physical link, both mapped to
        // parent edge 2: epoching {e2} would mask only one copy, so the
        // decoder must refuse the artifact outright.
        let mut meta = Vec::new();
        put_u64(&mut meta, 3);
        meta.push(0);
        meta.push(0);
        put_u64(&mut meta, 0);
        put_u64(&mut meta, 3); // nodes
        put_u64(&mut meta, 2); // edges
        let mut spanner = Vec::new();
        put_u64(&mut spanner, 3);
        put_u64(&mut spanner, 2);
        for _ in 0..2 {
            put_u32(&mut spanner, 0);
            put_u32(&mut spanner, 1);
            put_u64(&mut spanner, 1);
        }
        let mut table = Vec::new();
        put_u64(&mut table, 2);
        put_u32(&mut table, 2);
        put_u32(&mut table, 2);
        put_u64(&mut table, 3); // slots 0..=2
        put_u32(&mut table, NOT_KEPT);
        put_u32(&mut table, NOT_KEPT);
        put_u32(&mut table, 1); // later claimant wins, as derivation does
        let mut witnesses = Vec::new();
        put_u64(&mut witnesses, 0);
        let mut w = ContainerWriter::new(ARTIFACT_MAGIC, ARTIFACT_VERSION);
        w.section(SECTION_META, &meta)
            .section(SECTION_SPANNER, &spanner)
            .section(SECTION_PARENT_EDGES, &table)
            .section(SECTION_WITNESSES, &witnesses);
        let err = FrozenSpanner::decode(&w.finish()).unwrap_err();
        assert!(err.to_string().contains("not injective"), "{err}");
    }

    #[test]
    fn denormalized_witness_ids_rejected() {
        use spanner_graph::io::binary::{put_u32, put_u64, write_view_payload, ContainerWriter};
        // Witness ids arrive unsorted: FaultSet would silently
        // renormalize them, breaking re-encode byte identity — so decode
        // must reject them with a typed error instead.
        let g = cycle(4);
        let frozen = Spanner::from_parent_edges(&g, [EdgeId::new(0)], 3).freeze();
        let mut meta = Vec::new();
        put_u64(&mut meta, 3);
        meta.push(0);
        meta.push(0);
        put_u64(&mut meta, 0);
        put_u64(&mut meta, frozen.node_count() as u64);
        put_u64(&mut meta, 1);
        let mut spanner = Vec::new();
        write_view_payload(frozen.csr(), &mut spanner);
        let mut table = Vec::new();
        put_u64(&mut table, 1);
        put_u32(&mut table, 0);
        put_u64(&mut table, 1);
        put_u32(&mut table, 0);
        for bad_ids in [[3u32, 1], [2, 2]] {
            let mut witnesses = Vec::new();
            put_u64(&mut witnesses, 1);
            witnesses.push(0); // vertex model
            put_u64(&mut witnesses, 2);
            for id in bad_ids {
                put_u32(&mut witnesses, id);
            }
            let mut w = ContainerWriter::new(ARTIFACT_MAGIC, ARTIFACT_VERSION);
            w.section(SECTION_META, &meta)
                .section(SECTION_SPANNER, &spanner)
                .section(SECTION_PARENT_EDGES, &table)
                .section(SECTION_WITNESSES, &witnesses);
            let err = FrozenSpanner::decode(&w.finish()).unwrap_err();
            assert!(
                err.to_string().contains("sorted and deduplicated"),
                "{bad_ids:?}: {err}"
            );
        }
    }

    #[test]
    fn decode_rejects_unknown_version_and_section() {
        let g = cycle(4);
        let frozen = Spanner::from_parent_edges(&g, g.edge_ids(), 3).freeze();
        let bytes = frozen.encode_v1().unwrap();
        let mut future = bytes.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        let body_len = future.len() - 8;
        let sum = spanner_graph::io::binary::fnv1a64(&future[..body_len]).to_le_bytes();
        future[body_len..].copy_from_slice(&sum);
        assert!(matches!(
            FrozenSpanner::decode(&future),
            Err(ArtifactError::Format(
                spanner_graph::io::binary::BinaryError::UnsupportedVersion { found: 99, .. }
            ))
        ));
    }

    #[test]
    fn apply_faults_matches_spanner_fault_mask() {
        let g = cycle(5);
        let s = Spanner::from_parent_edges(&g, [EdgeId::new(0), EdgeId::new(2), EdgeId::new(4)], 3);
        let frozen = s.freeze();
        for faults in [
            FaultSet::vertices([NodeId::new(2), NodeId::new(4)]),
            FaultSet::edges([EdgeId::new(0), EdgeId::new(1), EdgeId::new(4)]),
            FaultSet::empty(FaultModel::Vertex),
        ] {
            let reference = s.fault_mask(&faults);
            let mut mask = FaultMask::with_capacity(frozen.node_count(), frozen.edge_count());
            frozen.apply_faults(&faults, &mut mask);
            assert_eq!(mask, reference, "faults {faults:?}");
        }
    }
}
