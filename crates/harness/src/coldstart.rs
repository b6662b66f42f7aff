//! Cold-start serving cost: v2 in-place `open` vs v1 full `decode`.
//!
//! The question behind the v2 layout (`docs/ARTIFACT_FORMAT.md` §"v2")
//! is replica spin-up: how long from "artifact bytes in hand" to "first
//! query answered"? The v1 path must materialize every section — the
//! adjacency, the parent-edge tables, the embedded parent graph, the
//! witness map — and re-lay them as the canonical v2 container before
//! the first route. The v2 in-place path validates the envelope and the
//! witness index, points the serving tables at the buffer, and defers
//! the parent and witness records until (unless) something asks for
//! them.
//!
//! This module measures both, open-to-first-route, on deterministically
//! rebuilt artifacts of increasing size, and emits the committed
//! `BENCH_8.json` artifact (schema [`SCHEMA`]) through the `coldbench`
//! binary. The hard gates are the ones the serving story depends on:
//! every cell's first answers must be bit-identical across the two
//! paths, and — for full-scale artifacts, i.e. the committed
//! `BENCH_8.json` — on the largest artifact the in-place open must be
//! at least [`MIN_COLD_SPEEDUP`]× faster than the full decode.

use crate::cell_seed;
use crate::experiments::ExperimentContext;
use crate::json::{num, obj, s, JsonValue};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spanner_core::{EpochServer, FrozenSpanner, FtGreedy};
use spanner_faults::FaultSet;
use spanner_graph::generators::random_geometric;
use spanner_graph::{NodeId, SharedBytes};
use std::sync::Arc;
use std::time::Instant;

/// The cold-start artifact schema tag; bump when the layout changes.
/// `coldbench-2` added the required `host` block (logical CPUs, rustc,
/// OS/arch) so artifacts are comparable across machines.
pub const SCHEMA: &str = "vft-spanner/coldbench-2";

/// The pre-host tag still accepted by [`check_artifact`], so committed
/// artifacts from earlier PRs keep validating (`host` optional there).
pub const LEGACY_SCHEMA: &str = "vft-spanner/coldbench-1";

/// The stretch target every coldbench spanner is built for.
pub const STRETCH: u64 = 3;

/// The committed gate: on the largest artifact in the document, v2
/// in-place open-to-first-route must beat v1 full decode by at least
/// this factor.
pub const MIN_COLD_SPEEDUP: f64 = 10.0;

/// One cold-start cell: one artifact size, both paths.
#[derive(Clone, Debug)]
pub struct ColdCell {
    /// Network size the artifact was built over.
    pub n: usize,
    /// Fault budget.
    pub f: usize,
    /// Spanner edges.
    pub edges: usize,
    /// v1 artifact size in bytes.
    pub v1_bytes: usize,
    /// v2 artifact size in bytes.
    pub v2_bytes: usize,
    /// v1 full-decode open-to-first-route, seconds (min over repeats).
    pub decode_secs: f64,
    /// v2 in-place open-to-first-route, seconds (min over repeats).
    pub open_secs: f64,
    /// Whether the two paths' first answers were bit-identical.
    pub identical: bool,
}

impl ColdCell {
    /// In-place speedup over the full decode, rounded the way the
    /// artifact records it.
    pub fn speedup(&self) -> f64 {
        round2(self.decode_secs / self.open_secs)
    }
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Times `job` `repeats` times and keeps the minimum wall time (the
/// least-noisy sample) plus the last run's value.
fn best_of<T>(repeats: usize, mut job: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let out = job();
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("repeats >= 1"))
}

/// Runs the cold-start sweep: one cell per artifact size, both open
/// paths timed open-to-first-route on the same first-route query.
pub fn sweep(ctx: &ExperimentContext, repeats: usize) -> Vec<ColdCell> {
    // (n, radius, f): the largest cell doubles the fault budget — a
    // bigger witness map and a denser spanner are exactly the sections
    // the v1 path must materialize and the in-place path defers.
    let sizes: Vec<(usize, f64, usize)> = ctx.pick(
        vec![(24, 0.5, 1)],
        vec![(48, 0.35, 1), (96, 0.3, 1)],
        vec![(64, 0.3, 1), (128, 0.28, 1), (256, 0.24, 2)],
    );
    sizes
        .into_iter()
        .enumerate()
        .map(|(cell, (n, radius, f))| {
            let mut rng = StdRng::seed_from_u64(cell_seed(17, cell as u64, 0));
            let g = random_geometric(n, radius, &mut rng);
            let frozen = FtGreedy::new(&g, STRETCH).faults(f).run().freeze(&g);
            let v1 = frozen
                .encode_v1()
                .expect("own artifact carries its witnesses");
            let v2 = frozen.encode();
            // The first-route probe: one live pair, no failures — the
            // minimal "replica is up" signal.
            let clear = FaultSet::vertices([]);
            let pair = (NodeId::new(0), NodeId::new(n / 2));
            // The aligned buffer is built once, outside the timer: it
            // stands in for an mmap(2) region, whose setup cost is a
            // syscall, not a byte copy. Cloning a SharedBytes is an
            // Arc bump.
            let shared = SharedBytes::copy_aligned(&v2);
            let (decode_secs, decode_answer) = best_of(repeats, || {
                let artifact = FrozenSpanner::decode(&v1).expect("own v1 bytes decode");
                let server = EpochServer::new(Arc::new(artifact));
                server.epoch(&clear).route(pair.0, pair.1)
            });
            let (open_secs, open_answer) = best_of(repeats, || {
                let mapped = FrozenSpanner::open(shared.clone()).expect("own v2 bytes open");
                let server = EpochServer::from_mapped(mapped);
                server.epoch(&clear).route(pair.0, pair.1)
            });
            ColdCell {
                n,
                f,
                edges: frozen.edge_count(),
                v1_bytes: v1.len(),
                v2_bytes: v2.len(),
                decode_secs,
                open_secs,
                identical: decode_answer == open_answer,
            }
        })
        .collect()
}

fn cell_json(cell: &ColdCell) -> JsonValue {
    obj([
        ("n", num(cell.n as f64)),
        ("f", num(cell.f as f64)),
        ("edges_kept", num(cell.edges as f64)),
        ("v1_bytes", num(cell.v1_bytes as f64)),
        ("v2_bytes", num(cell.v2_bytes as f64)),
        ("decode_us", num(round2(cell.decode_secs * 1e6))),
        ("open_us", num(round2(cell.open_secs * 1e6))),
        ("speedup", num(cell.speedup())),
        ("identical", JsonValue::Bool(cell.identical)),
    ])
}

/// Builds the machine-readable cold-start artifact (the document the
/// `coldbench` binary writes as `BENCH_8.json` and CI schema-checks).
pub fn artifact(scale_name: &str, repeats: usize, cells: &[ColdCell]) -> JsonValue {
    let all_identical = cells.iter().all(|c| c.identical);
    let largest = cells
        .iter()
        .max_by_key(|c| c.v1_bytes)
        .expect("sweep emits at least one cell");
    obj([
        ("schema", s(SCHEMA)),
        (
            "generated_by",
            s("cargo run --release -p spanner-harness --bin coldbench"),
        ),
        ("host", crate::host::host_json()),
        ("scale", s(scale_name)),
        ("stretch", num(STRETCH as f64)),
        ("repeats", num(repeats as f64)),
        (
            "records",
            JsonValue::Array(cells.iter().map(cell_json).collect()),
        ),
        (
            "summary",
            obj([
                ("cells", num(cells.len() as f64)),
                ("results_identical_all", JsonValue::Bool(all_identical)),
                ("largest_v1_bytes", num(largest.v1_bytes as f64)),
                ("largest_speedup", num(largest.speedup())),
            ]),
        ),
    ])
}

/// Validates a parsed cold-start artifact against the `coldbench-1`
/// schema: tag, per-record keys and sanity, the bit-identity
/// certification on every record, and — at **full scale only** — the
/// committed gate: the largest artifact's in-place speedup must reach
/// [`MIN_COLD_SPEEDUP`]. Smoke/quick artifacts measure tiny containers
/// whose decode cost has nothing to amortize the envelope validation
/// against, so the floor is a property of the committed full-scale
/// `BENCH_8.json`, not of every emission.
///
/// # Errors
///
/// Returns a description of the first schema violation found.
pub fn check_artifact(doc: &JsonValue) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema tag")?;
    if schema != SCHEMA && schema != LEGACY_SCHEMA {
        return Err(format!(
            "unexpected schema {schema:?} (want {SCHEMA:?} or legacy {LEGACY_SCHEMA:?})"
        ));
    }
    if schema == SCHEMA {
        crate::host::check_host(doc)?;
    }
    let scale = doc
        .get("scale")
        .and_then(JsonValue::as_str)
        .ok_or("missing scale")?;
    let records = doc
        .get("records")
        .and_then(JsonValue::as_array)
        .ok_or("missing records array")?;
    if records.is_empty() {
        return Err("empty records array".into());
    }
    let mut largest_bytes = 0.0f64;
    let mut largest_speedup = 0.0f64;
    for (i, record) in records.iter().enumerate() {
        let field = |key: &str| -> Result<f64, String> {
            record
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("record {i} missing numeric key {key:?}"))
        };
        for key in ["n", "f", "edges_kept", "v1_bytes", "v2_bytes"] {
            field(key)?;
        }
        for key in ["decode_us", "open_us", "speedup"] {
            let v = field(key)?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("record {i} has a bad {key}: {v}"));
            }
        }
        if record.get("identical") != Some(&JsonValue::Bool(true)) {
            return Err(format!(
                "record {i} does not certify identical first answers across open paths"
            ));
        }
        let bytes = field("v1_bytes")?;
        if bytes > largest_bytes {
            largest_bytes = bytes;
            largest_speedup = field("speedup")?;
        }
    }
    let summary = doc.get("summary").ok_or("missing summary")?;
    if summary.get("results_identical_all") != Some(&JsonValue::Bool(true)) {
        return Err("summary does not certify identical answers".into());
    }
    for (key, want) in [
        ("largest_v1_bytes", largest_bytes),
        ("largest_speedup", largest_speedup),
    ] {
        let claimed = summary
            .get(key)
            .and_then(JsonValue::as_f64)
            .ok_or(format!("summary missing {key}"))?;
        if (claimed - want).abs() > 1e-9 {
            return Err(format!(
                "summary claims {key}={claimed}, records say {want}"
            ));
        }
    }
    if scale == "full" && largest_speedup < MIN_COLD_SPEEDUP {
        return Err(format!(
            "largest artifact's in-place speedup is {largest_speedup}x, \
             below the committed {MIN_COLD_SPEEDUP}x cold-start gate"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;
    use crate::json;

    #[test]
    fn smoke_sweep_round_trips_through_the_checker() {
        let ctx = ExperimentContext::new(Scale::Smoke);
        let cells = sweep(&ctx, 1);
        assert_eq!(cells.len(), 1);
        assert!(cells.iter().all(|c| c.identical));
        let doc = artifact("smoke", 1, &cells);
        let text = format!("{doc}\n");
        let parsed = json::parse(&text).expect("emitted artifact parses");
        // The smoke cell is too small to owe the 10x floor — the floor
        // gates only full-scale documents — so a smoke emission must
        // pass its own check (CI's bench-smoke job relies on this).
        check_artifact(&parsed).expect("smoke artifact passes without the full-scale floor");
        // Relabeled full-scale, the same cell owes the floor. Its timings
        // are fixed here, not measured: a measured smoke speedup can land
        // on either side of 10x.
        let as_full_with = |decode_secs: f64| {
            let cells = [ColdCell {
                decode_secs,
                open_secs: 1e-3,
                ..cells[0].clone()
            }];
            let doc = artifact("full", 1, &cells);
            check_artifact(&json::parse(&format!("{doc}")).unwrap())
        };
        let err = as_full_with(9.99e-3).unwrap_err();
        assert!(err.contains("cold-start gate"), "wrong complaint: {err}");
        as_full_with(MIN_COLD_SPEEDUP * 1e-3).expect("10x meets the full-scale floor");
    }

    #[test]
    fn checker_rejects_divergent_answers() {
        let ctx = ExperimentContext::new(Scale::Smoke);
        let mut cells = sweep(&ctx, 1);
        cells[0].identical = false;
        let doc = artifact("smoke", 1, &cells);
        let parsed = json::parse(&format!("{doc}")).unwrap();
        let err = check_artifact(&parsed).unwrap_err();
        assert!(err.contains("identical"), "wrong complaint: {err}");
    }
}
