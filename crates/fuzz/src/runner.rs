//! The fuzz loop: seeds × mutants × contracts, with a findings artifact.
//!
//! [`run`] first proves every seed decodes (the in-runner half of the
//! false-positive guard — a fuzzer whose *seeds* fail would report
//! phantom findings about everything derived from them), then drives
//! the [`Mutator`] round-robin over the seed set and holds each mutant
//! to the decode contracts:
//!
//! * **fail closed** — a panic is a [`FindingKind::Panic`];
//! * **deterministic** — an unstable error signature across
//!   [`DETERMINISM_RUNS`](spanner_harness::corpus::DETERMINISM_RUNS)
//!   decodes is a [`FindingKind::NonDeterminism`];
//! * **canonical acceptance** — accepted bytes that do not re-encode to
//!   themselves in the layout they arrived in (the v1 encoding for v1,
//!   a faithful canonical import for monolithic v2:
//!   `canonical_acceptance` in [`spanner_harness::corpus`]) are a
//!   [`FindingKind::NonCanonical`];
//! * **allocation-bounded** — a single decode allocation above
//!   [`decode_alloc_budget`] is a
//!   [`FindingKind::AllocBudget`] (checked only when the counting
//!   allocator is installed; [`FuzzReport::alloc_checked`] says
//!   whether it was, so a run that silently skipped the check cannot
//!   masquerade as one that passed it).
//!
//! Nothing is capped silently: mutants not executed because the
//! optional time budget expired are counted in
//! [`FuzzReport::skipped_time_budget`] and reported in both the human
//! output and the JSON artifact.
//!
//! The artifact is schema `vft-spanner/fuzz-1` ([`FINDINGS_SCHEMA`]),
//! emitted by [`FuzzReport::to_json`] and validated by
//! [`check_artifact`] — the same emit-then-`--check` pattern as the
//! `BENCH_*.json` perf artifacts.

use crate::alloc::{decode_alloc_budget, measure};
use crate::mutate::{AttackClass, Mutator};
use crate::seeds::{all_seeds, Seed};
use spanner_core::frozen::ARTIFACT_ERROR_CODES;
use spanner_graph::io::binary::BINARY_ERROR_CODES;
use spanner_harness::corpus::{self, decode_outcome};
use spanner_harness::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Schema tag of the findings artifact.
pub const FINDINGS_SCHEMA: &str = "vft-spanner/fuzz-1";

/// Configuration of one fuzz run. Outputs depend only on `iterations`
/// and `seed`; `time_budget` can stop a run early but the cut is always
/// reported, never silent.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// How many mutants to generate and evaluate.
    pub iterations: usize,
    /// Mutator seed: equal seeds ⇒ identical mutants and identical
    /// per-class tallies.
    pub seed: u64,
    /// Optional wall-clock cap; mutants skipped because of it are
    /// counted in [`FuzzReport::skipped_time_budget`].
    pub time_budget: Option<Duration>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iterations: 512,
            seed: 1,
            time_budget: None,
        }
    }
}

/// Which contract a finding violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// Decoding panicked (the fail-closed contract).
    Panic,
    /// Repeated decodes disagreed on outcome or error signature.
    NonDeterminism,
    /// Accepted bytes did not re-encode to themselves.
    NonCanonical,
    /// A single decode allocation exceeded the input-proportional
    /// budget.
    AllocBudget,
}

impl FindingKind {
    /// Stable name used in the findings artifact.
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::Panic => "panic",
            FindingKind::NonDeterminism => "nondeterminism",
            FindingKind::NonCanonical => "non-canonical",
            FindingKind::AllocBudget => "alloc-budget",
        }
    }
}

/// One contract violation, with the bytes that triggered it (persisted
/// under `fuzz/crashes/` by the `spanner-fuzz` binary).
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated contract.
    pub kind: FindingKind,
    /// The mutation strategy that produced the input.
    pub class: AttackClass,
    /// Human-readable description of the violation.
    pub detail: String,
    /// The triggering input.
    pub bytes: Vec<u8>,
}

/// The outcome of a fuzz run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Mutants generated and evaluated.
    pub executed: usize,
    /// Mutants *not* evaluated because the time budget expired — always
    /// reported, never silently dropped.
    pub skipped_time_budget: usize,
    /// Whether the allocation budget was actually enforced (true only
    /// under the counting allocator, i.e. in the `spanner-fuzz` binary
    /// and the dedicated alloc test).
    pub alloc_checked: bool,
    /// Names of the seeds, all of which decoded cleanly before any
    /// mutation ran.
    pub seeds: Vec<String>,
    /// Tallies: attack class → observed outcome label (stable error
    /// code or `"ok"`) → count.
    pub by_class: BTreeMap<String, BTreeMap<String, usize>>,
    /// Contract violations; empty for as long as the decode contracts
    /// hold.
    pub findings: Vec<Finding>,
    /// Wall-clock of the run, milliseconds (informational; not part of
    /// the determinism contract).
    pub wall_ms: f64,
}

impl FuzzReport {
    /// Whether the run found no contract violations.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the findings artifact (schema [`FINDINGS_SCHEMA`]).
    pub fn to_json(&self, config: &FuzzConfig) -> JsonValue {
        let by_class = JsonValue::Object(
            self.by_class
                .iter()
                .map(|(class, codes)| {
                    let members = codes
                        .iter()
                        .map(|(code, count)| (code.clone(), json::num(*count as f64)))
                        .collect();
                    (class.clone(), JsonValue::Object(members))
                })
                .collect(),
        );
        let findings = JsonValue::Array(
            self.findings
                .iter()
                .map(|f| {
                    json::obj([
                        ("kind", json::s(f.kind.name())),
                        ("class", json::s(f.class.name())),
                        ("detail", json::s(f.detail.clone())),
                        ("len", json::num(f.bytes.len() as f64)),
                        (
                            "file",
                            json::s(corpus::corpus_file_name(f.class.name(), None, &f.bytes)),
                        ),
                    ])
                })
                .collect(),
        );
        json::obj([
            ("schema", json::s(FINDINGS_SCHEMA)),
            ("iterations", json::num(config.iterations as f64)),
            ("seed", json::num(config.seed as f64)),
            ("executed", json::num(self.executed as f64)),
            (
                "skipped_time_budget",
                json::num(self.skipped_time_budget as f64),
            ),
            ("alloc_checked", JsonValue::Bool(self.alloc_checked)),
            (
                "seeds",
                JsonValue::Array(self.seeds.iter().map(json::s).collect()),
            ),
            ("by_class", by_class),
            ("findings", findings),
            ("wall_ms", json::num(self.wall_ms)),
        ])
    }
}

/// The full set of outcome labels a mutant can be tallied under: every
/// decode-path stable error code, `"ok"`, and the finding kinds (a
/// mutant that violated a contract is tallied under the violation, so
/// Σ by_class = executed stays an invariant even on a failing run).
fn known_labels() -> Vec<&'static str> {
    let mut labels = vec![corpus::OK_LABEL, "panic", "nondeterminism", "non-canonical"];
    labels.extend_from_slice(BINARY_ERROR_CODES);
    labels.extend_from_slice(ARTIFACT_ERROR_CODES);
    labels
}

/// Validates a parsed findings artifact against the `vft-spanner/fuzz-1`
/// schema: tag, required fields, attack-class names, outcome labels
/// within the error taxonomy, and tally consistency
/// (Σ by_class = executed, executed + skipped = iterations).
///
/// # Errors
///
/// A description of the first schema violation found.
pub fn check_artifact(doc: &JsonValue) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema tag")?;
    if schema != FINDINGS_SCHEMA {
        return Err(format!(
            "schema is {schema:?}, expected {FINDINGS_SCHEMA:?}"
        ));
    }
    let field = |name: &str| -> Result<f64, String> {
        doc.get(name)
            .and_then(JsonValue::as_f64)
            .filter(|x| *x >= 0.0 && x.fract() == 0.0)
            .ok_or(format!("missing or non-integral field {name:?}"))
    };
    let iterations = field("iterations")?;
    let executed = field("executed")?;
    let skipped = field("skipped_time_budget")?;
    field("seed")?;
    if executed + skipped != iterations {
        return Err(format!(
            "tally mismatch: executed {executed} + skipped {skipped} != iterations {iterations}"
        ));
    }
    if !matches!(doc.get("alloc_checked"), Some(JsonValue::Bool(_))) {
        return Err("missing boolean field \"alloc_checked\"".into());
    }
    let seeds = doc
        .get("seeds")
        .and_then(JsonValue::as_array)
        .ok_or("missing array field \"seeds\"")?;
    if seeds.is_empty() || seeds.iter().any(|s| s.as_str().is_none()) {
        return Err("\"seeds\" must be a non-empty array of names".into());
    }
    let labels = known_labels();
    let by_class = match doc.get("by_class") {
        Some(JsonValue::Object(members)) => members,
        _ => return Err("missing object field \"by_class\"".into()),
    };
    let mut tallied = 0.0;
    for (class, codes) in by_class {
        if AttackClass::from_name(class).is_none() {
            return Err(format!("unknown attack class {class:?} in by_class"));
        }
        let codes = match codes {
            JsonValue::Object(members) => members,
            _ => return Err(format!("by_class[{class:?}] must be an object")),
        };
        for (code, count) in codes {
            if !labels.contains(&code.as_str()) {
                return Err(format!(
                    "outcome {code:?} under class {class:?} is outside the error taxonomy"
                ));
            }
            match count.as_f64() {
                Some(x) if x >= 0.0 && x.fract() == 0.0 => tallied += x,
                _ => return Err(format!("by_class[{class:?}][{code:?}] must be a count")),
            }
        }
    }
    if tallied != executed {
        return Err(format!(
            "by_class tallies sum to {tallied}, but executed is {executed}"
        ));
    }
    let findings = doc
        .get("findings")
        .and_then(JsonValue::as_array)
        .ok_or("missing array field \"findings\"")?;
    for finding in findings {
        let kind = finding
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("finding without a kind")?;
        if !["panic", "nondeterminism", "non-canonical", "alloc-budget"].contains(&kind) {
            return Err(format!("unknown finding kind {kind:?}"));
        }
        let class = finding
            .get("class")
            .and_then(JsonValue::as_str)
            .ok_or("finding without a class")?;
        if AttackClass::from_name(class).is_none() {
            return Err(format!("finding with unknown attack class {class:?}"));
        }
        for key in ["detail", "file"] {
            if finding.get(key).and_then(JsonValue::as_str).is_none() {
                return Err(format!("finding without a {key:?} string"));
            }
        }
    }
    doc.get("wall_ms")
        .and_then(JsonValue::as_f64)
        .ok_or("missing number field \"wall_ms\"")?;
    Ok(())
}

/// Classifies a contract-violation message from
/// [`spanner_harness::corpus::decode_outcome`] into a finding kind.
fn classify(why: &str) -> FindingKind {
    if why.starts_with("decode panicked") {
        FindingKind::Panic
    } else if why.starts_with("nondeterministic decode") {
        FindingKind::NonDeterminism
    } else {
        FindingKind::NonCanonical
    }
}

/// Runs the fuzz loop over the built-in [`all_seeds`] set.
///
/// # Errors
///
/// Only for a broken *harness* (a seed that fails to decode — the
/// codec is wrong before any adversary shows up). Contract violations
/// on mutants are findings in the report, not errors.
pub fn run(config: &FuzzConfig) -> Result<FuzzReport, String> {
    let started = Instant::now();
    let seeds: Vec<Seed> = all_seeds();
    let mut report = FuzzReport::default();

    // False-positive guard, runner half: every legitimately-encoded
    // seed must decode before a single hostile byte is generated.
    for seed in &seeds {
        match decode_outcome(&seed.bytes) {
            Ok(corpus::DecodeOutcome::Accepted) => report.seeds.push(seed.name.to_string()),
            Ok(corpus::DecodeOutcome::Rejected(code)) => {
                return Err(format!(
                    "seed {} rejected with {code} — the harness, not an attacker, is broken",
                    seed.name
                ))
            }
            Err(why) => return Err(format!("seed {}: {why}", seed.name)),
        }
    }

    let mut mutator = Mutator::new(config.seed);
    for i in 0..config.iterations {
        if let Some(budget) = config.time_budget {
            if started.elapsed() > budget {
                report.skipped_time_budget = config.iterations - i;
                break;
            }
        }
        let mutant = mutator.mutate(&seeds[i % seeds.len()].bytes);
        let (result, peak) = measure(|| decode_outcome(&mutant.bytes));
        report.executed += 1;
        match result {
            Ok(outcome) => {
                *report
                    .by_class
                    .entry(mutant.class.name().to_string())
                    .or_default()
                    .entry(outcome.label().to_string())
                    .or_insert(0) += 1;
            }
            Err(why) => {
                let kind = classify(&why);
                // The failed mutant still counts toward its class so
                // tallies stay consistent (executed = Σ by_class +
                // findings is NOT an invariant; executed = Σ by_class
                // is, so tally findings under their observed label).
                *report
                    .by_class
                    .entry(mutant.class.name().to_string())
                    .or_default()
                    .entry(kind.name().to_string())
                    .or_insert(0) += 1;
                report.findings.push(Finding {
                    kind,
                    class: mutant.class,
                    detail: why,
                    bytes: mutant.bytes.clone(),
                });
            }
        }
        if let Some(peak) = peak {
            report.alloc_checked = true;
            let budget = decode_alloc_budget(mutant.bytes.len());
            if peak > budget {
                report.findings.push(Finding {
                    kind: FindingKind::AllocBudget,
                    class: mutant.class,
                    detail: format!(
                        "decode of a {}-byte input made a {peak}-byte allocation \
                         (budget {budget})",
                        mutant.bytes.len()
                    ),
                    bytes: mutant.bytes,
                });
            }
        }
    }
    report.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_is_clean_and_fully_tallied() {
        let config = FuzzConfig {
            iterations: 96,
            seed: 42,
            time_budget: None,
        };
        let report = run(&config).expect("seeds must decode");
        assert!(report.is_clean(), "findings: {:?}", report.findings);
        assert_eq!(report.executed, 96);
        assert_eq!(report.skipped_time_budget, 0);
        let tallied: usize = report.by_class.values().flat_map(|c| c.values()).sum();
        assert_eq!(tallied, report.executed, "no silent drops");
        // Without the counting allocator installed (this test binary),
        // the alloc check must report itself as not run.
        assert!(!report.alloc_checked);
    }

    #[test]
    fn equal_configs_produce_identical_tallies() {
        let config = FuzzConfig {
            iterations: 64,
            seed: 7,
            time_budget: None,
        };
        let a = run(&config).unwrap();
        let b = run(&config).unwrap();
        assert_eq!(a.by_class, b.by_class);
        assert_eq!(a.executed, b.executed);
    }

    #[test]
    fn artifact_round_trips_and_checks() {
        let config = FuzzConfig {
            iterations: 32,
            seed: 3,
            time_budget: None,
        };
        let report = run(&config).unwrap();
        let doc = report.to_json(&config);
        let parsed = json::parse(&doc.to_string()).expect("artifact must be valid JSON");
        check_artifact(&parsed).expect("artifact must satisfy its own schema");
    }

    #[test]
    fn check_artifact_rejects_drift() {
        let config = FuzzConfig {
            iterations: 16,
            seed: 5,
            time_budget: None,
        };
        let report = run(&config).unwrap();
        let good = report.to_json(&config);

        let mut wrong_schema = good.clone();
        if let JsonValue::Object(members) = &mut wrong_schema {
            members[0].1 = json::s("vft-spanner/fuzz-0");
        }
        assert!(check_artifact(&wrong_schema).is_err());

        let mut bad_tally = good.clone();
        if let JsonValue::Object(members) = &mut bad_tally {
            for (k, v) in members.iter_mut() {
                if k == "executed" {
                    *v = json::num(9999.0);
                }
            }
        }
        assert!(check_artifact(&bad_tally).is_err());

        let mut alien_code = good;
        if let JsonValue::Object(members) = &mut alien_code {
            for (k, v) in members.iter_mut() {
                if k == "by_class" {
                    *v = JsonValue::Object(vec![(
                        "bit-flip".into(),
                        JsonValue::Object(vec![("artifact/not-a-code".into(), json::num(16.0))]),
                    )]);
                }
            }
        }
        assert!(check_artifact(&alien_code).is_err());
    }

    #[test]
    fn time_budget_skips_are_reported_not_silent() {
        let config = FuzzConfig {
            iterations: 1_000_000,
            seed: 9,
            time_budget: Some(Duration::from_millis(50)),
        };
        let report = run(&config).unwrap();
        assert!(report.executed < config.iterations);
        assert_eq!(
            report.executed + report.skipped_time_budget,
            config.iterations,
            "every non-executed mutant must be accounted for"
        );
    }
}
