//! `spanner-fuzz` — offline, deterministic, structure-aware fuzzing of
//! the artifact decode path.
//!
//! Since PR 5, `VFTSPANR` artifacts are the unit of deployment: one
//! builder process encodes, thousands of replicas decode bytes they did
//! not produce. That makes [`parse_container`], [`decode_frozen_csr`]
//! and [`FrozenSpanner::decode`] a trust boundary, and this crate is
//! the adversary that patrols it — following the fail-closed
//! adversarial-testing shape (attack classes with stable error codes, a
//! determinism contract, a false-positive guard) the ROADMAP's
//! "adversarial codec hardening" item calls for.
//!
//! The whole subsystem is **offline and deterministic**, mirroring the
//! `vendor/` dependency shims: no libFuzzer/AFL, no network, no wall
//! clock in any decision that affects outputs — just a seeded
//! [`Mutator`] (truncation, bit flips, section splice/replay,
//! length-field inflation, cross-section contradictions, with checksum
//! fixup so mutants reach *past* the FNV gate) driving the decoders
//! under a panic / allocation / time budget. The same seed always
//! produces the same mutants, so every CI finding replays locally.
//!
//! What a run asserts, per mutant (see [`runner`]):
//!
//! * **fail closed** — decoding returns `Ok` or a typed error; any
//!   panic is a finding;
//! * **deterministic** — repeated decodes yield the identical stable
//!   error code and message (the forensic-repeatability contract);
//! * **canonical acceptance** — bytes that decode must re-encode to
//!   exactly themselves in their own layout: canonical v2 through
//!   `encode`, v1 through `encode_v1`, and monolithic v2 as a faithful
//!   canonical import (a mutant the codec accepts but would re-emit
//!   differently is a finding);
//! * **allocation-bounded** — no single allocation during decode may
//!   exceed [`alloc::decode_alloc_budget`] of the input length (when
//!   the [`alloc::CountingAlloc`] is installed, as the `spanner-fuzz`
//!   binary and the `alloc_budget` test do);
//! * **no silent caps** — mutants skipped by the time budget are
//!   counted and reported ([`runner::FuzzReport::skipped_time_budget`]),
//!   never silently dropped from coverage.
//!
//! Findings are persisted under `fuzz/crashes/` and interesting inputs
//! under `fuzz/corpus/` using the shared [`spanner_harness::corpus`]
//! naming convention (`<class>__<expected-code>__<hash>.bin`), which
//! tier-1 tests and `spanner-artifact replay` re-verify on every run.
//! The `spanner-fuzz` binary drives everything from the shell and emits
//! a schema-checked `vft-spanner/fuzz-1` findings artifact for CI.
//!
//! [`parse_container`]: spanner_graph::io::binary::parse_container
//! [`decode_frozen_csr`]: spanner_graph::io::binary::decode_frozen_csr
//! [`FrozenSpanner::decode`]: spanner_core::FrozenSpanner::decode
//! [`Mutator`]: mutate::Mutator

#![warn(missing_docs)]
// `alloc` implements a GlobalAlloc wrapper; that is the one unsafe
// surface in the crate (and the workspace's fuzzing story depends on
// it). Everything else stays safe.
#![deny(unsafe_code)]

pub mod alloc;
pub mod mutate;
pub mod runner;
pub mod seeds;

pub use mutate::{AttackClass, Mutant, Mutator};
pub use runner::{FuzzConfig, FuzzReport, FINDINGS_SCHEMA};
