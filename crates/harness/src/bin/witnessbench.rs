//! `witnessbench` — the per-edge witness access trajectory, as a
//! committed artifact (the selective-access analogue of `coldbench`).
//!
//! Usage:
//!
//! ```text
//! witnessbench [--smoke | --quick | --full] [--repeats R] [--out PATH]
//! witnessbench --check PATH
//! ```
//!
//! Measures open-to-k-lookups over zero-copy opens of deterministically
//! rebuilt artifacts, through both witness access paths: forcing the
//! full map (`witnesses`, which decodes the whole section) and the
//! per-edge offset index (`witnesses_for`: two index words plus one
//! record per lookup — O(|F_e|) bytes). Bytes touched come from the
//! spanner's own instrumented counter, not wall-clock inference. Writes
//! one JSON document (`BENCH_10.json` by default, schema
//! `witnessbench-2`) **after** asserting every probed fault set was
//! bit-identical across both paths and the construction's witness sets.
//!
//! `--check` re-reads any such artifact with the strict parser in
//! [`spanner_harness::json`] and validates the schema, including — for
//! full-scale documents, i.e. the committed `BENCH_10.json` — the
//! committed gate: on the largest artifact forcing the full map must
//! touch at least 5x more witness bytes than the per-edge path. CI's
//! bench-smoke job runs a smoke emission plus that check so the
//! sharded index cannot silently rot.

use spanner_harness::cli::{self, Parsed};
use spanner_harness::experiments::{ExperimentContext, Scale};
use spanner_harness::json;
use spanner_harness::witness_access;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    scale: Scale,
    out: PathBuf,
    repeats: usize,
    check: Option<PathBuf>,
}

const USAGE: &str = "usage: witnessbench [--smoke|--quick|--full] [--repeats R] [--out PATH]\n       witnessbench --check PATH";

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Quick => "quick",
        Scale::Full => "full",
    }
}

fn parse_args() -> Result<Parsed<Args>, String> {
    let mut args = Args {
        scale: Scale::Full,
        out: PathBuf::from("BENCH_10.json"),
        repeats: 0, // 0 = scale default
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.scale = Scale::Smoke,
            "--quick" => args.scale = Scale::Quick,
            "--full" => args.scale = Scale::Full,
            "--out" => args.out = PathBuf::from(cli::value_for(&mut it, "--out")?),
            "--check" => {
                args.check = Some(PathBuf::from(cli::value_for(&mut it, "--check")?));
            }
            "--repeats" => args.repeats = cli::parsed_value(&mut it, "--repeats")?,
            "--help" | "-h" => return Ok(Parsed::Help),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.repeats == 0 {
        args.repeats = match args.scale {
            Scale::Smoke => 1,
            Scale::Quick => 3,
            Scale::Full => 5,
        };
    }
    Ok(Parsed::Run(args))
}

fn run_bench(args: &Args) -> Result<(), String> {
    let ctx = ExperimentContext::new(args.scale);
    println!(
        "witnessbench: scale={} repeats={} -> {}",
        scale_name(args.scale),
        args.repeats,
        args.out.display()
    );
    let cells = witness_access::sweep(&ctx, args.repeats);
    let mut mismatches = 0usize;
    for cell in &cells {
        if !cell.identical {
            mismatches += 1;
        }
        println!(
            "  n={:<4} edges={:<5} probes={:<2} full map touched {:>8} B | per edge {:>6} B  ({:>7.2}x)  full {:>8.1} us | per edge {:>8.1} us  identical={}",
            cell.n,
            cell.edges,
            cell.probes,
            cell.full_touched,
            cell.sharded_touched,
            cell.bytes_ratio(),
            cell.full_secs * 1e6,
            cell.sharded_secs * 1e6,
            cell.identical,
        );
    }
    let doc = witness_access::artifact(scale_name(args.scale), args.repeats, &cells);
    let text = format!("{doc}\n");
    // Self-check before writing: the artifact must parse with the same
    // strict parser CI uses and satisfy its own schema (the 5x gate
    // included — a regression fails here, before anything is written).
    let parsed =
        json::parse(&text).map_err(|e| format!("internal error: emitted invalid JSON: {e}"))?;
    if mismatches == 0 {
        witness_access::check_artifact(&parsed)
            .map_err(|e| format!("emitted artifact fails its own schema: {e}"))?;
    }
    std::fs::write(&args.out, &text)
        .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;
    println!("wrote {}", args.out.display());
    if mismatches > 0 {
        return Err(format!(
            "{mismatches} cell(s) returned different fault sets across witness access paths — serving must be bit-identical"
        ));
    }
    Ok(())
}

fn run_check(path: &PathBuf) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    witness_access::check_artifact(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    let records = doc
        .get("records")
        .and_then(json::JsonValue::as_array)
        .expect("checked above");
    let schema = doc
        .get("schema")
        .and_then(json::JsonValue::as_str)
        .expect("checked above");
    println!(
        "{}: ok ({} records, schema {schema})",
        path.display(),
        records.len(),
    );
    Ok(())
}

fn main() -> ExitCode {
    cli::run_main("witnessbench", USAGE, parse_args, |args| {
        match &args.check {
            Some(path) => run_check(path),
            None => run_bench(&args),
        }
    })
}
