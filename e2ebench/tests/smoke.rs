//! Smoke-scale runs of every workload: every declared metric comes out
//! with its declared unit, the gates pass on honest answers, and a
//! deliberately corrupted answer is counted as failed.

use std::path::PathBuf;
use std::process::Command;
use vft_e2ebench::{run, Config, Outcome, Scale, Workload};

fn config(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        scale: Scale::Smoke,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2ebench-smoke"),
        corrupt_answer: false,
    }
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The string value of `"key": "..."` inside one JSON object's text.
fn field<'a>(object: &'a str, key: &str) -> &'a str {
    let at = object
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {object}"));
    let rest = &object[at + key.len() + 3..];
    let open = rest.find('"').expect("string value") + 1;
    let len = rest[open..].find('"').expect("closed string");
    &rest[open..open + len]
}

/// `(name, unit)` of every metric object in the BENCHMARK.json array `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = benchmark_json();
    let start = text.find(&format!("\"{key}\":")).expect("array present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split('{')
        .skip(1)
        .map(|object| {
            (
                field(object, "name").to_string(),
                field(object, "unit").to_string(),
            )
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit_on_every_workload() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), vft_e2ebench::END_TO_END.len());
    assert_eq!(per_layer.len(), vft_e2ebench::per_layer_names().len());
    for workload in Workload::ALL {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let outcome = run(&config(workload, trace)).expect("smoke run completes");
            assert!(outcome.correct(), "{workload:?}: {:?}", outcome.failures);
            assert!(outcome.attempted >= 1);
            assert_eq!(&emitted(&outcome), expected, "{workload:?} trace={trace}");
            let line = outcome.json_line();
            assert!(
                line.starts_with(r#"{"correct":true,"attempted":"#),
                "{line}"
            );
            for (name, unit) in expected {
                assert!(
                    line.contains(&format!(r#""{name}":{{"value":"#)),
                    "{name} missing"
                );
                assert!(
                    line.contains(&format!(r#""unit":"{unit}"}}"#)),
                    "{unit} missing"
                );
            }
        }
    }
}

#[test]
fn a_corrupted_answer_is_counted_in_fail_frac() {
    for workload in Workload::ALL {
        let mut cfg = config(workload, false);
        cfg.corrupt_answer = true;
        let outcome = run(&cfg).expect("smoke run completes");
        assert_eq!(outcome.failed, 1, "{workload:?}");
        assert!(!outcome.correct());
        assert!(outcome.fail_frac() > 0.0);
        assert!(outcome.json_line().starts_with(r#"{"correct":false,"#));
    }
}

#[test]
fn the_command_line_prints_the_result_last_and_rejects_bad_usage() {
    let bin = env!("CARGO_BIN_EXE_vft-e2ebench");
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2ebench-cli");
    let out = Command::new(bin)
        .args([
            "--workload",
            "serve-near-churn",
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--trace",
            "0",
            "--smoke",
        ])
        .arg("--work-dir")
        .arg(&work)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with(r#"{"correct":true,"#), "{last}");

    for bad in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "build",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        vec!["--workload", "build", "--seconds", "1", "--trace", "0"],
    ] {
        let out = Command::new(bin).args(&bad).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn metric_metadata_covers_every_declared_metric() {
    let meta = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/metrics.json"))
        .expect("metrics.json sits beside Cargo.toml");
    let all: Vec<(String, String)> = declared("end_to_end")
        .into_iter()
        .chain(declared("per_layer"))
        .collect();
    for (name, unit) in &all {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(meta.contains(&entry), "metrics.json lacks {name} in {unit}");
    }
    assert_eq!(meta.matches("\"layer\":").count(), all.len());
}
