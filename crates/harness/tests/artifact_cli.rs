//! Cross-process determinism of hostile-artifact handling.
//!
//! The decode determinism contract has two legs. The in-process leg
//! (same bytes ⇒ same typed error, three repeated decodes) lives in
//! `spanner_harness::corpus`. This test adds the process-boundary leg:
//! for every committed corpus entry, the `spanner-artifact` binary —
//! a separate process, decoding bytes it did not produce — must report
//! the *same* stable error code the in-process decode produced, as
//! `error[<code>]` plus a remediation hint on stderr with a non-zero
//! exit, and must do so byte-identically across repeated invocations.
//! No hostile input may panic the process.

use spanner_harness::corpus::{decode_outcome, replay_dir, DecodeOutcome};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_spanner-artifact")
}

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(rel)
}

fn inspect(path: &Path) -> Output {
    Command::new(bin())
        .arg("inspect")
        .arg(path)
        .output()
        .expect("spanner-artifact must spawn")
}

/// Extracts the stable code from an `error[<code>]` stderr line.
fn code_from_stderr(stderr: &[u8]) -> Option<String> {
    let text = String::from_utf8_lossy(stderr);
    let start = text.find("error[")? + "error[".len();
    let end = text[start..].find(']')? + start;
    Some(text[start..end].to_string())
}

#[test]
fn inspect_matches_in_process_codes_deterministically_for_every_corpus_entry() {
    let dir = repo_path("fuzz/corpus");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("fuzz/corpus must exist")
        .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
        .filter(|n| n.ends_with(".bin"))
        .collect();
    names.sort();
    assert!(
        names.len() >= 30,
        "corpus shrank to {} entries",
        names.len()
    );

    for name in names {
        let path = dir.join(&name);
        let bytes = std::fs::read(&path).unwrap();

        // In-process leg: three decodes, stable outcome (asserted
        // inside decode_outcome).
        let in_process = decode_outcome(&bytes)
            .unwrap_or_else(|why| panic!("{name}: in-process contract violated: {why}"));

        // Process-boundary leg, twice, byte-identical.
        let first = inspect(&path);
        let second = inspect(&path);
        assert_eq!(
            first.stderr, second.stderr,
            "{name}: hostile-input stderr must be byte-identical across runs"
        );
        assert_eq!(first.status.code(), second.status.code());

        // `inspect` speaks VFTSPANR; standalone VFTGRAPH corpus entries
        // are — correctly — a bad-magic rejection for this subcommand,
        // whatever the entry's own expected outcome is. And a
        // routing-only artifact is Rejected in-process (the witness
        // accessor's typed refusal) but inspects cleanly: inspect
        // reports metadata, it does not serve witness queries, and the
        // detached state is printed, not an error.
        let is_graph = bytes.len() >= 8 && &bytes[..8] == b"VFTGRAPH";
        let expected_code = match (&in_process, is_graph) {
            (_, true) => Some("artifact/bad-magic".to_string()),
            (DecodeOutcome::Accepted, false) => None,
            (DecodeOutcome::Rejected("artifact/witnesses-detached"), false) => None,
            (DecodeOutcome::Rejected(code), false) => Some(code.to_string()),
        };
        match expected_code {
            None => assert!(
                first.status.success(),
                "{name}: accepted artifact must inspect cleanly\nstderr: {}",
                String::from_utf8_lossy(&first.stderr)
            ),
            Some(code) => {
                assert!(
                    !first.status.success(),
                    "{name}: hostile artifact must exit non-zero"
                );
                assert_eq!(
                    code_from_stderr(&first.stderr).as_deref(),
                    Some(code.as_str()),
                    "{name}: subprocess code disagrees with in-process decode\nstderr: {}",
                    String::from_utf8_lossy(&first.stderr)
                );
                assert!(
                    String::from_utf8_lossy(&first.stderr).contains("remediation: "),
                    "{name}: hostile rejection must carry a remediation hint"
                );
            }
        }
    }
}

#[test]
fn sharded_cli_surface_round_trips_and_fails_closed() {
    let dir = std::env::temp_dir().join(format!("artifact-shard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |args: &[&str]| -> Output {
        Command::new(bin())
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spanner-artifact must spawn")
    };
    let ok = |out: &Output, what: &str| {
        assert!(
            out.status.success(),
            "{what} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let read = |name: &str| std::fs::read(dir.join(name)).unwrap();

    // build writes the canonical layout: a decodable v2 artifact that
    // inspect reports as sharded, with index stats.
    ok(
        &run(&[
            "build", "--family", "complete", "--n", "7", "--f", "1", "--out", "s.vfts",
        ]),
        "build",
    );
    let inspected = run(&["inspect", "s.vfts"]);
    ok(&inspected, "inspect");
    let report = String::from_utf8_lossy(&inspected.stdout).into_owned();
    assert!(report.contains("(witnesses-sharded)"), "{report}");
    assert!(report.contains("witness-index"), "{report}");
    assert!(report.contains("witness index:"), "{report}");
    assert!(report.contains("sharded per-edge index"), "{report}");
    assert!(!report.contains("imported"), "{report}");

    // migrate is the byte identity on canonical input.
    let migrated = run(&["migrate", "s.vfts", "--out", "s2.vfts"]);
    ok(&migrated, "migrate canonical");
    assert!(String::from_utf8_lossy(&migrated.stdout).contains("already canonical"));
    let original = read("s.vfts");
    assert_eq!(
        original,
        read("s2.vfts"),
        "migrate must not touch canonical bytes"
    );

    // The two imported layouts: a committed v1 seed and a committed
    // monolithic-witness v2 seed (the same construction as the v1 seed
    // `complete6-f1-vertex`). Each inspects as an import and migrates
    // to canonical bytes that migrate again to themselves.
    for (seed, layout) in [
        ("seed__ok__0375ad5c73b3bd68.bin", "v1"),
        (
            "seed__ok__88b44a6bfbf11955.bin",
            "v2, monolithic witness map",
        ),
    ] {
        let path = repo_path("fuzz/corpus").join(seed);
        let path = path.to_str().unwrap();
        let inspected = run(&["inspect", path]);
        ok(&inspected, seed);
        let report = String::from_utf8_lossy(&inspected.stdout).into_owned();
        assert!(
            report.contains(&format!("layout     {layout}: imported")),
            "{report}"
        );
        ok(&run(&["migrate", path, "--out", "m.vfts"]), seed);
        ok(&run(&["migrate", "m.vfts", "--out", "m2.vfts"]), seed);
        let canonical = read("m.vfts");
        assert_ne!(canonical, std::fs::read(path).unwrap(), "{seed}");
        assert_eq!(
            canonical,
            read("m2.vfts"),
            "{seed}: migrate must be idempotent"
        );
        assert!(String::from_utf8_lossy(&run(&["inspect", "m.vfts"]).stdout)
            .contains("(witnesses-sharded)"));
    }

    // Both zero-copy and eager serve accept the canonical artifact.
    for extra in [&[][..], &["--in-place"][..]] {
        let mut args = vec!["serve", "s.vfts", "--epochs", "3", "--batch", "8"];
        args.extend_from_slice(extra);
        let served = run(&args);
        ok(&served, &format!("serve {extra:?}"));
        // The load label names the path actually taken: zero-copy
        // exactly when the file was mapped, never on the aligned-copy
        // fallback or the eager decode.
        let stdout = String::from_utf8_lossy(&served.stdout);
        assert_eq!(
            stdout.contains("zero-copy"),
            !extra.is_empty() && mmapio::Mmap::supported(),
            "serve {extra:?} stdout: {stdout}"
        );
    }
    // A monolithic file opens in place by import, and says so; its
    // rebuild cross-check runs against the imported canonical bytes.
    let mono = repo_path("fuzz/corpus").join("seed__ok__88b44a6bfbf11955.bin");
    let served = run(&[
        "serve",
        mono.to_str().unwrap(),
        "--in-place",
        "--epochs",
        "3",
        "--batch",
        "8",
    ]);
    ok(&served, "serve monolithic --in-place");
    let stdout = String::from_utf8_lossy(&served.stdout);
    assert!(
        stdout.contains("imported into a canonical copy"),
        "{stdout}"
    );
    assert!(!stdout.contains("zero-copy"), "{stdout}");

    // Detaching keeps working, and the result inspects as routing-only.
    ok(
        &run(&[
            "build",
            "--family",
            "complete",
            "--n",
            "7",
            "--f",
            "1",
            "--detach-witnesses",
            "--out",
            "d.vfts",
        ]),
        "build --detach-witnesses",
    );
    assert!(String::from_utf8_lossy(&run(&["inspect", "d.vfts"]).stdout)
        .contains("(witnesses-detached)"));

    // A skewed witness index fails closed across the process boundary
    // with the new stable code. The index is canonically the last
    // section and the checksum the 8-byte trailer, so the file's
    // second-to-last u64 is the final index offset: nudge it off the
    // 8-byte grid and reseal the word-wise checksum so only the index
    // is at fault.
    let mut skewed = original.clone();
    let hit = skewed.len() - 16;
    let v = u64::from_le_bytes(skewed[hit..hit + 8].try_into().unwrap());
    skewed[hit..hit + 8].copy_from_slice(&(v + 1).to_le_bytes());
    let seal = spanner_graph::io::binary::fnv1a64_words(&skewed[..skewed.len() - 8]);
    let at = skewed.len() - 8;
    skewed[at..].copy_from_slice(&seal.to_le_bytes());
    std::fs::write(dir.join("skewed.vfts"), &skewed).unwrap();
    let hostile = run(&["inspect", "skewed.vfts"]);
    assert!(!hostile.status.success());
    assert_eq!(
        code_from_stderr(&hostile.stderr).as_deref(),
        Some("artifact/witness-index"),
        "stderr: {}",
        String::from_utf8_lossy(&hostile.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_subcommand_gates_on_corpus_health() {
    // The committed corpus replays clean through the binary.
    let good = Command::new(bin())
        .arg("replay")
        .arg(repo_path("fuzz/corpus"))
        .output()
        .expect("spawn");
    assert!(
        good.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&good.stderr)
    );
    assert!(String::from_utf8_lossy(&good.stdout).contains("replay clean"));

    // A directory with a mislabeled entry fails, loudly.
    let dir = std::env::temp_dir().join(format!("artifact-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("truncation__ok__0000000000000000.bin"),
        b"not an artifact",
    )
    .unwrap();
    let bad = Command::new(bin())
        .arg("replay")
        .arg(&dir)
        .output()
        .expect("spawn");
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("MISMATCH"));
    std::fs::remove_dir_all(&dir).ok();

    // And the library-level replay agrees with the binary on the
    // committed corpus (one contract, two consumers).
    let report = replay_dir(&repo_path("fuzz/corpus"), true).unwrap();
    assert!(report.is_clean());
}
