//! Command line of the end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <build|serve-far|serve-near-churn> --seed <n>
//!          --seconds <s> --trace <0|1> [--smoke] [--work-dir <dir>]
//! ```
//!
//! Prints a human summary on stderr and, as the last line of stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Exits
//! 1 when any correctness gate failed, 2 on a usage or run error.

use std::path::PathBuf;
use std::process::ExitCode;
use vft_e2ebench::{run, Config, Scale, Workload};

const USAGE: &str = "usage: e2ebench --workload <build|serve-far|serve-near-churn> --seed <n> \
                     --seconds <s> --trace <0|1> [--smoke] [--work-dir <dir>]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut work_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            scale = Scale::Smoke;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    // Artifacts and span files go under the build's target directory.
    let work_dir = work_dir.unwrap_or_else(|| {
        std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(
                || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
                PathBuf::from,
            )
            .join("e2ebench-work")
    });
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        work_dir,
        corrupt_answer: false,
    })
}

fn host() -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "nproc={nproc} os={} {} rustc=\"{}\"",
        std::env::consts::OS,
        kernel.trim(),
        env!("E2EBENCH_RUSTC")
    )
}

/// CPU time the host took from this machine so far (`steal` in
/// `/proc/stat`, in USER_HZ ticks); host noise shows up here.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

fn main() -> ExitCode {
    let steal_before = steal_ticks();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let steal = match (steal_before, steal_ticks()) {
        (Some(a), Some(b)) => format!("{}", b.saturating_sub(a)),
        _ => "unknown".into(),
    };
    eprintln!(
        "e2ebench {} seed={} seconds={} trace={} | {} host_steal_ticks={steal}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        host()
    );
    for m in &outcome.metrics {
        eprintln!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(k, n)| format!("{k}={n}"))
        .collect();
    eprintln!("  samples: {}", samples.join(" "));
    let [low, mid, high] = outcome.slowdown;
    eprintln!(
        "  host slowdown (times are divided by it): min={low:.3} median={mid:.3} max={high:.3}"
    );
    eprintln!(
        "  attempted={} failed={} fail_frac={}",
        outcome.attempted,
        outcome.failed,
        outcome.fail_frac()
    );
    for f in &outcome.failures {
        eprintln!("  FAILED: {f}");
    }
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
