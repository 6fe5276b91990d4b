//! End-to-end benchmark of the ICC node stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload tcp4_wal_open --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads:
//!
//! * `tcp4_wal_open` — n = 4 over localhost TCP, per-commit-fsync WAL,
//!   open loop of 64 B commands;
//! * `tcp4_bulk_closed` — the same cluster with the in-memory store, a
//!   closed loop keeping 1000 commands of 1 KiB outstanding;
//! * `sim250_routed_churn` — the deterministic simulator, n = 250 on the
//!   routed overlay, δ = 10 ms, one node down for 2 sim-seconds.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones, and writes the recorded spans to `e2ebench/out/`. Every run
//! checks the outputs (chain agreement, no command committed twice,
//! f+1 commits or a counted failure, sim safety and determinism) and
//! prints a provenance line. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`.

mod cmd;
mod codec;
mod heap;
mod probe;
mod report;
mod sim;
mod stats;
mod tcp;

use report::Metrics;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tcp::{Load, TcpWorkload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const TCP4_WAL_OPEN: TcpWorkload = TcpWorkload {
    name: "tcp4_wal_open",
    wal: true,
    load: Load::Open { per_s: 500 },
    cmd_bytes: 64,
};

const TCP4_BULK_CLOSED: TcpWorkload = TcpWorkload {
    name: "tcp4_bulk_closed",
    wal: false,
    load: Load::Closed { window: 1000 },
    cmd_bytes: 1024,
};

/// What a workload run produced.
pub struct Outcome {
    /// Failed correctness checks; any makes the result incorrect.
    pub errors: Vec<String>,
    /// Measured commands.
    pub attempted: usize,
    /// Measured commands that did not reach f+1 commits.
    pub failed: usize,
    /// The metrics of the run's set.
    pub metrics: Metrics,
}

/// Where a traced run writes its spans: one file per workload, which
/// the next traced run of that workload replaces.
pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("trace-{workload}.json"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {val}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() || a.seconds == 0 {
        return Err("usage: --workload NAME --seed N --seconds S [--trace 0|1]".into());
    }
    Ok(a)
}

/// A digest of the sources the benchmark builds from (the repository's
/// crates and the benchmark itself), so a result names its code even
/// outside a git checkout.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    walk(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("src"),
        &mut files,
    );
    files.sort();
    let mut h = icc_crypto::Sha256::new();
    for f in &files {
        h.update(
            f.strip_prefix(&root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        h.update(std::fs::read(f).unwrap_or_default());
    }
    h.finalize().to_string()
}

/// The git revision when run from a git checkout.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("none".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (settings, result) = match args.workload.as_str() {
        "tcp4_wal_open" => (
            TCP4_WAL_OPEN.settings(),
            tcp::run(&TCP4_WAL_OPEN, args.seed, args.seconds, args.trace),
        ),
        "tcp4_bulk_closed" => (
            TCP4_BULK_CLOSED.settings(),
            tcp::run(&TCP4_BULK_CLOSED, args.seed, args.seconds, args.trace),
        ),
        "sim250_routed_churn" => (
            sim::settings(),
            sim::run(args.seed, args.seconds, args.trace),
        ),
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let (outcome, runs) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "provenance {{\"git_rev\":\"{}\",\"source_sha256\":\"{}\",\"nproc\":{nproc},\
         \"workload\":\"{}\",\"seed\":{},\"traced\":{},\"seconds\":{},\"runs\":{runs},\
         \"settings\":{settings}}}",
        git_rev(),
        source_digest(),
        args.workload,
        args.seed,
        args.trace,
        args.seconds,
    );
    for e in &outcome.errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{}",
        report::result_line(
            correct,
            outcome.attempted,
            outcome.failed,
            args.trace,
            &outcome.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
