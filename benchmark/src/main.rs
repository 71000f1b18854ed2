//! `gpgpu-benchmark`: the repository's one benchmark — four workloads,
//! end-to-end numbers with tracing off, per-layer numbers with it on.
//! `README.md` beside this crate's manifest has the tables.
//!
//! ```text
//! gpgpu-benchmark --seed 11                        every workload, both ways, result file
//! gpgpu-benchmark --workload serve_hot --traced    one workload, traced run only
//! gpgpu-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                                  one in-process run (what BENCHMARK.json's
//!                                                  command drives); result line last
//! gpgpu-benchmark --emit-workload W --seed N       the NDJSON manifest of one pass
//! gpgpu-benchmark --compare a.json b.json          verdicts under BENCHMARK.json's bounds
//! ```

mod common;
mod compare;
mod host;
mod inputs;
mod layers;
mod orchestrate;
mod report;
mod rng;
mod stats;
mod traced;
mod workloads;

use gpgpu_trace::Json;
use inputs::{Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: gpgpu-benchmark [--seed N] [--seconds S] [--workload NAME] [--traced] \
[--runs N] [--smoke] [--out FILE] [--out-dir DIR] [--trace 0|1] \
| --emit-workload NAME | --compare A.json B.json [--bounds BENCHMARK.json]";

struct Args {
    seed: u64,
    seconds: f64,
    workload: Option<Workload>,
    /// `--trace 0|1`: a single in-process run.
    trace: Option<bool>,
    traced_only: bool,
    runs: usize,
    smoke: bool,
    out_dir: PathBuf,
    out_file: Option<PathBuf>,
    emit: Option<Workload>,
    compare: Option<(PathBuf, PathBuf)>,
    bounds: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut args = Args {
        seed: 11,
        seconds: 20.0,
        workload: None,
        trace: None,
        traced_only: false,
        runs: 1,
        smoke: false,
        out_dir: manifest_dir.join("out"),
        out_file: None,
        emit: None,
        compare: None,
        bounds: manifest_dir.join("..").join("BENCHMARK.json"),
    };
    let mut it = argv.iter();
    let workload = |name: &str| {
        Workload::parse(name).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!(
                "unknown workload `{name}` (workloads: {})",
                names.join(", ")
            )
        })
    };
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&args.seconds) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--workload" => args.workload = Some(workload(value()?)?),
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--traced" => args.traced_only = true,
            "--runs" => {
                args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&args.runs) {
                    return Err("--runs must be between 1 and 100".into());
                }
            }
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--out" => args.out_file = Some(PathBuf::from(value()?)),
            "--emit-workload" => args.emit = Some(workload(value()?)?),
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--bounds" => args.bounds = PathBuf::from(value()?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// One in-process run of one workload: diagnostics on stderr, a details
/// line and then the result line on stdout.
fn single_run(args: &Args, workload: Workload, trace: bool) -> Result<bool, String> {
    host::assert_no_fault_injection();
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let scale = Scale { smoke: args.smoke };
    let (attempted, failed, failures, values, details) = if trace {
        let t = layers::run(workload, args.seed, scale, &args.out_dir);
        (t.attempted, t.failed, t.failures, t.values, Json::Null)
    } else {
        let out = workloads::run(workload, args.seed, args.seconds, scale, &args.out_dir);
        let values = report::end_to_end(&out);
        let details = report::details(&out);
        (out.attempted, out.failed, out.failures, values, details)
    };
    for failure in &failures {
        eprintln!("{}: FAILED: {failure}", workload.name());
    }
    let failures = Json::Arr(failures.iter().map(Json::str).collect());
    println!(
        "{}",
        Json::obj([(
            "details",
            Json::obj([("failures", failures), ("untraced", details)])
        )])
        .compact()
    );
    let correct = failed == 0 && attempted > 0;
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &values)
    );
    Ok(correct)
}

fn run(args: Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b, &args.bounds);
    }
    let scale = Scale { smoke: args.smoke };
    if let Some(workload) = args.emit {
        for line in inputs::manifest(workload, args.seed, scale) {
            println!("{line}");
        }
        return Ok(true);
    }
    if let Some(trace) = args.trace {
        let workload = args.workload.ok_or("--trace needs --workload")?;
        return single_run(&args, workload, trace);
    }
    orchestrate::run(&orchestrate::Plan {
        workloads: args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]),
        seed: args.seed,
        seconds: args.seconds,
        scale,
        runs: args.runs,
        untraced: !args.traced_only,
        result_file: args
            .out_file
            .clone()
            .unwrap_or_else(|| args.out_dir.join(format!("results-seed{}.json", args.seed))),
        out_dir: args.out_dir,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("gpgpu-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
