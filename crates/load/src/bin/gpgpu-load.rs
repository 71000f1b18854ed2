//! `gpgpu-load` — the serve-under-fire CLI.
//!
//! Runs the seeded open-loop chaos mix against the in-process engine
//! front and (with `--serve PATH`) the real `gpgpuc serve` binary, prints
//! a per-class outcome table, and writes the `BENCH_serve.json` snapshot
//! the CI `load-smoke` job asserts against.
//!
//! ```text
//! gpgpu-load [--seed N] [--requests N] [--interarrival-us N]
//!            [--shards N] [--workers N] [--queue N] [--watermark F]
//!            [--mix HOT,COLD,MALFORMED,TIGHT,POISONED]
//!            [--tight-deadline-ms N] [--serve PATH] [--skip-in-process]
//!            [--out BENCH_serve.json]
//! ```
//!
//! Exits 1 when any run breaks a robustness invariant (a lost or
//! duplicated response, a shed without its `retry_after_ms` hint, a fault
//! that crossed a request boundary, or a nonzero serve exit).

use gpgpu_core::Json;
use gpgpu_load::{run_in_process, run_serve_binary, LoadConfig, LoadReport, Mix};
use std::process::ExitCode;

struct Args {
    cfg: LoadConfig,
    serve: Option<std::path::PathBuf>,
    skip_in_process: bool,
    out: std::path::PathBuf,
}

fn parse_mix(value: &str) -> Result<Mix, String> {
    let parts: Vec<&str> = value.split(',').collect();
    if parts.len() != 5 {
        return Err(format!(
            "--mix wants five comma-separated weights (hot,cold,malformed,tight,poisoned), got `{value}`"
        ));
    }
    let mut w = [0u32; 5];
    for (slot, part) in w.iter_mut().zip(&parts) {
        *slot = part
            .trim()
            .parse::<u32>()
            .map_err(|_| format!("--mix weight `{part}` is not an integer"))?;
    }
    if w.iter().all(|&x| x == 0) {
        return Err("--mix needs at least one nonzero weight".into());
    }
    Ok(Mix {
        hot: w[0],
        cold: w[1],
        malformed: w[2],
        deadline_tight: w[3],
        poisoned: w[4],
    })
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: LoadConfig::default(),
        serve: None,
        skip_in_process: false,
        out: std::path::PathBuf::from("BENCH_serve.json"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let mut workers: Option<usize> = None;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || -> Result<&str, String> {
            i += 1;
            argv.get(i)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} wants a value"))
        };
        match flag {
            "--seed" => {
                args.cfg.seed = value()?
                    .parse()
                    .map_err(|_| "--seed wants an integer".to_string())?;
            }
            "--requests" => {
                args.cfg.requests = value()?
                    .parse()
                    .map_err(|_| "--requests wants an integer".to_string())?;
            }
            "--interarrival-us" => {
                args.cfg.interarrival_us = value()?
                    .parse()
                    .map_err(|_| "--interarrival-us wants an integer".to_string())?;
            }
            "--tight-deadline-ms" => {
                args.cfg.tight_deadline_ms = value()?
                    .parse()
                    .map_err(|_| "--tight-deadline-ms wants an integer".to_string())?;
            }
            "--mix" => args.cfg.mix = parse_mix(value()?)?,
            "--shards" => {
                args.cfg.shards.shards = value()?
                    .parse::<usize>()
                    .map_err(|_| "--shards wants an integer".to_string())?
                    .max(1);
            }
            "--workers" => {
                workers = Some(
                    value()?
                        .parse::<usize>()
                        .map_err(|_| "--workers wants an integer".to_string())?
                        .max(1),
                );
            }
            "--queue" => {
                args.cfg.service.queue_capacity = value()?
                    .parse::<usize>()
                    .map_err(|_| "--queue wants an integer".to_string())?
                    .max(1);
            }
            "--watermark" => {
                let v: f64 = value()?
                    .parse()
                    .map_err(|_| "--watermark wants a fraction".to_string())?;
                if !(0.0..=1.0).contains(&v) {
                    return Err("--watermark must be in [0, 1]".into());
                }
                args.cfg.shards.admission_watermark = v;
            }
            "--serve" => args.serve = Some(std::path::PathBuf::from(value()?)),
            "--skip-in-process" => args.skip_in_process = true,
            "--out" => args.out = std::path::PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    if let Some(w) = workers {
        args.cfg.shards.workers_per_shard = w;
    }
    args.cfg.service.jobs = args.cfg.shards.shards * args.cfg.shards.workers_per_shard;
    if args.skip_in_process && args.serve.is_none() {
        return Err("--skip-in-process without --serve leaves nothing to run".into());
    }
    Ok(args)
}

fn print_report(report: &LoadReport) {
    println!(
        "\n[{}] {} requests in {:.1} ms ({} shed, {} cross-request faults)",
        report.mode,
        report.sent(),
        report.duration.as_secs_f64() * 1e3,
        report.sheds(),
        report.cross_request_faults,
    );
    println!(
        "{:<16} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>10} {:>10}",
        "class", "sent", "ok", "shed", "ddl", "bad", "fault", "p50 µs", "p99 µs"
    );
    for (class, s) in &report.classes {
        println!(
            "{:<16} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>10} {:>10}",
            class.as_str(),
            s.sent,
            s.ok,
            s.shed,
            s.deadline,
            s.bad_request,
            s.contained,
            s.latency.percentile(50.0),
            s.latency.percentile(99.0),
        );
    }
    if !report.clean() {
        println!(
            "INVARIANT VIOLATION: missing={} duplicates={} unexpected={} \
             sheds_missing_hint={} cross_request_faults={} exit_code={:?}",
            report.missing,
            report.duplicates,
            report.unexpected,
            report.sheds_missing_hint,
            report.cross_request_faults,
            report.exit_code,
        );
    }
}

fn main() -> ExitCode {
    // Injected faults are *traffic* here — the engine contains each one —
    // so keep their panic messages out of the log. Anything else still
    // reports through the default hook.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("injected fault") {
            default_hook(info);
        }
    }));
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gpgpu-load: {e}");
            return ExitCode::from(64);
        }
    };
    let mut runs: Vec<LoadReport> = Vec::new();
    if !args.skip_in_process {
        match run_in_process(&args.cfg) {
            Ok(report) => runs.push(report),
            Err(e) => {
                eprintln!("gpgpu-load: in-process run failed: {e}");
                return ExitCode::from(70);
            }
        }
    }
    if let Some(binary) = &args.serve {
        match run_serve_binary(&args.cfg, binary) {
            Ok(report) => runs.push(report),
            Err(e) => {
                eprintln!("gpgpu-load: serve-binary run failed: {e}");
                return ExitCode::from(70);
            }
        }
    }
    for report in &runs {
        print_report(report);
    }

    let mix = args.cfg.mix;
    let doc = Json::obj(vec![
        ("schema", Json::str(gpgpu_core::trace::SCHEMA)),
        ("figure", Json::str("serve-load")),
        (
            "description",
            Json::str(
                "seeded open-loop chaos mix (hot/cold/malformed/deadline-tight/poisoned) \
                 against the sharded compile service",
            ),
        ),
        ("seed", Json::count(args.cfg.seed)),
        ("requests", Json::count(args.cfg.requests as u64)),
        (
            "interarrival_us",
            Json::count(args.cfg.interarrival_us),
        ),
        (
            "config",
            Json::obj(vec![
                ("shards", Json::count(args.cfg.shards.shards as u64)),
                (
                    "workers_per_shard",
                    Json::count(args.cfg.shards.workers_per_shard as u64),
                ),
                (
                    "queue_capacity",
                    Json::count(args.cfg.service.queue_capacity as u64),
                ),
                (
                    "admission_watermark",
                    Json::num(args.cfg.shards.admission_watermark),
                ),
                (
                    "tight_deadline_ms",
                    Json::count(args.cfg.tight_deadline_ms),
                ),
                (
                    "mix",
                    Json::obj(vec![
                        ("hot", Json::count(mix.hot as u64)),
                        ("cold", Json::count(mix.cold as u64)),
                        ("malformed", Json::count(mix.malformed as u64)),
                        ("deadline_tight", Json::count(mix.deadline_tight as u64)),
                        ("poisoned", Json::count(mix.poisoned as u64)),
                    ]),
                ),
            ]),
        ),
        (
            "runs",
            Json::Arr(runs.iter().map(LoadReport::to_json).collect()),
        ),
    ]);
    match std::fs::write(&args.out, doc.pretty()) {
        Ok(()) => println!("\nwrote {}", args.out.display()),
        Err(e) => {
            eprintln!("gpgpu-load: cannot write {}: {e}", args.out.display());
            return ExitCode::from(74);
        }
    }

    if runs.iter().all(LoadReport::clean) {
        ExitCode::SUCCESS
    } else {
        eprintln!("gpgpu-load: robustness invariant violated (see table above)");
        ExitCode::FAILURE
    }
}
