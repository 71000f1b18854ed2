//! The rig itself: drive a generated traffic schedule at an in-process
//! [`ShardedEngine`] or at the real `gpgpuc serve` binary, and fold every
//! response into a [`LoadReport`].

use crate::traffic::{generate, Mix, TrafficClass, POISON_SITE};
use gpgpu_core::trace::parse_json;
use gpgpu_core::{Histogram, Json};
use gpgpu_service::{
    CompileRequest, CompileResponse, Engine, ErrorClass, ServiceConfig, ShardConfig,
    ShardedEngine, Submitted,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Everything one rig run needs: the traffic schedule and the server
/// shape it is aimed at.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Traffic seed — same seed, same schedule, byte for byte.
    pub seed: u64,
    /// How many requests to generate.
    pub requests: usize,
    /// Open-loop interarrival gap in microseconds; 0 = submit flat out
    /// (the saturation regime).
    pub interarrival_us: u64,
    /// Deadline carried by the deadline-tight class, in milliseconds.
    pub tight_deadline_ms: u64,
    /// Relative class weights.
    pub mix: Mix,
    /// Engine shape; `queue_capacity` × `shards.shards` is the size of
    /// the front's one queue.
    pub service: ServiceConfig,
    /// Front shape: the worker-count multiplier and admission control.
    pub shards: ShardConfig,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            seed: 0x6c6f_6164, // "load"
            requests: 256,
            interarrival_us: 0,
            tight_deadline_ms: 1,
            mix: Mix::default(),
            service: ServiceConfig {
                jobs: 2,
                queue_capacity: 8,
                ..ServiceConfig::default()
            },
            shards: ShardConfig::default(),
        }
    }
}

/// Outcome counts and the latency histogram for one traffic class.
/// Latency is the server-reported `micros` (enqueue to response), so the
/// number means the same thing for both rig targets.
#[derive(Debug, Clone, Default)]
pub struct ClassStats {
    /// Requests submitted.
    pub sent: u64,
    /// Successful compiles (including cache hits).
    pub ok: u64,
    /// Shed by admission control (`overloaded`).
    pub shed: u64,
    /// Failed with the `deadline` class.
    pub deadline: u64,
    /// Structured `bad-request`/`parse` responses.
    pub bad_request: u64,
    /// Contained `internal` faults (expected only for the poisoned class).
    pub contained: u64,
    /// `compile`-class failures.
    pub compile_errors: u64,
    /// Latency histogram over every answered request, in microseconds.
    pub latency: Histogram,
}

impl ClassStats {
    /// Responses received (every outcome bucket).
    pub fn answered(&self) -> u64 {
        self.ok + self.shed + self.deadline + self.bad_request + self.contained
            + self.compile_errors
    }

    fn record(&mut self, class: Option<ErrorClass>, micros: u64) {
        match class {
            None => self.ok += 1,
            Some(ErrorClass::Overloaded) => self.shed += 1,
            Some(ErrorClass::Deadline) => self.deadline += 1,
            Some(ErrorClass::BadRequest) | Some(ErrorClass::Parse) => self.bad_request += 1,
            Some(ErrorClass::Internal) => self.contained += 1,
            Some(ErrorClass::Compile) => self.compile_errors += 1,
        }
        self.latency.record(micros);
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("sent", Json::count(self.sent)),
            ("ok", Json::count(self.ok)),
            ("shed", Json::count(self.shed)),
            ("deadline", Json::count(self.deadline)),
            ("bad_request", Json::count(self.bad_request)),
            ("contained", Json::count(self.contained)),
            ("compile_errors", Json::count(self.compile_errors)),
            ("latency", self.latency.to_json()),
        ])
    }
}

/// What one rig run observed, per class and in aggregate — the document
/// CI's `load-smoke` job gates on.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// `"in-process"` or `"serve-binary"`.
    pub mode: &'static str,
    /// The traffic seed the run used.
    pub seed: u64,
    /// Wall-clock for the whole run.
    pub duration: Duration,
    /// Per-class outcome counts, in [`TrafficClass::ALL`] order.
    pub classes: Vec<(TrafficClass, ClassStats)>,
    /// `internal` faults observed on a class other than
    /// [`TrafficClass::Poisoned`] — a poisoned request corrupted a
    /// neighbor. Must be zero.
    pub cross_request_faults: u64,
    /// `overloaded` responses that did not carry `retry_after_ms`.
    pub sheds_missing_hint: u64,
    /// Requests that never got a response.
    pub missing: u64,
    /// Ids answered more than once.
    pub duplicates: u64,
    /// Responses whose id was never submitted (or did not match the id
    /// the submission carried).
    pub unexpected: u64,
    /// The child's exit code, for the serve-binary target (`None`
    /// in-process, or when the child was killed by a signal).
    pub exit_code: Option<i32>,
    /// The engine's live telemetry snapshot (in-process target only).
    pub stats: Option<Json>,
}

impl LoadReport {
    /// Counts for one class.
    pub fn class(&self, class: TrafficClass) -> &ClassStats {
        // `classes` always holds every variant, in ALL order.
        &self.classes[TrafficClass::ALL
            .iter()
            .position(|c| *c == class)
            .unwrap_or(0)]
        .1
    }

    /// Total requests submitted.
    pub fn sent(&self) -> u64 {
        self.classes.iter().map(|(_, s)| s.sent).sum()
    }

    /// Total responses shed as `overloaded`.
    pub fn sheds(&self) -> u64 {
        self.classes.iter().map(|(_, s)| s.shed).sum()
    }

    /// True when the run kept every robustness invariant: nothing lost,
    /// nothing duplicated, every shed carried its hint, and no fault
    /// crossed a request boundary.
    pub fn clean(&self) -> bool {
        self.cross_request_faults == 0
            && self.missing == 0
            && self.duplicates == 0
            && self.unexpected == 0
            && self.sheds_missing_hint == 0
            && self.exit_code.unwrap_or(0) == 0
    }

    /// The report as a JSON object (the per-run entry in
    /// `BENCH_serve.json`).
    pub fn to_json(&self) -> Json {
        let sent = self.sent();
        let sheds = self.sheds();
        let mut fields = vec![
            ("mode", Json::str(self.mode)),
            ("seed", Json::count(self.seed)),
            ("duration_ms", Json::num(self.duration.as_secs_f64() * 1e3)),
            (
                "totals",
                Json::obj(vec![
                    ("sent", Json::count(sent)),
                    (
                        "answered",
                        Json::count(self.classes.iter().map(|(_, s)| s.answered()).sum()),
                    ),
                    (
                        "ok",
                        Json::count(self.classes.iter().map(|(_, s)| s.ok).sum()),
                    ),
                    ("shed", Json::count(sheds)),
                    (
                        "shed_rate",
                        Json::num(if sent == 0 {
                            0.0
                        } else {
                            sheds as f64 / sent as f64
                        }),
                    ),
                    ("sheds_missing_hint", Json::count(self.sheds_missing_hint)),
                    (
                        "cross_request_faults",
                        Json::count(self.cross_request_faults),
                    ),
                    ("missing", Json::count(self.missing)),
                    ("duplicates", Json::count(self.duplicates)),
                    ("unexpected", Json::count(self.unexpected)),
                ]),
            ),
            (
                "classes",
                Json::obj(
                    self.classes
                        .iter()
                        .map(|(c, s)| (c.as_str(), s.to_json()))
                        .collect::<Vec<_>>(),
                ),
            ),
        ];
        if let Some(code) = self.exit_code {
            fields.push(("exit_code", Json::num(code as f64)));
        }
        if let Some(stats) = &self.stats {
            fields.push(("stats", stats.clone()));
        }
        Json::obj(fields)
    }
}

/// Folds responses into per-class stats and the cross-cutting invariant
/// counters.
struct Collector {
    classes: Vec<(TrafficClass, ClassStats)>,
    cross_request_faults: u64,
    sheds_missing_hint: u64,
    missing: u64,
    duplicates: u64,
    unexpected: u64,
}

impl Collector {
    fn new() -> Collector {
        Collector {
            classes: TrafficClass::ALL
                .iter()
                .map(|c| (*c, ClassStats::default()))
                .collect(),
            cross_request_faults: 0,
            sheds_missing_hint: 0,
            missing: 0,
            duplicates: 0,
            unexpected: 0,
        }
    }

    fn stats_mut(&mut self, class: TrafficClass) -> &mut ClassStats {
        let idx = TrafficClass::ALL
            .iter()
            .position(|c| *c == class)
            .unwrap_or(0);
        &mut self.classes[idx].1
    }

    fn record(&mut self, class: TrafficClass, error: Option<ErrorClass>, hint: Option<u64>, micros: u64) {
        if error == Some(ErrorClass::Internal) && class != TrafficClass::Poisoned {
            self.cross_request_faults += 1;
        }
        if error == Some(ErrorClass::Overloaded) && hint.is_none() {
            self.sheds_missing_hint += 1;
        }
        self.stats_mut(class).record(error, micros);
    }

    fn record_response(&mut self, class: TrafficClass, resp: &CompileResponse) {
        let error = resp.error.as_ref().map(|e| e.class);
        self.record(class, error, resp.retry_after_ms(), resp.micros);
    }

    fn finish(
        self,
        mode: &'static str,
        seed: u64,
        duration: Duration,
        exit_code: Option<i32>,
        stats: Option<Json>,
    ) -> LoadReport {
        LoadReport {
            mode,
            seed,
            duration,
            classes: self.classes,
            cross_request_faults: self.cross_request_faults,
            sheds_missing_hint: self.sheds_missing_hint,
            missing: self.missing,
            duplicates: self.duplicates,
            unexpected: self.unexpected,
            exit_code,
            stats,
        }
    }
}

/// Serializes in-process poison runs: the armed-fault state is
/// process-global, so two concurrent rigs (or a rig and another fault
/// test in the same binary) must not interleave arm/disarm.
static POISON_GATE: Mutex<()> = Mutex::new(());

struct PoisonGuard(Option<MutexGuard<'static, ()>>);

impl Drop for PoisonGuard {
    fn drop(&mut self) {
        if self.0.is_some() {
            gpgpu_core::fault::disarm();
        }
    }
}

fn arm_poison(wanted: bool) -> PoisonGuard {
    if !wanted {
        return PoisonGuard(None);
    }
    let gate = POISON_GATE.lock().unwrap_or_else(|p| p.into_inner());
    gpgpu_core::fault::arm_panic(POISON_SITE);
    PoisonGuard(Some(gate))
}

/// Sleeps until request `i`'s open-loop arrival time. Arrivals are fixed
/// by the clock, never by completions — when the server falls behind, the
/// schedule does not.
fn pace(started: Instant, i: usize, interarrival_us: u64) {
    if interarrival_us == 0 {
        return;
    }
    let due = Duration::from_micros(interarrival_us.saturating_mul(i as u64));
    let elapsed = started.elapsed();
    if elapsed < due {
        std::thread::sleep(due - elapsed);
    }
}

/// Runs the schedule against an in-process [`ShardedEngine`] sharing one
/// engine (and its cache), exactly as `gpgpuc serve` wires it.
///
/// When the mix includes poisoned traffic the rig arms the
/// [`POISON_SITE`] panic for the duration of the run (a no-op unless the
/// `gpgpu-core/fault-inject` feature is compiled in, as it is for
/// workspace test builds).
///
/// # Errors
///
/// Returns the engine construction error (cache directory I/O) as text.
pub fn run_in_process(cfg: &LoadConfig) -> Result<LoadReport, String> {
    let items = generate(cfg.seed, cfg.requests, cfg.mix, cfg.tight_deadline_ms);
    let engine = Arc::new(Engine::new(cfg.service.clone()).map_err(|e| e.to_string())?);
    let server = ShardedEngine::start(Arc::clone(&engine), cfg.shards.clone());
    let _poison = arm_poison(cfg.mix.poisoned > 0);

    let started = Instant::now();
    let mut collector = Collector::new();
    let mut pending = Vec::new();
    for (i, item) in items.iter().enumerate() {
        pace(started, i, cfg.interarrival_us);
        collector.stats_mut(item.class).sent += 1;
        let parsed = CompileRequest::parse(&item.line, i).and_then(|mut req| {
            req.resolve_file()?;
            Ok(req)
        });
        match parsed {
            // Malformed lines take the same path `serve` gives them: the
            // engine answers synchronously with a structured bad-request.
            Err(_) => {
                let resp = engine.handle_line(&item.line, i);
                collector.record_response(item.class, &resp);
            }
            Ok(req) => match server.submit(req, Instant::now()) {
                Submitted::Rejected(resp) => collector.record_response(item.class, &resp),
                Submitted::Queued(rx) => pending.push((item.class, item.id.clone(), rx)),
            },
        }
    }
    for (class, id, rx) in pending {
        match rx.recv() {
            Ok(resp) => {
                if resp.id != id {
                    collector.unexpected += 1;
                }
                collector.record_response(class, &resp);
            }
            Err(_) => collector.missing += 1,
        }
    }
    let stats = server.stats_json();
    server.shutdown(None);
    Ok(collector.finish("in-process", cfg.seed, started.elapsed(), None, Some(stats)))
}

/// Runs the schedule against the real `serve` binary over stdin/stdout
/// (`--unordered`, so responses stream as they land and the reader
/// stitches them back by id). The child gets `GPGPU_FAULT` armed at
/// [`POISON_SITE`]; poison only fires when the binary was built with
/// `--features gpgpu-core/fault-inject`.
///
/// # Errors
///
/// Returns spawn/pipe failures as text. Protocol-level trouble (lost or
/// duplicate responses, nonzero exit) is *data*, reported in the
/// [`LoadReport`], not an error.
pub fn run_serve_binary(cfg: &LoadConfig, binary: &std::path::Path) -> Result<LoadReport, String> {
    let items = generate(cfg.seed, cfg.requests, cfg.mix, cfg.tight_deadline_ms);
    // The wire id each line will come back under: the embedded id when
    // the line parses, the stream position when it does not (`serve`
    // falls back to the position for unparseable lines).
    let mut expected: HashMap<String, TrafficClass> = HashMap::new();
    for (i, item) in items.iter().enumerate() {
        let wire_id = match CompileRequest::parse(&item.line, i) {
            Ok(req) => req.id,
            Err(_) => i.to_string(),
        };
        expected.insert(wire_id, item.class);
    }

    let workers = cfg.shards.shards.max(1) * cfg.shards.workers_per_shard.max(1);
    let mut child = std::process::Command::new(binary)
        .args([
            "serve",
            "--unordered",
            "--shards",
            &cfg.shards.shards.max(1).to_string(),
            "--jobs",
            &workers.to_string(),
            "--queue",
            &cfg.service.queue_capacity.to_string(),
            "--admission-watermark",
            &format!("{}", cfg.shards.admission_watermark),
            "--admission-wait-ms",
            &cfg.shards.admission_wait_ms.to_string(),
        ])
        .env("GPGPU_FAULT", format!("panic:{POISON_SITE}"))
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
    let Some(mut stdin) = child.stdin.take() else {
        return Err("child stdin was not piped".into());
    };
    let Some(stdout) = child.stdout.take() else {
        return Err("child stdout was not piped".into());
    };

    let started = Instant::now();
    let interarrival = cfg.interarrival_us;
    // Writer thread paces the open-loop schedule; the main thread reads
    // responses concurrently so neither pipe ever fills up and stalls.
    let writer = std::thread::spawn(move || {
        let w_started = Instant::now();
        for (i, item) in items.iter().enumerate() {
            pace(w_started, i, interarrival);
            if writeln!(stdin, "{}", item.line).is_err() {
                break; // Child died; the reader will see EOF and report.
            }
        }
        // Dropping stdin is the EOF that triggers graceful drain.
    });

    let mut collector = Collector::new();
    for (_, class) in expected.iter() {
        collector.stats_mut(*class).sent += 1;
    }
    let mut answered: HashMap<String, u32> = HashMap::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("cannot read child stdout: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let Ok(doc) = parse_json(&line) else {
            collector.unexpected += 1;
            continue;
        };
        let Some(id) = doc.get("id").and_then(Json::as_str).map(str::to_string) else {
            collector.unexpected += 1;
            continue;
        };
        let Some(class) = expected.get(&id).copied() else {
            collector.unexpected += 1;
            continue;
        };
        let seen = answered.entry(id).or_insert(0);
        *seen += 1;
        if *seen > 1 {
            collector.duplicates += 1;
            continue;
        }
        let micros = doc.get("micros").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let error = doc.get("error").and_then(|e| e.get("class")).and_then(Json::as_str);
        let error = error.map(|name| match name {
            "bad-request" => ErrorClass::BadRequest,
            "parse" => ErrorClass::Parse,
            "compile" => ErrorClass::Compile,
            "deadline" => ErrorClass::Deadline,
            "overloaded" => ErrorClass::Overloaded,
            _ => ErrorClass::Internal,
        });
        let hint = doc
            .get("error")
            .and_then(|e| e.get("retry_after_ms"))
            .and_then(Json::as_f64)
            .map(|v| v as u64);
        collector.record(class, error, hint, micros);
    }
    let _ = writer.join();
    let status = child
        .wait()
        .map_err(|e| format!("cannot reap child: {e}"))?;
    collector.missing = expected
        .keys()
        .filter(|id| !answered.contains_key(*id))
        .count() as u64;
    Ok(collector.finish(
        "serve-binary",
        cfg.seed,
        started.elapsed(),
        status.code(),
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> LoadConfig {
        LoadConfig {
            requests: 48,
            ..LoadConfig::default()
        }
    }

    #[test]
    fn every_request_resolves_exactly_once() {
        let report = run_in_process(&quick_config()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(report.sent(), 48);
        assert_eq!(report.missing, 0, "{report:?}");
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.unexpected, 0);
        assert_eq!(report.sheds_missing_hint, 0);
        let answered: u64 = report.classes.iter().map(|(_, s)| s.answered()).sum();
        assert_eq!(answered, 48);
    }

    #[test]
    fn reports_carry_per_class_percentiles() {
        let report = run_in_process(&quick_config()).unwrap_or_else(|e| panic!("{e}"));
        let doc = report.to_json();
        for class in TrafficClass::ALL {
            let lat = doc
                .get("classes")
                .and_then(|c| c.get(class.as_str()))
                .and_then(|c| c.get("latency"))
                .unwrap_or_else(|| panic!("no latency for {class:?}"));
            for key in ["count", "p50_us", "p99_us"] {
                assert!(lat.get(key).is_some(), "{class:?} latency missing {key}");
            }
        }
        // The JSON round-trips through the in-repo parser.
        assert_eq!(
            parse_json(&doc.compact()).unwrap_or_else(|e| panic!("{e:?}")),
            doc
        );
    }

    #[test]
    fn saturation_sheds_but_never_strands_a_request() {
        let cfg = LoadConfig {
            requests: 96,
            mix: Mix {
                hot: 1,
                cold: 8,
                malformed: 0,
                deadline_tight: 0,
                poisoned: 0,
            },
            service: ServiceConfig {
                jobs: 1,
                queue_capacity: 2,
                ..ServiceConfig::default()
            },
            shards: ShardConfig {
                shards: 1,
                workers_per_shard: 1,
                admission_wait_ms: 2,
                ..ShardConfig::default()
            },
            ..LoadConfig::default()
        };
        let report = run_in_process(&cfg).unwrap_or_else(|e| panic!("{e}"));
        assert!(report.sheds() > 0, "96 cold compiles into a 2-deep queue never shed");
        assert_eq!(report.missing + report.duplicates + report.unexpected, 0);
        assert_eq!(report.sheds_missing_hint, 0, "a shed lost its retry hint");
        assert_eq!(report.cross_request_faults, 0);
    }
}
