//! The four workloads, tracing off: each is a closed loop with one caller
//! that repeats a fixed, seeded *pass* until the requested measuring time
//! has been spent. A pass sends the same requests every time, so the
//! median over passes is a statement about the program, not about which
//! inputs a faster machine happened to reach.

use crate::common::{check_oracle_case, options, oracle_cases, warm_up};
use crate::host;
use crate::inputs::{
    churn_requests, fuzz_requests, serve_requests, table1_requests, Body, Request, Scale, Workload,
};
use crate::stats::median;
use gpgpu_ast::{parse_kernel, Kernel};
use gpgpu_core::{
    compile, verify_equivalence_sanitized, CachedArtifact, CompileOptions, CompiledKernel,
};
use gpgpu_service::{CacheDisposition, CompileResponse, Engine, ServiceConfig};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One measured pass: per-request latencies in the order they were sent.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub latencies_ms: Vec<f64>,
    /// `store_churn` only: wall time of publish / restart_read /
    /// warm_recompile (engine construction included where a phase opens
    /// stores).
    pub phases_s: Vec<f64>,
}

impl Pass {
    /// Wall time of the pass: the requests' latencies (plus, for
    /// `store_churn`, opening the stores) — the harness's own checks
    /// between requests are not in it.
    pub fn wall_s(&self) -> f64 {
        if self.phases_s.is_empty() {
            self.latencies_ms.iter().sum::<f64>() / 1e3
        } else {
            self.phases_s.iter().sum()
        }
    }
}

/// Everything an untraced run observed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setups_s: Vec<f64>,
    pub passes: Vec<Pass>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the operator.
    pub failures: Vec<String>,
    /// Request ids of one pass, kept when the pass is short enough for
    /// every request to get its own row in the details (`table1_cold`).
    pub request_ids: Vec<String>,
    /// The process's peak resident set when the first pass ended. Later
    /// passes repeat the same work, but how many of them fit in the
    /// measuring time depends on the machine, and allocator fragmentation
    /// grows with their number — so the peak is read after a fixed amount
    /// of work.
    pub peak_rss_bytes: u64,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// What one pass delivered, by request id.
pub type Delivered = Vec<(String, Option<CachedArtifact>)>;

/// Repeats `setup` → `pass` until `seconds` of pass time are measured (at
/// least one pass). Compilation is deterministic, so every later pass must
/// reproduce the first pass's artifacts byte for byte; the first pass's
/// deliveries are returned.
fn measure<S>(
    seconds: f64,
    out: &mut Outcome,
    mut setup: impl FnMut() -> S,
    mut pass: impl FnMut(S, &mut Outcome) -> (Pass, Delivered),
) -> Delivered {
    let mut first: Option<Delivered> = None;
    let mut measured = 0.0;
    while first.is_none() || measured < seconds {
        let started = Instant::now();
        let state = setup();
        out.setups_s.push(started.elapsed().as_secs_f64());
        let (pass, delivered) = pass(state, out);
        measured += pass.wall_s();
        out.passes.push(pass);
        match &first {
            None => {
                out.peak_rss_bytes = host::peak_rss_bytes();
                first = Some(delivered);
            }
            Some(first) => {
                for ((id, a), (_, b)) in first.iter().zip(&delivered) {
                    if a != b {
                        out.fail(format!(
                            "{id}: pass {} delivered a different artifact",
                            out.passes.len()
                        ));
                    }
                }
            }
        }
    }
    // Set-up is timed at least three times; cheap set-ups (milliseconds)
    // are repeated further, because a median of three such samples is
    // mostly scheduler noise.
    while out.setups_s.len() < 3
        || (out.setups_s.len() < 15 && out.setups_s.iter().sum::<f64>() < 0.5)
    {
        let started = Instant::now();
        drop(black_box(setup()));
        out.setups_s.push(started.elapsed().as_secs_f64());
    }
    first.unwrap_or_default()
}

pub fn in_memory_engine() -> Engine {
    Engine::new(ServiceConfig {
        jobs: 1,
        ..ServiceConfig::default()
    })
    .expect("an in-memory engine opens no directory")
}

/// One request through the service's front door: NDJSON line in, NDJSON
/// line out.
pub fn timed_request(
    engine: &Engine,
    line: &str,
    position: usize,
) -> (CompileResponse, String, f64) {
    let started = Instant::now();
    let response = engine.handle_line(black_box(line), position);
    let rendered = response.to_json().compact();
    let ms = started.elapsed().as_secs_f64() * 1e3;
    (response, rendered, ms)
}

/// Books a response's outcome; returns what it delivered.
fn booked(
    req: &Request,
    resp: CompileResponse,
    out: &mut Outcome,
) -> (String, Option<CachedArtifact>) {
    out.attempted += 1;
    if let Some(e) = &resp.error {
        out.fail(format!("{}: {}: {}", req.id, e.class.as_str(), e.detail));
    }
    (req.id.clone(), resp.artifact)
}

/// `table1_cold` re-times requests faster than this many milliseconds …
const CHEAP_REQUEST_MS: f64 = 1_000.0;
/// … until it has this many cold samples of them.
const CHEAP_REQUEST_SAMPLES: usize = 5;

/// `table1_cold`: ten cold compiles on a fresh in-memory engine.
fn table1_cold(seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let first = measure(
        seconds,
        &mut out,
        // The oracle's inputs and host references are set-up work.
        || {
            warm_up();
            (
                table1_requests(seed, scale),
                oracle_cases(seed),
                in_memory_engine(),
            )
        },
        |(requests, _, engine), out| {
            let mut pass = Pass::default();
            let mut delivered = Vec::new();
            for (i, req) in requests.iter().enumerate() {
                let (resp, _, first_ms) = timed_request(&engine, &req.line, i);
                // A compile that takes milliseconds, timed once, is mostly
                // scheduler noise — and it weighs as much as strsm in the
                // geometric mean. Cheap requests are re-timed, cold, on
                // throwaway engines; the request's latency is the median.
                let mut samples = vec![first_ms];
                while first_ms < CHEAP_REQUEST_MS && samples.len() < CHEAP_REQUEST_SAMPLES {
                    let (again, _, ms) = timed_request(&in_memory_engine(), &req.line, i);
                    samples.push(ms);
                    if again.artifact != resp.artifact {
                        out.fail(format!("{}: a repeated cold compile differs", req.id));
                    }
                }
                pass.latencies_ms.push(median(&samples));
                delivered.push(booked(req, resp, out));
            }
            (pass, delivered)
        },
    );
    out.request_ids = first.into_iter().map(|(id, _)| id).collect();
    for case in &oracle_cases(seed) {
        if let Err(e) = check_oracle_case(case) {
            out.fail(format!("oracle: {e}"));
        }
    }
    out
}

/// `fuzz_verify`: parse → compile → sanitized differential check against
/// the naive source, per generated kernel. The check is the measured work.
fn fuzz_verify(seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    measure(
        seconds,
        &mut out,
        || {
            warm_up();
            fuzz_requests(seed, scale)
        },
        |requests, out| {
            let mut pass = Pass::default();
            let mut delivered = Vec::new();
            for req in &requests {
                let started = Instant::now();
                let result = fuzz_one(black_box(req));
                pass.latencies_ms
                    .push(started.elapsed().as_secs_f64() * 1e3);
                out.attempted += 1;
                let artifact = match result {
                    Ok((kernel, opts, compiled)) => {
                        Some(compiled.cache_artifact(&opts.fingerprint(&kernel)))
                    }
                    Err(e) => {
                        out.fail(format!("{}: {e}", req.id));
                        None
                    }
                };
                delivered.push((req.id.clone(), artifact));
            }
            (pass, delivered)
        },
    );
    out
}

/// The measured unit of `fuzz_verify`.
pub fn fuzz_one(req: &Request) -> Result<(Kernel, CompileOptions, CompiledKernel), String> {
    let Body::Kernel(source) = &req.body else {
        return Err("fuzz_verify generates single kernels".into());
    };
    let kernel = parse_kernel(source).map_err(|e| format!("parse: {e}"))?;
    let opts = options(req).with_source(source);
    let compiled = compile(&kernel, &opts).map_err(|e| format!("compile: {e}"))?;
    verify_equivalence_sanitized(&kernel, &compiled, &opts).map_err(|e| format!("verify: {e}"))?;
    Ok((kernel, opts, compiled))
}

/// A primed `serve_hot` engine: every key compiled once, its delivered
/// artifact rendered the way a response embeds it.
pub struct Primed {
    pub engine: Engine,
    pub keys: Vec<Request>,
    pub draws: Vec<usize>,
    pub artifacts: Vec<Option<CachedArtifact>>,
    /// `"artifact":{…}}` — the tail every hit's response line must end in.
    tails: Vec<String>,
    /// Priming compiles that came back as errors.
    failures: Vec<String>,
}

pub fn prime(seed: u64, scale: Scale) -> Primed {
    let (keys, draws) = serve_requests(seed, scale);
    let engine = in_memory_engine();
    let mut primed = Primed {
        engine,
        keys,
        draws,
        artifacts: Vec::new(),
        tails: Vec::new(),
        failures: Vec::new(),
    };
    for (i, key) in primed.keys.iter().enumerate() {
        let resp = primed.engine.handle_line(&key.line, i);
        if let Some(e) = &resp.error {
            primed
                .failures
                .push(format!("{}: priming: {}", key.id, e.detail));
        }
        primed.tails.push(match &resp.artifact {
            Some(a) => format!("\"artifact\":{}}}", a.to_json().compact()),
            None => String::from("\u{0}"),
        });
        primed.artifacts.push(resp.artifact);
    }
    primed
}

/// Replays `draws` against a primed engine. Every response must be a
/// memory hit whose artifact bytes equal the priming compile's.
pub fn serve_pass(primed: &mut Primed, draws: &[usize], out: &mut Outcome) -> Pass {
    for failure in primed.failures.drain(..) {
        out.fail(failure);
    }
    let mut pass = Pass::default();
    pass.latencies_ms.reserve(draws.len());
    for (i, &d) in draws.iter().enumerate() {
        let key = &primed.keys[d];
        let (resp, rendered, ms) = timed_request(&primed.engine, &key.line, i);
        pass.latencies_ms.push(ms);
        out.attempted += 1;
        if resp.cache != CacheDisposition::Memory {
            out.fail(format!("{}: served from {}", key.id, resp.cache.as_str()));
        } else if !rendered.ends_with(&primed.tails[d]) {
            out.fail(format!("{}: hit differs from the primed artifact", key.id));
        }
    }
    pass
}

/// `serve_hot`: seeded-uniform draws over keys that are all in the memory
/// cache; the compiler and the simulator never run in the measured part.
/// A fresh engine is primed for every pass, so what an engine retains per
/// request is bounded by the pass length, whatever the machine's speed.
fn serve_hot(seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    measure(
        seconds,
        &mut out,
        || prime(seed, scale),
        |mut primed, out| {
            let draws = std::mem::take(&mut primed.draws);
            let pass = serve_pass(&mut primed, &draws, out);
            let ids = primed.keys.into_iter().map(|k| k.id);
            (pass, ids.zip(primed.artifacts).collect())
        },
    );
    out
}

/// A scratch directory under the benchmark's output directory, removed on
/// drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn create(parent: &Path, label: &str) -> ScratchDir {
        let dir = parent.join(format!("tmp-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The engine configuration `store_churn` runs under: a memory cache a
/// sixteenth of the key count, both durable stores on.
pub fn churn_config(dir: &Path, keys: usize) -> ServiceConfig {
    ServiceConfig {
        jobs: 1,
        cache_entries: (keys / 16).max(1),
        cache_dir: Some(dir.join("cache")),
        tuning_dir: Some(dir.join("tuning")),
        ..ServiceConfig::default()
    }
}

/// One `store_churn` pass over `keys` in `dir`: publish every key cold on
/// `engine`, reopen the stores and replay `draws`, then lose the artifact
/// cache (but not the tuning store) and recompile everything warm-started.
/// Returns the pass and what publish delivered.
pub fn churn_pass(
    keys: &[Request],
    draws: &[usize],
    dir: &Path,
    engine: Engine,
    out: &mut Outcome,
) -> (Pass, Delivered) {
    let config = churn_config(dir, keys.len());
    let mut pass = Pass::default();
    let open = || {
        let started = Instant::now();
        let engine = Engine::new(config.clone()).expect("the scratch directory is writable");
        (engine, started.elapsed().as_secs_f64())
    };

    // publish
    let mut published = Vec::new();
    let mut phase = 0.0;
    for (i, key) in keys.iter().enumerate() {
        let (resp, _, ms) = timed_request(&engine, &key.line, i);
        pass.latencies_ms.push(ms);
        phase += ms / 1e3;
        if resp.cache != CacheDisposition::Miss {
            out.fail(format!(
                "{}: publish was served from {}",
                key.id,
                resp.cache.as_str()
            ));
        }
        published.push(booked(key, resp, out));
    }
    pass.phases_s.push(phase);
    drop(engine);

    // restart_read
    let (engine, mut phase) = open();
    for (i, &d) in draws.iter().enumerate() {
        let key = &keys[d];
        let (resp, _, ms) = timed_request(&engine, &key.line, i);
        pass.latencies_ms.push(ms);
        phase += ms / 1e3;
        let hit = resp.cache.is_hit();
        let (_, artifact) = booked(key, resp, out);
        // Degraded compiles are never persisted, so they recompile: a
        // miss is legitimate exactly for those.
        let persisted = published[d]
            .1
            .as_ref()
            .is_some_and(|a| a.degraded.is_none());
        if hit != persisted {
            out.fail(format!(
                "{}: restart_read hit={hit}, persisted={persisted}",
                key.id
            ));
        } else if artifact != published[d].1 {
            out.fail(format!(
                "{}: restart_read differs from what publish produced",
                key.id
            ));
        }
    }
    pass.phases_s.push(phase);
    drop(engine);

    // warm_recompile
    if let Err(e) = std::fs::remove_dir_all(dir.join("cache")) {
        out.fail(format!("cannot drop the artifact cache: {e}"));
    }
    let (engine, mut phase) = open();
    for (i, key) in keys.iter().enumerate() {
        let (resp, _, ms) = timed_request(&engine, &key.line, i);
        pass.latencies_ms.push(ms);
        phase += ms / 1e3;
        if resp.cache != CacheDisposition::Miss {
            out.fail(format!(
                "{}: warm_recompile was served from {}",
                key.id,
                resp.cache.as_str()
            ));
        }
        // Same winner ⇒ same source, launches and simulated time.
        if booked(key, resp, out).1 != published[i].1 {
            out.fail(format!(
                "{}: warm-started winner differs from the published one",
                key.id
            ));
        }
    }
    pass.phases_s.push(phase);
    (pass, published)
}

/// `store_churn`: writes beside reads on the durable layers.
fn store_churn(seed: u64, seconds: f64, scale: Scale, out_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut pass_no = 0;
    measure(
        seconds,
        &mut out,
        || {
            pass_no += 1;
            warm_up();
            let (keys, draws) = churn_requests(seed, scale);
            let dir = ScratchDir::create(out_dir, &format!("churn{pass_no}"));
            let engine = Engine::new(churn_config(&dir.0, keys.len()))
                .expect("the scratch directory is writable");
            (keys, draws, dir, engine)
        },
        |(keys, draws, dir, engine), out| churn_pass(&keys, &draws, &dir.0, engine, out),
    );
    out
}

/// Runs `workload` untraced.
pub fn run(workload: Workload, seed: u64, seconds: f64, scale: Scale, out_dir: &Path) -> Outcome {
    match workload {
        Workload::Table1Cold => table1_cold(seed, seconds, scale),
        Workload::FuzzVerify => fuzz_verify(seed, seconds, scale),
        Workload::ServeHot => serve_hot(seed, seconds, scale),
        Workload::StoreChurn => store_churn(seed, seconds, scale, out_dir),
    }
}
