//! `gpgpuc` — the source-to-source GPGPU optimizing compiler, as a CLI.
//!
//! ```text
//! gpgpuc [OPTIONS] <kernel.cu>...    # or `-` for stdin
//! gpgpuc profile <kernel.cu | -> [--top <n>] [--machine <m>]
//!                [--bind <name>=<value>]...
//! gpgpuc fuse [OPTIONS] <producer.cu> <consumer.cu>
//! gpgpuc validate [--cost-model <analytic|hierarchy>]
//! gpgpuc fuzz [--seed <u64>] [--iters <n>] [--pairs <n>] [--machine <m>]
//!             [--inject <slug>] [--trace-json <path>]
//! gpgpuc reduce <repro.cu> [--budget <n>]
//! gpgpuc batch <manifest.ndjson | -> [--jobs <n>] [--queue <n>]
//!              [--shards <n>] [--cache-dir <dir>] [--cache-entries <n>]
//!              [--tuning-dir <dir>] [--no-warm-start]
//!              [--deadline-ms <n>] [--cost-model <m>]
//!              [--metrics <path>] [--trace-json <path>]
//! gpgpuc serve [--jobs <n>] [--queue <n>] [--shards <n>]
//!              [--admission-watermark <f>] [--admission-wait-ms <n>]
//!              [--unordered] [--drain-timeout-ms <n>]
//!              [--cache-dir <dir>] [--cache-entries <n>]
//!              [--tuning-dir <dir>] [--no-warm-start]
//!              [--deadline-ms <n>] [--cost-model <m>]
//!              [--metrics <path>] [--trace-json <path>]
//!
//! OPTIONS
//!   --machine <gtx8800|gtx280|hd5870>   target GPU          [gtx280]
//!   --cost-model <analytic|hierarchy>   timing model used to rank
//!                                       candidates           [analytic]
//!   --bind <name>=<value>               bind a size symbol  (repeatable)
//!   --tuning-dir <dir>                  persist per-shape autotuning
//!                                       results across runs; later
//!                                       compiles of the same kernel shape
//!                                       warm-start the design-space search
//!                                       from the best known configuration
//!   --no-warm-start                     record tuning results but always
//!                                       run the full design-space search
//!                                       (requires --tuning-dir)
//!   --cuda-names                        emit threadIdx.x-style ids
//!   --no-<stage>                        disable a stage: fusion, vectorize,
//!                                       coalesce, merge, prefetch, partition
//!   --list-passes                       print the registered pass table
//!                                       (name, paper section, stage) and exit
//!   --report                            print the pass log, design-space
//!                                       sweep, counter summary and
//!                                       performance prediction
//!   --metrics                           print the per-candidate simulator
//!                                       counter table
//!   --trace-json <path>                 write the full gpgpu-trace/v2
//!                                       JSON document (events, pass
//!                                       timings, per-candidate counters,
//!                                       spans)
//!   --profile <path>                    write the compiler's self-profile
//!                                       (the hierarchical span table with
//!                                       per-name aggregates) as a
//!                                       gpgpu-trace/v2 JSON document
//!   --profile-chrome <path>             write the span table in Chrome
//!                                       trace-event format (load it in
//!                                       chrome://tracing or Perfetto)
//!   --verify <size>                     check optimized == naive on the
//!                                       simulator at a smaller size bound
//!                                       (binds every symbol to <size>)
//!   --verify-seed <u64>                 seed for the random verification
//!                                       inputs (printed on mismatch so
//!                                       failures replay exactly)  [0]
//!   --strict                            treat degradation to the naive
//!                                       kernel as a failure (exit 2)
//! ```
//!
//! ## Subcommands
//!
//! `gpgpuc profile` compiles one kernel and renders the hierarchical span
//! profile as a tree — the slowest spans first, durations per node — so
//! the compiler's own time attribution (passes, analyses, candidate
//! evaluations, estimates) is readable at a glance. `--top <n>` bounds
//! the tree to roughly `n` lines (default 24).
//!
//! `gpgpuc fuse` compiles a producer→consumer kernel pair as one fused
//! kernel (DESIGN.md §5.15): the planner proves the dataflow legal — the
//! producer's output array feeds the consumer and nothing else, the
//! element mapping is dependence-checked — and profitable under the cost
//! model, then the fused kernel flows through the ordinary optimization
//! pipeline and is verified element-identical to the sequential two-kernel
//! reference on the simulator. An illegal or unprofitable pair *degrades*
//! to two separate compiles with a structured warning, never an error.
//! It takes the common OPTIONS of the single-kernel compile (`--machine`,
//! `--bind`, `--cost-model`, `--no-<stage>`, `--tuning-dir`, …); of the
//! output-shaping ones only `--cuda-names` and `--report` apply, and
//! `--report` prints a `== fusion ==` block (mode, eliminated
//! intermediate, bytes saved, member-vs-fused predicted times).
//!
//! `gpgpuc validate` runs the figure-shape validation harness: the mm
//! design-space ridge of Figure 10, the optimized-beats-naive winner
//! orderings of Figure 11 (plus their geo-mean), and the
//! partition-camping crossover of Figure 12 must all reproduce under the
//! selected timing model. With no `--cost-model` it validates *every*
//! model; any failed shape exits 1. This is the CI gate for the
//! trace-driven memory-hierarchy model (DESIGN.md §5.13).
//!
//! `gpgpuc serve` additionally answers the NDJSON **control request**
//! `{"stats": true}` with a one-line telemetry snapshot (uptime, request
//! counts, queue high-water, cache hit ratio, per-class and per-stage
//! latency histograms with p50/p90/p99) instead of a compile response;
//! control requests are not booked as served requests.
//!
//! `gpgpuc fuzz` runs the differential fuzzer: seeded generated kernels are
//! compiled per stage set and checked naive-vs-optimized under the
//! sanitizing simulator. Any failure bucket exits 1; `--inject <slug>`
//! plants a known bug (`drop-sync`, `staging-off-by-one`, `value-tweak`)
//! to validate the oracle itself. `--pairs <n>` additionally runs `n`
//! generated producer→consumer pairs through the fusion driver
//! (fused-vs-sequential differential under the sanitizer; planner
//! rejections pass, mismatches fail). `--trace-json` writes the sanitizer
//! events and `fuzz_*`/`sanitizer_*` metrics as a `gpgpu-trace/v2`
//! document.
//!
//! `gpgpuc reduce` takes a corpus-format repro (see `tests/corpus/`) and
//! shrinks its kernel while the recorded failure bucket keeps reproducing,
//! printing the minimized corpus entry to stdout.
//!
//! `gpgpuc batch` compiles an NDJSON manifest (one request object per
//! line: `{"source"|"file", "machine", "bindings", ...}`) through the
//! batch-compilation service — a worker pool behind a bounded queue in
//! front of the content-addressed compile cache — and prints one NDJSON
//! response per line **in manifest order**. `--cache-dir` persists
//! artifacts across runs; `--tuning-dir` additionally persists per-shape
//! autotuning winners (DESIGN.md §5.14) so textually different kernels
//! with the same access-pattern shape warm-start the design-space search;
//! `--metrics` writes the `service_*` counters
//! (requests, cache hits/misses/evictions, queue depth, latency) as JSON.
//! The exit code aggregates per-request outcomes by numeric maximum.
//!
//! `gpgpuc serve` is the same engine as a long-lived stdin/stdout NDJSON
//! loop: one request line in, one response line out, until EOF. Malformed
//! requests produce structured `bad-request` responses, never a crash.
//!
//! ## Serving under load
//!
//! Both `batch` and `serve` run the engine behind **one front**
//! (DESIGN.md §5.12): one bounded queue drained by one worker pool.
//! `--shards <n>` is only a multiplier — the pool has `--shards` ×
//! ⌈`--jobs` / `--shards`⌉ workers and the queue `--shards` × `--queue`
//! slots. Requests whose deadline is already spent (or provably
//! unmeetable given the observed p50 compile time) fail as `deadline`
//! without compiling.
//!
//! `serve` admission is bounded-wait: when the queue is past
//! `--admission-watermark` (a fill fraction below 1.0) — or still at
//! hard capacity after expired requests are swept out and
//! `--admission-wait-ms` has passed — a request is *shed* with a
//! structured `overloaded` response carrying `retry_after_ms`, instead of
//! blocking the client. A `batch` manifest is a finite job rather than
//! live traffic, so overload there is backpressure, never a verdict: each
//! request waits for a queue slot, and only `serve` surfaces `overloaded`
//! to its clients.
//!
//! `gpgpuc serve` emits responses **in request order** by default (a
//! `{"stats": true}` line acts as a barrier: every earlier request is
//! answered before the snapshot). `--unordered` emits responses as they
//! complete — each line still carries its request `id` — which is what a
//! pipelined load generator wants. On stdin EOF the server stops
//! admitting, drains what it accepted, and exits 0; with
//! `--drain-timeout-ms <n>` whatever is still queued past the horizon is
//! shed as `overloaded` (in-flight work always finishes).
//!
//! The input is a *naive* MiniCUDA kernel (one output element per thread);
//! the output is the optimized kernel plus its launch configuration,
//! exactly as in the paper's workflow. Several `.cu` inputs may be given
//! in one invocation; they compile through the same batch engine and
//! print in input order (output-shaping flags like `--report`,
//! `--trace-json` or `--verify` require a single input).
//!
//! ## Exit codes
//!
//! | Code | Meaning |
//! |------|---------|
//! | 0    | success (including non-strict degraded runs) |
//! | 1    | verification failed (`--verify`) |
//! | 2    | compilation degraded to the naive kernel under `--strict` |
//! | 64   | usage error (unknown flag, missing operand) |
//! | 65   | the input did not parse (or a batch request was malformed) |
//! | 66   | the input file could not be read |
//! | 69   | compilation failed with no viable fallback (or a deadline hit) |
//! | 70   | an internal fault (contained panic) with no viable fallback |
//! | 74   | an output file (e.g. `--trace-json`) could not be written |
//! | 75   | shed by admission control (`overloaded`; retry after the hint) |
//!
//! With several inputs (or `batch`), every input is attempted and the
//! process exits with the numeric **maximum** of the per-input codes.

use gpgpu::ast::{parse_kernel, print_kernel, PrintOptions};
use gpgpu::core::{
    compile, verify_equivalence, CompileOptions, CompilerError, StageSet, TraceEvent, TuningStore,
};
use gpgpu::fusion::{compile_unit, FusionError, UnitCompile, UnitError};
use gpgpu::service::{
    CompileRequest, CompileResponse, Engine, ErrorClass, ServiceConfig, ShardConfig,
    ShardedEngine, SourceSpec, Submitted,
};
use gpgpu::sim::{CostModelKind, MachineDesc};
use std::io::{BufRead, Read, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Verification mismatch (`--verify`).
const EXIT_VERIFY_FAILED: u8 = 1;
/// Degraded compilation under `--strict`.
const EXIT_DEGRADED_STRICT: u8 = 2;
/// Bad command line (sysexits `EX_USAGE`).
const EXIT_USAGE: u8 = 64;
/// Unparseable input (sysexits `EX_DATAERR`).
const EXIT_PARSE: u8 = 65;
/// Unreadable input (sysexits `EX_NOINPUT`).
const EXIT_NOINPUT: u8 = 66;
/// Compilation failed, no fallback (sysexits `EX_UNAVAILABLE`).
const EXIT_COMPILE: u8 = 69;
/// Contained internal fault, no fallback (sysexits `EX_SOFTWARE`).
const EXIT_INTERNAL: u8 = 70;
/// Output file could not be written (sysexits `EX_IOERR`).
const EXIT_IO: u8 = 74;

struct Args {
    inputs: Vec<String>,
    machine: MachineDesc,
    bindings: Vec<(String, i64)>,
    cuda_names: bool,
    emit_cu: bool,
    stages: StageSet,
    report: bool,
    metrics: bool,
    trace_json: Option<String>,
    profile: Option<String>,
    profile_chrome: Option<String>,
    verify_at: Option<i64>,
    verify_seed: u64,
    strict: bool,
    list_passes: bool,
    cost_model: CostModelKind,
    tuning_dir: Option<String>,
    warm_start: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("gpgpuc: {msg}");
    eprintln!(
        "usage: gpgpuc [--machine gtx8800|gtx280|hd5870] [--bind n=1024]... \
         [--cuda-names] [--emit-cu] [--no-fusion|--no-vectorize|--no-coalesce|--no-merge|--no-prefetch|--no-partition] \
         [--list-passes] [--report] [--metrics] [--trace-json <path>] [--profile <path>] \
         [--profile-chrome <path>] [--verify <size>] \
         [--verify-seed <u64>] [--strict] [--cost-model analytic|hierarchy] \
         [--tuning-dir <dir>] [--no-warm-start] <kernel.cu | ->...\n       \
         gpgpuc profile <kernel.cu | -> [--top <n>] [--machine <m>] [--bind n=1024]...\n       \
         gpgpuc fuse [OPTIONS] <producer.cu> <consumer.cu>\n       \
         gpgpuc validate [--cost-model analytic|hierarchy]\n       \
         gpgpuc fuzz [--seed <u64>] [--iters <n>] [--pairs <n>] [--machine <m>] [--inject <slug>] [--trace-json <path>]\n       \
         gpgpuc reduce <repro.cu> [--budget <n>]\n       \
         gpgpuc batch <manifest.ndjson | -> [--jobs <n>] [--queue <n>] [--shards <n>] \
         [--cache-dir <dir>] [--cache-entries <n>] [--tuning-dir <dir>] [--no-warm-start] [--deadline-ms <n>] \
         [--cost-model analytic|hierarchy] \
         [--metrics <path>] [--trace-json <path>]\n       \
         gpgpuc serve [--jobs <n>] [--queue <n>] [--shards <n>] [--admission-watermark <f>] \
         [--admission-wait-ms <n>] [--unordered] [--drain-timeout-ms <n>] [--cache-dir <dir>] \
         [--cache-entries <n>] [--tuning-dir <dir>] [--no-warm-start] [--deadline-ms <n>] \
         [--cost-model analytic|hierarchy] \
         [--metrics <path>] [--trace-json <path>]"
    );
    ExitCode::from(EXIT_USAGE)
}

/// Renders the full failure chain of a compiler error to stderr.
fn report_error(e: &CompilerError) {
    eprintln!("gpgpuc: error: {}", e.render_chain());
}

/// Resolves a `--machine` value through the workspace-wide resolver,
/// listing the valid set on failure.
fn resolve_machine(token: &str) -> Result<MachineDesc, String> {
    MachineDesc::by_name(token).ok_or_else(|| {
        format!(
            "unknown machine `{token}` (known: {})",
            MachineDesc::KNOWN_NAMES.join(", ")
        )
    })
}

/// Parses the command line of a plain compile or, with `fuse` set, of
/// `gpgpuc fuse` — the same options; only the input-count rule differs
/// (exactly two kernels, and `--report` describes the pair).
fn parse_args(argv: &[String], fuse: bool) -> Result<Args, String> {
    let mut args = Args {
        inputs: Vec::new(),
        machine: MachineDesc::gtx280(),
        bindings: Vec::new(),
        cuda_names: false,
        emit_cu: false,
        stages: StageSet::all(),
        report: false,
        metrics: false,
        trace_json: None,
        profile: None,
        profile_chrome: None,
        verify_at: None,
        verify_seed: 0,
        strict: false,
        list_passes: false,
        cost_model: CostModelKind::default(),
        tuning_dir: None,
        warm_start: true,
    };
    let mut it = argv.iter().cloned();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--machine" => {
                let v = it.next().ok_or("--machine needs a value")?;
                args.machine = resolve_machine(&v)?;
            }
            "--bind" => {
                let v = it.next().ok_or("--bind needs name=value")?;
                let (name, value) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--bind `{v}` is not name=value"))?;
                let value: i64 = value
                    .parse()
                    .map_err(|_| format!("--bind value `{value}` is not an integer"))?;
                args.bindings.push((name.to_string(), value));
            }
            "--cuda-names" => args.cuda_names = true,
            "--emit-cu" => args.emit_cu = true,
            "--no-fusion" => args.stages.fusion = false,
            "--no-vectorize" => args.stages.vectorize = false,
            "--no-coalesce" => args.stages.coalesce = false,
            "--no-merge" => args.stages.merge = false,
            "--no-prefetch" => args.stages.prefetch = false,
            "--no-partition" => args.stages.partition = false,
            "--list-passes" => args.list_passes = true,
            "--report" => args.report = true,
            "--metrics" => args.metrics = true,
            "--strict" => args.strict = true,
            "--trace-json" => {
                args.trace_json = Some(it.next().ok_or("--trace-json needs a path")?);
            }
            "--profile" => {
                args.profile = Some(it.next().ok_or("--profile needs a path")?);
            }
            "--profile-chrome" => {
                args.profile_chrome = Some(it.next().ok_or("--profile-chrome needs a path")?);
            }
            "--verify" => {
                let v = it.next().ok_or("--verify needs a size")?;
                args.verify_at =
                    Some(v.parse().map_err(|_| format!("--verify `{v}` not an integer"))?);
            }
            "--verify-seed" => {
                let v = it.next().ok_or("--verify-seed needs a value")?;
                args.verify_seed = v
                    .parse()
                    .map_err(|_| format!("--verify-seed `{v}` is not a u64"))?;
            }
            "--cost-model" => {
                let v = it.next().ok_or("--cost-model needs a value")?;
                args.cost_model = v.parse()?;
            }
            "--tuning-dir" => {
                args.tuning_dir = Some(it.next().ok_or("--tuning-dir needs a directory")?);
            }
            "--no-warm-start" => args.warm_start = false,
            "--help" | "-h" => return Err("help".into()),
            other if other.starts_with("--") => {
                return Err(format!("unexpected argument `{other}`"))
            }
            other => args.inputs.push(other.to_string()),
        }
    }
    if fuse && args.inputs.len() != 2 {
        return Err("fuse needs exactly two kernels: <producer.cu> <consumer.cu>".into());
    }
    if !args.list_passes && args.inputs.is_empty() {
        return Err("no input file".into());
    }
    if !args.warm_start && args.tuning_dir.is_none() {
        return Err("--no-warm-start requires --tuning-dir".into());
    }
    if args.inputs.len() > 1 {
        // Output-shaping flags assume exactly one compilation to describe.
        for (on, flag) in [
            (args.report && !fuse, "--report"),
            (args.metrics, "--metrics"),
            (args.trace_json.is_some(), "--trace-json"),
            (args.profile.is_some(), "--profile"),
            (args.profile_chrome.is_some(), "--profile-chrome"),
            (args.verify_at.is_some(), "--verify"),
            (args.emit_cu, "--emit-cu"),
        ] {
            if on {
                return Err(format!("{flag} requires a single input"));
            }
        }
    }
    Ok(args)
}

/// The compile options a command line asks for, with `source` feeding the
/// access-span table. `--tuning-dir` opens the store here (never fails —
/// I/O trouble degrades it to full exploration) so the pipeline can
/// warm-start from it.
fn compile_options(args: &Args, source: &str) -> CompileOptions {
    let mut opts = CompileOptions::new(args.machine.clone())
        .with_stages(args.stages)
        .with_source(source)
        .with_verify_seed(args.verify_seed)
        .with_cost_model(args.cost_model);
    for (name, value) in &args.bindings {
        opts = opts.bind(name, *value);
    }
    if let Some(dir) = &args.tuning_dir {
        opts = opts
            .with_tuning(Arc::new(TuningStore::open(std::path::Path::new(dir))))
            .with_warm_start(args.warm_start);
    }
    opts
}

/// The exit code of a compilation that failed with no viable fallback.
fn compile_exit(err: &CompilerError) -> ExitCode {
    ExitCode::from(if err.is_fault() {
        EXIT_INTERNAL
    } else {
        EXIT_COMPILE
    })
}

/// `gpgpuc fuzz`: run the differential fuzzer and summarize buckets.
fn cmd_fuzz(argv: &[String]) -> ExitCode {
    use gpgpu::core::trace::Json;
    let mut opts = gpgpu::fuzz::FuzzOptions {
        seed: 0,
        iters: 100,
        machine: MachineDesc::gtx280(),
        inject: None,
    };
    let mut trace_json: Option<String> = None;
    let mut pairs: u64 = 0;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let result = match arg.as_str() {
            "--pairs" => it
                .next()
                .ok_or_else(|| "--pairs needs a value".to_string())
                .and_then(|v| {
                    v.parse()
                        .map_err(|_| format!("--pairs `{v}` is not an integer"))
                })
                .map(|v| pairs = v),
            "--seed" => it
                .next()
                .ok_or_else(|| "--seed needs a value".to_string())
                .and_then(|v| {
                    v.parse()
                        .map_err(|_| format!("--seed `{v}` is not a u64"))
                })
                .map(|v| opts.seed = v),
            "--iters" => it
                .next()
                .ok_or_else(|| "--iters needs a value".to_string())
                .and_then(|v| {
                    v.parse()
                        .map_err(|_| format!("--iters `{v}` is not an integer"))
                })
                .map(|v| opts.iters = v),
            "--machine" => it
                .next()
                .ok_or_else(|| "--machine needs a value".to_string())
                .and_then(|v| resolve_machine(v))
                .map(|m| opts.machine = m),
            "--inject" => it
                .next()
                .ok_or_else(|| "--inject needs a slug".to_string())
                .and_then(|v| {
                    gpgpu::fuzz::InjectKind::from_slug(v)
                        .ok_or_else(|| format!("unknown inject slug `{v}`"))
                })
                .map(|k| opts.inject = Some(k)),
            "--trace-json" => it
                .next()
                .ok_or_else(|| "--trace-json needs a path".to_string())
                .map(|p| trace_json = Some(p.clone())),
            other => Err(format!("unexpected fuzz argument `{other}`")),
        };
        if let Err(e) = result {
            return usage(&e);
        }
    }

    let report = gpgpu::fuzz::fuzz(&opts);
    println!(
        "fuzz: {} iterations on {} (seed {}), {} failure(s)",
        report.iters,
        opts.machine.name,
        opts.seed,
        report.failures.len()
    );
    for (bucket, count) in &report.buckets {
        println!("  {count:>4}  {bucket}");
    }
    for f in &report.failures {
        println!(
            "fuzz: seed={} stage-set={} bucket={} {}",
            f.case_seed, f.failure.stage_set, f.failure.bucket, f.failure.detail
        );
    }
    if let Some(first) = report.failures.first() {
        eprintln!("== first failing kernel (seed {}) ==", first.case_seed);
        eprint!("{}", first.source);
        for (name, value) in &first.bindings {
            eprintln!("//   bind {name}={value}");
        }
    }

    if let Some(path) = &trace_json {
        let doc = Json::obj([
            ("schema", Json::str(gpgpu::core::trace::SCHEMA)),
            ("machine", Json::str(opts.machine.name)),
            ("fuzz_seed", Json::count(opts.seed)),
            (
                "events",
                Json::Arr(report.events.iter().map(|e| e.to_json()).collect()),
            ),
            ("metrics", report.metrics.to_json()),
        ]);
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("gpgpuc: cannot write trace to `{path}`: {e}");
            return ExitCode::from(EXIT_IO);
        }
    }

    // --pairs <n>: additionally run n generated producer→consumer pairs
    // through the fusion driver under the sanitizer. A structured planner
    // rejection is a passing outcome; a fused-vs-sequential mismatch or a
    // compile fault is a failure.
    let mut pairs_clean = true;
    if pairs > 0 {
        let preport = gpgpu::fuzz::fuzz_pairs(&gpgpu::fuzz::FuzzOptions {
            iters: pairs,
            inject: None,
            ..opts.clone()
        });
        pairs_clean = preport.clean();
        println!(
            "fuzz: {} fusion pair(s) (seed {}), {} fused, {} rejected, {} failure(s)",
            preport.iters,
            opts.seed,
            preport.fused,
            preport.rejected.values().sum::<u64>(),
            preport.failures.len()
        );
        for (slug, count) in &preport.rejected {
            println!("  {count:>4}  rejected:{slug}");
        }
        for f in &preport.failures {
            println!("fuzz: pair seed={} {}", f.case_seed, f.detail);
        }
        if let Some(first) = preport.failures.first() {
            eprintln!("== first failing pair (seed {}) ==", first.case_seed);
            eprint!("{}", first.producer_source);
            eprint!("{}", first.consumer_source);
            for (name, value) in &first.bindings {
                eprintln!("//   bind {name}={value}");
            }
        }
    }

    if report.clean() && pairs_clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_VERIFY_FAILED)
    }
}

/// `gpgpuc reduce`: shrink a corpus-format repro while its bucket holds.
fn cmd_reduce(argv: &[String]) -> ExitCode {
    let mut input: Option<String> = None;
    let mut budget: usize = 64;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--budget" => {
                let Some(v) = it.next() else {
                    return usage("--budget needs a value");
                };
                match v.parse() {
                    Ok(b) => budget = b,
                    Err(_) => return usage(&format!("--budget `{v}` is not an integer")),
                }
            }
            other if input.is_none() => input = Some(other.to_string()),
            other => return usage(&format!("unexpected reduce argument `{other}`")),
        }
    }
    let Some(input) = input else {
        return usage("reduce needs a corpus-format repro file");
    };
    let text = match std::fs::read_to_string(&input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gpgpuc: cannot read `{input}`: {e}");
            return ExitCode::from(EXIT_NOINPUT);
        }
    };
    let entry = match gpgpu::fuzz::CorpusEntry::parse(&text) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("gpgpuc: `{input}` is not a corpus repro: {e}");
            return ExitCode::from(EXIT_PARSE);
        }
    };
    let naive = match parse_kernel(&entry.source) {
        Ok(k) => k,
        Err(e) => {
            report_error(&CompilerError::from(e));
            return ExitCode::from(EXIT_PARSE);
        }
    };
    let machine = match resolve_machine(&entry.machine) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("gpgpuc: {e}");
            return ExitCode::from(EXIT_PARSE);
        }
    };
    let mut cfg =
        gpgpu::fuzz::OracleConfig::new(machine).with_only_stage_set(&entry.stages);
    cfg.inject = entry.inject;
    cfg.verify_seed = entry.verify_seed;
    match gpgpu::fuzz::reduce_kernel(&naive, &entry.bindings, &cfg, &entry.bucket, budget) {
        Some(out) => {
            eprintln!(
                "reduce: {} accepted step(s), {} statement(s) remain",
                out.steps, out.stmt_count
            );
            let reduced = gpgpu::fuzz::CorpusEntry {
                source: out.source,
                ..entry
            };
            print!("{}", reduced.render());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "gpgpuc: `{input}` does not reproduce bucket `{}`; nothing to reduce",
                entry.bucket
            );
            ExitCode::from(EXIT_VERIFY_FAILED)
        }
    }
}

/// `gpgpuc profile`: compile one kernel and render the hierarchical span
/// profile as a tree, slowest spans first.
fn cmd_profile(argv: &[String]) -> ExitCode {
    let mut input: Option<String> = None;
    let mut machine = MachineDesc::gtx280();
    let mut bindings: Vec<(String, i64)> = Vec::new();
    let mut top: usize = 24;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--machine" => {
                let Some(v) = it.next() else {
                    return usage("--machine needs a value");
                };
                match resolve_machine(v) {
                    Ok(m) => machine = m,
                    Err(e) => return usage(&e),
                }
            }
            "--bind" => {
                let Some(v) = it.next() else {
                    return usage("--bind needs name=value");
                };
                let Some((name, value)) = v.split_once('=') else {
                    return usage(&format!("--bind `{v}` is not name=value"));
                };
                match value.parse() {
                    Ok(n) => bindings.push((name.to_string(), n)),
                    Err(_) => {
                        return usage(&format!("--bind value `{value}` is not an integer"))
                    }
                }
            }
            "--top" => {
                let Some(v) = it.next() else {
                    return usage("--top needs a value");
                };
                match v.parse::<usize>().ok().filter(|&n| n >= 1) {
                    Some(n) => top = n,
                    None => return usage(&format!("--top `{v}` is not a positive integer")),
                }
            }
            other if input.is_none() && (other == "-" || !other.starts_with("--")) => {
                input = Some(other.to_string())
            }
            other => return usage(&format!("unexpected profile argument `{other}`")),
        }
    }
    let Some(input) = input else {
        return usage("profile needs a kernel file (or `-` for stdin)");
    };
    let source = if input == "-" {
        let mut buf = String::new();
        if std::io::stdin().read_to_string(&mut buf).is_err() {
            eprintln!("gpgpuc: cannot read stdin");
            return ExitCode::from(EXIT_NOINPUT);
        }
        buf
    } else {
        match std::fs::read_to_string(&input) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("gpgpuc: cannot read `{input}`: {e}");
                return ExitCode::from(EXIT_NOINPUT);
            }
        }
    };
    let naive = match parse_kernel(&source) {
        Ok(k) => k,
        Err(e) => {
            report_error(&CompilerError::from(e));
            return ExitCode::from(EXIT_PARSE);
        }
    };
    // Profiling wants a one-command workflow, so unbound size symbols
    // default to 256 (a representative problem size) instead of failing
    // domain inference.
    for param in &naive.params {
        for dim in &param.dims {
            if let gpgpu::ast::Dim::Sym(name) = dim {
                if !bindings.iter().any(|(n, _)| n == name) {
                    eprintln!("gpgpuc: note: binding unbound size `{name}` to 256");
                    bindings.push((name.clone(), 256));
                }
            }
        }
    }
    let mut opts = CompileOptions::new(machine.clone()).with_source(&source);
    for (name, value) in &bindings {
        opts = opts.bind(name, *value);
    }
    let compiled = match compile(&naive, &opts) {
        Ok(c) => c,
        Err(e) => {
            let err = CompilerError::from(e);
            report_error(&err);
            return compile_exit(&err);
        }
    };
    if let Some(reason) = &compiled.degraded {
        eprintln!(
            "gpgpuc: warning: optimization failed; profile covers the naive \
             fallback ({reason})"
        );
    }
    println!(
        "== span profile: {} on {} (top {top}) ==",
        naive.name, machine.name
    );
    print!("{}", compiled.profiler.render_tree(top));
    ExitCode::SUCCESS
}

/// Prints a compiled kernel's launches (configuration comment, extra
/// buffers, kernel text) to stdout — the common output shape of the
/// single-kernel path and `gpgpuc fuse`.
fn print_launches(compiled: &gpgpu::core::CompiledKernel, cuda_names: bool) {
    let popts = if cuda_names {
        PrintOptions::cuda()
    } else {
        PrintOptions::default()
    };
    for (i, launch) in compiled.launches.iter().enumerate() {
        if compiled.launches.len() > 1 {
            println!("// launch {} of {}", i + 1, compiled.launches.len());
        }
        println!("// launch configuration: {}", launch.launch);
        for extra in &launch.extra_buffers {
            println!(
                "// requires zero-initialized buffer: {} ({} x {:?})",
                extra.name, extra.elem, extra.dims
            );
        }
        print!("{}", print_kernel(&launch.kernel, popts));
        println!();
    }
}

/// `gpgpuc fuse`: compile a producer→consumer pair as one compile unit.
/// Legality and profitability are the planner's call; a rejected pair
/// degrades to two separate compiles with a structured warning on stderr
/// and still exits 0 — rejection is an outcome, not an error.
fn cmd_fuse(argv: &[String]) -> ExitCode {
    let args = match parse_args(argv, true) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let (mut sources, mut unit) = (Vec::new(), Vec::new());
    for path in &args.inputs {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("gpgpuc: cannot read `{path}`: {e}");
                return ExitCode::from(EXIT_NOINPUT);
            }
        };
        match parse_kernel(&source) {
            Ok(k) => unit.push(k),
            Err(e) => {
                eprintln!("gpgpuc: `{path}`:");
                report_error(&CompilerError::from(e));
                return ExitCode::from(EXIT_PARSE);
            }
        }
        sources.push(source);
    }
    let warn_rejected = |rejection: &FusionError| {
        eprintln!(
            "gpgpuc: warning: fusion rejected ({}): {}; compiling the members \
             separately",
            rejection.slug(),
            rejection.detail()
        );
    };
    let opts = compile_options(&args, &sources.join("\n\n"));
    let compiled = match compile_unit(&unit, &opts) {
        Ok(compiled) => compiled,
        Err(e) => {
            if let UnitError::Member { rejection, .. } = &e {
                warn_rejected(rejection);
            }
            eprintln!("gpgpuc: error: {e}");
            return match e.compile_error() {
                Some(error) => compile_exit(&CompilerError::from(error.clone())),
                None => ExitCode::from(EXIT_USAGE),
            };
        }
    };
    match &compiled {
        UnitCompile::Separate {
            names, rejection, ..
        } => {
            warn_rejected(rejection);
            for (name, member) in names.iter().zip(compiled.parts()) {
                println!("// ==== {name} ====");
                print_launches(member, args.cuda_names);
            }
        }
        _ => {
            for part in compiled.parts() {
                print_launches(part, args.cuda_names);
            }
        }
    }
    if let (UnitCompile::Fused(fused), true) = (&compiled, args.report) {
        eprintln!("== fusion ==");
        eprintln!(
            "  `{}` + `{}` -> `{}` ({} mode)",
            fused.producer,
            fused.consumer,
            fused.kernel,
            fused.mode.as_str()
        );
        eprintln!(
            "  intermediate `{}` eliminated, {} global bytes saved",
            fused.intermediate, fused.bytes_saved
        );
        eprintln!(
            "  predicted: members {:.3} ms -> fused {:.3} ms",
            fused.members_time_ms, fused.fused_time_ms
        );
        eprintln!("== prediction ({}) ==", args.machine.name);
        eprintln!(
            "  time {:.3} ms   {:.1} GFLOPS   {:.1} GB/s effective",
            fused.compiled.total_time_ms(),
            fused.compiled.gflops(),
            fused.compiled.effective_bandwidth_gbps()
        );
    }
    ExitCode::SUCCESS
}

/// Options shared by `batch` and `serve`.
struct ServiceArgs {
    config: ServiceConfig,
    metrics_path: Option<String>,
    trace_json: Option<String>,
    /// Positional operand (the batch manifest; none for `serve`).
    operand: Option<String>,
    /// Front multiplier (`--shards`) on the worker count and `--queue`.
    shards: usize,
    /// `serve`: queue fill fraction past which admission sheds
    /// (`--admission-watermark`).
    admission_watermark: f64,
    /// `serve`: bounded admission wait at hard capacity
    /// (`--admission-wait-ms`).
    admission_wait_ms: u64,
    /// `serve --unordered`: emit responses as they complete.
    unordered: bool,
    /// `serve --drain-timeout-ms`: shed still-queued work at EOF past this.
    drain_timeout_ms: Option<u64>,
}

impl ServiceArgs {
    /// The front this command line asks for: `--jobs` workers rounded up
    /// to a multiple of `--shards`, and `--shards` × `--queue` slots.
    fn shard_config(&self) -> ShardConfig {
        ShardConfig {
            shards: self.shards,
            workers_per_shard: self.config.jobs.div_ceil(self.shards.max(1)).max(1),
            admission_watermark: self.admission_watermark,
            admission_wait_ms: self.admission_wait_ms,
        }
    }
}

/// Parses the `batch` / `serve` command line.
fn parse_service_args(argv: &[String], batch: bool) -> Result<ServiceArgs, String> {
    let mut out = ServiceArgs {
        config: ServiceConfig::default(),
        metrics_path: None,
        trace_json: None,
        operand: None,
        shards: 1,
        admission_watermark: 1.0,
        admission_wait_ms: 10,
        unordered: false,
        drain_timeout_ms: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--jobs" => {
                let v = value("--jobs")?;
                out.config.jobs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs `{v}` is not a positive integer"))?;
            }
            "--queue" => {
                let v = value("--queue")?;
                out.config.queue_capacity = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--queue `{v}` is not a positive integer"))?;
            }
            "--cache-entries" => {
                let v = value("--cache-entries")?;
                out.config.cache_entries = v
                    .parse()
                    .map_err(|_| format!("--cache-entries `{v}` is not an integer"))?;
            }
            "--cache-dir" => {
                out.config.cache_dir = Some(value("--cache-dir")?.into());
            }
            "--tuning-dir" => {
                out.config.tuning_dir = Some(value("--tuning-dir")?.into());
            }
            "--no-warm-start" => out.config.warm_start = false,
            "--deadline-ms" => {
                let v = value("--deadline-ms")?;
                out.config.default_deadline_ms = Some(
                    v.parse()
                        .map_err(|_| format!("--deadline-ms `{v}` is not an integer"))?,
                );
            }
            "--metrics" => out.metrics_path = Some(value("--metrics")?.clone()),
            "--trace-json" => out.trace_json = Some(value("--trace-json")?.clone()),
            "--cost-model" => {
                out.config.cost_model = value("--cost-model")?.parse()?;
            }
            "--shards" => {
                let v = value("--shards")?;
                out.shards = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--shards `{v}` is not a positive integer"))?;
            }
            "--admission-watermark" if !batch => {
                let v = value("--admission-watermark")?;
                out.admission_watermark = v
                    .parse::<f64>()
                    .ok()
                    .filter(|w| (0.0..=1.0).contains(w))
                    .ok_or_else(|| {
                        format!("--admission-watermark `{v}` is not a fraction in [0, 1]")
                    })?;
            }
            "--admission-wait-ms" if !batch => {
                let v = value("--admission-wait-ms")?;
                out.admission_wait_ms = v
                    .parse()
                    .map_err(|_| format!("--admission-wait-ms `{v}` is not an integer"))?;
            }
            "--unordered" => out.unordered = true,
            "--drain-timeout-ms" => {
                let v = value("--drain-timeout-ms")?;
                out.drain_timeout_ms = Some(
                    v.parse()
                        .map_err(|_| format!("--drain-timeout-ms `{v}` is not an integer"))?,
                );
            }
            other if other.starts_with("--") => {
                return Err(format!("unexpected argument `{other}`"))
            }
            other if batch && out.operand.is_none() => out.operand = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if batch && out.operand.is_none() {
        return Err("batch needs an NDJSON manifest (or `-` for stdin)".into());
    }
    if !out.config.warm_start && out.config.tuning_dir.is_none() {
        return Err("--no-warm-start requires --tuning-dir".into());
    }
    Ok(out)
}

/// Writes the post-run service artifacts (`--metrics` counters document,
/// `--trace-json` event document).
fn write_service_artifacts(engine: &Engine, args: &ServiceArgs) -> Result<(), ExitCode> {
    use gpgpu::core::trace::Json;
    if let Some(path) = &args.metrics_path {
        let doc = Json::obj([
            ("schema", Json::str(gpgpu::core::trace::SCHEMA)),
            ("metrics", engine.metrics().to_json()),
        ]);
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("gpgpuc: cannot write metrics to `{path}`: {e}");
            return Err(ExitCode::from(EXIT_IO));
        }
    }
    if let Some(path) = &args.trace_json {
        let events = engine.take_events();
        let doc = Json::obj([
            ("schema", Json::str(gpgpu::core::trace::SCHEMA)),
            (
                "events",
                Json::Arr(events.iter().map(|e| e.to_json()).collect()),
            ),
        ]);
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("gpgpuc: cannot write trace to `{path}`: {e}");
            return Err(ExitCode::from(EXIT_IO));
        }
    }
    Ok(())
}

/// `gpgpuc batch`: compile an NDJSON manifest through the service engine,
/// emitting one NDJSON response line per request in manifest order.
fn cmd_batch(argv: &[String]) -> ExitCode {
    let sargs = match parse_service_args(argv, true) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let manifest = sargs.operand.clone().unwrap_or_default();
    let text = if manifest == "-" {
        let mut buf = String::new();
        if std::io::stdin().read_to_string(&mut buf).is_err() {
            eprintln!("gpgpuc: cannot read stdin");
            return ExitCode::from(EXIT_NOINPUT);
        }
        buf
    } else {
        match std::fs::read_to_string(&manifest) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("gpgpuc: cannot read `{manifest}`: {e}");
                return ExitCode::from(EXIT_NOINPUT);
            }
        }
    };
    let engine = match Engine::new(sargs.config.clone()) {
        Ok(e) => Arc::new(e),
        Err(e) => {
            eprintln!("gpgpuc: cannot open cache directory: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    // Well-formed lines block for a queue slot — a manifest is
    // backpressure, never a shed. Malformed lines become in-place
    // bad-request responses (still booked into the engine's metrics) so
    // manifest order holds.
    let server = ShardedEngine::start(Arc::clone(&engine), sargs.shard_config());
    let lines = text.lines().filter(|l| !l.trim().is_empty());
    let tickets: Vec<Ticket> = lines
        .enumerate()
        .map(|(idx, line)| match parse_request(line, idx) {
            Ok(req) => Ticket::new(req.id.clone(), server.push(req, Instant::now())),
            Err(_) => Ticket::Now(Box::new(engine.handle_line(line, idx))),
        })
        .collect();
    server.shutdown(None);
    let mut worst: u8 = 0;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (idx, ticket) in tickets.into_iter().enumerate() {
        let resp = ticket.wait();
        worst = worst.max(resp.exit_code().clamp(0, 255) as u8);
        if writeln!(out, "{}", resp.to_json().compact()).is_err() {
            eprintln!("gpgpuc: cannot write response {idx} to stdout");
            return ExitCode::from(EXIT_IO);
        }
    }
    drop(out);
    print_stage_attribution(&engine);
    if let Err(code) = write_service_artifacts(&engine, &sargs) {
        return code;
    }
    ExitCode::from(worst)
}

/// Parses one NDJSON request line and resolves its `file` source.
fn parse_request(line: &str, position: usize) -> Result<CompileRequest, String> {
    let mut req = CompileRequest::parse(line, position)?;
    req.resolve_file()?;
    Ok(req)
}

/// Prints the batch's per-stage time-attribution summary to stderr (the
/// NDJSON response stream on stdout stays clean): every service-stage
/// span name with its count, total and share of the summed stage time,
/// plus the end-to-end `request` total.
fn print_stage_attribution(engine: &Engine) {
    let spans = engine.profiler().spans();
    let mut order: Vec<&str> = Vec::new();
    let mut totals: std::collections::HashMap<&str, (u64, u64)> =
        std::collections::HashMap::new();
    let mut requests = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.category == "service") {
        if s.name == "request" {
            requests.0 += 1;
            requests.1 += s.micros();
            continue;
        }
        let slot = totals.entry(s.name.as_str()).or_insert_with(|| {
            order.push(s.name.as_str());
            (0, 0)
        });
        slot.0 += 1;
        slot.1 += s.micros();
    }
    if order.is_empty() && requests.0 == 0 {
        return;
    }
    let mut rows: Vec<(&str, u64, u64)> = order
        .into_iter()
        .map(|name| {
            let (count, total) = totals.get(name).copied().unwrap_or((0, 0));
            (name, count, total)
        })
        .collect();
    rows.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(b.0)));
    let stage_total: u64 = rows.iter().map(|r| r.2).sum();
    eprintln!("== stage attribution ({} request(s)) ==", requests.0);
    eprintln!(
        "  {:<14} {:>6} {:>14} {:>8}",
        "stage", "count", "total", "share"
    );
    for (name, count, total) in rows {
        let share = if stage_total == 0 {
            0.0
        } else {
            total as f64 / stage_total as f64 * 100.0
        };
        eprintln!(
            "  {:<14} {:>6} {:>11.3} ms {:>7.1}%",
            name,
            count,
            total as f64 / 1000.0,
            share
        );
    }
    eprintln!(
        "  {:<14} {:>6} {:>11.3} ms",
        "request", requests.0, requests.1 as f64 / 1000.0
    );
}

/// The response synthesized when a worker disconnects without answering:
/// an internal error that still echoes the request's real `id`, so
/// id-based correlation survives exactly the moment something already
/// went wrong.
fn worker_lost(id: String) -> CompileResponse {
    CompileResponse::failure(id, ErrorClass::Internal, "worker exited without a response")
}

/// A response owed to the client, in request order.
enum Ticket {
    /// Resolved at admission (malformed line, shed, expired deadline).
    Now(Box<CompileResponse>),
    /// Queued; the worker delivers through the receiver. The request `id`
    /// rides along so a vanished worker still yields a correlatable
    /// response.
    Later(String, std::sync::mpsc::Receiver<CompileResponse>),
}

impl Ticket {
    /// What the front did with the request `id`.
    fn new(id: String, submitted: Submitted) -> Ticket {
        match submitted {
            Submitted::Rejected(resp) => Ticket::Now(resp),
            Submitted::Queued(rx) => Ticket::Later(id, rx),
        }
    }

    /// Blocks until the response is available.
    fn wait(self) -> CompileResponse {
        match self {
            Ticket::Now(resp) => *resp,
            Ticket::Later(id, rx) => rx.recv().unwrap_or_else(|_| worker_lost(id)),
        }
    }

    /// The response if it is already available, else the ticket back.
    fn poll(self) -> Result<CompileResponse, Ticket> {
        match self {
            Ticket::Now(resp) => Ok(*resp),
            Ticket::Later(id, rx) => match rx.try_recv() {
                Ok(resp) => Ok(resp),
                Err(std::sync::mpsc::TryRecvError::Empty) => Err(Ticket::Later(id, rx)),
                Err(std::sync::mpsc::TryRecvError::Disconnected) => Ok(worker_lost(id)),
            },
        }
    }
}

/// Writes one NDJSON line to stdout (flushed — clients pipeline on this).
/// Locks stdout per line so the unordered forwarder threads interleave
/// whole lines, never fragments.
fn write_serve_line(text: &str) -> Result<(), ExitCode> {
    let mut out = std::io::stdout().lock();
    let io = writeln!(out, "{text}").and_then(|()| out.flush());
    if io.is_err() {
        eprintln!("gpgpuc: cannot write response to stdout");
        return Err(ExitCode::from(EXIT_IO));
    }
    Ok(())
}

/// `gpgpuc serve`: the engine's front as a stdin/stdout NDJSON request
/// loop. Requests are admitted (or shed) as lines arrive and compile
/// concurrently on the worker pool; responses are emitted in request order by
/// default (`--unordered` emits them as they complete). A
/// `{"stats": true}` control line is a barrier in ordered mode: every
/// earlier request is answered before the snapshot. On stdin EOF the
/// server drains what it accepted (shedding past `--drain-timeout-ms`,
/// when given) and exits 0.
fn cmd_serve(argv: &[String]) -> ExitCode {
    use gpgpu::core::trace::{parse_json, Json};
    let sargs = match parse_service_args(argv, false) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let engine = match Engine::new(sargs.config.clone()) {
        Ok(e) => Arc::new(e),
        Err(e) => {
            eprintln!("gpgpuc: cannot open cache directory: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let server = ShardedEngine::start(Arc::clone(&engine), sargs.shard_config());
    let stdin = std::io::stdin();
    let mut position = 0usize;
    // Responses owed, in request order (ordered mode drains this FIFO).
    let mut tickets: std::collections::VecDeque<Ticket> = std::collections::VecDeque::new();
    // Unordered mode: one forwarder thread per in-flight request writes
    // the response the moment it lands (stdout lock serializes lines).
    let mut forwarders: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("gpgpuc: cannot read stdin: {e}");
                return ExitCode::from(EXIT_NOINPUT);
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        // Opportunistically flush whatever has already completed at the
        // head of the FIFO, so ordered responses stream out as soon as
        // order allows instead of piling up until the next barrier.
        while let Some(ticket) = tickets.pop_front() {
            match ticket.poll() {
                Ok(resp) => {
                    if let Err(code) = write_serve_line(&resp.to_json().compact()) {
                        return code;
                    }
                }
                Err(ticket) => {
                    tickets.push_front(ticket);
                    break;
                }
            }
        }
        forwarders.retain(|f| !f.is_finished());
        // `{"stats": true}` is a control request: answer with the live
        // telemetry snapshot instead of a compile response, without
        // booking it as a served request. In ordered mode it is a
        // barrier — every earlier request is answered first, so the
        // snapshot is consistent with the lines above it.
        if let Ok(doc) = parse_json(&line) {
            if matches!(doc.get("stats"), Some(Json::Bool(true))) {
                for ticket in tickets.drain(..) {
                    if let Err(code) = write_serve_line(&ticket.wait().to_json().compact()) {
                        return code;
                    }
                }
                if let Err(code) = write_serve_line(&server.stats_json().compact()) {
                    return code;
                }
                continue;
            }
        }
        let enqueued = Instant::now();
        position += 1;
        let ticket = match parse_request(&line, position - 1) {
            // Malformed: book + answer without touching the queue (the
            // engine builds the structured bad-request response).
            Err(_) => Ticket::Now(Box::new(engine.handle_line(&line, position - 1))),
            Ok(req) => Ticket::new(req.id.clone(), server.submit(req, enqueued)),
        };
        if sargs.unordered {
            match ticket {
                Ticket::Now(resp) => {
                    if let Err(code) = write_serve_line(&resp.to_json().compact()) {
                        return code;
                    }
                }
                Ticket::Later(id, rx) => {
                    forwarders.push(std::thread::spawn(move || {
                        let resp = rx.recv().unwrap_or_else(|_| worker_lost(id));
                        let _ = write_serve_line(&resp.to_json().compact());
                    }));
                }
            }
        } else {
            tickets.push_back(ticket);
        }
    }
    // EOF: stop admitting, drain what was accepted (shedding whatever is
    // still queued past the drain horizon, when one was given), answer
    // every outstanding ticket, and exit 0.
    server.shutdown(sargs.drain_timeout_ms.map(std::time::Duration::from_millis));
    for ticket in tickets.drain(..) {
        if let Err(code) = write_serve_line(&ticket.wait().to_json().compact()) {
            return code;
        }
    }
    for f in forwarders {
        let _ = f.join();
    }
    if let Err(code) = write_service_artifacts(&engine, &sargs) {
        return code;
    }
    ExitCode::SUCCESS
}

/// Compiles several `.cu` inputs through the batch engine, printing each
/// optimized kernel in input order and aggregating exit codes by maximum.
fn cmd_multi(args: &Args) -> ExitCode {
    let config = ServiceConfig {
        cost_model: args.cost_model,
        tuning_dir: args.tuning_dir.as_ref().map(std::path::PathBuf::from),
        warm_start: args.warm_start,
        ..ServiceConfig::default()
    };
    let engine = match Engine::new(config) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("gpgpuc: cannot initialize the batch engine: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let mut worst: u8 = 0;
    let mut requests = Vec::new();
    for path in &args.inputs {
        let source = if path == "-" {
            let mut buf = String::new();
            match std::io::stdin().read_to_string(&mut buf) {
                Ok(_) => Ok(buf),
                Err(e) => Err(format!("cannot read stdin: {e}")),
            }
        } else {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
        };
        match source {
            Ok(text) => requests.push(CompileRequest {
                id: path.clone(),
                source: SourceSpec::Inline(text),
                fuse: None,
                machine: args.machine.name.to_string(),
                bindings: args.bindings.clone(),
                stages: args.stages,
                verify_seed: args.verify_seed,
                deadline_ms: None,
            }),
            Err(msg) => {
                eprintln!("gpgpuc: {msg}");
                worst = worst.max(EXIT_NOINPUT);
            }
        }
    }
    let responses = engine.run_batch(requests);
    for resp in responses {
        println!("// ==== {} ====", resp.id);
        match (&resp.artifact, &resp.error) {
            (Some(artifact), _) => {
                if let Some((slug, detail)) = &artifact.degraded {
                    eprintln!(
                        "gpgpuc: warning: `{}` degraded to the verified naive kernel \
                         ({slug}: {detail})",
                        resp.id
                    );
                    if args.strict {
                        eprintln!("gpgpuc: error: degraded compilation rejected by --strict");
                        worst = worst.max(EXIT_DEGRADED_STRICT);
                    }
                }
                let total = artifact.launches.len();
                for (i, launch) in artifact.launches.iter().enumerate() {
                    if total > 1 {
                        println!("// launch {} of {total}", i + 1);
                    }
                    println!("// launch configuration: {}", launch.launch);
                    for extra in &launch.extra_buffers {
                        println!(
                            "// requires zero-initialized buffer: {} ({} x {:?})",
                            extra.name, extra.elem, extra.dims
                        );
                    }
                    let text = if args.cuda_names {
                        &launch.kernel_cuda
                    } else {
                        &launch.kernel
                    };
                    print!("{text}");
                    println!();
                }
            }
            (None, Some(err)) => {
                eprintln!(
                    "gpgpuc: error: `{}`: {}: {}",
                    resp.id,
                    err.class.as_str(),
                    err.detail
                );
                worst = worst.max(resp.exit_code().clamp(0, 255) as u8);
            }
            (None, None) => {
                eprintln!("gpgpuc: error: `{}` produced no artifact", resp.id);
                worst = worst.max(EXIT_INTERNAL);
            }
        }
    }
    ExitCode::from(worst)
}

/// `gpgpuc validate`: run the figure-shape validation harness — the fig10
/// design-space ridge, the fig11 winner orderings, and the fig12
/// partition-camping crossover — under one timing model (`--cost-model`)
/// or, by default, under every model. Any failed shape exits 1.
fn cmd_validate(argv: &[String]) -> ExitCode {
    let mut only: Option<CostModelKind> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let result = match arg.as_str() {
            "--cost-model" => it
                .next()
                .ok_or_else(|| "--cost-model needs a value".to_string())
                .and_then(|v| v.parse())
                .map(|m| only = Some(m)),
            other => Err(format!("unexpected validate argument `{other}`")),
        };
        if let Err(e) = result {
            return usage(&e);
        }
    }
    let runs: Vec<(CostModelKind, Vec<gpgpu::validate::ShapeCheck>)> = match only {
        Some(model) => vec![(model, gpgpu::validate::validate_model(model))],
        None => gpgpu::validate::validate_all(),
    };
    let mut failed = 0usize;
    let mut total = 0usize;
    for (model, checks) in &runs {
        println!("== {model} model ==");
        for check in checks {
            total += 1;
            let verdict = if check.passed { "PASS" } else { "FAIL" };
            if !check.passed {
                failed += 1;
            }
            println!("  {verdict}  {:<18} {}", check.name, check.detail);
        }
    }
    if failed == 0 {
        println!("validate: all {total} shape checks passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("gpgpuc: validate: {failed} of {total} shape checks FAILED");
        ExitCode::from(EXIT_VERIFY_FAILED)
    }
}

/// Prints the registered pass table (`--list-passes`).
fn list_passes() {
    println!("{:<14} {:<10} STAGE", "PASS", "SECTION");
    for p in gpgpu::core::registered_passes() {
        println!("{:<14} {:<10} {}", p.name, p.paper_section, p.stage);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("fuzz") => return cmd_fuzz(&argv[1..]),
        Some("reduce") => return cmd_reduce(&argv[1..]),
        Some("batch") => return cmd_batch(&argv[1..]),
        Some("serve") => return cmd_serve(&argv[1..]),
        Some("profile") => return cmd_profile(&argv[1..]),
        Some("fuse") => return cmd_fuse(&argv[1..]),
        Some("validate") => return cmd_validate(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv, false) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if args.list_passes {
        list_passes();
        return ExitCode::SUCCESS;
    }
    if args.inputs.len() > 1 {
        return cmd_multi(&args);
    }
    let input = args.inputs[0].clone();
    let source = if input == "-" {
        let mut buf = String::new();
        if std::io::stdin().read_to_string(&mut buf).is_err() {
            eprintln!("gpgpuc: cannot read stdin");
            return ExitCode::from(EXIT_NOINPUT);
        }
        buf
    } else {
        match std::fs::read_to_string(&input) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("gpgpuc: cannot read `{input}`: {e}");
                return ExitCode::from(EXIT_NOINPUT);
            }
        }
    };
    let naive = match parse_kernel(&source) {
        Ok(k) => k,
        Err(e) => {
            report_error(&CompilerError::from(e));
            return ExitCode::from(EXIT_PARSE);
        }
    };

    let opts = compile_options(&args, &source);
    let compiled = match compile(&naive, &opts) {
        Ok(c) => c,
        Err(e) => {
            let err = CompilerError::from(e);
            report_error(&err);
            return compile_exit(&err);
        }
    };
    // Degradation is a warning by default and a failure under --strict; the
    // fallback kernel is still printed either way so pipelines keep working.
    if let Some(reason) = &compiled.degraded {
        eprintln!(
            "gpgpuc: warning: optimization failed; falling back to the verified \
             naive kernel ({reason})"
        );
        if args.strict {
            eprintln!("gpgpuc: error: degraded compilation rejected by --strict");
        }
    }
    let exit_ok = if args.strict && compiled.degraded.is_some() {
        ExitCode::from(EXIT_DEGRADED_STRICT)
    } else {
        ExitCode::SUCCESS
    };

    if let Some(path) = &args.trace_json {
        let doc = compiled.trace_json(args.machine.name).pretty();
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("gpgpuc: cannot write trace to `{path}`: {e}");
            return ExitCode::from(EXIT_IO);
        }
    }

    if let Some(path) = &args.profile {
        use gpgpu::core::trace::Json;
        let aggregate = compiled
            .profiler
            .aggregate_by_name()
            .into_iter()
            .map(|(name, count, total_us)| {
                Json::obj([
                    ("name", Json::str(&name)),
                    ("count", Json::count(count)),
                    ("total_us", Json::count(total_us)),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("schema", Json::str(gpgpu::core::trace::SCHEMA)),
            ("machine", Json::str(args.machine.name)),
            ("kernel", Json::str(&naive.name)),
            ("spans", compiled.profiler.to_json()),
            ("aggregate", Json::Arr(aggregate)),
        ]);
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("gpgpuc: cannot write profile to `{path}`: {e}");
            return ExitCode::from(EXIT_IO);
        }
    }

    if let Some(path) = &args.profile_chrome {
        let doc = compiled.profiler.to_chrome_json(std::process::id() as u64);
        if let Err(e) = std::fs::write(path, doc.pretty()) {
            eprintln!("gpgpuc: cannot write chrome trace to `{path}`: {e}");
            return ExitCode::from(EXIT_IO);
        }
    }

    if args.emit_cu {
        print!("{}", gpgpu::core::emit_cu(&compiled, &opts.bindings));
        return exit_ok;
    }
    print_launches(&compiled, args.cuda_names);

    if args.report {
        eprintln!("== pass log ==");
        for line in compiled.log() {
            eprintln!("  - {line}");
        }
        // Per-pass wall-clock attribution, from the span profiler: every
        // `pass:*` span summed by name, sorted descending, with its share
        // of the total pass time.
        let mut pass_rows: Vec<(String, u64, u64)> = compiled
            .profiler
            .aggregate_by_name()
            .into_iter()
            .filter_map(|(name, count, total_us)| {
                name.strip_prefix("pass:")
                    .map(|p| (p.to_string(), count, total_us))
            })
            .collect();
        pass_rows.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        let pass_total: u64 = pass_rows.iter().map(|r| r.2).sum();
        eprintln!("== pass attribution ==");
        eprintln!("  {:<16} {:>5} {:>12} {:>8}", "pass", "runs", "total", "share");
        for (name, count, total_us) in &pass_rows {
            let share = if pass_total == 0 {
                0.0
            } else {
                *total_us as f64 / pass_total as f64 * 100.0
            };
            eprintln!(
                "  {:<16} {:>5} {:>9.3} ms {:>7.1}%",
                name,
                count,
                *total_us as f64 / 1000.0,
                share
            );
        }
        eprintln!(
            "  {:<16} {:>5} {:>9.3} ms   100.0%",
            "total",
            pass_rows.iter().map(|r| r.1).sum::<u64>(),
            pass_total as f64 / 1000.0
        );
        eprintln!("== design space ==");
        for event in compiled.trace.events() {
            match event {
                TraceEvent::CandidateEvaluated {
                    label,
                    time_ms,
                    rejected: None,
                    ..
                } => eprintln!("  {label:<14} {time_ms:.3} ms"),
                TraceEvent::CandidatePruned {
                    label,
                    bound_ms,
                    incumbent_ms,
                } => eprintln!(
                    "  {label:<14} pruned ≥ {bound_ms:.3} ms (incumbent {incumbent_ms:.3} ms)"
                ),
                _ => {}
            }
        }
        if let Some(report) = &compiled.tuning {
            eprintln!("== tuning store ==");
            eprintln!(
                "  shape {}   lookup {}   explored {}/{} candidate(s){}{}",
                report.fingerprint,
                report.outcome,
                report.explored,
                report.full_space,
                if report.warm_started { " (warm-started)" } else { "" },
                if report.demoted { ", stored winner demoted" } else { "" },
            );
            if let Some(store) = &opts.tuning {
                let c = store.counters();
                eprintln!(
                    "  store: {} warm hit(s), {} neighbor hit(s), {} miss(es), \
                     {} re-explored, {} demotion(s)",
                    c.warm_hits, c.neighbor_hits, c.misses, c.reexplored, c.demotions
                );
                eprintln!(
                    "  durability: {} record(s), {} compaction(s), {} self-heal(s), \
                     {} write error(s){}",
                    c.records,
                    c.compactions,
                    c.self_heals,
                    c.write_errors,
                    store
                        .degraded()
                        .map(|r| format!(", DEGRADED ({r})"))
                        .unwrap_or_default()
                );
            }
        }
        eprintln!("== prediction ({}) ==", args.machine.name);
        eprintln!(
            "  time {:.3} ms   {:.1} GFLOPS   {:.1} GB/s effective",
            compiled.total_time_ms(),
            compiled.gflops(),
            compiled.effective_bandwidth_gbps()
        );
        let est = &compiled.estimate;
        eprintln!(
            "  bound by {}   occupancy {} block(s)/SM, {} warps",
            est.bound_by(),
            est.blocks_per_sm,
            est.active_warps
        );
        let st = &est.stats;
        eprintln!(
            "  counters: {} warp insts, {} global transactions ({} B moved, {} B useful), \
             {:.1}% coalesced, {} shared accesses ({} conflict cycles), partition imbalance {:.2}",
            st.warp_insts,
            st.global_transactions,
            st.global_bytes,
            st.useful_bytes,
            est.coalescing_efficiency * 100.0,
            st.shared_accesses,
            st.shared_conflict_cycles,
            est.partition_imbalance
        );
        // Hierarchy counters exist only when the trace-driven model ranked
        // the candidates (`--cost-model hierarchy`).
        if let Some(h) = &est.hierarchy {
            let l1_total = h.l1_hits + h.l1_misses;
            let l2_total = h.l2_hits + h.l2_misses;
            let rate = |hits: u64, total: u64| {
                if total == 0 {
                    0.0
                } else {
                    hits as f64 / total as f64 * 100.0
                }
            };
            eprintln!(
                "  memory hierarchy: L1 {}/{} hits ({:.1}%), L2 {}/{} hits ({:.1}%), \
                 {} MSHR merges, partition queue peak {}, {} B from DRAM",
                h.l1_hits,
                l1_total,
                rate(h.l1_hits, l1_total),
                h.l2_hits,
                l2_total,
                rate(h.l2_hits, l2_total),
                h.mshr_merges,
                h.partition_queue_peak,
                h.dram_bytes
            );
        }
    }

    if args.metrics {
        eprintln!("== candidate metrics ({}) ==", args.machine.name);
        eprint!("{}", compiled.metrics.render_table());
    }

    if let Some(size) = args.verify_at {
        // Bind every size symbol to the (small) verification size; the
        // check neither consults nor feeds the tuning store.
        let mut vopts = CompileOptions {
            tuning: None,
            ..opts.clone()
        };
        for (name, _) in &args.bindings {
            vopts = vopts.bind(name, size);
        }
        let vcompiled = match compile(&naive, &vopts) {
            Ok(c) => c,
            Err(e) => {
                let err = CompilerError::from(e).with_context("compiling at verification size");
                report_error(&err);
                return compile_exit(&err);
            }
        };
        match verify_equivalence(&naive, &vcompiled, &vopts) {
            Ok(()) => eprintln!("verify: optimized output matches the naive kernel at size {size}"),
            Err(e) => {
                report_error(&CompilerError::from(e));
                eprintln!("gpgpuc: VERIFICATION FAILED");
                return ExitCode::from(EXIT_VERIFY_FAILED);
            }
        }
    }
    exit_ok
}
