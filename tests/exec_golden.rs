//! Golden parity gate for the simulator's execution core.
//!
//! `tests/golden/exec_digests.json` holds FNV-1a digests of everything a
//! launch lets a caller observe — the `Ok`/error outcome, `ExecStats`
//! (partition timeline included), the `MemEvent` stream and every buffer —
//! recorded from the tree-walking interpreter this core replaced (commit
//! 629a527). The replay below must reproduce them bit for bit:
//!
//! * `fuzz`: [`CASES`] generator kernels, each as the naive kernel, the
//!   compiled winner, and the winner with every applicable
//!   [`InjectKind`] planted, under four option sets (plain, sanitize,
//!   the timing model's sampling options, two block clusters);
//! * `table1`: every design point's estimate counters (a full sweep) and the
//!   winner's full scaled `ExecStats` for the ten Table-1 kernels at
//!   their default sizes.
//!
//! `regenerate` (ignored) rewrites the file from whatever executor is in
//! the tree; run it only on a commit whose behaviour is the reference:
//! `cargo test --release --test exec_golden -- --ignored regenerate`.

mod common;

use gpgpu::analysis::{resolve_layouts_padded, Bindings};
use gpgpu::core::trace::parse_json;
use gpgpu::core::{compile, full_sweep, CompileOptions, CompiledKernel, KernelLaunch};
use gpgpu::fuzz::{inject, FuzzRng, InjectKind, KernelSpec};
use gpgpu::sim::{launch_with_sink, Device, ExecOptions, ExecStats, MachineDesc, VecSink};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Generator kernels replayed (case `i` is seeded by `FuzzRng::new(i)`).
const CASES: u64 = 512;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/exec_digests.json"
);

/// The option sets every fuzz program runs under, in file order.
const CONFIGS: [&str; 4] = ["plain", "sanitize", "estimate", "clusters2"];

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn digest_stats(h: &mut Fnv, s: &ExecStats) {
    for v in [
        s.blocks_executed,
        s.total_blocks,
        s.warp_insts,
        s.flops,
        s.global_transactions,
        s.global_bytes,
        s.useful_bytes,
        s.gmem_requests,
        s.shared_accesses,
        s.shared_conflict_cycles,
        s.gsync_crossings,
        s.loop_truncation.to_bits(),
    ] {
        h.u64(v);
    }
    h.u64(s.partition_hits.len() as u64);
    for &v in &s.partition_hits {
        h.u64(v);
    }
    h.u64(s.partition_timeline.len() as u64);
    for step in &s.partition_timeline {
        for &v in step {
            h.u64(u64::from(v));
        }
    }
}

fn exec_options(config: &str) -> ExecOptions {
    match config {
        "plain" => ExecOptions::default(),
        "sanitize" => ExecOptions {
            sanitize: true,
            ..ExecOptions::default()
        },
        "estimate" => ExecOptions {
            sample_blocks: Some(6),
            max_outer_iters: Some(24),
            sample_spread: Some(240),
            ..ExecOptions::default()
        },
        "clusters2" => ExecOptions {
            block_clusters: 2,
            ..ExecOptions::default()
        },
        other => panic!("unknown config {other}"),
    }
}

/// Runs a launch sequence the way `verify_equivalence` does (every kernel
/// array uploaded from its stream, compiler scratch zero-initialized) and
/// digests everything observable.
fn run_digest(launches: &[KernelLaunch], bindings: &Bindings, config: &str) -> String {
    let mut dev = Device::new(MachineDesc::gtx280());
    let mut names: Vec<String> = Vec::new();
    for l in launches {
        let layouts = resolve_layouts_padded(&l.kernel, bindings).expect("layouts resolve");
        for p in l.kernel.array_params() {
            if dev.buffer(&p.name).is_ok() {
                continue;
            }
            let layout = layouts[&p.name].clone();
            let len = (layout.logical_elems() * i64::from(layout.elem.lanes())) as usize;
            // One deterministic stream per array name.
            let seed = p.name.bytes().map(u64::from).sum();
            dev.alloc(layout).upload(&common::data(seed, len));
            names.push(p.name.clone());
        }
        for extra in &l.extra_buffers {
            if dev.buffer(&extra.name).is_err() {
                dev.alloc(extra.clone());
                names.push(extra.name.clone());
            }
            dev.buffer_mut(&extra.name)
                .expect("just allocated")
                .mark_all_initialized();
        }
    }
    names.sort();
    let opts = exec_options(config);
    let mut h = Fnv::new();
    for l in launches {
        let mut sink = VecSink::default();
        let outcome = launch_with_sink(&l.kernel, &l.launch, bindings, &mut dev, &opts, &mut sink);
        h.u64(sink.events.len() as u64);
        for ev in &sink.events {
            h.u64(ev.line as u64);
            h.u64(u64::from(ev.write));
            h.u64(u64::from(ev.sm));
            h.u64(ev.tick);
        }
        match outcome {
            Ok(stats) => {
                h.str("ok");
                digest_stats(&mut h, &stats);
            }
            Err(e) => {
                // Debug carries the variant, offending indices, racing
                // lanes and source span of a finding.
                h.str(&format!("{e:?}"));
                break;
            }
        }
    }
    for name in &names {
        h.str(name);
        for v in &dev.buffer(name).expect("allocated above").data {
            h.u64(u64::from(v.to_bits()));
        }
    }
    h.hex()
}

fn config_digests(launches: &[KernelLaunch], bindings: &Bindings) -> Vec<String> {
    CONFIGS
        .iter()
        .map(|c| run_digest(launches, bindings, c))
        .collect()
}

/// All program variants of generator case `i`: variant name → one digest
/// per entry of [`CONFIGS`]. A variant that cannot be built is recorded as
/// such, so a change in *which* variants exist is a mismatch too.
fn fuzz_case(i: u64) -> BTreeMap<String, Vec<String>> {
    let case = KernelSpec::from_seed(FuzzRng::new(i).next_u64()).build();
    let bindings: Bindings = case.bindings.iter().cloned().collect();
    let mut opts = CompileOptions::new(MachineDesc::gtx280());
    for (name, value) in &case.bindings {
        opts = opts.bind(name, *value);
    }
    let mut out = BTreeMap::new();
    match gpgpu::core::naive_compiled(&case.kernel, &opts) {
        Ok(naive) => out.insert(
            "naive".to_string(),
            config_digests(&naive.launches, &bindings),
        ),
        Err(e) => out.insert("naive".to_string(), vec![format!("error: {e}")]),
    };
    let compiled: CompiledKernel = match compile(&case.kernel, &opts) {
        Ok(c) => c,
        Err(e) => {
            out.insert("opt".to_string(), vec![format!("error: {e}")]);
            return out;
        }
    };
    out.insert(
        "opt".to_string(),
        config_digests(&compiled.launches, &bindings),
    );
    for kind in InjectKind::ALL {
        let mut planted = compiled.clone();
        if inject(&mut planted, kind) {
            out.insert(
                format!("opt+{}", kind.slug()),
                config_digests(&planted.launches, &bindings),
            );
        }
    }
    out
}

/// One Table-1 kernel compiled cold at its default size: candidate label →
/// digest of its estimate's counter snapshot, plus `winner` (full scaled
/// `ExecStats` of every launch and the printed source).
fn table1_kernel(bench: &gpgpu::kernels::Benchmark) -> BTreeMap<String, String> {
    let kernel = gpgpu::ast::parse_kernel(bench.source).expect("table-1 kernel parses");
    let mut opts = CompileOptions::new(MachineDesc::gtx280());
    for (name, value) in bench.default_bindings() {
        opts = opts.bind(&name, value);
    }
    let compiled = compile(&kernel, &opts).expect("table-1 kernel compiles");
    let mut out = BTreeMap::new();
    // The full sweep, so points the search pruned are pinned too.
    for (point, counters) in full_sweep(&kernel, &opts, &compiled) {
        let mut h = Fnv::new();
        for (name, value) in counters.iter() {
            h.str(name);
            h.u64(value.to_bits());
        }
        out.insert(point.label(), h.hex());
    }
    let mut h = Fnv::new();
    h.str(&compiled.source);
    for est in &compiled.per_launch {
        digest_stats(&mut h, &est.stats);
    }
    out.insert("winner".to_string(), h.hex());
    out
}

/// Renders the golden document: one line per fuzz case and per Table-1
/// kernel, keys sorted, so a re-recording diffs line by line.
fn render(
    fuzz: &[BTreeMap<String, Vec<String>>],
    table1: &[(String, BTreeMap<String, String>)],
) -> String {
    let mut s = String::from("{\n\"schema\": \"gpgpu-exec-golden/v1\",\n");
    let configs: Vec<String> = CONFIGS.iter().map(|c| format!("\"{c}\"")).collect();
    let _ = writeln!(s, "\"configs\": [{}],", configs.join(", "));
    s.push_str("\"fuzz\": [\n");
    for (i, case) in fuzz.iter().enumerate() {
        let variants: Vec<String> = case
            .iter()
            .map(|(name, digests)| {
                let ds: Vec<String> = digests.iter().map(|d| format!("\"{d}\"")).collect();
                format!("\"{name}\": [{}]", ds.join(", "))
            })
            .collect();
        let comma = if i + 1 < fuzz.len() { "," } else { "" };
        let _ = writeln!(s, "{{{}}}{comma}", variants.join(", "));
    }
    s.push_str("],\n\"table1\": {\n");
    for (i, (name, cands)) in table1.iter().enumerate() {
        let entries: Vec<String> = cands
            .iter()
            .map(|(l, d)| format!("\"{l}\": \"{d}\""))
            .collect();
        let comma = if i + 1 < table1.len() { "," } else { "" };
        let _ = writeln!(s, "\"{name}\": {{{}}}{comma}", entries.join(", "));
    }
    s.push_str("}\n}\n");
    s
}

fn golden() -> gpgpu::core::Json {
    let text =
        std::fs::read_to_string(GOLDEN).expect("tests/golden/exec_digests.json is committed");
    parse_json(&text).expect("golden file parses")
}

#[test]
fn fuzz_programs_match_the_recorded_digests() {
    let doc = golden();
    let recorded = doc
        .get("fuzz")
        .and_then(|f| f.as_arr())
        .expect("fuzz array");
    assert_eq!(
        recorded.len() as u64,
        CASES,
        "golden file covers every case"
    );
    let mut mismatches = Vec::new();
    for (i, want) in recorded.iter().enumerate() {
        let got = fuzz_case(i as u64);
        let gpgpu::core::Json::Obj(want) = want else {
            panic!("case {i} is not an object");
        };
        let want: BTreeMap<String, Vec<String>> = want
            .iter()
            .map(|(k, v)| {
                let ds = v.as_arr().expect("digest list");
                (
                    k.clone(),
                    ds.iter()
                        .map(|d| d.as_str().expect("digest string").to_string())
                        .collect(),
                )
            })
            .collect();
        if want != got {
            for name in want.keys().chain(got.keys()) {
                if want.get(name) != got.get(name) {
                    mismatches.push(format!(
                        "case {i} ({name}): recorded {:?}, got {:?} (configs {CONFIGS:?})",
                        want.get(name),
                        got.get(name)
                    ));
                }
            }
        }
    }
    mismatches.dedup();
    assert!(
        mismatches.is_empty(),
        "{} digest mismatch(es):\n{}",
        mismatches.len(),
        mismatches[..mismatches.len().min(20)].join("\n")
    );
}

#[test]
fn table1_candidates_match_the_recorded_digests() {
    let doc = golden();
    let recorded = doc.get("table1").expect("table1 object");
    for bench in gpgpu::kernels::table1() {
        let gpgpu::core::Json::Obj(want) = recorded.get(bench.name).expect("kernel recorded")
        else {
            panic!("{} is not an object", bench.name);
        };
        let want: BTreeMap<String, String> = want
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().expect("digest string").to_string()))
            .collect();
        assert_eq!(
            want,
            table1_kernel(bench),
            "{}: candidate digests",
            bench.name
        );
    }
}

/// Regenerate mode: rewrites the golden file from the executor in tree.
#[test]
#[ignore = "rewrites tests/golden/exec_digests.json; run only on the reference commit"]
fn regenerate() {
    let fuzz: Vec<_> = (0..CASES).map(fuzz_case).collect();
    let table1: Vec<_> = gpgpu::kernels::table1()
        .into_iter()
        .map(|b| (b.name.to_string(), table1_kernel(b)))
        .collect();
    std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().expect("has a parent"))
        .expect("golden directory");
    std::fs::write(GOLDEN, render(&fuzz, &table1)).expect("golden file written");
}
