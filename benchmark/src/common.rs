//! Pieces every workload shares: turning a generated request into compile
//! options, scoring a delivered artifact against the naive kernel, the
//! digests, and the Table-1 host-reference oracle.

use crate::inputs::{table1_check_size, Body, Request};
use crate::rng::{derive, Rng};
use gpgpu_analysis::{resolve_layouts_padded, Bindings};
use gpgpu_ast::{parse_kernel, Kernel};
use gpgpu_core::{compile, naive_compiled, CachedArtifact, CompileOptions, KernelLaunch};
use gpgpu_kernels::{reference, Benchmark};
use gpgpu_sim::{launch, Device, ExecOptions, ExecStats, MachineDesc};
use std::collections::HashMap;
use std::time::Instant;

/// Every workload compiles for the GTX 280 under the analytic cost model
/// with all stages on — the defaults of `gpgpuc`.
pub fn machine() -> MachineDesc {
    MachineDesc::gtx280()
}

/// Compile options for one request's bindings and seed (no source spans:
/// callers that compile a single kernel add `with_source`).
pub fn options(req: &Request) -> CompileOptions {
    let mut opts = CompileOptions::new(machine()).with_verify_seed(req.verify_seed);
    for (name, value) in &req.bindings {
        opts = opts.bind(name, *value);
    }
    opts
}

/// One throwaway cold compile (Table 1's demosaic at its default size,
/// ≈ 35 ms), run by the set-up of the workloads whose own set-up is a few
/// milliseconds of input generation.
///
/// It lets first-use initialisation finish before the first timed request,
/// and it gives `setup_s` something to stand on: input generation alone is
/// allocation-bound, and on the reference host its time flips between two
/// values 65 % apart from one process to the next (whether the allocator
/// keeps trimming the heap), which no number of repetitions inside a run
/// averages out.
pub fn warm_up() {
    let bench = &gpgpu_kernels::naive::DEMOSAIC;
    let mut opts = CompileOptions {
        bindings: bench.default_bindings(),
        ..CompileOptions::new(machine())
    };
    // One explorer worker: set-up time should not depend on whether the
    // second core happened to be free for those few milliseconds.
    opts.explore.workers = Some(1);
    let compiled = compile(&bench.kernel(), &opts).expect("Table 1's demosaic compiles");
    std::hint::black_box(compiled);
}

/// The kernels a request names, parsed (one, or producer then consumer).
pub fn kernels(req: &Request) -> Result<Vec<Kernel>, String> {
    let sources: Vec<&str> = match &req.body {
        Body::Kernel(source) => vec![source],
        Body::Pair { producer, consumer } => vec![producer, consumer],
    };
    sources
        .into_iter()
        .map(|s| parse_kernel(s).map_err(|e| e.to_string()))
        .collect()
}

/// Simulated time of the request's kernels as written, launched naively
/// one after the other — the denominator-free baseline every delivered
/// artifact is scored against.
pub fn naive_time_ms(req: &Request) -> Result<f64, String> {
    let opts = options(req);
    let mut total = 0.0;
    for kernel in kernels(req)? {
        total += naive_compiled(&kernel, &opts)
            .map_err(|e| format!("naive {}: {e}", kernel.name))?
            .total_time_ms();
    }
    Ok(total)
}

/// naive simulated time / delivered simulated time. The delivered side is
/// the artifact's own `time_ms`: every workload ranks with the analytic
/// model, so that is the analytic estimate of the winner's launches.
pub fn sim_speedup(req: &Request, artifact: &CachedArtifact) -> Result<f64, String> {
    if artifact.time_ms <= 0.0 {
        return Err(format!("{}: artifact has no simulated time", req.id));
    }
    Ok(naive_time_ms(req)? / artifact.time_ms)
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so adjacent fields cannot alias.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// The low 48 bits: metric values travel as JSON doubles, which hold
    /// 53 bits exactly.
    pub fn value(self) -> u64 {
        self.0 & 0xffff_ffff_ffff
    }
}

/// Feeds an artifact's full JSON rendering into `digest`.
pub fn digest_artifact(digest: &mut Fnv, artifact: &CachedArtifact) {
    digest.feed(artifact.to_json().compact().as_bytes());
}

/// Feeds the counters of one winner's simulated run into `digest`.
pub fn digest_stats(digest: &mut Fnv, stats: &ExecStats) {
    for v in [
        stats.blocks_executed,
        stats.total_blocks,
        stats.warp_insts,
        stats.flops,
        stats.global_transactions,
        stats.global_bytes,
        stats.useful_bytes,
        stats.gmem_requests,
        stats.shared_accesses,
        stats.shared_conflict_cycles,
        stats.gsync_crossings,
        stats.loop_truncation.to_bits(),
    ] {
        digest.feed(&v.to_le_bytes());
    }
    for hits in &stats.partition_hits {
        digest.feed(&hits.to_le_bytes());
    }
}

/// Runs a launch sequence on a fresh simulated device: every array the
/// launches name is allocated (padded, as the compiler assumes), `inputs`
/// are uploaded, and the named outputs come back.
pub struct ProgramRun {
    pub outputs: HashMap<String, Vec<f32>>,
    pub stats: Vec<ExecStats>,
    pub launch_us: f64,
}

pub fn run_program(
    launches: &[KernelLaunch],
    bindings: &Bindings,
    inputs: &[(&str, &[f32])],
    outputs: &[&str],
    exec: &ExecOptions,
) -> Result<ProgramRun, String> {
    let mut dev = Device::new(machine());
    for l in launches {
        let layouts = resolve_layouts_padded(&l.kernel, bindings).map_err(|e| e.to_string())?;
        for p in l.kernel.array_params() {
            if dev.buffer(&p.name).is_err() {
                dev.alloc(layouts[&p.name].clone());
            }
        }
        for extra in &l.extra_buffers {
            if dev.buffer(&extra.name).is_err() {
                dev.alloc(extra.clone());
            }
        }
    }
    for (name, stream) in inputs {
        dev.buffer_mut(name)
            .map_err(|e| format!("input `{name}`: {e}"))?
            .upload(stream);
    }
    let started = Instant::now();
    let mut stats = Vec::new();
    for l in launches {
        stats.push(
            launch(&l.kernel, &l.launch, bindings, &mut dev, exec)
                .map_err(|e| format!("launch of `{}`: {e}", l.kernel.name))?,
        );
    }
    let launch_us = started.elapsed().as_secs_f64() * 1e6;
    let mut out = HashMap::new();
    for name in outputs {
        let buffer = dev
            .buffer(name)
            .map_err(|e| format!("output `{name}`: {e}"))?;
        out.insert(name.to_string(), buffer.download());
    }
    Ok(ProgramRun {
        outputs: out,
        stats,
        launch_us,
    })
}

/// One Table-1 kernel's correctness case: seeded inputs and the outputs a
/// host implementation computes from them — an oracle that shares no code
/// with the compiler or the simulator.
pub struct OracleCase {
    pub bench: &'static Benchmark,
    pub size: i64,
    pub inputs: Vec<(&'static str, Vec<f32>)>,
    pub output: &'static str,
    pub expected: Vec<f32>,
    pub rtol: f32,
}

/// A well-conditioned lower-triangular matrix: forward substitution
/// amplifies rounding on random ones, which would make the comparison
/// about conditioning rather than about the compiler.
fn triangular(rng: &mut Rng, n: usize) -> Vec<f32> {
    let noise = rng.floats(n * n);
    let mut l = vec![0.0f32; n * n];
    for r in 0..n {
        for k in 0..r {
            l[r * n + k] = noise[r * n + k] * 0.01;
        }
        l[r * n + r] = 1.0 + 0.1 * noise[r * n + r].abs();
    }
    l
}

/// Builds the ten oracle cases for `seed` (host references included).
pub fn oracle_cases(seed: u64) -> Vec<OracleCase> {
    gpgpu_kernels::table1()
        .into_iter()
        .enumerate()
        .map(|(i, bench)| {
            let size = table1_check_size(bench.name);
            let n = size as usize;
            let mut rng = Rng::new(derive(seed, 5, i as u64));
            let case = |inputs: Vec<(&'static str, Vec<f32>)>,
                        output: &'static str,
                        expected: Vec<f32>,
                        rtol: f32| OracleCase {
                bench,
                size,
                inputs,
                output,
                expected,
                rtol,
            };
            match bench.name {
                "tmv" => {
                    let (a, b) = (rng.floats(n * n), rng.floats(n));
                    let want = reference::tmv(&a, &b, n, n);
                    case(vec![("a", a), ("b", b)], "c", want, 2e-3)
                }
                "mm" => {
                    let (a, b) = (rng.floats(n * n), rng.floats(n * n));
                    let want = reference::mm(&a, &b, n, n);
                    case(vec![("a", a), ("b", b)], "c", want, 2e-3)
                }
                "mv" => {
                    let (a, b) = (rng.floats(n * n), rng.floats(n));
                    let want = reference::mv(&a, &b, n, n);
                    case(vec![("a", a), ("b", b)], "c", want, 2e-3)
                }
                "vv" => {
                    let (a, b) = (rng.floats(n), rng.floats(n));
                    let want = reference::vv(&a, &b);
                    case(vec![("a", a), ("b", b)], "c", want, 1e-4)
                }
                "rd" => {
                    // Positive terms: the sum stays far from zero, so the
                    // relative tolerance is meaningful whatever the seed.
                    let a: Vec<f32> = rng.floats(n).into_iter().map(f32::abs).collect();
                    let want = vec![reference::rd(&a)];
                    case(vec![("a", a)], "c", want, 2e-3)
                }
                "strsm" => {
                    let (l, b2) = (triangular(&mut rng, n), rng.floats(n * n));
                    let want = reference::strsm(&l, &b2, n);
                    case(vec![("l", l), ("b2", b2)], "x", want, 2e-3)
                }
                "conv" => {
                    let (img, g) = (rng.floats((n + 32) * (n + 32)), rng.floats(32 * 32));
                    let want = reference::conv(&img, &g, n, n, 32, 32);
                    case(vec![("img", img), ("g", g)], "c", want, 1e-2)
                }
                "tp" => {
                    let a = rng.floats(n * n);
                    let want = reference::tp(&a, n);
                    case(vec![("a", a)], "c", want, 0.0)
                }
                "demosaic" => {
                    let raw = rng.floats((n + 2) * (n + 2));
                    let want = reference::demosaic(&raw, n, n);
                    case(vec![("raw", raw)], "g", want, 1e-4)
                }
                "imregionmax" => {
                    let img = rng.floats((n + 2) * (n + 2));
                    let want = reference::imregionmax(&img, n, n);
                    case(vec![("img", img)], "out", want, 0.0)
                }
                other => unreachable!("no oracle for Table-1 kernel `{other}`"),
            }
        })
        .collect()
}

/// What one oracle case observed.
pub struct OracleRun {
    pub stats: Vec<ExecStats>,
    pub launch_us: f64,
}

/// Compiles the case's kernel at its check size, runs the *winner's*
/// launches on the simulated device and compares with the host reference.
pub fn check_oracle_case(case: &OracleCase) -> Result<OracleRun, String> {
    let name = case.bench.name;
    let kernel = case.bench.kernel();
    let opts = CompileOptions {
        bindings: (case.bench.bind)(case.size),
        ..CompileOptions::new(machine())
    };
    let compiled = compile(&kernel, &opts).map_err(|e| format!("{name}: compile: {e}"))?;
    if let Some(reason) = &compiled.degraded {
        return Err(format!("{name}: degraded at check size: {}", reason.slug()));
    }
    let inputs: Vec<(&str, &[f32])> = case
        .inputs
        .iter()
        .map(|(n, data)| (*n, data.as_slice()))
        .collect();
    let run = run_program(
        &compiled.launches,
        &opts.bindings,
        &inputs,
        &[case.output],
        &ExecOptions::default(),
    )
    .map_err(|e| format!("{name}: {e}"))?;
    let got = &run.outputs[case.output];
    if got.len() != case.expected.len() {
        return Err(format!(
            "{name}: output `{}` has {} elements, reference has {}",
            case.output,
            got.len(),
            case.expected.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(&case.expected).enumerate() {
        let tol = 1e-4 + case.rtol * w.abs().max(g.abs());
        if (g - w).abs() > tol || g.is_nan() {
            return Err(format!(
                "{name}: `{}`[{i}] = {g}, host reference {w} (tolerance {tol})",
                case.output
            ));
        }
    }
    Ok(OracleRun {
        stats: run.stats,
        launch_us: run.launch_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_separates_fields_and_fits_a_double() {
        let (mut a, mut b) = (Fnv::new(), Fnv::new());
        a.feed(b"ab");
        a.feed(b"c");
        b.feed(b"a");
        b.feed(b"bc");
        assert_ne!(a.value(), b.value());
        assert!(a.value() < 1 << 48);
        assert_eq!(a.value() as f64 as u64, a.value());
    }

    #[test]
    fn the_oracle_accepts_the_compiler_and_rejects_a_wrong_answer() {
        let mut cases = oracle_cases(9);
        let vv = cases.iter_mut().find(|c| c.bench.name == "vv").unwrap();
        check_oracle_case(vv).unwrap();
        vv.expected[17] += 1.0;
        let err = check_oracle_case(vv).err().unwrap();
        assert!(err.contains("[17]"), "{err}");
    }
}
