//! End-to-end sanitizer coverage through the public facade.
//!
//! Three layers:
//!
//! 1. A table of hand-written buggy kernels, each tripping exactly one
//!    sanitizer check when launched with `ExecOptions { sanitize: true }`.
//! 2. Classic compiler bugs (a dropped `__syncthreads()`, an off-by-one
//!    staging extent) planted into a *real* compiled program via
//!    `gpgpu::fuzz::inject`, which must surface as structured
//!    `VerifyError::Sanitizer` findings — not as silent passes.
//! 3. A proptest asserting the other direction: clean compiles of
//!    generated kernels never trip any sanitizer check (see also
//!    `tests/random_kernels.rs`, which runs the full sanitized
//!    verification per seed).

use gpgpu::analysis::{resolve_layouts_padded, Bindings};
use gpgpu::ast::{parse_kernel, LaunchConfig};
use gpgpu::core::{compile, verify_equivalence_sanitized, CompileOptions, VerifyError};
use gpgpu::fuzz::{inject, InjectKind};
use gpgpu::sim::{launch, Device, ExecError, ExecOptions, MachineDesc};
use proptest::prelude::*;

fn binds(pairs: &[(&str, i64)]) -> Bindings {
    pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect()
}

/// Allocates (without initializing) every array the kernel declares.
fn device_for(kernel: &gpgpu::ast::Kernel, bindings: &Bindings) -> Device {
    let layouts = resolve_layouts_padded(kernel, bindings).expect("layouts resolve");
    let mut dev = Device::new(MachineDesc::gtx280());
    for p in kernel.array_params() {
        dev.alloc(layouts[&p.name].clone());
    }
    dev
}

fn upload_iota(dev: &mut Device, name: &str, len: usize) {
    dev.buffer_mut(name)
        .unwrap()
        .upload(&(0..len).map(|v| v as f32).collect::<Vec<_>>());
}

/// Runs `source` as one 16-thread block under the sanitizer and returns
/// the name of the check that fired.
fn sanitize_kind(source: &str, bindings: &[(&str, i64)], inputs: &[(&str, usize)]) -> String {
    let k = parse_kernel(source).expect("table kernel parses");
    let b = binds(bindings);
    let mut dev = device_for(&k, &b);
    for (name, len) in inputs {
        upload_iota(&mut dev, name, *len);
    }
    let opts = ExecOptions {
        sanitize: true,
        ..ExecOptions::default()
    };
    match launch(&k, &LaunchConfig::one_d(1, 16), &b, &mut dev, &opts) {
        Err(ExecError::Sanitizer(e)) => e.name().to_string(),
        Err(other) => panic!("expected a sanitizer error, got {other}"),
        Ok(_) => panic!("expected a sanitizer error, got a clean run"),
    }
}

#[test]
fn the_hand_written_bug_table_maps_to_exact_kinds() {
    let table: &[(&str, &str)] = &[
        (
            "global-oob",
            "__global__ void f(float a[n], int n) { a[idx + 1] = 0.0f; }",
        ),
        (
            // n = 20 pads the pitch to 32: index 20..31 exists in the
            // allocation but not in the logical array.
            "padding-read",
            "__global__ void f(float a[n], float c[m], int n, int m) {
                c[idx] = a[idx + 16];
            }",
        ),
        (
            "uninit-read",
            "__global__ void f(float u[n], float c[n], int n) { c[idx] = u[idx]; }",
        ),
        (
            "shared-race",
            "__global__ void f(float a[n], float c[n], int n) {
                __shared__ float s0[16];
                s0[tidx] = a[idx];
                c[idx] = s0[15 - tidx];
            }",
        ),
        (
            "shared-oob",
            "__global__ void f(float a[n], float c[n], int n) {
                __shared__ float s0[16];
                s0[tidx + 1] = a[idx];
                __syncthreads();
                c[idx] = s0[tidx];
            }",
        ),
        (
            "barrier-divergence",
            "__global__ void f(float a[n], float c[n], int n) {
                if (tidx < 8) { __syncthreads(); }
                c[idx] = a[idx];
            }",
        ),
        (
            "shared-overflow",
            "__global__ void f(float a[n], float c[n], int n) {
                __shared__ float s0[100000];
                s0[tidx] = a[idx];
                __syncthreads();
                c[idx] = s0[tidx];
            }",
        ),
    ];
    for (expected, source) in table {
        let (bindings, inputs): (&[(&str, i64)], &[(&str, usize)]) = match *expected {
            "padding-read" => (&[("n", 20), ("m", 16)], &[("a", 20)]),
            // `u` stays deliberately un-uploaded.
            "uninit-read" => (&[("n", 16)], &[]),
            _ => (&[("n", 16)], &[("a", 16)]),
        };
        let got = sanitize_kind(source, bindings, inputs);
        assert_eq!(&got, expected, "kernel:\n{source}");
    }
}

/// A guard keeps lane 0 away from a division by its own thread id: the
/// masked-off lane must neither fault the launch nor trip a check, and the
/// guarded lanes must see the quotient.
#[test]
fn guarded_division_is_clean_under_the_sanitizer() {
    let k = parse_kernel(
        "__global__ void f(float a[n], float c[n], int n) {
            c[idx] = 0.0f;
            if (tidx > 0) { c[idx] = a[(idx * 3) / tidx % n]; }
        }",
    )
    .expect("guarded kernel parses");
    let b = binds(&[("n", 32)]);
    let mut dev = device_for(&k, &b);
    upload_iota(&mut dev, "a", 32);
    let opts = ExecOptions {
        sanitize: true,
        ..ExecOptions::default()
    };
    launch(&k, &LaunchConfig::one_d(2, 16), &b, &mut dev, &opts).expect("no lane faults");
    let c = dev.buffer("c").unwrap().download();
    for (idx, &got) in c.iter().enumerate() {
        // Lane 0 of each block is guarded off and keeps the 0.0 store.
        let want = (idx * 3).checked_div(idx % 16).map_or(0, |q| q % 32);
        assert_eq!(got, want as f32, "thread {idx}");
    }
}

/// The matrix-vector staging kernel every injection test plants bugs into.
fn mv_kernel() -> gpgpu::ast::Kernel {
    parse_kernel(
        "#pragma gpgpu output c
         __global__ void mv(float a[n][w], float b[w], float c[n], int n, int w) {
             float sum = 0.0f;
             for (int i = 0; i < w; i = i + 1) { sum = sum + a[i][idx] * b[i]; }
             c[idx] = sum;
         }",
    )
    .expect("mv parses")
}

fn mv_opts() -> CompileOptions {
    CompileOptions::new(MachineDesc::gtx280())
        .bind("n", 64)
        .bind("w", 64)
}

/// A dropped `__syncthreads()` in the compiled program must be reported as
/// a shared-memory race, not verify silently.
#[test]
fn dropped_barrier_is_a_sanitizer_error_not_a_silent_pass() {
    let naive = mv_kernel();
    let opts = mv_opts();
    let mut compiled = compile(&naive, &opts).expect("mv compiles");
    assert!(
        inject(&mut compiled, InjectKind::DropSync),
        "the optimized mv kernel stages through shared memory"
    );
    match verify_equivalence_sanitized(&naive, &compiled, &opts) {
        Err(VerifyError::Sanitizer { kind, run, .. }) => {
            assert_eq!(kind, "shared-race");
            assert!(run.contains("optimized"), "fired in `{run}`");
        }
        other => panic!("expected a shared-race sanitizer error, got {other:?}"),
    }
}

/// An off-by-one staging extent must be reported as an out-of-bounds or
/// padding read by the sanitizer.
#[test]
fn off_by_one_staging_extent_is_a_sanitizer_error() {
    let naive = mv_kernel();
    // Stop before prefetching: the prefetch pass rewrites the staging
    // store into a register copy, which leaves no direct global load for
    // the injector to bump (the fuzz oracle plants this bug per stage
    // set for the same reason).
    let opts = mv_opts().with_stages(gpgpu::core::StageSet {
        prefetch: false,
        ..gpgpu::core::StageSet::all()
    });
    let mut compiled = compile(&naive, &opts).expect("mv compiles");
    assert!(
        inject(&mut compiled, InjectKind::StagingOffByOne),
        "the optimized mv kernel stages a global load"
    );
    match verify_equivalence_sanitized(&naive, &compiled, &opts) {
        Err(VerifyError::Sanitizer { kind, .. }) => {
            assert!(
                kind == "global-oob" || kind == "padding-read" || kind == "uninit-read",
                "expected a memory-safety kind, got `{kind}`"
            );
        }
        // A +1 that stays inside both the extent and the initialized
        // region can only show up as a value difference.
        Err(VerifyError::Mismatch { .. }) => {}
        other => panic!("expected a sanitizer or mismatch error, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 16,
        ..ProptestConfig::default()
    })]

    /// Clean compiles of generated kernels never trip the sanitizer: the
    /// checks exist to catch planted or real bugs, not to false-positive
    /// on correct staging.
    #[test]
    fn clean_compiles_never_trip_the_sanitizer(seed in any::<u64>()) {
        let case = gpgpu::fuzz::KernelSpec::from_seed(seed).build();
        let mut opts = CompileOptions::new(MachineDesc::gtx280())
            .with_source(&case.source);
        for (name, value) in &case.bindings {
            opts = opts.bind(name, *value);
        }
        let compiled = compile(&case.kernel, &opts)
            .unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e}"));
        if let Err(e) = verify_equivalence_sanitized(&case.kernel, &compiled, &opts) {
            panic!("seed {seed}: sanitized verify failed: {e}\n{}", case.source);
        }
    }
}
