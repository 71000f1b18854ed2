//! The execution core's steady state allocates nothing.
//!
//! A counting global allocator wraps whole launches. Arenas are sized while
//! the first block runs, so a launch's allocation count must not depend on
//! how many more blocks follow it, nor on how many steps a block takes —
//! only on the program. No timing involved: the counts are exact.
//!
//! Everything lives in one `#[test]` because the counter is process-wide.

use gpgpu_analysis::{resolve_layouts_padded, Bindings};
use gpgpu_ast::{parse_kernel, Kernel, LaunchConfig};
use gpgpu_sim::{launch, Device, ExecOptions, MachineDesc};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` for every operation; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The coalesced, shared-memory-staged matrix multiply (16-wide tiles).
const MM: &str = r#"
__global__ void mm(float a[n][w], float b[w][n], float c[n][n], int n, int w) {
    float sum = 0.0f;
    for (int i = 0; i < w; i = i + 16) {
        __shared__ float shared0[16];
        shared0[tidx] = a[idy][i + tidx];
        __syncthreads();
        for (int k = 0; k < 16; k = k + 1) {
            sum += shared0[k] * b[i + k][idx];
        }
        __syncthreads();
    }
    c[idy][idx] = sum;
}"#;

/// The Table-1 triangular solve as the compiler delivers it: staged,
/// prefetched, two outputs per thread.
const STRSM: &str = r#"
__global__ void strsm(float l[n][n], float b2[n][n], float x[n][n], int n) {
    for (int r = 0; r < n; r = r + 1) {
        float s_0 = b2[r][(idx - tidx) * 2 + tidx];
        float s_1 = b2[r][(idx - tidx) * 2 + 16 + tidx];
        float pf0 = l[r][0 + tidx];
        for (int k = 0; k < n; k = k + 16) {
            __shared__ float shared0[16];
            shared0[tidx] = pf0;
            __syncthreads();
            if (k + 16 < n) {
                pf0 = l[r][k + 16 + tidx];
            }
            for (int k_k = 0; k_k < 16; k_k = k_k + 1) {
                if (k + k_k < r) {
                    s_0 = s_0 - shared0[k_k] * x[k + k_k][(idx - tidx) * 2 + tidx];
                    s_1 = s_1 - shared0[k_k] * x[k + k_k][(idx - tidx) * 2 + 16 + tidx];
                }
            }
            __syncthreads();
        }
        float r0 = l[r][r];
        x[r][(idx - tidx) * 2 + tidx] = s_0 / r0;
        x[r][(idx - tidx) * 2 + 16 + tidx] = s_1 / r0;
    }
}"#;

/// Lane-varying arithmetic whose step count scales with `w` while its
/// memory traffic (and so the partition timeline it returns) does not.
const SPIN: &str = r#"
__global__ void spin(float c[n], int n, int w) {
    float s = 0.0f;
    for (int i = 0; i < w; i = i + 1) {
        if (i % 3 < 2) { s = s + tidx * i; }
    }
    c[idx] = s;
}"#;

fn binds(pairs: &[(&str, i64)]) -> Bindings {
    pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect()
}

/// Allocations of one `launch` over the first `blocks` blocks. Real
/// buffers hold a constant; phantom ones only addresses, as in `estimate`.
fn launch_allocations(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    bindings: &Bindings,
    blocks: usize,
    phantom: bool,
) -> u64 {
    let layouts = resolve_layouts_padded(kernel, bindings).unwrap();
    let mut dev = Device::new(MachineDesc::gtx280());
    for p in kernel.array_params() {
        let layout = layouts[&p.name].clone();
        if phantom {
            dev.alloc_phantom(layout);
        } else {
            let len = layout.logical_elems() as usize;
            dev.alloc(layout).upload(&vec![0.5; len]);
        }
    }
    let opts = ExecOptions {
        sample_blocks: Some(blocks),
        ..ExecOptions::default()
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let stats = launch(kernel, cfg, bindings, &mut dev, &opts).unwrap();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(stats.blocks_executed, blocks as u64);
    after - before
}

#[test]
fn steady_state_execution_does_not_allocate() {
    let mm = parse_kernel(MM).unwrap();
    let mm_cfg = LaunchConfig {
        grid_x: 4,
        grid_y: 64,
        block_x: 16,
        block_y: 1,
    };
    let strsm = parse_kernel(STRSM).unwrap();
    let strsm_cfg = LaunchConfig::one_d(2, 16);
    for (name, kernel, cfg, bindings) in [
        ("mm", &mm, &mm_cfg, binds(&[("n", 64), ("w", 64)])),
        ("strsm", &strsm, &strsm_cfg, binds(&[("n", 64)])),
    ] {
        for phantom in [false, true] {
            let one = launch_allocations(kernel, cfg, &bindings, 1, phantom);
            let two = launch_allocations(kernel, cfg, &bindings, 2, phantom);
            let many =
                launch_allocations(kernel, cfg, &bindings, cfg.total_blocks() as usize, phantom);
            assert_eq!(one, two, "{name} (phantom {phantom}): block 2 allocated");
            assert_eq!(
                one, many,
                "{name} (phantom {phantom}): blocks 2..N allocated"
            );
        }
    }

    // Sixty-four times the steps, the same allocations.
    let spin = parse_kernel(SPIN).unwrap();
    let cfg = LaunchConfig::one_d(2, 64);
    let short = launch_allocations(&spin, &cfg, &binds(&[("n", 128), ("w", 64)]), 2, false);
    let long = launch_allocations(&spin, &cfg, &binds(&[("n", 128), ("w", 4096)]), 2, false);
    assert_eq!(short, long, "allocations grew with the step count");
}
