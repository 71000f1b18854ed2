//! Hand-tuned comparator kernels standing in for NVIDIA CUBLAS 2.2 and the
//! CUDA SDK transpose samples (paper §6.2, Figures 13, 15, 16).
//!
//! These are written the way the era's library code was written — tiled
//! shared-memory matrix multiply in the Volkov style, tile-staged `sgemv`,
//! two-stage reduction — with the era's known weak spots left in: no
//! broadcast-vector staging in the BLAS-2 kernels, conservative block
//! sizes, no partition-camping fix (except `sdk_new`'s diagonal
//! reordering), and the un-padded shared tile of the original SDK
//! transpose.

use crate::bindings;
use gpgpu_analysis::Bindings;
use gpgpu_ast::{parse_kernel, Kernel, LaunchConfig};
use gpgpu_core::KernelLaunch;

/// A hand-tuned comparator program.
#[derive(Debug, Clone)]
pub struct TunedKernel {
    /// Comparator name (`cublas_mm`, `sdk_new`, …).
    pub name: &'static str,
    /// Builds the launch sequence for a problem-size selector.
    pub program: fn(i64) -> Vec<KernelLaunch>,
    /// Size bindings for the selector.
    pub bind: fn(i64) -> Bindings,
}

fn parse(src: &str) -> Kernel {
    parse_kernel(src).expect("embedded tuned kernel parses")
}

/// CUBLAS-2.2-style SGEMM: 256-thread blocks, a 16-row shared tile of `a`
/// per block, 16 outputs per thread along Y, the `b` column load shared
/// through a register (the Volkov scheme the paper says CUBLAS 2.2 adopted).
pub fn cublas_mm(n: i64) -> Vec<KernelLaunch> {
    const R: usize = 16;
    let mut body = String::new();
    for j in 0..R {
        body.push_str(&format!("    float sum_{j} = 0.0f;\n"));
    }
    body.push_str("    for (int i = 0; i < w; i = i + 16) {\n");
    for j in 0..R {
        body.push_str(&format!("        __shared__ float sa_{j}[16];\n"));
    }
    body.push_str("        if (tidx < 16) {\n");
    for j in 0..R {
        body.push_str(&format!(
            "            sa_{j}[tidx] = a[idy * 16 + {j}][i + tidx];\n"
        ));
    }
    body.push_str("        }\n        __syncthreads();\n");
    body.push_str("        for (int k = 0; k < 16; k = k + 1) {\n");
    body.push_str("            float r0 = b[i + k][idx];\n");
    for j in 0..R {
        body.push_str(&format!(
            "            sum_{j} = sum_{j} + sa_{j}[k] * r0;\n"
        ));
    }
    body.push_str("        }\n        __syncthreads();\n    }\n");
    for j in 0..R {
        body.push_str(&format!("    c[idy * 16 + {j}][idx] = sum_{j};\n"));
    }
    let src = format!(
        "__global__ void cublas_mm(float a[n][w], float b[w][n], float c[n][n], int n, int w) {{\n{body}}}\n"
    );
    let kernel = parse_kernel(&src).expect("generated SGEMM parses");
    vec![KernelLaunch {
        kernel,
        launch: LaunchConfig {
            grid_x: (n / 256) as u32,
            grid_y: (n / 16) as u32,
            block_x: 256,
            block_y: 1,
        },
        extra_buffers: Vec::new(),
    }]
}

/// CUBLAS-style SGEMV: 64-thread blocks, per-half-warp tile staging for
/// the matrix, but the vector read straight from global memory every
/// iteration (no broadcast staging, no partition fix).
pub fn cublas_mv(n: i64) -> Vec<KernelLaunch> {
    let kernel = parse(
        r#"__global__ void cublas_mv(float a[n][w], float b[w], float c[n], int n, int w) {
            float sum = 0.0f;
            for (int i = 0; i < w; i = i + 16) {
                __shared__ float ta[64][17];
                int lane = tidx % 16;
                for (int l2 = 0; l2 < 16; l2 = l2 + 1) {
                    ta[tidx - lane + l2][lane] = a[idx - lane + l2][i + lane];
                }
                __syncthreads();
                for (int k = 0; k < 16; k = k + 1) {
                    sum += ta[tidx][k] * b[i + k];
                }
                __syncthreads();
            }
            c[idx] = sum;
        }"#,
    );
    vec![KernelLaunch {
        kernel,
        launch: LaunchConfig::one_d((n / 64) as u32, 64),
        extra_buffers: Vec::new(),
    }]
}

/// CUBLAS-style transposed SGEMV: already coalesced on the matrix, the
/// vector broadcast unstaged.
pub fn cublas_tmv(n: i64) -> Vec<KernelLaunch> {
    let kernel = parse(
        r#"__global__ void cublas_tmv(float a[w][n], float b[w], float c[n], int n, int w) {
            float sum = 0.0f;
            for (int i = 0; i < w; i = i + 1) {
                sum += a[i][idx] * b[i];
            }
            c[idx] = sum;
        }"#,
    );
    vec![KernelLaunch {
        kernel,
        launch: LaunchConfig::one_d((n / 128) as u32, 128),
        extra_buffers: Vec::new(),
    }]
}

/// Element-wise vector product with the era's conservative 64-thread blocks.
pub fn cublas_vv(n: i64) -> Vec<KernelLaunch> {
    let kernel = parse(
        r#"__global__ void cublas_vv(float a[n], float b[n], float c[n], int n) {
            c[idx] = a[idx] * b[idx];
        }"#,
    );
    vec![KernelLaunch {
        kernel,
        launch: LaunchConfig::one_d((n / 64) as u32, 64),
        extra_buffers: Vec::new(),
    }]
}

/// CUBLAS-style SASUM/SUM: the same two-stage shared-memory reduction the
/// compiler produces, at a slightly different work-per-thread point — the
/// paper reports the compiled kernel within 2% of CUBLAS here.
pub fn cublas_rd(len: i64) -> Vec<KernelLaunch> {
    let naive = crate::naive::RD.kernel();
    let state = gpgpu_transform::PipelineState::new(naive, bindings(&[("len", len)]));
    let elems = (len / (256 * 256)).max(1) * 2;
    let rw = gpgpu_transform::reduction::rewrite_reduction(&state, Some(elems))
        .or_else(|_| gpgpu_transform::reduction::rewrite_reduction(&state, None))
        .expect("reduction pattern matches the naive rd kernel");
    let partial = gpgpu_analysis::ArrayLayout::new(
        &rw.partials,
        gpgpu_ast::ScalarType::Float,
        vec![gpgpu_transform::reduction::PARTIALS],
    );
    vec![
        KernelLaunch {
            kernel: rw.stage1,
            launch: rw.stage1_launch,
            extra_buffers: vec![partial.clone()],
        },
        KernelLaunch {
            kernel: rw.stage2,
            launch: rw.stage2_launch,
            extra_buffers: vec![partial],
        },
    ]
}

/// CUBLAS-style STRSM: per-column forward substitution with the row of `l`
/// read from global memory (no staging).
pub fn cublas_strsm(n: i64) -> Vec<KernelLaunch> {
    let kernel = parse(
        r#"#pragma gpgpu output x
        __global__ void cublas_strsm(float l[n][n], float b2[n][n], float x[n][n], int n) {
            for (int r = 0; r < n; r = r + 1) {
                float s = b2[r][idx];
                for (int k = 0; k < n; k = k + 1) {
                    if (k < r) {
                        s = s - l[r][k] * x[k][idx];
                    }
                }
                x[r][idx] = s / l[r][r];
            }
        }"#,
    );
    vec![KernelLaunch {
        kernel,
        launch: LaunchConfig::one_d((n / 64) as u32, 64),
        extra_buffers: Vec::new(),
    }]
}

/// The original CUDA SDK transpose: shared tile, un-padded (16-way bank
/// conflicts on the transposed read), no diagonal reordering.
pub fn sdk_prev(n: i64) -> Vec<KernelLaunch> {
    let kernel = parse(
        r#"__global__ void sdk_prev(float a[n][n], float c[n][n], int n) {
            __shared__ float tile[16][16];
            tile[tidy][tidx] = a[idy][idx];
            __syncthreads();
            c[idx - tidx + tidy][idy - tidy + tidx] = tile[tidx][tidy];
        }"#,
    );
    vec![KernelLaunch {
        kernel,
        launch: square_16(n),
        extra_buffers: Vec::new(),
    }]
}

/// Ruetsch & Micikevicius' improved SDK transpose: diagonal block
/// reordering on top of the tile (the paper's reference \[12\]).
pub fn sdk_new(n: i64) -> Vec<KernelLaunch> {
    let kernel = parse(
        r#"__global__ void sdk_new(float a[n][n], float c[n][n], int n) {
            int bx = (bidx + bidy) % gridDimX;
            int by = bidx;
            __shared__ float tile[16][16];
            tile[tidy][tidx] = a[by * 16 + tidy][bx * 16 + tidx];
            __syncthreads();
            c[bx * 16 + tidy][by * 16 + tidx] = tile[tidx][tidy];
        }"#,
    );
    vec![KernelLaunch {
        kernel,
        launch: square_16(n),
        extra_buffers: Vec::new(),
    }]
}

fn square_16(n: i64) -> LaunchConfig {
    LaunchConfig {
        grid_x: (n / 16) as u32,
        grid_y: (n / 16) as u32,
        block_x: 16,
        block_y: 16,
    }
}

/// The Figure 13 comparators, keyed by benchmark name.
pub fn cublas_for(name: &str, size: i64) -> Option<Vec<KernelLaunch>> {
    Some(match name {
        "mm" => cublas_mm(size),
        "mv" => cublas_mv(size),
        "tmv" => cublas_tmv(size),
        "vv" => cublas_vv(size),
        "rd" => cublas_rd(size),
        // The complex reduction holds 2·size floats (re/im interleaved);
        // CublasScasum-style comparators process the full stream.
        "rdc" => cublas_rd(2 * size),
        "strsm" => cublas_strsm(size),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_comparators_build() {
        for (name, size) in [
            ("mm", 512i64),
            ("mv", 512),
            ("tmv", 512),
            ("vv", 4096),
            ("rd", 1 << 20),
            ("strsm", 512),
        ] {
            let prog = cublas_for(name, size).unwrap();
            assert!(!prog.is_empty(), "{name}");
        }
        assert!(cublas_for("tp", 512).is_none());
        sdk_prev(512);
        sdk_new(512);
    }

    #[test]
    fn cublas_mm_has_volkov_shape() {
        let prog = cublas_mm(2048);
        let k = &prog[0].kernel;
        assert_eq!(k.shared_decls().len(), 16);
        assert_eq!(prog[0].launch.threads_per_block(), 256);
        assert_eq!(prog[0].launch.grid_y, 128);
    }

    #[test]
    fn cublas_rd_is_two_stage() {
        let prog = cublas_rd(1 << 22);
        assert_eq!(prog.len(), 2);
        assert_eq!(prog[0].launch.block_x, 256);
    }

    #[test]
    fn sdk_prev_tile_is_unpadded() {
        let prog = sdk_prev(1024);
        let decls = prog[0].kernel.shared_decls();
        assert_eq!(decls[0].2, &[16, 16]);
    }
}
