//! The paper's Figure 10: the matrix-multiplication design space — how many
//! thread blocks to merge along X and how many threads to merge along Y —
//! evaluated for several input sizes on the GTX 280 model.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use gpgpu::core::{compile, full_sweep, CompileOptions};
use gpgpu::kernels::naive;
use gpgpu::sim::MachineDesc;

fn main() {
    let mm = naive::MM.kernel();
    for n in [1024i64, 2048] {
        let opts = CompileOptions {
            bindings: (naive::MM.bind)(n),
            ..CompileOptions::new(MachineDesc::gtx280())
        };
        let compiled = compile(&mm, &opts).expect("mm compiles");
        // Every version, including any the search pruned as unable to win.
        let sweep = full_sweep(&mm, &opts, &compiled);
        println!("matrix size {n}x{n}: explored {} versions", sweep.len());
        println!("  blocks-merged-X  threads-merged-Y   est. GFLOPS");
        let flops = (naive::MM.flops)(n);
        for (cand, _) in &sweep {
            let gflops = flops / (cand.time_ms * 1e-3) / 1e9;
            let marker = if cand.block_merge_x == compiled.chosen.block_merge_x
                && cand.thread_merge_y == compiled.chosen.thread_merge_y
            {
                "  <- best"
            } else {
                ""
            };
            println!(
                "  {:>14}  {:>16}   {:>10.1}{marker}",
                cand.block_merge_x, cand.thread_merge_y, gflops
            );
        }
        println!(
            "  chosen: merge {} blocks along X, {} threads along Y\n",
            compiled.chosen.block_merge_x, compiled.chosen.thread_merge_y
        );
    }
}
