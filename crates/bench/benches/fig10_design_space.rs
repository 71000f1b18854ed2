//! Figure 10: the matrix-multiplication design space — performance as a
//! function of how many thread blocks are merged along X and how many
//! threads are merged along Y, for several input sizes on the GTX 280.
//!
//! The paper finds the optimum at 16 merged blocks along X and 16 merged
//! threads along Y; the reproduction target is a ridge-shaped space whose
//! best point uses substantial merging in both directions.

use gpgpu_bench::harness::banner;
use gpgpu_core::{compile, full_sweep, CompileOptions};
use gpgpu_kernels::naive;
use gpgpu_sim::MachineDesc;

fn main() {
    banner(
        "Figure 10",
        "mm performance vs merge degrees (GTX 280 model)",
    );
    let mm = naive::MM.kernel();
    for n in [1024i64, 2048, 4096] {
        let opts = CompileOptions {
            bindings: (naive::MM.bind)(n),
            ..CompileOptions::new(MachineDesc::gtx280())
        };
        let compiled = compile(&mm, &opts).expect("mm compiles");
        let flops = (naive::MM.flops)(n);

        // Collect the full sweep (pruned points included) into a
        // (block-merge × thread-merge) table.
        let sweep: Vec<_> = full_sweep(&mm, &opts, &compiled)
            .into_iter()
            .map(|(point, _)| point)
            .collect();
        let mut xs: Vec<i64> = sweep.iter().map(|c| c.block_merge_x).collect();
        let mut ys: Vec<i64> = sweep.iter().map(|c| c.thread_merge_y).collect();
        xs.sort_unstable();
        xs.dedup();
        ys.sort_unstable();
        ys.dedup();
        println!("\nmatrix {n}x{n} — GFLOPS (rows: blocks merged along X; cols: threads merged along Y)");
        print!("{:>8}", "X\\Y");
        for y in &ys {
            print!("{y:>9}");
        }
        println!();
        for x in &xs {
            print!("{x:>8}");
            for y in &ys {
                let cell = sweep
                    .iter()
                    .find(|c| c.block_merge_x == *x && c.thread_merge_y == *y);
                match cell {
                    Some(c) => print!("{:>9.1}", flops / (c.time_ms * 1e-3) / 1e9),
                    None => print!("{:>9}", "-"),
                }
            }
            println!();
        }
        println!(
            "best: merge {} blocks along X, {} threads along Y → {:.1} GFLOPS",
            compiled.chosen.block_merge_x,
            compiled.chosen.thread_merge_y,
            compiled.gflops()
        );
    }
    println!("\npaper: optimum at 16 blocks (X) and 16 threads (Y) for all sizes");
}
