//! Restructuring of grid-wide reduction kernels (paper §3, §6).
//!
//! Naive reduction kernels use the `__gsync()` grid barrier the input
//! language provides: a halving tree over global memory. Real GPUs have no
//! cheap grid barrier, so the compiler restructures the kernel into the
//! canonical two-launch hierarchy, aggregating work items into threads
//! (thread merge) and thread blocks (block-level shared-memory tree):
//!
//! * **Stage 1** — each block reduces `E·B` input elements to one partial
//!   sum: every thread privately accumulates `E` coalesced elements, then a
//!   shared-memory tree folds the block. The `#pragma gpgpu output` hint
//!   lets the compiler drop writes to temporary arrays entirely — the map
//!   expression (e.g. the complex-magnitude sum of Fig. 14) is inlined into
//!   the accumulation.
//! * **Stage 2** — one block folds the 256 partials into the output scalar.

use crate::PipelineState;
use gpgpu_ast::{
    builder, BinOp, Builtin, Dim, Expr, ForLoop, Kernel, LValue, LaunchConfig, LoopUpdate, Param,
    ScalarType, Stmt,
};

/// Threads per block in the generated reduction kernels.
pub const REDUCTION_BLOCK: i64 = 256;
/// Number of partial sums (= maximum stage-1 grid size).
pub const PARTIALS: i64 = 256;

/// The two-launch program produced by the rewrite.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionRewrite {
    /// Block-level reduction over the input.
    pub stage1: Kernel,
    /// Launch configuration for stage 1.
    pub stage1_launch: LaunchConfig,
    /// Final fold of the partials.
    pub stage2: Kernel,
    /// Launch configuration for stage 2.
    pub stage2_launch: LaunchConfig,
    /// Name of the intermediate partials array (length [`PARTIALS`],
    /// must be zero-initialized by the runtime).
    pub partials: String,
    /// Input elements accumulated per thread in stage 1 (the thread-merge
    /// degree).
    pub elems_per_thread: i64,
    /// Total input length.
    pub len: i64,
}

/// The recognized naive-reduction pattern.
#[derive(Debug, Clone, PartialEq)]
struct ReductionPattern {
    /// Array holding the running tree (input, or a pragma-declared temp).
    tree_array: String,
    /// Expression computing element `g`'s initial value, with `idx` as the
    /// placeholder for `g`. For in-place reductions this is `tree[idx]`.
    map_expr: Expr,
    /// Output array and the constant index written.
    output: (String, i64),
    /// Total number of elements reduced.
    len: i64,
}

/// Why [`rewrite_reduction`] refuses a kernel that is not the gsync-tree
/// pattern.
const NOT_A_REDUCTION: &str = "the kernel does not match the __gsync reduction pattern";

/// The default work-per-thread degree for the kernel's reduction:
/// `len / (PARTIALS · REDUCTION_BLOCK)`, at least 1. `None` when the kernel
/// does not match the gsync-tree pattern.
pub fn auto_elems_per_thread(state: &PipelineState) -> Option<i64> {
    match_pattern(state).map(|p| default_degree(p.len))
}

fn default_degree(len: i64) -> i64 {
    (len / (PARTIALS * REDUCTION_BLOCK)).max(1)
}

/// Attempts the reduction rewrite.
///
/// `elems_per_thread` overrides the default work-per-thread choice (see
/// [`auto_elems_per_thread`]).
///
/// # Errors
///
/// Says why the rewrite was refused: the kernel does not match the
/// gsync-tree pattern, `len` does not split into whole
/// [`REDUCTION_BLOCK`]-thread blocks at this degree, or the degree needs
/// more stage-1 blocks than there are [`PARTIALS`].
pub fn rewrite_reduction(
    state: &PipelineState,
    elems_per_thread: Option<i64>,
) -> Result<ReductionRewrite, String> {
    let pattern = match_pattern(state).ok_or(NOT_A_REDUCTION)?;
    let len = pattern.len;
    let e = elems_per_thread
        .unwrap_or_else(|| default_degree(len))
        .max(1);
    let threads_total = len / e;
    if threads_total * e != len || threads_total % REDUCTION_BLOCK != 0 {
        return Err(format!(
            "len {len} does not divide into {REDUCTION_BLOCK}-thread blocks at {e} elements/thread"
        ));
    }
    let grid = threads_total / REDUCTION_BLOCK;
    if grid > PARTIALS {
        return Err(format!(
            "{e} elements/thread needs {grid} blocks, more than the {PARTIALS} partials"
        ));
    }

    // Kernel parameters: the arrays the map expression reads, the partials,
    // and the original scalars.
    let mut stage1_params: Vec<Param> = Vec::new();
    for p in &state.kernel.params {
        let used = pattern.map_expr.uses_array(&p.name) || pattern.map_expr.uses_var(&p.name);
        if used {
            stage1_params.push(p.clone());
        }
    }
    let partials = "rd_partial".to_string();
    stage1_params.push(Param::array(
        &partials,
        ScalarType::Float,
        vec![Dim::Const(PARTIALS)],
    ));

    // Stage 1 body.
    let tidx = Expr::Builtin(Builtin::TidX);
    let sdata = "sdata";
    let mut body: Vec<Stmt> = vec![
        builder::shared(sdata, ScalarType::Float, &[REDUCTION_BLOCK]),
        Stmt::decl_float("acc", Expr::Float(0.0)),
    ];
    // Element index of iteration e: (idx − tidx)·E + e·B + tidx — coalesced.
    let elem = |e_var: &str| {
        Expr::Builtin(Builtin::IdX)
            .sub(tidx.clone())
            .mul(Expr::Int(e))
            .add(Expr::var(e_var).mul(Expr::Int(REDUCTION_BLOCK)))
            .add(tidx.clone())
    };
    let acc_term = pattern
        .map_expr
        .clone()
        .subst_builtin(Builtin::IdX, &elem("e"));
    // Hoist each distinct global load into a register (the paper's `f2`
    // variable): `fabsf(a[g].x) + fabsf(a[g].y)` must load `a[g]` once.
    let mut loads: Vec<(String, Expr, ScalarType)> = Vec::new();
    let acc_term = {
        let loads_cell = std::cell::RefCell::new(&mut loads);
        let params = &stage1_params;
        acc_term.map(&|expr| match &expr {
            Expr::Index { array, .. } => {
                let Some(param) = params.iter().find(|p| &p.name == array) else {
                    return expr;
                };
                let mut loads = loads_cell.borrow_mut();
                if let Some((name, _, _)) = loads.iter().find(|(_, e, _)| e == &expr) {
                    return Expr::Var(name.clone());
                }
                let name = format!("v{}", loads.len());
                loads.push((name.clone(), expr.clone(), param.ty));
                Expr::Var(name)
            }
            _ => expr,
        })
    };
    let mut loop_body: Vec<Stmt> = loads
        .into_iter()
        .map(|(name, expr, ty)| Stmt::DeclScalar {
            name,
            ty,
            init: Some(expr),
        })
        .collect();
    loop_body.push(builder::add_assign(LValue::Var("acc".into()), acc_term));
    body.push(builder::for_up("e", Expr::Int(0), Expr::Int(e), 1, loop_body));
    body.push(builder::assign(
        LValue::index(sdata, vec![tidx.clone()]),
        Expr::var("acc"),
    ));
    body.push(Stmt::SyncThreads);
    body.extend(shared_tree(sdata, REDUCTION_BLOCK));
    body.push(builder::if_then(
        Expr::Binary(
            BinOp::Eq,
            Box::new(tidx.clone()),
            Box::new(Expr::Int(0)),
        ),
        vec![builder::assign(
            LValue::index(&partials, vec![Expr::Builtin(Builtin::BidX)]),
            Expr::index(sdata, vec![Expr::Int(0)]),
        )],
    ));
    let stage1 = Kernel::new(format!("{}_stage1", state.kernel.name), stage1_params, body);

    // Stage 2: fold the partials into the output.
    let (out_array, out_index) = &pattern.output;
    // The detected output array always comes from this kernel's parameter
    // list; if it somehow does not, the rewrite is declined.
    let out_param = state
        .kernel
        .param(out_array)
        .ok_or(NOT_A_REDUCTION)?
        .clone();
    let stage2_params = vec![
        Param::array(&partials, ScalarType::Float, vec![Dim::Const(PARTIALS)]),
        out_param,
    ];
    let mut body2: Vec<Stmt> = vec![
        builder::shared(sdata, ScalarType::Float, &[PARTIALS]),
        builder::assign(
            LValue::index(sdata, vec![tidx.clone()]),
            Expr::index(&partials, vec![tidx.clone()]),
        ),
        Stmt::SyncThreads,
    ];
    body2.extend(shared_tree(sdata, PARTIALS));
    body2.push(builder::if_then(
        Expr::Binary(BinOp::Eq, Box::new(tidx), Box::new(Expr::Int(0))),
        vec![builder::assign(
            LValue::index(out_array, vec![Expr::Int(*out_index)]),
            Expr::index(sdata, vec![Expr::Int(0)]),
        )],
    ));
    let stage2 = Kernel::new(format!("{}_stage2", state.kernel.name), stage2_params, body2);

    Ok(ReductionRewrite {
        stage1,
        stage1_launch: LaunchConfig::one_d(grid as u32, REDUCTION_BLOCK as u32),
        stage2,
        stage2_launch: LaunchConfig::one_d(1, PARTIALS as u32),
        partials,
        elems_per_thread: e,
        len,
    })
}

/// The classic shared-memory halving tree over `size` slots.
fn shared_tree(sdata: &str, size: i64) -> Vec<Stmt> {
    let tidx = Expr::Builtin(Builtin::TidX);
    vec![Stmt::For(ForLoop {
        var: "stride".into(),
        init: Expr::Int(size / 2),
        cmp: BinOp::Gt,
        bound: Expr::Int(0),
        update: LoopUpdate::ShrAssign(1),
        body: vec![
            builder::if_then(
                tidx.clone().lt(Expr::var("stride")),
                vec![builder::assign(
                    LValue::index(sdata, vec![tidx.clone()]),
                    Expr::index(sdata, vec![tidx.clone()]).add(Expr::index(
                        sdata,
                        vec![tidx.clone().add(Expr::var("stride"))],
                    )),
                )],
            ),
            Stmt::SyncThreads,
        ],
    })]
}

/// Matches the naive gsync-tree reduction shape.
fn match_pattern(state: &PipelineState) -> Option<ReductionPattern> {
    let kernel = &state.kernel;
    if !kernel.uses_global_sync() {
        return None;
    }
    let body = &kernel.body;
    // Optional preamble: t[idx] = map(idx); __gsync();
    let mut pos = 0;
    let mut preamble: Option<(String, Expr)> = None;
    if let Some(Stmt::Assign {
        lhs: LValue::Index { array, indices },
        rhs,
    }) = body.first()
    {
        if indices.len() == 1
            && indices[0] == Expr::Builtin(Builtin::IdX)
            && kernel.param(array).is_some()
        {
            preamble = Some((array.clone(), rhs.clone()));
            pos = 1;
            if matches!(body.get(pos), Some(Stmt::GlobalSync)) {
                pos += 1;
            }
        }
    }
    // The halving tree loop.
    let Stmt::For(l) = body.get(pos)? else {
        return None;
    };
    let halving = matches!(l.update, LoopUpdate::ShrAssign(1) | LoopUpdate::DivAssign(2));
    if !halving || l.cmp != BinOp::Gt || l.bound.as_int() != Some(0) {
        return None;
    }
    // Tree body: if (idx < s) { t[idx] = t[idx] + t[idx+s]; } __gsync();
    let [Stmt::If {
        cond,
        then_body,
        else_body,
    }, Stmt::GlobalSync] = l.body.as_slice()
    else {
        return None;
    };
    if !else_body.is_empty() {
        return None;
    }
    let Expr::Binary(BinOp::Lt, lhs_c, rhs_c) = cond else {
        return None;
    };
    if **lhs_c != Expr::Builtin(Builtin::IdX) || **rhs_c != Expr::var(&l.var) {
        return None;
    }
    let [Stmt::Assign { lhs, rhs }] = then_body.as_slice() else {
        return None;
    };
    let LValue::Index {
        array: tree_array,
        indices,
    } = lhs
    else {
        return None;
    };
    if indices.as_slice() != [Expr::Builtin(Builtin::IdX)] {
        return None;
    }
    // rhs must be t[idx] + t[idx + s].
    let expect = Expr::index(tree_array, vec![Expr::Builtin(Builtin::IdX)]).add(Expr::index(
        tree_array,
        vec![Expr::Builtin(Builtin::IdX).add(Expr::var(&l.var))],
    ));
    if rhs != &expect {
        return None;
    }
    // Tail: if (idx == 0) { out[k] = t[0]; }
    let Stmt::If {
        cond: tail_cond,
        then_body: tail_then,
        else_body: tail_else,
    } = body.get(pos + 1)?
    else {
        return None;
    };
    if !tail_else.is_empty() || body.len() != pos + 2 {
        return None;
    }
    let Expr::Binary(BinOp::Eq, c_l, c_r) = tail_cond else {
        return None;
    };
    if **c_l != Expr::Builtin(Builtin::IdX) || **c_r != Expr::Int(0) {
        return None;
    }
    let [Stmt::Assign {
        lhs: LValue::Index {
            array: out_array,
            indices: out_ix,
        },
        rhs: out_rhs,
    }] = tail_then.as_slice()
    else {
        return None;
    };
    let out_index = out_ix.first()?.as_int()?;
    if out_rhs != &Expr::index(tree_array, vec![Expr::Int(0)]) {
        return None;
    }

    // The tree length: loop init = len/2.
    let pragma_sizes = kernel.pragma_sizes();
    let resolve = |name: &str| {
        state
            .bindings
            .get(name)
            .copied()
            .or_else(|| pragma_sizes.get(name).copied())
    };
    let init = gpgpu_analysis::Affine::from_expr(&l.init, &resolve)?.as_constant()?;
    let len = init * 2;
    if len <= 0 || (len & (len - 1)) != 0 {
        return None; // power-of-two trees only
    }

    // Respect the output pragma: the tree temp is eliminated when it is not
    // a declared output.
    let outputs = kernel.output_arrays();
    let map_expr = match preamble {
        Some((t, map)) if &t == tree_array && !outputs.contains(&t) => map,
        Some((t, _)) if &t == tree_array => return None, // temp is live output
        _ => Expr::index(tree_array, vec![Expr::Builtin(Builtin::IdX)]),
    };

    Some(ReductionPattern {
        tree_array: tree_array.clone(),
        map_expr,
        output: (out_array.clone(), out_index),
        len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_analysis::Bindings;
    use gpgpu_ast::{parse_kernel, print_kernel, PrintOptions};

    const RD: &str = r#"
        #pragma gpgpu output c
        __global__ void rd(float a[len], float c[1], int len) {
            for (int s = 2097152; s > 0; s = s >> 1) {
                if (idx < s) { a[idx] = a[idx] + a[idx + s]; }
                __gsync();
            }
            if (idx == 0) { c[0] = a[0]; }
        }
    "#;

    fn state(src: &str, binds: &[(&str, i64)]) -> PipelineState {
        let k = parse_kernel(src).unwrap();
        let bindings: Bindings = binds.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        PipelineState::new(k, bindings)
    }

    #[test]
    fn plain_reduction_rewrites() {
        let st = state(RD, &[("len", 4 * 1024 * 1024)]);
        let rw = rewrite_reduction(&st, None).unwrap();
        assert_eq!(rw.len, 4 * 1024 * 1024);
        assert_eq!(rw.elems_per_thread, 64);
        assert_eq!(rw.stage1_launch.grid_x, 256);
        assert_eq!(rw.stage1_launch.block_x, 256);
        assert_eq!(rw.stage2_launch.grid_x, 1);
        let s1 = print_kernel(&rw.stage1, PrintOptions::default());
        assert!(s1.contains("__shared__ float sdata[256];"), "{s1}");
        assert!(s1.contains("float v0 = a[(idx - tidx) * 64 + e * 256 + tidx];"), "{s1}");
        assert!(s1.contains("acc = acc + v0;"), "{s1}");
        assert!(s1.contains("rd_partial[bidx] = sdata[0];"), "{s1}");
        let s2 = print_kernel(&rw.stage2, PrintOptions::default());
        assert!(s2.contains("c[0] = sdata[0];"), "{s2}");
    }

    #[test]
    fn complex_map_inlined_and_temp_eliminated() {
        // The temp array t is not a declared output — its global writes are
        // eliminated and the map expression moves into the accumulation.
        let src = r#"
            #pragma gpgpu output c
            __global__ void rdc(float a[len2], float t[len], float c[1], int len, int len2) {
                t[idx] = a[2 * idx] + a[2 * idx + 1];
                __gsync();
                for (int s = 524288; s > 0; s = s >> 1) {
                    if (idx < s) { t[idx] = t[idx] + t[idx + s]; }
                    __gsync();
                }
                if (idx == 0) { c[0] = t[0]; }
            }
        "#;
        let st = state(src, &[("len", 1 << 20), ("len2", 1 << 21)]);
        let rw = rewrite_reduction(&st, None).unwrap();
        let s1 = print_kernel(&rw.stage1, PrintOptions::default());
        // t never appears; a is read with the mapped index.
        assert!(!s1.contains("t["), "{s1}");
        assert!(s1.contains("a[2 * ("), "{s1}");
        assert!(rw.stage1.param("a").is_some());
        assert!(rw.stage1.param("t").is_none());
    }

    #[test]
    fn elems_per_thread_override() {
        let st = state(RD, &[("len", 4 * 1024 * 1024)]);
        let rw = rewrite_reduction(&st, Some(256)).unwrap();
        assert_eq!(rw.elems_per_thread, 256);
        assert_eq!(rw.stage1_launch.grid_x, 64);
        assert_eq!(auto_elems_per_thread(&st), Some(64));
    }

    #[test]
    fn refusals_name_their_cause() {
        // 4 Mi elements at 4 per thread need 4096 blocks of 256 threads.
        let st = state(RD, &[("len", 4 * 1024 * 1024)]);
        let err = rewrite_reduction(&st, Some(4)).unwrap_err();
        assert!(
            err.contains("4096 blocks") && err.contains("256 partials"),
            "{err}"
        );
        let err = rewrite_reduction(&st, Some(3)).unwrap_err();
        assert!(
            err.contains("does not divide into 256-thread blocks"),
            "{err}"
        );
    }

    #[test]
    fn non_reduction_kernels_rejected() {
        let st = state(
            "__global__ void cp(float a[n], float c[n], int n) { c[idx] = a[idx]; }",
            &[("n", 1024)],
        );
        let err = rewrite_reduction(&st, None).unwrap_err();
        assert!(err.contains("pattern"), "{err}");
        assert_eq!(auto_elems_per_thread(&st), None);
    }

    #[test]
    fn live_temp_rejected() {
        // Without the output pragma the tree array is a live output: the
        // two-stage rewrite would drop its writes, so the compiler refuses.
        let src = r#"
            __global__ void rd(float a[len], float c[1], int len) {
                a[idx] = a[idx] * 2.0f;
                __gsync();
                for (int s = 512; s > 0; s = s >> 1) {
                    if (idx < s) { a[idx] = a[idx] + a[idx + s]; }
                    __gsync();
                }
                if (idx == 0) { c[0] = a[0]; }
            }
        "#;
        let st = state(src, &[("len", 1024)]);
        assert!(rewrite_reduction(&st, None).is_err());
    }

    #[test]
    fn non_power_of_two_rejected() {
        let src = r#"
            #pragma gpgpu output c
            __global__ void rd(float a[len], float c[1], int len) {
                for (int s = 500; s > 0; s = s >> 1) {
                    if (idx < s) { a[idx] = a[idx] + a[idx + s]; }
                    __gsync();
                }
                if (idx == 0) { c[0] = a[0]; }
            }
        "#;
        let st = state(src, &[("len", 1000)]);
        assert!(rewrite_reduction(&st, None).is_err());
    }
}
