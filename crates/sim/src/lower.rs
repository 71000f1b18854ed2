//! Lowering: a [`Kernel`] plus its launch context becomes a slot-resolved
//! [`Program`] the execution core ([`crate::exec`]) runs without looking a
//! name up again.
//!
//! Resolved once per launch: local variables, `__shared__` arrays and
//! global buffers become dense slot indices; bound scalar parameters become
//! constants; each loop's exit test is built once; and every integer
//! expression in the affine fragment (`+`, `-`, `*`, unary `-`, `<< k` over
//! literals, bound scalars, builtins and variables) is pre-folded with
//! [`gpgpu_analysis::Affine`] into `constant + block part + lane table +
//! Σ coeff·var`. The lane table holds the thread-coordinate part for every
//! lane of a block and is shared by all forms with equal coefficients; the
//! rest is lane-invariant whenever the variables are, so an `l[r][k]`-style
//! subscript costs one scalar evaluation per warp-step.
//!
//! Lowering never changes what a launch observes. A folded form remembers
//! how many operator nodes it replaced (they still issue warp
//! instructions), keeps the structural lowering of the same expression as
//! a fallback for the case the executor finds a variable that is not an
//! integer at run time, and folds only where wrapping `i64` arithmetic
//! makes the folded and the nested evaluation agree bit for bit.

use crate::device::Device;
use crate::exec::ExecError;
use crate::value::Val;
use gpgpu_analysis::affine::Sym;
use gpgpu_analysis::{Affine, Bindings};
use gpgpu_ast::{
    BinOp, Builtin, Expr as AstExpr, Field, Kernel, LValue, LaunchConfig, LoopUpdate, ParamKind,
    ScalarType, Stmt as AstStmt, UnOp,
};
use std::collections::HashMap;

/// A kernel lowered for one launch.
pub(crate) struct Program {
    pub body: Vec<Stmt>,
    /// Variable slots (scalar declarations and loop variables, by name).
    pub vars: Vec<VarInfo>,
    /// Names of the `__shared__` array slots.
    pub shared: Vec<String>,
    /// Global buffers the kernel subscripts, resolved against the device.
    pub globals: Vec<Global>,
    /// Lane tables of the folded affine forms, `nt` entries each.
    pub tables: Vec<Vec<i64>>,
    pub cfg: LaunchConfig,
    /// Lanes per executed block (the whole grid in mega-block mode).
    pub nt: usize,
    /// Mega-block mode: the kernel uses `__gsync()`.
    pub mega: bool,
}

pub(crate) struct VarInfo {
    pub name: String,
    /// Value of the scalar parameter of the same name, which a read sees
    /// until the variable's declaration has executed.
    pub scalar: Option<i64>,
}

/// Launch-constant facts of one global buffer.
pub(crate) struct Global {
    /// Slot in the [`Device`].
    pub slot: usize,
    /// Per-dimension index limits: the extent, or the row pitch for the
    /// innermost dimension (the compiler pads allocations).
    pub limits: Vec<i64>,
    /// Per-dimension element strides.
    pub strides: Vec<i64>,
    pub elem: ScalarType,
    pub base_addr: i64,
    pub phantom: bool,
    /// Logical extent of the innermost dimension; indices from here up to
    /// the row pitch are padding.
    pub row_len: i64,
}

/// A subscripted array: whichever of the two spaces the name resolves to
/// when the access executes (a `__shared__` declaration wins once it ran).
pub(crate) struct ArrayRef {
    pub name: String,
    pub shared: Option<usize>,
    pub global: Option<usize>,
}

pub(crate) enum Stmt {
    Decl {
        var: usize,
        ty: ScalarType,
        init: Option<Expr>,
    },
    DeclShared {
        shared: usize,
        ty: ScalarType,
        dims: Vec<i64>,
    },
    Assign {
        lhs: Place,
        rhs: Expr,
    },
    For(Box<Loop>),
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
    },
    SyncThreads,
    GlobalSync,
    Call(String),
}

pub(crate) enum Place {
    Var(usize),
    Field(usize, Field),
    Index(ArrayRef, Vec<Expr>),
}

pub(crate) struct Loop {
    pub var: usize,
    pub init: Expr,
    /// The bound alone, evaluated once when deciding loop truncation.
    pub bound: Expr,
    /// The exit test `var <cmp> bound`.
    pub cond: Expr,
    pub update: LoopUpdate,
    /// The step of a `var < bound; var += step` loop with `step > 0` — the
    /// only shape a timing trace may truncate.
    pub counted_step: Option<i64>,
    pub body: Vec<Stmt>,
}

pub(crate) enum Expr {
    Const(Val),
    Var(usize),
    Affine(Box<AffineExpr>),
    Index(ArrayRef, Vec<Expr>),
    Field(Box<Expr>, Field),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    Call(String, Vec<Expr>),
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
    Cast(ScalarType, Box<Expr>),
}

/// `konst + bid.0·bidx + bid.1·bidy + table[lane] + Σ coeff·var`.
pub(crate) struct AffineExpr {
    pub konst: i64,
    pub bid: (i64, i64),
    pub table: Option<usize>,
    /// The `(slot, coeff)` variable terms, if any, with the structural
    /// lowering of the same expression — the fallback the executor takes
    /// when one of them is undefined or not an integer at run time.
    pub vars: Option<(Vec<(usize, i64)>, Expr)>,
    /// Unary and binary operator nodes folded away; each still issues one
    /// warp instruction per active warp.
    pub ops: u64,
}

/// Coefficient bound below which folding cannot overflow `i64`.
const FOLD_LIMIT: f64 = (1u64 << 62) as f64;

/// Lowers `kernel` for a launch of `cfg` against `device`.
///
/// # Errors
///
/// [`ExecError::UnboundScalar`] for a scalar parameter without a value, and
/// [`ExecError::BarrierMisuse`] for a `__gsync()` kernel on a 2-D launch.
pub(crate) fn lower(
    kernel: &Kernel,
    cfg: &LaunchConfig,
    bindings: &Bindings,
    device: &Device,
) -> Result<Program, ExecError> {
    let pragma_sizes = kernel.pragma_sizes();
    let mut scalars = HashMap::new();
    for p in kernel
        .params
        .iter()
        .filter(|p| p.kind() == ParamKind::Scalar)
    {
        let v = bindings
            .get(&p.name)
            .or_else(|| pragma_sizes.get(&p.name))
            .ok_or_else(|| ExecError::UnboundScalar(p.name.clone()))?;
        scalars.insert(p.name.as_str(), *v);
    }
    let mega = kernel.uses_global_sync();
    if mega && (cfg.grid_y != 1 || cfg.block_y != 1) {
        return Err(ExecError::BarrierMisuse(
            "__gsync() kernels must use a 1-D launch".into(),
        ));
    }
    let nt = if mega {
        (cfg.grid_x * cfg.block_x) as usize
    } else {
        cfg.threads_per_block() as usize
    };
    let mut lowerer = Lowerer {
        device,
        scalars,
        program: Program {
            body: Vec::new(),
            vars: Vec::new(),
            shared: Vec::new(),
            globals: Vec::new(),
            tables: Vec::new(),
            cfg: *cfg,
            nt,
            mega,
        },
        var_slots: HashMap::new(),
        shared_slots: HashMap::new(),
        global_slots: HashMap::new(),
        table_slots: HashMap::new(),
    };
    lowerer.declare(&kernel.body);
    lowerer.program.body = lowerer.body(&kernel.body);
    Ok(lowerer.program)
}

struct Lowerer<'a> {
    device: &'a Device,
    scalars: HashMap<&'a str, i64>,
    program: Program,
    var_slots: HashMap<&'a str, usize>,
    shared_slots: HashMap<&'a str, usize>,
    global_slots: HashMap<&'a str, Option<usize>>,
    /// Lane-coefficient vector → slot in `program.tables`.
    table_slots: HashMap<[i64; 3], usize>,
}

impl<'a> Lowerer<'a> {
    /// Gives every declared variable and shared array its slot, so a use
    /// that textually precedes the declaration (inside a loop) shares it.
    fn declare(&mut self, body: &'a [AstStmt]) {
        for stmt in body {
            match stmt {
                AstStmt::DeclScalar { name, .. } => {
                    self.var(name);
                }
                AstStmt::DeclShared { name, .. } => {
                    let next = self.program.shared.len();
                    if *self.shared_slots.entry(name).or_insert(next) == next {
                        self.program.shared.push(name.clone());
                    }
                }
                AstStmt::For(l) => {
                    self.var(&l.var);
                    self.declare(&l.body);
                }
                AstStmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    self.declare(then_body);
                    self.declare(else_body);
                }
                _ => {}
            }
        }
    }

    fn var(&mut self, name: &'a str) -> usize {
        let next = self.program.vars.len();
        let slot = *self.var_slots.entry(name).or_insert(next);
        if slot == next {
            self.program.vars.push(VarInfo {
                name: name.to_string(),
                scalar: self.scalars.get(name).copied(),
            });
        }
        slot
    }

    /// The value of a scalar parameter no declaration shadows.
    fn pure_scalar(&self, name: &str) -> Option<i64> {
        if self.var_slots.contains_key(name) {
            return None;
        }
        self.scalars.get(name).copied()
    }

    fn array(&mut self, name: &'a str) -> ArrayRef {
        let device = self.device;
        let globals = &mut self.program.globals;
        let global = *self.global_slots.entry(name).or_insert_with(|| {
            let slot = device.slot(name)?;
            let buffer = &device.slots()[slot];
            let layout = &buffer.layout;
            let rank = layout.dims.len();
            let mut limits = layout.dims.clone();
            limits[rank - 1] = layout.row_pitch;
            globals.push(Global {
                slot,
                limits,
                strides: (0..rank).map(|d| layout.stride(d)).collect(),
                elem: layout.elem,
                base_addr: buffer.base_addr,
                phantom: buffer.is_phantom(),
                row_len: layout.dims[rank - 1],
            });
            Some(globals.len() - 1)
        });
        ArrayRef {
            name: name.to_string(),
            shared: self.shared_slots.get(name).copied(),
            global,
        }
    }

    fn body(&mut self, body: &'a [AstStmt]) -> Vec<Stmt> {
        body.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, stmt: &'a AstStmt) -> Stmt {
        match stmt {
            AstStmt::DeclScalar { name, ty, init } => Stmt::Decl {
                var: self.var(name),
                ty: *ty,
                init: init.as_ref().map(|e| self.expr(e, true)),
            },
            AstStmt::DeclShared { name, ty, dims } => Stmt::DeclShared {
                shared: self.shared_slots[name.as_str()],
                ty: *ty,
                dims: dims.clone(),
            },
            AstStmt::Assign { lhs, rhs } => Stmt::Assign {
                lhs: match lhs {
                    LValue::Var(name) => Place::Var(self.var(name)),
                    LValue::Field(name, field) => Place::Field(self.var(name), *field),
                    LValue::Index { array, indices } => Place::Index(
                        self.array(array),
                        indices.iter().map(|e| self.expr(e, true)).collect(),
                    ),
                },
                rhs: self.expr(rhs, true),
            },
            AstStmt::For(l) => {
                let var = self.var(&l.var);
                let bound = self.expr(&l.bound, true);
                let cond = Expr::Binary(
                    l.cmp,
                    Box::new(Expr::Var(var)),
                    Box::new(self.expr(&l.bound, true)),
                );
                let counted_step = match l.update {
                    LoopUpdate::AddAssign(step) if step > 0 && l.cmp == BinOp::Lt => Some(step),
                    _ => None,
                };
                Stmt::For(Box::new(Loop {
                    var,
                    init: self.expr(&l.init, true),
                    bound,
                    cond,
                    update: l.update.clone(),
                    counted_step,
                    body: self.body(&l.body),
                }))
            }
            AstStmt::If {
                cond,
                then_body,
                else_body,
            } => Stmt::If {
                cond: self.expr(cond, true),
                then_body: self.body(then_body),
                else_body: self.body(else_body),
            },
            AstStmt::SyncThreads => Stmt::SyncThreads,
            AstStmt::GlobalSync => Stmt::GlobalSync,
            AstStmt::CallStmt(name, _) => Stmt::Call(name.clone()),
        }
    }

    /// Lowers an expression. `fold_vars` is off inside a fallback, whose
    /// variable-dependent forms would only fail the same run-time check.
    fn expr(&mut self, e: &'a AstExpr, fold_vars: bool) -> Expr {
        if let Some(folded) = self.fold(e, fold_vars) {
            return folded;
        }
        let mut sub = |e: &'a AstExpr| Box::new(self.expr(e, fold_vars));
        match e {
            AstExpr::Int(v) => Expr::Const(Val::I(*v)),
            AstExpr::Float(v) => Expr::Const(Val::F(*v as f32)),
            AstExpr::Var(name) => match self.pure_scalar(name) {
                Some(v) => Expr::Const(Val::I(v)),
                // A name nothing declares gets a slot that is never
                // defined: reading it reports the undefined variable.
                None => Expr::Var(self.var(name)),
            },
            AstExpr::Builtin(_) => unreachable!("builtins always fold"),
            AstExpr::Index { array, indices } => Expr::Index(
                self.array(array),
                indices.iter().map(|e| self.expr(e, fold_vars)).collect(),
            ),
            AstExpr::Field(base, field) => Expr::Field(sub(base), *field),
            AstExpr::Unary(op, inner) => Expr::Unary(*op, sub(inner)),
            AstExpr::Binary(op, l, r) => Expr::Binary(*op, sub(l), sub(r)),
            AstExpr::Call(name, args) => Expr::Call(
                name.clone(),
                args.iter().map(|e| self.expr(e, fold_vars)).collect(),
            ),
            AstExpr::Select(c, t, f) => Expr::Select(sub(c), sub(t), sub(f)),
            AstExpr::Cast(ty, inner) => Expr::Cast(*ty, sub(inner)),
        }
    }

    /// Largest magnitude any coefficient of `e`'s affine form can reach, or
    /// `None` outside the fragment that folds exactly.
    fn magnitude(&self, e: &AstExpr) -> Option<f64> {
        Some(match e {
            AstExpr::Int(v) => v.unsigned_abs() as f64,
            AstExpr::Var(name) => self
                .pure_scalar(name)
                .map_or(1.0, |v| v.unsigned_abs() as f64),
            AstExpr::Builtin(_) => 1.0,
            AstExpr::Unary(UnOp::Neg, inner) => self.magnitude(inner)?,
            AstExpr::Binary(BinOp::Add | BinOp::Sub, l, r) => {
                self.magnitude(l)? + self.magnitude(r)?
            }
            AstExpr::Binary(BinOp::Mul, l, r) => self.magnitude(l)? * self.magnitude(r)?,
            AstExpr::Binary(BinOp::Shl, l, r) => match **r {
                AstExpr::Int(k) if (0..=62).contains(&k) => self.magnitude(l)? * (1u64 << k) as f64,
                _ => return None,
            },
            _ => return None,
        })
    }

    fn fold(&mut self, e: &'a AstExpr, fold_vars: bool) -> Option<Expr> {
        if !matches!(
            e,
            AstExpr::Builtin(_) | AstExpr::Unary(..) | AstExpr::Binary(..)
        ) || self.magnitude(e)? > FOLD_LIMIT
        {
            return None;
        }
        let form = Affine::from_expr(e, &|name| self.pure_scalar(name))?;
        if !fold_vars && form.depends_on_any_var() {
            return None;
        }
        let (bx, by) = (
            self.program.cfg.block_x as i64,
            self.program.cfg.block_y as i64,
        );
        let (gx, gy) = (
            self.program.cfg.grid_x as i64,
            self.program.cfg.grid_y as i64,
        );
        let mut out = AffineExpr {
            konst: form.constant_part(),
            bid: (0, 0),
            table: None,
            vars: None,
            ops: 0,
        };
        let mut vars = Vec::new();
        // Lane-varying coefficients: [tidx, tidy] per block, or
        // [lane, lane % bx, lane / bx] in mega-block mode.
        let mut lane = [0i64; 3];
        for (sym, c) in form.iter() {
            let b = match sym {
                Sym::Var(name) => {
                    vars.push((*self.var_slots.get(name.as_str())?, c));
                    continue;
                }
                Sym::Builtin(b) => *b,
            };
            let mega = self.program.mega;
            let add = |into: &mut i64, k: i64| *into = into.wrapping_add(c.wrapping_mul(k));
            match b {
                // Mega-block mode is 1-D and the lane is the thread id.
                Builtin::IdX if mega => add(&mut lane[0], 1),
                Builtin::TidX if mega => add(&mut lane[1], 1),
                Builtin::BidX if mega => add(&mut lane[2], 1),
                Builtin::IdY | Builtin::TidY | Builtin::BidY if mega => {}
                Builtin::BlockDimY | Builtin::GridDimY if mega => add(&mut out.konst, 1),
                Builtin::IdX => {
                    add(&mut lane[0], 1);
                    add(&mut out.bid.0, bx);
                }
                Builtin::IdY => {
                    add(&mut lane[1], 1);
                    add(&mut out.bid.1, by);
                }
                Builtin::TidX => add(&mut lane[0], 1),
                Builtin::TidY => add(&mut lane[1], 1),
                Builtin::BidX => add(&mut out.bid.0, 1),
                Builtin::BidY => add(&mut out.bid.1, 1),
                Builtin::BlockDimX => add(&mut out.konst, bx),
                Builtin::BlockDimY => add(&mut out.konst, by),
                Builtin::GridDimX => add(&mut out.konst, gx),
                Builtin::GridDimY => add(&mut out.konst, gy),
            }
        }
        if !self.program.mega {
            // A coordinate of a 1-wide block is 0 for every lane.
            lane[0] *= i64::from(bx > 1);
            lane[1] *= i64::from(by > 1);
        }
        if lane != [0; 3] {
            out.table = Some(self.table(lane));
        }
        e.walk(&mut |n| {
            out.ops += u64::from(matches!(n, AstExpr::Unary(..) | AstExpr::Binary(..)))
        });
        if !vars.is_empty() {
            out.vars = Some((vars, self.expr(e, false)));
        }
        Some(Expr::Affine(Box::new(out)))
    }

    fn table(&mut self, coeffs: [i64; 3]) -> usize {
        let program = &mut self.program;
        *self.table_slots.entry(coeffs).or_insert_with(|| {
            let bx = program.cfg.block_x as i64;
            let term = |c: i64, v: i64| c.wrapping_mul(v);
            let lanes = 0..program.nt as i64;
            program.tables.push(if program.mega {
                lanes
                    .map(|l| {
                        term(coeffs[0], l)
                            .wrapping_add(term(coeffs[1], l % bx))
                            .wrapping_add(term(coeffs[2], l / bx))
                    })
                    .collect()
            } else {
                lanes
                    .map(|l| term(coeffs[0], l % bx).wrapping_add(term(coeffs[1], l / bx)))
                    .collect()
            });
            program.tables.len() - 1
        })
    }
}
