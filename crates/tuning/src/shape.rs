//! The kernel *shape* fingerprint the tuning store is keyed by.
//!
//! The compile cache is content-addressed: byte-identical source + options
//! map to one artifact. The tuning store keys on something deliberately
//! coarser — the paper's §3.4 access-pattern classification — so a renamed
//! kernel, a changed literal, or a reformatted body all land on the same
//! entry and inherit its explored design space. Two kernels share a shape
//! when they have:
//!
//! - the same sequence of global accesses, each with the same per-dimension
//!   index classes (constant / predefined-id / loop / unresolved), the same
//!   coalescing verdict, the same load target (G2S/G2R), and the same
//!   enclosing-loop structure (count, start, step);
//! - the same output-domain dimensionality;
//! - the same target machine, cost model, enabled stages, and explore grid
//!   (a winner found under one search grid or timing model must not
//!   warm-start a different one).
//!
//! Array *names* are replaced by first-appearance ordinals and literal
//! values outside index expressions never enter the hash. Concrete input
//! sizes are excluded from the structure and carried separately as the
//! [`KernelShape::size`] point, so the store can answer a new size from its
//! nearest recorded neighbor.

use gpgpu_analysis::{
    collect_accesses, resolve_layouts_padded, AccessTarget, Bindings, CoalesceVerdict,
    IndexClass, NonCoalescedReason,
};
use gpgpu_ast::Kernel;

/// FNV-1a offset basis (the same dual-stream scheme as the compile cache).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One 64-bit FNV-1a stream step over `bytes`, continuing from `hash` —
/// the workspace's one FNV (shape and cache fingerprints, record checksums).
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A 128-bit dual-stream FNV-1a fingerprint with field separators, matching
/// the compile cache's collision-resistance scheme.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fp {
    lo: u64,
    hi: u64,
}

impl Fp {
    pub(crate) fn new() -> Fp {
        Fp {
            lo: FNV_OFFSET,
            hi: fnv1a(FNV_OFFSET, b"gpgpu-tuning"),
        }
    }

    /// Mixes one delimited field into both streams.
    pub(crate) fn field(&mut self, bytes: &[u8]) {
        self.lo = fnv1a(self.lo, bytes);
        self.lo = fnv1a(self.lo, &[0xff]);
        self.hi = fnv1a(self.hi, &[0xfe]);
        self.hi = fnv1a(self.hi, bytes);
    }

    /// The 32-hex-digit rendering.
    pub(crate) fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// The tuning-store key for one compilation: a structural fingerprint plus
/// the concrete size point it was compiled at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelShape {
    /// 32-hex-digit access-pattern fingerprint (see the module docs for
    /// what it does and does not observe).
    pub structure: String,
    /// The size point: the output-domain extents followed by the sorted
    /// size-binding values. Exact matches warm-start directly; other points
    /// of the same structure are *neighbors*.
    pub size: Vec<i64>,
}

/// Everything the shape fingerprint observes besides the kernel itself.
#[derive(Debug, Clone)]
pub struct ShapeContext<'a> {
    /// Concrete size bindings (sizes feed the size point, not the hash).
    pub bindings: &'a Bindings,
    /// Target machine name.
    pub machine: &'a str,
    /// Timing model ranking the candidates.
    pub cost_model: &'a str,
    /// Enabled-stage bits (any stable encoding).
    pub stage_bits: u8,
    /// Signature of the explore grid (the factor vectors searched).
    pub grid_sig: &'a str,
    /// Inferred output-domain extents.
    pub domain: (i64, i64),
}

fn class_tag(class: &IndexClass) -> String {
    match class {
        IndexClass::Constant(v) => format!("c{v}"),
        IndexClass::Predefined => "p".to_string(),
        IndexClass::Loop(_) => "l".to_string(),
        IndexClass::Unresolved => "u".to_string(),
    }
}

fn verdict_tag(verdict: CoalesceVerdict) -> &'static str {
    match verdict {
        CoalesceVerdict::Coalesced => "C",
        CoalesceVerdict::NotCoalesced(NonCoalescedReason::BadOffsets) => "B",
        CoalesceVerdict::NotCoalesced(NonCoalescedReason::MisalignedBase) => "M",
        CoalesceVerdict::Unresolved => "U",
    }
}

/// Computes the shape of `kernel` under `ctx`, or `None` when the access
/// analysis cannot resolve the kernel's layouts (such kernels fall back to
/// full exploration — the store never guesses).
pub fn kernel_shape(kernel: &Kernel, ctx: &ShapeContext<'_>) -> Option<KernelShape> {
    let layouts = resolve_layouts_padded(kernel, ctx.bindings).ok()?;
    let accesses = collect_accesses(kernel, &layouts, ctx.bindings);

    let mut fp = Fp::new();
    fp.field(b"gpgpu-tuning/v1");
    fp.field(ctx.machine.as_bytes());
    fp.field(ctx.cost_model.as_bytes());
    fp.field(&[ctx.stage_bits]);
    fp.field(ctx.grid_sig.as_bytes());
    fp.field(if ctx.domain.1 > 1 { b"2d" } else { b"1d" });
    fp.field(if kernel.uses_global_sync() {
        b"gsync"
    } else {
        b"flat"
    });

    // Array names are mutation-sensitive; replace them with the order the
    // access walk first sees them.
    let mut ordinals: Vec<&str> = Vec::new();
    for a in accesses.iter() {
        let ordinal = match ordinals.iter().position(|n| *n == a.array) {
            Some(i) => i,
            None => {
                ordinals.push(&a.array);
                ordinals.len() - 1
            }
        };
        let mut desc = format!(
            "a{ordinal}:d{}:{}:{}:{}",
            a.indices.len(),
            verdict_tag(a.verdict),
            match a.target {
                AccessTarget::Register => "R",
                AccessTarget::Shared => "S",
            },
            if a.is_write { "w" } else { "r" },
        );
        for class in &a.classes {
            desc.push(':');
            desc.push_str(&class_tag(class));
        }
        for l in &a.loops {
            desc.push_str(&format!(
                ":L{}+{}",
                l.start.map_or_else(|| "?".to_string(), |v| v.to_string()),
                l.step.map_or_else(|| "?".to_string(), |v| v.to_string()),
            ));
        }
        fp.field(desc.as_bytes());
    }

    let mut size = vec![ctx.domain.0, ctx.domain.1];
    let mut bound: Vec<i64> = ctx.bindings.values().copied().collect();
    bound.sort_unstable();
    size.extend(bound);
    Some(KernelShape {
        structure: fp.hex(),
        size,
    })
}

/// Log-scale distance between two size points — the neighbor metric. Points
/// of different arity are infinitely far apart.
pub fn size_distance(a: &[i64], b: &[i64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| ((x.max(1) as f64).ln() - (y.max(1) as f64).ln()).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_ast::parse_kernel;

    const MM: &str = "__global__ void mm(float a[n][w], float b[w][n], float c[n][n], int n, int w) {
        float sum = 0.0f;
        for (int i = 0; i < w; i = i + 1) { sum += a[idy][i] * b[i][idx]; }
        c[idy][idx] = sum;
    }";

    /// `mm` with the kernel and arrays renamed and a literal changed — the
    /// kind of mutation the store must see through.
    const MM_MUTANT: &str = "__global__ void gemm(float lhs[n][w], float rhs[w][n], float out[n][n], int n, int w) {
        float acc = 5.0f;
        for (int i = 0; i < w; i = i + 1) { acc += lhs[idy][i] * rhs[i][idx]; }
        out[idy][idx] = acc;
    }";

    const MV: &str = "__global__ void mv(float a[n][w], float b[w], float c[n], int n, int w) {
        float sum = 0.0f;
        for (int i = 0; i < w; i = i + 1) { sum += a[idx][i] * b[i]; }
        c[idx] = sum;
    }";

    fn ctx(bindings: &Bindings, domain: (i64, i64)) -> ShapeContext<'_> {
        ShapeContext {
            bindings,
            machine: "GTX280",
            cost_model: "analytic",
            stage_bits: 0x1f,
            grid_sig: "bx8,16,32;ty4,8,16,32;tx2,4",
            domain,
        }
    }

    fn bindings(n: i64, w: i64) -> Bindings {
        [("n".to_string(), n), ("w".to_string(), w)]
            .into_iter()
            .collect()
    }

    #[test]
    fn renamed_and_retuned_literals_share_a_structure() {
        let b = bindings(512, 512);
        let base = kernel_shape(&parse_kernel(MM).unwrap(), &ctx(&b, (512, 512))).unwrap();
        let mutant =
            kernel_shape(&parse_kernel(MM_MUTANT).unwrap(), &ctx(&b, (512, 512))).unwrap();
        assert_eq!(base.structure, mutant.structure);
        assert_eq!(base.size, mutant.size);
    }

    #[test]
    fn different_access_patterns_get_different_structures() {
        let b = bindings(512, 512);
        let mm = kernel_shape(&parse_kernel(MM).unwrap(), &ctx(&b, (512, 512))).unwrap();
        let mv = kernel_shape(&parse_kernel(MV).unwrap(), &ctx(&b, (512, 1))).unwrap();
        assert_ne!(mm.structure, mv.structure);
    }

    #[test]
    fn sizes_change_the_point_not_the_structure() {
        let b1 = bindings(512, 512);
        let b2 = bindings(1024, 1024);
        let small = kernel_shape(&parse_kernel(MM).unwrap(), &ctx(&b1, (512, 512))).unwrap();
        let large = kernel_shape(&parse_kernel(MM).unwrap(), &ctx(&b2, (1024, 1024))).unwrap();
        assert_eq!(small.structure, large.structure);
        assert_ne!(small.size, large.size);
        assert!(size_distance(&small.size, &large.size) > 0.0);
        assert_eq!(size_distance(&small.size, &small.size), 0.0);
    }

    #[test]
    fn machine_model_and_grid_separate_entries() {
        let b = bindings(512, 512);
        let k = parse_kernel(MM).unwrap();
        let base = kernel_shape(&k, &ctx(&b, (512, 512))).unwrap();
        let mut other = ctx(&b, (512, 512));
        other.machine = "GTX8800";
        assert_ne!(base.structure, kernel_shape(&k, &other).unwrap().structure);
        let mut other = ctx(&b, (512, 512));
        other.cost_model = "hierarchy";
        assert_ne!(base.structure, kernel_shape(&k, &other).unwrap().structure);
        let mut other = ctx(&b, (512, 512));
        other.grid_sig = "bx8;ty4;tx2";
        assert_ne!(base.structure, kernel_shape(&k, &other).unwrap().structure);
    }
}
