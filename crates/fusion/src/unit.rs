//! The compile unit: what one request, one manifest line or one `gpgpuc`
//! invocation asks the compiler for — a single kernel, or an ordered
//! producer→consumer pair.
//!
//! Fusion is a step *in front of* the single-kernel pipeline, not a second
//! compiler, so the whole "try fused, else compile the members" policy
//! lives here: [`compile_unit`] decides, and [`UnitCompile::cache_artifact`]
//! renders whichever outcome it reached as the one artifact shape callers
//! cache and serve.

use crate::driver::{compile_fused, FusedCompile, FusionError};
use gpgpu_ast::Kernel;
use gpgpu_core::{
    compile, CachedArtifact, CompileError, CompileOptions, CompiledKernel, FusionMeta,
};
use std::fmt;

/// How a compile unit was delivered. One value exists per compile and it
/// is consumed at once, so the variants are not boxed to even their sizes.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum UnitCompile {
    /// A one-kernel unit, through the ordinary pipeline.
    Single(CompiledKernel),
    /// A pair, fused into one kernel and differentially verified.
    Fused(FusedCompile),
    /// A pair the planner, the fused compile or the verifier refused: each
    /// member compiled on its own (full pipeline, oracle, tuning). A
    /// refusal is a routine answer, never an error.
    Separate {
        /// The members' source kernel names, producer first.
        names: Vec<String>,
        /// The members' compilations, producer first.
        members: Vec<CompiledKernel>,
        /// Why the pair was not fused.
        rejection: Box<FusionError>,
    },
}

/// Why a compile unit produced nothing to deliver.
#[derive(Debug)]
pub enum UnitError {
    /// The unit named neither one kernel nor a pair.
    Arity(usize),
    /// The unit's single kernel failed to compile.
    Compile(CompileError),
    /// The pair was refused (`rejection`) and then member `name` failed
    /// to compile on its own.
    Member {
        /// The failing member's kernel name.
        name: String,
        /// Why the pair was not fused in the first place.
        rejection: Box<FusionError>,
        /// The member's compile failure.
        error: CompileError,
    },
}

impl UnitError {
    /// The underlying compile failure, when there is one (callers map it
    /// to an exit code or an error class).
    pub fn compile_error(&self) -> Option<&CompileError> {
        match self {
            UnitError::Arity(_) => None,
            UnitError::Compile(error) | UnitError::Member { error, .. } => Some(error),
        }
    }
}

impl fmt::Display for UnitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitError::Arity(n) => write!(
                f,
                "a compile unit is one kernel or a producer→consumer pair, not {n} kernels"
            ),
            UnitError::Compile(e) => e.fmt(f),
            UnitError::Member { name, error, .. } => write!(f, "fuse member `{name}`: {error}"),
        }
    }
}

impl std::error::Error for UnitError {}

/// Compiles one unit: a single kernel through [`compile`], a pair through
/// [`compile_fused`] — degrading, on any [`FusionError`], to separate
/// member compiles under the same options.
///
/// # Errors
///
/// See [`UnitError`]. A refused pair is *not* an error.
pub fn compile_unit(unit: &[Kernel], opts: &CompileOptions) -> Result<UnitCompile, UnitError> {
    match unit {
        [kernel] => compile(kernel, opts)
            .map(UnitCompile::Single)
            .map_err(UnitError::Compile),
        [producer, consumer] => match compile_fused(producer, consumer, opts) {
            Ok(fused) => Ok(UnitCompile::Fused(fused)),
            Err(rejection) => {
                let rejection = Box::new(rejection);
                let mut members = Vec::with_capacity(2);
                for member in unit {
                    match compile(member, opts) {
                        Ok(compiled) => members.push(compiled),
                        Err(error) => {
                            return Err(UnitError::Member {
                                name: member.name.clone(),
                                rejection,
                                error,
                            })
                        }
                    }
                }
                Ok(UnitCompile::Separate {
                    names: vec![producer.name.clone(), consumer.name.clone()],
                    members,
                    rejection,
                })
            }
        },
        _ => Err(UnitError::Arity(unit.len())),
    }
}

impl UnitCompile {
    /// The compilations behind this unit, in launch order: one, except for
    /// a refused pair's two members.
    pub fn parts(&self) -> &[CompiledKernel] {
        match self {
            UnitCompile::Single(compiled) => std::slice::from_ref(compiled),
            UnitCompile::Fused(fused) => std::slice::from_ref(&fused.compiled),
            UnitCompile::Separate { members, .. } => members,
        }
    }

    /// The one cacheable artifact of this unit under `fingerprint`. A
    /// fused pair carries its provenance (`mode`, members, the eliminated
    /// intermediate, bytes saved); a refused pair is the members'
    /// artifacts concatenated — launches in order, rates weighted by each
    /// member's predicted time — marked `separate:<slug>`, so callers see
    /// the same artifact shape either way.
    pub fn cache_artifact(&self, fingerprint: &str) -> CachedArtifact {
        match self {
            UnitCompile::Single(compiled) => compiled.cache_artifact(fingerprint),
            UnitCompile::Fused(fused) => CachedArtifact {
                fusion: Some(FusionMeta {
                    mode: fused.mode.as_str().to_string(),
                    members: vec![fused.producer.clone(), fused.consumer.clone()],
                    intermediate: fused.intermediate.clone(),
                    bytes_saved: fused.bytes_saved as f64,
                }),
                ..fused.compiled.cache_artifact(fingerprint)
            },
            UnitCompile::Separate {
                names,
                members,
                rejection,
            } => {
                let parts: Vec<CachedArtifact> = members
                    .iter()
                    .map(|m| m.cache_artifact(fingerprint))
                    .collect();
                let time_ms: f64 = parts.iter().map(|p| p.time_ms).sum();
                let weighted = |rate: fn(&CachedArtifact) -> f64| {
                    if time_ms > 0.0 {
                        parts.iter().map(|p| rate(p) * p.time_ms).sum::<f64>() / time_ms
                    } else {
                        0.0
                    }
                };
                CachedArtifact {
                    fingerprint: fingerprint.to_string(),
                    kernel_name: names.join("+"),
                    source: parts
                        .iter()
                        .map(|p| p.source.as_str())
                        .collect::<Vec<_>>()
                        .join("\n\n"),
                    time_ms,
                    gflops: weighted(|p| p.gflops),
                    bandwidth_gbps: weighted(|p| p.bandwidth_gbps),
                    degraded: parts.iter().find_map(|p| p.degraded.clone()),
                    launches: parts.into_iter().flat_map(|p| p.launches).collect(),
                    fusion: Some(FusionMeta {
                        mode: format!("separate:{}", rejection.slug()),
                        members: names.clone(),
                        intermediate: String::new(),
                        bytes_saved: 0.0,
                    }),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgpu_ast::parse_kernel;
    use gpgpu_sim::MachineDesc;

    /// One table over the unit's arity: a single kernel compiles alone, a
    /// refused pair delivers both members as one `separate:<slug>`
    /// artifact, and anything else is an arity error.
    #[test]
    fn units_of_one_two_and_three_kernels() {
        let big =
            parse_kernel("__global__ void big(float a[m], float t[m], int m) { t[idx] = a[idx] * 2.0f; }")
                .unwrap();
        let small = parse_kernel(
            "__global__ void small(float t[m], float c[n], int m, int n) { c[idx] = t[idx] * 0.5f; }",
        )
        .unwrap();
        let opts = CompileOptions::new(MachineDesc::gtx280())
            .bind("n", 1024)
            .bind("m", 2048);

        let single = compile_unit(std::slice::from_ref(&big), &opts).unwrap();
        assert!(matches!(single, UnitCompile::Single(_)));
        assert_eq!(single.parts().len(), 1);
        assert_eq!(single.cache_artifact("fp").fusion, None);

        let pair = compile_unit(&[big.clone(), small.clone()], &opts).unwrap();
        assert_eq!(pair.parts().len(), 2);
        let artifact = pair.cache_artifact("fp");
        assert_eq!(artifact.kernel_name, "big+small");
        assert_eq!(artifact.launches.len(), 2);
        assert_eq!(artifact.time_ms, pair.parts().iter().map(|p| p.total_time_ms()).sum::<f64>());
        assert_eq!(artifact.fusion.unwrap().mode, "separate:domain-mismatch");

        for unit in [vec![], vec![big.clone(), small.clone(), big]] {
            let n = unit.len();
            assert!(matches!(compile_unit(&unit, &opts), Err(UnitError::Arity(k)) if k == n));
        }
    }
}
