//! Content-addressed compile-cache hooks: the request fingerprint and the
//! cacheable artifact.
//!
//! The batch-compilation service (`gpgpu-service`) memoizes whole
//! compilations across requests, the way the `AnalysisManager` memoizes
//! analyses across passes inside one compilation. The key is a stable
//! **fingerprint** over everything that determines the compiler's output:
//!
//! * the cache format version ([`CACHE_SCHEMA`]) — bumping it invalidates
//!   every existing entry;
//! * the *normalized* kernel source (the parsed kernel reprinted with
//!   default [`PrintOptions`], so whitespace/comment differences share an
//!   entry);
//! * the target machine name;
//! * the size bindings, iterated in sorted order;
//! * the enabled stage set;
//! * the verification seed;
//! * the cost model ranking the candidates (the analytic and
//!   memory-hierarchy models can pick different winners).
//!
//! [`CompileOptions`] fields that cannot be expressed in a service request
//! (custom explore degrees, sample-block overrides, span tables) are *not*
//! fingerprinted; the service constructs its options exclusively from
//! fingerprinted fields, so a cached artifact can never be served for an
//! option set the fingerprint does not cover.
//!
//! The value is a [`CachedArtifact`]: the rendered compiler output
//! (optimized source, per-launch kernel text in both naming styles, launch
//! configurations, extra buffers, headline performance numbers). Artifacts
//! round-trip through the std-only `gpgpu-trace` JSON model, which is what
//! the persistent on-disk store serializes.

use crate::pipeline::{CompileOptions, CompiledKernel};
use gpgpu_ast::{print_kernel, Kernel, PrintOptions};
use gpgpu_trace::Json;
use gpgpu_tuning::shape::fnv1a;

/// Version tag of the compile-cache format. Stamped into every persisted
/// entry and mixed into every fingerprint: changing the artifact schema or
/// the fingerprint definition bumps this and orphans (invalidates) all
/// previously stored entries.
pub const CACHE_SCHEMA: &str = "gpgpu-cache/v3";

/// Incremental 128-bit fingerprint state: two independent FNV-1a streams
/// (different offset bases, a domain byte injected into the second) so a
/// collision must defeat both.
struct Fingerprint {
    lo: u64,
    hi: u64,
}

impl Fingerprint {
    fn new() -> Fingerprint {
        Fingerprint {
            lo: 0xcbf2_9ce4_8422_2325,
            hi: 0x6c62_272e_07bb_0142,
        }
    }

    /// Feeds one field, terminated by a separator byte so adjacent fields
    /// cannot alias (`"ab"+"c"` vs `"a"+"bc"`).
    fn field(&mut self, bytes: &[u8]) {
        self.lo = fnv1a(self.lo, bytes);
        self.lo = fnv1a(self.lo, &[0xff]);
        self.hi = fnv1a(self.hi, &[0xfe]);
        self.hi = fnv1a(self.hi, bytes);
    }

    fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.lo, self.hi)
    }
}

impl CompileOptions {
    /// The content-addressed cache key for compiling `kernel` under these
    /// options: 32 hex characters, stable across processes and runs.
    ///
    /// The kernel is normalized by reprinting the parsed AST, so two
    /// sources that parse identically fingerprint identically.
    pub fn fingerprint(&self, kernel: &Kernel) -> String {
        let mut fp = Fingerprint::new();
        fp.field(CACHE_SCHEMA.as_bytes());
        fp.field(print_kernel(kernel, PrintOptions::default()).as_bytes());
        fp.field(self.machine.name.as_bytes());
        let mut bindings: Vec<(&str, i64)> = self
            .bindings
            .iter()
            .map(|(n, &v)| (n.as_str(), v))
            .collect();
        bindings.sort_unstable();
        for (name, value) in bindings {
            fp.field(name.as_bytes());
            fp.field(&value.to_le_bytes());
        }
        let s = self.stages;
        let stage_bits = [
            s.vectorize,
            s.coalesce,
            s.merge,
            s.prefetch,
            s.partition,
            s.fusion,
        ]
        .map(|b| if b { b'1' } else { b'0' });
        fp.field(&stage_bits);
        fp.field(&self.verify_seed.to_le_bytes());
        fp.field(self.cost_model.as_str().as_bytes());
        fp.hex()
    }

    /// The cache key for compiling the fused form of an ordered
    /// producer→consumer group under these options: the schema tag, a
    /// `fuse` marker, and the ordered member fingerprints (each of which
    /// already covers the normalized member source, machine, bindings,
    /// stage set — including the fusion gate — seed, and cost model).
    ///
    /// Order matters: fusing `a` into `b` is not fusing `b` into `a`.
    pub fn fused_fingerprint(&self, producer: &Kernel, consumer: &Kernel) -> String {
        let mut fp = Fingerprint::new();
        fp.field(CACHE_SCHEMA.as_bytes());
        fp.field(b"fuse");
        fp.field(self.fingerprint(producer).as_bytes());
        fp.field(self.fingerprint(consumer).as_bytes());
        fp.hex()
    }
}

/// How a fused artifact came to be: which members were merged, how the
/// intermediate was forwarded, and what the cost model said it saved.
/// `None` on ordinary single-kernel artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionMeta {
    /// Forwarding mode (`register` or `inline`).
    pub mode: String,
    /// Ordered member kernel names (producer first).
    pub members: Vec<String>,
    /// The intermediate array eliminated by the fusion.
    pub intermediate: String,
    /// Global-memory bytes the cost model says the fusion saved.
    pub bytes_saved: f64,
}

impl FusionMeta {
    fn to_json(&self) -> Json {
        Json::obj([
            ("mode", Json::str(&self.mode)),
            (
                "members",
                Json::Arr(self.members.iter().map(Json::str).collect()),
            ),
            ("intermediate", Json::str(&self.intermediate)),
            ("bytes_saved", Json::num(self.bytes_saved)),
        ])
    }
}

/// One extra buffer a launch needs (a rendered
/// [`gpgpu_analysis::ArrayLayout`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BufferArtifact {
    /// Buffer name.
    pub name: String,
    /// Element type, rendered (`Float`, …).
    pub elem: String,
    /// Logical extents, outermost first.
    pub dims: Vec<i64>,
}

/// One launch of a cached compilation: the rendered kernel (in both naming
/// styles, so any front end can print from the artifact alone), its launch
/// configuration, and the buffers the runtime must allocate.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchArtifact {
    /// The launch configuration, rendered (`<<<(g,g),(b,b)>>>` style).
    pub launch: String,
    /// The kernel printed with the paper's shorthand ids.
    pub kernel: String,
    /// The kernel printed with `threadIdx.x`-style CUDA names.
    pub kernel_cuda: String,
    /// Zero-initialized buffers the launch requires beyond the naive
    /// kernel's parameters.
    pub extra_buffers: Vec<BufferArtifact>,
}

/// The cacheable output of one compilation — everything a batch or serve
/// response renders, and nothing that cannot round-trip through JSON.
///
/// Compilation is deterministic, so an artifact served from the cache is
/// byte-identical to what a cold compile of the same fingerprint would
/// produce; the service's property tests pin that.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedArtifact {
    /// The fingerprint this artifact was compiled under.
    pub fingerprint: String,
    /// Kernel name (the first launch's).
    pub kernel_name: String,
    /// The optimized source, shorthand-printed (all launches).
    pub source: String,
    /// The launch sequence.
    pub launches: Vec<LaunchArtifact>,
    /// Predicted total time of the sequence, in milliseconds.
    pub time_ms: f64,
    /// Aggregate GFLOPS.
    pub gflops: f64,
    /// Aggregate effective bandwidth, GB/s.
    pub bandwidth_gbps: f64,
    /// Degradation record (`(slug, detail)`) when the pipeline fell back to
    /// the verified naive kernel.
    pub degraded: Option<(String, String)>,
    /// Fusion provenance, when this artifact is a fused group (or a
    /// fallback compiled from one); `None` for single-kernel artifacts.
    pub fusion: Option<FusionMeta>,
}

impl CompiledKernel {
    /// Extracts the cacheable artifact of this compilation (the service's
    /// cache hook).
    pub fn cache_artifact(&self, fingerprint: &str) -> CachedArtifact {
        let kernel_name = self
            .launches
            .first()
            .map(|l| l.kernel.name.clone())
            .unwrap_or_else(|| "?".to_string());
        let launches = self
            .launches
            .iter()
            .map(|l| LaunchArtifact {
                launch: l.launch.to_string(),
                kernel: print_kernel(&l.kernel, PrintOptions::default()),
                kernel_cuda: print_kernel(&l.kernel, PrintOptions::cuda()),
                extra_buffers: l
                    .extra_buffers
                    .iter()
                    .map(|b| BufferArtifact {
                        name: b.name.clone(),
                        elem: format!("{:?}", b.elem),
                        dims: b.dims.clone(),
                    })
                    .collect(),
            })
            .collect();
        CachedArtifact {
            fingerprint: fingerprint.to_string(),
            kernel_name,
            source: self.source.clone(),
            launches,
            time_ms: self.total_time_ms(),
            gflops: self.gflops(),
            bandwidth_gbps: self.effective_bandwidth_gbps(),
            degraded: self
                .degraded
                .as_ref()
                .map(|r| (r.slug().to_string(), r.detail().to_string())),
            fusion: None,
        }
    }
}

impl CachedArtifact {
    /// Serializes the artifact as a self-describing `gpgpu-cache/v1`
    /// JSON document (what the on-disk store writes).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(CACHE_SCHEMA)),
            ("fingerprint", Json::str(&self.fingerprint)),
            ("kernel", Json::str(&self.kernel_name)),
            ("source", Json::str(&self.source)),
            (
                "launches",
                Json::Arr(
                    self.launches
                        .iter()
                        .map(|l| {
                            Json::obj([
                                ("launch", Json::str(&l.launch)),
                                ("kernel", Json::str(&l.kernel)),
                                ("kernel_cuda", Json::str(&l.kernel_cuda)),
                                (
                                    "extra_buffers",
                                    Json::Arr(
                                        l.extra_buffers
                                            .iter()
                                            .map(|b| {
                                                Json::obj([
                                                    ("name", Json::str(&b.name)),
                                                    ("elem", Json::str(&b.elem)),
                                                    (
                                                        "dims",
                                                        Json::Arr(
                                                            b.dims
                                                                .iter()
                                                                .map(|&d| Json::num(d as f64))
                                                                .collect(),
                                                        ),
                                                    ),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("time_ms", Json::num(self.time_ms)),
            ("gflops", Json::num(self.gflops)),
            ("bandwidth_gbps", Json::num(self.bandwidth_gbps)),
            (
                "degraded",
                match &self.degraded {
                    Some((slug, detail)) => Json::obj([
                        ("reason", Json::str(slug)),
                        ("detail", Json::str(detail)),
                    ]),
                    None => Json::Null,
                },
            ),
            (
                "fusion",
                match &self.fusion {
                    Some(meta) => meta.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Parses a persisted artifact, validating the schema tag — an entry
    /// written by any other cache format version is rejected, which is how
    /// format bumps invalidate stale stores.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem (wrong
    /// schema, missing field, mistyped field).
    pub fn from_json(doc: &Json) -> Result<CachedArtifact, String> {
        let str_field = |obj: &Json, key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string `{key}`"))
        };
        let num_field = |obj: &Json, key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing or non-numeric `{key}`"))
        };
        let schema = str_field(doc, "schema")?;
        if schema != CACHE_SCHEMA {
            return Err(format!(
                "cache schema `{schema}` is not `{CACHE_SCHEMA}`"
            ));
        }
        let mut launches = Vec::new();
        for l in doc
            .get("launches")
            .and_then(Json::as_arr)
            .ok_or("missing `launches` array")?
        {
            let mut extra_buffers = Vec::new();
            for b in l
                .get("extra_buffers")
                .and_then(Json::as_arr)
                .ok_or("missing `extra_buffers` array")?
            {
                let dims = b
                    .get("dims")
                    .and_then(Json::as_arr)
                    .ok_or("missing `dims` array")?
                    .iter()
                    .map(|d| d.as_f64().map(|v| v as i64))
                    .collect::<Option<Vec<i64>>>()
                    .ok_or("non-numeric buffer dim")?;
                extra_buffers.push(BufferArtifact {
                    name: str_field(b, "name")?,
                    elem: str_field(b, "elem")?,
                    dims,
                });
            }
            launches.push(LaunchArtifact {
                launch: str_field(l, "launch")?,
                kernel: str_field(l, "kernel")?,
                kernel_cuda: str_field(l, "kernel_cuda")?,
                extra_buffers,
            });
        }
        let degraded = match doc.get("degraded") {
            None | Some(Json::Null) => None,
            Some(d) => Some((str_field(d, "reason")?, str_field(d, "detail")?)),
        };
        let fusion = match doc.get("fusion") {
            None | Some(Json::Null) => None,
            Some(m) => Some(FusionMeta {
                mode: str_field(m, "mode")?,
                members: m
                    .get("members")
                    .and_then(Json::as_arr)
                    .ok_or("missing fusion `members` array")?
                    .iter()
                    .map(|v| v.as_str().map(str::to_string))
                    .collect::<Option<Vec<String>>>()
                    .ok_or("non-string fusion member")?,
                intermediate: str_field(m, "intermediate")?,
                bytes_saved: num_field(m, "bytes_saved")?,
            }),
        };
        Ok(CachedArtifact {
            fingerprint: str_field(doc, "fingerprint")?,
            kernel_name: str_field(doc, "kernel")?,
            source: str_field(doc, "source")?,
            launches,
            time_ms: num_field(doc, "time_ms")?,
            gflops: num_field(doc, "gflops")?,
            bandwidth_gbps: num_field(doc, "bandwidth_gbps")?,
            degraded,
            fusion,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::StageSet;
    use gpgpu_ast::parse_kernel;
    use gpgpu_sim::MachineDesc;

    const MV: &str = "__global__ void mv(float a[n][w], float b[w], float c[n], int n, int w) {
        float sum = 0.0f;
        for (int i = 0; i < w; i = i + 1) { sum += a[idx][i] * b[i]; }
        c[idx] = sum;
    }";

    fn opts() -> CompileOptions {
        CompileOptions::new(MachineDesc::gtx280())
            .bind("n", 256)
            .bind("w", 256)
    }

    #[test]
    fn fingerprint_is_stable_and_whitespace_insensitive() {
        let k = parse_kernel(MV).unwrap();
        let fp = opts().fingerprint(&k);
        assert_eq!(fp.len(), 32);
        assert_eq!(fp, opts().fingerprint(&k), "same inputs, same key");
        // Reformatting the source does not change the parsed kernel, so
        // the normalized fingerprint is identical.
        let reformatted = parse_kernel(&MV.replace("    ", "\t")).unwrap();
        assert_eq!(fp, opts().fingerprint(&reformatted));
    }

    #[test]
    fn fingerprint_covers_every_keyed_option() {
        let k = parse_kernel(MV).unwrap();
        let base = opts().fingerprint(&k);
        let machine = CompileOptions::new(MachineDesc::gtx8800())
            .bind("n", 256)
            .bind("w", 256)
            .fingerprint(&k);
        let binding = opts().bind("n", 512).fingerprint(&k);
        let stages = opts().with_stages(StageSet::none()).fingerprint(&k);
        let seed = opts().with_verify_seed(7).fingerprint(&k);
        let model = opts()
            .with_cost_model(gpgpu_sim::CostModelKind::Hierarchy)
            .fingerprint(&k);
        let keys = [&base, &machine, &binding, &stages, &seed, &model];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn cost_model_invalidates_cached_fingerprints() {
        // The v1 fingerprint predates cost-model selection and the v2 one
        // predates fusion (the `fusion` stage bit, fused fingerprints, and
        // the artifact's fusion metadata); each schema bump must orphan
        // every prior entry, and the two cost models must never share an
        // entry (they can rank candidates differently).
        assert_eq!(CACHE_SCHEMA, "gpgpu-cache/v3");
        let k = parse_kernel(MV).unwrap();
        let analytic = opts()
            .with_cost_model(gpgpu_sim::CostModelKind::Analytic)
            .fingerprint(&k);
        let hierarchy = opts()
            .with_cost_model(gpgpu_sim::CostModelKind::Hierarchy)
            .fingerprint(&k);
        assert_ne!(analytic, hierarchy);
        // The default options fingerprint is the analytic one.
        assert_eq!(opts().fingerprint(&k), analytic);
    }

    #[test]
    fn binding_order_does_not_change_the_fingerprint() {
        let k = parse_kernel(MV).unwrap();
        let ab = CompileOptions::new(MachineDesc::gtx280())
            .bind("n", 256)
            .bind("w", 512)
            .fingerprint(&k);
        let ba = CompileOptions::new(MachineDesc::gtx280())
            .bind("w", 512)
            .bind("n", 256)
            .fingerprint(&k);
        assert_eq!(ab, ba);
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let k = parse_kernel(MV).unwrap();
        let o = opts();
        let compiled = crate::pipeline::compile(&k, &o).unwrap();
        let art = compiled.cache_artifact(&o.fingerprint(&k));
        let doc = art.to_json();
        let back = CachedArtifact::from_json(&doc).unwrap();
        assert_eq!(art, back);
        // And through the serialized text, as the disk store does it.
        let reparsed = gpgpu_trace::parse_json(&doc.pretty()).unwrap();
        assert_eq!(CachedArtifact::from_json(&reparsed).unwrap(), art);
    }

    #[test]
    fn fused_fingerprints_are_distinct_and_order_sensitive() {
        let a = parse_kernel(
            "__global__ void sc(float x[n], float t[n], int n) { t[idx] = x[idx] * 2.0f; }",
        )
        .unwrap();
        let b = parse_kernel(
            "__global__ void ad(float t[n], float y[n], float z[n], int n) { z[idx] = t[idx] + y[idx]; }",
        )
        .unwrap();
        let o = opts();
        let ab = o.fused_fingerprint(&a, &b);
        let ba = o.fused_fingerprint(&b, &a);
        assert_eq!(ab.len(), 32);
        assert_ne!(ab, ba, "fusion order is part of the key");
        assert_ne!(ab, o.fingerprint(&a));
        assert_ne!(ab, o.fingerprint(&b));
        // Any keyed member option shifts the fused key too.
        let other = opts().with_verify_seed(7).fused_fingerprint(&a, &b);
        assert_ne!(ab, other);
    }

    #[test]
    fn fusion_metadata_round_trips_and_defaults_to_none() {
        let art = CachedArtifact {
            fingerprint: "0".repeat(32),
            kernel_name: "fused_sc_ad".into(),
            source: String::new(),
            launches: Vec::new(),
            time_ms: 1.0,
            gflops: 2.0,
            bandwidth_gbps: 3.0,
            degraded: None,
            fusion: Some(FusionMeta {
                mode: "register".into(),
                members: vec!["sc".into(), "ad".into()],
                intermediate: "t".into(),
                bytes_saved: 8192.0,
            }),
        };
        let back = CachedArtifact::from_json(&art.to_json()).unwrap();
        assert_eq!(back, art);
        let mut doc = art.to_json();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "fusion" {
                    *v = Json::Null;
                }
            }
        }
        assert_eq!(CachedArtifact::from_json(&doc).unwrap().fusion, None);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let mut doc = CachedArtifact {
            fingerprint: "0".repeat(32),
            kernel_name: "k".into(),
            source: String::new(),
            launches: Vec::new(),
            time_ms: 0.0,
            gflops: 0.0,
            bandwidth_gbps: 0.0,
            degraded: None,
            fusion: None,
        }
        .to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs[0].1 = Json::str("gpgpu-cache/v0");
        }
        let err = CachedArtifact::from_json(&doc).unwrap_err();
        assert!(err.contains("gpgpu-cache/v0"), "{err}");
    }
}
