//! The NDJSON request/response protocol shared by `gpgpuc batch` manifests
//! and the `gpgpuc serve` stdin/stdout loop.
//!
//! One request per line, one JSON object per request:
//!
//! ```json
//! {"id": "mm-512", "source": "__global__ void mm(...) {...}",
//!  "machine": "GTX280", "bindings": {"n": 512, "w": 512},
//!  "stages": "all", "verify_seed": 0, "deadline_ms": 5000}
//! ```
//!
//! `source` may be replaced by `"file": "path/to/kernel.cu"` (the front
//! end reads the file before handing the request to the engine), or by
//! `"fuse": ["producer.cu", "consumer.cu"]` — a producer→consumer fusion
//! group of exactly two kernels (file paths or `{"source"| "file"}`
//! objects) the engine fuses into one kernel when legal and profitable,
//! degrading to separate member compiles in one combined artifact
//! otherwise. `id` defaults to the request's position; `machine` defaults
//! to `GTX280`; `stages` accepts the label `"all"`/`"none"` or an array
//! of stage names (`fusion`, `vectorize`, `coalesce`, `merge`,
//! `prefetch`, `partition`); `verify_seed` defaults to 0 and
//! `deadline_ms` to the engine default.
//!
//! Responses are one JSON object per line, echoing `id` in request order:
//! `{"id", "ok", "cache" ("memory"|"disk"|"miss"), "fingerprint",
//! "micros", "artifact"}` on success, or `{"id", "ok": false,
//! "error": {"class", "detail"}, "micros"}` on failure — a malformed
//! request line produces a structured `bad-request` response, never a
//! crash. When admission control sheds a request the class is
//! `overloaded` and the error object additionally carries
//! `retry_after_ms`, the server's backoff hint.

use gpgpu_core::{CachedArtifact, StageSet};
use gpgpu_trace::Json;

/// Stable error classes a response can carry, ordered by severity for the
/// CLI's aggregated exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The request line or its fields were malformed.
    BadRequest,
    /// The kernel source did not parse.
    Parse,
    /// The compiler rejected the kernel (no fallback possible).
    Compile,
    /// The request's deadline elapsed before a worker picked it up.
    Deadline,
    /// Admission control shed the request: every shard's queue was past
    /// its watermark. The error carries a `retry_after_ms` hint computed
    /// from the observed service rate; clients should back off and retry.
    Overloaded,
    /// A contained fault (panic) inside the worker.
    Internal,
}

impl ErrorClass {
    /// The wire name of the class.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorClass::BadRequest => "bad-request",
            ErrorClass::Parse => "parse",
            ErrorClass::Compile => "compile",
            ErrorClass::Deadline => "deadline",
            ErrorClass::Overloaded => "overloaded",
            ErrorClass::Internal => "internal",
        }
    }

    /// The sysexits code the CLI maps this class to (aggregated across a
    /// batch by numeric maximum).
    pub fn exit_code(self) -> i32 {
        match self {
            // EX_DATAERR: the input itself was bad.
            ErrorClass::BadRequest | ErrorClass::Parse => 65,
            // EX_UNAVAILABLE: the compile could not be serviced.
            ErrorClass::Compile | ErrorClass::Deadline => 69,
            // EX_SOFTWARE: a contained internal fault.
            ErrorClass::Internal => 70,
            // EX_TEMPFAIL: retry later (honor `retry_after_ms`).
            ErrorClass::Overloaded => 75,
        }
    }
}

/// Where a request's kernel source comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceSpec {
    /// Inline source text.
    Inline(String),
    /// A path the front end must read (`"file"` key). The engine never
    /// touches the filesystem for sources; see
    /// [`CompileRequest::resolve_file`].
    File(String),
}

impl SourceSpec {
    /// The inline text; `None` for a file the front end has yet to read.
    pub(crate) fn text(&self) -> Option<&str> {
        match self {
            SourceSpec::Inline(text) => Some(text),
            SourceSpec::File(_) => None,
        }
    }
}

/// One parsed compile request.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileRequest {
    /// Client-assigned id, echoed in the response. Defaults to the
    /// request's position in the stream (`"0"`, `"1"`, …).
    pub id: String,
    /// The kernel source (inline or by file path).
    pub source: SourceSpec,
    /// Machine token (resolved via `MachineDesc::by_name`).
    pub machine: String,
    /// Size bindings.
    pub bindings: Vec<(String, i64)>,
    /// Enabled optimization stages.
    pub stages: StageSet,
    /// Verification input seed.
    pub verify_seed: u64,
    /// Per-request deadline override, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// A fusion group: `"fuse": ["producer.cu", "consumer.cu"]` — exactly
    /// two kernels, producer first. Entries are file paths (strings) or
    /// objects with `source`/`file`. When set, `source` holds a
    /// placeholder and the engine plans producer→consumer fusion before
    /// dispatch, degrading to separate member compiles on rejection.
    pub fuse: Option<Vec<SourceSpec>>,
}

fn parse_stages(value: &Json) -> Result<StageSet, String> {
    match value {
        Json::Str(label) => match label.as_str() {
            "all" => Ok(StageSet::all()),
            "none" => Ok(StageSet::none()),
            other => Err(format!(
                "unknown stage label `{other}` (use \"all\", \"none\", or an array of stage names)"
            )),
        },
        Json::Arr(items) => {
            let mut set = StageSet::none();
            for item in items {
                let name = item
                    .as_str()
                    .ok_or("stage array entries must be strings")?;
                match name {
                    "fusion" => set.fusion = true,
                    "vectorize" => set.vectorize = true,
                    "coalesce" => set.coalesce = true,
                    "merge" => set.merge = true,
                    "prefetch" => set.prefetch = true,
                    "partition" => set.partition = true,
                    other => {
                        return Err(format!(
                            "unknown stage `{other}` (stages: fusion, vectorize, coalesce, \
                             merge, prefetch, partition)"
                        ))
                    }
                }
            }
            Ok(set)
        }
        _ => Err("`stages` must be a string label or an array of stage names".into()),
    }
}

impl CompileRequest {
    /// Parses one NDJSON request line. `position` supplies the default id.
    ///
    /// # Errors
    ///
    /// Returns a `bad-request` detail string on malformed JSON or fields.
    pub fn parse(line: &str, position: usize) -> Result<CompileRequest, String> {
        let doc = gpgpu_trace::parse_json(line).map_err(|e| e.to_string())?;
        if !matches!(doc, Json::Obj(_)) {
            return Err("request must be a JSON object".into());
        }
        let id = match doc.get("id") {
            None => position.to_string(),
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .ok_or("`id` must be a string")?,
        };
        let fuse = match doc.get("fuse") {
            None => None,
            Some(Json::Arr(items)) => {
                let mut members = Vec::new();
                for item in items {
                    members.push(match item {
                        Json::Str(path) => SourceSpec::File(path.clone()),
                        Json::Obj(_) => match (item.get("source"), item.get("file")) {
                            (Some(_), Some(_)) => {
                                return Err(
                                    "a `fuse` entry has both `source` and `file`; use one".into()
                                )
                            }
                            (Some(s), None) => SourceSpec::Inline(
                                s.as_str()
                                    .map(str::to_string)
                                    .ok_or("a `fuse` entry's `source` must be a string")?,
                            ),
                            (None, Some(f)) => SourceSpec::File(
                                f.as_str()
                                    .map(str::to_string)
                                    .ok_or("a `fuse` entry's `file` must be a string")?,
                            ),
                            (None, None) => {
                                return Err("a `fuse` entry needs `source` or `file`".into())
                            }
                        },
                        _ => {
                            return Err(
                                "`fuse` entries must be file-path strings or objects with \
                                 `source`/`file`"
                                    .into(),
                            )
                        }
                    });
                }
                if members.len() != 2 {
                    return Err(format!(
                        "`fuse` must list exactly two kernels (producer, consumer); got {}",
                        members.len()
                    ));
                }
                Some(members)
            }
            Some(_) => return Err("`fuse` must be an array of two kernels".into()),
        };
        let source = match (doc.get("source"), doc.get("file"), &fuse) {
            (Some(_), _, Some(_)) | (_, Some(_), Some(_)) => {
                return Err("request has both `fuse` and `source`/`file`; use one".into())
            }
            // The engine compiles the fusion group; `source` is unused.
            (None, None, Some(_)) => SourceSpec::Inline(String::new()),
            (Some(_), Some(_), None) => {
                return Err("request has both `source` and `file`; use one".into())
            }
            (Some(s), None, None) => SourceSpec::Inline(
                s.as_str()
                    .map(str::to_string)
                    .ok_or("`source` must be a string")?,
            ),
            (None, Some(f), None) => SourceSpec::File(
                f.as_str()
                    .map(str::to_string)
                    .ok_or("`file` must be a string")?,
            ),
            (None, None, None) => {
                return Err("request needs `source`, `file`, or `fuse`".into())
            }
        };
        let machine = match doc.get("machine") {
            None => "GTX280".to_string(),
            Some(m) => m
                .as_str()
                .map(str::to_string)
                .ok_or("`machine` must be a string")?,
        };
        let mut bindings = Vec::new();
        match doc.get("bindings") {
            None => {}
            Some(Json::Obj(pairs)) => {
                for (name, value) in pairs {
                    let v = value
                        .as_f64()
                        .filter(|v| v.fract() == 0.0)
                        .ok_or_else(|| format!("binding `{name}` must be an integer"))?;
                    bindings.push((name.clone(), v as i64));
                }
            }
            Some(_) => return Err("`bindings` must be an object of integers".into()),
        }
        let stages = match doc.get("stages") {
            None => StageSet::all(),
            Some(v) => parse_stages(v)?,
        };
        let verify_seed = match doc.get("verify_seed") {
            None => 0,
            Some(v) => v
                .as_f64()
                .filter(|v| v.fract() == 0.0 && *v >= 0.0)
                .ok_or("`verify_seed` must be a non-negative integer")? as u64,
        };
        let deadline_ms = match doc.get("deadline_ms") {
            None => None,
            Some(v) => Some(
                v.as_f64()
                    .filter(|v| v.fract() == 0.0 && *v >= 0.0)
                    .ok_or("`deadline_ms` must be a non-negative integer")?
                    as u64,
            ),
        };
        Ok(CompileRequest {
            id,
            source,
            machine,
            bindings,
            stages,
            verify_seed,
            deadline_ms,
            fuse,
        })
    }

    /// A request compiling inline `source` with default options — the
    /// programmatic entry the CLI's multi-input compile path uses.
    pub fn inline(id: impl Into<String>, source: impl Into<String>) -> CompileRequest {
        CompileRequest {
            id: id.into(),
            source: SourceSpec::Inline(source.into()),
            machine: "GTX280".to_string(),
            bindings: Vec::new(),
            stages: StageSet::all(),
            verify_seed: 0,
            deadline_ms: None,
            fuse: None,
        }
    }

    /// Replaces a `file` source with the file's contents (read by the
    /// front end, so the engine stays filesystem-free for sources).
    ///
    /// # Errors
    ///
    /// Returns a `bad-request` detail when the file cannot be read.
    pub fn resolve_file(&mut self) -> Result<(), String> {
        for spec in std::iter::once(&mut self.source).chain(self.fuse.iter_mut().flatten()) {
            if let SourceSpec::File(path) = spec {
                let text = std::fs::read_to_string(&*path)
                    .map_err(|e| format!("cannot read `{path}`: {e}"))?;
                *spec = SourceSpec::Inline(text);
            }
        }
        Ok(())
    }

    /// The inline source text; `None` when the request still points at an
    /// unresolved file.
    pub fn source_text(&self) -> Option<&str> {
        self.source.text()
    }

    /// The request's compile unit as source specs: the `fuse` pair when
    /// there is one, else the one `source`.
    pub(crate) fn unit_specs(&self) -> &[SourceSpec] {
        self.fuse
            .as_deref()
            .unwrap_or(std::slice::from_ref(&self.source))
    }
}

/// How the cache answered a request, on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Served from the in-memory LRU.
    Memory,
    /// Served from the persistent store.
    Disk,
    /// Compiled cold.
    Miss,
}

impl CacheDisposition {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Memory => "memory",
            CacheDisposition::Disk => "disk",
            CacheDisposition::Miss => "miss",
        }
    }

    /// Whether this counts as a cache hit.
    pub fn is_hit(self) -> bool {
        !matches!(self, CacheDisposition::Miss)
    }
}

/// What a response says when the request failed.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseError {
    /// Stable class.
    pub class: ErrorClass,
    /// Human-readable detail.
    pub detail: String,
    /// For `overloaded` responses: how long the client should wait before
    /// retrying, derived from the shard's observed service rate.
    pub retry_after_ms: Option<u64>,
}

/// One compile response, serialized as one NDJSON line.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileResponse {
    /// Echo of the request id.
    pub id: String,
    /// The compiled artifact on success.
    pub artifact: Option<CachedArtifact>,
    /// The failure, when the request did not produce an artifact.
    pub error: Option<ResponseError>,
    /// How the cache answered.
    pub cache: CacheDisposition,
    /// Wall-clock microseconds spent on the request.
    pub micros: u64,
}

impl CompileResponse {
    /// A failure response.
    pub fn failure(
        id: impl Into<String>,
        class: ErrorClass,
        detail: impl Into<String>,
    ) -> CompileResponse {
        CompileResponse {
            id: id.into(),
            artifact: None,
            error: Some(ResponseError {
                class,
                detail: detail.into(),
                retry_after_ms: None,
            }),
            cache: CacheDisposition::Miss,
            micros: 0,
        }
    }

    /// An `overloaded` shed response carrying the backoff hint.
    pub fn overloaded(
        id: impl Into<String>,
        detail: impl Into<String>,
        retry_after_ms: u64,
    ) -> CompileResponse {
        let mut resp = CompileResponse::failure(id, ErrorClass::Overloaded, detail);
        if let Some(error) = resp.error.as_mut() {
            error.retry_after_ms = Some(retry_after_ms);
        }
        resp
    }

    /// The backoff hint, when this is an `overloaded` response.
    pub fn retry_after_ms(&self) -> Option<u64> {
        self.error.as_ref().and_then(|e| e.retry_after_ms)
    }

    /// Whether the request produced an artifact.
    pub fn ok(&self) -> bool {
        self.artifact.is_some()
    }

    /// The sysexits code this response contributes to the batch aggregate
    /// (0 when ok, the error class's code otherwise).
    pub fn exit_code(&self) -> i32 {
        match &self.error {
            None => 0,
            Some(e) => e.class.exit_code(),
        }
    }

    /// Serializes the response as its NDJSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id".to_string(), Json::str(&self.id)),
            ("ok".to_string(), Json::Bool(self.ok())),
            ("cache".to_string(), Json::str(self.cache.as_str())),
            ("micros".to_string(), Json::count(self.micros)),
        ];
        if let Some(artifact) = &self.artifact {
            pairs.push(("fingerprint".to_string(), Json::str(&artifact.fingerprint)));
            pairs.push(("artifact".to_string(), artifact.to_json()));
        }
        if let Some(error) = &self.error {
            let mut fields = vec![
                ("class".to_string(), Json::str(error.class.as_str())),
                ("detail".to_string(), Json::str(&error.detail)),
            ];
            if let Some(ms) = error.retry_after_ms {
                fields.push(("retry_after_ms".to_string(), Json::count(ms)));
            }
            pairs.push(("error".to_string(), Json::Obj(fields)));
        }
        Json::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let line = r#"{"id": "mm-512", "source": "__global__ void mm() {}",
            "machine": "gtx8800", "bindings": {"n": 512, "w": 256},
            "stages": ["vectorize", "coalesce"], "verify_seed": 7,
            "deadline_ms": 1000}"#
            .replace('\n', " ");
        let req = CompileRequest::parse(&line, 3).unwrap();
        assert_eq!(req.id, "mm-512");
        assert_eq!(req.machine, "gtx8800");
        assert_eq!(req.bindings, vec![("n".into(), 512), ("w".into(), 256)]);
        assert!(req.stages.vectorize && req.stages.coalesce && !req.stages.merge);
        assert_eq!(req.verify_seed, 7);
        assert_eq!(req.deadline_ms, Some(1000));
    }

    #[test]
    fn defaults_fill_in_for_a_minimal_request() {
        let req = CompileRequest::parse(r#"{"source": "void f() {}"}"#, 5).unwrap();
        assert_eq!(req.id, "5");
        assert_eq!(req.machine, "GTX280");
        assert!(req.bindings.is_empty());
        assert_eq!(req.stages, StageSet::all());
        assert_eq!(req.verify_seed, 0);
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn malformed_requests_are_described_not_panicked() {
        for (line, want) in [
            ("not json", "JSON"),
            ("[1,2]", "object"),
            (r#"{"id": "x"}"#, "source"),
            (r#"{"source": "s", "file": "f"}"#, "both"),
            (r#"{"source": "s", "bindings": {"n": 1.5}}"#, "integer"),
            (r#"{"source": "s", "stages": "most"}"#, "stage label"),
            (r#"{"source": "s", "stages": ["warp"]}"#, "unknown stage"),
            (r#"{"source": "s", "verify_seed": -1}"#, "verify_seed"),
            (r#"{"fuse": ["a.cu"]}"#, "exactly two"),
            (r#"{"fuse": ["a.cu", "b.cu", "c.cu"]}"#, "exactly two"),
            (r#"{"fuse": "a.cu"}"#, "array"),
            (r#"{"fuse": [1, 2]}"#, "strings or objects"),
            (r#"{"fuse": ["a.cu", "b.cu"], "source": "s"}"#, "both"),
            (r#"{"fuse": [{"x": 1}, "b.cu"]}"#, "needs `source` or `file`"),
        ] {
            let err = CompileRequest::parse(line, 0).unwrap_err();
            assert!(err.contains(want), "`{line}` → `{err}`");
        }
    }

    #[test]
    fn parses_a_fuse_request() {
        let line = r#"{"id": "pipe", "fuse": ["scale.cu", {"source": "__global__ void f() {}"}],
            "bindings": {"n": 256}}"#
            .replace('\n', " ");
        let req = CompileRequest::parse(&line, 0).unwrap();
        let members = req.fuse.as_ref().unwrap();
        assert_eq!(members.len(), 2);
        assert_eq!(members[0], SourceSpec::File("scale.cu".into()));
        assert_eq!(
            members[1],
            SourceSpec::Inline("__global__ void f() {}".into())
        );
        // The placeholder source never reaches the engine's parse path.
        assert_eq!(req.source_text(), Some(""));
        assert!(req.stages.fusion);
    }

    #[test]
    fn stage_array_accepts_fusion() {
        let req = CompileRequest::parse(
            r#"{"source": "s", "stages": ["fusion", "coalesce"]}"#,
            0,
        )
        .unwrap();
        assert!(req.stages.fusion && req.stages.coalesce && !req.stages.merge);
    }

    #[test]
    fn response_json_has_the_documented_shape() {
        let fail = CompileResponse::failure("r1", ErrorClass::Parse, "expected `)`");
        let doc = fail.to_json();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            doc.get("error").and_then(|e| e.get("class")).and_then(Json::as_str),
            Some("parse")
        );
        assert_eq!(fail.exit_code(), 65);
        // Every line the serve loop emits parses back.
        assert!(gpgpu_trace::parse_json(&doc.compact()).is_ok());
    }

    #[test]
    fn error_classes_order_into_sysexits() {
        assert_eq!(ErrorClass::BadRequest.exit_code(), 65);
        assert_eq!(ErrorClass::Parse.exit_code(), 65);
        assert_eq!(ErrorClass::Compile.exit_code(), 69);
        assert_eq!(ErrorClass::Deadline.exit_code(), 69);
        assert_eq!(ErrorClass::Internal.exit_code(), 70);
        assert_eq!(ErrorClass::Overloaded.exit_code(), 75);
    }

    #[test]
    fn overloaded_responses_carry_the_retry_hint_on_the_wire() {
        let shed = CompileResponse::overloaded("r9", "all shards saturated", 120);
        assert_eq!(shed.retry_after_ms(), Some(120));
        assert_eq!(shed.exit_code(), 75);
        let doc = shed.to_json();
        let err = doc.get("error").expect("error object");
        assert_eq!(err.get("class").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(err.get("retry_after_ms").and_then(Json::as_f64), Some(120.0));
        // Non-overloaded errors never carry the hint.
        let fail = CompileResponse::failure("r1", ErrorClass::Parse, "expected `)`");
        assert!(fail.to_json().get("error").map(|e| e.get("retry_after_ms").is_none()) == Some(true));
    }
}
