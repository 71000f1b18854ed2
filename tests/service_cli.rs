//! End-to-end tests of the service front ends: `gpgpuc batch`,
//! `gpgpuc serve`, and the multi-input compile path that shares the batch
//! engine.

use gpgpu::core::trace::parse_json;
use gpgpu::core::Json;
use std::io::Write;
use std::process::{Command, Stdio};

const MV: &str = "__global__ void mv(float a[n][w], float b[w], float c[n], int n, int w) { \
     float sum = 0.0f; \
     for (int i = 0; i < w; i = i + 1) { sum += a[idx][i] * b[i]; } \
     c[idx] = sum; }";

fn gpgpuc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gpgpuc"))
}

/// Runs gpgpuc and returns (stdout, stderr, exit code).
fn run_full(mut cmd: Command, stdin: &str) -> (String, String, i32) {
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("gpgpuc spawns");
    let _ = child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes());
    let out = child.wait_with_output().expect("gpgpuc runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("gpgpuc not killed by signal"),
    )
}

/// A scratch directory under the system temp dir, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(label: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "gpgpu-service-cli-{label}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("temp dir creates");
        TempDir(path)
    }

    fn file(&self, name: &str, contents: &str) -> std::path::PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, contents).expect("temp file writes");
        path
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A manifest request line compiling the mv kernel under `name`/`id`.
fn mv_line(id: &str, kernel_name: &str, n: i64) -> String {
    mv_line_w(id, kernel_name, n, n)
}

/// [`mv_line`] with a separate row length `w`.
fn mv_line_w(id: &str, kernel_name: &str, n: i64, w: i64) -> String {
    let source = MV.replace("void mv(", &format!("void {kernel_name}("));
    format!(r#"{{"id": "{id}", "source": "{source}", "bindings": {{"n": {n}, "w": {w}}}}}"#)
}

/// Reads one `service_*` global from a `--metrics` document.
fn metrics_global(path: &std::path::Path, name: &str) -> f64 {
    let text = std::fs::read_to_string(path).expect("metrics file written");
    let doc = parse_json(&text).expect("metrics JSON parses");
    doc.get("metrics")
        .and_then(|m| m.get("globals"))
        .and_then(|g| g.get(name))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing global {name} in {text}"))
}

fn response_lines(stdout: &str) -> Vec<Json> {
    stdout
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_json(l).unwrap_or_else(|e| panic!("bad NDJSON line `{l}`: {e}")))
        .collect()
}

fn field<'a>(doc: &'a Json, name: &str) -> &'a Json {
    doc.get(name)
        .unwrap_or_else(|| panic!("missing `{name}` in {}", doc.compact()))
}

#[test]
fn batch_preserves_manifest_order_and_aggregates_exit_codes() {
    let dir = TempDir::new("order");
    let manifest = dir.file(
        "manifest.ndjson",
        &format!(
            "{}\n{}\nthis line is not json\n{}\n",
            mv_line("big", "mva", 1024),
            mv_line("small", "mvb", 128),
            mv_line("medium", "mvc", 512),
        ),
    );

    let mut cmd = gpgpuc();
    cmd.args(["batch", manifest.to_str().expect("utf-8 path"), "--jobs", "4"]);
    let (stdout, stderr, code) = run_full(cmd, "");
    assert_eq!(code, 65, "bad-request dominates ok responses\n{stderr}");

    let docs = response_lines(&stdout);
    assert_eq!(docs.len(), 4, "one response per manifest line\n{stdout}");
    let ids: Vec<&str> = docs
        .iter()
        .map(|d| field(d, "id").as_str().expect("id is a string"))
        .collect();
    // "2" is the malformed line's positional id.
    assert_eq!(
        ids,
        ["big", "small", "2", "medium"],
        "responses come back in manifest order regardless of completion order"
    );
    for (doc, want_ok) in docs.iter().zip([true, true, false, true]) {
        assert_eq!(field(doc, "ok"), &Json::Bool(want_ok), "{}", doc.compact());
    }
    let class = field(&docs[2], "error")
        .get("class")
        .and_then(Json::as_str);
    assert_eq!(class, Some("bad-request"));
}

#[test]
fn deep_cold_manifest_survives_a_tiny_queue_without_sheds() {
    // Regression: a manifest of cold requests many times deeper than the
    // queue must still compile fully. Overload on a finite manifest is
    // backpressure — each line waits for a queue slot — so no line is
    // ever shed, and the metrics count each manifest line exactly once.
    let small: Vec<String> = (0..40)
        .map(|i| mv_line(&format!("c{i}"), &format!("mv{i}"), 32 + i))
        .collect();
    let slow: Vec<String> = (0..12)
        .map(|i| mv_line_w(&format!("c{i}"), &format!("mv{i}"), 1024 + 32 * i, 1024))
        .collect();
    for (label, lines, queue) in [("small", small, "2"), ("slow", slow, "1")] {
        let dir = TempDir::new(&format!("deep-cold-{label}"));
        let manifest = dir.file("manifest.ndjson", &(lines.join("\n") + "\n"));
        let cache = dir.path("cache");
        let metrics = dir.path("metrics.json");

        let mut cmd = gpgpuc();
        cmd.args([
            "batch",
            manifest.to_str().expect("utf-8 path"),
            "--jobs",
            "1",
            "--shards",
            "1",
            "--queue",
            queue,
            "--cache-dir",
            cache.to_str().expect("utf-8 path"),
            "--metrics",
            metrics.to_str().expect("utf-8 path"),
        ]);
        let (stdout, stderr, code) = run_full(cmd, "");
        assert_eq!(
            code, 0,
            "{label}: a manifest request was shed as overloaded\n{stderr}"
        );
        let docs = response_lines(&stdout);
        assert_eq!(
            docs.len(),
            lines.len(),
            "{label}: one response per manifest line\n{stdout}"
        );
        for (i, doc) in docs.iter().enumerate() {
            assert_eq!(
                field(doc, "id").as_str(),
                Some(format!("c{i}").as_str()),
                "{label}: manifest order held"
            );
            assert_eq!(field(doc, "ok"), &Json::Bool(true), "{}", doc.compact());
        }
        let global = |name| metrics_global(&metrics, name);
        assert_eq!(global("service_requests"), lines.len() as f64, "{label}");
        assert_eq!(global("service_errors"), 0.0, "{label}");
        assert_eq!(global("service_shed_total"), 0.0, "{label}");
    }
}

#[test]
fn warm_batch_run_is_all_cache_hits() {
    let dir = TempDir::new("warm");
    let manifest = dir.file(
        "manifest.ndjson",
        &format!("{}\n{}\n", mv_line("a", "mva", 512), mv_line("b", "mvb", 512)),
    );
    let cache = dir.path("cache");
    let metrics = dir.path("metrics.json");
    let args = |m: &std::path::Path| {
        vec![
            "batch".to_string(),
            manifest.to_str().expect("utf-8").to_string(),
            "--cache-dir".to_string(),
            cache.to_str().expect("utf-8").to_string(),
            "--metrics".to_string(),
            m.to_str().expect("utf-8").to_string(),
        ]
    };

    let mut cold = gpgpuc();
    cold.args(args(&metrics));
    let (_, stderr, code) = run_full(cold, "");
    assert_eq!(code, 0, "{stderr}");

    let mut warm = gpgpuc();
    warm.args(args(&metrics));
    let (stdout, stderr, code) = run_full(warm, "");
    assert_eq!(code, 0, "{stderr}");
    for doc in response_lines(&stdout) {
        let cache = field(&doc, "cache").as_str().expect("cache is a string");
        assert_ne!(cache, "miss", "warm run must hit: {}", doc.compact());
    }

    // The CI smoke job asserts the same invariant from this JSON document.
    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let doc = parse_json(&text).expect("metrics JSON parses");
    let global = |name: &str| {
        doc.get("metrics")
            .and_then(|m| m.get("globals"))
            .and_then(|g| g.get(name))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("missing global {name} in {text}"))
    };
    assert_eq!(global("service_requests"), 2.0);
    assert_eq!(global("service_cache_hits"), 2.0);
    assert_eq!(global("service_cache_misses"), 0.0);
}

#[test]
fn serve_answers_malformed_requests_with_structured_errors() {
    let input = format!(
        "{}\n{{\"id\": \"broken\"}}\nnot json at all\n{}\n",
        mv_line("first", "mv", 256),
        mv_line("again", "mv", 256),
    );
    let mut cmd = gpgpuc();
    cmd.arg("serve");
    let (stdout, stderr, code) = run_full(cmd, &input);
    assert_eq!(code, 0, "serve never crashes on bad input\n{stderr}");

    let docs = response_lines(&stdout);
    assert_eq!(docs.len(), 4, "{stdout}");
    assert_eq!(field(&docs[0], "ok"), &Json::Bool(true));
    for (doc, want) in [(&docs[1], "source"), (&docs[2], "JSON")] {
        assert_eq!(field(doc, "ok"), &Json::Bool(false));
        let detail = field(doc, "error")
            .get("detail")
            .and_then(Json::as_str)
            .expect("error detail");
        assert!(detail.contains(want), "{}", doc.compact());
        let class = field(doc, "error").get("class").and_then(Json::as_str);
        assert_eq!(class, Some("bad-request"));
    }
    // The repeat is pipelined behind the first, so the two may be in
    // flight together. The stampede guard's contract (`Engine::handle`):
    // exactly one of them compiles and answers `miss`, the other takes its
    // artifact from memory — which one is a race, not an order.
    assert_eq!(field(&docs[3], "ok"), &Json::Bool(true));
    let mut caches = [&docs[0], &docs[3]].map(|doc| field(doc, "cache").as_str());
    caches.sort();
    assert_eq!(caches, [Some("memory"), Some("miss")]);
    assert_eq!(field(&docs[0], "artifact"), field(&docs[3], "artifact"));
}

#[test]
fn multi_input_compile_orders_output_and_takes_the_worst_exit() {
    let dir = TempDir::new("multi");
    let good_a = dir.file("a.cu", MV);
    let good_b = dir.file("b.cu", &MV.replace("void mv(", "void mv2("));
    let broken = dir.file("broken.cu", "__global__ void nope(");

    let mut cmd = gpgpuc();
    cmd.args([
        "--bind",
        "n=512",
        "--bind",
        "w=512",
        good_a.to_str().expect("utf-8"),
        broken.to_str().expect("utf-8"),
        good_b.to_str().expect("utf-8"),
    ]);
    let (stdout, stderr, code) = run_full(cmd, "");
    assert_eq!(code, 65, "parse failure dominates\nstderr: {stderr}");

    // Per-input headers appear in argument order.
    let pos = |p: &std::path::Path| {
        stdout
            .find(&format!("==== {} ====", p.display()))
            .unwrap_or_else(|| panic!("no header for {}\n{stdout}", p.display()))
    };
    assert!(pos(&good_a) < pos(&broken) && pos(&broken) < pos(&good_b));
    assert!(stdout.contains("__global__ void mv("), "{stdout}");
    assert!(stdout.contains("__global__ void mv2("), "{stdout}");
    assert!(stderr.contains("parse"), "{stderr}");

    // A missing input is EX_NOINPUT, and still the maximum wins.
    let mut cmd = gpgpuc();
    cmd.args([
        "--bind",
        "n=512",
        "--bind",
        "w=512",
        good_a.to_str().expect("utf-8"),
        dir.path("missing.cu").to_str().expect("utf-8"),
    ]);
    let (_, _, code) = run_full(cmd, "");
    assert_eq!(code, 66);
}

#[test]
fn unknown_machine_names_the_known_set() {
    let mut cmd = gpgpuc();
    cmd.args(["--machine", "rtx5090", "-"]);
    let (_, stderr, code) = run_full(cmd, MV);
    assert_eq!(code, 64);
    for name in ["GTX8800", "GTX280", "HD5870"] {
        assert!(stderr.contains(name), "{stderr}");
    }
}

#[test]
fn injected_fault_poisons_only_its_own_batch_request() {
    let dir = TempDir::new("fault");
    let manifest = dir.file(
        "manifest.ndjson",
        &format!(
            "{}\n{}\n{}\n",
            mv_line("ok-a", "mva", 256),
            mv_line("poisoned", "mvb", 256),
            mv_line("ok-b", "mvc", 256),
        ),
    );

    let mut cmd = gpgpuc();
    cmd.args(["batch", manifest.to_str().expect("utf-8"), "--jobs", "2"])
        .env("GPGPU_FAULT", "panic:service-mvb");
    let (stdout, stderr, code) = run_full(cmd, "");
    assert_eq!(code, 70, "a contained internal fault is EX_SOFTWARE\n{stderr}");

    let docs = response_lines(&stdout);
    assert_eq!(docs.len(), 3);
    assert_eq!(field(&docs[0], "ok"), &Json::Bool(true), "{}", docs[0].compact());
    assert_eq!(field(&docs[2], "ok"), &Json::Bool(true), "{}", docs[2].compact());
    let err = field(&docs[1], "error");
    assert_eq!(err.get("class").and_then(Json::as_str), Some("internal"));
    let detail = err.get("detail").and_then(Json::as_str).expect("detail");
    assert!(detail.contains("injected fault"), "{detail}");
}

#[test]
fn serve_answers_stats_requests_with_a_telemetry_snapshot() {
    // Eight compile requests (one repeated kernel -> cache hits), then a
    // stats control request. Stats lines are out-of-band: they carry no
    // positional id and do not shift response numbering.
    let mut input = String::new();
    for i in 0..8 {
        input.push_str(&mv_line(&format!("job-{i}"), "mv", 256));
        input.push('\n');
    }
    input.push_str("{\"stats\": true}\n");
    input.push_str(&mv_line("after-stats", "mv", 256));
    input.push('\n');

    let mut cmd = gpgpuc();
    cmd.arg("serve");
    let (stdout, stderr, code) = run_full(cmd, &input);
    assert_eq!(code, 0, "stderr: {stderr}");

    let docs = response_lines(&stdout);
    assert_eq!(docs.len(), 10, "9 responses + 1 stats line\n{stdout}");
    let stats_doc = docs
        .iter()
        .find(|d| d.get("stats").is_some())
        .unwrap_or_else(|| panic!("no stats line in {stdout}"));
    assert_eq!(
        field(stats_doc, "schema").as_str(),
        Some("gpgpu-trace/v2")
    );
    let stats = field(stats_doc, "stats");

    // The snapshot was taken after 8 served requests.
    let total = field(field(stats, "requests"), "total").as_f64();
    assert_eq!(total, Some(8.0), "{}", stats_doc.compact());
    let count = field(field(field(stats, "latency"), "all"), "count").as_f64();
    assert_eq!(count, total, "latency population != requests served");

    // Ordered percentiles, and a consistent cache ratio: 1 miss, 7 hits.
    let lat_all = field(field(stats, "latency"), "all");
    let p50 = field(lat_all, "p50_us").as_f64().expect("p50_us");
    let p90 = field(lat_all, "p90_us").as_f64().expect("p90_us");
    let p99 = field(lat_all, "p99_us").as_f64().expect("p99_us");
    assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
    let cache = field(stats, "cache");
    assert_eq!(field(cache, "hits").as_f64(), Some(7.0));
    assert_eq!(field(cache, "misses").as_f64(), Some(1.0));
    assert_eq!(field(cache, "hit_ratio").as_f64(), Some(7.0 / 8.0));

    // The queue block is the front's live one: the default `--queue` of
    // 64 on one shard, and the high-water the eight requests left.
    let queue = field(stats, "queue");
    assert_eq!(field(queue, "capacity").as_f64(), Some(64.0));
    let high_water = field(queue, "high_water").as_f64().expect("high_water");
    assert!(high_water >= 1.0, "{}", stats_doc.compact());

    // Per-stage histograms exist for the whole request path.
    let stages = field(stats, "stages");
    for stage in ["queue_wait", "cache_probe", "compile", "respond"] {
        assert!(stages.get(stage).is_some(), "missing stage `{stage}`");
    }

    // The compile request after the stats line still got answered, and
    // positional bookkeeping ignored the control line.
    let after = docs
        .iter()
        .find(|d| d.get("id").and_then(Json::as_str) == Some("after-stats"))
        .expect("request after stats answered");
    assert_eq!(field(after, "ok"), &Json::Bool(true));
}

#[test]
fn batch_prints_a_stage_attribution_table() {
    let dir = TempDir::new("attrib");
    let manifest = dir.file(
        "manifest.ndjson",
        &format!(
            "{}\n{}\n{}\n{}\n",
            mv_line("a", "mva", 256),
            mv_line("b", "mvb", 256),
            mv_line("c", "mva", 256),
            mv_line("d", "mvb", 256),
        ),
    );

    let mut cmd = gpgpuc();
    cmd.args(["batch", manifest.to_str().expect("utf-8"), "--jobs", "2"]);
    let (stdout, stderr, code) = run_full(cmd, "");
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(response_lines(&stdout).len(), 4);

    assert!(
        stderr.contains("== stage attribution (4 request(s)) =="),
        "{stderr}"
    );
    for stage in ["queue-wait", "compile", "respond"] {
        assert!(stderr.contains(stage), "stage `{stage}` missing:\n{stderr}");
    }
}
