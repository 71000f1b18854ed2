//! End-to-end tests of the `gpgpuc` command-line compiler.

use std::io::Write;
use std::process::{Command, Stdio};

const MV: &str = "__global__ void mv(float a[n][w], float b[w], float c[n], int n, int w) {
    float sum = 0.0f;
    for (int i = 0; i < w; i = i + 1) { sum += a[idx][i] * b[i]; }
    c[idx] = sum;
}";

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
    // The write may hit a broken pipe when gpgpuc rejects its arguments
    // and exits before ever reading stdin; that is a valid outcome.
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

fn run_with_stdin(cmd: Command, stdin: &str) -> (String, String, bool) {
    let (stdout, stderr, code) = run_full(cmd, stdin);
    (stdout, stderr, code == 0)
}

#[test]
fn compiles_from_stdin_with_report_and_verification() {
    let mut cmd = gpgpuc();
    cmd.args([
        "--machine", "gtx280", "--bind", "n=1024", "--bind", "w=1024", "--report", "--verify",
        "128", "-",
    ]);
    let (stdout, stderr, ok) = run_with_stdin(cmd, MV);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("// launch configuration: <<<"), "{stdout}");
    assert!(stdout.contains("__shared__"), "{stdout}");
    assert!(stderr.contains("== pass log =="), "{stderr}");
    assert!(stderr.contains("== design space =="), "{stderr}");
    // A 1-D kernel's points differ in their X thread merge; the report
    // names every point by its full label.
    let space = stderr
        .split("== design space ==")
        .nth(1)
        .unwrap_or_default();
    assert!(space.contains("bx1_ty1_tx2"), "{stderr}");
    assert!(
        stderr.contains("optimized output matches the naive kernel"),
        "{stderr}"
    );
}

#[test]
fn emit_cu_produces_translation_unit() {
    let mut cmd = gpgpuc();
    cmd.args(["--bind", "n=1024", "--bind", "w=1024", "--emit-cu", "-"]);
    let (stdout, stderr, ok) = run_with_stdin(cmd, MV);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("#include <cuda_runtime.h>"), "{stdout}");
    assert!(stdout.contains("int main() {"), "{stdout}");
    assert!(stdout.contains("mv<<<dim3("), "{stdout}");
}

#[test]
fn stage_toggles_change_output() {
    let mut cmd = gpgpuc();
    cmd.args([
        "--bind", "n=1024", "--bind", "w=1024", "--no-coalesce", "--no-merge", "-",
    ]);
    let (stdout, _, ok) = run_with_stdin(cmd, MV);
    assert!(ok);
    // With coalescing disabled the kernel stays naive: no shared memory.
    assert!(!stdout.contains("__shared__"), "{stdout}");
}

#[test]
fn parse_errors_exit_65_with_spanned_stderr() {
    let mut cmd = gpgpuc();
    cmd.arg("-");
    let (_, stderr, code) = run_full(cmd, "__global__ void broken(");
    assert_eq!(code, 65, "stderr: {stderr}");
    // Golden stderr shape: prefixed, classified, and source-located.
    assert!(stderr.starts_with("gpgpuc: error: parse error at "), "{stderr}");
    assert!(stderr.contains("expected"), "{stderr}");
}

#[test]
fn unknown_flags_exit_64_with_usage() {
    let mut cmd = gpgpuc();
    cmd.args(["--frobnicate", "-"]);
    let (_, stderr, code) = run_full(cmd, MV);
    assert_eq!(code, 64, "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn missing_input_file_exits_66() {
    let mut cmd = gpgpuc();
    cmd.arg("/nonexistent/kernel.cu");
    let (_, stderr, code) = run_full(cmd, "");
    assert_eq!(code, 66, "stderr: {stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
}

// The GPGPU_FAULT hooks below are compiled into the test-profile gpgpuc
// binary because `cargo test` unifies the root dev-dependency's
// `fault-inject` feature into the bin; release builds get the no-op shims.

#[test]
fn injected_fault_degrades_gracefully_without_strict() {
    let mut cmd = gpgpuc();
    cmd.args(["--bind", "n=128", "--bind", "w=128", "-"]);
    cmd.env("GPGPU_FAULT", "fuel:*");
    let (stdout, stderr, code) = run_full(cmd, MV);
    assert_eq!(code, 0, "degradation is a warning by default: {stderr}");
    assert!(
        stderr.contains("falling back to the verified naive kernel"),
        "{stderr}"
    );
    // The fallback still prints a runnable kernel and launch.
    assert!(stdout.contains("// launch configuration: <<<"), "{stdout}");
    assert!(!stdout.contains("__shared__"), "naive fallback only: {stdout}");
}

#[test]
fn injected_fault_exits_2_under_strict() {
    let mut cmd = gpgpuc();
    cmd.args(["--bind", "n=128", "--bind", "w=128", "--strict", "-"]);
    cmd.env("GPGPU_FAULT", "panic:pipeline");
    let (stdout, stderr, code) = run_full(cmd, MV);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(
        stderr.contains("degraded compilation rejected by --strict"),
        "{stderr}"
    );
    // Even rejected, the fallback kernel is emitted for inspection.
    assert!(stdout.contains("// launch configuration: <<<"), "{stdout}");
}

#[test]
fn strict_trace_json_still_records_degradation() {
    let dir = std::env::temp_dir().join(format!("gpgpuc-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.json");
    let mut cmd = gpgpuc();
    cmd.args(["--bind", "n=128", "--bind", "w=128", "--strict", "--trace-json"]);
    cmd.arg(&trace);
    cmd.arg("-");
    cmd.env("GPGPU_FAULT", "fuel:*");
    let (_, stderr, code) = run_full(cmd, MV);
    assert_eq!(code, 2, "stderr: {stderr}");
    let doc = std::fs::read_to_string(&trace).expect("trace written");
    assert!(doc.contains("\"reason\": \"all-candidates-failed\""), "{doc}");
    // The per-candidate fault events die with the failed exploration, but
    // the degradation record names the faults so the JSON stays actionable.
    assert!(doc.contains("faulted; last fault:"), "{doc}");
    assert!(doc.contains("\"kind\": \"degraded\""), "{doc}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn list_passes_prints_registry_without_input() {
    let mut cmd = gpgpuc();
    cmd.arg("--list-passes");
    let (stdout, stderr, code) = run_full(cmd, "");
    assert_eq!(code, 0, "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].starts_with("PASS"), "{stdout}");
    // Every registered pass appears with its paper section and stage gate.
    for (name, section, stage) in [
        ("vectorize", "\u{a7}3.1", "vectorize"),
        ("vectorize-amd", "\u{a7}3.1", "vectorize"),
        ("coalesce", "\u{a7}3.3", "coalesce"),
        ("reduction", "\u{a7}3/\u{a7}6", "merge"),
        ("block-merge", "\u{a7}3.5.1", "merge"),
        ("thread-merge", "\u{a7}3.5.2", "merge"),
        ("prefetch", "\u{a7}3.6", "prefetch"),
        ("camping", "\u{a7}3.7", "partition"),
    ] {
        let row = lines
            .iter()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("pass `{name}` missing from\n{stdout}"));
        assert!(row.contains(section), "{row}");
        assert!(row.ends_with(stage), "{row}");
    }
}

#[test]
fn fuzz_subcommand_is_clean_without_injection() {
    let mut cmd = gpgpuc();
    cmd.args(["fuzz", "--seed", "3", "--iters", "8"]);
    let (stdout, stderr, code) = run_full(cmd, "");
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("8 iterations"), "{stdout}");
    assert!(stdout.contains("0 failure(s)"), "{stdout}");
}

#[test]
fn fuzz_subcommand_exits_1_on_injected_bugs_and_writes_trace() {
    let dir = std::env::temp_dir().join("gpgpuc-fuzz-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("fuzz-trace.json");
    let mut cmd = gpgpuc();
    cmd.args([
        "fuzz",
        "--seed",
        "3",
        "--iters",
        "10",
        "--inject",
        "drop-sync",
        "--trace-json",
        trace.to_str().unwrap(),
    ]);
    let (stdout, stderr, code) = run_full(cmd, "");
    assert_eq!(code, 1, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("sanitizer:shared-race"), "{stdout}");
    // The failing kernel is echoed for debugging.
    assert!(stderr.contains("first failing kernel"), "{stderr}");
    let doc = std::fs::read_to_string(&trace).unwrap();
    assert!(doc.contains("\"kind\": \"sanitizer\""), "{doc}");
    assert!(doc.contains("sanitizer_shared_race"), "{doc}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reduce_subcommand_shrinks_a_corpus_repro() {
    let repro = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/corpus/drop_sync_shared_race.cu"
    );
    let mut cmd = gpgpuc();
    cmd.args(["reduce", repro]);
    let (stdout, stderr, code) = run_full(cmd, "");
    assert_eq!(code, 0, "stderr: {stderr}");
    // The output is itself a corpus entry with the recorded bucket; the
    // committed repro is already minimal, so reduce is a fixpoint.
    assert!(stdout.starts_with("// gpgpu-fuzz repro"), "{stdout}");
    assert!(stdout.contains("// bucket: sanitizer:shared-race"), "{stdout}");
    assert!(stderr.contains("statement(s) remain"), "{stderr}");
}

#[test]
fn reduce_subcommand_rejects_non_corpus_input() {
    let dir = std::env::temp_dir().join("gpgpuc-reduce-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("plain.cu");
    std::fs::write(&path, MV).unwrap();
    let mut cmd = gpgpuc();
    cmd.args(["reduce", path.to_str().unwrap()]);
    let (_, stderr, code) = run_full(cmd, "");
    assert_eq!(code, 65, "stderr: {stderr}");
    assert!(stderr.contains("not a corpus repro"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_seed_changes_the_verification_inputs_and_is_reported() {
    // A valid seed is accepted and verification still passes.
    let mut cmd = gpgpuc();
    cmd.args([
        "--bind", "n=64", "--bind", "w=64", "--verify", "64", "--verify-seed", "17", "-",
    ]);
    let (_, stderr, ok) = run_with_stdin(cmd, MV);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stderr.contains("optimized output matches the naive kernel"),
        "{stderr}"
    );
    // A malformed seed is a usage error.
    let mut cmd = gpgpuc();
    cmd.args(["--verify-seed", "nope", "-"]);
    let (_, stderr, code) = run_full(cmd, MV);
    assert_eq!(code, 64, "stderr: {stderr}");
    assert!(stderr.contains("--verify-seed"), "{stderr}");
}

#[test]
fn profile_subcommand_renders_a_span_tree() {
    let mut cmd = gpgpuc();
    cmd.args(["profile", "--bind", "n=256", "--bind", "w=256", "--top", "12", "-"]);
    let (stdout, stderr, ok) = run_with_stdin(cmd, MV);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("== span profile: mv on GTX280 (top 12) =="),
        "{stdout}"
    );
    // The root compile span heads the tree; pass and explore spans are
    // indented beneath it with millisecond durations.
    assert!(stdout.contains("compile:mv"), "{stdout}");
    assert!(stdout.contains("explore"), "{stdout}");
    assert!(stdout.contains("ms"), "{stdout}");
}

#[test]
fn profile_subcommand_auto_binds_unbound_sizes() {
    let mut cmd = gpgpuc();
    cmd.args(["profile", "-"]);
    let (stdout, stderr, ok) = run_with_stdin(cmd, MV);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("compile:mv"), "{stdout}");
    assert!(stderr.contains("binding unbound size `n` to 256"), "{stderr}");
    assert!(stderr.contains("binding unbound size `w` to 256"), "{stderr}");
}

#[test]
fn profile_flag_writes_a_self_profile_document() {
    let dir = std::env::temp_dir().join(format!("gpgpuc-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("profile.json");

    let mut cmd = gpgpuc();
    cmd.args([
        "--bind", "n=256", "--bind", "w=256",
        "--profile", out.to_str().unwrap(), "-",
    ]);
    let (_, stderr, ok) = run_with_stdin(cmd, MV);
    assert!(ok, "stderr: {stderr}");

    let text = std::fs::read_to_string(&out).expect("profile written");
    let doc = gpgpu::core::trace::parse_json(&text).expect("profile parses");
    use gpgpu::core::Json;
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("gpgpu-trace/v2")
    );
    assert_eq!(doc.get("kernel").and_then(Json::as_str), Some("mv"));
    let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
    assert!(!spans.is_empty());
    // Every span in the finished document is closed.
    for s in spans {
        assert!(
            s.get("dur_us").and_then(Json::as_f64).is_some(),
            "open span in finished profile: {}",
            s.compact()
        );
    }
    let agg = doc.get("aggregate").and_then(Json::as_arr).expect("aggregate");
    assert!(!agg.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_chrome_flag_writes_balanced_trace_events() {
    let dir = std::env::temp_dir().join(format!("gpgpuc-chrome-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("chrome.json");

    let mut cmd = gpgpuc();
    cmd.args([
        "--bind", "n=256", "--bind", "w=256",
        "--profile-chrome", out.to_str().unwrap(), "-",
    ]);
    let (_, stderr, ok) = run_with_stdin(cmd, MV);
    assert!(ok, "stderr: {stderr}");

    let text = std::fs::read_to_string(&out).expect("chrome trace written");
    let doc = gpgpu::core::trace::parse_json(&text).expect("chrome trace parses");
    use gpgpu::core::Json;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // B/E events nest strictly per thread: every E closes the most recent
    // open B, and nothing is left open at the end.
    let mut stacks: Vec<(f64, Vec<String>)> = Vec::new();
    let mut compile_spans = 0;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        let tid = e.get("tid").and_then(Json::as_f64).expect("tid");
        let name = e.get("name").and_then(Json::as_str).expect("name");
        let stack = match stacks.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, s)) => s,
            None => {
                stacks.push((tid, Vec::new()));
                &mut stacks.last_mut().unwrap().1
            }
        };
        match ph {
            "B" => {
                if e.get("cat").and_then(Json::as_str) == Some("compile") {
                    compile_spans += 1;
                }
                stack.push(name.to_string());
            }
            "E" => {
                let open = stack.pop().unwrap_or_else(|| {
                    panic!("E `{name}` with empty stack on tid {tid}")
                });
                assert_eq!(open, name, "mismatched E event");
            }
            other => panic!("unexpected phase `{other}`"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "tid {tid} left spans open: {stack:?}");
    }
    assert!(compile_spans >= 1, "no compile-category span in the trace");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_fault_leaves_the_profile_document_balanced() {
    let dir = std::env::temp_dir().join(format!("gpgpuc-faultprof-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("profile.json");

    // A pipeline fault degrades the compile to the verified naive kernel;
    // the run still succeeds and every recorded span must be closed.
    let mut cmd = gpgpuc();
    cmd.args([
        "--bind", "n=256", "--bind", "w=256",
        "--profile", out.to_str().unwrap(), "-",
    ])
    .env("GPGPU_FAULT", "panic:pipeline");
    let (_, stderr, ok) = run_with_stdin(cmd, MV);
    assert!(ok, "a contained fault degrades, not fails: {stderr}");
    assert!(
        stderr.contains("falling back to the verified naive kernel"),
        "{stderr}"
    );

    let text = std::fs::read_to_string(&out).expect("profile written");
    let doc = gpgpu::core::trace::parse_json(&text).expect("profile parses");
    use gpgpu::core::Json;
    let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
    assert!(!spans.is_empty());
    for s in spans {
        assert!(
            s.get("dur_us").and_then(Json::as_f64).is_some(),
            "fault leaked an open span: {}",
            s.compact()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_includes_a_pass_attribution_table() {
    let mut cmd = gpgpuc();
    cmd.args(["--bind", "n=256", "--bind", "w=256", "--report", "-"]);
    let (_, stderr, ok) = run_with_stdin(cmd, MV);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("== pass attribution =="), "{stderr}");
    // At least the coalesce pass shows up with a share percentage, and a
    // total row closes the table.
    assert!(stderr.contains("coalesce"), "{stderr}");
    assert!(stderr.contains('%'), "{stderr}");
    assert!(stderr.contains("total"), "{stderr}");
}
