//! What the host and the build were: recorded with every result, because
//! a timing means nothing without them.

use gpgpu_trace::Json;
use std::process::Command;

/// A `Vm*` line of `/proc/self/status`, in bytes (0 where `/proc` has no
/// such line — the metric is Linux-only).
fn proc_status_bytes(key: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Peak resident set size of this process so far.
pub fn peak_rss_bytes() -> u64 {
    proc_status_bytes("VmHWM")
}

/// Resident set size of this process now.
pub fn rss_bytes() -> u64 {
    proc_status_bytes("VmRSS")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Panics if the fault-injection hooks are compiled in: arming a fuel
/// fault everywhere must change nothing in a build without the feature.
pub fn assert_no_fault_injection() {
    gpgpu_core::fault::arm_fuel("*");
    let armed = gpgpu_core::fault::fuel_override("bx8_ty4_tx1").is_some();
    gpgpu_core::fault::disarm();
    assert!(
        !armed,
        "gpgpu-core was built with `fault-inject`: its hooks sit on the measured paths"
    );
}

/// Host and build provenance for a result file.
pub fn provenance() -> Json {
    assert_no_fault_injection();
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    Json::obj([
        ("nproc", Json::count(nproc() as u64)),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        // The manifest pins it; the harness cannot read the flag back.
        (
            "opt_level",
            Json::count(if cfg!(debug_assertions) { 0 } else { 2 }),
        ),
        (
            "git_commit",
            Json::str(
                command_line("git", &["-C", manifest_dir, "rev-parse", "HEAD"])
                    .unwrap_or_else(|| "not a git checkout".into()),
            ),
        ),
        ("fault_inject", Json::Bool(false)),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_is_readable_and_the_build_has_no_fault_hooks() {
        // (The kernel batches per-thread updates of both counters, so they
        // are not comparable to the page while other tests allocate.)
        assert!(rss_bytes() > 0 && peak_rss_bytes() > 0);
        assert_no_fault_injection();
        assert!(provenance().get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
    }
}
