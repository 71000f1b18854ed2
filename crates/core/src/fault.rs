//! Fault injection for testing the containment layer.
//!
//! Compiled only with the `fault-inject` feature (the workspace enables it
//! for test builds; release builds compile the no-op shims below). A fault
//! is *armed* either programmatically ([`arm_panic`] / [`arm_fuel`]) or via
//! the `GPGPU_FAULT` environment variable, whose value is
//! `panic:<site>` or `fuel:<site>` where `<site>` is a candidate label —
//! a merge point (`bx8_ty4_tx1`) or a reduction degree (`red<e>`, e.g.
//! `red8`) —, the string `pipeline`, or `*` for any site.
//!
//! The pipeline probes [`maybe_panic`] at the start of every candidate
//! evaluation and of the optimized-compile path, and [`fuel_override`]
//! when building a candidate's simulator options. Armed state is
//! process-global, so tests that arm faults must serialize on a lock.

/// Steps of fuel an injected fuel fault leaves a candidate — small enough
/// that any real kernel trace exhausts it immediately.
pub const INJECTED_FUEL: u64 = 8;

#[cfg(feature = "fault-inject")]
mod imp {
    use super::INJECTED_FUEL;
    use std::sync::Mutex;

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Kind {
        Panic,
        Fuel,
    }

    struct Armed {
        kind: Kind,
        site: String,
    }

    static ARMED: Mutex<Option<Armed>> = Mutex::new(None);

    fn armed_matches(kind: Kind, site: &str) -> bool {
        let guard = ARMED.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(a) = guard.as_ref() {
            if a.kind == kind && (a.site == "*" || a.site == site) {
                return true;
            }
        }
        drop(guard);
        // Environment-variable arming, used by CLI integration tests where
        // the injector runs in a child process.
        if let Ok(v) = std::env::var("GPGPU_FAULT") {
            let want = match kind {
                Kind::Panic => "panic",
                Kind::Fuel => "fuel",
            };
            if let Some((k, s)) = v.split_once(':') {
                return k == want && (s == "*" || s == site);
            }
        }
        false
    }

    /// Arms a panic fault at `site` (`*` = any site).
    pub fn arm_panic(site: &str) {
        *ARMED.lock().unwrap_or_else(|p| p.into_inner()) = Some(Armed {
            kind: Kind::Panic,
            site: site.to_string(),
        });
    }

    /// Arms a fuel-exhaustion fault at `site` (`*` = any site).
    pub fn arm_fuel(site: &str) {
        *ARMED.lock().unwrap_or_else(|p| p.into_inner()) = Some(Armed {
            kind: Kind::Fuel,
            site: site.to_string(),
        });
    }

    /// Disarms any armed fault.
    pub fn disarm() {
        *ARMED.lock().unwrap_or_else(|p| p.into_inner()) = None;
    }

    /// Panics when a panic fault is armed for `site`.
    pub fn maybe_panic(site: &str) {
        if armed_matches(Kind::Panic, site) {
            panic!("injected fault at {site}");
        }
    }

    /// The fuel budget to force on `site`, when a fuel fault is armed.
    pub fn fuel_override(site: &str) -> Option<u64> {
        armed_matches(Kind::Fuel, site).then_some(INJECTED_FUEL)
    }
}

#[cfg(not(feature = "fault-inject"))]
mod imp {
    /// Arms a panic fault (no-op without `fault-inject`).
    pub fn arm_panic(_site: &str) {}

    /// Arms a fuel fault (no-op without `fault-inject`).
    pub fn arm_fuel(_site: &str) {}

    /// Disarms any armed fault (no-op without `fault-inject`).
    pub fn disarm() {}

    /// Never panics without `fault-inject`.
    pub fn maybe_panic(_site: &str) {}

    /// Never overrides fuel without `fault-inject`.
    pub fn fuel_override(_site: &str) -> Option<u64> {
        None
    }
}

pub use imp::{arm_fuel, arm_panic, disarm, fuel_override, maybe_panic};
