//! Fault-injection tests for the containment layer (ISSUE acceptance):
//! an injected panic or fuel fault in one candidate must neither abort the
//! process nor change the winner, and when every candidate fails the
//! compiler must degrade to the verified naive kernel.
//!
//! The `fault-inject` feature is enabled for every test build by the root
//! package's dev-dependency on `gpgpu-core`; release builds compile the
//! no-op shims, so these hooks cannot fire in production binaries.

use gpgpu::ast::parse_kernel;
use gpgpu::core::fault;
use gpgpu::core::{
    compile, naive_compiled, verify_equivalence, CompileOptions, DegradedReason, TraceEvent,
};
use gpgpu::sim::MachineDesc;
use std::sync::Mutex;

/// Armed-fault state is process-global; every test that arms one must hold
/// this lock for its whole body.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Disarms the injector when a test body exits, even on assertion failure.
struct Disarmed;

impl Drop for Disarmed {
    fn drop(&mut self) {
        fault::disarm();
    }
}

const MM: &str = r#"
    __global__ void mm(float a[n][w], float b[w][n], float c[n][n], int n, int w) {
        float sum = 0.0f;
        for (int i = 0; i < w; i = i + 1) {
            sum += a[idy][i] * b[i][idx];
        }
        c[idy][idx] = sum;
    }
"#;

/// The Table-1 sum reduction: its design points are elements-per-thread
/// degrees (`red<e>`), searched by the same explorer as mm's merge grid.
const RD: &str = r#"
    #pragma gpgpu output c
    __global__ void rd(float a[len], float c[1], int len) {
        for (int s = len / 2; s > 0; s = s >> 1) {
            if (idx < s) { a[idx] = a[idx] + a[idx + s]; }
            __gsync();
        }
        if (idx == 0) { c[0] = a[0]; }
    }
"#;

fn mm_opts(n: i64) -> CompileOptions {
    CompileOptions::new(MachineDesc::gtx280())
        .bind("n", n)
        .bind("w", n)
}

/// One kernel of each kind of design space, each at a size where more than
/// one point is viable: mm at n=256, and rd at 65536 elements (red1, red4,
/// red8, red16 and red32 all fit; red8 wins).
fn contained_cases() -> [(&'static str, CompileOptions); 2] {
    [
        (MM, mm_opts(256)),
        (RD, CompileOptions::new(MachineDesc::gtx280()).bind("len", 65536)),
    ]
}

#[test]
fn injected_panic_in_one_candidate_does_not_change_winner() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let _guard = Disarmed;

    for (src, opts) in contained_cases() {
        let k = parse_kernel(src).unwrap();
        let clean = compile(&k, &opts).unwrap();
        assert!(clean.degraded.is_none(), "{}", k.name);
        let winner = clean.chosen.label();

        // Sabotage a losing candidate; the search must still pick the same
        // winner and report no degradation.
        let victim = clean
            .evaluated
            .iter()
            .map(|c| c.label())
            .find(|l| *l != winner)
            .expect("the design space has more than one viable point");
        fault::arm_panic(&victim);
        let faulted = compile(&k, &opts).unwrap();
        fault::disarm();

        assert!(faulted.degraded.is_none(), "{}: one fault must not degrade", k.name);
        assert_eq!(faulted.chosen.label(), winner, "{}: winner changed under fault", k.name);
        assert_eq!(
            faulted.evaluated.len() + 1,
            clean.evaluated.len(),
            "{}: exactly the sabotaged candidate should be missing",
            k.name
        );

        // The fault is visible in the trace: a `fault` event for the
        // victim, marked as retried once before being recorded.
        let fault_events: Vec<_> = faulted
            .trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::CandidateFault {
                    label,
                    fault,
                    retried,
                } => Some((label.clone(), fault.clone(), *retried)),
                _ => None,
            })
            .collect();
        assert_eq!(fault_events.len(), 1, "{}: {fault_events:?}", k.name);
        assert_eq!(fault_events[0].0, victim);
        assert!(fault_events[0].1.contains("injected fault"), "{fault_events:?}");
        assert!(fault_events[0].2, "a panicked slot is retried once");

        // And in the per-candidate metrics, as a `faulted` counter.
        let faulted_metrics = faulted
            .metrics
            .candidates()
            .iter()
            .find(|c| c.label == victim)
            .expect("faulted candidate still appears in the registry");
        assert_eq!(faulted_metrics.counters.get("faulted"), Some(1.0));
    }
}

#[test]
fn injected_fuel_fault_is_contained_as_fault_not_rejection() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let _guard = Disarmed;

    for (src, opts) in contained_cases() {
        let k = parse_kernel(src).unwrap();
        let clean = compile(&k, &opts).unwrap();
        let winner = clean.chosen.label();
        let victim = clean
            .evaluated
            .iter()
            .map(|c| c.label())
            .find(|l| *l != winner)
            .expect("the design space has more than one viable point");

        fault::arm_fuel(&victim);
        let faulted = compile(&k, &opts).unwrap();
        fault::disarm();
        assert!(faulted.degraded.is_none(), "{}", k.name);
        assert_eq!(faulted.chosen.label(), winner, "{}", k.name);
        let has_fuel_fault = faulted.trace.events().iter().any(|e| {
            matches!(e, TraceEvent::CandidateFault { label, fault, .. }
                if *label == victim && fault.contains("fuel"))
        });
        assert!(has_fuel_fault, "{}: kinds {:?}", k.name, faulted.trace.kinds());
    }
}

#[test]
fn all_candidates_faulting_degrades_to_verified_naive_kernel() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let _guard = Disarmed;

    let cases = [
        (MM, mm_opts(64)),
        (RD, CompileOptions::new(MachineDesc::gtx280()).bind("len", 65536)),
    ];
    for (src, opts) in cases {
        let k = parse_kernel(src).unwrap();
        fault::arm_fuel("*");
        let degraded = compile(&k, &opts).unwrap();

        let reason = degraded.degraded.as_ref().expect("degraded flag set");
        assert!(
            matches!(reason, DegradedReason::AllCandidatesFailed(_)),
            "{}: {reason}",
            k.name
        );

        // The fallback is exactly the naive compilation...
        let naive = naive_compiled(&k, &opts).unwrap();
        assert_eq!(degraded.source, naive.source);
        assert_eq!(degraded.launches[0].launch, naive.launches[0].launch);

        // ...and it still passes functional verification against the input.
        fault::disarm();
        verify_equivalence(&k, &degraded, &opts).expect("degraded output verifies");

        // The trace records the degradation, and the JSON document surfaces
        // it at top level for downstream tooling.
        assert!(degraded.trace.kinds().contains(&"degraded"));
        let doc = degraded.trace_json("gtx280").pretty();
        assert!(doc.contains("\"reason\": \"all-candidates-failed\""), "{doc}");
    }
}

#[test]
fn whole_pipeline_panic_degrades_with_pipeline_fault_reason() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let _guard = Disarmed;

    let k = parse_kernel(MM).unwrap();
    let opts = mm_opts(64);
    fault::arm_panic("pipeline");
    let degraded = compile(&k, &opts).unwrap();

    let reason = degraded.degraded.as_ref().expect("degraded flag set");
    assert!(matches!(reason, DegradedReason::PipelineFault(_)), "{reason}");
    assert!(reason.detail().contains("injected fault"), "{reason}");
    assert!(degraded.trace.kinds().contains(&"degraded"));

    // The naive fallback carries a usable launch configuration.
    assert!(!degraded.launches.is_empty());
    assert!(degraded.estimate.time_ms > 0.0);
}

#[test]
fn env_var_arming_reaches_the_injector() {
    let _lock = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let _guard = Disarmed;

    // The CLI tests arm via GPGPU_FAULT in a child process; check the
    // parsing path in-process too.
    std::env::set_var("GPGPU_FAULT", "fuel:*");
    assert_eq!(fault::fuel_override("bx8_ty4_tx1"), Some(gpgpu::core::fault::INJECTED_FUEL));
    std::env::set_var("GPGPU_FAULT", "panic:bx8_ty4_tx1");
    assert_eq!(fault::fuel_override("bx8_ty4_tx1"), None);
    let caught = std::panic::catch_unwind(|| fault::maybe_panic("bx8_ty4_tx1"));
    assert!(caught.is_err(), "armed panic site must fire");
    let clean = std::panic::catch_unwind(|| fault::maybe_panic("bx16_ty4_tx1"));
    assert!(clean.is_ok(), "other sites must not fire");
    std::env::remove_var("GPGPU_FAULT");
}
