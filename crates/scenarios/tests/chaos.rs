//! Chaos suite: every injected fault must surface as the intended
//! *structured* outcome — a `CrashedMember` row, a governed `Unknown`, or a
//! clean degradation — and must never poison sibling members or subsequent
//! warm-started runs.
//!
//! Compiled only with the `fault-injection` feature:
//!
//! ```text
//! cargo test -p nncps_scenarios --features fault-injection --test chaos
//! ```
#![cfg(feature = "fault-injection")]

use std::sync::{Mutex, MutexGuard, PoisonError};

use nncps_barrier::{Budget, ExhaustionReason};
use nncps_fault::{arm, disarm_all, FaultKind, FaultSpec, Trigger};
use nncps_scenarios::{
    run_batch, run_scenario, run_sweep, AxisParam, BatchOptions, BatchReport, Family, ParamAxis,
    Registry, SweepOptions,
};

/// The fault registry is process-global, so chaos tests must not overlap.
/// (An injected panic can unwind while a test holds the guard, poisoning
/// it; recovery is safe because the guard protects no data.)
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shared two-scenario linear fixture (cheap: no NN case studies).
fn smoke_registry() -> Registry {
    Registry::from_toml_str(nncps_scenarios::SMOKE_MANIFEST).expect("smoke manifest parses")
}

fn sequential_batch() -> BatchOptions {
    BatchOptions {
        threads: 1,
        ..BatchOptions::default()
    }
}

fn clean_batch() -> BatchReport {
    disarm_all();
    run_batch(&smoke_registry(), &sequential_batch())
}

#[test]
fn injected_panics_become_crashed_rows_and_spare_siblings() {
    let _guard = serial();
    let baseline = clean_batch();
    assert!(!baseline.has_crashes());

    // One panic site at a time; `nth = 1` with a sequential run lands the
    // fault deterministically in the first member that reaches the site.
    for site in [
        nncps_fault::SITE_SOLVER_BOX_POP,
        nncps_fault::SITE_LP_PIVOT,
        nncps_fault::SITE_TAPE_COMPILE,
    ] {
        disarm_all();
        arm(site, FaultSpec::new(FaultKind::Panic, Trigger::Nth(1)));
        let report = run_batch(&smoke_registry(), &sequential_batch());
        assert_eq!(report.crashed.len(), 1, "site {site}");
        assert_eq!(report.crashed[0].scenario, "smoke-stable-spiral");
        assert!(
            report.crashed[0].payload.contains(site),
            "payload names the site: {:?}",
            report.crashed[0].payload
        );
        // The sibling member is untouched: same verdict, same fingerprint.
        assert_eq!(report.results.len(), 1, "site {site}");
        assert_eq!(report.results[0].name, "smoke-unstable");
        assert_eq!(
            report.results[0].fingerprint(),
            baseline.results[1].fingerprint(),
            "site {site}"
        );
        // The crashed row is part of the serialized report and survives a
        // structural round-trip.
        let text = report.to_json(true);
        assert!(text.contains("\"crashed\""));
        assert_eq!(BatchReport::from_json(&text).unwrap(), report);
    }

    // Disarmed again, the report returns byte-for-byte to the baseline:
    // nothing the crashes touched leaks into later runs.
    assert_eq!(clean_batch().to_json(false), baseline.to_json(false));
}

#[test]
fn warmstart_insert_panic_does_not_poison_the_sweep_cache() {
    let _guard = serial();
    disarm_all();
    let base = smoke_registry().get("smoke-stable-spiral").unwrap().clone();
    let family = Family::new("chaos-spiral", "chaos fixture", base)
        .with_axis(ParamAxis::grid(AxisParam::Delta, vec![1e-3, 1e-4, 1e-5]))
        .with_counts(3, 0);
    let options = SweepOptions {
        threads: 1,
        warm_start: true,
        ..SweepOptions::default()
    };
    let baseline = run_sweep(std::slice::from_ref(&family), &options).unwrap();
    assert_eq!(baseline.results.len(), 3);

    // The first warm-start cache insert panics: that member crashes, but
    // the shared cache stays usable (entries are pure functions of their
    // keys, built before the insert fires), so the surviving members still
    // verify and still match the clean run bit-for-bit.
    arm(
        nncps_fault::SITE_WARMSTART_INSERT,
        FaultSpec::new(FaultKind::Panic, Trigger::Nth(1)),
    );
    let report = run_sweep(std::slice::from_ref(&family), &options).unwrap();
    disarm_all();
    assert_eq!(report.crashed.len(), 1);
    assert_eq!(report.crashed[0].scenario, "chaos-spiral-000");
    assert_eq!(report.results.len(), 2);
    for survivor in &report.results {
        let clean = baseline
            .results
            .iter()
            .find(|r| r.name == survivor.name)
            .expect("survivor exists in the clean run");
        assert_eq!(survivor.fingerprint(), clean.fingerprint());
        assert_eq!(survivor.verdict, clean.verdict);
    }
    // The roll-up counts the crash and reports it instead of count drift.
    let rollup = &report.families[0];
    assert_eq!((rollup.members, rollup.crashed), (3, 1));
    let findings = rollup.findings();
    assert!(findings.iter().any(|f| f.contains("crashed member")));
    assert!(!findings.iter().any(|f| f.contains("counts drifted")));

    // A fresh warm-started sweep after the chaos run is pristine.
    let after = run_sweep(std::slice::from_ref(&family), &options).unwrap();
    assert_eq!(after.to_json(false), baseline.to_json(false));
}

#[test]
fn forced_fuel_exhaustion_surfaces_as_a_governed_unknown() {
    let _guard = serial();
    disarm_all();
    let registry = smoke_registry();
    let scenario = registry.get("smoke-stable-spiral").unwrap();
    let budget = || Budget::unlimited().with_fuel(1_000_000);
    let clean = run_scenario(scenario, None, &budget());
    assert_eq!(clean.verdict, "certified");
    assert_eq!(clean.exhaustion, None);

    // The armed fault forces the (otherwise ample) fuel budget into
    // exhaustion at the first solver box pop: the verdict degrades to the
    // same structured `Unknown(Fuel)` a genuinely undersized budget yields.
    arm(
        nncps_fault::SITE_SOLVER_BOX_POP,
        FaultSpec::new(FaultKind::FuelExhaustion, Trigger::Always),
    );
    let starved = run_scenario(scenario, None, &budget());
    disarm_all();
    assert_eq!(starved.verdict, "inconclusive");
    assert_eq!(starved.exhaustion, Some(ExhaustionReason::Fuel(1_000_000)));
    let reason = starved.reason.as_deref().unwrap_or_default();
    assert!(
        reason.contains("fuel budget of 1000000 instructions exhausted"),
        "{reason:?}"
    );

    // Chaos over: the same budget certifies again.
    let recovered = run_scenario(scenario, None, &budget());
    assert_eq!(recovered.fingerprint(), clean.fingerprint());
}

#[test]
fn injected_sim_nan_degrades_to_a_structured_verdict() {
    let _guard = serial();
    disarm_all();
    let baseline = clean_batch();

    // Every integration step emits NaN: traces truncate at the first
    // corrupted state, so verification degrades (or survives on shorter
    // evidence) but never panics and never emits malformed JSON.
    arm(
        nncps_fault::SITE_SIM_STEP,
        FaultSpec::new(FaultKind::Nan, Trigger::Always),
    );
    let report = run_batch(&smoke_registry(), &sequential_batch());
    disarm_all();
    assert!(!report.has_crashes());
    assert_eq!(report.results.len(), 2);
    for result in &report.results {
        assert!(
            ["certified", "inconclusive", "falsified"].contains(&result.verdict.as_str()),
            "structured verdict, got {:?}",
            result.verdict
        );
    }
    let text = report.to_json(true);
    assert_eq!(
        BatchReport::from_json(&text).unwrap().to_json(true),
        text,
        "NaN corruption must not leak into the serialized report"
    );

    // And the pipeline is stateless across runs: disarmed, the batch is
    // byte-identical to the pre-chaos baseline.
    assert_eq!(clean_batch().to_json(false), baseline.to_json(false));
}
