//! End-to-end conformance contract: bless → check is a fixed point,
//! every gate actually gates, and unusable goldens ask for a re-bless
//! instead of panicking.
//!
//! Flow runs share the process-global telemetry registry, so every run
//! goes through [`run_once`]/[`run_fresh`], which serialize on one mutex
//! and cache the expensive reports in `OnceLock`s.

use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use qce::faults::{FaultKind, FaultPlan};
use qce_harness::{
    diff_reports, golden_path, run_scenario, ConformanceReport, HarnessError, Scenario, Tolerances,
    REPORT_FORMAT_VERSION,
};
use qce_store::{section_kind, Artifact};

static FLOW_LOCK: Mutex<()> = Mutex::new(());

fn tiny_scenario() -> Scenario {
    let mut scenario = Scenario::from_json(include_str!(
        "../../../conformance/scenarios/quant2_weq.json"
    ))
    .unwrap();
    scenario.name = "tiny_check".to_string();
    scenario.dataset.count = 96;
    scenario.flow.epochs = 1;
    scenario
}

fn faulted_scenario() -> Scenario {
    let mut scenario = tiny_scenario();
    scenario.name = "tiny_faulted".to_string();
    scenario.fault = Some(
        FaultPlan::new(11)
            .with(FaultKind::BitFlip { rate: 0.002 })
            .with(FaultKind::GaussianNoise { fraction: 0.02 }),
    );
    scenario
}

fn run_fresh(scenario: &Scenario) -> ConformanceReport {
    let _guard = FLOW_LOCK.lock().unwrap();
    // A warm stage cache would skip stages and change the counters.
    std::env::remove_var(qce_store::CACHE_ENV);
    run_scenario(scenario).expect("scenario runs")
}

fn run_once(scenario: &Scenario, slot: &'static OnceLock<ConformanceReport>) -> ConformanceReport {
    slot.get_or_init(|| run_fresh(scenario)).clone()
}

fn tiny_report() -> ConformanceReport {
    static SLOT: OnceLock<ConformanceReport> = OnceLock::new();
    run_once(&tiny_scenario(), &SLOT)
}

fn faulted_report() -> ConformanceReport {
    static SLOT: OnceLock<ConformanceReport> = OnceLock::new();
    run_once(&faulted_scenario(), &SLOT)
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qce_conformance_{tag}_{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn bless_then_check_is_a_fixed_point() {
    let scenario = tiny_scenario();
    let golden = tiny_report();
    let dir = tempdir("fixed_point");
    golden.write_golden(&dir).unwrap();
    let reloaded = ConformanceReport::read_golden(&dir, &scenario.name).unwrap();
    assert_eq!(reloaded, golden, "golden round-trips bit-for-bit");

    let fresh = run_fresh(&scenario);
    let violations = diff_reports(&reloaded, &fresh, &Tolerances::for_scenario(&scenario));
    assert!(violations.is_empty(), "{violations:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn repeated_runs_are_identical_including_digests_and_counters() {
    let golden = tiny_report();
    let fresh = run_fresh(&tiny_scenario());
    // Strip the one observational metric; everything else must be
    // bit-identical between back-to-back runs.
    let gated = |report: &ConformanceReport| {
        report
            .stages
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.metrics.retain(|(n, _)| n != "wall_ms");
                s
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(gated(&fresh), gated(&golden));
    assert_eq!(fresh.digests, golden.digests);
    assert_eq!(fresh.counters, golden.counters);
    assert!(!fresh.digests.is_empty(), "digests are present");
    assert!(!fresh.counters.is_empty(), "counters are present");
}

#[test]
fn report_has_the_expected_shape() {
    let report = tiny_report();
    assert_eq!(report.version, REPORT_FORMAT_VERSION);
    assert_eq!(report.scenario, "tiny_check");
    assert_eq!(report.stages.len(), 2, "uncompressed + quantized");
    let digest_names: Vec<&str> = report.digests.iter().map(|(n, _)| n.as_str()).collect();
    assert!(
        digest_names.contains(&"release.weights"),
        "{digest_names:?}"
    );
    assert!(digest_names.contains(&"select.indices"), "{digest_names:?}");
    let quant_stage = &report.stages[1];
    assert!(quant_stage.get("compression_ratio").is_some());
    assert!(quant_stage.get("images").unwrap() > 0.0);
}

#[test]
fn metric_flip_beyond_tolerance_fails_the_check() {
    let scenario = tiny_scenario();
    let golden = tiny_report();
    let fresh = tiny_report();
    let tol = Tolerances::for_scenario(&scenario);

    let mut drifted = fresh.clone();
    for (name, value) in &mut drifted.stages[0].metrics {
        if name == "accuracy" {
            *value += 0.5;
        }
    }
    let violations = diff_reports(&golden, &drifted, &tol);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].to_string().contains("accuracy"));

    // A count flip of exactly 1 must also fail: counts gate exactly.
    let mut miscounted = fresh.clone();
    for (name, value) in &mut miscounted.stages[1].metrics {
        if name == "images" {
            *value += 1.0;
        }
    }
    assert!(!diff_reports(&golden, &miscounted, &tol).is_empty());
}

#[test]
fn drift_within_tolerance_passes() {
    let scenario = tiny_scenario();
    let golden = tiny_report();
    let mut fresh = tiny_report();
    for (name, value) in &mut fresh.stages[0].metrics {
        if name == "accuracy" {
            *value += 0.01; // band is 0.02
        }
    }
    assert!(diff_reports(&golden, &fresh, &Tolerances::for_scenario(&scenario)).is_empty());
}

#[test]
fn digest_perturbation_fails_the_check() {
    let scenario = tiny_scenario();
    let golden = tiny_report();
    let mut fresh = tiny_report();
    fresh.digests[0].1 ^= 1;
    let violations = diff_reports(&golden, &fresh, &Tolerances::for_scenario(&scenario));
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].to_string().contains(&fresh.digests[0].0));
}

#[test]
fn faulted_scenario_reports_decode_statuses() {
    let report = faulted_report();
    assert_eq!(report.stages.len(), 3, "uncompressed + quantized + faulted");
    let faulted = &report.stages[2];
    assert_eq!(faulted.label, "faulted");
    let images = faulted.get("images").unwrap();
    let ok = faulted.get("ok").unwrap();
    let degraded = faulted.get("degraded").unwrap();
    let failed = faulted.get("failed").unwrap();
    assert_eq!(ok + degraded + failed, images, "statuses partition images");
    assert!(images > 0.0);
}

#[test]
fn faulted_golden_round_trips_and_checks_clean() {
    let scenario = faulted_scenario();
    let golden = faulted_report();
    let dir = tempdir("faulted_golden");
    golden.write_golden(&dir).unwrap();
    let reloaded = ConformanceReport::read_golden(&dir, &scenario.name).unwrap();
    let violations = diff_reports(&reloaded, &golden, &Tolerances::for_scenario(&scenario));
    assert!(violations.is_empty(), "{violations:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn newer_container_version_asks_for_rebless() {
    let golden = tiny_report();
    let dir = tempdir("newer_container");
    let path = golden.write_golden(&dir).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let newer = qce_store::FORMAT_VERSION + 1;
    bytes[4..6].copy_from_slice(&newer.to_le_bytes());
    std::fs::write(&path, bytes).unwrap();

    let err = ConformanceReport::read_golden(&dir, &golden.scenario).unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, HarnessError::Rebless { .. }), "{msg}");
    assert!(msg.contains("newer"), "{msg}");
    assert!(msg.contains("bless"), "{msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn newer_payload_version_asks_for_rebless() {
    let golden = tiny_report();
    let dir = tempdir("newer_payload");
    let mut payload = golden.to_payload();
    payload[0..2].copy_from_slice(&(REPORT_FORMAT_VERSION + 1).to_le_bytes());
    let mut artifact = Artifact::new();
    artifact.push(section_kind::DOWNSTREAM_BASE + 0x10, payload);
    artifact
        .write_file(golden_path(&dir, &golden.scenario))
        .unwrap();

    let err = ConformanceReport::read_golden(&dir, &golden.scenario).unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, HarnessError::Rebless { .. }), "{msg}");
    assert!(msg.contains("version"), "{msg}");
    assert!(msg.contains("bless"), "{msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_golden_asks_for_rebless_instead_of_panicking() {
    let golden = tiny_report();
    let dir = tempdir("corrupt_golden");
    let path = golden.write_golden(&dir).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    let err = ConformanceReport::read_golden(&dir, &golden.scenario).unwrap_err();
    assert!(matches!(err, HarnessError::Rebless { .. }), "{err}");

    // Truncation (e.g. an interrupted download) is equally non-fatal.
    std::fs::write(&path, &bytes[..mid]).unwrap();
    let err = ConformanceReport::read_golden(&dir, &golden.scenario).unwrap_err();
    assert!(matches!(err, HarnessError::Rebless { .. }), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn committed_scenario_specs_parse_and_match_builtins() {
    // The committed JSON is the only definition of the conformance
    // scenarios: `check` runs exactly these files against the goldens
    // `bless` wrote beside them. Round-trip and name safety are checked
    // by the `scenario` unit tests over the same files.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../conformance");
    for set in [root.clone(), root.join("tournament")] {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(set.join("scenarios"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        assert!(!paths.is_empty(), "no specs under {}", set.display());
        for path in paths {
            let body = std::fs::read_to_string(&path).unwrap();
            let scenario =
                Scenario::from_json(&body).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            scenario.validate().unwrap();
            let stem = path.file_stem().and_then(|s| s.to_str());
            assert_eq!(Some(scenario.name.as_str()), stem, "{}", path.display());
            let golden = golden_path(&set.join("golden"), &scenario.name);
            assert!(golden.is_file(), "missing golden {}", golden.display());
        }
    }
}
