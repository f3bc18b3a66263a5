//! End-to-end daemon tests over the real socket: submit/stream/cancel
//! lifecycle, in-flight dedup, warm cache replay, quotas and typed
//! errors.
//!
//! Telemetry counters are process-global, so every test takes the
//! shared lock and asserts on counter *deltas*.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qce::{BandRule, FlowConfig, Grouping, QuantConfig, QuantMethod};
use qce_harness::{DatasetKind, DatasetSpec, Scenario};
use qce_serve::http::http_request;
use qce_serve::{Server, ServerConfig};
use qce_store::StageCache;
use qce_telemetry::json::{parse, JsonValue};

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "qce-serve-test-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(tag: &str, workers: usize, quota: usize) -> (Server, String, PathBuf) {
    let cache_dir = temp_dir(tag);
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        tenant_quota: quota,
        cache: Some(StageCache::at(&cache_dir)),
    })
    .expect("server start");
    let addr = server.addr().to_string();
    (server, addr, cache_dir)
}

/// A seconds-scale clean scenario; distinct `seed`s are distinct work.
fn scenario(name: &str, seed: u64) -> Scenario {
    Scenario {
        name: name.to_string(),
        dataset: DatasetSpec {
            kind: DatasetKind::Cifar,
            size: 8,
            classes: 4,
            count: 96,
            seed: 5,
            rgb: false,
        },
        flow: FlowConfig {
            seed,
            epochs: 1,
            grouping: Grouping::Uniform(5.0),
            band: BandRule::FirstN,
            quant: Some(QuantConfig::new(QuantMethod::TargetCorrelated, 4)),
            ..FlowConfig::tiny()
        },
        fault: None,
        defenses: Vec::new(),
        tolerance_overrides: Vec::new(),
    }
}

fn submit(addr: &str, scenario: &Scenario, tenant: &str) -> (u16, String) {
    http_request(
        addr,
        "POST",
        "/v1/jobs",
        &[("X-Qce-Tenant", tenant)],
        Some(&scenario.to_json()),
    )
    .expect("submit request")
}

fn field<'a>(doc: &'a JsonValue, name: &str) -> &'a JsonValue {
    doc.get(name)
        .unwrap_or_else(|| panic!("response missing {name:?}"))
}

fn submit_ok(addr: &str, scenario: &Scenario, tenant: &str) -> (String, bool) {
    let (status, body) = submit(addr, scenario, tenant);
    assert_eq!(status, 200, "submit failed: {body}");
    let doc = parse(&body).expect("submit JSON");
    let id = field(&doc, "id").as_str().expect("id string").to_string();
    let deduped = matches!(field(&doc, "deduped"), JsonValue::Bool(true));
    (id, deduped)
}

fn job_status(addr: &str, id: &str) -> JsonValue {
    let (status, body) =
        http_request(addr, "GET", &format!("/v1/jobs/{id}"), &[], None).expect("status request");
    assert_eq!(status, 200, "status failed: {body}");
    parse(&body).expect("status JSON")
}

fn wait_terminal(addr: &str, id: &str) -> JsonValue {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let doc = job_status(addr, id);
        let state = field(&doc, "state").as_str().expect("state").to_string();
        if matches!(state.as_str(), "done" | "failed" | "cancelled") {
            return doc;
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn counter(name: &str) -> u64 {
    qce_telemetry::counter(name).get()
}

#[test]
fn submit_stream_and_status_happy_path() {
    let _guard = serial();
    let (server, addr, cache_dir) = start_server("happy", 2, 0);

    let (id, deduped) = submit_ok(&addr, &scenario("happy", 4101), "alice");
    assert!(!deduped);

    // The stream replays every stage event and ends with a state line.
    let (status, body) =
        http_request(&addr, "GET", &format!("/v1/jobs/{id}/stream"), &[], None).expect("stream");
    assert_eq!(status, 200);
    let lines: Vec<&str> = body.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(lines.len() >= 2, "stream too short: {body}");
    let steps: Vec<String> = lines[..lines.len() - 1]
        .iter()
        .map(|l| {
            let doc = parse(l).expect("event JSON");
            field(&doc, "step").as_str().expect("step").to_string()
        })
        .collect();
    assert!(steps.contains(&"select".to_string()), "steps: {steps:?}");
    assert!(steps.contains(&"train".to_string()), "steps: {steps:?}");
    assert!(steps.contains(&"quantize".to_string()), "steps: {steps:?}");
    let last = parse(lines.last().expect("state line")).expect("state JSON");
    assert_eq!(field(&last, "type").as_str(), Some("state"));
    assert_eq!(field(&last, "state").as_str(), Some("done"));
    let result = field(&last, "result");
    assert!(field(result, "accuracy").as_f64().is_some());
    assert!(field(result, "digests").get("release.weights").is_some());
    assert!(matches!(field(result, "defense"), JsonValue::Null));

    // Status agrees and the result document matches the stream's.
    let doc = wait_terminal(&addr, &id);
    assert_eq!(field(&doc, "state").as_str(), Some("done"));
    assert!(field(&doc, "error").as_str().is_none());

    // Stats endpoint exposes serve + store counters.
    let (status, body) = http_request(&addr, "GET", "/v1/stats", &[], None).expect("stats");
    assert_eq!(status, 200);
    let stats = parse(&body).expect("stats JSON");
    assert!(field(&stats, "counters").get("serve.submit").is_some());

    server.shutdown();
    let _ = std::fs::remove_dir_all(cache_dir);
}

#[test]
fn a_defended_job_reports_the_defended_release() {
    let _guard = serial();
    let (server, addr, cache_dir) = start_server("defended", 1, 0);

    let mut defended = scenario("defended", 4151);
    let (_, rotation) = Scenario::tournament().remove(0).defenses.remove(1);
    defended.flow.defense = Some(rotation);
    let (id, _) = submit_ok(&addr, &defended, "alice");
    let doc = wait_terminal(&addr, &id);
    assert_eq!(field(&doc, "state").as_str(), Some("done"), "{doc:?}");
    let result = field(&doc, "result");
    let defense = field(result, "defense");

    // The same numbers an in-process run of the flow reports for its
    // defended release.
    let outcome = qce::AttackFlow::new(defended.flow.clone())
        .run(&defended.dataset.generate().unwrap())
        .unwrap();
    let expected = outcome.post_defense.as_ref().expect("defended release");
    assert_eq!(
        field(defense, "label").as_str(),
        Some(expected.label.as_str())
    );
    assert_eq!(
        field(defense, "accuracy").as_f64(),
        Some(f64::from(expected.accuracy))
    );
    assert_eq!(
        field(defense, "images").as_u64(),
        Some(expected.images.len() as u64)
    );
    assert_eq!(
        field(defense, "recovered").as_u64(),
        Some(expected.recovered_count(qce_harness::RECOVERY_MAPE_CEILING) as u64)
    );
    assert_eq!(
        field(defense, "mean_mape").as_f64(),
        expected.mean_mape().map(f64::from)
    );
    assert_eq!(
        field(defense, "mean_ssim").as_f64(),
        expected.mean_ssim().map(f64::from)
    );
    // The top-level fields still describe the undefended release.
    assert_eq!(
        field(result, "accuracy").as_f64(),
        Some(f64::from(outcome.final_report().accuracy))
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(cache_dir);
}

#[test]
fn concurrent_identical_submits_share_one_computation() {
    let _guard = serial();
    // One worker: a blocker occupies it so both target submits are
    // still in flight when they arrive.
    let (server, addr, cache_dir) = start_server("dedup", 1, 0);

    let (blocker, _) = submit_ok(&addr, &scenario("blocker", 4201), "ops");
    let dedup_before = counter("serve.dedup");
    let target = scenario("shared", 4202);
    let (id_a, dedup_a) = submit_ok(&addr, &target, "alice");
    let (id_b, dedup_b) = submit_ok(&addr, &target, "bob");

    assert_eq!(id_a, id_b, "identical scenarios must share one job");
    assert!(!dedup_a);
    assert!(dedup_b, "second submit must dedup onto the first");
    assert_eq!(counter("serve.dedup") - dedup_before, 1);

    // Both tenants are attached to the shared job.
    let doc = job_status(&addr, &id_a);
    let tenants = format!("{:?}", field(&doc, "tenants"));
    assert!(
        tenants.contains("alice") && tenants.contains("bob"),
        "{tenants}"
    );

    let done = wait_terminal(&addr, &id_a);
    assert_eq!(field(&done, "state").as_str(), Some("done"));
    wait_terminal(&addr, &blocker);

    server.shutdown();
    let _ = std::fs::remove_dir_all(cache_dir);
}

#[test]
fn warm_resubmit_replays_from_cache_with_zero_recompute() {
    let _guard = serial();
    let (server, addr, cache_dir) = start_server("warm", 2, 0);

    let target = scenario("warm", 4301);
    let (cold_id, _) = submit_ok(&addr, &target, "alice");
    let cold = wait_terminal(&addr, &cold_id);
    assert_eq!(field(&cold, "state").as_str(), Some("done"));
    let cold_digests = format!("{:?}", field(field(&cold, "result"), "digests"));

    // Resubmit after completion: a *new* job that must replay entirely
    // from stage-cache checkpoints — hits for every stage, no writes.
    let hits_before = counter("store.hit");
    let misses_before = counter("store.miss");
    let writes_before = counter("store.write");
    let (warm_id, deduped) = submit_ok(&addr, &target, "bob");
    assert_ne!(warm_id, cold_id);
    assert!(
        !deduped,
        "completed jobs dedup through the cache, not in-flight"
    );
    let warm = wait_terminal(&addr, &warm_id);
    assert_eq!(field(&warm, "state").as_str(), Some("done"));

    let hit_delta = counter("store.hit") - hits_before;
    let miss_delta = counter("store.miss") - misses_before;
    let write_delta = counter("store.write") - writes_before;
    assert!(hit_delta >= 4, "expected >=4 stage hits, got {hit_delta}");
    assert_eq!(miss_delta, 0, "warm resubmit must find every stage cached");
    assert_eq!(write_delta, 0, "warm resubmit must not recompute any stage");

    let warm_digests = format!("{:?}", field(field(&warm, "result"), "digests"));
    assert_eq!(
        cold_digests, warm_digests,
        "replayed result must be identical"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(cache_dir);
}

#[test]
fn cancel_mid_flow_leaves_a_resumable_checkpoint() {
    let _guard = serial();
    let (server, addr, cache_dir) = start_server("cancel", 1, 0);

    // Heavier scenario: two epochs widen the select→train window so the
    // cancel lands mid-flow.
    let mut target = scenario("cancelme", 4401);
    target.flow.epochs = 2;
    target.dataset.count = 160;
    let (id, _) = submit_ok(&addr, &target, "alice");

    // Wait until at least one stage completed, then cancel.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let doc = job_status(&addr, &id);
        let events = format!("{:?}", field(&doc, "events"));
        if events.contains("select") {
            break;
        }
        assert!(Instant::now() < deadline, "job never made progress");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, body) =
        http_request(&addr, "POST", &format!("/v1/jobs/{id}/cancel"), &[], None).expect("cancel");
    assert_eq!(status, 200, "cancel failed: {body}");

    let doc = wait_terminal(&addr, &id);
    assert_eq!(
        field(&doc, "state").as_str(),
        Some("cancelled"),
        "cancel arrived after completion; widen the scenario if this repeats"
    );

    // The completed steps stayed in the cache: a resubmit resumes from
    // the checkpoint (cache hits) and completes.
    let hits_before = counter("store.hit");
    let (resumed, _) = submit_ok(&addr, &target, "alice");
    let done = wait_terminal(&addr, &resumed);
    assert_eq!(field(&done, "state").as_str(), Some("done"));
    assert!(
        counter("store.hit") > hits_before,
        "resumed run must hit the cancelled run's checkpoints"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(cache_dir);
}

#[test]
fn quota_exhaustion_returns_typed_error_and_recovers() {
    let _guard = serial();
    let (server, addr, cache_dir) = start_server("quota", 1, 1);

    let (first, _) = submit_ok(&addr, &scenario("quota_a", 4501), "alice");

    // Same tenant, different work, quota 1 → typed 429.
    let denied_before = counter("serve.quota_denied");
    let (status, body) = submit(&addr, &scenario("quota_b", 4502), "alice");
    assert_eq!(status, 429, "expected quota denial, got {status}: {body}");
    let doc = parse(&body).expect("error JSON");
    assert_eq!(
        field(field(&doc, "error"), "kind").as_str(),
        Some("quota_exhausted")
    );
    assert_eq!(counter("serve.quota_denied") - denied_before, 1);

    // Another tenant is unaffected.
    let (other, _) = submit_ok(&addr, &scenario("quota_c", 4503), "bob");

    // Tenant usage endpoint reflects the charge.
    let (status, body) = http_request(&addr, "GET", "/v1/tenants/alice", &[], None).expect("usage");
    assert_eq!(status, 200);
    let usage = parse(&body).expect("usage JSON");
    assert_eq!(field(&usage, "inflight").as_f64(), Some(1.0));
    assert_eq!(field(&usage, "quota").as_f64(), Some(1.0));

    // Once the first job drains, the tenant can submit again.
    wait_terminal(&addr, &first);
    wait_terminal(&addr, &other);
    let (retry, _) = submit_ok(&addr, &scenario("quota_b", 4502), "alice");
    let done = wait_terminal(&addr, &retry);
    assert_eq!(field(&done, "state").as_str(), Some("done"));

    server.shutdown();
    let _ = std::fs::remove_dir_all(cache_dir);
}

#[test]
fn typed_errors_for_bad_requests() {
    let _guard = serial();
    let (server, addr, cache_dir) = start_server("errors", 1, 0);

    // Fault scenarios belong to the harness CLI, not the server.
    let mut faulted = scenario("faulted", 4601);
    faulted.fault = Some(qce::FaultPlan::new(11).with(qce::FaultKind::BitFlip { rate: 0.002 }));
    let (status, body) = submit(&addr, &faulted, "alice");
    assert_eq!(status, 400);
    let doc = parse(&body).expect("error JSON");
    assert_eq!(
        field(field(&doc, "error"), "kind").as_str(),
        Some("unsupported_axis")
    );

    // Malformed scenario JSON.
    let (status, body) =
        http_request(&addr, "POST", "/v1/jobs", &[], Some("{not json")).expect("bad submit");
    assert_eq!(status, 400, "{body}");
    let doc = parse(&body).expect("error JSON");
    assert_eq!(
        field(field(&doc, "error"), "kind").as_str(),
        Some("bad_request")
    );

    // Unknown job and unknown route.
    let (status, _) = http_request(&addr, "GET", "/v1/jobs/999999", &[], None).expect("missing");
    assert_eq!(status, 404);
    let (status, _) = http_request(&addr, "GET", "/v1/nope", &[], None).expect("no route");
    assert_eq!(status, 404);

    // Bad priority header.
    let (status, body) = http_request(
        &addr,
        "POST",
        "/v1/jobs",
        &[("X-Qce-Priority", "not-a-number")],
        Some(&scenario("prio", 4602).to_json()),
    )
    .expect("bad priority");
    assert_eq!(status, 400, "{body}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(cache_dir);
}

// Regression: a deeply nested body used to overflow the JSON parser's
// stack and abort the daemon.
#[test]
fn deeply_nested_body_is_a_typed_error_not_a_crash() {
    let _guard = serial();
    let (server, addr, cache_dir) = start_server("nesting", 1, 0);

    let body = "[".repeat(10 * 1024);
    let (status, reply) =
        http_request(&addr, "POST", "/v1/jobs", &[], Some(&body)).expect("nested submit");
    assert!((400..500).contains(&status), "{status}: {reply}");
    let doc = parse(&reply).expect("error JSON");
    assert_eq!(
        field(field(&doc, "error"), "kind").as_str(),
        Some("bad_request")
    );
    let (status, _) = http_request(&addr, "GET", "/healthz", &[], None).expect("healthz");
    assert_eq!(status, 200);

    server.shutdown();
    let _ = std::fs::remove_dir_all(cache_dir);
}
