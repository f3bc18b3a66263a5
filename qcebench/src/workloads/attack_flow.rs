//! `attack_flow`: closed loop, one client; each op is one whole attack
//! flow, run cold (no stage cache) through `AttackFlow::machine` and
//! `FlowMachine::advance`.
//!
//! A flow is the `small` preset trimmed to about 0.13 s on average (see
//! [`super::flow_config`]), so a 28 s phase times well over a hundred
//! of them and the tail percentile lies near p95, apart from the median.
//!
//! The ops cycle through a fixed roster of flows; the workload seed
//! shuffles the order of every pass. Each op's released model must
//! reproduce the recorded `artifact_digests()` of its roster entry.
//!
//! Roster entries differ in dataset size, so flow times spread over
//! about 2.6×. With equal flows, every op's latency would be a sample of
//! the host's speed alone; on a shared host whose speed switches between
//! a fast and a slow level for seconds at a time, the median of such
//! ops jumps between the two levels with the share of time spent in
//! each: one set of ten runs of the same code spread 41 % (interquartile
//! range over median). Spread flow sizes blur the two levels, so the
//! median follows the mean.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qce::{AttackFlow, FlowOutcome, StageStep};
use qce_data::Dataset;

use super::{flow_config, flow_dataset, timed_phases, timed_setup, Ctx, Quality, Report};
use crate::run::{ms_since, roster_sequence, Phase};
use crate::trace;

/// The roster: flow seed and dataset image count of each entry. Sizes
/// grow by about 1.15× per entry around [`super::FLOW_IMAGES`].
pub const ROSTER: [(u64, usize); 8] = [
    (101, 60),
    (102, 68),
    (103, 80),
    (104, 92),
    (105, 104),
    (106, 120),
    (107, 136),
    (108, 156),
];

/// Recorded `artifact_digests()` of each roster flow, in the order the
/// flow lists them (`release.weights`, `select.indices`,
/// `targets.pixels`, `training.history`).
pub const EXPECTED: [(u64, [u64; 4]); 8] = [
    (
        101,
        [
            0xc7e6_cccd_e9fe_1204,
            0x9b75_7adf_3447_ea2f,
            0x3a98_7040_de08_b003,
            0x4947_50e4_5ef1_3731,
        ],
    ),
    (
        102,
        [
            0x133a_b595_57f4_f891,
            0x8eda_6b6d_adbf_4c6a,
            0x0622_fea6_dabd_c5be,
            0x1750_6be5_4b01_5db6,
        ],
    ),
    (
        103,
        [
            0x8735_3f77_9626_0de6,
            0xa060_3c45_c419_19d3,
            0x25e2_eb0f_5c8f_8e37,
            0xeba3_bcf3_4d6d_9046,
        ],
    ),
    (
        104,
        [
            0x1f79_fe39_11b8_ceae,
            0xc183_d0fd_a7e8_966d,
            0xeffb_2c83_d000_c1b2,
            0x2d40_bdf9_8e4e_34a7,
        ],
    ),
    (
        105,
        [
            0x2f9f_1bde_6c55_a553,
            0x3df0_8ed8_3d57_ef33,
            0xcd08_17bf_f238_5488,
            0x0b3f_26c7_bb1a_2a33,
        ],
    ),
    (
        106,
        [
            0x53b6_73ca_99aa_ae1e,
            0xe12e_cb4d_1d5a_fe8c,
            0x2b9e_503c_9568_248e,
            0xf04e_c582_230a_e398,
        ],
    ),
    (
        107,
        [
            0xb9f0_12fc_a294_1d47,
            0x4d11_ea69_30da_3a04,
            0x6d7d_b341_7972_8468,
            0x4f60_f946_1970_4de9,
        ],
    ),
    (
        108,
        [
            0x2c65_c270_36b5_f497,
            0x7728_88eb_a003_dcb8,
            0x6bfc_7f5f_c20d_fd48,
            0xfad7_1eca_1ca2_fd44,
        ],
    ),
];

/// Fewest flows an untraced phase runs, deadline or not: with 100 ops
/// the tail percentile (ten samples beyond it) is p90 or higher.
pub const MIN_FLOWS: usize = 100;

/// Largest share of an op's time its `core.*` stage spans may leave
/// uncovered in the traced run.
pub const COVERAGE_TOLERANCE: f64 = 0.02;

/// The span name of one flow step.
pub fn stage_span(step: StageStep) -> &'static str {
    match step {
        StageStep::Select => "core.select",
        StageStep::Train => "core.train",
        StageStep::EvaluateFloat => "core.eval_float",
        StageStep::Quantize => "core.quantize",
        StageStep::EvaluateQuantized => "core.eval_release",
        StageStep::Defend => "core.defend",
        StageStep::Finish => "core.finish",
        StageStep::Done => "core.done",
    }
}

fn run_flow(data: &Dataset, seed: u64, op: u64) -> Result<FlowOutcome, String> {
    let _op = trace::op_span("flow", op);
    let mut machine = AttackFlow::new(flow_config(seed))
        .machine(data)
        .map_err(|e| format!("flow {seed}: {e}"))?;
    while !machine.is_done() {
        let _stage = trace::span(stage_span(machine.step()));
        machine.advance().map_err(|e| format!("flow {seed}: {e}"))?;
    }
    machine
        .into_outcome()
        .map_err(|e| format!("flow {seed}: {e}"))
}

/// One checked flow of the roster, for the layer drives of every traced
/// run; returns the `core.*` span coverage of the flows traced so far.
pub fn drive_once() -> Result<Vec<(String, f64)>, String> {
    let (seed, images) = ROSTER[0];
    let data = flow_dataset(images)?;
    let outcome = run_flow(&data, seed, super::DRIVE_OP)?;
    check_digests(seed, &outcome.artifact_digests())?;
    let coverage = stage_coverage(&trace::closed());
    Ok(vec![("core.span_coverage_min".to_string(), coverage)])
}

/// Checks a flow's digests against the recorded ones for `seed`.
pub fn check_digests(seed: u64, digests: &[(String, u64)]) -> Result<(), String> {
    let expected = EXPECTED
        .iter()
        .find(|(s, _)| *s == seed)
        .map(|(_, d)| d)
        .ok_or_else(|| format!("flow {seed}: no recorded digests"))?;
    let observed: Vec<u64> = digests.iter().map(|(_, d)| *d).collect();
    if observed == expected {
        Ok(())
    } else {
        Err(format!(
            "flow {seed}: artifact digests {} differ from the recorded {}",
            hex(&observed),
            hex(expected)
        ))
    }
}

fn hex(digests: &[u64]) -> String {
    let parts: Vec<String> = digests.iter().map(|d| format!("0x{d:016x}")).collect();
    format!("[{}]", parts.join(", "))
}

/// Recovered and encoded image counts plus release accuracy of a flow.
fn quality_of(outcome: &FlowOutcome) -> (u64, u64, f64) {
    let report = outcome.final_report();
    let recovered = report
        .images
        .iter()
        .filter(|i| i.mape <= super::RECOVERED_MAPE)
        .count() as u64;
    (
        recovered,
        outcome.targets.len() as u64,
        f64::from(report.accuracy),
    )
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let Some(datasets) = timed_setup(ctx, &mut report, |checks| {
        let datasets = ROSTER
            .iter()
            .map(|&(_, images)| {
                let _s = trace::span("data.synth");
                flow_dataset(images)
            })
            .collect::<Result<Vec<Dataset>, String>>()?;
        // Discarded warm-up of the op kind; its output is still checked.
        let seed = ROSTER[0].0;
        let t = Instant::now();
        let outcome = run_flow(&datasets[0], seed, 0)?;
        checks.record(
            ms_since(t),
            check_digests(seed, &outcome.artifact_digests()),
        );
        Ok(datasets)
    })?
    else {
        return Ok(report);
    };

    let sequence = roster_sequence(ctx.seed, ROSTER.len(), 256);
    let mut quality: BTreeMap<u64, (u64, u64, f64)> = BTreeMap::new();
    let mut next_op = 1u64;
    timed_phases(ctx, &mut report, |seconds| {
        let mut phase = Phase::default();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        // Run in whole passes, so every run times the same mix of
        // sizes, until the deadline and at least one pass (untraced: at
        // least MIN_FLOWS ops).
        for (i, &entry) in sequence.iter().enumerate() {
            if i % ROSTER.len() == 0
                && i >= ctx.min_ops(ROSTER.len(), MIN_FLOWS)
                && Instant::now() >= deadline
            {
                break;
            }
            let seed = ROSTER[entry].0;
            let t = Instant::now();
            let outcome = run_flow(&datasets[entry], seed, next_op);
            next_op += 1;
            let latency = ms_since(t);
            match outcome {
                Ok(outcome) => {
                    phase.record(latency, check_digests(seed, &outcome.artifact_digests()));
                    quality.entry(seed).or_insert_with(|| quality_of(&outcome));
                }
                Err(e) => phase.fail(e),
            }
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        Ok(phase)
    })?;

    report.quality = quality
        .values()
        .fold(Quality::default(), |mut q, &(r, n, a)| {
            q.recovered += r;
            q.encoded += n;
            q.accuracies.push(a);
            q
        });
    if ctx.traced {
        let coverage = stage_coverage(&trace::closed());
        report
            .layer
            .push(("core.span_coverage_min".to_string(), coverage));
        let ok = coverage >= 1.0 - COVERAGE_TOLERANCE;
        report.notes.push(format!(
            "core.* spans cover at least {:.2}% of every traced op (tolerance {:.0}%): {}",
            100.0 * coverage,
            100.0 * COVERAGE_TOLERANCE,
            if ok { "ok" } else { "VIOLATED" }
        ));
        report.checks.record(
            0.0,
            if ok {
                Ok(())
            } else {
                Err(format!("core.* spans cover only {coverage:.4} of an op"))
            },
        );
    }
    Ok(report)
}

/// Smallest share of a `flow` span's duration covered by its direct
/// `core.*` children.
fn stage_coverage(spans: &[trace::Closed]) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == "flow" && s.dur_us > 0)
        .map(|op| {
            let covered: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(op.id) && c.name.starts_with("core."))
                .map(|c| c.dur_us)
                .sum();
            covered as f64 / op.dur_us as f64
        })
        .fold(f64::INFINITY, f64::min)
        .min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_doctored_digest_fails_the_op() {
        let (seed, digests) = EXPECTED[0];
        let mut observed: Vec<(String, u64)> =
            digests.iter().map(|&d| ("x".to_string(), d)).collect();
        assert!(check_digests(seed, &observed).is_ok());
        observed[0].1 ^= 1;
        let mut phase = Phase::default();
        phase.record(1.0, check_digests(seed, &observed));
        assert_eq!(phase.failed, 1);
        assert_eq!(phase.fail_ratio(), 1.0);
    }

    #[test]
    fn roster_and_expectations_agree() {
        let seeds: Vec<u64> = EXPECTED.iter().map(|(s, _)| *s).collect();
        let roster: Vec<u64> = ROSTER.iter().map(|(s, _)| *s).collect();
        assert_eq!(seeds, roster);
    }
}
