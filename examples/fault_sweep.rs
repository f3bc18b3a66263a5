//! Fault-injection walkthrough: train a small attack model, release it
//! quantized, corrupt the release with a seeded [`FaultPlan`], and watch
//! the *resilient* decoder return partial results with per-image status
//! instead of aborting.
//!
//! ```text
//! cargo run --release --example fault_sweep
//! ```

use qce::{
    AttackFlow, BandRule, FaultKind, FaultPlan, FlowConfig, Grouping, Perturbation, QuantConfig,
    QuantMethod, RobustnessReport,
};
use qce_attack::ImageStatus;
use qce_data::SynthCifar;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = SynthCifar::new(8).classes(4).generate(240, 21)?;
    let cfg = FlowConfig {
        grouping: Grouping::Uniform(5.0),
        band: BandRule::FirstN,
        quant: None,
        ..FlowConfig::tiny()
    };
    let mut trained = AttackFlow::new(cfg).train(&dataset)?;
    let clean = trained.float_report()?;
    println!(
        "trained: accuracy {:.3}, {} images encoded, mean MAPE {:.1}\n",
        clean.accuracy,
        clean.images.len(),
        clean.mean_mape(),
    );

    // 1) A 4-bit release whose packed cluster-index stream suffers 0.1%
    //    bit rot. The resilient decoder reports per-image status and never
    //    panics — this is the scenario a naive decoder aborts on.
    let qcfg = QuantConfig::new(QuantMethod::KMeans, 4);
    let arm = Perturbation::Fault(FaultPlan::new(97).with(FaultKind::BitFlip { rate: 0.001 }));
    let faulted = trained.evaluate_arm(Some(qcfg), &arm, "bitflip 0.1%".to_string())?;
    println!(
        "faulted release '{}': accuracy {:.3}, decode confidence {:.3}",
        faulted.label, faulted.accuracy, faulted.mean_confidence,
    );
    println!(
        "per-image status ({} ok / {} degraded / {} failed):",
        faulted.ok_count(),
        faulted.degraded_count(),
        faulted.failed_count(),
    );
    for img in &faulted.images {
        let quality = match (img.mape, img.ssim) {
            (Some(m), Some(s)) => format!("mape {m:>5.1} ssim {s:.3}"),
            _ => "unrecovered".to_string(),
        };
        let status = match &img.status {
            ImageStatus::Ok => "ok".to_string(),
            ImageStatus::Degraded { repaired_pixels } => {
                format!("degraded ({repaired_pixels} px repaired)")
            }
            ImageStatus::Failed { reason } => format!("failed: {reason}"),
        };
        println!(
            "  image {:>2} group {}  {quality}  [{status}]",
            img.target_index, img.group
        );
    }

    // 2) Severity sweep: the same seeded plan scaled up. Because severity
    //    scaling is nested (same seed, superset of flips), decode quality
    //    degrades monotonically.
    let base = FaultPlan::new(11)
        .with(FaultKind::BitFlip { rate: 0.0005 })
        .with(FaultKind::GaussianNoise { fraction: 0.01 });
    let severities = [0.0f32, 2.0, 8.0, 32.0];
    let sweep = trained.robustness_sweep(Some(qcfg), &base, &severities)?;
    println!(
        "\nseverity sweep (quantized release):\n\n{}",
        sweep.summary()
    );
    println!(
        "CSV ({}):\n{}",
        RobustnessReport::csv_header(),
        sweep.to_csv()
    );

    assert!(
        sweep.mape_monotone(5.0) && sweep.ssim_monotone(0.05),
        "decode quality must degrade monotonically with fault severity"
    );
    println!("\nmonotone degradation check: passed");
    Ok(())
}
