//! Flow-side glue for the [`qce_store`] stage cache: the one checkpoint
//! path every flow stage goes through ([`Checkpoints::memo`]), the
//! cache-key derivation, and the [`StageReport`] section codec.
//!
//! `qce-store` sits *below* this crate in the dependency graph, so it
//! cannot know about [`StageReport`]; this module serializes it with the
//! store's public [`codec`](qce_store::codec) primitives under a section
//! kind from the downstream range
//! ([`section_kind::DOWNSTREAM_BASE`](qce_store::section_kind)).
//!
//! The cache key hash covers *both inputs* of the deterministic pipeline:
//! the FNV-1a hash of the flow configuration (the same value the run
//! manifest records) extended over a fingerprint of the dataset. Without
//! the dataset component, two runs with identical configs on different
//! data would collide on the same cache entries.

use qce_data::Dataset;
use qce_nn::Network;
use qce_store::codec::{ByteReader, ByteWriter};
use qce_store::{persist, section_kind, Artifact, CacheKey, Digester, StageCache, StoreError};

use crate::{FaultedImage, FaultedReport, FlowConfig, ImageReport, ImageStatus, StageReport};

/// Section kind tag for a serialized [`StageReport`].
pub(crate) const STAGE_REPORT: u16 = section_kind::DOWNSTREAM_BASE;

/// Section kind tag for a serialized [`FaultedReport`] (the defend
/// stage's checkpoint payload).
pub(crate) const FAULTED_REPORT: u16 = section_kind::DOWNSTREAM_BASE + 1;

/// How a flow's stages are checkpointed: the stage cache (if any) and the
/// key components shared by every stage of one `(config, dataset)` run.
#[derive(Debug)]
pub(crate) struct Checkpoints {
    cache: Option<StageCache>,
    hash: u64,
    seed: u64,
}

impl Checkpoints {
    pub(crate) fn new(cache: Option<StageCache>, config: &FlowConfig, dataset: &Dataset) -> Self {
        Checkpoints {
            cache,
            hash: flow_cache_hash(config, dataset),
            seed: config.seed,
        }
    }

    /// Runs one checkpointed stage over `state`.
    ///
    /// Without a cache this is just `compute`. Otherwise the stage's
    /// artifact is probed first: if `load` accepts it the stage is a
    /// hit; if `load` rejects it (a payload that decodes inconsistently)
    /// `store.corrupt` counts and the stage recomputes. After a compute,
    /// `save` lists the artifact's sections; a serialization or write
    /// failure is logged and swallowed — caching is an optimization,
    /// never a correctness dependency.
    ///
    /// `load` must leave `state` untouched when it fails (see
    /// [`load_network`]).
    pub(crate) fn memo<S, T>(
        &self,
        stage: &str,
        state: &mut S,
        load: impl FnOnce(&mut S, &Artifact) -> qce_store::Result<T>,
        compute: impl FnOnce(&mut S) -> crate::Result<T>,
        save: impl FnOnce(&S, &T) -> qce_store::Result<Vec<(u16, Vec<u8>)>>,
    ) -> crate::Result<T> {
        let Some(cache) = &self.cache else {
            return compute(state);
        };
        let key = CacheKey::new(self.hash, self.seed, stage);
        if let Some(artifact) = cache.load(&key) {
            match load(state, &artifact) {
                Ok(value) => {
                    qce_telemetry::debug!("[flow] stage cache hit: {stage}");
                    return Ok(value);
                }
                Err(e) => {
                    qce_telemetry::counter("store.corrupt").incr(1);
                    qce_telemetry::debug!("[flow] discarding cache entry for {stage}: {e}");
                }
            }
        }
        let value = compute(state)?;
        match save(state, &value) {
            Ok(sections) => {
                let mut artifact = Artifact::new();
                for (kind, payload) in sections {
                    artifact.push(kind, payload);
                }
                if let Err(e) = cache.store(&key, &artifact) {
                    qce_telemetry::debug!("[flow] stage checkpoint write failed for {stage}: {e}");
                }
            }
            Err(e) => qce_telemetry::debug!(
                "[flow] skipping {stage} checkpoint (serialization failed): {e}"
            ),
        }
        Ok(value)
    }
}

/// Loads a cached network section into `net`. The loader mutates
/// parameters as it parses, so this is snapshot-guarded: a payload that
/// fails mid-way leaves `net` as it was.
pub(crate) fn load_network(net: &mut Network, bytes: &[u8]) -> qce_store::Result<()> {
    let guard = net.snapshot();
    persist::network_from_bytes(net, bytes).inspect_err(|_| {
        let _ = net.restore(&guard);
    })
}

/// Rejects a cached report whose label is not the one this stage
/// computes (a foreign artifact under the stage's key).
pub(crate) fn check_label(stored: &str, expected: &str) -> qce_store::Result<()> {
    if stored == expected {
        return Ok(());
    }
    Err(StoreError::Payload {
        reason: format!("label mismatch: stored {stored:?}"),
    })
}

/// The hash component of every stage cache key for a `(config, dataset)`
/// pair: the manifest's config hash, extended FNV-1a style over the
/// dataset's class count, length, per-image geometry, pixels, and labels.
fn flow_cache_hash(config: &FlowConfig, dataset: &Dataset) -> u64 {
    let mut d = Digester::new()
        .u64(qce_telemetry::fnv1a(&format!("{config:?}")))
        .u64(dataset.classes() as u64)
        .u64(dataset.len() as u64);
    for (image, &label) in dataset.images().iter().zip(dataset.labels()) {
        d = d
            .bytes(&(image.channels() as u32).to_le_bytes())
            .bytes(&(image.height() as u32).to_le_bytes())
            .bytes(&(image.width() as u32).to_le_bytes())
            .bytes(image.pixels())
            .u64(label as u64);
    }
    d.finish()
}

/// Serializes a [`StageReport`] — including the observational `wall_ms`
/// and `metrics` fields, so a cache-loaded report still renders sensible
/// manifest stage stats.
pub(crate) fn report_to_bytes(report: &StageReport) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(&report.label).put_f32(report.accuracy);
    w.put_u64(report.images.len() as u64);
    for img in &report.images {
        w.put_u64(img.target_index as u64)
            .put_u64(img.dataset_index as u64)
            .put_u64(img.group as u64)
            .put_f32(img.mape)
            .put_f32(img.ssim)
            .put_u8(u8::from(img.recognized));
    }
    w.put_f32_slice(&report.group_correlations);
    w.put_f64(report.wall_ms);
    w.put_u64(report.metrics.len() as u64);
    for (name, value) in &report.metrics {
        w.put_str(name).put_f64(*value);
    }
    w.finish()
}

/// Reads a payload written by [`report_to_bytes`].
pub(crate) fn report_from_bytes(bytes: &[u8]) -> Result<StageReport, StoreError> {
    let mut r = ByteReader::new(bytes);
    let label = r.str()?;
    let accuracy = r.f32()?;
    let image_count = r.len_u64()?;
    let mut images = Vec::with_capacity(image_count.min(bytes.len() / 33));
    for _ in 0..image_count {
        images.push(ImageReport {
            target_index: r.len_u64()?,
            dataset_index: r.len_u64()?,
            group: r.len_u64()?,
            mape: r.f32()?,
            ssim: r.f32()?,
            recognized: r.u8()? != 0,
        });
    }
    let group_correlations = r.f32_vec()?;
    let wall_ms = r.f64()?;
    let metric_count = r.len_u64()?;
    let mut metrics = Vec::with_capacity(metric_count.min(bytes.len() / 16));
    for _ in 0..metric_count {
        let name = r.str()?;
        let value = r.f64()?;
        metrics.push((name, value));
    }
    r.expect_empty()?;
    Ok(StageReport {
        label,
        accuracy,
        images,
        group_correlations,
        wall_ms,
        metrics,
    })
}

/// Serializes a [`FaultedReport`] (the defend-stage checkpoint payload).
pub(crate) fn faulted_to_bytes(report: &FaultedReport) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(&report.label).put_f32(report.accuracy);
    w.put_u64(report.images.len() as u64);
    for img in &report.images {
        w.put_u64(img.target_index as u64).put_u64(img.group as u64);
        match &img.status {
            ImageStatus::Ok => {
                w.put_u8(0);
            }
            ImageStatus::Degraded { repaired_pixels } => {
                w.put_u8(1).put_u64(*repaired_pixels as u64);
            }
            ImageStatus::Failed { reason } => {
                w.put_u8(2).put_str(reason);
            }
        }
        w.put_opt_f32(img.mape).put_opt_f32(img.ssim);
    }
    w.put_f32(report.mean_confidence);
    w.finish()
}

/// Reads a payload written by [`faulted_to_bytes`].
pub(crate) fn faulted_from_bytes(bytes: &[u8]) -> Result<FaultedReport, StoreError> {
    let mut r = ByteReader::new(bytes);
    let label = r.str()?;
    let accuracy = r.f32()?;
    let image_count = r.len_u64()?;
    let mut images = Vec::with_capacity(image_count.min(bytes.len() / 19));
    for _ in 0..image_count {
        let target_index = r.len_u64()?;
        let group = r.len_u64()?;
        let status = match r.u8()? {
            0 => ImageStatus::Ok,
            1 => ImageStatus::Degraded {
                repaired_pixels: r.len_u64()?,
            },
            2 => ImageStatus::Failed { reason: r.str()? },
            tag => {
                return Err(StoreError::Payload {
                    reason: format!("unknown image status tag {tag}"),
                })
            }
        };
        images.push(FaultedImage {
            target_index,
            group,
            status,
            mape: r.opt_f32()?,
            ssim: r.opt_f32()?,
        });
    }
    let mean_confidence = r.f32()?;
    r.expect_empty()?;
    Ok(FaultedReport {
        label,
        accuracy,
        images,
        mean_confidence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qce_data::SynthCifar;

    fn f32_bits() -> impl Strategy<Value = f32> {
        any::<u32>().prop_map(f32::from_bits)
    }

    // The vendored proptest has no tuple strategies, so a report is
    // assembled from parallel per-field vectors zipped to a common length.
    fn build_report(
        label: Vec<u8>,
        accuracy: f32,
        quality: Vec<f32>,
        recognized: Vec<bool>,
        group_correlations: Vec<f32>,
    ) -> StageReport {
        let images = quality
            .iter()
            .zip(&recognized)
            .enumerate()
            .map(|(i, (&q, &rec))| ImageReport {
                target_index: i,
                dataset_index: i * 7 + 3,
                group: i % 3,
                mape: q,
                ssim: q * 0.5 - 1.0,
                recognized: rec,
            })
            .collect();
        StageReport {
            label: label.into_iter().map(|b| char::from(b & 0x7F)).collect(),
            accuracy,
            images,
            group_correlations,
            wall_ms: 12.5,
            metrics: vec![("eval.accuracy".to_string(), 0.5)],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn stage_report_round_trip_is_identity(
            label in prop::collection::vec(any::<u8>(), 0..12),
            accuracy in f32_bits(),
            quality in prop::collection::vec(f32_bits(), 0..8),
            recognized in prop::collection::vec(any::<bool>(), 8),
            group_correlations in prop::collection::vec(f32_bits(), 0..6),
        ) {
            let report = build_report(label, accuracy, quality, recognized, group_correlations);
            let back = report_from_bytes(&report_to_bytes(&report)).unwrap();
            // StageReport::eq ignores observational fields; check the lot.
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(&back.label, &report.label);
            prop_assert_eq!(back.accuracy.to_bits(), report.accuracy.to_bits());
            prop_assert_eq!(back.images.len(), report.images.len());
            for (a, b) in back.images.iter().zip(&report.images) {
                prop_assert_eq!(a.target_index, b.target_index);
                prop_assert_eq!(a.dataset_index, b.dataset_index);
                prop_assert_eq!(a.group, b.group);
                prop_assert_eq!(a.mape.to_bits(), b.mape.to_bits());
                prop_assert_eq!(a.ssim.to_bits(), b.ssim.to_bits());
                prop_assert_eq!(a.recognized, b.recognized);
            }
            prop_assert_eq!(
                bits(&back.group_correlations),
                bits(&report.group_correlations)
            );
            prop_assert_eq!(back.wall_ms, report.wall_ms);
            prop_assert_eq!(&back.metrics, &report.metrics);
        }

        #[test]
        fn stage_report_truncations_error(
            label in prop::collection::vec(any::<u8>(), 0..12),
            quality in prop::collection::vec(f32_bits(), 1..8),
            recognized in prop::collection::vec(any::<bool>(), 8),
            cut in any::<usize>(),
        ) {
            let report = build_report(label, 0.5, quality, recognized, vec![0.9]);
            let bytes = report_to_bytes(&report);
            let len = cut % bytes.len().max(1);
            if len < bytes.len() {
                prop_assert!(report_from_bytes(&bytes[..len]).is_err());
            }
        }
    }

    #[test]
    fn faulted_report_round_trips_and_rejects_damage() {
        let report = FaultedReport {
            label: "defended seed 7".to_string(),
            accuracy: 0.42,
            images: vec![
                FaultedImage {
                    target_index: 0,
                    group: 0,
                    status: ImageStatus::Ok,
                    mape: Some(3.5),
                    ssim: Some(0.9),
                },
                FaultedImage {
                    target_index: 1,
                    group: 2,
                    status: ImageStatus::Degraded {
                        repaired_pixels: 17,
                    },
                    mape: Some(12.0),
                    ssim: None,
                },
                FaultedImage {
                    target_index: 2,
                    group: 1,
                    status: ImageStatus::Failed {
                        reason: "crc".to_string(),
                    },
                    mape: None,
                    ssim: None,
                },
            ],
            mean_confidence: 0.77,
        };
        let bytes = faulted_to_bytes(&report);
        assert_eq!(faulted_from_bytes(&bytes).unwrap(), report);
        // Truncation errors instead of panicking.
        assert!(faulted_from_bytes(&bytes[..bytes.len() - 1]).is_err());
        // An unknown status tag is a payload error.
        let mut w = ByteWriter::new();
        w.put_str("x").put_f32(0.0);
        w.put_u64(1);
        w.put_u64(0).put_u64(0).put_u8(9);
        assert!(faulted_from_bytes(&w.finish()).is_err());
    }

    #[test]
    fn cache_hash_separates_configs_and_datasets() {
        let data_a = SynthCifar::new(8).classes(4).generate(24, 5).unwrap();
        let data_b = SynthCifar::new(8).classes(4).generate(24, 6).unwrap();
        let cfg_a = FlowConfig::tiny();
        let cfg_b = FlowConfig {
            epochs: cfg_a.epochs + 1,
            ..FlowConfig::tiny()
        };
        let base = flow_cache_hash(&cfg_a, &data_a);
        assert_eq!(base, flow_cache_hash(&cfg_a, &data_a));
        assert_ne!(base, flow_cache_hash(&cfg_b, &data_a));
        assert_ne!(base, flow_cache_hash(&cfg_a, &data_b));
    }

    // Regression: the λ schedule is a swept axis; two cells differing
    // only in it must land on distinct cache entries.
    #[test]
    fn cache_hash_separates_lambda_schedules() {
        let data = SynthCifar::new(8).classes(4).generate(24, 5).unwrap();
        let warmup = FlowConfig::tiny();
        let constant = FlowConfig {
            lambda_schedule: crate::LambdaSchedule::Constant,
            ..FlowConfig::tiny()
        };
        assert_ne!(
            flow_cache_hash(&warmup, &data),
            flow_cache_hash(&constant, &data)
        );
    }
}
