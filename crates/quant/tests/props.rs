//! Property-based tests of the quantization invariants (DESIGN.md §6)
//! and of compute-backend determinism (DESIGN.md "Compute backend &
//! determinism"): fits and bulk assignments must be bit-for-bit equal
//! between the scalar serial reference and every parallel pool at every
//! SIMD dispatch level.

use proptest::prelude::*;
use qce_quant::{
    pack, Codebook, KMeansQuantizer, LinearQuantizer, Quantizer, TargetCorrelatedQuantizer,
    WeightedEntropyQuantizer,
};
use qce_tensor::par::Pool;

fn weights_strategy() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, 64..512)
}

/// The SIMD dispatch level is process-global state; the tests that flip
/// it hold this lock so one cannot compare a level the other just set.
static LEVEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Every dispatch level available on this host, scalar first.
fn simd_levels() -> Vec<qce_tensor::simd::Level> {
    use qce_tensor::simd::{self, Level};
    if simd::detect() == Level::Avx2 {
        vec![Level::Scalar, Level::Avx2]
    } else {
        vec![Level::Scalar]
    }
}

fn check_codebook_invariants(cb: &Codebook, weights: &[f32]) -> Result<(), TestCaseError> {
    // Boundaries non-decreasing.
    prop_assert!(cb.boundaries().windows(2).all(|w| w[0] <= w[1]));
    // Quantization is idempotent and uses only representatives.
    let q = cb.quantize(weights);
    prop_assert_eq!(cb.quantize(&q), q.clone());
    for v in &q {
        prop_assert!(cb.representatives().contains(v));
    }
    // Distinct output values bounded by levels.
    let mut d = q.clone();
    d.sort_by(f32::total_cmp);
    d.dedup();
    prop_assert!(d.len() <= cb.levels());
    // assign/decode round trip equals quantize.
    let decoded = cb.decode(&cb.assign(weights)).unwrap();
    prop_assert_eq!(decoded, q);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn linear_codebook_invariants(weights in weights_strategy(), levels in 2usize..33) {
        let cb = LinearQuantizer::new(levels).unwrap().fit(&weights).unwrap();
        check_codebook_invariants(&cb, &weights)?;
    }

    #[test]
    fn kmeans_codebook_invariants(weights in weights_strategy(), levels in 2usize..17) {
        let cb = KMeansQuantizer::new(levels).unwrap().fit(&weights).unwrap();
        check_codebook_invariants(&cb, &weights)?;
    }

    #[test]
    fn weq_codebook_invariants(weights in weights_strategy(), levels in 2usize..33) {
        let cb = WeightedEntropyQuantizer::new(levels).unwrap().fit(&weights).unwrap();
        check_codebook_invariants(&cb, &weights)?;
    }

    #[test]
    fn target_correlated_codebook_invariants(
        weights in weights_strategy(),
        pixels in prop::collection::vec(0u8..=255, 64..512),
        levels in 2usize..33,
    ) {
        let q = TargetCorrelatedQuantizer::new(levels, &pixels).unwrap();
        let cb = q.fit(&weights).unwrap();
        check_codebook_invariants(&cb, &weights)?;
    }

    #[test]
    fn target_correlated_occupancy_tracks_histogram(
        seed in 0u64..500,
        levels in 2usize..17,
    ) {
        // Large uniform weight sample so rounding error is relatively small.
        let mut rng = qce_tensor::init::seeded_rng(seed);
        use rand::RngExt;
        let weights: Vec<f32> = (0..20_000).map(|_| rng.random_range(-1.0f32..1.0)).collect();
        let pixels: Vec<u8> = (0..4096).map(|_| rng.random_range(0u32..256) as u8).collect();
        let q = TargetCorrelatedQuantizer::new(levels, &pixels).unwrap();
        let cb = q.fit(&weights).unwrap();
        let occ = cb.occupancy(&weights);
        for (i, (&o, &h)) in occ.iter().zip(q.histogram()).enumerate() {
            let expected = h * weights.len() as f64;
            prop_assert!(
                (o as f64 - expected).abs() <= weights.len() as f64 * 0.02 + 2.0,
                "cluster {i}: {o} vs {expected}"
            );
        }
    }

    #[test]
    fn kmeans_never_worse_mse_than_linear(seed in 0u64..200) {
        let mut rng = qce_tensor::init::seeded_rng(seed);
        let weights: Vec<f32> = (0..2000)
            .map(|_| qce_tensor::init::standard_normal(&mut rng))
            .collect();
        let mse = |cb: &Codebook| -> f64 {
            weights.iter().map(|&w| {
                let (_, r) = cb.quantize_value(w);
                ((w - r) as f64).powi(2)
            }).sum::<f64>() / weights.len() as f64
        };
        let lin = LinearQuantizer::new(8).unwrap().fit(&weights).unwrap();
        let km = KMeansQuantizer::new(8).unwrap().fit(&weights).unwrap();
        prop_assert!(mse(&km) <= mse(&lin) * 1.05, "kmeans {} linear {}", mse(&km), mse(&lin));
    }

    #[test]
    fn pack_round_trip(
        indices in prop::collection::vec(0u32..16, 0..300),
        extra_bits in 0u32..3,
    ) {
        let bits = 4 + extra_bits;
        let bytes = pack::pack(&indices, bits).unwrap();
        prop_assert_eq!(bytes.len(), pack::packed_len(indices.len(), bits));
        let back = pack::unpack(&bytes, bits, indices.len()).unwrap();
        prop_assert_eq!(back, indices);
    }

    #[test]
    fn quantizer_fit_bitwise_equal_across_pools(
        weights in prop::collection::vec(-10.0f32..10.0, 64..4000),
        levels in 2usize..33,
        pixel_seed in 0u64..1000,
    ) {
        use qce_tensor::simd;
        let mut rng = qce_tensor::init::seeded_rng(pixel_seed);
        use rand::RngExt;
        let pixels: Vec<u8> = (0..512).map(|_| rng.random_range(0u32..256) as u8).collect();
        let quantizers: Vec<Box<dyn Quantizer>> = vec![
            Box::new(LinearQuantizer::new(levels).unwrap()),
            Box::new(KMeansQuantizer::new(levels).unwrap()),
            Box::new(WeightedEntropyQuantizer::new(levels).unwrap()),
            Box::new(TargetCorrelatedQuantizer::new(levels, &pixels).unwrap()),
        ];
        let _guard = LEVEL_LOCK.lock().unwrap();
        for q in &quantizers {
            let prev = simd::set_active(simd_levels()[0]);
            let reference = q.fit_with(&Pool::serial(), &weights);
            simd::set_active(prev);
            let reference = reference.unwrap();
            for &level in &simd_levels() {
                for threads in [1usize, 2, 3, 8] {
                    let prev = simd::set_active(level);
                    let cb = q.fit_with(&Pool::with_threads(threads), &weights);
                    simd::set_active(prev);
                    let cb = cb.unwrap();
                    let ctx = format!("{} fit at level={} threads={}", q.name(), level.name(), threads);
                    prop_assert_eq!(
                        cb.representatives().len(), reference.representatives().len(),
                        "{} representative count", &ctx
                    );
                    prop_assert_eq!(
                        cb.boundaries().len(), reference.boundaries().len(),
                        "{} boundary count", &ctx
                    );
                    let reps_eq = cb.representatives().iter().zip(reference.representatives())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    let bounds_eq = cb.boundaries().iter().zip(reference.boundaries())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    prop_assert!(reps_eq && bounds_eq, "{} differs from scalar serial", ctx);
                }
            }
        }
    }

    #[test]
    fn bulk_assignment_bitwise_equal_across_pools(
        weights in prop::collection::vec(-10.0f32..10.0, 64..40_000),
        levels in 2usize..33,
    ) {
        let cb = KMeansQuantizer::new(levels).unwrap().fit_with(&Pool::serial(), &weights).unwrap();
        let scalar_idx: Vec<u32> = weights.iter().map(|&w| cb.assign_value(w) as u32).collect();
        for threads in [1usize, 2, 3, 8] {
            let pool = Pool::with_threads(threads);
            prop_assert_eq!(&cb.assign_with(&pool, &weights), &scalar_idx, "threads={}", threads);
            let q = cb.quantize_with(&pool, &weights);
            let d = cb.decode_with(&pool, &scalar_idx).unwrap();
            let same = q.iter().zip(&d).all(|(a, b)| a.to_bits() == b.to_bits());
            prop_assert!(same, "quantize/decode disagree at threads={}", threads);
        }
    }

    #[test]
    fn codebook_assign_bitwise_equal_across_simd_levels(
        levels in 2usize..33,
        seed in 0u64..500,
    ) {
        use qce_tensor::simd;
        // Lengths 1..=17 hit every remainder class of the 8-wide AVX2
        // rank_count body; 40_000 exercises the chunked parallel path.
        let mut lens: Vec<usize> = (1..=17).collect();
        lens.push(40_000);
        let mut rng = qce_tensor::init::seeded_rng(seed);
        use rand::RngExt;
        let all: Vec<f32> = (0..40_000).map(|_| rng.random_range(-10.0..10.0)).collect();
        let cb = KMeansQuantizer::new(levels).unwrap().fit_with(&Pool::serial(), &all).unwrap();
        let _guard = LEVEL_LOCK.lock().unwrap();
        for &len in &lens {
            let w = &all[..len];
            let want: Vec<u32> = w.iter().map(|&x| cb.assign_value(x) as u32).collect();
            for &lvl in &simd_levels() {
                let prev = simd::set_active(lvl);
                for threads in [1usize, 2, 4] {
                    let pool = Pool::with_threads(threads);
                    let got = cb.assign_with(&pool, w);
                    if got != want {
                        simd::set_active(prev);
                        prop_assert!(false, "assign len={} level={} threads={}", len, lvl.name(), threads);
                    }
                    let q = cb.quantize_with(&pool, w);
                    let same = q.len() == want.len() && q.iter().zip(&want)
                        .all(|(a, &i)| a.to_bits() == cb.representatives()[i as usize].to_bits());
                    if !same {
                        simd::set_active(prev);
                        prop_assert!(false, "quantize len={} level={} threads={}", len, lvl.name(), threads);
                    }
                }
                simd::set_active(prev);
            }
        }
    }

    #[test]
    fn quantization_error_bounded_by_range(weights in weights_strategy(), levels in 2usize..17) {
        let cb = LinearQuantizer::new(levels).unwrap().fit(&weights).unwrap();
        let lo = weights.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = weights.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let bin = (hi - lo) / levels as f32;
        for &w in &weights {
            let (_, r) = cb.quantize_value(w);
            // Linear quantization error is at most one bin width.
            prop_assert!((w - r).abs() <= bin + 1e-4);
        }
    }
}
