//! Property-based tests of the metric invariants (DESIGN.md §6).

use proptest::prelude::*;
use qce_data::Image;
use qce_metrics::distribution::{kl_divergence, symmetric_kl, wasserstein1};
use qce_metrics::{mape, mape_slices, ssim};

fn image_strategy() -> impl Strategy<Value = Image> {
    prop::collection::vec(any::<u8>(), 64).prop_map(|px| Image::new(px, 1, 8, 8).unwrap())
}

fn prob_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..1.0, 4..16).prop_map(|v| {
        let total: f64 = v.iter().sum();
        v.into_iter().map(|x| x / total).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mape_is_a_metric_like_distance(a in image_strategy(), b in image_strategy()) {
        prop_assert!(mape(&a, &b) >= 0.0);
        prop_assert_eq!(mape(&a, &a), 0.0);
        prop_assert!((mape(&a, &b) - mape(&b, &a)).abs() < 1e-5);
        prop_assert!(mape(&a, &b) <= 255.0);
    }

    #[test]
    fn mape_triangle_inequality(a in image_strategy(), b in image_strategy(), c in image_strategy()) {
        let (av, bv, cv) = (a.to_f32(), b.to_f32(), c.to_f32());
        prop_assert!(mape_slices(&av, &cv) <= mape_slices(&av, &bv) + mape_slices(&bv, &cv) + 1e-4);
    }

    #[test]
    fn ssim_bounded_and_reflexive(a in image_strategy(), b in image_strategy()) {
        let s = ssim(&a, &b);
        prop_assert!((-1.01..=1.01).contains(&s), "ssim {s}");
        prop_assert!((ssim(&a, &a) - 1.0).abs() < 1e-5);
        prop_assert!((s - ssim(&b, &a)).abs() < 1e-5);
    }

    #[test]
    fn kl_nonnegative_and_zero_iff_equal(p in prob_vec()) {
        prop_assert!(kl_divergence(&p, &p).abs() < 1e-12);
        let mut q = p.clone();
        q.rotate_left(1);
        prop_assert!(kl_divergence(&p, &q) >= -1e-12);
        prop_assert!(symmetric_kl(&p, &q) >= -1e-12);
    }

    #[test]
    fn wasserstein_symmetric_and_zero_on_equal(p in prob_vec()) {
        let mut q = p.clone();
        q.rotate_left(1);
        prop_assert!(wasserstein1(&p, &p).abs() < 1e-12);
        prop_assert!((wasserstein1(&p, &q) - wasserstein1(&q, &p)).abs() < 1e-12);
        prop_assert!(wasserstein1(&p, &q) >= 0.0);
    }
}
