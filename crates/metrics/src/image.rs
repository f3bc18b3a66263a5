use qce_data::Image;

/// Mean absolute pixel error between two images of identical geometry —
/// the paper's reconstruction-quality metric (lower is better; MAPE > 20
/// counts as "badly encoded" in Table II).
///
/// # Panics
///
/// Panics if the images differ in pixel count.
pub fn mape(original: &Image, reconstructed: &Image) -> f32 {
    mape_slices(&original.to_f32(), &reconstructed.to_f32())
}

/// [`mape`] on raw pixel-value slices in `[0, 255]`.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn mape_slices(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "mape requires equal lengths");
    assert!(!a.is_empty(), "mape of empty images is undefined");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y).abs())
        .sum::<f32>()
        / a.len() as f32
}

const SSIM_WINDOW: usize = 8;
const SSIM_C1: f64 = (0.01 * 255.0) * (0.01 * 255.0);
const SSIM_C2: f64 = (0.03 * 255.0) * (0.03 * 255.0);

/// Mean structural similarity index (Wang et al., 2004) between two
/// images, uniform 8×8 windows at stride 1, averaged over channels.
///
/// Returns a value in `[-1, 1]`; 1 means structurally identical. Images
/// smaller than the window fall back to a single full-image window.
///
/// # Panics
///
/// Panics if the images differ in geometry.
pub fn ssim(original: &Image, reconstructed: &Image) -> f32 {
    assert_eq!(
        (original.channels(), original.height(), original.width()),
        (
            reconstructed.channels(),
            reconstructed.height(),
            reconstructed.width()
        ),
        "ssim requires identical geometry"
    );
    let (c, h, w) = (original.channels(), original.height(), original.width());
    let plane = h * w;
    let a = original.to_f32();
    let b = reconstructed.to_f32();
    let mut total = 0.0f64;
    for ch in 0..c {
        total += ssim_slices(
            &a[ch * plane..(ch + 1) * plane],
            &b[ch * plane..(ch + 1) * plane],
            h,
            w,
        );
    }
    (total / c as f64) as f32
}

/// SSIM of two raw single-channel planes of the given geometry.
///
/// # Panics
///
/// Panics if the slice lengths differ from `h * w`.
fn ssim_slices(a: &[f32], b: &[f32], h: usize, w: usize) -> f64 {
    assert_eq!(a.len(), h * w);
    assert_eq!(b.len(), h * w);
    let win_h = SSIM_WINDOW.min(h);
    let win_w = SSIM_WINDOW.min(w);
    let n_win = ((h - win_h + 1) * (w - win_w + 1)) as f64;
    let win_size = (win_h * win_w) as f64;
    let mut total = 0.0f64;
    for y0 in 0..=(h - win_h) {
        for x0 in 0..=(w - win_w) {
            let (mut sa, mut sb, mut saa, mut sbb, mut sab) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
            for dy in 0..win_h {
                let row = (y0 + dy) * w + x0;
                for dx in 0..win_w {
                    let x = a[row + dx] as f64;
                    let y = b[row + dx] as f64;
                    sa += x;
                    sb += y;
                    saa += x * x;
                    sbb += y * y;
                    sab += x * y;
                }
            }
            let mu_a = sa / win_size;
            let mu_b = sb / win_size;
            let var_a = (saa / win_size - mu_a * mu_a).max(0.0);
            let var_b = (sbb / win_size - mu_b * mu_b).max(0.0);
            let cov = sab / win_size - mu_a * mu_b;
            let s = ((2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2))
                / ((mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2));
            total += s;
        }
    }
    total / n_win
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_image(seed: u8) -> Image {
        let pixels: Vec<u8> = (0..256)
            .map(|i| ((i as usize * 199 + seed as usize * 31) % 256) as u8)
            .collect();
        Image::new(pixels, 1, 16, 16).unwrap()
    }

    #[test]
    fn mape_basics() {
        let a = Image::new(vec![0, 100], 1, 1, 2).unwrap();
        let b = Image::new(vec![10, 90], 1, 1, 2).unwrap();
        assert_eq!(mape(&a, &b), 10.0);
        assert_eq!(mape(&a, &a), 0.0);
        assert!(mape(&a, &b) >= 0.0);
    }

    #[test]
    fn mape_is_symmetric() {
        let a = gradient_image(0);
        let b = gradient_image(7);
        assert!((mape(&a, &b) - mape(&b, &a)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mape_length_mismatch_panics() {
        mape_slices(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn ssim_self_is_one() {
        let a = gradient_image(3);
        assert!((ssim(&a, &a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ssim_in_valid_range_and_orders_degradation() {
        let a = gradient_image(4);
        let mut rng = qce_tensor::init::seeded_rng(1);
        let noisy = |sigma: f32, rng: &mut rand::rngs::StdRng| {
            let v: Vec<f32> = a
                .to_f32()
                .iter()
                .map(|&x| x + sigma * qce_tensor::init::standard_normal(rng))
                .collect();
            Image::from_f32(&v, 1, 16, 16).unwrap()
        };
        let slightly = noisy(5.0, &mut rng);
        let heavily = noisy(80.0, &mut rng);
        let s_slight = ssim(&a, &slightly);
        let s_heavy = ssim(&a, &heavily);
        assert!((-1.0..=1.0).contains(&s_slight));
        assert!((-1.0..=1.0).contains(&s_heavy));
        assert!(s_slight > s_heavy, "{s_slight} <= {s_heavy}");
    }

    #[test]
    fn ssim_detects_structure_loss_better_than_brightness_shift() {
        // A constant brightness shift preserves structure; shuffling
        // destroys it. SSIM should rank them accordingly.
        let a = gradient_image(5);
        let shifted: Vec<f32> = a.to_f32().iter().map(|&v| v + 20.0).collect();
        let b_shift = Image::from_f32(&shifted, 1, 16, 16).unwrap();
        let mut shuffled = a.pixels().to_vec();
        shuffled.reverse();
        let b_shuffle = Image::new(shuffled, 1, 16, 16).unwrap();
        assert!(ssim(&a, &b_shift) > ssim(&a, &b_shuffle));
    }

    #[test]
    fn ssim_small_image_fallback() {
        let a = Image::new(vec![10, 200, 60, 120], 1, 2, 2).unwrap();
        let s = ssim(&a, &a);
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ssim_multichannel_averages() {
        let a = Image::new((0..48).map(|i| (i * 5) as u8).collect(), 3, 4, 4).unwrap();
        assert!((ssim(&a, &a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ssim_slices_matches_image_path() {
        let a = gradient_image(6);
        let b = gradient_image(9);
        let s1 = ssim(&a, &b);
        let s2 = ssim_slices(&a.to_f32(), &b.to_f32(), 16, 16) as f32;
        assert!((s1 - s2).abs() < 1e-6);
    }
}
