use rand::{Rng, RngExt};

use crate::synth::to_pixel;
use crate::{DataError, Dataset, Image, Result};

/// Range of the per-image contrast factor; the pixel std is about
/// `contrast * 85`.
const CONTRAST: std::ops::Range<f32> = 0.12..1.0;

/// Standard deviation of the additive pixel noise.
const NOISE: f32 = 30.0;

/// Procedural 10-class image generator standing in for CIFAR-10.
///
/// Each class is a distinct mixture of oriented gratings and radial rings
/// with a class-specific color tint; per-image phase, translation,
/// contrast and noise jitter make the task non-trivial while keeping it
/// easily separable by a small CNN. The per-image contrast factor is drawn
/// from a wide range so the dataset's per-image pixel-std spectrum spans
/// the bands the §IV-A preprocessing analyzes (roughly 10–90).
///
/// # Examples
///
/// ```
/// use qce_data::SynthCifar;
///
/// # fn main() -> Result<(), qce_data::DataError> {
/// let data = SynthCifar::new(16).generate(100, 42)?;
/// assert_eq!(data.len(), 100);
/// assert_eq!(data.classes(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SynthCifar {
    size: usize,
    rgb: bool,
    classes: usize,
}

impl SynthCifar {
    /// Creates a generator for square `size`×`size` RGB images, 10 classes.
    pub fn new(size: usize) -> Self {
        SynthCifar {
            size,
            rgb: true,
            classes: 10,
        }
    }

    /// Chooses RGB (3-channel) or grayscale (1-channel) output.
    pub fn rgb(mut self, rgb: bool) -> Self {
        self.rgb = rgb;
        self
    }

    /// Overrides the class count (default 10).
    pub fn classes(mut self, classes: usize) -> Self {
        self.classes = classes;
        self
    }

    /// Generates `n` labelled images deterministically from `seed`.
    ///
    /// Labels cycle through the classes so every class is (near-)equally
    /// represented.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] for zero size/classes/samples.
    pub fn generate(&self, n: usize, seed: u64) -> Result<Dataset> {
        if self.size == 0 || self.classes == 0 || n == 0 {
            return Err(DataError::InvalidConfig {
                reason: "size, classes and n must be non-zero".to_string(),
            });
        }
        let mut rng = qce_tensor::init::seeded_rng(seed);
        let channels = if self.rgb { 3 } else { 1 };
        let mut images = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % self.classes;
            images.push(self.render(class, channels, &mut rng)?);
            labels.push(class);
        }
        Dataset::new(images, labels, self.classes)
    }

    /// Renders one image of `class`.
    fn render<R: Rng + RngExt>(&self, class: usize, channels: usize, rng: &mut R) -> Result<Image> {
        let s = self.size as f32;
        let k = class as f32;
        // Class-specific texture parameters.
        let theta = k * std::f32::consts::PI / self.classes as f32;
        let freq = 2.0 + (class % 3) as f32; // cycles per image
        let ring_freq = 3.0 + (class % 4) as f32;
        let mix = 0.35 + 0.5 * ((class % 5) as f32 / 4.0); // grating vs rings

        // Per-image jitter. Orientation and frequency jitter approach the
        // class spacing, so boundary samples are genuinely ambiguous and a
        // small CNN lands near 90% rather than memorizing the generator.
        let phase: f32 = rng.random_range(0.0..std::f32::consts::TAU);
        let dx: f32 = rng.random_range(-2.0..2.0);
        let dy: f32 = rng.random_range(-2.0..2.0);
        let theta = theta + rng.random_range(-0.17..0.17);
        let (cos_t, sin_t) = (theta.cos(), theta.sin());
        let freq = freq * rng.random_range(0.78..1.28);
        let mix = (mix + rng.random_range(-0.22..0.22)).clamp(0.0, 1.0);
        let contrast: f32 = rng.random_range(CONTRAST);
        let brightness: f32 = rng.random_range(-12.0..12.0);
        let amplitude = 215.0 * contrast;

        // Class tint per channel (grayscale uses channel 0 only).
        let tint: Vec<f32> = (0..channels)
            .map(|c| 0.80 + 0.20 * (k * 2.399 + c as f32 * 2.1).sin())
            .collect();

        let plane = self.size * self.size;
        let mut pixels = vec![0u8; channels * plane];
        for y in 0..self.size {
            for x in 0..self.size {
                let u = (x as f32 + dx) / s - 0.5;
                let v = (y as f32 + dy) / s - 0.5;
                let along = u * cos_t + v * sin_t;
                let grating = (std::f32::consts::TAU * freq * along + phase).sin();
                let r = (u * u + v * v).sqrt();
                let rings = (std::f32::consts::TAU * ring_freq * r + phase).cos();
                let pattern = mix * grating + (1.0 - mix) * rings;
                let noise = NOISE * qce_tensor::init::standard_normal(rng);
                for (c, &t) in tint.iter().enumerate() {
                    let val = 128.0 + brightness + t * amplitude * pattern + noise;
                    pixels[c * plane + y * self.size + x] = to_pixel(val);
                }
            }
        }
        Image::new(pixels, channels, self.size, self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let g = SynthCifar::new(8);
        let a = g.generate(20, 5).unwrap();
        let b = g.generate(20, 5).unwrap();
        assert_eq!(a, b);
        let c = g.generate(20, 6).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn labels_cycle_through_classes() {
        let d = SynthCifar::new(8).generate(25, 1).unwrap();
        assert_eq!(d.label(0), 0);
        assert_eq!(d.label(9), 9);
        assert_eq!(d.label(10), 0);
    }

    #[test]
    fn grayscale_option() {
        let d = SynthCifar::new(8).rgb(false).generate(5, 1).unwrap();
        assert_eq!(d.image(0).channels(), 1);
        let d3 = SynthCifar::new(8).generate(5, 1).unwrap();
        assert_eq!(d3.image(0).channels(), 3);
    }

    #[test]
    fn std_spectrum_is_wide() {
        let d = SynthCifar::new(16).generate(400, 2).unwrap();
        let stds = d.pixel_stds();
        let lo = stds.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = stds.iter().cloned().fold(0.0f32, f32::max);
        assert!(lo < 30.0, "min std {lo}");
        assert!(hi > 60.0, "max std {hi}");
    }

    #[test]
    fn classes_are_visually_distinct() {
        // Mean absolute pixel difference between high-contrast exemplars
        // of two classes should be large.
        let d = SynthCifar::new(16).generate(100, 3).unwrap();
        let stds = d.pixel_stds();
        let exemplar = |class: usize| {
            let best = (class..d.len())
                .step_by(10)
                .max_by(|&i, &j| stds[i].total_cmp(&stds[j]))
                .unwrap();
            d.image(best).to_f32()
        };
        let a = exemplar(0);
        let b = exemplar(1);
        let mad: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum::<f32>() / a.len() as f32;
        assert!(mad > 20.0, "classes look identical, mad={mad}");
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(SynthCifar::new(0).generate(1, 0).is_err());
        assert!(SynthCifar::new(8).generate(0, 0).is_err());
        assert!(SynthCifar::new(8).classes(0).generate(1, 0).is_err());
    }
}
