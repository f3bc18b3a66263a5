use qce_tensor::stats;

use crate::{DataError, Result};

/// An 8-bit image stored planar (CHW): all of channel 0, then channel 1, …
///
/// Planar layout matches the `[C, H, W]` tensor convention of `qce-nn`
/// and, more importantly, the *pixel stream* convention of the encoding
/// attack: [`Image::pixels`] flattened in this order is exactly the
/// secret vector `s` the correlation regularizer couples to the weights.
///
/// # Examples
///
/// ```
/// use qce_data::Image;
///
/// # fn main() -> Result<(), qce_data::DataError> {
/// let img = Image::new(vec![0, 128, 255, 64], 1, 2, 2)?;
/// assert_eq!(img.num_pixels(), 4);
/// assert!(img.pixel_std() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    pixels: Vec<u8>,
    channels: usize,
    height: usize,
    width: usize,
}

impl Image {
    /// Creates an image from a planar CHW pixel buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidDimensions`] if the buffer length is not
    /// `channels * height * width`, or if any dimension is zero.
    pub fn new(pixels: Vec<u8>, channels: usize, height: usize, width: usize) -> Result<Self> {
        let expected = channels * height * width;
        if expected == 0 {
            return Err(DataError::InvalidDimensions {
                expected: 1,
                actual: 0,
            });
        }
        if pixels.len() != expected {
            return Err(DataError::InvalidDimensions {
                expected,
                actual: pixels.len(),
            });
        }
        Ok(Image {
            pixels,
            channels,
            height,
            width,
        })
    }

    /// Creates an all-zero (black) image.
    pub fn black(channels: usize, height: usize, width: usize) -> Result<Self> {
        Image::new(vec![0; channels * height * width], channels, height, width)
    }

    /// Rebuilds an image from `f32` values, clamping to `[0, 255]` and
    /// rounding — the decoder-side inverse of [`Image::to_f32`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Image::new`].
    pub fn from_f32(values: &[f32], channels: usize, height: usize, width: usize) -> Result<Self> {
        let pixels = values
            .iter()
            .map(|&v| v.clamp(0.0, 255.0).round() as u8)
            .collect();
        Image::new(pixels, channels, height, width)
    }

    /// The planar CHW pixel buffer.
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total number of 8-bit pixel values (`channels * height * width`).
    pub fn num_pixels(&self) -> usize {
        self.pixels.len()
    }

    /// Reads pixel `(c, y, x)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn at(&self, c: usize, y: usize, x: usize) -> u8 {
        assert!(c < self.channels && y < self.height && x < self.width);
        self.pixels[(c * self.height + y) * self.width + x]
    }

    /// Pixel values as `f32` in `[0, 255]`, planar order.
    pub fn to_f32(&self) -> Vec<f32> {
        self.pixels.iter().map(|&p| p as f32).collect()
    }

    /// Pixel values normalized to `[0, 1]`, planar order (the network
    /// input convention).
    pub fn to_f32_normalized(&self) -> Vec<f32> {
        self.pixels.iter().map(|&p| p as f32 / 255.0).collect()
    }

    /// Population standard deviation of all pixel values — the per-image
    /// statistic §IV-A clusters on.
    pub fn pixel_std(&self) -> f32 {
        stats::std_dev(&self.to_f32())
    }

    /// Converts to single-channel grayscale using the Rec.601 luma weights
    /// (identity for already-gray images).
    pub fn to_grayscale(&self) -> Image {
        if self.channels == 1 {
            return self.clone();
        }
        let plane = self.height * self.width;
        let mut gray = vec![0u8; plane];
        for (i, g) in gray.iter_mut().enumerate() {
            let (r, gg, b) = if self.channels >= 3 {
                (
                    self.pixels[i] as f32,
                    self.pixels[plane + i] as f32,
                    self.pixels[2 * plane + i] as f32,
                )
            } else {
                let v = self.pixels[i] as f32;
                (v, v, v)
            };
            *g = (0.299 * r + 0.587 * gg + 0.114 * b)
                .round()
                .clamp(0.0, 255.0) as u8;
        }
        Image {
            pixels: gray,
            channels: 1,
            height: self.height,
            width: self.width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_dimensions() {
        assert!(Image::new(vec![0; 12], 3, 2, 2).is_ok());
        assert!(matches!(
            Image::new(vec![0; 11], 3, 2, 2),
            Err(DataError::InvalidDimensions {
                expected: 12,
                actual: 11
            })
        ));
        assert!(Image::new(vec![], 0, 2, 2).is_err());
    }

    #[test]
    fn indexing_planar_layout() {
        let img = Image::new((0..12).collect(), 3, 2, 2).unwrap();
        assert_eq!(img.at(0, 0, 0), 0);
        assert_eq!(img.at(0, 1, 1), 3);
        assert_eq!(img.at(1, 0, 0), 4);
        assert_eq!(img.at(2, 1, 1), 11);
    }

    #[test]
    fn f32_round_trip() {
        let img = Image::new(vec![0, 100, 200, 255], 1, 2, 2).unwrap();
        let f = img.to_f32();
        let back = Image::from_f32(&f, 1, 2, 2).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn from_f32_clamps() {
        let img = Image::from_f32(&[-10.0, 300.0, 127.4, 127.6], 1, 2, 2).unwrap();
        assert_eq!(img.pixels(), &[0, 255, 127, 128]);
    }

    #[test]
    fn normalized_range() {
        let img = Image::new(vec![0, 255], 1, 1, 2).unwrap();
        assert_eq!(img.to_f32_normalized(), vec![0.0, 1.0]);
    }

    #[test]
    fn pixel_statistics() {
        let flat = Image::new(vec![100; 9], 1, 3, 3).unwrap();
        assert_eq!(flat.pixel_std(), 0.0);
        let contrasty = Image::new(vec![0, 255, 0, 255], 1, 2, 2).unwrap();
        assert!(contrasty.pixel_std() > 100.0);
    }

    #[test]
    fn grayscale_conversion() {
        // Pure red: gray = 0.299 * 255 ≈ 76.
        let mut pixels = vec![0u8; 12];
        for p in pixels.iter_mut().take(4) {
            *p = 255;
        }
        let img = Image::new(pixels, 3, 2, 2).unwrap();
        let gray = img.to_grayscale();
        assert_eq!(gray.channels(), 1);
        assert_eq!(gray.pixels()[0], 76);
        // Gray of gray is identity.
        assert_eq!(gray.to_grayscale(), gray);
    }
}
