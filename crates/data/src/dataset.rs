use qce_tensor::Tensor;
use rand::seq::SliceRandom;

use crate::{DataError, Image, Result};

/// A labelled image dataset with uniform image geometry.
///
/// # Examples
///
/// ```
/// use qce_data::{Dataset, Image};
///
/// # fn main() -> Result<(), qce_data::DataError> {
/// let images = vec![
///     Image::black(1, 2, 2)?,
///     Image::new(vec![255; 4], 1, 2, 2)?,
/// ];
/// let data = Dataset::new(images, vec![0, 1], 2)?;
/// let x = data.to_tensor();
/// assert_eq!(x.dims(), &[2, 1, 2, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    images: Vec<Image>,
    labels: Vec<usize>,
    classes: usize,
}

impl Dataset {
    /// Creates a dataset from images and labels.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidLabels`] if lengths disagree, a label is
    /// `>= classes`, or image geometries are inconsistent.
    pub fn new(images: Vec<Image>, labels: Vec<usize>, classes: usize) -> Result<Self> {
        if images.len() != labels.len() {
            return Err(DataError::InvalidLabels {
                reason: format!("{} images but {} labels", images.len(), labels.len()),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
            return Err(DataError::InvalidLabels {
                reason: format!("label {bad} >= {classes} classes"),
            });
        }
        if let Some(first) = images.first() {
            let geom = (first.channels(), first.height(), first.width());
            if images
                .iter()
                .any(|i| (i.channels(), i.height(), i.width()) != geom)
            {
                return Err(DataError::InvalidLabels {
                    reason: "inconsistent image geometry".to_string(),
                });
            }
        }
        Ok(Dataset {
            images,
            labels,
            classes,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The images, in order.
    pub fn images(&self) -> &[Image] {
        &self.images
    }

    /// The labels, in order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Image `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn image(&self, i: usize) -> &Image {
        &self.images[i]
    }

    /// Label of image `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Stacks all images into a `[N, C, H, W]` tensor normalized to
    /// `[0, 1]` — the network input convention.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn to_tensor(&self) -> Tensor {
        assert!(!self.images.is_empty(), "cannot tensorize an empty dataset");
        let (c, h, w) = (
            self.images[0].channels(),
            self.images[0].height(),
            self.images[0].width(),
        );
        let mut data = Vec::with_capacity(self.images.len() * c * h * w);
        for img in &self.images {
            data.extend(img.to_f32_normalized());
        }
        Tensor::from_vec(data, &[self.images.len(), c, h, w])
            .expect("geometry validated at construction")
    }

    /// Converts every image to grayscale, returning a new dataset.
    pub fn to_grayscale(&self) -> Dataset {
        Dataset {
            images: self.images.iter().map(Image::to_grayscale).collect(),
            labels: self.labels.clone(),
            classes: self.classes,
        }
    }

    /// Returns the sub-dataset selected by `indices` (duplicates allowed).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] if any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Result<Dataset> {
        let mut images = Vec::with_capacity(indices.len());
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            if i >= self.len() {
                return Err(DataError::InvalidConfig {
                    reason: format!("subset index {i} out of range for {} samples", self.len()),
                });
            }
            images.push(self.images[i].clone());
            labels.push(self.labels[i]);
        }
        Ok(Dataset {
            images,
            labels,
            classes: self.classes,
        })
    }

    /// Shuffles (seeded) and splits into `(train, test)` with
    /// `train_fraction` of the samples in the training half.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] if the fraction is outside
    /// `(0, 1)` or either side would be empty.
    pub fn split(&self, train_fraction: f32, seed: u64) -> Result<(Dataset, Dataset)> {
        if !(0.0..1.0).contains(&train_fraction) || train_fraction == 0.0 {
            return Err(DataError::InvalidConfig {
                reason: format!("train fraction {train_fraction} outside (0, 1)"),
            });
        }
        let n_train = ((self.len() as f32) * train_fraction).round() as usize;
        if n_train == 0 || n_train >= self.len() {
            return Err(DataError::InvalidConfig {
                reason: "split would produce an empty side".to_string(),
            });
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        let mut rng = qce_tensor::init::seeded_rng(seed);
        order.shuffle(&mut rng);
        let train = self.subset(&order[..n_train])?;
        let test = self.subset(&order[n_train..])?;
        Ok((train, test))
    }

    /// Per-image pixel standard deviations, in dataset order.
    pub fn pixel_stds(&self) -> Vec<f32> {
        self.images.iter().map(Image::pixel_std).collect()
    }

    /// Iterates `(image, label)` pairs in dataset order.
    pub fn iter(&self) -> impl Iterator<Item = (&Image, usize)> + '_ {
        self.images.iter().zip(self.labels.iter().copied())
    }

    /// Concatenated planar pixel stream of the images selected by
    /// `indices` — the secret vector `s` the attack encodes.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] if any index is out of range.
    pub fn pixel_stream(&self, indices: &[usize]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        for &i in indices {
            if i >= self.len() {
                return Err(DataError::InvalidConfig {
                    reason: format!("stream index {i} out of range"),
                });
            }
            out.extend_from_slice(self.images[i].pixels());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(n: usize) -> Dataset {
        let images = (0..n)
            .map(|i| Image::new(vec![(i % 256) as u8; 4], 1, 2, 2).unwrap())
            .collect();
        let labels = (0..n).map(|i| i % 3).collect();
        Dataset::new(images, labels, 3).unwrap()
    }

    #[test]
    fn construction_validation() {
        let img = Image::black(1, 2, 2).unwrap();
        assert!(Dataset::new(vec![img.clone()], vec![0, 1], 2).is_err());
        assert!(Dataset::new(vec![img.clone()], vec![5], 2).is_err());
        let other = Image::black(1, 3, 3).unwrap();
        assert!(Dataset::new(vec![img, other], vec![0, 0], 2).is_err());
    }

    #[test]
    fn to_tensor_normalizes() {
        let img = Image::new(vec![0, 51, 102, 255], 1, 2, 2).unwrap();
        let d = Dataset::new(vec![img], vec![0], 1).unwrap();
        let t = d.to_tensor();
        assert_eq!(t.dims(), &[1, 1, 2, 2]);
        assert!((t.as_slice()[1] - 0.2).abs() < 1e-6);
        assert_eq!(t.as_slice()[3], 1.0);
    }

    #[test]
    fn subset_and_pixel_stream() {
        let d = make(5);
        let s = d.subset(&[4, 0]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.label(0), 1); // 4 % 3
        let stream = d.pixel_stream(&[1, 2]).unwrap();
        assert_eq!(stream, vec![1, 1, 1, 1, 2, 2, 2, 2]);
        assert!(d.subset(&[9]).is_err());
        assert!(d.pixel_stream(&[9]).is_err());
    }

    #[test]
    fn split_partitions_everything() {
        let d = make(10);
        let (train, test) = d.split(0.7, 1).unwrap();
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        assert!(d.split(0.0, 1).is_err());
        assert!(d.split(1.0, 1).is_err());
    }

    #[test]
    fn split_is_deterministic() {
        let d = make(20);
        let (a, _) = d.split(0.5, 9).unwrap();
        let (b, _) = d.split(0.5, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn grayscale_dataset() {
        let images = vec![Image::new(vec![10; 12], 3, 2, 2).unwrap()];
        let d = Dataset::new(images, vec![0], 1).unwrap();
        let g = d.to_grayscale();
        assert_eq!(g.image(0).channels(), 1);
        assert_eq!(g.classes(), 1);
    }

    #[test]
    fn pixel_stds_length() {
        let d = make(4);
        assert_eq!(d.pixel_stds().len(), 4);
    }

    #[test]
    fn class_counts_and_iter() {
        let d = make(7); // labels cycle 0,1,2
        let mut counts = vec![0usize; d.classes()];
        for (_, l) in d.iter() {
            counts[l] += 1;
        }
        assert_eq!(counts, vec![3, 2, 2]);
        let pairs: Vec<(u8, usize)> = d.iter().map(|(img, l)| (img.pixels()[0], l)).collect();
        assert_eq!(pairs.len(), 7);
        assert_eq!(pairs[3], (3, 0));
    }
}
