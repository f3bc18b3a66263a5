//! Property-based tests of the data layer (DESIGN.md §6).

use proptest::prelude::*;
use qce_data::select::StdBand;
use qce_data::{select, Image, SynthCifar};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn image_f32_round_trip(px in prop::collection::vec(any::<u8>(), 48)) {
        let img = Image::new(px.clone(), 3, 4, 4).unwrap();
        let back = Image::from_f32(&img.to_f32(), 3, 4, 4).unwrap();
        prop_assert_eq!(back.pixels(), &px[..]);
    }

    #[test]
    fn from_f32_always_clamps(values in prop::collection::vec(-1e6f32..1e6, 16)) {
        let img = Image::from_f32(&values, 1, 4, 4).unwrap();
        // No panic and every pixel is a valid byte by construction.
        prop_assert_eq!(img.num_pixels(), 16);
    }

    #[test]
    fn grayscale_preserves_geometry_and_range(px in prop::collection::vec(any::<u8>(), 48)) {
        let img = Image::new(px, 3, 4, 4).unwrap();
        let gray = img.to_grayscale();
        prop_assert_eq!(gray.channels(), 1);
        prop_assert_eq!(gray.height(), 4);
        // Rec.601 luma of bytes stays in byte range (guaranteed by types),
        // and is bounded by the max input channel value + rounding.
        let max_in = img.pixels().iter().copied().max().unwrap_or(0);
        let max_out = gray.pixels().iter().copied().max().unwrap_or(0);
        prop_assert!(max_out <= max_in.saturating_add(1));
    }

    #[test]
    fn split_partitions_dataset(n in 10usize..100, frac in 0.2f32..0.8, seed in 0u64..100) {
        let data = SynthCifar::new(8).classes(5).generate(n, seed).unwrap();
        prop_assume!(((n as f32) * frac).round() as usize > 0);
        prop_assume!((((n as f32) * frac).round() as usize) < n);
        let (train, test) = data.split(frac, seed).unwrap();
        prop_assert_eq!(train.len() + test.len(), n);
        prop_assert_eq!(train.classes(), 5);
    }

    #[test]
    fn band_selection_respects_band(seed in 0u64..50, min in 10.0f32..60.0, width in 5.0f32..40.0) {
        let data = SynthCifar::new(8).generate(200, seed).unwrap();
        let band = StdBand::new(min, min + width).unwrap();
        for &i in &select::candidates_in_band(&data, band) {
            prop_assert!(band.contains(data.image(i).pixel_std()));
        }
    }

    #[test]
    fn pixel_stream_concatenates_in_order(seed in 0u64..50) {
        let data = SynthCifar::new(8).generate(10, seed).unwrap();
        let stream = data.pixel_stream(&[2, 0]).unwrap();
        let expected: Vec<u8> = data.image(2).pixels().iter()
            .chain(data.image(0).pixels().iter()).copied().collect();
        prop_assert_eq!(stream, expected);
    }
}
