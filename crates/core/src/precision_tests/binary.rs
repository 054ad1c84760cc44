//! Tests of the 1-bit (sign-packed) class memory, exercised through every
//! model family.

mod tests {
    use crate::boost::{BoostHdConfig, EnsembleMode};
    use crate::memory::{ClassMemory, Precision};
    use crate::online::OnlineHdConfig;
    use crate::precision_tests::*;
    use crate::{BoostHd, Classifier, OnlineHd};
    use hdc::encoder::SinusoidEncoder;
    use linalg::Rng64;

    const BINARY: Precision = Precision::Binary;

    #[test]
    fn quantized_onlinehd_tracks_f32_accuracy() {
        onlinehd_tracks_f32_accuracy(BINARY, 0.05);
    }

    #[test]
    fn quantized_boosthd_tracks_f32_accuracy() {
        boosthd_tracks_f32_accuracy(BINARY, 0.05);
    }

    #[test]
    fn packed_batch_matches_rowwise() {
        batch_matches_rowwise(BINARY);
    }

    #[test]
    fn quantized_centroid_works() {
        centroid_works(BINARY);
    }

    #[test]
    fn quantized_full_dimension_mode_works() {
        full_dimension_mode_works(BINARY);
    }

    #[test]
    fn storage_shrinks_32x_versus_f32_classes() {
        // 640/5 = 128 dims per learner → no padding → exactly 32×.
        let model = boost(640, 5, 4, 6);
        let quantized = model.with_precision(BINARY).unwrap();
        assert_eq!(
            model.class_storage_bytes(),
            32 * quantized.class_storage_bytes()
        );
    }

    #[test]
    fn refit_improves_or_matches_data_free_quantization() {
        refit_improves_or_matches_data_free(BINARY);
    }

    #[test]
    fn refit_rejects_bad_inputs() {
        crate::precision_tests::refit_rejects_bad_inputs(BINARY);
    }

    #[test]
    fn onlinehd_refit_quantization_works() {
        let (x, y) = blobs(200, 12, 0.8, 0.5);
        let config = OnlineHdConfig {
            dim: 256,
            epochs: 8,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        let plain = accuracy(&model.with_precision(BINARY).unwrap(), &x, &y);
        let refit = model.with_precision_refit(BINARY, &x, &y, 5).unwrap();
        let refit = accuracy(&refit, &x, &y);
        assert!(refit >= plain - 1e-9, "refit {refit} vs plain {plain}");
    }

    #[test]
    fn from_parts_rejects_own_encoder_width_mismatch() {
        let (x, y) = blobs(90, 15, 1.0, 0.4);
        let config = BoostHdConfig {
            dim_total: 128,
            n_learners: 2,
            epochs: 3,
            mode: EnsembleMode::FullDimension,
            ..Default::default()
        };
        let good = BoostHd::fit(&config, &x, &y)
            .unwrap()
            .with_precision(BINARY)
            .unwrap();
        // Rebuild the learners but give them an encoder of the wrong width,
        // or one reading another feature width: loading such a blob must
        // Err instead of panicking at inference.
        let mut rng = Rng64::seed_from(0);
        for wrong_encoder in [
            SinusoidEncoder::new(64, x.cols(), &mut rng),
            SinusoidEncoder::new(128, x.cols() + 1, &mut rng),
        ] {
            let learners = (0..good.num_learners())
                .map(|i| {
                    let (alpha, seg_start, seg_end, _) = good.learner_parts(i);
                    let memory = good.learner_class_memory(i).clone();
                    (
                        alpha,
                        seg_start,
                        seg_end,
                        memory,
                        Some(wrong_encoder.clone()),
                    )
                })
                .collect();
            assert!(BoostHd::from_parts(
                good.encoder().clone(),
                learners,
                good.num_classes(),
                *good.config(),
                good.training_errors().to_vec(),
            )
            .is_err());
        }
    }

    #[test]
    fn packed_bitflips_land_on_stored_words() {
        let mut quantized = boost(640, 8, 6, 7).with_precision(BINARY).unwrap();
        let before = quantized.clone();
        let mut rng = Rng64::seed_from(0);
        let report = quantized.inject_bitflips(0.02, &mut rng);
        assert!(report.flipped > 0);
        // Flips must change stored words but keep every padding bit clear
        // (a decode of the words would reject set padding).
        let mut changed = false;
        for i in 0..quantized.num_learners() {
            let (ClassMemory::Packed(bits), ClassMemory::Packed(bits_before)) = (
                quantized.learner_class_memory(i),
                before.learner_class_memory(i),
            ) else {
                panic!("binary learners store packed memories");
            };
            changed |= bits != bits_before;
            for r in 0..bits.rows() {
                assert!(
                    hdc::backend::PackedHv::from_words(bits.row_words(r).to_vec(), bits.dim())
                        .is_ok()
                );
            }
        }
        assert!(changed);
    }

    #[test]
    fn quantized_ensemble_absorbs_moderate_sign_flips() {
        ensemble_absorbs_flips(BINARY, 1e-3);
    }
}
