//! Tests of the scaled-int8 class memory, exercised through every model
//! family.

mod tests {
    use crate::memory::{quantize_row_into, ClassMemory, I8Query, I8Rows, Precision};
    use crate::online::OnlineHdConfig;
    use crate::precision_tests::*;
    use crate::{Classifier, OnlineHd};
    use hdc::encoder::Encode;
    use linalg::Rng64;

    const INT8: Precision = Precision::Int8;

    fn int8_rows(memory: &ClassMemory) -> &I8Rows {
        match memory {
            ClassMemory::Int8(rows) => rows,
            other => panic!("expected an int8 memory, got {:?}", other.precision()),
        }
    }

    #[test]
    fn quantize_row_handles_degenerate_inputs() {
        let mut q = Vec::new();
        assert_eq!(quantize_row_into(&[0.0, 0.0, 0.0], &mut q), 0.0);
        assert_eq!(q, vec![0, 0, 0]);
        assert_eq!(quantize_row_into(&[f32::NAN, 1.0], &mut q), 0.0);
        assert_eq!(q, vec![0, 0]);
        let scale = quantize_row_into(&[-2.0, 1.0, 0.5], &mut q);
        assert!((scale - 2.0 / 127.0).abs() < 1e-9);
        assert_eq!(q, vec![-127, 64, 32]);
    }

    #[test]
    fn quantize_row_error_is_within_half_step() {
        let mut rng = Rng64::seed_from(5);
        let src: Vec<f32> = (0..1000).map(|_| rng.normal()).collect();
        let mut q = Vec::new();
        let scale = quantize_row_into(&src, &mut q);
        for (&v, &qi) in src.iter().zip(q.iter()) {
            assert!(qi != i8::MIN);
            let err = (v - scale * qi as f32).abs();
            assert!(
                err <= 0.5 * scale * (1.0 + 1e-4),
                "err {err} exceeds half step {}",
                0.5 * scale
            );
        }
    }

    #[test]
    fn i8_scores_track_f32_scores() {
        // The int8 cosine approximation must stay within a small absolute
        // band of the f32 scores — quantization error is bounded by half a
        // step per component in both operands.
        let (x, y) = blobs(240, 1, 1.0, 0.35);
        let config = OnlineHdConfig {
            dim: 2048,
            epochs: 10,
            ..Default::default()
        };
        let model = OnlineHd::fit(&config, &x, &y).unwrap();
        let f32_scores = model.scores_batch(&x);
        let i8_scores = model.with_precision(INT8).unwrap().scores_batch(&x);
        let max_err = f32_scores
            .as_slice()
            .iter()
            .zip(i8_scores.as_slice())
            .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
        assert!(
            max_err < 0.05,
            "int8 scores drifted {max_err} from f32 cosine"
        );
    }

    #[test]
    fn prequantized_queries_score_bit_identically() {
        let (x, y) = blobs(120, 12, 1.0, 0.4);
        let config = OnlineHdConfig {
            dim: 512,
            epochs: 4,
            ..Default::default()
        };
        let quantized = OnlineHd::fit(&config, &x, &y)
            .unwrap()
            .with_precision(INT8)
            .unwrap();
        let rows = int8_rows(quantized.class_memory());
        let mut out = vec![0.0f32; quantized.num_classes()];
        for r in 0..x.rows() {
            let h = quantized.encoder().encode_row(x.row(r));
            let query = I8Query::from_encoded(&h);
            assert_eq!(query.dim(), quantized.dim());
            rows.scores_query_into(&query, &mut out);
            assert_eq!(out, quantized.scores_encoded(&h), "row {r}");
        }
        // Degenerate queries score 0.0 everywhere on both paths.
        let zero = I8Query::from_encoded(&vec![0.0f32; quantized.dim()]);
        rows.scores_query_into(&zero, &mut out);
        assert_eq!(out, vec![0.0; quantized.num_classes()]);
    }

    #[test]
    fn quantized_i8_onlinehd_tracks_f32_accuracy() {
        onlinehd_tracks_f32_accuracy(INT8, 0.02);
    }

    #[test]
    fn quantized_i8_boosthd_tracks_f32_accuracy() {
        boosthd_tracks_f32_accuracy(INT8, 0.02);
    }

    #[test]
    fn i8_batch_matches_rowwise() {
        batch_matches_rowwise(INT8);
    }

    #[test]
    fn quantized_i8_centroid_works() {
        centroid_works(INT8);
    }

    #[test]
    fn quantized_i8_full_dimension_mode_works() {
        full_dimension_mode_works(INT8);
    }

    #[test]
    fn storage_shrinks_about_4x_versus_f32_classes() {
        // One byte per element plus one f32 scale per class row: just
        // under 4× for any realistic D_wl.
        let model = boost(640, 5, 4, 6);
        let f32_bytes = model.class_storage_bytes();
        let i8_bytes = model.with_precision(INT8).unwrap().class_storage_bytes();
        assert!(i8_bytes * 3 < f32_bytes && f32_bytes < i8_bytes * 5);
    }

    #[test]
    fn i8_refit_improves_or_matches_data_free_quantization() {
        refit_improves_or_matches_data_free(INT8);
    }

    #[test]
    fn i8_refit_rejects_bad_inputs() {
        refit_rejects_bad_inputs(INT8);
    }

    #[test]
    fn i8_bitflips_land_on_stored_bytes() {
        let (x, _) = blobs(120, 7, 1.0, 0.4);
        let mut quantized = boost(640, 8, 6, 7).with_precision(INT8).unwrap();
        let before = quantized.clone();
        let mut rng = Rng64::seed_from(0);
        let report = quantized.inject_bitflips(0.01, &mut rng);
        assert!(report.flipped > 0);
        let changed = (0..quantized.num_learners()).any(|i| {
            int8_rows(quantized.learner_class_memory(i)).data()
                != int8_rows(before.learner_class_memory(i)).data()
        });
        assert!(changed);
        // Scoring a corrupted model must not panic even if a flip produced
        // -128 somewhere in the stored bytes.
        let _ = quantized.predict_batch(&x);
    }

    #[test]
    fn i8_ensemble_absorbs_moderate_bitflips() {
        ensemble_absorbs_flips(INT8, 1e-4);
    }

    #[test]
    fn from_parts_validates_shapes() {
        let (x, y) = blobs(60, 9, 1.0, 0.4);
        let config = OnlineHdConfig {
            dim: 128,
            epochs: 3,
            ..Default::default()
        };
        let q = OnlineHd::fit(&config, &x, &y)
            .unwrap()
            .with_precision(INT8)
            .unwrap();
        let stored = int8_rows(q.class_memory());
        // Wrong class count must be rejected.
        let rows =
            I8Rows::from_storage(stored.data().to_vec().into(), stored.scales().to_vec(), 128)
                .unwrap();
        let memory = ClassMemory::Int8(rows);
        assert!(OnlineHd::from_parts(q.encoder().clone(), memory, 7, *q.config()).is_err());
        // Inconsistent byte payload must be rejected.
        assert!(I8Rows::from_storage(vec![0i8; 10].into(), vec![0.1; 3], 4).is_err());
    }
}
