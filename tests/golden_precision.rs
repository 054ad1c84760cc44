//! Golden digests for every HDC family × precision × seed.
//!
//! Each case trains one model, then folds everything observable about it
//! into one FNV-1a digest: batch predictions, confidence bits and
//! abstention flags, a seeded bit-flip report plus the post-flip
//! predictions, and the predictions after a `Pipeline` envelope round trip
//! and after a BHFS model-store round trip. The constants pin the exact
//! arithmetic of every class-memory precision, so a refactor of the model
//! types must reproduce them bit for bit — on dispatched SIMD kernels and
//! under `HDC_FORCE_SCALAR=1` alike.
//!
//! Model construction lives in `golden_support`; this file holds only the
//! digest recipe and the pinned constants.

mod golden_support;

use boosthd::{Classifier, ModelStore, Pipeline};
use golden_support::{build, Family, Tier};
use linalg::kernels::KernelLevel;
use linalg::{Matrix, Rng64};

/// Per-bit flip probability of the fault-injection step.
const P_B: f64 = 1e-3;
/// Abstention threshold the confidence digest gates on.
const ABSTAIN: f32 = 0.45;

/// `(case name, AVX2+FMA digest, scalar digest)` for every family ×
/// precision × seed. The dense-f32 kernels sum in a different order per
/// dispatch level, so f32 and int8 cases (whose class rows come from f32
/// training) pin one digest per level; 1-bit scoring is exact popcount
/// arithmetic and agrees on both.
const GOLDEN: &[(&str, u64, u64)] = &[
    (
        "Online/F32/refit0/seed7",
        0x0ffb793cd05ebe88,
        0xd5d84dee85c080a8,
    ),
    (
        "Online/Int8/refit0/seed7",
        0xd007d00cfa9c3c8f,
        0xb004e5cc1e4239b7,
    ),
    (
        "Online/Int8/refit2/seed7",
        0x888dcc8c2884e5a6,
        0x57561b977aff8aad,
    ),
    (
        "Online/Binary/refit0/seed7",
        0xd50db320ec113cbd,
        0xd50db320ec113cbd,
    ),
    (
        "Online/Binary/refit2/seed7",
        0x75bb18de1790cb56,
        0x75bb18de1790cb56,
    ),
    (
        "BoostPartitioned/F32/refit0/seed7",
        0x1cbdca77de4aec36,
        0xfe5b5cd4354c542c,
    ),
    (
        "BoostPartitioned/Int8/refit0/seed7",
        0xd9d94146a944d4cd,
        0xd65c82eaa1a35fa8,
    ),
    (
        "BoostPartitioned/Int8/refit2/seed7",
        0xe9f2ef8322b9d013,
        0x21015c86cd9f0b92,
    ),
    (
        "BoostPartitioned/Binary/refit0/seed7",
        0xd62657bf8973110d,
        0xd62657bf8973110d,
    ),
    (
        "BoostPartitioned/Binary/refit2/seed7",
        0x61a2718561f5ab53,
        0x61a2718561f5ab53,
    ),
    (
        "BoostFull/F32/refit0/seed7",
        0x9b7485a407f506f4,
        0x6e7a57c7512c1bf5,
    ),
    (
        "BoostFull/Int8/refit0/seed7",
        0xe2f9ef683e40f093,
        0x71beeacbd683513e,
    ),
    (
        "BoostFull/Int8/refit2/seed7",
        0x182c159263e1e8e8,
        0xf96cafcd6c06b09c,
    ),
    (
        "BoostFull/Binary/refit0/seed7",
        0x8979e59eb363db5e,
        0x8979e59eb363db5e,
    ),
    (
        "BoostFull/Binary/refit2/seed7",
        0x563339bb8b3e6898,
        0x563339bb8b3e6898,
    ),
    (
        "Centroid/F32/refit0/seed7",
        0x1f7f0111d2157027,
        0xd1f585b8449ce2d9,
    ),
    (
        "Centroid/Int8/refit0/seed7",
        0xcbb93b993b0f5afa,
        0xfeb593109fe1f22a,
    ),
    (
        "Centroid/Binary/refit0/seed7",
        0xef95a14e2c7bd093,
        0xef95a14e2c7bd093,
    ),
    (
        "Online/F32/refit0/seed1234",
        0x7fa8edf1abbd36a1,
        0x07667f1eda2c674e,
    ),
    (
        "Online/Int8/refit0/seed1234",
        0x1f343cb83f8537e9,
        0x544582c503399747,
    ),
    (
        "Online/Int8/refit2/seed1234",
        0x2f7583993133562b,
        0x8bd927cfb6a86f60,
    ),
    (
        "Online/Binary/refit0/seed1234",
        0xd6207c15d666faee,
        0xd6207c15d666faee,
    ),
    (
        "Online/Binary/refit2/seed1234",
        0x4706fae417b39b75,
        0x4706fae417b39b75,
    ),
    (
        "BoostPartitioned/F32/refit0/seed1234",
        0x0d2c105d72c9e75a,
        0x417ab9ff686eb4a2,
    ),
    (
        "BoostPartitioned/Int8/refit0/seed1234",
        0x184b7e5a616fc67d,
        0x14c751c3f1447019,
    ),
    (
        "BoostPartitioned/Int8/refit2/seed1234",
        0x0a3277a6efe77bdb,
        0xac961760bffa9e76,
    ),
    (
        "BoostPartitioned/Binary/refit0/seed1234",
        0x520838f6fb2a2c5f,
        0x520838f6fb2a2c5f,
    ),
    (
        "BoostPartitioned/Binary/refit2/seed1234",
        0x2c58fd250abbb4a3,
        0x2c58fd250abbb4a3,
    ),
    (
        "BoostFull/F32/refit0/seed1234",
        0x16426c6919494c70,
        0x07630933e665a628,
    ),
    (
        "BoostFull/Int8/refit0/seed1234",
        0xcb2e341031a62ac5,
        0xdcd2cfbf634720fc,
    ),
    (
        "BoostFull/Int8/refit2/seed1234",
        0xb6d97a87e9052cbf,
        0xcde4201ebf860943,
    ),
    (
        "BoostFull/Binary/refit0/seed1234",
        0xb05d808b17169163,
        0xb05d808b17169163,
    ),
    (
        "BoostFull/Binary/refit2/seed1234",
        0x38e8f0c6480f2ffe,
        0x38e8f0c6480f2ffe,
    ),
    (
        "Centroid/F32/refit0/seed1234",
        0x5fe8e7d190d733f1,
        0x92b75299d1b07673,
    ),
    (
        "Centroid/Int8/refit0/seed1234",
        0x65739a7634a1a3da,
        0xfc7b4723c97def30,
    ),
    (
        "Centroid/Binary/refit0/seed1234",
        0x3dcb92253d2b51a4,
        0x3dcb92253d2b51a4,
    ),
];

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv_usizes(h: &mut u64, xs: &[usize]) {
    for &x in xs {
        fnv(h, &(x as u64).to_le_bytes());
    }
}

/// Three overlapping Gaussian classes in five features: hard enough that
/// the precisions disagree on some rows.
fn dataset(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = Rng64::seed_from(seed);
    let centers = [[0.0f32, 0.0], [1.0, 0.4], [0.3, 1.1]];
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % 3;
        let [cx, cy] = centers[class];
        rows.push(vec![
            cx + 0.55 * rng.normal(),
            cy + 0.55 * rng.normal(),
            0.5 * rng.normal(),
            cx - cy + 0.5 * rng.normal(),
            0.5 * rng.normal(),
        ]);
        labels.push(class);
    }
    (Matrix::from_rows(&rows).unwrap(), labels)
}

fn cases() -> Vec<(Family, Tier, usize)> {
    let mut out = Vec::new();
    for family in [Family::Online, Family::BoostPartitioned, Family::BoostFull] {
        out.push((family, Tier::F32, 0));
        for tier in [Tier::Int8, Tier::Binary] {
            for refit in [0, 2] {
                out.push((family, tier, refit));
            }
        }
    }
    for tier in [Tier::F32, Tier::Int8, Tier::Binary] {
        out.push((Family::Centroid, tier, 0));
    }
    out
}

fn digest(pipeline: &Pipeline, store: &ModelStore, id: &str, x: &Matrix, seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let preds = pipeline.predict_batch(x);
    fnv_usizes(&mut h, &preds);
    for (r, p) in pipeline.predict_batch_with_confidence(x).iter().enumerate() {
        assert_eq!(
            p.class, preds[r],
            "{id}: confidence path disagrees at row {r}"
        );
        let single = pipeline.predict_with_confidence(x.row(r));
        assert_eq!(
            single.confidence.to_bits(),
            p.confidence.to_bits(),
            "{id}: row and batch confidence differ at row {r}"
        );
        fnv(&mut h, &p.confidence.to_bits().to_le_bytes());
        fnv(&mut h, &[p.abstained as u8]);
    }

    let mut corrupted = pipeline.clone();
    let mut rng = Rng64::seed_from(seed ^ 0xF11B);
    let report = corrupted.inject_bitflips(P_B, &mut rng).unwrap();
    fnv_usizes(&mut h, &[report.words, report.flipped]);
    fnv_usizes(&mut h, &corrupted.predict_batch(x));

    let reloaded = Pipeline::from_bytes(&pipeline.to_bytes().unwrap()).unwrap();
    fnv_usizes(&mut h, &reloaded.predict_batch(x));

    store.append(id, 1, &[pipeline]).unwrap();
    let served = store.load(id, 1).unwrap();
    fnv_usizes(&mut h, &served.primary().predict_batch(x));
    h
}

#[test]
fn every_family_and_precision_matches_its_golden_digest() {
    let dir = std::env::temp_dir().join(format!("golden_precision_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = ModelStore::create(dir.join("golden.bhfs")).unwrap();
    let mut computed = Vec::new();
    for seed in [7u64, 1234] {
        let (x, y) = dataset(120, seed);
        let (xt, _) = dataset(90, seed + 1);
        for (family, tier, refit) in cases() {
            let name = format!("{family:?}/{tier:?}/refit{refit}/seed{seed}");
            let pipeline = build(family, tier, refit, &x, &y, seed).with_abstain_threshold(ABSTAIN);
            assert_eq!(pipeline.num_classes(), 3, "{name}");
            computed.push((name.clone(), digest(&pipeline, &store, &name, &xt, seed)));
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    let scalar = linalg::kernels::kernel_level() == KernelLevel::Scalar;
    let table: String = computed
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(
        computed.len(),
        GOLDEN.len(),
        "golden table out of date; computed:\n{table}"
    );
    for ((name, d), (gname, simd, scalar_digest)) in computed.iter().zip(GOLDEN) {
        let gd = if scalar { scalar_digest } else { simd };
        assert_eq!(name, gname, "case order changed; computed:\n{table}");
        assert_eq!(
            d, gd,
            "{name} drifted from its golden digest; computed:\n{table}"
        );
    }
}
