//! Pinned serving bytes: the oracle for every change to the frozen
//! engine's scoring path at every precision.
//!
//! The f32 engine is held to the tape by `serving_parity`, but the f16
//! and int8 engines have no tape to compare with: their bytes are only
//! pinned here. Each case freezes a seeded (untrained) SceneRec at f32,
//! f16 and int8 and folds into one FNV-1a digest per precision:
//!
//! * `score_all` for a few users (a walk of one user),
//! * `top_k(user, 10)` for the same users (items and score bits),
//! * a replay of one request per user at `max_batch` 32, so the rating
//!   head scores 32-user micro-batches.
//!
//! The constants were recorded from the per-user item-lane head kernel,
//! before the layer-1 products were shared across a micro-batch's users;
//! a change that moves a single served bit fails here. The digests must
//! also hold under `SCENEREC_FORCE_SCALAR=1`, since every kernel backend
//! is bit-identical.

use scenerec_core::{Precision, SceneRec, SceneRecConfig};
use scenerec_data::{generate, Dataset, GeneratorConfig};
use scenerec_serve::{
    replay, responses_to_json, EngineConfig, FrozenEngine, ReplayConfig, Request,
};

const USERS: [u32; 4] = [0, 1, 17, 59];
const TOP_K: usize = 10;

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn floats(&mut self, xs: &[f32]) {
        self.u64(xs.len() as u64);
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
}

fn dataset() -> Dataset {
    let mut cfg = GeneratorConfig::tiny(2021);
    cfg.num_users = 60;
    generate(&cfg).expect("dataset generation")
}

fn digest(engine: &FrozenEngine, data: &Dataset) -> u64 {
    let mut h = Fnv::new();
    for user in USERS {
        h.floats(&engine.score_all(user).expect("score_all"));
        for rec in engine.top_k(user, TOP_K).expect("top_k") {
            h.u64(u64::from(rec.item.0));
            h.floats(&[rec.score]);
        }
    }
    // One request per user, in micro-batches of 32, on a cold cache.
    engine.clear_cache();
    let log: Vec<Request> = (0..data.num_users())
        .map(|user| Request { user, k: TOP_K })
        .collect();
    let cfg = ReplayConfig {
        max_batch: 32,
        ..ReplayConfig::default()
    };
    h.bytes(responses_to_json(&replay(engine, &log, &cfg)).as_bytes());
    h.0
}

/// Freezes a seeded SceneRec with the given rating head and dimension at
/// every precision and checks each digest against `want` (f32, f16,
/// int8).
fn check(rating_hidden: &[usize], dim: usize, want: [u64; 3]) {
    let data = dataset();
    let cfg = SceneRecConfig {
        rating_hidden: rating_hidden.to_vec(),
        ..SceneRecConfig::default().with_dim(dim).with_seed(23)
    };
    let model = SceneRec::new(cfg, &data);
    let precisions = [Precision::F32, Precision::F16, Precision::Int8];
    let got = precisions.map(|precision| {
        let engine =
            FrozenEngine::from_model_quantized(&model, &data, precision, EngineConfig::default())
                .unwrap_or_else(|e| panic!("{} engine: {e}", precision.name()));
        digest(&engine, &data)
    });
    for ((precision, got), want) in precisions.iter().zip(got).zip(want) {
        assert_eq!(
            got,
            want,
            "hidden {rating_hidden:?} dim {dim} {}: served bytes moved \
             (digest {got:#018x}, pinned {want:#018x})",
            precision.name()
        );
    }
}

#[test]
fn hidden32_dim32_bytes_are_pinned() {
    check(
        &[32],
        32,
        [0xf31a7f05f4687aed, 0x891660d28ec7d032, 0x0c4f5fea7b08895d],
    );
}

#[test]
fn hidden32_dim13_bytes_are_pinned() {
    check(
        &[32],
        13,
        [0x90001b3fa025b284, 0x288152e3876be618, 0x9a4ea8b3d16dbe70],
    );
}

#[test]
fn hidden16x8_dim32_bytes_are_pinned() {
    check(
        &[16, 8],
        32,
        [0x243eb49c4c29c7c4, 0xfb7eeff63200739c, 0x8c07372370ac9de4],
    );
}

#[test]
fn hidden16x8_dim13_bytes_are_pinned() {
    check(
        &[16, 8],
        13,
        [0xad6c0ed9e4997309, 0x3ced1fc314f58858, 0x4c6645a33264a735],
    );
}
