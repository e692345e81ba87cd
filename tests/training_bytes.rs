//! Pinned training bytes: the oracle for every change to the BPR training
//! step (gradient storage, backward sweep, clipping, optimizer updates).
//!
//! Each case trains a tiny-scale model through the public trainer and
//! folds every parameter bit, the exported optimizer state and the epoch
//! losses into one FNV-1a digest. The constants below were recorded from
//! the row-map gradient store with the two-pass optimizers, before the
//! row arena and the fused update kernels replaced them; a change that
//! moves a single trained bit fails here. The digests must also hold
//! under `SCENEREC_FORCE_SCALAR=1`, since every kernel backend is
//! bit-identical.

use scenerec_autodiff::optim::{Momentum, WeightDecay};
use scenerec_autodiff::{OptimState, Optimizer, ParamStore};
use scenerec_baselines::BprMf;
use scenerec_core::trainer::{
    make_optimizer, train_with_optimizer, EpochRecord, OptimizerKind, TrainConfig,
};
use scenerec_core::{PairwiseModel, SceneRec, SceneRecConfig};
use scenerec_data::{generate, Dataset, GeneratorConfig};

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

fn digest(store: &ParamStore, state: &OptimState, epochs: &[EpochRecord]) -> u64 {
    let mut h = Fnv::new();
    for (_, p) in store.iter() {
        h.bytes(p.name().as_bytes());
        h.floats(p.value().as_slice());
    }
    h.bytes(state.kind.as_bytes());
    h.u64(state.t);
    for slot in &state.slots {
        h.bytes(slot.name.as_bytes());
        for t in &slot.tensors {
            h.u64(t.rows() as u64);
            h.floats(t.as_slice());
        }
    }
    for e in epochs {
        h.floats(&[e.mean_loss]);
    }
    h.0
}

fn data() -> Dataset {
    generate(&GeneratorConfig::tiny(38)).unwrap()
}

fn cfg(optimizer: OptimizerKind, epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        learning_rate: 1e-2,
        lambda: 1e-2,
        optimizer,
        eval_every: 0,
        patience: 0,
        clip_norm: 0.05,
        batch_size: 1,
        seed: 5,
        threads: 1,
        ..TrainConfig::default()
    }
}

fn scenerec(data: &Dataset) -> SceneRec {
    SceneRec::new(SceneRecConfig::default().with_dim(8).with_seed(11), data)
}

fn run<M: PairwiseModel + Sync>(
    model: &mut M,
    data: &Dataset,
    tc: &TrainConfig,
    opt: &mut dyn Optimizer,
) -> u64 {
    let report = train_with_optimizer(model, data, tc, opt);
    digest(model.store(), &opt.export_state(), &report.epochs)
}

fn run_cfg<M: PairwiseModel + Sync>(model: &mut M, data: &Dataset, tc: &TrainConfig) -> u64 {
    let mut opt = make_optimizer(tc);
    run(model, data, tc, opt.as_mut())
}

fn check(case: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{case}: trained bytes moved (digest {got:#018x}, pinned {want:#018x})"
    );
}

#[test]
fn scenerec_rmsprop_clipped_decayed_bytes_are_pinned() {
    let data = data();
    let got = run_cfg(&mut scenerec(&data), &data, &cfg(OptimizerKind::RmsProp, 2));
    check("scenerec/rmsprop", got, 0x3de3324a8e678c4b);
}

#[test]
fn scenerec_rmsprop_batched_bytes_are_pinned() {
    // Batches of 8 over two workers: exercises merge of several
    // per-example stores, the batch-mean `scale` and unclipped steps.
    let data = data();
    let mut tc = cfg(OptimizerKind::RmsProp, 2);
    tc.batch_size = 8;
    tc.threads = 2;
    tc.clip_norm = 5.0;
    let got = run_cfg(&mut scenerec(&data), &data, &tc);
    check("scenerec/rmsprop/batch8", got, 0x872702f9fade99a3);
}

#[test]
fn bprmf_rmsprop_clipped_decayed_bytes_are_pinned() {
    let data = data();
    let got = run_cfg(
        &mut BprMf::new(&data, 16, 7),
        &data,
        &cfg(OptimizerKind::RmsProp, 2),
    );
    check("bprmf/rmsprop", got, 0x42fffa88ef3a7322);
}

#[test]
fn scenerec_adam_bytes_are_pinned() {
    let data = data();
    let mut tc = cfg(OptimizerKind::Adam, 1);
    tc.learning_rate = 1e-3;
    let got = run_cfg(&mut scenerec(&data), &data, &tc);
    check("scenerec/adam", got, 0x04f620f68f52a73f);
}

#[test]
fn scenerec_sgd_bytes_are_pinned() {
    let data = data();
    let got = run_cfg(&mut scenerec(&data), &data, &cfg(OptimizerKind::Sgd, 1));
    check("scenerec/sgd", got, 0x8ba0e6b2b374ef65);
}

#[test]
fn scenerec_momentum_bytes_are_pinned() {
    let data = data();
    let tc = cfg(OptimizerKind::Sgd, 1);
    let mut opt = Momentum::new(5e-3, 0.9);
    opt.weight_decay = WeightDecay(tc.lambda);
    let got = run(&mut scenerec(&data), &data, &tc, &mut opt);
    check("scenerec/momentum", got, 0x1874af5382e02e36);
}
