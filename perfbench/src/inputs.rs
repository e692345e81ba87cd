//! Seeded workload inputs. The corpus is fixed: the repository's
//! Electronics dataset, generated with the Table 2 harness's data seed
//! at each workload's scale. Everything stochastic about a run — model
//! initialization, BPR sampling, request logs, traffic rounds, cache
//! writes and sampled check users — is a pure function of the workload
//! seed given on the command line.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use scenerec_bench::harness::HarnessConfig;
use scenerec_bench::traffic::{self, TrafficConfig};
use scenerec_data::{Dataset, DatasetProfile, GeneratorConfig, Scale};
use scenerec_graph::UserId;
use scenerec_serve::{Request, TimedRequest};

/// Derives an independent sub-seed for `stream` from the workload seed
/// (splitmix64 finalizer over the pair).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sub-seed streams, one per kind of input.
pub mod stream {
    /// Model initialization and BPR sampling.
    pub const MODEL: u64 = 2;
    /// Request log order / sampled users.
    pub const REQUESTS: u64 = 3;
    /// Traffic rounds (offset by the round index).
    pub const TRAFFIC: u64 = 1_000;
    /// Cache writes between rounds (offset by the round index).
    pub const WRITES: u64 = 2_000_000;
    /// Probe and parity-check samples.
    pub const SAMPLES: u64 = 4;
}

/// The Electronics generator configuration at `scale`, with the Table 2
/// harness's data seed.
pub fn electronics(scale: Scale) -> GeneratorConfig {
    DatasetProfile::Electronics.config(scale, HarnessConfig::default().data_seed)
}

/// Each user's training items: the exclusion set of the serving
/// engines and of `top_k_unseen`.
pub fn seen_lists(data: &Dataset) -> Vec<Vec<u32>> {
    (0..data.num_users())
        .map(|u| data.train_graph.items_of(UserId(u)).to_vec())
        .collect()
}

/// Every user once, in a seeded order: a cold log of distinct users.
pub fn user_permutation(num_users: u32, seed: u64) -> Vec<u32> {
    let mut users: Vec<u32> = (0..num_users).collect();
    users.shuffle(&mut StdRng::seed_from_u64(derive(seed, stream::REQUESTS)));
    users
}

/// `n` distinct users sampled without replacement for checks and probes.
pub fn sample_users(num_users: u32, n: usize, seed: u64, salt: u64) -> Vec<u32> {
    let mut users: Vec<u32> = (0..num_users).collect();
    users.shuffle(&mut StdRng::seed_from_u64(derive(
        seed,
        stream::SAMPLES + salt,
    )));
    users.truncate(n);
    users
}

/// Top-`k` requests for `users`, in order.
pub fn requests(users: &[u32], k: usize) -> Vec<Request> {
    users.iter().map(|&user| Request { user, k }).collect()
}

/// Shape of one hot-serving traffic round.
#[derive(Debug, Clone, Copy)]
pub struct HotTraffic {
    /// Requests per round.
    pub requests: usize,
    /// Top-K per request.
    pub k: usize,
    /// Offered load in requests per logical tick (the default
    /// admission plan retires one request per tick).
    pub load: f64,
}

/// Round `round` of the seeded Zipf(1.1) / Pareto(1.3) open-loop trace.
pub fn hot_round(num_users: u32, shape: HotTraffic, seed: u64, round: u64) -> Vec<TimedRequest> {
    traffic::generate(&TrafficConfig {
        seed: derive(seed, stream::TRAFFIC + round),
        requests: shape.requests,
        num_users,
        k: shape.k,
        zipf_exponent: 1.1,
        pareto_alpha: 1.3,
        mean_gap_ticks: 1.0 / shape.load,
    })
}

/// `writes` seeded `(user, item)` cache writes to apply before round
/// `round`: users are drawn from the round's own arrivals (so they are
/// hot), items uniformly from the items the user has not seen yet.
pub fn hot_writes(
    round_trace: &[TimedRequest],
    seen: &[Vec<u32>],
    num_items: u32,
    writes: usize,
    seed: u64,
    round: u64,
) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(derive(seed, stream::WRITES + round));
    let mut out = Vec::with_capacity(writes);
    if round_trace.is_empty() || num_items == 0 {
        return out;
    }
    while out.len() < writes {
        let user = round_trace[rng.gen_range(0..round_trace.len())]
            .request
            .user;
        let item = rng.gen_range(0..num_items);
        let already = seen[user as usize].contains(&item) || out.contains(&(user, item));
        if !already {
            out.push((user, item));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_separates_streams_and_seeds() {
        assert_ne!(derive(1, stream::MODEL), derive(1, stream::REQUESTS));
        assert_ne!(derive(1, stream::MODEL), derive(2, stream::MODEL));
        assert_eq!(derive(9, 3), derive(9, 3));
    }

    #[test]
    fn permutation_covers_every_user_once() {
        let mut p = user_permutation(50, 3);
        assert_ne!(p, (0..50).collect::<Vec<_>>());
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }
}
