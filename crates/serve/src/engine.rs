//! The frozen inference engine: batched scoring, seen-item filtering,
//! top-K selection, and a result cache behind one handle.
//!
//! # Parity contract
//!
//! For any user/item the engine's scores are **bit-identical** to what
//! the training-side `PairwiseModel::score_values` would produce on a
//! tape, and [`FrozenEngine::top_k`] returns exactly what
//! `top_k_for_user` would (same scores, same tie-breaks). This holds
//! because:
//!
//! * the frozen user/item rows are tape-evaluated values (see
//!   `scenerec_core::freeze`),
//! * dot heads score with one `linalg::dot` + bias per item, the tape's
//!   `affine` order; MLP heads go through the batched head kernel
//!   `scenerec_tensor::score::score_mlp_head`, which saves each layer-1
//!   row's 8 lane sums and tail over every user's part of `[u ‖ i]` once
//!   per batch and resumes them per item, 8 items per register (the
//!   item-lane layout). The user fills the leading input positions, so
//!   every lane (and the tail) still sees the tape's exact sequence of
//!   adds — the per-lane prefix invariant — and the result is invariant
//!   to the batch, the thread count and the band size,
//! * candidates are scanned in ascending item order and ties resolve to
//!   the smaller item id, matching the training-side stable sort.
//!
//! # Batched scoring
//!
//! Every scoring path runs through one walk, `Catalog`: the head is
//! prepared once for a set of users, the catalog is scored in
//! `EngineConfig::band`-row bands for all of them at once, and each user
//! sees its scores in ascending item order — feeding a bounded top-k
//! heap that skips its [`SeenMask`] items in place, so no candidate or
//! score vector the size of the catalog is built per request.
//! [`FrozenEngine::top_k`], [`FrozenEngine::score_items`] and the
//! sharded engine's shards walk with one user; the scheduler hands a
//! whole micro-batch of cache misses to `FrozenEngine::top_k_batch`,
//! which scores them in one walk and then replays the one-at-a-time
//! sequence of cache lookups and inserts, so batching changes neither
//! bytes nor cache counters.
//!
//! The cache never changes responses — a hit returns the same bits a
//! recompute would — so serving stays deterministic at any worker count.
//!
//! # Quantized engines
//!
//! An engine can serve a frozen model at any
//! [`scenerec_core::Precision`]:
//!
//! * **f32** keeps the bit-exact tape parity above.
//! * **f16** widens rows exactly at score time (the only error vs. f32
//!   is the one-time narrowing at freeze), in the same float order as
//!   the f32 kernels.
//! * **int8** scores dot heads in exact integer arithmetic
//!   (`scenerec_tensor::quant::dot_i8_centered`) with one fixed-order
//!   f32 rescale per element.
//!
//! Every precision keeps the *determinism* contract: identical bytes
//! across kernel backends, thread counts and worker counts. Cache keys
//! carry the precision tag, so entries can never cross precisions.

use crate::cache::ResultCache;
use crate::mask::SeenMask;
use crate::topk::TopK;
use scenerec_core::{
    EntityMatrix, FrozenHead, FrozenLayer, FrozenModel, PairwiseModel, Precision, Recommendation,
};
use scenerec_data::Dataset;
use scenerec_faults::Injector;
use scenerec_graph::UserId;
use scenerec_obs::{lock_unpoisoned, metrics, FieldValue, Stopwatch, Trace};
use scenerec_tensor::quant::{self, HalfMatrix, Int8Matrix};
use scenerec_tensor::score::{score_mlp_head, MlpHead};
use scenerec_tensor::{linalg, par, Matrix, ShapeError, TensorResult};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

/// Tuning knobs for a [`FrozenEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Candidate rows scored per kernel call (bounds scratch memory).
    pub band: usize,
    /// Threads handed to the scoring kernel within one request.
    pub threads: usize,
    /// Max entries in the (user, k) result cache; 0 disables caching.
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            band: 512,
            threads: 1,
            cache_capacity: 1024,
        }
    }
}

/// Errors raised by the serving engine.
#[derive(Debug)]
pub enum ServeError {
    /// The source model does not support freezing.
    Unsupported(String),
    /// The frozen snapshot (or checkpoint) is inconsistent or unloadable.
    Invalid(String),
    /// A request named a user outside the frozen universe.
    UserOutOfRange {
        /// The offending user id.
        user: u32,
        /// The number of users the engine was frozen with.
        num_users: usize,
    },
    /// A request named an item outside the frozen universe.
    ItemOutOfRange {
        /// The offending item id.
        item: u32,
        /// The number of items the engine was frozen with.
        num_items: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Unsupported(name) => {
                write!(f, "model `{name}` does not support freezing")
            }
            ServeError::Invalid(e) => write!(f, "invalid frozen model: {e}"),
            ServeError::UserOutOfRange { user, num_users } => {
                write!(f, "user {user} out of range (engine has {num_users} users)")
            }
            ServeError::ItemOutOfRange { item, num_items } => {
                write!(f, "item {item} out of range (engine has {num_items} items)")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A tape-free serving engine over a [`FrozenModel`].
#[derive(Debug)]
pub struct FrozenEngine {
    frozen: FrozenModel,
    seen: Vec<SeenMask>,
    config: EngineConfig,
    cache: Mutex<ResultCache>,
    /// Shared handle to the cache's lifetime hit/miss counters, cloned
    /// out before the cache goes behind its mutex — stats reads never
    /// contend with the serving fast path for the cache lock.
    cache_stats: std::sync::Arc<crate::cache::CacheStats>,
}

impl FrozenEngine {
    /// Builds an engine from an already-frozen model plus each user's
    /// seen-item list (index = user id).
    ///
    /// # Errors
    /// [`ServeError::Invalid`] when the snapshot fails validation or the
    /// seen list does not cover every user.
    pub fn new(
        frozen: FrozenModel,
        seen_items: &[Vec<u32>],
        config: EngineConfig,
    ) -> Result<Self, ServeError> {
        frozen.validate().map_err(ServeError::Invalid)?;
        if seen_items.len() != frozen.num_users() {
            return Err(ServeError::Invalid(format!(
                "seen lists cover {} users but the model has {}",
                seen_items.len(),
                frozen.num_users()
            )));
        }
        let num_items = frozen.num_items() as u32;
        let seen = seen_items
            .iter()
            .map(|items| SeenMask::from_items(num_items, items))
            .collect();
        let cache = ResultCache::new(config.cache_capacity);
        let cache_stats = cache.stats();
        Ok(FrozenEngine {
            frozen,
            seen,
            config,
            cache: Mutex::new(cache),
            cache_stats,
        })
    }

    /// Freezes `model` and builds the seen masks from the dataset's
    /// training interactions (the same exclusion set `top_k_unseen` uses).
    ///
    /// # Errors
    /// [`ServeError::Unsupported`] when the model cannot freeze;
    /// [`ServeError::Invalid`] on an inconsistent snapshot.
    pub fn from_model<M: PairwiseModel>(
        model: &M,
        data: &Dataset,
        config: EngineConfig,
    ) -> Result<Self, ServeError> {
        let frozen = model
            .freeze()
            .ok_or_else(|| ServeError::Unsupported(model.name().to_owned()))?;
        Self::new(frozen, &seen_lists(data), config)
    }

    /// [`Self::from_model`] with the entity matrices re-encoded at
    /// `precision` (`Precision::F32` equals `from_model`).
    ///
    /// # Errors
    /// [`ServeError::Unsupported`] when the model cannot freeze;
    /// [`ServeError::Invalid`] on an inconsistent snapshot.
    pub fn from_model_quantized<M: PairwiseModel>(
        model: &M,
        data: &Dataset,
        precision: Precision,
        config: EngineConfig,
    ) -> Result<Self, ServeError> {
        let frozen = model
            .freeze_quantized(precision)
            .ok_or_else(|| ServeError::Unsupported(model.name().to_owned()))?;
        Self::new(frozen, &seen_lists(data), config)
    }

    /// Loads a SceneRec checkpoint and builds an engine from it.
    ///
    /// A v4 checkpoint carrying a `frozen` section is served from that
    /// embedded snapshot — at whatever precision it was quantized to,
    /// with its exact codes/scales — without re-freezing. Older (or
    /// training-only) checkpoints fall back to freezing the restored
    /// model at f32.
    ///
    /// # Errors
    /// [`ServeError::Invalid`] on checkpoint load failures.
    pub fn from_checkpoint(
        path: &Path,
        data: &Dataset,
        config: EngineConfig,
    ) -> Result<Self, ServeError> {
        let loaded = scenerec_core::checkpoint::load_full(path, data, &Injector::disabled())
            .map_err(|e| ServeError::Invalid(e.to_string()))?;
        match loaded.frozen {
            Some(frozen) => Self::new(frozen, &seen_lists(data), config),
            None => Self::from_model(&loaded.model, data, config),
        }
    }

    /// The frozen snapshot's display name.
    pub fn name(&self) -> &str {
        &self.frozen.name
    }

    /// Number of users in the frozen universe.
    pub fn num_users(&self) -> usize {
        self.frozen.num_users()
    }

    /// Number of items in the frozen universe.
    pub fn num_items(&self) -> usize {
        self.frozen.num_items()
    }

    /// Storage precision of the frozen entity matrices.
    pub fn precision(&self) -> Precision {
        self.frozen.precision()
    }

    /// The seen-item mask for `user`.
    ///
    /// # Errors
    /// [`ServeError::UserOutOfRange`].
    pub fn seen_mask(&self, user: u32) -> Result<&SeenMask, ServeError> {
        self.seen
            .get(user as usize)
            .ok_or(ServeError::UserOutOfRange {
                user,
                num_users: self.num_users(),
            })
    }

    /// Scores an explicit item list for `user` (no seen filtering).
    ///
    /// Bit-identical to `PairwiseModel::score_values` on the same ids.
    ///
    /// # Errors
    /// Out-of-range user or item ids.
    pub fn score_items(&self, user: u32, items: &[u32]) -> Result<Vec<f32>, ServeError> {
        let num_items = self.num_items();
        if (user as usize) >= self.num_users() {
            return Err(ServeError::UserOutOfRange {
                user,
                num_users: self.num_users(),
            });
        }
        if let Some(&bad) = items.iter().find(|&&i| (i as usize) >= num_items) {
            return Err(ServeError::ItemOutOfRange {
                item: bad,
                num_items,
            });
        }
        self.catalog().score(user as usize, Rows::Ids(items))
    }

    /// Scores every item in the catalog for `user` (no seen filtering).
    ///
    /// # Errors
    /// [`ServeError::UserOutOfRange`].
    pub fn score_all(&self, user: u32) -> Result<Vec<f32>, ServeError> {
        self.seen_mask(user)?; // the user range check
        self.catalog()
            .score(user as usize, Rows::All(self.num_items()))
    }

    /// Top-K unseen recommendations for `user`, served through the cache.
    ///
    /// Identical output to the training-side `top_k_unseen`.
    ///
    /// # Errors
    /// [`ServeError::UserOutOfRange`].
    pub fn top_k(&self, user: u32, k: usize) -> Result<Vec<Recommendation>, ServeError> {
        self.top_k_inner(user, k, None)
    }

    /// [`Self::top_k`] recording `serve.cache` / `serve.score` spans
    /// into `trace`. The cache span carries a `hit` field; the score
    /// span (cache misses only) carries the candidate count. Tracing
    /// never changes the served bytes — the traced and untraced paths
    /// share one implementation.
    pub fn top_k_traced(
        &self,
        user: u32,
        k: usize,
        trace: &mut Trace,
    ) -> Result<Vec<Recommendation>, ServeError> {
        self.top_k_inner(user, k, Some(trace))
    }

    pub(crate) fn top_k_inner(
        &self,
        user: u32,
        k: usize,
        trace: Option<&mut Trace>,
    ) -> Result<Vec<Recommendation>, ServeError> {
        let mut traces = [trace];
        let mut out = self.top_k_batch(&[(user, k)], &mut traces);
        out.pop().unwrap_or(Ok(Vec::new()))
    }

    /// Serves a batch of `(user, k)` requests: every cache miss is
    /// scored in **one** walk over the catalog, the users of the batch
    /// scored together tile by tile. Returns one result per request, in
    /// order, and records each request's `serve.cache` / `serve.score`
    /// spans into its trace (`traces` is index-aligned with `requests`,
    /// or empty).
    ///
    /// The cache sees exactly the one-at-a-time sequence of lookups and
    /// inserts — in three steps:
    ///
    /// 1. **Peek** (cache lock): every distinct in-range key is looked
    ///    up without touching recency or the hit/miss counters; present
    ///    results are cloned.
    /// 2. **Score** (no lock): the remaining keys are scored together.
    ///    A key that appears twice is scored once.
    /// 3. **Replay** (cache lock): in request order, look each key up
    ///    (`touch`: a `get` that does not clone) and `insert` it on a
    ///    miss — the calls serving the requests one at a time makes, in
    ///    its order, so recency, evictions and [`Self::cache_stats`]
    ///    match that path (the second request for a key counts as a
    ///    hit, as it always has).
    pub(crate) fn top_k_batch(
        &self,
        requests: &[(u32, usize)],
        traces: &mut [Option<&mut Trace>],
    ) -> Vec<Result<Vec<Recommendation>, ServeError>> {
        let tag = self.precision().tag();
        let num_users = self.num_users();
        let key_of = |user: u32, k: usize| (user, u32::try_from(k).unwrap_or(u32::MAX));
        // 1. Peek: each request's slot in `values`, one per distinct
        // key (`None` for an out-of-range user, which never reaches the
        // cache), and the keys left to score.
        let mut index: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        let mut values: Vec<Result<Scored, String>> = Vec::new();
        let mut pending: Vec<(usize, Query<'_>)> = Vec::new();
        let slots: Vec<Option<usize>> = {
            let cache = lock_unpoisoned(&self.cache);
            requests
                .iter()
                .map(|&(user, k)| {
                    let seen = self.seen.get(user as usize)?;
                    let (u, kk) = key_of(user, k);
                    Some(*index.entry((u, kk)).or_insert_with(|| {
                        let slot = values.len();
                        let peeked = cache.peek(u, kk, tag);
                        if peeked.is_none() {
                            let (user, seen) = (user as usize, Some(seen));
                            pending.push((slot, Query { user, k, seen }));
                        }
                        values.push(Ok((peeked.unwrap_or_default(), 0)));
                        slot
                    }))
                })
                .collect()
        };
        // 2. Score every pending key in one walk.
        let queries: Vec<Query<'_>> = pending.iter().map(|&(_, q)| q).collect();
        let watch = Stopwatch::start();
        let scored = self.catalog().top_k(&queries, 0);
        let score_ns = watch.elapsed_ns();
        match scored {
            Ok(scored) => {
                for (&(slot, _), v) in pending.iter().zip(scored) {
                    values[slot] = Ok(v);
                }
            }
            Err(e) => {
                for &(slot, _) in &pending {
                    values[slot] = Err(e.to_string());
                }
            }
        }
        // 3. Replay the one-at-a-time cache sequence.
        let hits: Vec<bool> = {
            let mut cache = lock_unpoisoned(&self.cache);
            requests
                .iter()
                .zip(&slots)
                .map(|(&(user, k), slot)| {
                    let Some(slot) = *slot else { return false };
                    let (u, kk) = key_of(user, k);
                    if cache.touch(u, kk, tag) {
                        return true;
                    }
                    if let Ok((recs, _)) = &values[slot] {
                        cache.insert(u, kk, tag, recs.clone());
                    }
                    false
                })
                .collect()
        };
        // Counters and spans outside the cache lock: the obs registry
        // takes its own lock, and holding one across the other is an L2
        // violation.
        let hit_count = hits.iter().filter(|&&hit| hit).count();
        metrics::counter("serve/requests").add(requests.len() as u64);
        metrics::counter("serve/cache_hits").add(hit_count as u64);
        metrics::counter("serve/cache_misses").add((requests.len() - hit_count) as u64);
        // Each slot's result is moved out by its last request, cloned for
        // the ones before.
        let mut uses = vec![0usize; values.len()];
        for &slot in slots.iter().flatten() {
            uses[slot] += 1;
        }
        let mut traces = traces.iter_mut();
        requests
            .iter()
            .zip(slots)
            .zip(hits)
            .map(|((&(user, _), slot), hit)| {
                if let Some(t) = traces.next().and_then(|t| t.as_deref_mut()) {
                    let s = t.record_span("serve.cache", 0);
                    t.add_field(s, "hit", FieldValue::Bool(hit));
                    if let (false, Some(slot)) = (hit, slot) {
                        let candidates = values[slot].as_ref().map_or(0, |v| v.1);
                        let s = t.record_span("serve.score", score_ns);
                        t.add_field(s, "candidates", FieldValue::Int(candidates as i64));
                        t.add_field(
                            s,
                            "backend",
                            FieldValue::Str(scenerec_tensor::backend_name().to_owned()),
                        );
                        t.add_field(
                            s,
                            "precision",
                            FieldValue::Str(self.precision().name().to_owned()),
                        );
                    }
                }
                let slot = slot.ok_or(ServeError::UserOutOfRange { user, num_users })?;
                uses[slot] -= 1;
                let value = match &mut values[slot] {
                    Ok((recs, _)) if uses[slot] == 0 => Ok(std::mem::take(recs)),
                    v => v.clone().map(|(recs, _)| recs),
                };
                value.map_err(ServeError::Invalid)
            })
            .collect()
    }

    /// The whole-catalog scoring view this engine serves from.
    fn catalog(&self) -> Catalog<'_> {
        Catalog {
            users: &self.frozen.users,
            items: &self.frozen.items,
            head: &self.frozen.head,
            band: self.config.band,
            threads: self.config.threads,
        }
    }

    /// Marks `item` as seen for `user` and drops the user's cached
    /// results, so the next request reflects the new exclusion.
    ///
    /// # Errors
    /// [`ServeError::UserOutOfRange`].
    pub fn mark_seen(&mut self, user: u32, item: u32) -> Result<(), ServeError> {
        let num_users = self.num_users();
        let mask = self
            .seen
            .get_mut(user as usize)
            .ok_or(ServeError::UserOutOfRange { user, num_users })?;
        mask.insert(item);
        lock_unpoisoned(&self.cache).evict_user(user);
        Ok(())
    }

    /// Drops cached results for one user without touching the seen mask.
    pub fn invalidate_user(&self, user: u32) {
        lock_unpoisoned(&self.cache).evict_user(user);
    }

    /// Drops every cached result.
    pub fn clear_cache(&self) {
        lock_unpoisoned(&self.cache).clear();
    }

    /// Number of cached (user, k) entries — test/diagnostic hook.
    pub fn cache_len(&self) -> usize {
        lock_unpoisoned(&self.cache).len()
    }

    /// Lifetime (hits, misses) of this engine's result cache. Unlike the
    /// global `serve/cache_hits` counters these are per-engine, so they
    /// stay deterministic when engines run in parallel in one process.
    ///
    /// Reads the shared [`crate::cache::CacheStats`] atomics — **not**
    /// the cache mutex — so polling stats can never block the serving
    /// fast path (and the fast path's cache probe never waits behind a
    /// stats reader).
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_stats.hits(), self.cache_stats.misses())
    }
}

/// One query's ranked results and its unseen-candidate count.
type Scored = (Vec<Recommendation>, usize);

/// One user's top-k query against a [`Catalog`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Query<'a> {
    /// Row of the user matrix.
    pub(crate) user: usize,
    /// How many results to keep.
    pub(crate) k: usize,
    /// Items to skip, by global id.
    pub(crate) seen: Option<&'a SeenMask>,
}

/// Which rows of a catalog a walk visits, in position order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// Rows `0..n`.
    All(usize),
    /// An explicit row list.
    Ids(&'a [u32]),
}

impl Rows<'_> {
    fn len(&self) -> usize {
        match self {
            Rows::All(n) => *n,
            Rows::Ids(ids) => ids.len(),
        }
    }

    #[inline]
    fn get(&self, pos: usize) -> usize {
        match self {
            Rows::All(_) => pos,
            Rows::Ids(ids) => ids[pos] as usize,
        }
    }
}

/// The scoring inputs behind both engines: the user rows, an item
/// matrix with its head, and the kernel knobs. The single
/// [`FrozenEngine`] walks the whole catalog; a `ShardedEngine` shard
/// walks its sliced matrix and head. Per-element scores depend only on
/// the user row, the item row and that item's head state — never on
/// which other users or rows share a walk — so batching, slicing,
/// banding and threading cannot change a single bit (pinned by
/// `parity_is_invariant_to_band_and_threads` and the serving parity
/// suite).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Catalog<'a> {
    pub(crate) users: &'a EntityMatrix,
    pub(crate) items: &'a EntityMatrix,
    pub(crate) head: &'a FrozenHead,
    /// Rows scored per band.
    pub(crate) band: usize,
    /// Bands scored in parallel.
    pub(crate) threads: usize,
}

impl<'a> Catalog<'a> {
    /// Each query's top-k over every row, global id `offset + row`,
    /// skipping its seen items in place, plus its unseen-candidate
    /// count. One walk serves every query; each query's heap receives
    /// its unseen items in ascending order, exactly the candidates
    /// [`crate::select_top_k`] saw per request.
    pub(crate) fn top_k(
        &self,
        queries: &[Query<'_>],
        offset: u32,
    ) -> Result<Vec<Scored>, ServeError> {
        let rows = self.items.rows();
        let mut heaps: Vec<(TopK, usize)> =
            queries.iter().map(|q| (TopK::new(q.k, rows), 0)).collect();
        let users: Vec<usize> = queries.iter().map(|q| q.user).collect();
        self.walk(&users, Rows::All(rows), |q, lo, scores| {
            let (heap, candidates) = &mut heaps[q];
            let seen = queries[q].seen;
            for (item, &score) in (offset + lo as u32..).zip(scores) {
                if seen.is_some_and(|m| m.contains(item)) {
                    continue;
                }
                heap.push(item, score);
                *candidates += 1;
            }
        })?;
        Ok(heaps
            .into_iter()
            .map(|(heap, candidates)| (heap.into_sorted(), candidates))
            .collect())
    }

    /// One user's scores for `rows`, in order. Callers bounds-check.
    pub(crate) fn score(&self, user: usize, rows: Rows<'_>) -> Result<Vec<f32>, ServeError> {
        let mut out = vec![0.0f32; rows.len()];
        self.walk(&[user], rows, |_, lo, scores| {
            out[lo..lo + scores.len()].copy_from_slice(scores);
        })?;
        Ok(out)
    }

    /// Walks `rows` in bands of [`Self::band`]: each band is scored for
    /// every user at once (up to [`Self::threads`] consecutive bands in
    /// parallel), then `visit(q, lo, scores)` hands user `q` its scores
    /// for positions `lo..lo + scores.len()`, band after band, so each
    /// user sees its positions in ascending order. Each parallel band
    /// slot gets its buffers once per walk and reuses them for every
    /// band it scores.
    fn walk(
        &self,
        users: &[usize],
        rows: Rows<'_>,
        mut visit: impl FnMut(usize, usize, &[f32]),
    ) -> Result<(), ServeError> {
        if users.is_empty() {
            return Ok(());
        }
        let state = self.prepare(users)?;
        let (n, nu) = (rows.len(), users.len());
        let band = self.band.max(1);
        let threads = self.threads.max(1);
        let slots = n.div_ceil(band).clamp(1, threads);
        let mut bufs: Vec<BandBuf> = (0..slots)
            .map(|_| BandBuf::new(&state, band.min(n), nu))
            .collect();
        for group in (0..n).step_by(band * threads) {
            let parts = (n - group).div_ceil(band).min(threads);
            // One scoped thread per band when there are several.
            par::for_each_chunk(&mut bufs[..parts], 1, |w, buf| {
                let lo = group + w * band;
                let hi = (lo + band).min(n);
                for buf in buf {
                    buf.done = state.score_band(rows, lo..hi, buf);
                }
            });
            for (w, buf) in bufs[..parts].iter_mut().enumerate() {
                std::mem::replace(&mut buf.done, Ok(())).map_err(invalid)?;
                let lo = group + w * band;
                let len = (lo + band).min(n) - lo;
                for (q, part) in buf.scores[..nu * len].chunks_exact(len).enumerate() {
                    visit(q, lo, part);
                }
            }
        }
        Ok(())
    }

    /// The per-walk user state of the head: the users' rows in the form
    /// the kernels read, or the MLP head packed for all of them.
    fn prepare(&self, users: &[usize]) -> Result<Scorer<'a>, ServeError> {
        Ok(match self.head {
            // Dot heads score straight off the stored representation:
            // f32 keeps the tape-exact `linalg::dot`, f16 widens item
            // lanes in-kernel against the (exactly widened) user row,
            // int8 accumulates in exact integer arithmetic and rescales
            // with one fixed-order f32 multiply chain per element.
            FrozenHead::DotBias { bias } => match (self.users, self.items) {
                (EntityMatrix::F32(m), EntityMatrix::F32(catalog)) => Scorer::DotF32 {
                    users: users.iter().map(|&u| m.row(u)).collect(),
                    catalog,
                    bias,
                },
                (EntityMatrix::F16(m), EntityMatrix::F16(catalog)) => Scorer::DotF16 {
                    users: users
                        .iter()
                        .map(|&u| {
                            let mut row = vec![0.0f32; m.cols()];
                            m.widen_row_into(u, &mut row);
                            row
                        })
                        .collect(),
                    catalog,
                    bias,
                },
                (EntityMatrix::Int8(m), EntityMatrix::Int8(catalog)) => Scorer::DotInt8 {
                    users: users
                        .iter()
                        .map(|&u| (m.centered_row(u), m.scale(u)))
                        .collect(),
                    catalog,
                    bias,
                },
                // Engine constructors validate matching precisions;
                // reachable only through a hand-built inconsistent model.
                _ => {
                    return Err(ServeError::Invalid(
                        "user/item entity matrices disagree on precision".to_owned(),
                    ))
                }
            },
            // MLP heads go through the batched head kernel: every user's
            // share of layer 1 is packed once per walk, f32 item rows are
            // read in place, and f16/int8 rows are expanded to f32 one
            // band at a time (exactly, so the path stays deterministic).
            FrozenHead::Mlp { layers } => {
                let du = self.users.cols();
                let mut rows = vec![0.0f32; users.len() * du];
                for (&u, row) in users.iter().zip(rows.chunks_exact_mut(du.max(1))) {
                    self.users.expand_row_into(u, row);
                }
                let head = MlpHead::try_new(
                    layers.iter().map(FrozenLayer::as_head_layer),
                    (0..users.len()).map(|q| &rows[q * du..(q + 1) * du]),
                )
                .map_err(invalid)?;
                Scorer::Mlp {
                    head,
                    items: self.items,
                }
            }
        })
    }
}

/// A head prepared for one walk's users.
enum Scorer<'a> {
    DotF32 {
        users: Vec<&'a [f32]>,
        catalog: &'a Matrix,
        bias: &'a [f32],
    },
    DotF16 {
        users: Vec<Vec<f32>>,
        catalog: &'a HalfMatrix,
        bias: &'a [f32],
    },
    DotInt8 {
        users: Vec<(Vec<i16>, f32)>,
        catalog: &'a Int8Matrix,
        bias: &'a [f32],
    },
    Mlp {
        head: MlpHead,
        items: &'a EntityMatrix,
    },
}

/// The buffers of one parallel band slot, reused for every band it
/// scores in a walk: the band's scores (users x band), the head
/// kernel's scratch and, for quantized MLP catalogs, the band's rows
/// expanded to f32; `done` carries the last band's outcome back to the
/// walk.
struct BandBuf {
    users: usize,
    scores: Vec<f32>,
    scratch: Vec<f32>,
    rows: Vec<f32>,
    done: TensorResult<()>,
}

impl BandBuf {
    fn new(scorer: &Scorer<'_>, band: usize, users: usize) -> BandBuf {
        let (scratch, rows) = match scorer {
            Scorer::Mlp { head, items } => (
                vec![0.0; head.scratch_len()],
                match items {
                    EntityMatrix::F32(_) => Vec::new(),
                    _ => vec![0.0; band * items.cols()],
                },
            ),
            _ => (Vec::new(), Vec::new()),
        };
        BandBuf {
            users,
            scores: vec![0.0; users * band],
            scratch,
            rows,
            done: Ok(()),
        }
    }
}

impl Scorer<'_> {
    /// Scores positions `band` of `rows` for every user into
    /// `buf.scores[q * band.len() + j]`.
    fn score_band(
        &self,
        rows: Rows<'_>,
        band: std::ops::Range<usize>,
        buf: &mut BandBuf,
    ) -> TensorResult<()> {
        let len = band.len();
        let ids = band.map(|pos| rows.get(pos));
        let out = &mut buf.scores[..buf.users * len];
        match self {
            Scorer::DotF32 {
                users,
                catalog,
                bias,
            } => {
                for (u, out) in users.iter().zip(out.chunks_exact_mut(len)) {
                    for (o, i) in out.iter_mut().zip(ids.clone()) {
                        *o = linalg::dot(u, catalog.row(i)) + bias[i];
                    }
                }
            }
            Scorer::DotF16 {
                users,
                catalog,
                bias,
            } => {
                for (u, out) in users.iter().zip(out.chunks_exact_mut(len)) {
                    for (o, i) in out.iter_mut().zip(ids.clone()) {
                        *o = quant::dot_f16(u, catalog.row(i)) + bias[i];
                    }
                }
            }
            Scorer::DotInt8 {
                users,
                catalog,
                bias,
            } => {
                for ((uc, su), out) in users.iter().zip(out.chunks_exact_mut(len)) {
                    for (o, i) in out.iter_mut().zip(ids.clone()) {
                        let zv = catalog.zero_point(i) as i16;
                        let idot = quant::dot_i8_centered(uc, catalog.row(i), zv);
                        *o = su * catalog.scale(i) * idot as f32 + bias[i];
                    }
                }
            }
            Scorer::Mlp { head, items } => match items {
                EntityMatrix::F32(catalog) => {
                    score_mlp_head(head, ids.map(|i| catalog.row(i)), out, &mut buf.scratch)?;
                }
                _ => {
                    let di = items.cols().max(1);
                    let expanded = &mut buf.rows[..len * items.cols()];
                    for (i, row) in ids.zip(expanded.chunks_exact_mut(di)) {
                        items.expand_row_into(i, row);
                    }
                    score_mlp_head(head, expanded.chunks_exact(di), out, &mut buf.scratch)?;
                }
            },
        }
        Ok(())
    }
}

fn invalid(e: ShapeError) -> ServeError {
    ServeError::Invalid(e.to_string())
}

/// Per-user seen-item lists from the dataset's training interactions —
/// the same exclusion set `top_k_unseen` uses.
pub(crate) fn seen_lists(data: &Dataset) -> Vec<Vec<u32>> {
    (0..data.num_users())
        .map(|u| data.train_graph.items_of(UserId(u)).to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenerec_core::FrozenHead;
    use scenerec_tensor::Matrix;

    /// A tiny hand-built dot-product model: 3 users, 4 items, dim 2.
    fn toy_frozen() -> FrozenModel {
        let mut users = Matrix::zeros(3, 2);
        users.set_row(0, &[1.0, 0.0]);
        users.set_row(1, &[0.0, 1.0]);
        users.set_row(2, &[1.0, 1.0]);
        let mut items = Matrix::zeros(4, 2);
        items.set_row(0, &[1.0, 0.0]);
        items.set_row(1, &[0.0, 1.0]);
        items.set_row(2, &[0.5, 0.5]);
        items.set_row(3, &[2.0, 0.0]);
        FrozenModel::dense(
            "toy",
            users,
            items,
            FrozenHead::DotBias { bias: vec![0.0; 4] },
        )
    }

    fn toy_engine(seen: &[Vec<u32>]) -> FrozenEngine {
        FrozenEngine::new(toy_frozen(), seen, EngineConfig::default()).unwrap()
    }

    #[test]
    fn scores_match_manual_dot() {
        let engine = toy_engine(&[vec![], vec![], vec![]]);
        let scores = engine.score_all(0).unwrap();
        assert_eq!(scores, vec![1.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn top_k_excludes_seen_and_ranks() {
        let engine = toy_engine(&[vec![3], vec![], vec![]]);
        let recs = engine.top_k(0, 2).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].item.raw(), 0); // item 3 (score 2.0) is seen
        assert_eq!(recs[1].item.raw(), 2);
    }

    /// Satellite regression for the stats split: `cache_stats` reads
    /// the shared atomics, not the cache mutex. The test holds the
    /// cache lock on the same thread while polling stats — if the
    /// accessor ever went back to locking the cache, this would
    /// deadlock (std mutexes are non-reentrant) and hang the test.
    #[test]
    fn cache_stats_reads_do_not_take_the_cache_lock() {
        let engine = toy_engine(&[vec![], vec![], vec![]]);
        engine.top_k(0, 2).unwrap(); // one miss, filled
        engine.top_k(0, 2).unwrap(); // one hit
        let _cache_guard = engine.cache.lock().expect("test holds the cache lock");
        assert_eq!(engine.cache_stats(), (1, 1));
    }

    #[test]
    fn cache_hit_returns_identical_result() {
        let engine = toy_engine(&[vec![], vec![], vec![]]);
        let first = engine.top_k(2, 3).unwrap();
        assert_eq!(engine.cache_len(), 1);
        let second = engine.top_k(2, 3).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn mark_seen_invalidates_and_refilters() {
        let mut engine = toy_engine(&[vec![], vec![], vec![]]);
        let before = engine.top_k(0, 1).unwrap();
        assert_eq!(before[0].item.raw(), 3);
        engine.mark_seen(0, 3).unwrap();
        let after = engine.top_k(0, 1).unwrap();
        assert_eq!(after[0].item.raw(), 0);
    }

    #[test]
    fn out_of_range_requests_error() {
        let engine = toy_engine(&[vec![], vec![], vec![]]);
        assert!(matches!(
            engine.top_k(99, 1),
            Err(ServeError::UserOutOfRange { user: 99, .. })
        ));
        assert!(matches!(
            engine.score_items(0, &[17]),
            Err(ServeError::ItemOutOfRange { item: 17, .. })
        ));
    }

    #[test]
    fn new_rejects_wrong_seen_count() {
        let err = FrozenEngine::new(toy_frozen(), &[vec![]], EngineConfig::default());
        assert!(matches!(err, Err(ServeError::Invalid(_))));
    }

    /// A larger pseudo-random dot model for the quantized-path tests —
    /// the toy 0/1 weights are exactly representable at every precision
    /// and would hide quantization entirely.
    fn random_frozen(num_users: usize, num_items: usize, dim: usize) -> FrozenModel {
        let mut v = 0.37f32;
        let mut next = move || {
            v = (v * 1.9 + 0.13).fract() - 0.5;
            v * 3.0
        };
        let users = Matrix::from_vec(
            num_users,
            dim,
            (0..num_users * dim).map(|_| next()).collect(),
        )
        .unwrap();
        let items = Matrix::from_vec(
            num_items,
            dim,
            (0..num_items * dim).map(|_| next()).collect(),
        )
        .unwrap();
        let bias = (0..num_items).map(|_| next() * 0.1).collect();
        FrozenModel::dense("rand", users, items, FrozenHead::DotBias { bias })
    }

    fn quantized_engine(precision: Precision) -> FrozenEngine {
        let frozen = random_frozen(6, 40, 33).quantize(precision).unwrap();
        let seen: Vec<Vec<u32>> = (0..6).map(|u| vec![u as u32]).collect();
        FrozenEngine::new(frozen, &seen, EngineConfig::default()).unwrap()
    }

    /// Every precision's scores equal a from-scratch recompute off the
    /// stored representation — pinned bit-for-bit, so any accidental
    /// reordering (or backend divergence) in the quantized paths fails
    /// loudly.
    #[test]
    fn quantized_scores_match_manual_recompute_bitwise() {
        use scenerec_tensor::quant::{dot_f16, dot_i8_centered};

        for precision in [Precision::F16, Precision::Int8] {
            let engine = quantized_engine(precision);
            assert_eq!(engine.precision(), precision);
            let items: Vec<u32> = (0..engine.num_items() as u32).collect();
            for user in 0..engine.num_users() as u32 {
                let got = engine.score_items(user, &items).unwrap();
                let FrozenHead::DotBias { bias } = &engine.frozen.head else {
                    unreachable!()
                };
                for (j, &i) in items.iter().enumerate() {
                    let want = match (&engine.frozen.users, &engine.frozen.items) {
                        (EntityMatrix::F16(u), EntityMatrix::F16(c)) => {
                            let mut uw = vec![0.0f32; u.cols()];
                            u.widen_row_into(user as usize, &mut uw);
                            dot_f16(&uw, c.row(i as usize)) + bias[i as usize]
                        }
                        (EntityMatrix::Int8(u), EntityMatrix::Int8(c)) => {
                            let uc = u.centered_row(user as usize);
                            let zv = c.zero_point(i as usize) as i16;
                            let idot = dot_i8_centered(&uc, c.row(i as usize), zv);
                            u.scale(user as usize) * c.scale(i as usize) * idot as f32
                                + bias[i as usize]
                        }
                        _ => unreachable!(),
                    };
                    assert_eq!(
                        got[j].to_bits(),
                        want.to_bits(),
                        "{} user {user} item {i}",
                        precision.name()
                    );
                }
            }
        }
    }

    /// int8 quantization is coarse but order-preserving enough that the
    /// served top-K overlaps the f32 ranking heavily; f16 rounding is a
    /// half-ulp and overlaps near-perfectly. (The hard ≥0.95 @ K=20 gate
    /// runs in `tests/serving_parity.rs` on trained BPR-MF weights.)
    #[test]
    fn quantized_top_k_overlaps_f32() {
        let f32_engine = {
            let frozen = random_frozen(6, 40, 33);
            let seen: Vec<Vec<u32>> = (0..6).map(|u| vec![u as u32]).collect();
            FrozenEngine::new(frozen, &seen, EngineConfig::default()).unwrap()
        };
        for precision in [Precision::F16, Precision::Int8] {
            let engine = quantized_engine(precision);
            for user in 0..6u32 {
                let want: Vec<u32> = f32_engine
                    .top_k(user, 10)
                    .unwrap()
                    .iter()
                    .map(|r| r.item.raw())
                    .collect();
                let got: Vec<u32> = engine
                    .top_k(user, 10)
                    .unwrap()
                    .iter()
                    .map(|r| r.item.raw())
                    .collect();
                let overlap = got.iter().filter(|i| want.contains(i)).count();
                assert!(
                    overlap >= 8,
                    "{} user {user}: top-10 overlap {overlap}/10 (got {got:?}, want {want:?})",
                    precision.name()
                );
            }
        }
    }

    /// Entries never cross precisions in the result cache: engines at
    /// different precisions produce their own cache keys.
    #[test]
    fn quantized_engine_serves_from_its_own_cache_key() {
        let engine = quantized_engine(Precision::Int8);
        let first = engine.top_k(1, 5).unwrap();
        assert_eq!(engine.cache_len(), 1);
        let second = engine.top_k(1, 5).unwrap();
        assert_eq!(first, second);
        let (hits, misses) = engine.cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    /// An MLP head over quantized matrices expands rows to f32 before
    /// the fused kernel — scores equal the same-head engine built over
    /// the pre-expanded dense matrices. Run at dims that split a lane
    /// chunk (6, 13) and one that does not (16), with a 9-wide hidden
    /// layer (one 8-row block plus a leftover row).
    #[test]
    fn quantized_mlp_head_equals_dense_expansion() {
        for dim in [6usize, 13, 16] {
            quantized_mlp_head_equals_dense_expansion_at(dim);
        }
    }

    fn quantized_mlp_head_equals_dense_expansion_at(dim: usize) {
        use scenerec_autodiff::Act;
        use scenerec_core::FrozenLayer;

        let base = random_frozen(4, 12, dim);
        let (EntityMatrix::F32(users), EntityMatrix::F32(items)) = (&base.users, &base.items)
        else {
            unreachable!()
        };
        let (hidden, k) = (9, 2 * dim);
        let head = FrozenHead::Mlp {
            layers: vec![
                FrozenLayer {
                    w: Matrix::from_vec(
                        hidden,
                        k,
                        (0..hidden * k)
                            .map(|i| ((i * 7) % 37) as f32 / 23.0 - 0.8)
                            .collect(),
                    )
                    .unwrap(),
                    b: (0..hidden).map(|j| j as f32 * 0.05 - 0.2).collect(),
                    act: Act::Tanh,
                },
                FrozenLayer {
                    w: Matrix::from_vec(
                        1,
                        hidden,
                        (0..hidden).map(|j| 0.5 - j as f32 * 0.125).collect(),
                    )
                    .unwrap(),
                    b: vec![0.01],
                    act: Act::Identity,
                },
            ],
        };
        let mlp = FrozenModel::dense("mlp", users.clone(), items.clone(), head);
        let seen: Vec<Vec<u32>> = (0..4).map(|_| vec![]).collect();
        for precision in [Precision::F16, Precision::Int8] {
            let q = mlp.quantize(precision).unwrap();
            // Reference: densify the quantized matrices by hand and run
            // the plain f32 engine over them.
            let dense =
                FrozenModel::dense("mlp", q.users.to_f32(), q.items.to_f32(), q.head.clone());
            let qe = FrozenEngine::new(q, &seen, EngineConfig::default()).unwrap();
            let de = FrozenEngine::new(dense, &seen, EngineConfig::default()).unwrap();
            for user in 0..4u32 {
                let a = qe.score_all(user).unwrap();
                let b = de.score_all(user).unwrap();
                let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(ab, bb, "{} dim {dim} user {user}", precision.name());
            }
        }
    }
}
