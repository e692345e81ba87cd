//! Heap-based top-K selection over pre-computed scores.
//!
//! The training-side [`top_k_for_user`](scenerec_core::top_k_for_user)
//! stable-sorts the full candidate list (scored in ascending item order)
//! descending by score and truncates; ties therefore come out in
//! ascending item order. This module reproduces that exact ranking with a
//! size-K binary heap instead of an O(n log n) sort: a candidate replaces
//! the current worst entry only when it scores strictly higher, or ties
//! the score with a smaller item id. The final output is sorted by
//! (score descending, item ascending), which for candidates fed in
//! ascending item order is bit-for-bit the sort-and-truncate result.

use scenerec_core::Recommendation;
use scenerec_graph::ItemId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Total order used by serving: NaN compares equal, mirroring the
/// `partial_cmp(..).unwrap_or(Equal)` fallback in the training-side sort.
#[inline]
fn score_ord(a: f32, b: f32) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

/// Heap entry ordered so the heap's max element is the *worst* kept
/// candidate: lower score is "greater", and among equal scores the larger
/// item id is "greater" (smaller ids win ties).
#[derive(Debug, Clone, Copy)]
struct Worst {
    score: f32,
    item: u32,
}

impl PartialEq for Worst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Worst {}

impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        score_ord(other.score, self.score).then_with(|| self.item.cmp(&other.item))
    }
}

/// A bounded top-`k` heap fed one candidate at a time — [`select_top_k`]
/// without the iterator, so a caller can keep one per user while it
/// walks a catalog in tiles.
#[derive(Debug)]
pub(crate) struct TopK {
    heap: BinaryHeap<Worst>,
    k: usize,
}

impl TopK {
    /// An empty heap keeping the best `k`; `hint` bounds the initial
    /// capacity (the candidate count, when known).
    pub(crate) fn new(k: usize, hint: usize) -> TopK {
        TopK {
            heap: BinaryHeap::with_capacity(k.min(hint).saturating_add(1)),
            k,
        }
    }

    /// Offers one candidate: kept while fewer than `k` are held, else
    /// it replaces the current worst entry only when it scores strictly
    /// higher, or ties the score with a smaller item id.
    #[inline]
    pub(crate) fn push(&mut self, item: u32, score: f32) {
        if self.heap.len() < self.k {
            self.heap.push(Worst { score, item });
            return;
        }
        let replaces = match self.heap.peek() {
            Some(worst) => match score_ord(score, worst.score) {
                Ordering::Greater => true,
                Ordering::Equal => item < worst.item,
                Ordering::Less => false,
            },
            None => false,
        };
        if replaces {
            self.heap.pop();
            self.heap.push(Worst { score, item });
        }
    }

    /// The kept candidates by (score descending, item ascending).
    pub(crate) fn into_sorted(self) -> Vec<Recommendation> {
        let mut out: Vec<Recommendation> = self
            .heap
            .into_iter()
            .map(|w| Recommendation {
                item: ItemId(w.item),
                score: w.score,
            })
            .collect();
        out.sort_by(|a, b| {
            score_ord(b.score, a.score).then_with(|| a.item.raw().cmp(&b.item.raw()))
        });
        out
    }
}

/// Selects the top `k` of `candidates` by (score descending, item id
/// ascending) using a bounded heap.
///
/// Equivalent to stable-sorting candidates listed in ascending item order
/// descending by score and truncating to `k` — the exact contract of the
/// training-side `top_k_for_user`. `k = 0` and `k > len` both behave like
/// the sort-based oracle (empty result / all candidates ranked).
pub fn select_top_k<I>(candidates: I, k: usize) -> Vec<Recommendation>
where
    I: IntoIterator<Item = (u32, f32)>,
{
    let candidates = candidates.into_iter();
    let mut top = TopK::new(k, candidates.size_hint().0);
    for (item, score) in candidates {
        top.push(item, score);
    }
    top.into_sorted()
}

/// Exact scatter-gather merge: re-selects the global top `k` from
/// per-shard top-`k` lists.
///
/// **Why this is exact** (the proof sketch in DESIGN.md §15): the
/// serving order `(score desc, item id asc)` is a *strict total order*
/// on candidates (item ids are unique, finite scores compare totally).
/// Restricting a strict total order to a subset preserves ranking, so
/// every member of the global top-k that lives in shard `s` is also in
/// shard `s`'s local top-k — no global winner can be truncated away by
/// its own shard. The union of the per-shard lists therefore contains
/// the global top-k, and re-selecting with the same comparator
/// ([`select_top_k`], which is input-order independent under a strict
/// order) yields exactly the single-engine result, ties included.
///
/// NaN scores sit outside this contract (the comparator treats NaN as
/// equal to everything, which is not a total order) — exactly the same
/// exclusion the single-engine parity contract already makes.
pub fn merge_top_k(partials: &[Vec<Recommendation>], k: usize) -> Vec<Recommendation> {
    select_top_k(
        partials.iter().flatten().map(|r| (r.item.raw(), r.score)),
        k,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle the heap must match: stable sort desc + truncate, over
    /// candidates listed in ascending item order.
    fn oracle(candidates: &[(u32, f32)], k: usize) -> Vec<Recommendation> {
        let mut v: Vec<Recommendation> = candidates
            .iter()
            .map(|&(item, score)| Recommendation {
                item: ItemId(item),
                score,
            })
            .collect();
        v.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(Ordering::Equal));
        v.truncate(k);
        v
    }

    #[test]
    fn matches_oracle_on_distinct_scores() {
        let cands: Vec<(u32, f32)> = (0..50u32).map(|i| (i, ((i * 37) % 50) as f32)).collect();
        for k in [0, 1, 3, 10, 50, 80] {
            assert_eq!(select_top_k(cands.iter().copied(), k), oracle(&cands, k));
        }
    }

    #[test]
    fn ties_break_by_ascending_item() {
        // Scores collide heavily; the stable sort keeps ascending item order.
        let cands: Vec<(u32, f32)> = (0..40u32).map(|i| (i, (i % 4) as f32)).collect();
        for k in [1, 5, 12, 40] {
            assert_eq!(select_top_k(cands.iter().copied(), k), oracle(&cands, k));
        }
    }

    #[test]
    fn k_larger_than_candidates_returns_all_ranked() {
        let cands = [(0u32, 1.0f32), (1, 3.0), (2, 2.0)];
        let got = select_top_k(cands.iter().copied(), 10);
        assert_eq!(got.len(), 3);
        assert_eq!(got, oracle(&cands, 10));
    }

    #[test]
    fn k_zero_and_empty_candidates() {
        assert!(select_top_k([(0u32, 1.0f32)].iter().copied(), 0).is_empty());
        assert!(select_top_k(std::iter::empty::<(u32, f32)>(), 5).is_empty());
    }

    /// The scatter-gather merge equals a single global selection, on a
    /// distribution built to stress it: heavy score collisions with tie
    /// runs straddling the shard boundaries.
    #[test]
    fn merge_of_shard_top_ks_equals_global_top_k() {
        // 60 items, scores collide every 5 ids -> ties cross any
        // contiguous boundary; boundary at 29|30 splits a tie run.
        let cands: Vec<(u32, f32)> = (0..60u32).map(|i| (i, (i % 5) as f32)).collect();
        for shards in [1usize, 2, 3, 4, 8] {
            let per = cands.len().div_ceil(shards);
            for k in [0usize, 1, 7, 20, 60, 100] {
                let partials: Vec<Vec<Recommendation>> = cands
                    .chunks(per)
                    .map(|chunk| select_top_k(chunk.iter().copied(), k))
                    .collect();
                let merged = merge_top_k(&partials, k);
                let global = select_top_k(cands.iter().copied(), k);
                assert_eq!(merged, global, "shards={shards} k={k}");
            }
        }
    }

    /// NaN is outside the parity contract (models emit finite scores);
    /// the NaN-compares-Equal fallback makes the sort-based oracle's
    /// order unspecified. The heap must still be deterministic and
    /// well-formed: correct length, and identical output on every call.
    #[test]
    fn nan_scores_are_deterministic_and_well_formed() {
        let cands = [(0u32, f32::NAN), (1, 1.0f32), (2, f32::NAN), (3, 2.0)];
        let first = select_top_k(cands.iter().copied(), 2);
        assert_eq!(first.len(), 2);
        for _ in 0..5 {
            let again = select_top_k(cands.iter().copied(), 2);
            assert_eq!(first.len(), again.len());
            assert!(first
                .iter()
                .zip(&again)
                .all(|(a, b)| a.item == b.item && a.score.to_bits() == b.score.to_bits()));
        }
    }
}
