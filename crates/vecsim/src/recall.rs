//! Recall computation.
//!
//! Recall@k is the standard ANN quality measure the paper reports: the
//! fraction of the exact top-k that an approximate search returned. The
//! comparison is id-based with distance-tie tolerance handled upstream (the
//! exact ground truth already breaks ties deterministically).

use crate::Neighbor;

/// Recall of one result list against one ground-truth list.
///
/// `got` is the approximate result (ids, any order); `truth` is the exact
/// top-k. The effective k is `got.len()`: a ground-truth list longer than
/// the result list is truncated to the first `got.len()` entries (ground
/// truth is sorted nearest-first), so handing in an over-long truth list
/// cannot deflate the score below what a k-sized truth would give.
/// Duplicate ids in `got` are collapsed before matching — a result list
/// that pads itself with repeats only ever matches each truth id once.
/// The score is `|unique(got) ∩ truth[..k]| / k`. An empty ground truth
/// yields recall `1.0` (there was nothing to find).
///
/// # Example
///
/// ```rust
/// use vecsim::{recall::recall_at_k, Neighbor};
///
/// let truth = vec![Neighbor::new(1, 0.1), Neighbor::new(2, 0.2)];
/// assert_eq!(recall_at_k(&[2, 9], &truth), 0.5);
/// ```
pub fn recall_at_k(got: &[u32], truth: &[Neighbor]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let scored = &truth[..truth.len().min(got.len().max(1))];
    let unique: std::collections::HashSet<u32> = got.iter().copied().collect();
    let hits = scored.iter().filter(|t| unique.contains(&t.id)).count();
    hits as f64 / scored.len() as f64
}

/// Mean recall across a batch of queries.
///
/// # Panics
///
/// Panics if `got.len() != truth.len()`.
pub fn mean_recall(got: &[Vec<u32>], truth: &[Vec<Neighbor>]) -> f64 {
    assert_eq!(
        got.len(),
        truth.len(),
        "result batch and ground-truth batch must align"
    );
    if got.is_empty() {
        return 1.0;
    }
    let sum: f64 = got.iter().zip(truth).map(|(g, t)| recall_at_k(g, t)).sum();
    sum / got.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth(ids: &[u32]) -> Vec<Neighbor> {
        ids.iter()
            .enumerate()
            .map(|(i, &id)| Neighbor::new(id, i as f32))
            .collect()
    }

    #[test]
    fn perfect_recall() {
        assert_eq!(recall_at_k(&[3, 1, 2], &truth(&[1, 2, 3])), 1.0);
    }

    #[test]
    fn zero_recall() {
        assert_eq!(recall_at_k(&[7, 8], &truth(&[1, 2])), 0.0);
    }

    #[test]
    fn partial_recall() {
        assert_eq!(recall_at_k(&[1, 9, 10], &truth(&[1, 2])), 0.5);
    }

    #[test]
    fn empty_truth_counts_as_full_recall() {
        assert_eq!(recall_at_k(&[1, 2], &truth(&[])), 1.0);
    }

    #[test]
    fn extra_results_do_not_inflate_recall() {
        // got has many ids but only one matches the 2-element truth.
        assert_eq!(recall_at_k(&[1, 5, 6, 7, 8], &truth(&[1, 2])), 0.5);
    }

    #[test]
    fn overlong_truth_is_truncated_to_result_length() {
        // A 10-deep ground truth scored against a top-5 result list must
        // only score the first 5 truth entries, not deflate by 10.
        let t = truth(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(recall_at_k(&[5, 4, 3, 2, 1], &t), 1.0);
        assert_eq!(recall_at_k(&[1, 2, 90, 91, 92], &t), 0.4);
    }

    #[test]
    fn duplicate_result_ids_count_once() {
        let t = truth(&[1, 2, 3]);
        assert_eq!(recall_at_k(&[1, 1, 1], &t), 1.0 / 3.0);
    }

    #[test]
    fn empty_results_against_nonempty_truth_score_zero() {
        assert_eq!(recall_at_k(&[], &truth(&[1, 2])), 0.0);
    }

    #[test]
    fn mean_recall_averages() {
        let got = vec![vec![1u32, 2], vec![9]];
        let t = vec![truth(&[1, 2]), truth(&[1])];
        assert_eq!(mean_recall(&got, &t), 0.5);
    }

    #[test]
    fn mean_recall_of_empty_batch_is_one() {
        assert_eq!(mean_recall(&[], &[]), 1.0);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mean_recall_panics_on_misaligned_batches() {
        mean_recall(&[vec![1]], &[]);
    }
}
