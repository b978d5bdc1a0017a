//! Construction helpers: level sampling and the neighbour-selection
//! heuristic (Algorithm 4 of the HNSW paper).

use rand::rngs::StdRng;
use rand::Rng;

use vecsim::{Dataset, Metric, Neighbor};

/// Samples a node level from the geometric distribution
/// `l = floor(-ln(U) * mL)`, optionally capped.
pub(crate) fn sample_level(rng: &mut StdRng, lambda: f64, cap: Option<usize>) -> usize {
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let l = (-u.ln() * lambda).floor() as usize;
    match cap {
        Some(c) => l.min(c),
        None => l,
    }
}

/// Algorithm 4: selects up to `m` diverse neighbours from `candidates`
/// (sorted ascending by distance to the inserted point).
///
/// A candidate is kept only if it is closer to the query than to every
/// already-selected neighbour — this prunes redundant edges that point into
/// the same region and is what gives HNSW graphs their navigability. The
/// discarded candidates then backfill the result up to `m`
/// (`keepPrunedConnections` on); the candidate set is never extended by
/// the candidates' own neighbours (`extendCandidates` off).
pub(crate) fn select_neighbors_heuristic(
    data: &Dataset,
    metric: Metric,
    candidates: &[Neighbor],
    m: usize,
) -> Vec<u32> {
    let mut selected: Vec<Neighbor> = Vec::with_capacity(m);
    let mut discarded: Vec<Neighbor> = Vec::new();

    for &cand in candidates {
        if selected.len() >= m {
            break;
        }
        // Keep `cand` iff it is closer to the query than to any already
        // selected neighbour.
        let cand_vec = data.get(cand.id as usize);
        let dominated = selected
            .iter()
            .any(|s| metric.distance(cand_vec, data.get(s.id as usize)) < cand.dist);
        if dominated {
            discarded.push(cand);
        } else {
            selected.push(cand);
        }
    }

    let room = m - selected.len();
    selected.extend(discarded.into_iter().take(room));

    selected.sort();
    selected.into_iter().map(|n| n.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sample_level_respects_cap() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let l = sample_level(&mut rng, 1.0 / 16f64.ln(), Some(2));
            assert!(l <= 2);
        }
    }

    #[test]
    fn sample_level_distribution_is_geometric_ish() {
        let mut rng = StdRng::seed_from_u64(2);
        let lambda = 1.0 / 16f64.ln();
        let n = 100_000;
        let mut counts = [0usize; 8];
        for _ in 0..n {
            let l = sample_level(&mut rng, lambda, None).min(7);
            counts[l] += 1;
        }
        // P(level 0) = 1 - e^{-1/λ}... for mL = 1/ln16, P(l >= 1) = 1/16.
        let frac_l0 = counts[0] as f64 / n as f64;
        assert!((frac_l0 - 15.0 / 16.0).abs() < 0.01, "P(l=0) was {frac_l0}");
        assert!(counts[1] > counts[2]);
    }

    /// On a square of points, the heuristic should keep direction-diverse
    /// neighbours rather than all candidates crowded on one side.
    #[test]
    fn heuristic_prefers_diverse_directions() {
        // Query at origin. Candidates: two very close together to the
        // right, one farther up. Plain top-2 keeps the two right-side
        // points; the heuristic must keep one right + one up.
        let data = Dataset::from_rows(&[
            [1.0f32, 0.0], // 0: right
            [1.1, 0.0],    // 1: right, redundant with 0
            [0.0, 1.5],    // 2: up
        ])
        .unwrap();
        let q = [0.0f32, 0.0];
        let mut cands: Vec<Neighbor> = (0..3u32)
            .map(|i| Neighbor::new(i, Metric::L2.distance(&q, data.get(i as usize))))
            .collect();
        cands.sort();
        let picked = select_neighbors_heuristic(&data, Metric::L2, &cands, 2);
        assert!(picked.contains(&0));
        assert!(
            picked.contains(&2),
            "expected the diverse neighbour, got {picked:?}"
        );
    }

    #[test]
    fn pruned_candidates_backfill_to_m() {
        let data = Dataset::from_rows(&[[1.0f32, 0.0], [1.1, 0.0], [1.2, 0.0]]).unwrap();
        let q = [0.0f32, 0.0];
        let mut cands: Vec<Neighbor> = (0..3u32)
            .map(|i| Neighbor::new(i, Metric::L2.distance(&q, data.get(i as usize))))
            .collect();
        cands.sort();
        // All three candidates sit on a ray, so the heuristic keeps only
        // the closest; the two it pruned backfill the list to m, in order.
        let filled = select_neighbors_heuristic(&data, Metric::L2, &cands, 3);
        assert_eq!(filled, vec![0, 1, 2]);
    }

    #[test]
    fn heuristic_handles_more_candidates_than_m() {
        let rows: Vec<[f32; 2]> = (0..10).map(|i| [i as f32, 0.5]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let q = [0.0f32, 0.0];
        let mut cands: Vec<Neighbor> = (0..10u32)
            .map(|i| Neighbor::new(i, Metric::L2.distance(&q, data.get(i as usize))))
            .collect();
        cands.sort();
        let picked = select_neighbors_heuristic(&data, Metric::L2, &cands, 4);
        assert_eq!(picked.len(), 4);
    }
}
