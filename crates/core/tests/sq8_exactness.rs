//! What the SQ8 wire format promises about its answers, held against the
//! full-precision engine over the same vectors and the same mutations:
//! 8 seeds x {pristine, overflow inserts, inserts + tombstones}.
//!
//! - every distance a quantized batch returns is the exact f32 distance
//!   (whatever reaches the top-k was reranked or came from an overflow
//!   record), so no approximate distance is ever reported — the rerank
//!   goes round again while an estimate stands among the first k, which
//!   the one-sigma margin alone does not rule out (the second test);
//! - recall@10 against brute force over the live vectors is within 0.005
//!   of the full-precision engine's, in every cell;
//! - the top-10 id sets are the full-precision engine's. The rerank margin
//!   is one standard deviation of the quantization noise, not a worst
//!   case, so this is a rate, not a theorem: 765 of the 768 queries below
//!   agree (765 too under the 8-lane sums the estimates had through PR 22,
//!   and under the scalar ones before PR 12), and the sweep allows one
//!   disagreement per cell.

use dhnsw::{DHnswConfig, QuantizeMode, SearchMode, VectorStore};
use vecsim::{gen, l2_sq, Dataset, Neighbor};

const K: usize = 10;
const QUERIES: usize = 32;

#[derive(Clone, Copy, Debug, PartialEq)]
enum State {
    Pristine,
    Inserts,
    Tombstones,
}

/// Answers of one engine plus the vectors that were live when it answered.
struct Run {
    results: Vec<Vec<Neighbor>>,
    live: Vec<(u32, Vec<f32>)>,
}

fn run(
    data: &Dataset,
    queries: &Dataset,
    inserts: &Dataset,
    state: State,
    mode: QuantizeMode,
) -> Run {
    let config = DHnswConfig::small().with_quantize_mode(mode);
    let store = VectorStore::build(data.clone(), &config).unwrap();
    let node = store.connect(SearchMode::Full).unwrap();
    assert_eq!(node.is_quantized(), mode == QuantizeMode::Sq8);
    let mut live: Vec<(u32, Vec<f32>)> = data
        .iter()
        .enumerate()
        .map(|(i, row)| (i as u32, row.to_vec()))
        .collect();
    if state != State::Pristine {
        for v in inserts.iter() {
            live.push((node.insert(v).unwrap(), v.to_vec()));
        }
    }
    if state == State::Tombstones {
        // Delete the true nearest neighbour of every other query: the
        // strongest candidate must vanish from both engines' answers.
        for q in queries.iter().step_by(2) {
            let nearest = (0..live.len())
                .min_by(|&a, &b| l2_sq(q, &live[a].1).total_cmp(&l2_sq(q, &live[b].1)))
                .unwrap();
            let (gid, v) = live.swap_remove(nearest);
            node.delete(&v, gid).unwrap();
        }
    }
    let (results, _) = node.query_batch(queries, K, 48).unwrap();
    Run { results, live }
}

fn recall(run: &Run, queries: &Dataset) -> f64 {
    let mut found = 0usize;
    for (q, hits) in queries.iter().zip(&run.results) {
        let mut truth: Vec<(f32, u32)> = run.live.iter().map(|(g, v)| (l2_sq(q, v), *g)).collect();
        truth.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        found += hits
            .iter()
            .filter(|n| truth[..K].iter().any(|t| t.1 == n.id))
            .count();
    }
    found as f64 / (K * queries.len()) as f64
}

#[test]
fn sq8_answers_match_full_precision_across_seeds_and_mutations() {
    let mut disagreements = 0usize;
    for seed in 1..=8u64 {
        let data = gen::sift_like(1_200, seed).unwrap();
        let queries = gen::perturbed_queries(&data, QUERIES, 0.02, seed + 50).unwrap();
        let inserts = gen::perturbed_queries(&data, 24, 0.01, seed + 60).unwrap();
        for state in [State::Pristine, State::Inserts, State::Tombstones] {
            let cell = format!("seed {seed} {state:?}");
            let full = run(&data, &queries, &inserts, state, QuantizeMode::Off);
            let sq = run(&data, &queries, &inserts, state, QuantizeMode::Sq8);

            for (q, hits) in queries.iter().zip(&sq.results) {
                assert_eq!(hits.len(), K, "{cell}");
                for n in hits {
                    let v = &sq
                        .live
                        .iter()
                        .find(|(g, _)| *g == n.id)
                        .expect("a live id")
                        .1;
                    assert_eq!(
                        n.dist,
                        l2_sq(q, v),
                        "{cell}: id {} kept an approximate distance",
                        n.id
                    );
                }
            }

            let (r_full, r_sq) = (recall(&full, &queries), recall(&sq, &queries));
            assert!(
                r_sq + 0.005 >= r_full,
                "{cell}: recall {r_sq} vs full precision {r_full}"
            );

            let differing = full
                .results
                .iter()
                .zip(&sq.results)
                .filter(|(a, b)| {
                    let mut a: Vec<u32> = a.iter().map(|n| n.id).collect();
                    let mut b: Vec<u32> = b.iter().map(|n| n.id).collect();
                    a.sort_unstable();
                    b.sort_unstable();
                    a != b
                })
                .count();
            assert!(
                differing <= 1,
                "{cell}: {differing} of {QUERIES} top-{K} id sets differ"
            );
            disagreements += differing;
        }
    }
    assert!(
        disagreements <= 3,
        "{disagreements} of 768 id sets differ (3 when this was written)"
    );
}

/// The margin is one standard deviation, so a reranked candidate's exact
/// distance can land past its bound and let one from outside the margin
/// into the top-k, estimate and all: in this batch (found by sweeping
/// seeds on the one-pass rerank) one of 320 reported distances was
/// approximate (id 416, 161 506.19 for 161 317.08). The rerank now goes
/// round again for whatever estimate stands among the first k — here one
/// more `ReadCause::Rerank` read.
#[test]
fn a_candidate_from_outside_the_margin_is_exactified_before_it_is_reported() {
    let data = gen::sift_like(1_200, 10).unwrap();
    let queries = gen::perturbed_queries(&data, 64, 0.02, 1_003).unwrap();
    let config = DHnswConfig::small().with_quantize_mode(QuantizeMode::Sq8);
    let node = VectorStore::build(data.clone(), &config)
        .unwrap()
        .connect(SearchMode::Full)
        .unwrap();
    let (results, _) = node.query_batch(&queries, 5, 48).unwrap();
    for (q, hits) in queries.iter().zip(&results) {
        for n in hits {
            assert_eq!(
                n.dist,
                l2_sq(q, data.get(n.id as usize)),
                "id {} kept an approximate distance",
                n.id
            );
        }
    }
}
