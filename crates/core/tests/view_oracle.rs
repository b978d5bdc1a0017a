//! The view against its oracles.
//!
//! A compute node searches a cluster in the bytes the fetch landed
//! ([`LoadedCluster::adopt`]); the store's own types decode the same bytes
//! into structures they own ([`SubCluster::from_bytes`],
//! [`SqCluster::from_bytes`], [`parse_overflow`]). This holds the first
//! against the second: random clusters go through a simulated memory pool
//! the way the loader reads them — one work request per group span,
//! scattered across the buffer that stays resident and a scratch for the
//! rest — and every query must come back with bit-identical ids,
//! distances and work counters, wherever in its buffer the cluster starts
//! (seven of eight offsets force the convert-once path).
//!
//! What "the second" answers depends on what the probe does. An SQ8
//! cluster, and a full-precision one small enough for [`scans`] at its
//! `ef`, is scanned whole, so the expected answer is *brute force* over
//! the owner's rows + inserts − tombstones: the exact top-k, one distance
//! evaluation per live row, no hops. A larger full-precision cluster is
//! walked, and there the view must equal the owning index's own walk.

use std::collections::HashSet;

use dhnsw::cluster::{
    parse_overflow_detailed, scans, Candidate, LoadedCluster, OverflowRecord, ProbeScratch,
    SqCluster, SubCluster,
};
use hnsw::{HnswParams, SearchStats};
use proptest::prelude::*;
use rdma_sim::{MemoryNode, NetworkModel, QueuePair, ReadReq, Scatter, Segment};
use vecsim::{gen, Dataset, Metric};

const PARTITION: u32 = 5;
const DIMS: [usize; 4] = [1, 3, 16, 128];
const MS: [usize; 2] = [4, 16];
const METRICS: [Metric; 3] = [Metric::L2, Metric::InnerProduct, Metric::Cosine];
/// `(k, ef)` of every full-precision probe: at `ef` = 1 a cluster past
/// `cut(1)` rows is walked, at the benchmark's 48 only one past `cut(48)`
/// is.
const K_EF: [(usize, usize); 4] = [(1, 1), (1, 48), (10, 1), (10, 48)];

/// The largest full-precision cluster, in base rows, that a probe at `ef`
/// scans: the cut-off, read off [`scans`] itself.
fn cut(ef: usize) -> usize {
    (1..)
        .take_while(|&rows| scans(rows, ef))
        .last()
        .unwrap_or(0)
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// One random cluster and the overflow area of its group.
struct Case {
    data: Dataset,
    ids: Vec<u32>,
    m: usize,
    /// What the full-precision index is built and searched under (the
    /// SQ8 wire is L2 whatever this says).
    metric: Metric,
    /// Raw overflow area: `inserts` inserts for [`PARTITION`], as many
    /// again for the group's other partition, `tombs` tombstones that
    /// alternate between inserted and base ids, and one torn slot.
    area: Vec<u8>,
    queries: Dataset,
}

fn case(n: usize, dim: usize, m: usize, inserts: usize, tombs: usize, seed: u64) -> Case {
    let mut rng = seed | 1;
    let data = gen::uniform(dim, n, 0.0, 1.0, seed).unwrap();
    let ids: Vec<u32> = (0..n as u32).map(|i| i * 7 + 3).collect();
    let fresh = |j: usize| 100_000 + j as u32;
    let mut records = Vec::new();
    for j in 0..inserts {
        let v: Vec<f32> = (0..dim)
            .map(|_| (lcg(&mut rng) % 1000) as f32 / 1000.0)
            .collect();
        records.push(OverflowRecord::insert(PARTITION, fresh(j), v.clone()).to_bytes());
        records.push(OverflowRecord::insert(PARTITION + 1, fresh(j) + 50, v).to_bytes());
    }
    records.insert(records.len() / 2, vec![0u8; OverflowRecord::wire_size(dim)]);
    for t in 0..tombs {
        let target = if t % 2 == 0 && inserts > 0 {
            fresh(lcg(&mut rng) as usize % inserts)
        } else {
            ids[lcg(&mut rng) as usize % n]
        };
        records.push(OverflowRecord::tombstone(PARTITION, target, dim).to_bytes());
    }
    let used: usize = records.iter().map(Vec::len).sum();
    let mut area = (used as u64).to_le_bytes().to_vec();
    area.extend(records.into_iter().flatten());
    area.resize(area.len() + 2 * OverflowRecord::wire_size(dim), 0); // unused slots
    let queries = gen::uniform(dim, 32, -0.1, 1.1, seed ^ 0xABCD).unwrap();
    Case {
        data,
        ids,
        m,
        metric: METRICS[(seed % 3) as usize],
        area,
        queries,
    }
}

/// Places `blob` and `area` in a fresh memory pool as one group span —
/// `blob`, padding to 8 bytes, `area` for the front slot; `area`, `blob`
/// for the back slot — and reads the span back with one work request the
/// way the loader does: the cluster lands `start` bytes into a buffer of
/// its own, the rest of the span in a scratch. Returns the buffer and the
/// overflow area as cut from the scratch.
fn land(blob: &[u8], area: &[u8], back: bool, start: usize) -> (Vec<u8>, Vec<u8>) {
    let pad = blob.len().next_multiple_of(8) - blob.len();
    let span: Vec<u8> = if back {
        [area, blob].concat()
    } else {
        [blob, &vec![0xEE; pad], area].concat()
    };
    let node = MemoryNode::new("pool");
    let region = node.register(64 + span.len()).unwrap();
    let qp = QueuePair::connect(&node, NetworkModel::connectx6());
    qp.write(region.rkey(), 64, &span).unwrap();

    let mut cluster = Vec::with_capacity(start + blob.len() + 8);
    cluster.resize(start, 0xAA);
    let mut rest = Vec::new();
    let (c, r) = (blob.len() as u64, (span.len() - blob.len()) as u64);
    let (head, tail) = if back {
        (
            Segment {
                buf: &mut rest,
                len: r,
            },
            Segment {
                buf: &mut cluster,
                len: c,
            },
        )
    } else {
        (
            Segment {
                buf: &mut cluster,
                len: c,
            },
            Segment {
                buf: &mut rest,
                len: r,
            },
        )
    };
    let req = ReadReq::new(region.rkey(), 64, span.len() as u64);
    let into = Scatter {
        head,
        tail: Some(tail),
    };
    qp.read_doorbell_into(&[req], &mut [into]).unwrap();
    assert_eq!(
        qp.stats().work_requests(),
        2,
        "one write, one read: segments are not requests"
    );
    let area = if back {
        rest[..area.len()].to_vec()
    } else {
        rest[pad..].to_vec()
    };
    (cluster, area)
}

/// Live inserts, tombstoned ids, slots skipped.
type Folded = (Vec<(u32, Vec<f32>)>, HashSet<u32>, usize);

/// This partition's live inserts and tombstones, the owning way.
fn fold(area: &[u8], dim: usize) -> Folded {
    let (records, skipped) = parse_overflow_detailed(area, dim).unwrap();
    let mine = records.iter().filter(|r| r.partition == PARTITION);
    let deleted: HashSet<u32> = mine
        .clone()
        .filter(|r| r.tombstone)
        .map(|r| r.global_id)
        .collect();
    let extra = mine
        .filter(|r| !r.tombstone && !deleted.contains(&r.global_id))
        .map(|r| (r.global_id, r.vector.clone()))
        .collect();
    (extra, deleted, skipped)
}

fn by_dist_then_id(a: &(u32, f32), b: &(u32, f32)) -> std::cmp::Ordering {
    a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
}

/// Probes scanned and probes walked.
type Paths = (usize, usize);

fn check_full(c: &Case, back: bool) -> Paths {
    let params = HnswParams::new(c.m, 40).seed(9).metric(c.metric);
    let blob = SubCluster::build(PARTITION, c.data.clone(), c.ids.clone(), &params)
        .unwrap()
        .to_bytes();
    let dim = c.data.dim();
    let (mut scanned, mut walked) = (0, 0);
    for start in 0..8 {
        let (buf, area) = land(&blob, &c.area, back, start);
        assert_eq!(area, c.area);
        let loaded = LoadedCluster::adopt(buf, start, false, Some(&area)).unwrap();

        let oracle = SubCluster::from_bytes(&blob).unwrap();
        let (extra, deleted, skipped) = fold(&area, dim);
        assert_eq!(loaded.partition(), PARTITION);
        assert_eq!(loaded.global_ids(), oracle.global_ids());
        assert_eq!((loaded.base_len(), loaded.dim()), (oracle.len(), dim));
        assert_eq!(
            (loaded.overflow_len(), loaded.skipped_slots()),
            (extra.len(), skipped)
        );
        assert_eq!(loaded.deleted(), &deleted);
        assert_eq!(
            loaded.resident_bytes(),
            blob.len() + extra.len() * (8 + 4 * dim)
        );
        for local in 0..oracle.len() as u32 {
            assert_eq!(loaded.base_vector(local), Some(oracle.hnsw().vector(local)));
        }
        assert_eq!(loaded.base_vector(oracle.len() as u32), None);

        let metric = oracle.hnsw().params().metric_kind();
        assert_eq!(metric, c.metric);
        let n = oracle.len() as u32;
        for q in c.queries.iter() {
            for (k, ef) in K_EF {
                let mut want_stats = SearchStats::default();
                let inserts = extra.iter().map(|(id, v)| (*id, metric.distance(q, v)));
                let mut want: Vec<(u32, f32)> = if scans(oracle.len(), ef) {
                    scanned += 1;
                    // Brute force. Ties at the k-th place go to the lower
                    // pseudo-id: base row i -> i, insert j -> n + j.
                    let rows =
                        (0..n).filter(|&i| !deleted.contains(&oracle.global_ids()[i as usize]));
                    let mut all: Vec<(u32, f32)> = rows
                        .map(|i| (i, metric.distance(q, oracle.hnsw().vector(i))))
                        .chain((n..).zip(inserts).map(|(i, (_, d))| (i, d)))
                        .collect();
                    want_stats.dist_evals = all.len() as u64;
                    all.sort_by(by_dist_then_id);
                    all.truncate(k);
                    (all.iter().map(|&(i, d)| match i.checked_sub(n) {
                        None => (oracle.global_ids()[i as usize], d),
                        Some(j) => (extra[j as usize].0, d),
                    }))
                    .collect()
                } else {
                    walked += 1;
                    let widen = deleted.len().min(k);
                    let base = oracle.search_with_stats(q, k + widen, ef + widen, &mut want_stats);
                    want_stats.dist_evals += extra.len() as u64;
                    (base.iter().map(|n| (n.id, n.dist)))
                        .filter(|(id, _)| !deleted.contains(id))
                        .chain(inserts)
                        .collect()
                };
                // Either way hits are reported by (dist, global id).
                want.sort_by(by_dist_then_id);
                want.truncate(k);

                let mut got_stats = SearchStats::default();
                let got = loaded.search_with_stats(q, k, ef, &mut got_stats);
                let got: Vec<(u32, u32)> = got.iter().map(|n| (n.id, n.dist.to_bits())).collect();
                let want: Vec<(u32, u32)> = want.iter().map(|(id, d)| (*id, d.to_bits())).collect();
                assert_eq!(got, want, "start {start} k {k} ef {ef}");
                assert_eq!(got_stats, want_stats, "start {start} k {k} ef {ef}");
            }
        }
    }
    (scanned, walked)
}

fn check_sq(c: &Case) {
    let blob = SqCluster::build(PARTITION, &c.data, c.ids.clone())
        .unwrap()
        .to_bytes();
    let dim = c.data.dim();
    for start in 0..8 {
        // The SQ8 wire reads the blob alone; the overflow area comes from
        // a follow-up read, or not at all.
        for area in [None, Some(c.area.as_slice())] {
            let mut buf = vec![0xAA; start];
            buf.extend_from_slice(&blob);
            let loaded = LoadedCluster::adopt(buf, start, true, area).unwrap();

            let oracle = SqCluster::from_bytes(&blob).unwrap();
            let (extra, deleted, skipped) = area.map_or_else(Folded::default, |a| fold(a, dim));
            assert!(loaded.is_quantized());
            assert_eq!(loaded.sq_params(), Some(oracle.params()));
            assert_eq!(loaded.global_ids(), oracle.global_ids());
            assert_eq!((loaded.base_len(), loaded.dim()), (oracle.len(), dim));
            assert_eq!(
                (loaded.overflow_len(), loaded.skipped_slots()),
                (extra.len(), skipped)
            );
            assert_eq!(
                loaded.resident_bytes(),
                blob.len() + extra.len() * (8 + 4 * dim)
            );

            let n = oracle.len() as u32;
            for q in c.queries.iter() {
                // Pseudo-ids order ties: base row i -> i, insert j -> n + j.
                let rows = (0..n).filter(|&i| !deleted.contains(&oracle.global_ids()[i as usize]));
                let mut all: Vec<(u32, f32)> = rows
                    .map(|i| (i, oracle.params().asymmetric_l2(q, oracle.codes_of(i))))
                    .chain(
                        (0u32..)
                            .zip(&extra)
                            .map(|(j, (_, v))| (n + j, vecsim::l2_sq(q, v))),
                    )
                    .collect();
                let evals = all.len() as u64;
                all.sort_by(by_dist_then_id);
                for k in [1, 10] {
                    let want: Vec<(u32, u32, Option<u32>)> = (all.iter().take(k))
                        .map(|&(i, d)| match i.checked_sub(n) {
                            None => (oracle.global_ids()[i as usize], d.to_bits(), Some(i)),
                            Some(j) => (extra[j as usize].0, d.to_bits(), None),
                        })
                        .collect();
                    let mut stats = SearchStats::default();
                    let got = loaded.search_sq_with_stats(q, k, &mut stats);
                    let got: Vec<_> = got
                        .iter()
                        .map(|h| (h.id, h.dist.to_bits(), h.local))
                        .collect();
                    assert_eq!(got, want, "start {start} k {k}");
                    assert_eq!(stats.dist_evals, evals, "start {start} k {k}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn a_landed_cluster_searches_like_the_owning_decoders(
        n in 1usize..300,
        shape in 0usize..8,
        back in any::<bool>(),
        inserts in 0usize..21,
        tombs in 0usize..6,
        seed in any::<u64>(),
    ) {
        let c = case(n, DIMS[shape % 4], MS[shape / 4], inserts, tombs, seed);
        // Past cut(1) rows the ef = 1 probes walk; the ef = 48 probes scan.
        let (scanned, walked) = check_full(&c, back);
        prop_assert!(scanned > 0 && (walked > 0) != scans(n, 1));
        check_sq(&c);
    }
}

/// The corners the random shapes may miss: a single-vector cluster, no
/// overflow at all, a tombstone for every base id but one, the last size
/// the random sweep reaches — and, because that sweep stops at 300 rows and
/// so never walks at `ef` = 48, both sides of the cut-off at the
/// benchmark's `ef`: the largest cluster a probe there scans (brute force,
/// bit-equal distances, no hops) and one row more, which it walks — with
/// inserts and tombstones, so the walk merges an overflow tail and widens
/// its beam.
#[test]
fn corner_clusters_agree_too() {
    let (mut scanned, mut walked) = (0, 0);
    let edge = cut(48);
    for (n, dim, inserts, tombs) in [
        (1, 1, 0, 0),
        (1, 128, 20, 5),
        (2, 3, 0, 5),
        (299, 16, 20, 0),
        (edge, 16, 20, 5),
        (edge + 1, 16, 20, 5),
    ] {
        for back in [false, true] {
            let c = case(n, dim, 4, inserts, tombs, 77);
            let (s, w) = check_full(&c, back);
            (scanned, walked) = (scanned + s, walked + w);
            // Probes per `(k, ef)`: 8 offsets × 32 queries.
            let per = 8 * 32;
            if n == edge {
                assert_eq!((s, w), (2 * per, 2 * per), "{n} rows scan at ef 48 only");
            } else if n > edge {
                assert_eq!(
                    (s, w),
                    (0, per * K_EF.len()),
                    "every probe of {n} rows walks"
                );
            }
            check_sq(&c);
        }
    }
    assert!(
        scanned > 0 && walked > 0,
        "{scanned} scanned, {walked} walked"
    );
}

/// A probe takes every query a worker's run routes to one cluster at once,
/// and where it scans — the SQ8 wire, and a full-precision cluster small
/// enough for [`scans`] — reads each row once for all of them. What a query
/// gets must not depend on its company: over clusters with inserts,
/// tombstones and tombstoned inserts, on both wires, a block of Q queries
/// yields per query exactly the candidates — ids, distance and error bits,
/// rerank addresses — of Q probes of one, and as many distance evaluations
/// and hops as they make together. Exact candidates leave in `(dist, id)`
/// order and are held to it; an SQ8 probe's estimates leave as the
/// selection left them, so they are held as a set — at a pool of k + 32
/// too, and over a cluster whose rows repeat in threes, where the pool's
/// edge cuts through equal estimates. 33 and 40 queries at 128 dimensions
/// cross the cut a scan makes in a long run; one scratch serves every
/// probe, dirty: the 120 full-precision rows are walked at `ef` = 1,
/// scanned at 48 and walked again at 2, out of what the scan left behind.
/// A cluster of the largest size `ef` = 48 scans meets blocks of 1, 9 and
/// 17 there: the lone path, a tile and a query left over, two tiles and
/// one left over.
#[test]
fn a_block_probe_of_the_view_equals_single_probes() {
    let bits = |c: &Candidate| (c.id, c.dist.to_bits(), c.local, c.err.to_bits());
    let mut scratch = ProbeScratch::default();
    let (many, edge): (&[usize], _) = (&[1, 2, 3, 5, 17, 33, 40], cut(48));
    for (n, dim, inserts, tombs, distinct, blocks) in [
        (120, 3, 12, 5, 120, many),
        (120, 128, 12, 5, 120, many),
        (120, 128, 0, 0, 120, many),
        (120, 128, 12, 5, 40, many),
        (edge, 128, 12, 5, edge, &[1, 9, 17]),
    ] {
        let mut c = case(n, dim, 4, inserts, tombs, 41);
        let rows: Vec<&[f32]> = (0..n).map(|i| c.data.get(i % distinct)).collect();
        c.data = Dataset::from_rows(&rows).unwrap();
        let params = HnswParams::new(c.m, 40).seed(9).metric(c.metric);
        let full = SubCluster::build(PARTITION, c.data.clone(), c.ids.clone(), &params).unwrap();
        let sq = SqCluster::build(PARTITION, &c.data, c.ids.clone()).unwrap();
        let area = Some(c.area.as_slice());
        for loaded in [
            LoadedCluster::adopt(full.to_bytes(), 0, false, area).unwrap(),
            LoadedCluster::adopt(sq.to_bytes(), 0, true, area).unwrap(),
        ] {
            assert_eq!(loaded.overflow_len() > 0, inserts > 0);
            assert_eq!(loaded.deleted().is_empty(), tombs == 0);
            for (k, slack, ef) in [(1, 0, 1), (10, 16, 48), (10, 32, 48), (10, 0, 2)] {
                let scanned = loaded.is_quantized() || scans(n, ef);
                for &q in blocks {
                    let block: Vec<&[f32]> = (0..q).map(|i| c.queries.get(i % 32)).collect();
                    let (mut got, mut ends) = (Vec::new(), Vec::new());
                    let mut stats = SearchStats::default();
                    loaded.probe(
                        &block,
                        &[],
                        k,
                        slack,
                        ef,
                        &mut scratch,
                        &mut stats,
                        &mut got,
                        &mut ends,
                    );
                    assert_eq!(ends.len(), q);
                    assert_eq!(
                        stats.hops == 0,
                        scanned,
                        "dim {dim} ef {ef}: hops tell a scan from a walk"
                    );

                    let mut alone = SearchStats::default();
                    let mut start = 0;
                    for (query, &end) in block.iter().zip(&ends) {
                        let (mut want, mut one) = (Vec::new(), Vec::new());
                        loaded.probe(
                            &[query],
                            &[],
                            k,
                            slack,
                            ef,
                            &mut scratch,
                            &mut alone,
                            &mut want,
                            &mut one,
                        );
                        assert_eq!(one, [want.len()]);
                        let mut got: Vec<_> = got[start..end].iter().map(bits).collect();
                        let mut want: Vec<_> = want.iter().map(bits).collect();
                        if loaded.is_quantized() {
                            got.sort_unstable();
                            want.sort_unstable();
                        }
                        assert_eq!(
                            got,
                            want,
                            "dim {dim} sq {} k {k} ef {ef} of a block of {q}",
                            loaded.is_quantized()
                        );
                        start = end;
                    }
                    assert_eq!(start, got.len());
                    assert_eq!(stats, alone, "dim {dim} k {k} ef {ef} block of {q}");
                }
            }
        }
    }
}
