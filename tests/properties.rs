//! Cross-crate property-based tests (proptest): invariants that must hold
//! for arbitrary data, not just the fixtures the unit tests pick.

use proptest::prelude::*;

use dhnsw_repro::dhnsw::cluster::{
    parse_overflow, parse_overflow_detailed, OverflowRecord, SubCluster,
};
use dhnsw_repro::dhnsw::layout::Directory;
use dhnsw_repro::hnsw::{serialize, HnswIndex, HnswParams};
use dhnsw_repro::vecsim::{Dataset, Metric, TopK};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The grouped layout never overlaps: every cluster span and every
    /// overflow area occupies disjoint bytes (except the deliberate
    /// sharing of one overflow area by the two clusters of a group).
    #[test]
    fn directory_plan_never_overlaps(
        sizes in prop::collection::vec(1u64..5_000, 1..40),
        dim in 1usize..64,
        slots in 0usize..16,
    ) {
        let dir = Directory::plan(&sizes, dim, slots).unwrap();
        // Collect (start, end, tag) intervals: clusters individually,
        // overflow areas once per group.
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        let mut seen_overflows = std::collections::HashSet::new();
        for loc in dir.locations() {
            intervals.push((loc.cluster_off, loc.cluster_off + loc.cluster_len));
            if seen_overflows.insert(loc.overflow_off) {
                intervals.push((loc.overflow_off, loc.overflow_off + loc.overflow_len));
            }
            prop_assert!(loc.cluster_off + loc.cluster_len <= dir.total_len());
        }
        intervals.sort();
        for w in intervals.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlap: {:?} then {:?}", w[0], w[1]);
        }
    }

    /// Every planned offset stays 8-aligned regardless of cluster sizes.
    #[test]
    fn directory_alignment_holds_for_any_sizes(
        sizes in prop::collection::vec(1u64..10_000, 1..30),
    ) {
        let dir = Directory::plan(&sizes, 7, 3).unwrap();
        for loc in dir.locations() {
            prop_assert_eq!(loc.cluster_off % 8, 0);
            prop_assert_eq!(loc.overflow_off % 8, 0);
        }
    }

    /// Directory serialization round-trips for arbitrary shapes.
    #[test]
    fn directory_bytes_round_trip(
        sizes in prop::collection::vec(1u64..100_000, 1..50),
        dim in 1usize..512,
        slots in 0usize..64,
    ) {
        let mut dir = Directory::plan(&sizes, dim, slots).unwrap();
        dir.set_next_id(sizes.len() as u64 * 7);
        let back = Directory::from_bytes(&dir.to_bytes()).unwrap();
        prop_assert_eq!(back, dir);
    }

    /// Overflow records survive encoding for any dimension and payload.
    #[test]
    fn overflow_record_round_trips(
        partition in any::<u32>(),
        global_id in any::<u32>(),
        vector in prop::collection::vec(-1e6f32..1e6, 1..80),
    ) {
        // Partition ids carry a tombstone flag in the top bit on the
        // wire, so the round-trippable domain excludes it.
        let partition = partition & !dhnsw_repro::dhnsw::cluster::TOMBSTONE_BIT;
        let r = OverflowRecord::insert(partition, global_id, vector);
        let dim = r.vector.len();
        let bytes = r.to_bytes();
        prop_assert_eq!(bytes.len() % 8, 0);
        let back = OverflowRecord::from_bytes(&bytes, dim).unwrap();
        prop_assert_eq!(back.clone(), r);
        // And the tombstone variant round-trips its flag.
        let t = OverflowRecord::tombstone(partition, global_id, dim);
        let back_t = OverflowRecord::from_bytes(&t.to_bytes(), dim).unwrap();
        prop_assert!(back_t.tombstone);
        prop_assert_eq!(back_t.partition, partition);
    }

    /// A packed overflow area parses back to exactly the records written,
    /// for any record count within capacity.
    #[test]
    fn overflow_area_round_trips(
        dim in 1usize..16,
        count in 0usize..10,
        extra_capacity in 0usize..5,
    ) {
        let rec = OverflowRecord::wire_size(dim);
        let mut area = vec![0u8; 8 + (count + extra_capacity) * rec];
        let records: Vec<OverflowRecord> = (0..count)
            .map(|i| {
                OverflowRecord::insert(
                    i as u32 % 3,
                    1_000 + i as u32,
                    (0..dim).map(|j| (i * dim + j) as f32).collect(),
                )
            })
            .collect();
        for (i, r) in records.iter().enumerate() {
            area[8 + i * rec..8 + (i + 1) * rec].copy_from_slice(&r.to_bytes());
        }
        area[0..8].copy_from_slice(&((count * rec) as u64).to_le_bytes());
        let got = parse_overflow(&area, dim).unwrap();
        prop_assert_eq!(got, records);
    }

    /// Decoding arbitrarily truncated or bit-flipped overflow bytes never
    /// panics: damage is skipped (commit marker / checksum) or rejected
    /// as `Corrupt`, never a crash.
    #[test]
    fn overflow_decode_survives_truncation_and_bit_flips(
        dim in 1usize..16,
        count in 1usize..8,
        cut in any::<usize>(),
        flip in any::<usize>(),
        bit in 0u8..8,
    ) {
        let rec = OverflowRecord::wire_size(dim);
        let mut area = vec![0u8; 8 + count * rec];
        for i in 0..count {
            let r = OverflowRecord::insert(i as u32, 100 + i as u32, vec![1.5; dim]);
            area[8 + i * rec..8 + (i + 1) * rec].copy_from_slice(&r.to_bytes());
        }
        area[0..8].copy_from_slice(&((count * rec) as u64).to_le_bytes());
        // Truncation at any point must not panic.
        let cut_at = cut % (area.len() + 1);
        let _ = parse_overflow(&area[..cut_at], dim);
        let _ = OverflowRecord::from_bytes(&area[8..], dim);
        // Neither must a single bit flip anywhere; the checksum or the
        // commit marker downgrades the damaged slot instead.
        let pos = flip % area.len();
        area[pos] ^= 1 << bit;
        let _ = parse_overflow(&area, dim);
    }

    /// A torn slot — reserved by the FAA but never written, so all-zero —
    /// hides that one record and nothing else.
    #[test]
    fn torn_slots_are_skipped_not_fatal(
        dim in 1usize..12,
        count in 2usize..8,
        torn in any::<usize>(),
    ) {
        let rec = OverflowRecord::wire_size(dim);
        let mut area = vec![0u8; 8 + count * rec];
        for i in 0..count {
            let r = OverflowRecord::insert(i as u32 % 3, 100 + i as u32, vec![2.5; dim]);
            area[8 + i * rec..8 + (i + 1) * rec].copy_from_slice(&r.to_bytes());
        }
        area[0..8].copy_from_slice(&((count * rec) as u64).to_le_bytes());
        let torn_at = torn % count;
        area[8 + torn_at * rec..8 + (torn_at + 1) * rec].fill(0);
        let (got, skipped) = parse_overflow_detailed(&area, dim).unwrap();
        prop_assert_eq!(skipped, 1);
        prop_assert_eq!(got.len(), count - 1);
        prop_assert!(got.iter().all(|r| r.global_id != 100 + torn_at as u32));
    }

    /// HNSW serialization round-trips and searches identically for
    /// arbitrary (small) datasets.
    #[test]
    fn hnsw_blob_round_trip_preserves_search(
        rows in prop::collection::vec(
            prop::collection::vec(-100f32..100.0, 6..7), 2..60),
        seed in any::<u64>(),
    ) {
        let data = Dataset::from_rows(&rows).unwrap();
        let idx = HnswIndex::build(data, &HnswParams::new(4, 20).seed(seed)).unwrap();
        let back = serialize::from_bytes(&serialize::to_bytes(&idx)).unwrap();
        let q = vec![0.0f32; 6];
        prop_assert_eq!(idx.search(&q, 5, 16), back.search(&q, 5, 16));
    }

    /// HNSW always returns min(k, n) unique, sorted results and always
    /// contains the exact nearest neighbour when ef is generous.
    #[test]
    fn hnsw_result_invariants(
        rows in prop::collection::vec(
            prop::collection::vec(0f32..1.0, 4..5), 1..80),
        qx in 0f32..1.0,
        k in 1usize..10,
    ) {
        let data = Dataset::from_rows(&rows).unwrap();
        let n = data.len();
        let idx = HnswIndex::build(data.clone(), &HnswParams::new(8, 64).seed(1)).unwrap();
        let q = vec![qx; 4];
        let out = idx.search(&q, k, 64.max(n));
        prop_assert_eq!(out.len(), k.min(n));
        let mut ids: Vec<u32> = out.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), out.len(), "duplicate results");
        for w in out.windows(2) {
            prop_assert!(w[0].dist <= w[1].dist);
        }
        // With ef >= n the beam covers the connected graph: the true
        // nearest must be present.
        let exact = dhnsw_repro::vecsim::ground_truth::exact(&data, &q, 1, Metric::L2);
        prop_assert!(out.iter().any(|o| (o.dist - exact[0].dist).abs() < 1e-5),
            "exact nearest missing: {:?} not in {:?}", exact[0], out);
    }

    /// TopK matches a sort-based oracle for arbitrary candidate streams.
    #[test]
    fn topk_matches_sorting_oracle(
        cands in prop::collection::vec((any::<u32>(), -1e9f32..1e9), 0..200),
        k in 0usize..20,
    ) {
        let mut top = TopK::new(k);
        for &(id, d) in &cands {
            top.push(id, d);
        }
        let got = top.into_sorted_vec();

        let mut oracle: Vec<_> = cands
            .iter()
            .map(|&(id, d)| dhnsw_repro::vecsim::Neighbor::new(id, d))
            .collect();
        oracle.sort();
        oracle.dedup(); // duplicate (id, dist) pairs may collapse either way
        let mut expect = oracle;
        expect.truncate(k);

        // Compare only distances (ties among equal distances may pick
        // different ids when duplicates exist in the stream).
        let got_d: Vec<f32> = got.iter().map(|n| n.dist).collect();
        let exp_d: Vec<f32> = expect.iter().map(|n| n.dist).collect();
        prop_assert_eq!(got_d.len(), exp_d.len().min(k));
        for (g, e) in got_d.iter().zip(&exp_d) {
            prop_assert!(g.total_cmp(e).is_eq() || (g - e).abs() < 1e-9);
        }
    }

    /// Cluster serialization round-trips for arbitrary partition content.
    #[test]
    fn sub_cluster_round_trips(
        rows in prop::collection::vec(
            prop::collection::vec(0f32..255.0, 8..9), 1..40),
        partition in any::<u32>(),
    ) {
        let data = Dataset::from_rows(&rows).unwrap();
        let ids: Vec<u32> = (0..data.len() as u32).map(|i| i * 3 + 11).collect();
        let c = SubCluster::build(partition, data, ids, &HnswParams::new(4, 16).seed(2)).unwrap();
        let back = SubCluster::from_bytes(&c.to_bytes()).unwrap();
        prop_assert_eq!(back.partition(), c.partition());
        prop_assert_eq!(back.global_ids(), c.global_ids());
        let q = vec![64.0f32; 8];
        prop_assert_eq!(back.search(&q, 3, 16), c.search(&q, 3, 16));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Snapshot subtraction is exact set difference for monotone
    /// histograms: for an arbitrary sample stream split at an
    /// arbitrary point, the window between the two snapshots accounts
    /// for exactly the samples after the split —
    /// `a.sub(b).count + b.count == a.count` (and the same for sums).
    /// The series recorder's windowed quantiles lean on this.
    #[test]
    fn histogram_snapshot_sub_is_exact_for_monotone_histograms(
        samples in prop::collection::vec(0u64..5_000_000, 1..120),
        split_at in any::<usize>(),
    ) {
        use dhnsw_repro::dhnsw::telemetry::Histogram;
        let split = split_at % (samples.len() + 1);
        let h = Histogram::default();
        for &s in &samples[..split] {
            h.observe_n(s, 1);
        }
        let b = h.snapshot();
        for &s in &samples[split..] {
            h.observe_n(s, 1);
        }
        let a = h.snapshot();
        let window = a - b;
        prop_assert_eq!(window.count() + b.count(), a.count());
        prop_assert_eq!(window.sum() + b.sum(), a.sum());
        prop_assert_eq!(window.count() as usize, samples.len() - split);
        // A window quantile never exceeds the lifetime maximum.
        if window.count() > 0 {
            prop_assert!(window.quantile(1.0) <= a.quantile(1.0));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End-to-end: for arbitrary clustered datasets the full d-HNSW stack
    /// answers with valid ids and reasonable hit quality on self-queries.
    #[test]
    fn store_self_queries_find_themselves(
        n in 100usize..400,
        seed in 0u64..1_000,
    ) {
        use dhnsw_repro::dhnsw::{DHnswConfig, SearchMode, VectorStore};
        use dhnsw_repro::vecsim::gen;
        let data = gen::sift_like(n, seed).unwrap();
        let store = VectorStore::build(data.clone(), &DHnswConfig::small()).unwrap();
        let node = store.connect(SearchMode::Full).unwrap();
        let mut hits = 0;
        let total = 10.min(n);
        for i in 0..total {
            let out = node.query(data.get(i * (n / total)), 1, 32).unwrap();
            prop_assert!(!out.is_empty());
            prop_assert!((out[0].id as usize) < n);
            if out[0].dist == 0.0 {
                hits += 1;
            }
        }
        prop_assert!(hits * 2 >= total, "only {hits}/{total} self-queries hit");
    }
}
