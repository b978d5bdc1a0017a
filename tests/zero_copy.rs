//! Zero-copy as a count, not a timing.
//!
//! A cold batch fetches every cluster it routes to. Each fetched span may
//! be held in host memory exactly once: the serialized cluster in the
//! buffer that stays resident as the `LoadedCluster`, the rest of the span
//! (the group's overflow area) in a scratch that is parsed and dropped.
//! Nothing is decoded into a second copy. A counting allocator makes that
//! a number: over one cold 128-query batch on a fresh node, the bytes
//! allocated in blocks of 4 KiB or more stay within 1.10 x the bytes the
//! batch read. (Before the loaded cluster became a view the same count
//! read 1.41 x on the full-precision wire here, where a cluster is a
//! third of its span: every span once as fetched, its cluster part again
//! as arena + vectors + ids. Now 1.07 x.)
//!
//! On the SQ8 wire a batch reads a fifth of the bytes, and the search's
//! own bookkeeping — the cluster-major hit buffer is `queries x fanout x
//! (k + rerank pool)` candidates in one block — is no longer small beside
//! them. So the bound is held on both wires *net of what the same batch
//! allocates warm*, when nothing is fetched and only the bookkeeping is
//! left; the gross figure is printed for both and asserted where clusters
//! dominate it, on the full-precision wire. (SQ8 net: 1.21 x before,
//! 0.81 x after — rerank rows are read in blocks too small to count.)
//! The rows a rerank fetched are then kept, once, in the node's
//! exact-row arena: one block this count sees since PR 23 (through PR 22
//! a thousand `Vec<f32>`s it did not), grown by exactly what arrives. So
//! on that wire the bound is 1.10 x the bytes read plus those rows once
//! more — 1.31 x against 1.58 x here, where they are 48 % of the bytes.
//!
//! The same allocator counts *calls* for the other half of the claim: the
//! sub-search allocates per worker, not per probe. A warm batch — nothing
//! fetched, every rerank row cached — is run at fan-out 2 and at fan-out 8,
//! four times the probes over the same queries; the extra probes may bring
//! one allocator call for every two of them at most. (Before the SQ8 scan
//! kept its collectors with the worker every probe built a heap: 768 more
//! probes cost 900 more calls on that wire; then 141, of which 128 were one
//! per *query*: a pool of 8 x 26 candidates outgrew the stack scratch of
//! the merge's stable sort, at fan-out 7. The merge selects now, in place:
//! 13, buffers doubling a few more times.) The full-precision wire is held to the same line on
//! the path it now takes here: every partition of this store is scanned
//! at the ef asked for (`cluster::scans`), so its probes are block scans
//! out of the worker's collectors too — 13 more calls for 768 more probes
//! (7 when every probe walked), the same bytes as before.
//!
//! One test function, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dhnsw_repro::dhnsw::cluster::scans;
use dhnsw_repro::dhnsw::{DHnswConfig, QuantizeMode, QueryOptions, SearchMode, VectorStore};
use dhnsw_repro::rdma_sim::ReadCause;
use dhnsw_repro::vecsim::gen;

/// Blocks at least this large are counted: every cluster-sized buffer is,
/// per-probe bookkeeping is not.
const BIG: usize = 4096;

/// The beam width every batch here asks for (the benchmark's).
const EF: usize = 48;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BIG_BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the two relaxed atomics beside it allocate
// nothing and touch no memory the allocator owns. `realloc` is left to the
// default (alloc + copy + dealloc), so a grown block counts at its new
// size.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
            if layout.size() >= BIG {
                BIG_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            }
        }
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_cold_batch_holds_each_fetched_byte_once() {
    let data = gen::sift_like(4_000, 31).unwrap();
    let queries = gen::perturbed_queries(&data, 128, 0.03, 32).unwrap();
    for wire in [QuantizeMode::Off, QuantizeMode::Sq8] {
        // The benchmark's overflow areas (256 slots, as large as a
        // cluster) on the test-sized graphs; everything cached, so what
        // was fetched is also what stays resident.
        let config = DHnswConfig::small()
            .with_overflow_slots(256)
            .with_cache_fraction(1.0)
            .with_quantize_mode(wire);
        let store = VectorStore::build(data.clone(), &config).unwrap();
        let largest = *store.partition_sizes().iter().max().unwrap();
        assert!(
            scans(largest, EF),
            "a partition of {largest} rows would be walked: the counts below are the scan's"
        );
        let node = store.connect(SearchMode::Full).unwrap();

        // One counted batch: (bytes in big blocks, allocator calls, report).
        let counted = |opts: &QueryOptions| {
            BIG_BYTES.store(0, Ordering::Relaxed);
            CALLS.store(0, Ordering::Relaxed);
            COUNTING.store(true, Ordering::Relaxed);
            let outcome = node.query_batch_opts(&queries, opts);
            COUNTING.store(false, Ordering::Relaxed);
            let (big, calls) = (
                BIG_BYTES.load(Ordering::Relaxed),
                CALLS.load(Ordering::Relaxed),
            );
            (big, calls, outcome.unwrap().1)
        };
        let routed = QueryOptions::new(10, EF);
        let (cold, _, report) = counted(&routed);
        let (warm, _, again) = counted(&routed);
        assert!(report.clusters_loaded >= 16, "the first batch must be cold");
        assert_eq!(
            (again.clusters_loaded, again.bytes_read),
            (0, 0),
            "and the second warm"
        );

        let read = report.bytes_read as f64;
        let (gross, net) = (cold as f64 / read, (cold - warm) as f64 / read);
        println!(
            "{wire:?}: {cold} bytes allocated in blocks >= {BIG} B for {} bytes read over {} clusters: \
             {gross:.3} x gross, {net:.3} x net of the {warm} the warm batch allocates",
            report.bytes_read, report.clusters_loaded
        );
        let arena = report.ledger.bytes_for(ReadCause::Rerank) as f64 / read;
        assert!(net <= 1.10 + arena, "{wire:?}: {net:.3} x net");
        assert!(
            wire != QuantizeMode::Off || gross <= 1.10,
            "{wire:?}: {gross:.3} x gross"
        );
        // And what stays resident is the serialized clusters alone: no
        // overflow area, no second form.
        let heat = node.heatmap().snapshot();
        let loaded = heat.iter().filter(|h| h.loads > 0).map(|h| h.partition);
        let serialized: u64 = loaded
            .map(|p| match wire {
                QuantizeMode::Off => store.directory().location(p).unwrap().cluster_len,
                QuantizeMode::Sq8 => store.directory().sq_span(p).unwrap().unwrap().1,
            })
            .sum();
        // Read off `/metrics`' cache gauges, which the batch's flush set.
        let prom = node.telemetry().render_prometheus();
        let gauge = |name: &str| -> u64 {
            let value = |l: &str| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok();
            prom.lines().find_map(value).expect(name)
        };
        let resident = gauge("dhnsw_cache_occupancy_clusters") as usize;
        assert_eq!(resident, report.clusters_loaded, "{wire:?}");
        assert_eq!(gauge("dhnsw_cache_resident_bytes"), serialized, "{wire:?}");

        // Allocator calls of a warm batch against its probe count.
        let calls_at = |fanout: usize| {
            let opts = routed.with_fanout(fanout);
            // Once uncounted: what this fan-out adds to the cluster cache
            // and to the rerank rows is resident afterwards.
            node.query_batch_opts(&queries, &opts).unwrap();
            let (_, calls, report) = counted(&opts);
            assert_eq!(
                (report.clusters_loaded, report.bytes_read),
                (0, 0),
                "{wire:?}"
            );
            (calls, report.raw_cluster_demand as u64)
        };
        let ((few_calls, few), (many_calls, many)) = (calls_at(2), calls_at(8));
        assert_eq!((few, many), (2 * 128, 8 * 128));
        let grown = many_calls.saturating_sub(few_calls);
        println!(
            "{wire:?}: a warm batch makes {few_calls} allocator calls for {few} probes and \
             {many_calls} for {many}: {grown} more for {} more probes",
            many - few
        );
        assert!(
            grown * 2 <= many - few,
            "{wire:?}: {grown} more allocator calls for {} more probes",
            many - few
        );
    }
}
