//! Dynamic insertion workload (§3.2's overflow design in action): stream
//! vectors into a live store, watch the shared overflow areas fill, and
//! verify that every insert stays one contiguous read away.
//!
//! ```text
//! cargo run --release --example dynamic_inserts
//! ```

use dhnsw_repro::dhnsw::{DHnswConfig, Error, SearchMode, VectorStore};
use dhnsw_repro::vecsim::gen;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = gen::sift_like(8_000, 21)?;
    let config = DHnswConfig::paper()
        .with_representatives(100)
        .with_overflow_slots(64); // 64 insert records per group
    let store = VectorStore::build(data.clone(), &config)?;
    let node = store.connect(SearchMode::Full)?;
    println!(
        "store: {} partitions in {} groups, {} overflow slots/group",
        store.partitions(),
        store.partitions().div_ceil(2),
        config.overflow_slots()
    );

    // Stream inserts: new vectors near existing data (the realistic case
    // — embeddings of new items from the same distribution).
    let stream = gen::perturbed_queries(&data, 600, 0.02, 22)?;
    let mut accepted = 0usize;
    let mut rejected_full = 0usize;
    let mut verify_hits = 0usize;

    node.reset_measurements();
    for (i, v) in stream.iter().enumerate() {
        match node.insert(v) {
            Ok(gid) => {
                accepted += 1;
                // Spot-check visibility: every 50th insert, immediately
                // query it back.
                if i % 50 == 0 {
                    let hit = node.query(v, 1, 32)?;
                    if hit[0].id == gid {
                        verify_hits += 1;
                    }
                }
            }
            Err(Error::OverflowFull { .. }) => rejected_full += 1,
            Err(e) => return Err(e.into()),
        }
    }
    let stats = node.queue_pair().stats().snapshot();
    println!(
        "stream of {}: {} accepted, {} rejected (overflow full), {}/{} spot checks found",
        stream.len(),
        accepted,
        rejected_full,
        verify_hits,
        stream.len() / 50 + 1
    );
    println!(
        "insert traffic: {} round trips total ({:.1} per insert), {} remote atomics, {:.1} KB written",
        stats.round_trips,
        stats.round_trips as f64 / stream.len() as f64,
        stats.atomics,
        stats.bytes_written as f64 / 1e3
    );

    // Reads after inserts are still single-span: load a cluster that
    // received inserts and confirm the read count.
    node.drop_cache();
    node.reset_measurements();
    let probe = stream.get(0);
    let _ = node.query(probe, 5, 32)?;
    let s = node.queue_pair().stats().snapshot();
    println!(
        "post-insert query: {} round trips for {} clusters (insert data travels with its cluster)",
        s.round_trips,
        store.config().fanout()
    );

    // Capacity accounting: how full are the overflow areas?
    let dir = store.directory();
    let record = dir.record_size() as u64;
    let qp =
        dhnsw_repro::rdma_sim::QueuePair::connect(store.memory_node(), store.config().network());
    let mut used_total = 0u64;
    let mut seen = std::collections::HashSet::new();
    let mut full_groups = 0usize;
    for loc in dir.locations() {
        if !seen.insert(loc.overflow_off) {
            continue;
        }
        let used_bytes = qp.read(store.region().rkey(), loc.overflow_counter_off(), 8)?;
        let used = u64::from_le_bytes(used_bytes.try_into().unwrap());
        let slots_used = (used / record).min(config.overflow_slots() as u64);
        used_total += slots_used;
        if used >= loc.overflow_capacity() {
            full_groups += 1;
        }
    }
    println!(
        "overflow occupancy: {} records across {} groups ({} groups saturated)",
        used_total,
        seen.len(),
        full_groups
    );
    println!(
        "note: saturated groups reject further inserts until a re-layout; \
         the paper defers re-layout to rebuild time — demonstrated below"
    );

    // Deletes use the same overflow path: a tombstone record.
    let gone = node.query(data.get(7), 1, 32)?;
    node.delete(data.get(7), gone[0].id)?;
    let after_delete = node.query(data.get(7), 1, 32)?;
    println!(
        "delete: tombstoned id {} via one FAA + one WRITE; nearest is now id {} (dist {:.3})",
        gone[0].id, after_delete[0].id, after_delete[0].dist
    );

    // Rebuild: fold every overflow record into the base clusters and
    // re-plan the layout with fresh overflow space.
    let rebuilt = store.rebuild()?;
    println!(
        "rebuild: {} base vectors (was {}), epoch {} -> {}, {:.1} MB remote",
        rebuilt.base_len(),
        store.base_len(),
        store.directory().epoch(),
        rebuilt.directory().epoch(),
        rebuilt.remote_bytes() as f64 / 1e6
    );
    let fresh = rebuilt.connect(SearchMode::Full)?;
    let check = fresh.query(stream.get(0), 1, 32)?;
    println!(
        "rebuilt store still finds insert #0 at distance {:.3} (id {})",
        check[0].dist, check[0].id
    );
    Ok(())
}
