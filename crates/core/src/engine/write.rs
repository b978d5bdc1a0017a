//! The write path: inserts and deletes through the shared overflow
//! areas, published by a version-slot `FAA`.

use std::collections::HashMap;

use vecsim::Dataset;

use super::ComputeNode;
use crate::cluster::OverflowRecord;
use crate::layout::ID_COUNTER_OFFSET;
use crate::{Error, Result};

impl ComputeNode {
    /// Inserts a vector: classify via the cached meta-HNSW, allocate a
    /// global id (`FAA` on the directory's id counter), reserve a slot in
    /// the target group's shared overflow area (`FAA` on its `used`
    /// counter), `RDMA_WRITE` the record (commit marker last), and `FAA`
    /// the partition's version slot to publish the mutation — four
    /// one-sided verbs, no memory-node CPU involvement. The local cached
    /// copy of the affected cluster is invalidated so the next load
    /// observes the insert; remote caches observe the version bump.
    ///
    /// Returns the assigned global id.
    ///
    /// # Errors
    ///
    /// - [`Error::DimensionMismatch`] for a wrong-length vector.
    /// - [`Error::OverflowFull`] when the group's overflow area is
    ///   exhausted (the reserved id is burned; re-laying-out the group is
    ///   a rebuild-time operation, as in the paper).
    pub fn insert(&self, v: &[f32]) -> Result<u32> {
        let result = self.insert_impl(v);
        self.metrics.inserts.inc();
        if matches!(result, Err(Error::OverflowFull { .. })) {
            self.metrics.insert_overflow.inc();
        }
        self.flush_telemetry();
        result
    }

    fn insert_impl(&self, v: &[f32]) -> Result<u32> {
        if v.len() != self.directory.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.directory.dim(),
                got: v.len(),
            });
        }
        let partition = self.meta.classify_with_beam(v, self.config.fanout())?;
        let loc = *self.directory.location(partition)?;
        let record_size = self.directory.record_size() as u64;

        let global_id = self.qp.faa(self.rkey, ID_COUNTER_OFFSET, 1)? as u32;
        let used = self
            .qp
            .faa(self.rkey, loc.overflow_counter_off(), record_size)?;
        if used + record_size > loc.overflow_capacity() {
            // Give the reservation back so the remote counter keeps
            // meaning "bytes handed out": without this, health checks
            // could not tell a full area from a corrupt counter.
            self.qp
                .faa(self.rkey, loc.overflow_counter_off(), record_size.wrapping_neg())?;
            return Err(Error::OverflowFull {
                partition,
                capacity: loc.overflow_capacity(),
            });
        }
        let record = OverflowRecord::insert(partition, global_id, v.to_vec());
        self.qp
            .write(self.rkey, loc.overflow_off + 8 + used, &record.to_bytes())?;
        // Publish the mutation *after* the record (with its commit
        // marker) is fully written: readers that observe the new version
        // are guaranteed to decode a committed record, and readers that
        // raced the write see an uncommitted slot and skip it.
        self.bump_version(partition)?;
        self.cache.lock().invalidate(partition);
        Ok(global_id)
    }

    /// FAAs a partition's directory version slot after a committed
    /// mutation.
    fn bump_version(&self, partition: u32) -> Result<()> {
        self.qp
            .faa(self.rkey, self.directory.version_slot_off(partition)?, 1)?;
        Ok(())
    }

    /// Batched insertion: the write-path analogue of query-aware batched
    /// loading. For `n` vectors the single-insert path costs `4n` round
    /// trips; this path costs `1 + G + ceil(n / doorbell_limit) + P`
    /// where `G` is the number of distinct overflow areas touched and `P`
    /// the distinct partitions mutated — one `FAA` allocates the whole id
    /// range, one `FAA` per group reserves all of that group's slots at
    /// once, every record travels in one doorbell-batched `RDMA_WRITE`,
    /// and one version `FAA` per partition publishes the batch.
    ///
    /// Returns one entry per input vector, aligned by position:
    /// `Ok(global_id)` or [`Error::OverflowFull`] for vectors whose group
    /// ran out of overflow space (their reserved ids are burned, exactly
    /// as on the single-insert path).
    ///
    /// # Errors
    ///
    /// Whole-batch failures — [`Error::DimensionMismatch`] or a substrate
    /// error — abort the call; per-vector overflow exhaustion is reported
    /// in the returned vector instead.
    pub fn insert_batch(&self, vectors: &Dataset) -> Result<Vec<Result<u32>>> {
        let results = self.insert_batch_impl(vectors)?;
        self.metrics.inserts.add(results.len() as u64);
        let overflowed = results
            .iter()
            .filter(|r| matches!(r, Err(Error::OverflowFull { .. })))
            .count() as u64;
        self.metrics.insert_overflow.add(overflowed);
        self.flush_telemetry();
        Ok(results)
    }

    fn insert_batch_impl(&self, vectors: &Dataset) -> Result<Vec<Result<u32>>> {
        if vectors.is_empty() {
            return Ok(Vec::new());
        }
        if vectors.dim() != self.directory.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.directory.dim(),
                got: vectors.dim(),
            });
        }
        let n = vectors.len();
        let record_size = self.directory.record_size() as u64;

        // Classify everything (local meta-HNSW compute) and group the
        // inserts by the overflow area they land in.
        let mut partitions = Vec::with_capacity(n);
        let mut by_area: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, v) in vectors.iter().enumerate() {
            let p = self.meta.classify_with_beam(v, self.config.fanout())?;
            let loc = self.directory.location(p)?;
            partitions.push(p);
            by_area.entry(loc.overflow_counter_off()).or_default().push(i);
        }

        // One FAA allocates the whole id range.
        let id_base = self.qp.faa(self.rkey, ID_COUNTER_OFFSET, n as u64)?;

        // One FAA per touched overflow area reserves all its slots.
        let mut results: Vec<Option<Result<u32>>> = (0..n).map(|_| None).collect();
        let mut writes = Vec::with_capacity(n);
        let mut touched_partitions = Vec::new();
        let mut areas: Vec<(&u64, &Vec<usize>)> = by_area.iter().collect();
        areas.sort_by_key(|(off, _)| **off); // deterministic order
        for (&area_off, indices) in areas {
            let want = record_size * indices.len() as u64;
            let start = self.qp.faa(self.rkey, area_off, want)?;
            // Representative location for capacity checks (all partners
            // of a group share the same overflow geometry).
            let loc = *self.directory.location(partitions[indices[0]])?;
            let mut rejected = 0u64;
            for (slot, &i) in indices.iter().enumerate() {
                let off = start + record_size * slot as u64;
                let global_id = (id_base + i as u64) as u32;
                if off + record_size > loc.overflow_capacity() {
                    rejected += record_size;
                    results[i] = Some(Err(Error::OverflowFull {
                        partition: partitions[i],
                        capacity: loc.overflow_capacity(),
                    }));
                    continue;
                }
                let record =
                    OverflowRecord::insert(partitions[i], global_id, vectors.get(i).to_vec());
                writes.push(rdma_sim::WriteReq::new(
                    self.rkey,
                    area_off + 8 + off,
                    record.to_bytes(),
                ));
                touched_partitions.push(partitions[i]);
                results[i] = Some(Ok(global_id));
            }
            // Return the over-reservation so the counter tracks bytes
            // actually handed out (see the single-insert path).
            if rejected > 0 {
                self.qp.faa(self.rkey, area_off, rejected.wrapping_neg())?;
            }
        }

        // All accepted records in one doorbell, then one version bump
        // per mutated partition — after the commit markers are in place.
        self.qp.write_doorbell(&writes)?;
        touched_partitions.sort_unstable();
        touched_partitions.dedup();
        for &p in &touched_partitions {
            self.bump_version(p)?;
        }
        {
            let mut cache = self.cache.lock();
            for p in touched_partitions {
                cache.invalidate(p);
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every input index is resolved"))
            .collect())
    }

    /// Deletes a vector by writing a tombstone record into its group's
    /// shared overflow area — the same commit discipline as an insert
    /// (slot `FAA` + record `WRITE` + version `FAA`), no re-layout
    /// required. `v` must be the
    /// deleted vector's value: the meta-HNSW classifies it to the
    /// partition that holds it, exactly as the insert path placed it.
    /// The deletion becomes durable immediately and permanent at the next
    /// [`crate::VectorStore::rebuild`].
    ///
    /// # Errors
    ///
    /// - [`Error::DimensionMismatch`] for a wrong-length vector.
    /// - [`Error::OverflowFull`] when the group's overflow area has no
    ///   slot left for the tombstone.
    pub fn delete(&self, v: &[f32], global_id: u32) -> Result<()> {
        let result = self.delete_impl(v, global_id);
        self.metrics.deletes.inc();
        self.flush_telemetry();
        result
    }

    fn delete_impl(&self, v: &[f32], global_id: u32) -> Result<()> {
        if v.len() != self.directory.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.directory.dim(),
                got: v.len(),
            });
        }
        let partition = self.meta.classify_with_beam(v, self.config.fanout())?;
        let loc = *self.directory.location(partition)?;
        let record_size = self.directory.record_size() as u64;
        let used = self
            .qp
            .faa(self.rkey, loc.overflow_counter_off(), record_size)?;
        if used + record_size > loc.overflow_capacity() {
            self.qp
                .faa(self.rkey, loc.overflow_counter_off(), record_size.wrapping_neg())?;
            return Err(Error::OverflowFull {
                partition,
                capacity: loc.overflow_capacity(),
            });
        }
        let record = OverflowRecord::tombstone(partition, global_id, self.directory.dim());
        self.qp
            .write(self.rkey, loc.overflow_off + 8 + used, &record.to_bytes())?;
        self.bump_version(partition)?;
        self.cache.lock().invalidate(partition);
        Ok(())
    }
}
