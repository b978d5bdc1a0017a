//! The write path: inserts and deletes are overflow records, and every
//! record reaches remote memory through one protocol, [`ComputeNode::commit`]
//! (DESIGN.md §5d tabulates its verbs and what a crash at each leaves).

use std::collections::BTreeMap;

use rdma_sim::WriteReq;
use vecsim::Dataset;

use super::ComputeNode;
use crate::cluster::OverflowRecord;
use crate::layout::ID_COUNTER_OFFSET;
use crate::telemetry::Counter;
use crate::{Error, Result};

impl ComputeNode {
    /// Inserts a vector: classify via the cached meta-HNSW, allocate a
    /// global id (`FAA` on the directory's id counter), reserve a slot in
    /// the target group's shared overflow area (`FAA` on its `used`
    /// counter), `RDMA_WRITE` the record (commit marker last), and `FAA`
    /// the partition's version slot to publish the mutation — four
    /// one-sided verbs, no memory-node CPU involvement: an
    /// [`insert_batch`](ComputeNode::insert_batch) of one. The local
    /// cached copy of the affected cluster is invalidated so the next load
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
        let mut results = self.insert_rows(&[v])?;
        results.pop().expect("one result per vector")
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
        self.insert_rows(&vectors.iter().collect::<Vec<_>>())
    }

    /// Classifies every row, takes the rows' ids with one `FAA` on the id
    /// counter and commits one insert record per row.
    fn insert_rows(&self, rows: &[&[f32]]) -> Result<Vec<Result<u32>>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let partitions = rows.iter().map(|v| self.partition_of(v)).collect::<Result<Vec<u32>>>()?;
        let id_base = self.qp.faa(self.rkey, ID_COUNTER_OFFSET, rows.len() as u64)?;
        let records = (partitions.into_iter().zip(rows).enumerate())
            .map(|(i, (p, v))| OverflowRecord::insert(p, (id_base + i as u64) as u32, v.to_vec()))
            .collect();
        let results = self.commit(records, &self.metrics.inserts)?;
        let refused = results.iter().filter(|r| r.is_err()).count();
        self.metrics.insert_overflow.add(refused as u64);
        Ok(results)
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
        let tombstone = OverflowRecord::tombstone(self.partition_of(v)?, global_id, v.len());
        let mut results = self.commit(vec![tombstone], &self.metrics.deletes)?;
        results.pop().expect("one result per record").map(drop)
    }

    /// The partition a vector is written to: where the meta-HNSW routes
    /// it with the beam queries use, so they reach what was written.
    fn partition_of(&self, v: &[f32]) -> Result<u32> {
        if v.len() != self.directory.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.directory.dim(),
                got: v.len(),
            });
        }
        self.meta.classify_with_beam(v, self.config.fanout())
    }

    /// The one write protocol, reserve → write → publish, for records
    /// whose partition and id are settled. Returns each record's id, or
    /// [`Error::OverflowFull`] for one its area had no slot for; a
    /// substrate error aborts the call where it stands. Every record that
    /// gets here is counted in `attempts`, whatever becomes of it.
    fn commit(&self, records: Vec<OverflowRecord>, attempts: &Counter) -> Result<Vec<Result<u32>>> {
        attempts.add(records.len() as u64);
        let outcome = self.reserve_write_publish(&records);
        self.flush_telemetry();
        outcome
    }

    fn reserve_write_publish(&self, records: &[OverflowRecord]) -> Result<Vec<Result<u32>>> {
        let record_size = self.directory.record_size() as u64;
        // Records by the overflow area they land in, areas in address
        // order (both partitions of a group share one area).
        let mut by_area: BTreeMap<u64, (u64, Vec<usize>)> = BTreeMap::new();
        for (i, r) in records.iter().enumerate() {
            let loc = self.directory.location(r.partition)?;
            let area = by_area.entry(loc.overflow_counter_off());
            area.or_insert((loc.overflow_capacity(), Vec::new())).1.push(i);
        }

        // Reserve: one FAA per area takes all its slots. Those past the
        // area's end are refused and given back at once, so the remote
        // counter keeps meaning "bytes handed out" — without that, health
        // checks could not tell a full area from a corrupt counter.
        let mut results: Vec<Result<u32>> = records.iter().map(|r| Ok(r.global_id)).collect();
        let mut writes = Vec::with_capacity(records.len());
        let mut mutated = Vec::with_capacity(records.len());
        for (area_off, (capacity, indices)) in by_area {
            let start = self.qp.faa(self.rkey, area_off, record_size * indices.len() as u64)?;
            let room = capacity.saturating_sub(start) / record_size;
            let (fit, refused) = indices.split_at(indices.len().min(room as usize));
            for (slot, &i) in fit.iter().enumerate() {
                let at = area_off + 8 + start + record_size * slot as u64;
                writes.push(WriteReq::new(self.rkey, at, records[i].to_bytes()));
                mutated.push(records[i].partition);
            }
            for &i in refused {
                let partition = records[i].partition;
                results[i] = Err(Error::OverflowFull { partition, capacity });
            }
            if !refused.is_empty() {
                let unused = record_size * refused.len() as u64;
                self.qp.faa(self.rkey, area_off, unused.wrapping_neg())?;
            }
        }
        mutated.sort_unstable();
        mutated.dedup();

        // Write: every accepted record in one doorbell, commit markers
        // last. From here the records are durable, so this node drops its
        // cached copies before anything else can fail: a writer must not
        // keep answering from a cluster a fresh node already reads
        // differently.
        self.qp.write_doorbell(&writes)?;
        {
            let mut cache = self.cache.lock();
            for &p in &mutated {
                cache.invalidate(p);
            }
        }
        // Publish: one version FAA per mutated partition, *after* its
        // records are fully written — readers that observe the new
        // version are guaranteed to decode committed records, and readers
        // that raced the write see an uncommitted slot and skip it.
        for &p in &mutated {
            self.qp.faa(self.rkey, self.directory.version_slot_off(p)?, 1)?;
        }
        Ok(results)
    }
}
