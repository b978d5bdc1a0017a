//! The write path: inserts and deletes are overflow records, and every
//! record reaches remote memory through one protocol, [`ComputeNode::commit`]
//! (DESIGN.md §5d tabulates its two doorbells and what a cut at each work
//! request leaves).

use std::collections::BTreeMap;

use rdma_sim::WriteReq;
use vecsim::Dataset;

use super::ComputeNode;
use crate::cluster::OverflowRecord;
use crate::layout::{ClusterLocation, ID_COUNTER_OFFSET};
use crate::telemetry::Counter;
use crate::{Error, Result};

impl ComputeNode {
    /// Inserts a vector: classify via the cached meta-HNSW, then two
    /// doorbells. The first allocates a global id (`FAA` on the
    /// directory's id counter) and reserves a slot in the target group's
    /// shared overflow area (`FAA` on its `used` counter); the second
    /// `RDMA_WRITE`s the record (commit marker last) and, behind it, `FAA`s
    /// the partition's version slot to publish the mutation — two round
    /// trips, three atomics, no memory-node CPU involvement: an
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
    /// loading. For `n` vectors it costs `ceil((1 + G) / doorbell_limit) +
    /// ceil((n + R + P) / doorbell_limit)` round trips — two below the
    /// limit. One doorbell carries the `FAA` that allocates the whole id
    /// range and one `FAA` per overflow area touched (`G`), reserving all
    /// its slots at once; the next a give-back `FAA` per area that ran out
    /// of room (`R`), every record's `RDMA_WRITE` and, behind them, one
    /// version `FAA` per partition mutated (`P`).
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

    /// Classifies every row and commits one insert record per row.
    fn insert_rows(&self, rows: &[&[f32]]) -> Result<Vec<Result<u32>>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let partitions = rows
            .iter()
            .map(|v| self.partition_of(v))
            .collect::<Result<Vec<u32>>>()?;
        let records = (partitions.into_iter().zip(rows))
            .map(|(p, v)| OverflowRecord::insert(p, 0, v.to_vec()))
            .collect();
        let results = self.commit(records, &self.metrics.inserts)?;
        let refused = results.iter().filter(|r| r.is_err()).count();
        self.metrics.insert_overflow.add(refused as u64);
        Ok(results)
    }

    /// Deletes a vector by writing a tombstone record into its group's
    /// shared overflow area — the same commit discipline as an insert
    /// (slot `FAA`, then tombstone `WRITE` + version `FAA`: two round
    /// trips), no re-layout required. `v` must be the
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
    /// whose partition is settled: an insert takes its id from the id
    /// counter, a tombstone names its own. Returns each record's id, or
    /// [`Error::OverflowFull`] for one its area had no slot for; a
    /// substrate error aborts the call where it stands. Every record that
    /// gets here is counted in `attempts` before the first doorbell is
    /// posted, whatever becomes of it.
    fn commit(&self, records: Vec<OverflowRecord>, attempts: &Counter) -> Result<Vec<Result<u32>>> {
        attempts.add(records.len() as u64);
        let outcome = self.reserve_write_publish(records);
        self.flush_telemetry();
        outcome
    }

    fn reserve_write_publish(&self, mut records: Vec<OverflowRecord>) -> Result<Vec<Result<u32>>> {
        let (rkey, record_size) = (self.rkey, self.directory.record_size() as u64);
        // Records by the overflow area they land in, areas in address
        // order (both partitions of a group share one area).
        let mut by_area: BTreeMap<u64, (ClusterLocation, Vec<usize>)> = BTreeMap::new();
        for (i, r) in records.iter().enumerate() {
            let loc = *self.directory.location(r.partition)?;
            let area = by_area.entry(loc.overflow_counter_off());
            area.or_insert((loc, Vec::new())).1.push(i);
        }

        // Doorbell 1, reserve: one FAA on the id counter for all inserts
        // and one per area taking all its slots — every answer a record's
        // address depends on, known before anything is sent.
        let inserts = records.iter().filter(|r| !r.tombstone).count() as u64;
        let ids = (inserts > 0).then_some(WriteReq::Faa(rkey, ID_COUNTER_OFFSET, inserts));
        let slots = by_area.iter().map(|(&area_off, (_, indices))| {
            WriteReq::Faa(rkey, area_off, record_size * indices.len() as u64)
        });
        let reserve: Vec<WriteReq> = ids.into_iter().chain(slots).collect();
        let mut answers = self.qp.doorbell(&reserve)?.into_iter();
        if inserts > 0 {
            let id_base = answers.next().expect("the id FAA answers first");
            for (i, r) in records.iter_mut().filter(|r| !r.tombstone).enumerate() {
                r.global_id = (id_base + i as u64) as u32;
            }
        }

        // Doorbell 2: the refused records' bytes given back first, so the
        // counter means "bytes handed out" again at the head of the post
        // (else health checks could not tell a full area from a corrupt
        // counter); every record that fits; then one version FAA per
        // mutated partition *behind* the writes it publishes — a queue
        // pair executes a post in order, so a reader that sees the new
        // version decodes committed records, and one that raced the write
        // skips the uncommitted slot.
        let mut results: Vec<Result<u32>> = records.iter().map(|r| Ok(r.global_id)).collect();
        let (mut post, mut writes, mut mutated) = (Vec::new(), Vec::new(), Vec::new());
        for ((area_off, (loc, indices)), start) in by_area.into_iter().zip(answers) {
            let capacity = loc.overflow_capacity();
            let room = capacity.saturating_sub(start) / record_size;
            let (fit, refused) = indices.split_at(indices.len().min(room as usize));
            for (slot, &i) in fit.iter().enumerate() {
                let at = loc.overflow_record_off(start + record_size * slot as u64);
                writes.push(WriteReq::new(rkey, at, records[i].to_bytes()));
                mutated.push(records[i].partition);
            }
            for &i in refused {
                let partition = records[i].partition;
                results[i] = Err(Error::OverflowFull {
                    partition,
                    capacity,
                });
            }
            if !refused.is_empty() {
                let unused = record_size * refused.len() as u64;
                post.push(WriteReq::Faa(rkey, area_off, unused.wrapping_neg()));
            }
        }
        mutated.sort_unstable();
        mutated.dedup();
        post.append(&mut writes);
        for &p in &mutated {
            post.push(WriteReq::Faa(rkey, self.directory.version_slot_off(p)?, 1));
        }
        // Posted, records may be durable even if the post fails (a cut
        // executes a prefix), so the cached copies go either way: a writer
        // must not answer from a cluster a fresh node reads differently.
        let published = self.qp.doorbell(&post);
        let mut cache = self.cache.lock();
        for &p in &mutated {
            cache.invalidate(p);
        }
        published?;
        Ok(results)
    }
}
