//! Building the remote store: partitioning, cluster construction, and
//! placement into registered memory.

use std::sync::Arc;

use rdma_sim::{MemoryNode, QueuePair, RegionHandle, WriteReq};
use vecsim::Dataset;

use crate::cluster::{SqCluster, SubCluster};
use crate::config::QuantizeMode;
use crate::engine::{run_indexed, ComputeNode, SearchMode};
use crate::layout::Directory;
use crate::loader::plan_load;
use crate::meta::MetaIndex;
use crate::telemetry::Telemetry;
use crate::{DHnswConfig, Error, Result};

/// A fully built d-HNSW store: the memory-pool side plus the shared
/// artifacts every compute node caches (meta-HNSW, directory).
///
/// Build once with [`VectorStore::build`], then open any number of
/// compute-side sessions with [`VectorStore::connect`] — each gets its
/// own queue pair, virtual clock, and LRU cluster cache, like the
/// independent compute instances of the paper's testbed.
///
/// # Example
///
/// ```rust
/// use dhnsw::{DHnswConfig, SearchMode, VectorStore};
/// use vecsim::gen;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = gen::sift_like(1_000, 11)?;
/// let store = VectorStore::build(data, &DHnswConfig::small())?;
/// assert_eq!(store.partitions(), 32);
/// let node = store.connect(SearchMode::Full)?;
/// let q = vec![100.0; 128];
/// let hits = node.query(&q, 5, 32)?;
/// assert_eq!(hits.len(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct VectorStore {
    config: DHnswConfig,
    node: Arc<MemoryNode>,
    region: RegionHandle,
    meta: Arc<MetaIndex>,
    directory: Arc<Directory>,
    base_len: usize,
    partition_sizes: Vec<usize>,
}

impl VectorStore {
    /// Builds the store: samples representatives, partitions `data` via
    /// the meta-HNSW classifier, constructs one sub-HNSW per partition
    /// (in parallel), plans the grouped layout, and writes everything
    /// into a freshly registered remote region.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on an invalid configuration or
    /// an empty dataset, plus any substrate error.
    pub fn build(data: Dataset, config: &DHnswConfig) -> Result<Self> {
        let ids: Vec<u32> = (0..data.len() as u32).collect();
        Self::build_inner(data, ids, config, 0)
    }

    /// Shared implementation behind [`VectorStore::build`] and
    /// [`VectorStore::rebuild`]: `global_ids[row]` is the id of `data`'s
    /// `row`-th vector (fresh builds use the identity; rebuilds preserve
    /// the ids of compacted overflow inserts).
    fn build_inner(
        data: Dataset,
        global_ids: Vec<u32>,
        config: &DHnswConfig,
        epoch: u64,
    ) -> Result<Self> {
        let config = &config.for_build()?;
        if data.is_empty() {
            return Err(Error::InvalidParameter(
                "cannot build a store over an empty dataset".into(),
            ));
        }
        debug_assert_eq!(data.len(), global_ids.len());
        let meta = Arc::new(MetaIndex::build(&data, config)?);
        let parts = meta.partitions();

        // Classify every vector in parallel, routing with the same beam
        // width queries use so a vector's home partition is always on its
        // own query route.
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        let assignments = run_indexed(0..data.len(), threads, |i| {
            meta.classify_with_beam(data.get(i), config.fanout())
        })?;
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); parts];
        for (i, &p) in assignments.iter().enumerate() {
            members[p as usize].push(i as u32);
        }
        // Greedy routing can in principle leave a partition empty; its
        // representative is guaranteed to belong there, so force it in.
        for (p, m) in members.iter_mut().enumerate() {
            if m.is_empty() {
                m.push(meta.sample_ids()[p]);
            }
        }

        // Build and serialize every sub-HNSW in parallel, one partition per
        // claim (plus, when quantization is on, its SQ8 copy).
        let quantize = config.quantize_mode() != QuantizeMode::Off;
        let blobs = run_indexed(members.iter().enumerate(), threads, |(p, rows)| {
            let vectors = data.select(rows);
            let gids: Vec<u32> = rows.iter().map(|&r| global_ids[r as usize]).collect();
            let sq = quantize
                .then(|| SqCluster::build(p as u32, &vectors, gids.clone()))
                .transpose()?;
            let sub = SubCluster::build(p as u32, vectors, gids, &config.sub_params())?;
            Ok((sub.to_bytes(), sq.map(|c| c.to_bytes())))
        })?;
        let partition_sizes: Vec<usize> = members.iter().map(Vec::len).collect();
        let sizes: Vec<u64> = blobs.iter().map(|(b, _)| b.len() as u64).collect();

        let mut directory = if quantize {
            let sq_sizes: Vec<u64> = blobs
                .iter()
                .map(|(_, s)| s.as_ref().expect("quantized build emits sq blobs").len() as u64)
                .collect();
            Directory::plan_with_sq(&sizes, &sq_sizes, data.dim(), config.overflow_slots())?
        } else {
            Directory::plan(&sizes, data.dim(), config.overflow_slots())?
        };
        directory.set_next_id(
            global_ids
                .iter()
                .map(|&g| u64::from(g) + 1)
                .max()
                .unwrap_or(0),
        );
        directory.set_epoch(epoch);

        // Register the region and place everything. Setup traffic flows
        // through a throwaway queue pair; its virtual time is not part of
        // any query measurement.
        let node = MemoryNode::new("memory-pool");
        let region = node.register(directory.total_len() as usize)?;
        let setup_qp = QueuePair::connect(&node, config.network());
        let mut writes = Vec::with_capacity(1 + 2 * blobs.len());
        writes.push(WriteReq::new(region.rkey(), 0, directory.to_bytes()));
        for (p, (blob, sq_blob)) in blobs.into_iter().enumerate() {
            let loc = directory.location(p as u32)?;
            writes.push(WriteReq::new(region.rkey(), loc.cluster_off, blob));
            if let Some(sq) = sq_blob {
                let (sq_off, _) = directory
                    .sq_span(p as u32)?
                    .expect("v3 plan carries an sq span per cluster");
                writes.push(WriteReq::new(region.rkey(), sq_off, sq));
            }
        }
        setup_qp.doorbell(&writes)?;

        Ok(VectorStore {
            config: config.clone(),
            node,
            region,
            meta,
            directory: Arc::new(directory),
            base_len: data.len(),
            partition_sizes,
        })
    }

    /// Reassembles a store from snapshot parts (see [`crate::snapshot`]).
    pub(crate) fn from_parts(
        config: DHnswConfig,
        node: Arc<MemoryNode>,
        region: RegionHandle,
        meta: Arc<MetaIndex>,
        directory: Arc<Directory>,
        base_len: usize,
        partition_sizes: Vec<usize>,
    ) -> Self {
        VectorStore {
            config,
            node,
            region,
            meta,
            directory,
            base_len,
            partition_sizes,
        }
    }

    /// Opens a compute-instance session in the given [`SearchMode`],
    /// reporting to the process-wide [`Telemetry::global`] registry.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors from fetching the remote directory.
    pub fn connect(&self, mode: SearchMode) -> Result<ComputeNode> {
        ComputeNode::connect(self, mode, Telemetry::global())
    }

    /// Opens a compute-instance session that reports to a specific
    /// [`Telemetry`] registry instead of the global one — useful for
    /// tests and for benchmarks that want isolated counters.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors from fetching the remote directory.
    pub fn connect_with_telemetry(
        &self,
        mode: SearchMode,
        telemetry: Arc<Telemetry>,
    ) -> Result<ComputeNode> {
        ComputeNode::connect(self, mode, telemetry)
    }

    /// Rebuilds the store from its current remote state, folding every
    /// overflow insert into the base clusters and re-planning the layout
    /// with empty overflow areas.
    ///
    /// This is the re-layout step §3.2 defers to rebuild time: saturated
    /// groups ([`Error::OverflowFull`]) become writable again, oversized
    /// clusters get right-sized slots, and the directory epoch is bumped
    /// so compute nodes can detect the new layout. Global ids are
    /// preserved — results on the new store name the same vectors.
    ///
    /// Returns a fresh store on a fresh memory node; the old store stays
    /// queryable until dropped (a real deployment would swap them behind
    /// the load balancer).
    ///
    /// # Errors
    ///
    /// Propagates substrate and corruption errors from reading the old
    /// remote state.
    pub fn rebuild(&self) -> Result<VectorStore> {
        let qp = QueuePair::connect(&self.node, self.config.network());
        let rkey = self.region.rkey();
        let mut pairs: Vec<(u32, Vec<f32>)> = Vec::with_capacity(self.base_len);
        let mut seen = std::collections::HashSet::new();
        let (dir, cause) = (&*self.directory, rdma_sim::ReadCause::OverflowScan);
        for loc in dir.locations() {
            let p = loc.partition;
            let round = plan_load(dir, rkey, p, QuantizeMode::Off, None, false, cause)?;
            let span = *round.expect("a first round reads").body();
            let buf = qp.read(rkey, span.offset, span.len)?;
            let (cluster_bytes, overflow) = loc.split(&buf)?;
            let loaded = crate::cluster::LoadedCluster::from_remote(cluster_bytes, overflow)?;
            for (local, &gid) in loaded.global_ids().iter().enumerate() {
                // Forced representatives live in two clusters; keep one.
                // Tombstoned ids are dropped for good — this is where a
                // delete becomes permanent.
                if !loaded.deleted().contains(&gid) && seen.insert(gid) {
                    let row = loaded.base_vector(local as u32);
                    pairs.push((gid, row.expect("one row per id").to_vec()));
                }
            }
            for rec in crate::cluster::parse_overflow(overflow, self.dim())? {
                if rec.partition == loc.partition
                    && !rec.tombstone
                    && !loaded.deleted().contains(&rec.global_id)
                    && seen.insert(rec.global_id)
                {
                    pairs.push((rec.global_id, rec.vector));
                }
            }
        }
        pairs.sort_by_key(|(gid, _)| *gid);
        let mut data = Dataset::with_capacity(self.dim(), pairs.len());
        let mut ids = Vec::with_capacity(pairs.len());
        for (gid, v) in pairs {
            data.push(&v)?;
            ids.push(gid);
        }
        Self::build_inner(data, ids, &self.config, self.directory.epoch() + 1)
    }

    /// The store configuration.
    pub fn config(&self) -> &DHnswConfig {
        &self.config
    }

    /// The memory-pool node.
    pub fn memory_node(&self) -> &Arc<MemoryNode> {
        &self.node
    }

    /// The registered region holding directory, clusters, and overflow.
    pub fn region(&self) -> RegionHandle {
        self.region
    }

    /// The shared meta-HNSW (cached by every compute node).
    pub fn meta(&self) -> &Arc<MetaIndex> {
        &self.meta
    }

    /// The layout directory as planned at build time.
    pub fn directory(&self) -> &Arc<Directory> {
        &self.directory
    }

    /// Number of partitions / sub-HNSW clusters.
    pub fn partitions(&self) -> usize {
        self.directory.partitions()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.directory.dim()
    }

    /// Vectors in the base build (excluding later inserts).
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Base vectors assigned to partition `p`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] for an out-of-range id.
    pub fn partition_size(&self, p: u32) -> Result<usize> {
        self.partition_sizes
            .get(p as usize)
            .copied()
            .ok_or(Error::UnknownPartition(p))
    }

    /// Vector counts for every partition (index == partition id), for
    /// build-time balance/skew analysis.
    pub fn partition_sizes(&self) -> &[usize] {
        &self.partition_sizes
    }

    /// Total remote bytes the store occupies (directory + clusters +
    /// overflow areas).
    pub fn remote_bytes(&self) -> u64 {
        self.directory.total_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::LoadedCluster;
    use vecsim::gen;

    fn small_store(n: usize) -> (Dataset, VectorStore) {
        let data = gen::sift_like(n, 21).unwrap();
        let store = VectorStore::build(data.clone(), &DHnswConfig::small()).unwrap();
        (data, store)
    }

    #[test]
    fn build_covers_every_vector_exactly_once_or_more() {
        let (data, store) = small_store(800);
        let total: usize = (0..store.partitions() as u32)
            .map(|p| store.partition_size(p).unwrap())
            .sum();
        // Forced representatives can duplicate a vector, never drop one.
        assert!(total >= data.len());
        assert_eq!(store.base_len(), data.len());
    }

    #[test]
    fn no_partition_is_empty() {
        let (_, store) = small_store(500);
        for p in 0..store.partitions() as u32 {
            assert!(store.partition_size(p).unwrap() > 0, "partition {p} empty");
        }
    }

    #[test]
    fn remote_region_matches_directory_plan() {
        let (_, store) = small_store(400);
        assert_eq!(
            store
                .memory_node()
                .region_len(store.region().rkey())
                .unwrap(),
            store.directory().total_len()
        );
        assert_eq!(store.remote_bytes(), store.directory().total_len());
    }

    #[test]
    fn remote_clusters_deserialize_and_search() {
        let (data, store) = small_store(400);
        let qp = QueuePair::connect(store.memory_node(), store.config().network());
        let dir = store.directory();
        for p in (0..store.partitions() as u32).step_by(5) {
            let loc = dir.location(p).unwrap();
            let (off, len) = loc.read_span();
            let buf = qp.read(store.region().rkey(), off, len).unwrap();
            let (cluster_bytes, overflow) = loc.split(&buf).unwrap();
            let loaded = LoadedCluster::from_remote(cluster_bytes, overflow).unwrap();
            assert_eq!(loaded.partition(), p);
            assert_eq!(loaded.overflow_len(), 0);
            assert_eq!(loaded.base_len(), store.partition_size(p).unwrap());
            // Every member vector finds itself, and is the row it maps to.
            let gid = loaded.global_ids()[0];
            assert_eq!(loaded.base_vector(0), Some(data.get(gid as usize)));
            let hit = loaded.search(data.get(gid as usize), 1, 8);
            assert_eq!(hit[0].dist, 0.0);
        }
    }

    #[test]
    fn remote_directory_matches_planned_directory() {
        let (_, store) = small_store(300);
        let qp = QueuePair::connect(store.memory_node(), store.config().network());
        let bytes = qp
            .read(
                store.region().rkey(),
                0,
                Directory::byte_size(store.partitions()) as u64,
            )
            .unwrap();
        let fetched = Directory::from_bytes(&bytes).unwrap();
        assert_eq!(&fetched, store.directory().as_ref());
        assert_eq!(fetched.next_id(), store.base_len() as u64);
    }

    #[test]
    fn quantized_build_places_sq_blobs_in_the_tail() {
        let data = gen::sift_like(400, 21).unwrap();
        let cfg = DHnswConfig::small().with_quantize_mode(QuantizeMode::Sq8);
        let store = VectorStore::build(data.clone(), &cfg).unwrap();
        let dir = store.directory();
        assert!(dir.has_sq_spans());
        assert_eq!(
            store
                .memory_node()
                .region_len(store.region().rkey())
                .unwrap(),
            dir.total_len()
        );
        let qp = QueuePair::connect(store.memory_node(), store.config().network());
        for p in (0..store.partitions() as u32).step_by(7) {
            let (off, len) = dir.sq_span(p).unwrap().unwrap();
            let buf = qp.read(store.region().rkey(), off, len).unwrap();
            let sq = SqCluster::from_bytes(&buf).unwrap();
            assert_eq!(sq.partition(), p);
            assert_eq!(sq.len(), store.partition_size(p).unwrap());
            // A member vector finds itself via the quantized scan.
            let gid = sq.global_ids()[0];
            let loaded = crate::cluster::LoadedCluster::from_remote_sq(&buf, None).unwrap();
            let hit = loaded.search_sq(data.get(gid as usize), 1);
            assert_eq!(hit[0].id, gid);
        }
        // The compressed copies cost well under half of the f32 regions.
        let sq_total = dir.sq_live_bytes();
        let cluster_total: u64 = dir.locations().iter().map(|l| l.cluster_len).sum();
        assert!(
            sq_total * 2 < cluster_total,
            "{sq_total} vs {cluster_total}"
        );
    }

    #[test]
    fn quantized_builds_are_deterministic() {
        let data = gen::sift_like(300, 33).unwrap();
        let cfg = DHnswConfig::small().with_quantize_mode(QuantizeMode::Sq8);
        let a = VectorStore::build(data.clone(), &cfg).unwrap();
        let b = VectorStore::build(data, &cfg).unwrap();
        assert_eq!(a.directory().as_ref(), b.directory().as_ref());
        assert!(image(&a) == image(&b), "the remote images differ");
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let data = Dataset::new(8);
        assert!(VectorStore::build(data, &DHnswConfig::small()).is_err());
    }

    #[test]
    fn builds_are_deterministic() {
        let data = gen::sift_like(300, 33).unwrap();
        let a = VectorStore::build(data.clone(), &DHnswConfig::small()).unwrap();
        let b = VectorStore::build(data, &DHnswConfig::small()).unwrap();
        assert_eq!(a.directory().as_ref(), b.directory().as_ref());
        assert_eq!(a.partition_sizes, b.partition_sizes);
        assert!(image(&a) == image(&b), "the remote images differ");
    }

    /// The whole remote image, every cluster blob included: a blob that
    /// depended on which worker built it would show here.
    fn image(store: &VectorStore) -> Vec<u8> {
        let mut bytes = Vec::new();
        crate::snapshot::write_snapshot(store, &mut bytes).unwrap();
        bytes
    }

    #[test]
    fn rebuild_without_inserts_preserves_content() {
        let (data, store) = small_store(400);
        let rebuilt = store.rebuild().unwrap();
        assert_eq!(rebuilt.base_len(), data.len());
        assert_eq!(rebuilt.directory().epoch(), 1);
        // Same answers through a fresh compute node.
        let q = data.get(7);
        let a = store
            .connect(crate::SearchMode::Full)
            .unwrap()
            .query(q, 5, 32)
            .unwrap();
        let b = rebuilt
            .connect(crate::SearchMode::Full)
            .unwrap()
            .query(q, 5, 32)
            .unwrap();
        assert_eq!(a[0].id, b[0].id);
        assert_eq!(a[0].dist, b[0].dist);
    }

    #[test]
    fn rebuild_folds_overflow_into_base_clusters() {
        use vecsim::gen as vgen;
        let (data, store) = small_store(300);
        let node = store.connect(crate::SearchMode::Full).unwrap();
        let inserts = vgen::perturbed_queries(&data, 12, 0.01, 99).unwrap();
        let mut gids = Vec::new();
        for v in inserts.iter() {
            gids.push(node.insert(v).unwrap());
        }
        let rebuilt = store.rebuild().unwrap();
        assert_eq!(rebuilt.base_len(), data.len() + 12);
        // Inserted ids survive the rebuild as base vectors.
        let fresh = rebuilt.connect(crate::SearchMode::Full).unwrap();
        for (i, v) in inserts.iter().enumerate() {
            let hit = fresh.query(v, 1, 32).unwrap();
            assert_eq!(hit[0].id, gids[i], "insert {i} lost by rebuild");
            assert_eq!(hit[0].dist, 0.0);
        }
        // Overflow areas are empty again: inserts into a previously
        // saturated group succeed on the rebuilt store.
        let again = fresh.insert(inserts.get(0)).unwrap();
        assert!(u64::from(again) >= rebuilt.base_len() as u64);
    }

    #[test]
    fn rebuild_makes_deletions_permanent() {
        let (data, store) = small_store(300);
        let node = store.connect(crate::SearchMode::Full).unwrap();
        let target = data.get(4).to_vec();
        let victim = node.query(&target, 1, 48).unwrap()[0].id;
        node.delete(&target, victim).unwrap();
        let rebuilt = store.rebuild().unwrap();
        assert_eq!(rebuilt.base_len(), data.len() - 1);
        let fresh = rebuilt.connect(crate::SearchMode::Full).unwrap();
        let after = fresh.query(&target, 5, 48).unwrap();
        assert!(after.iter().all(|n| n.id != victim));
    }

    #[test]
    fn rebuild_unclogs_a_saturated_group() {
        let data = vecsim::gen::sift_like(200, 55).unwrap();
        let cfg = DHnswConfig::small().with_overflow_slots(1);
        let store = VectorStore::build(data.clone(), &cfg).unwrap();
        let node = store.connect(crate::SearchMode::Full).unwrap();
        let v = data.get(0);
        node.insert(v).unwrap();
        assert!(matches!(
            node.insert(v).unwrap_err(),
            crate::Error::OverflowFull { .. }
        ));
        let rebuilt = store.rebuild().unwrap();
        let fresh = rebuilt.connect(crate::SearchMode::Full).unwrap();
        fresh.insert(v).unwrap();
    }

    #[test]
    fn unknown_partition_size_is_an_error() {
        let (_, store) = small_store(200);
        assert!(store.partition_size(10_000).is_err());
    }
}
