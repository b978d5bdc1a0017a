//! The batch body every [`SearchMode`](super::SearchMode) runs: route →
//! plan → fetch → materialize → probe → rerank → merge → report. The
//! modes differ only in [`SearchMode::reuses`](super::SearchMode::reuses),
//! which the plan and the loader consult, and in the doorbell limit the
//! node's queue pair is priced at.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use hnsw::SearchStats;
use rdma_sim::{ps_to_us, ReadCause, ReadReq};
use vecsim::{Dataset, Neighbor, SharedBound};

use super::fetch::{Fetch, Load, Reader};
use super::{run_indexed, ComputeNode, QueryOptions};
use crate::breakdown::{BatchReport, CostLedger, Phase};
use crate::cluster::{full_row_at, Candidate, LoadedCluster, ProbeScratch};
use crate::loader::plan_batch;
use crate::telemetry::span::{ArgValue, BatchTrace, SpanId};
use crate::{Error, Result};

/// One merged search candidate with the load it came from, so an exact
/// rerank can find the cluster (and through it the full-precision row)
/// behind `cand.local`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Pooled {
    pub(super) key: u32,
    pub(super) cand: Candidate,
}

/// Rows the node-level exact-vector cache may hold before it is cleared
/// wholesale; bounds rerank memory at ~`cap × dim × 4` bytes.
pub(super) const RERANK_CACHE_CAP: usize = 8_192;

/// The node-level exact-vector cache: the full-precision base rows
/// reranks fetched, back to back in one arena, and where each starts.
///
/// Lifetime rule: a row is only ever read in the critical section that
/// found it — a rerank pass settles a cached candidate's distance while it
/// plans, entry in hand, and a fetched one's as it admits the row — so the
/// wholesale clear in [`ExactRows::admit`] can never fall between a
/// decision that a row is cached and the read of it.
#[derive(Debug, Default)]
pub(super) struct ExactRows {
    at: HashMap<(u32, u32), usize>,
    rows: Vec<f32>,
}

impl ExactRows {
    fn get(&self, key: &(u32, u32), dim: usize) -> Option<&[f32]> {
        self.at.get(key).map(|&at| &self.rows[at..at + dim])
    }

    /// Adds the rows a rerank fetched, `dim` little-endian floats each,
    /// emptying the cache first if they would take it past the cap.
    pub(super) fn admit<'a>(
        &mut self,
        dim: usize,
        rows: impl ExactSizeIterator<Item = ((u32, u32), &'a [u8])>,
    ) {
        if self.rows.len() + rows.len() * dim > RERANK_CACHE_CAP * dim {
            self.at.clear();
            self.rows.clear();
        }
        // Grown by what arrives, never doubled; final after the first clear.
        self.rows.reserve_exact(rows.len() * dim);
        for (key, bytes) in rows {
            self.at.insert(key, self.rows.len());
            self.rows
                .extend(vecsim::io::le_words(bytes, f32::from_le_bytes));
        }
    }
}

impl ComputeNode {
    /// Answers a single query; convenience wrapper over
    /// [`ComputeNode::query_batch`].
    ///
    /// # Errors
    ///
    /// Same as [`ComputeNode::query_batch`].
    pub fn query(&self, query: &[f32], k: usize, ef: usize) -> Result<Vec<Neighbor>> {
        let batch = Dataset::from_rows(&[query])?;
        let (mut results, _) = self.query_batch(&batch, k, ef)?;
        Ok(results.pop().unwrap_or_default())
    }

    /// Answers a batch of queries: top-`k` per query with sub-HNSW beam
    /// width `ef` (see [`QueryOptions::ef`] for the clusters it does not
    /// apply to), plus the batch's [`BatchReport`].
    ///
    /// Results carry global vector ids (base ids `0..base_len`, then
    /// insert-allocated ids) sorted by ascending distance.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when the query batch has the
    /// wrong dimensionality, plus any substrate or corruption error.
    pub fn query_batch(
        &self,
        queries: &Dataset,
        k: usize,
        ef: usize,
    ) -> Result<(Vec<Vec<Neighbor>>, BatchReport)> {
        self.query_batch_opts(queries, &QueryOptions::new(k, ef))
    }

    /// Like [`ComputeNode::query_batch`], with per-call [`QueryOptions`]
    /// (notably a fan-out override).
    ///
    /// # Errors
    ///
    /// Same as [`ComputeNode::query_batch`].
    pub fn query_batch_opts(
        &self,
        queries: &Dataset,
        opts: &QueryOptions,
    ) -> Result<(Vec<Vec<Neighbor>>, BatchReport)> {
        if queries.is_empty() {
            return Ok((Vec::new(), BatchReport::default()));
        }
        if queries.dim() != self.directory.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.directory.dim(),
                got: queries.dim(),
            });
        }
        if opts.fanout == Some(0) {
            return Err(Error::InvalidParameter("fanout must be >= 1".into()));
        }
        if opts.ef == 0 {
            return Err(Error::InvalidParameter("ef must be >= 1".into()));
        }
        let b = opts.fanout.unwrap_or_else(|| self.config.fanout());
        // Span tracing: one root span per batch; the batch body hangs
        // stage spans off it. With the tracer off `begin` hands back a
        // handle that records nothing, but every span still times itself:
        // the spans are the batch's clocks.
        let trace = self.telemetry.spans().begin(self.mode.label());
        let root = trace.begin_span("query_batch", "engine", SpanId::NONE);
        let outcome = self.run_batch(queries, opts.k, opts.ef, b, &trace, root);
        // Release the batch's cache pins whether it succeeded or not —
        // leaked pins would exempt entries from LRU pressure forever.
        // Settling also evicts down to capacity if a fully-pinned cache
        // transiently oversubscribed, charging those evictions here.
        for v in self.cache.lock().settle() {
            self.heatmap.record_eviction(v);
        }
        let (results, mut report) = match outcome {
            Ok(pair) => pair,
            Err(e) => {
                trace.end_span_with(root, &[("error", ArgValue::Str("batch_failed"))]);
                self.telemetry.spans().finish(trace);
                return Err(e);
            }
        };
        report.total_us = trace.end_span(root) + report.breakdown.network_us;

        // Report: every view below is derived from the one record. A
        // captured span tree stays in the span ring (the folded profile
        // folds the ring on request); the exemplar store keeps the record.
        if trace.is_enabled() {
            trace.add_args(root, &report.span_args());
        }
        self.telemetry.spans().finish(trace);
        self.metrics.observe(&report);
        self.telemetry.exemplars().record(&report);
        self.flush_telemetry();
        Ok((results, report))
    }

    /// One batch under this node's mode. Under `reuses` the batch is one
    /// load round (§3.3): every cluster the plan must fetch goes out in
    /// one fetch, with the cached pins' version verifies riding it so a
    /// stale entry is demoted and reloaded before anything is searched;
    /// the loaded clusters are materialized into the cache, pinned, and
    /// then every query is probed. Every cluster crosses the network at
    /// most once per batch.
    ///
    /// Under `Naive` the plan is the identity: every `(query, route
    /// position)` is its own load, and the batch runs in stripes of
    /// `threads × 4` queries, each loaded, searched and dropped before the
    /// next — memory stays O(stripe × b × cluster) whatever the batch
    /// size — and nothing is cached.
    ///
    /// `breakdown.network_us` is the load rounds' virtual time plus the
    /// rerank's.
    #[allow(clippy::too_many_arguments)]
    fn run_batch(
        &self,
        queries: &Dataset,
        k: usize,
        ef: usize,
        b: usize,
        trace: &BatchTrace,
        root: SpanId,
    ) -> Result<(Vec<Vec<Neighbor>>, BatchReport)> {
        let reuse = self.mode.reuses();
        let mut report = BatchReport {
            trace_id: trace.seq(),
            mode: self.mode.label(),
            queries: queries.len(),
            k,
            ef,
            fanout: b,
            ..Default::default()
        };

        // 1. Meta-HNSW routing (cached index, pure compute).
        let s_meta = trace.begin_span(Phase::Meta.span(), "engine", root);
        let routes: Vec<Vec<u32>> = queries
            .iter()
            .map(|q| self.meta.route(q, b).iter().map(|n| n.id).collect())
            .collect();
        report.breakdown.meta_hnsw_us =
            trace.end_span_with(s_meta, &[("fanout", ArgValue::U64(b as u64))]);

        // Heatmap sampling: relaxed counter bumps only — nothing here
        // allocates or takes a lock.
        for route in &routes {
            for &p in route {
                self.heatmap.record_route(p);
            }
        }

        // 2. Load planning: query-aware dedup against current cache
        // residency. Without reuse nothing is resident and `unique` is
        // still the batch-wide union, so the metric is comparable across
        // modes (loads exceeding it measure exactly the reuse forgone).
        // The cached clusters are pinned under the same lock that found
        // them resident, so LRU pressure from the batch's own loads cannot
        // take them away mid-batch. Each hit is an instant under the
        // cluster-union span. Each pin remembers the version
        // the entry was loaded at; the verifies ride the load round, when
        // anything loads at all.
        let s_union = trace.begin_span("cluster_union", "engine", root);
        let mut resolved: HashMap<u32, Arc<LoadedCluster>> = HashMap::new();
        let mut verify: Vec<(u32, u64)> = Vec::new();
        let plan = {
            let mut cache = self.cache.lock();
            let plan = plan_batch(&routes, |p| reuse && cache.contains(p));
            for &p in &plan.cached {
                let version = cache.version_of(p).unwrap_or(0);
                let c = cache.get(p).expect("planned as resident under this lock");
                cache.pin(p);
                resolved.insert(p, c);
                self.heatmap.record_cache_hit(p);
                let cluster = ArgValue::U64(u64::from(p));
                trace.instant("cache_hit", "cache", s_union, &[("cluster", cluster)]);
                if !plan.to_load.is_empty() {
                    verify.push((p, version));
                }
            }
            plan
        };
        report.cache_hits = plan.cached.len();
        report.raw_cluster_demand = plan.raw_demand;
        report.unique_clusters = plan.unique.len();

        // Under reuse the batch is one stage, its one load round carrying
        // every planned load and the pin verifies. Without, the stages are
        // stripes of `threads × 4` queries, each loaded and searched
        // before the next.
        let threads = self.config.effective_search_threads();
        let chunk = if reuse {
            queries.len()
        } else {
            threads.max(1) * 4
        };
        let bounds: Vec<(usize, usize)> = (0..queries.len())
            .step_by(chunk)
            .map(|lo| (lo, (lo + chunk).min(queries.len())))
            .collect();
        // `keys[i][j]` names the load that serves query i's j-th route
        // entry: the partition itself, or the identity plan's counter.
        let (keys, staged): (Vec<Vec<u32>>, Vec<Vec<Load>>) = if reuse {
            let loads = plan.to_load.iter().map(|&p| Load::of(p)).collect();
            (routes, vec![loads])
        } else {
            let mut key = 0u32;
            let mut load = |&partition: &u32| {
                key += 1;
                (
                    key - 1,
                    Load {
                        key: key - 1,
                        partition,
                    },
                )
            };
            let loads = routes
                .iter()
                .map(|route| route.iter().map(&mut load).unzip());
            let (keys, loads): (Vec<Vec<u32>>, Vec<Vec<Load>>) = loads.unzip();
            let staged = bounds
                .iter()
                .map(|&(lo, hi)| loads[lo..hi].concat())
                .collect();
            (keys, staged)
        };

        trace.end_span_with(s_union, &plan.trace_args());
        let stats0 = self.qp.stats().snapshot();

        let mut failed = 0usize;
        // Per-query candidate pools: up to `k + slack` merged candidates,
        // the slack being what an exact rerank chooses from (only an SQ8
        // cluster's probe uses it; an exact pool ends at `k`).
        let slack = self.config.rerank_k().max(1);
        let mut pools: Vec<(Vec<Pooled>, f64)> = Vec::with_capacity(queries.len());

        for (i, (pending, &(lo, hi))) in staged.into_iter().zip(&bounds).enumerate() {
            // 3. Fetch the stage's loads, the pin verifies riding the
            // first.
            let pins = std::mem::take(&mut verify);
            let mut fetched = Vec::new();
            if !pending.is_empty() || !pins.is_empty() {
                let (got, vt) = self.load_stage(i, pending, pins, trace, root, &mut report)?;
                for p in &got.stale {
                    resolved.remove(p);
                }
                report.cache_hits -= got.stale.len();
                failed += got.failed.len();
                report.breakdown.network_us += ps_to_us(vt);
                fetched = got.stable;
            }

            // 4. Materialize the stage's loads (compute on loaded data)
            // and, under reuse, cache them, pinned, at the version they
            // were read.
            let s_mat = trace.begin_span(Phase::Materialize.span(), "engine", root);
            let loaded = self.materialize(fetched, threads)?;
            let loaded_n = loaded.len();
            {
                let mut cache = reuse.then(|| self.cache.lock());
                for (load, version, cluster) in loaded {
                    if let Some(cache) = cache.as_mut() {
                        let p = load.partition;
                        if let Some(victim) = cache.put(p, Arc::clone(&cluster), version) {
                            self.heatmap.record_eviction(victim);
                            let args = [
                                ("victim", ArgValue::U64(u64::from(victim))),
                                ("for", ArgValue::U64(u64::from(p))),
                            ];
                            trace.instant("cache_evict", "cache", s_mat, &args);
                        }
                        cache.pin(p);
                    }
                    resolved.insert(load.key, cluster);
                }
            }
            report.clusters_loaded += loaded_n;
            report.breakdown.materialize_us += trace.end_span_with(
                s_mat,
                &[
                    ("clusters", ArgValue::U64(loaded_n as u64)),
                    ("stage", ArgValue::U64(i as u64)),
                ],
            );

            // 5. Probe the stage's queries. Every cluster they route to
            // was loaded (or counted failed) above, so failures are known
            // before the search that must tolerate them.
            let s_search = trace.begin_span(Phase::Sub.span(), "engine", root);
            pools.extend(search_stage(
                &keys[lo..hi],
                queries,
                lo,
                &resolved,
                (k, slack, ef),
                threads,
                failed > 0,
            )?);
            if !reuse {
                resolved.clear();
            }
            report.breakdown.sub_hnsw_us += trace.end_span_with(
                s_search,
                &[
                    ("queries", ArgValue::U64((hi - lo) as u64)),
                    ("ef", ArgValue::U64(ef as u64)),
                    ("stage", ArgValue::U64(i as u64)),
                ],
            );
        }

        // 6. Exact rerank: a no-op unless some candidate's distance is an
        // estimate with a rerank address (SQ8 wire). Runs before the
        // stats delta so rerank bytes land in this batch's ledger. Its
        // passes' walls join `sub_hnsw_us`, its virtual time the network.
        let rerank_vt =
            self.rerank_exact(queries, k, &mut pools, &resolved, trace, root, &mut report)?;
        report.breakdown.network_us += ps_to_us(rerank_vt);
        let stats_delta = self.qp.stats().snapshot() - stats0;
        report.round_trips = stats_delta.round_trips;
        report.bytes_read = stats_delta.bytes_read;
        report.doorbell_batches = stats_delta.doorbell_batches;
        report.ledger = CostLedger::from_delta(&stats_delta);

        // 7. Merge: the k closest of each pool (kept in order, rerank
        // included), now that distances are final.
        let mut results = Vec::with_capacity(pools.len());
        for (pool, cov) in pools {
            let closest = pool.iter().take(k);
            results.push(
                closest
                    .map(|c| Neighbor::new(c.cand.id, c.cand.dist))
                    .collect(),
            );
            if failed > 0 {
                if cov < 1.0 {
                    report.degraded_queries += 1;
                }
                report.coverage.push(cov);
            }
        }
        Ok((results, report))
    }

    /// Loads one stage's pending clusters — plus any piggybacked
    /// cached-pin version verifies — through the loader, inside one
    /// `network` span: a single fetch under reuse; without, every load is
    /// its own read that retries (and fails) alone. Past the engine retry
    /// budget the survivors come back `failed` when degraded results are
    /// allowed, otherwise the batch errors. Returns the fetch and the
    /// stage's virtual network time in picoseconds.
    fn load_stage(
        &self,
        stage: usize,
        pending: Vec<Load>,
        verify: Vec<(u32, u64)>,
        trace: &BatchTrace,
        root: SpanId,
        report: &mut BatchReport,
    ) -> Result<(Fetch, u64)> {
        let s_net = trace.begin_span(Phase::Network.span(), "engine", root);
        trace.add_args(s_net, &[("stage", ArgValue::U64(stage as u64))]);
        let clock0 = self.qp.clock().now_ps();
        let stats0 = self.qp.stats().snapshot();
        let mut reader = Reader::new(self, self.config.degraded_ok(), trace, s_net);
        let mut got = Fetch::default();
        let outcome = if self.mode.reuses() {
            reader.fetch(pending, verify, ReadCause::StageLoad, &mut got)
        } else {
            (pending.into_iter()).try_for_each(|load| {
                reader.fetch(vec![load], Vec::new(), ReadCause::Naive, &mut got)
            })
        };
        report.read_retries += reader.retries;
        let vt = self.qp.clock().now_ps() - clock0;
        let stats_delta = self.qp.stats().snapshot() - stats0;
        for f in &got.stable {
            self.heatmap.record_load(f.load.partition, f.bytes());
        }
        trace.set_vt(s_net, ps_to_us(clock0), ps_to_us(vt));
        trace.end_span_with(
            s_net,
            &[
                ("round_trips", ArgValue::U64(stats_delta.round_trips)),
                ("bytes_read", ArgValue::U64(stats_delta.bytes_read)),
                (
                    "doorbell_batches",
                    ArgValue::U64(stats_delta.doorbell_batches),
                ),
                ("read_retries", ArgValue::U64(report.read_retries)),
            ],
        );
        outcome.map(|()| (got, vt))
    }

    /// Exact rerank. The first pass decides which pool candidates with an
    /// estimated distance could still enter their query's top-`k` —
    /// those whose error interval reaches below the k-th smallest upper
    /// bound — fetches the missing full-precision vectors with one
    /// [`ReadCause::Rerank`]-tagged round (deduplicated across the batch
    /// and against the node-level exact-vector cache), and swaps exact
    /// distances in. Candidates outside the margin keep their asymmetric
    /// distance. The error bound is one standard deviation, not a
    /// guarantee, so an exact distance can land past it and let such a
    /// candidate into the first `k`: further passes — rare, one more round
    /// each, bounded by the pool — exactify whatever estimate stands among
    /// the first `k` until none does, so no approximate distance is ever
    /// reported (but past the retry budget in degraded mode, where
    /// unfetched candidates keep theirs). A batch of exact candidates
    /// (full-precision wire) has nothing to decide and costs nothing.
    ///
    /// Base vectors are immutable (mutations live in overflow areas),
    /// so the reads need no version brackets and cache entries never go
    /// stale. Each pass's `rerank` span wall joins `sub_hnsw_us` as it
    /// closes (choosing a pass's candidates is host time outside the
    /// phases); returns the fetches' virtual network time in picoseconds.
    #[allow(clippy::too_many_arguments)]
    fn rerank_exact(
        &self,
        queries: &Dataset,
        k: usize,
        pools: &mut [(Vec<Pooled>, f64)],
        resolved: &HashMap<u32, Arc<LoadedCluster>>,
        trace: &BatchTrace,
        root: SpanId,
        report: &mut BatchReport,
    ) -> Result<u64> {
        let dim = self.directory.dim();
        let vec_bytes = (dim * 4) as u64;
        let settle = |c: &mut Pooled, q: &[f32], row: &[f32]| {
            c.cand = Candidate::exact(c.cand.id, vecsim::l2_sq(q, row))
        };
        let mut total_vt = 0;
        for pass in 0.. {
            // Candidates to exactify whose row is not cached, as (query,
            // pool index, row address); `need` / `reqs` are the distinct
            // rows among them; `touched` the queries whose pool changes.
            let mut awaited: Vec<(usize, usize, (u32, u32))> = Vec::new();
            let mut need: Vec<(u32, u32)> = Vec::new();
            let mut reqs: Vec<ReadReq> = Vec::new();
            let mut queued: HashSet<(u32, u32)> = HashSet::new();
            let mut touched: Vec<usize> = Vec::new();
            let mut exacted = 0u64;
            {
                let cache = self.rerank_cache.lock();
                for (qi, (pool, _)) in pools.iter_mut().enumerate() {
                    if k == 0 || pool.iter().all(|c| c.cand.local.is_none()) {
                        continue;
                    }
                    // First the margin, over the whole pool; after that
                    // only what stands among the first k (pools are
                    // ordered from the merge on).
                    let (reach, thresh) = if pass == 0 {
                        let mut uppers: Vec<f32> =
                            pool.iter().map(|c| c.cand.dist + c.cand.err).collect();
                        let kth = k.min(uppers.len()) - 1;
                        (
                            pool.len(),
                            *uppers.select_nth_unstable_by(kth, f32::total_cmp).1,
                        )
                    } else {
                        (k.min(pool.len()), f32::INFINITY)
                    };
                    for (ci, c) in pool[..reach].iter_mut().enumerate() {
                        let Some(local) = c.cand.local else { continue };
                        if c.cand.dist - c.cand.err > thresh {
                            continue;
                        }
                        let cluster = resolved.get(&c.key).ok_or_else(|| {
                            Error::Corrupt(format!("rerank candidate of unresolved load {}", c.key))
                        })?;
                        let key = (cluster.partition(), local);
                        if touched.last() != Some(&qi) {
                            touched.push(qi);
                        }
                        if let Some(row) = cache.get(&key, dim) {
                            settle(c, queries.get(qi), row);
                            exacted += 1;
                            continue;
                        }
                        awaited.push((qi, ci, key));
                        if queued.insert(key) {
                            let loc = self.directory.location(key.0)?;
                            let at = full_row_at(loc.cluster_len, cluster.base_len(), local, dim);
                            let off = loc.cluster_off + at;
                            need.push(key);
                            reqs.push(
                                ReadReq::new(self.rkey, off, vec_bytes)
                                    .with_cause(ReadCause::Rerank),
                            );
                        }
                    }
                }
            }
            if touched.is_empty() {
                break;
            }

            let s_rr = trace.begin_span("rerank", "engine", root);
            let clock0 = self.qp.clock().now_ps();
            let candidates = exacted + awaited.len() as u64;
            // Past the retry budget in degraded mode, unfetched candidates
            // keep their asymmetric distances: the answer degrades
            // gracefully instead of failing the batch.
            let mut reader = Reader::new(self, self.config.degraded_ok(), trace, s_rr);
            let delivered = reader.post_until_delivered(&reqs, need.first().map_or(0, |key| key.0));
            report.read_retries += reader.retries;
            let vt = self.qp.clock().now_ps() - clock0;
            total_vt += vt;
            let fetched = delivered.inspect_err(|_| {
                trace.end_span(s_rr);
            })?;
            if let Some(fetched) = &fetched {
                let mut cache = self.rerank_cache.lock();
                cache.admit(dim, need.into_iter().zip(fetched.iter().map(Vec::as_slice)));
                for &(qi, ci, key) in &awaited {
                    let row = cache.get(&key, dim).expect("admitted under this lock");
                    settle(&mut pools[qi].0[ci], queries.get(qi), row);
                }
                exacted += awaited.len() as u64;
            }
            for qi in touched {
                pools[qi].0.sort_unstable_by(by_distance);
            }
            trace.set_vt(s_rr, ps_to_us(clock0), ps_to_us(vt));
            report.breakdown.sub_hnsw_us += trace.end_span_with(
                s_rr,
                &[
                    ("candidates", ArgValue::U64(candidates)),
                    (
                        "fetched",
                        ArgValue::U64(fetched.as_ref().map_or(0, Vec::len) as u64),
                    ),
                    ("exacted", ArgValue::U64(exacted)),
                ],
            );
            if fetched.is_none() {
                break;
            }
        }
        Ok(total_vt)
    }
}

/// Ascending `(dist, id)`: the order of a pool, and of a result. Equal
/// copies of an id go by load key, so that the order is total and an
/// unstable selection has one answer.
fn by_distance(a: &Pooled, b: &Pooled) -> std::cmp::Ordering {
    (a.cand.dist.total_cmp(&b.cand.dist)).then((a.cand.id, a.key).cmp(&(b.cand.id, b.key)))
}

/// The sub-search: probes each query's routed clusters
/// ([`LoadedCluster::probe`], at `(k, slack, ef)`) and merges the hits
/// into the query's candidate pool.
///
/// Probes execute **cluster-major**: `keys` is flattened into `(load
/// key, query, route position)` probes, grouped by key, the clusters
/// ordered by their probes' mean route position and cut into `threads`
/// contiguous runs, and each worker hands a cluster the whole stretch of
/// its run that shares it — one lookup, one payload dispatch and, on the
/// SQ8 wire, one pass over the codes for all of them — out of one
/// [`ProbeScratch`] and one hit buffer. A query whose clusters are all
/// full precision carries one bound across its probes, which seeds its
/// scans (DESIGN.md §5j). Each query's hit lists are then merged,
/// whatever order they were computed in, into up to `k` candidates (`k +
/// slack` where an SQ8 cluster's estimates need a rerank pool), one per
/// global id — the closest copy, a forced representative can appear in
/// two clusters — ascending by `(dist, id)`. Copies of an exact id carry
/// equal distances and no rerank address, so which of them stands for the
/// id (the lowest load key's) cannot be told.
///
/// `keys[i]` belongs to query `base + i`, so a naive stripe can pass a
/// sub-slice against the full query set. Returns each query's pool with
/// the fraction of its routed clusters that were actually searched; with
/// `allow_missing` false an unresolved cluster is a corruption error
/// (every planned load must have landed), with it true the cluster is
/// skipped and the coverage dips below 1 (degraded mode).
pub(super) fn search_stage(
    keys: &[Vec<u32>],
    queries: &Dataset,
    base: usize,
    resolved: &HashMap<u32, Arc<LoadedCluster>>,
    (k, slack, ef): (usize, usize, usize),
    threads: usize,
    allow_missing: bool,
) -> Result<Vec<(Vec<Pooled>, f64)>> {
    // `offsets[i]..offsets[i + 1]` are query i's route positions; a query
    // is `exact` when every cluster it probes is full precision.
    let mut offsets = vec![0usize];
    let mut searched = vec![0usize; keys.len()];
    let mut exact = vec![true; keys.len()];
    let mut probes: Vec<(u32, u32, u32)> = Vec::new();
    for (i, route) in keys.iter().enumerate() {
        for (pos, key) in route.iter().enumerate() {
            if let Some(cluster) = resolved.get(key) {
                probes.push((*key, i as u32, pos as u32));
                searched[i] += 1;
                exact[i] &= !cluster.is_quantized();
            } else if !allow_missing {
                return Err(Error::Corrupt(format!(
                    "cluster load {key} missing after load"
                )));
            }
        }
        offsets.push(offsets[i] + route.len());
    }
    // Clusters by the mean route position of their probes, ties by key, so
    // a query's nearest cluster tends to be probed before its farther ones.
    probes.sort_unstable();
    let mut clusters: Vec<&[(u32, u32, u32)]> = probes.chunk_by(|a, b| a.0 == b.0).collect();
    let mean = |same: &[(u32, u32, u32)]| {
        same.iter().map(|p| f64::from(p.2)).sum::<f64>() / same.len() as f64
    };
    clusters.sort_by(|a, b| mean(a).total_cmp(&mean(b)));
    let probes = clusters.concat();
    // An exact query's bound: the closest k-th hit any of its probes has
    // returned. Those are k distinct ids, so nothing past it can be among
    // the query's final k, and its later scans collect nothing past it.
    let bounds: Vec<SharedBound> = keys.iter().map(|_| SharedBound::default()).collect();
    let runs: Vec<&[(u32, u32, u32)]> = probes
        .chunks(probes.len().div_ceil(threads.max(1)).max(1))
        .collect();
    let done = run_indexed(&runs, threads, |run| {
        let mut scratch = ProbeScratch::default();
        let mut stats = SearchStats::default();
        let mut hits: Vec<Candidate> = Vec::new();
        let mut ends = Vec::with_capacity(run.len());
        let (mut block, mut seeds): (Vec<&[f32]>, Vec<f32>) = Default::default();
        for same in run.chunk_by(|a, b| a.0 == b.0) {
            block.clear();
            seeds.clear();
            for &(_, query, _) in same {
                block.push(queries.get(base + query as usize));
                seeds.push(bounds[query as usize].get());
            }
            let mut start = hits.len();
            resolved[&same[0].0].probe(
                &block,
                &seeds,
                k,
                slack,
                ef,
                &mut scratch,
                &mut stats,
                &mut hits,
                &mut ends,
            );
            for (&(_, query, _), &end) in same.iter().zip(&ends[ends.len() - same.len()..]) {
                if k > 0 && end - start == k && exact[query as usize] {
                    bounds[query as usize].lower(hits[end - 1].dist);
                }
                start = end;
            }
        }
        Ok((hits, ends))
    })?;
    let mut lists: Vec<&[Candidate]> = vec![&[]; offsets[keys.len()]];
    for (run, (hits, ends)) in runs.iter().zip(&done) {
        let mut start = 0;
        for (&(_, query, pos), &end) in run.iter().zip(ends) {
            lists[offsets[query as usize] + pos as usize] = &hits[start..end];
            start = end;
        }
    }
    run_indexed(0..keys.len(), threads, |i| {
        let lists = &lists[offsets[i]..offsets[i + 1]];
        let cov = if lists.is_empty() {
            1.0
        } else {
            searched[i] as f64 / lists.len() as f64
        };
        let mut pool = Vec::with_capacity(lists.iter().map(|list| list.len()).sum());
        for (list, &key) in lists.iter().zip(&keys[i]) {
            pool.extend(list.iter().map(|&cand| Pooled { key, cand }));
        }
        // The slack only feeds the rerank of estimates.
        let cap = if exact[i] { k } else { k + slack };
        closest_per_id(&mut pool, cap);
        Ok((pool, cov))
    })
}

/// Cuts `pool` to its `cap` closest ids, ascending by `(dist, id)`, each
/// id by its closest copy — on a tie, the lowest load key's. Nothing past
/// a selection of `cap` is ordered unless two copies of an id stand in it.
pub(super) fn closest_per_id(pool: &mut Vec<Pooled>, cap: usize) {
    let select = |pool: &mut Vec<Pooled>| {
        if cap < pool.len() {
            pool.select_nth_unstable_by(cap, by_distance);
        }
    };
    // The `cap` closest copies are the answer when their ids differ: a
    // copy anywhere closer than one of them is among them. Their ids are
    // sorted on the stack; a longer cut takes the whole pool's sort.
    select(pool);
    let mut ids = [0u32; 64];
    let distinct = ids.get_mut(..cap.min(pool.len())).is_some_and(|ids| {
        (ids.iter_mut().zip(&pool[..])).for_each(|(id, c)| *id = c.cand.id);
        ids.sort_unstable();
        ids.windows(2).all(|w| w[0] != w[1])
    });
    if !distinct {
        pool.sort_unstable_by(|a, b| a.cand.id.cmp(&b.cand.id).then_with(|| by_distance(a, b)));
        pool.dedup_by_key(|c| c.cand.id);
        select(pool);
    }
    pool.truncate(cap);
    pool.sort_unstable_by(by_distance);
}
