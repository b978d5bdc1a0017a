//! The one loader: every cluster span a compute node reads — a batch's
//! stage loads, naive per-query fetches, the prefetcher's — goes through
//! [`Reader::fetch`], and every other read (rerank rows, the health
//! probe's counters) through its post + retry parts. DESIGN.md §5d
//! tabulates who calls it with which cause and exhaustion rule.
//!
//! A re-posted span carries [`ReadCause::Retry`] instead of its caller's
//! cause, so a retry storm shows up as `retry` bytes, not inflated load
//! traffic; version slots are always `VersionCheck`, overflow follow-ups
//! always `OverflowScan`.

use std::sync::Arc;

use parking_lot::Mutex;
use rdma_sim::{ReadCause, ReadReq, Scatter};

use super::{run_indexed, ComputeNode};
use crate::cluster::LoadedCluster;
use crate::layout::GroupSlot;
use crate::telemetry::span::{ArgValue, BatchTrace, SpanId};
use crate::{Error, Result};

/// One cluster read the loader owes its caller. `key` names the load in
/// the caller's resolved map: the partition itself under a reuse policy
/// (one load serves every query of the batch), a per-`(query, route
/// position)` counter under the naive one.
#[derive(Debug, Clone, Copy)]
pub(super) struct Load {
    pub(super) key: u32,
    pub(super) partition: u32,
}

impl Load {
    /// The shared load of `partition`.
    pub(super) fn of(partition: u32) -> Self {
        Load {
            key: partition,
            partition,
        }
    }
}

/// A load that came back stable, and the version it was read at. The
/// fetch landed the serialized cluster this node's wire format reads in
/// `cluster`, a buffer of its own that becomes the [`LoadedCluster`] as it
/// is. What else the load read — the rest of the group span with its
/// overflow area, or (SQ8 wire, mutated partition) the follow-up read of
/// that area — landed in `overflow`, which is parsed and dropped.
#[derive(Debug)]
pub(super) struct Fetched {
    pub(super) load: Load,
    pub(super) version: u64,
    cluster: Vec<u8>,
    overflow: Option<Vec<u8>>,
}

impl Fetched {
    /// Bytes this load moved, span and follow-up together.
    pub(super) fn bytes(&self) -> u64 {
        (self.cluster.len() + self.overflow.as_ref().map_or(0, Vec::len)) as u64
    }
}

/// Where one read of a round landed: its first `head` bytes, and the
/// rest.
type Landed = (Vec<u8>, Vec<u8>);

/// What [`Reader::fetch`] calls produced, accumulated.
#[derive(Debug, Default)]
pub(super) struct Fetch {
    /// Loads that passed their version bracket, in completion order.
    pub(super) stable: Vec<Fetched>,
    /// Loads still unread when the retry budget ran out (only a
    /// tolerant reader hands them back; the other errors).
    pub(super) failed: Vec<Load>,
    /// Cached pins whose verify failed: already invalidated in the cache
    /// and re-read with this call (they are in `stable` or `failed`).
    pub(super) stale: Vec<u32>,
}

/// The post primitive and the retry budget of one logical read at a
/// time.
pub(crate) struct Reader<'a> {
    node: &'a ComputeNode,
    /// What running out of engine-level retries means: the caller gets
    /// back whatever arrived and carries on (degraded results,
    /// approximate distances, a shorter prefetch round), or the read
    /// fails with [`Error::ReadRetriesExhausted`].
    tolerant: bool,
    trace: &'a BatchTrace,
    span: SpanId,
    attempt: u32,
    /// Re-posts so far, in `dhnsw_read_retries_total`'s unit: 1 per
    /// round re-posted whole after a dropped post, 1 per cluster
    /// re-posted alone after an unstable bracket.
    pub(crate) retries: u64,
}

impl<'a> Reader<'a> {
    /// A reader whose verbs and backoff instants hang off `span`.
    pub(crate) fn new(
        node: &'a ComputeNode,
        tolerant: bool,
        trace: &'a BatchTrace,
        span: SpanId,
    ) -> Self {
        Reader {
            node,
            tolerant,
            trace,
            span,
            attempt: 0,
            retries: 0,
        }
    }

    /// Posts `reqs` the way the node's policy says — one doorbell batch,
    /// or one verb per request, stopping at the first that fails — each
    /// landing in two buffers of its own, cut `heads[i]` bytes in. The
    /// buffers start empty and are sized by the read that fills them,
    /// once, after the substrate has bounds-checked it. `None` means the
    /// substrate gave up retransmitting: nothing of this round is usable
    /// and the engine-level budget decides.
    fn post(&self, reqs: &[ReadReq], heads: &[u64]) -> Result<Option<Vec<Landed>>> {
        let _scope = self.trace.enter_scope(self.span);
        let qp = &self.node.qp;
        let mut landed: Vec<Landed> = reqs.iter().map(|_| Landed::default()).collect();
        let cuts = reqs.iter().zip(heads);
        let mut into = (landed.iter_mut().zip(cuts))
            .map(|((head, tail), (r, &at))| Scatter::cut(head, tail, at, r.len));
        let outcome = if self.node.policy.doorbell {
            qp.read_doorbell_into(reqs, &mut into.collect::<Vec<_>>())
        } else {
            reqs.iter()
                .try_for_each(|r| qp.read_into(*r, into.next().expect("one per request")))
        };
        match outcome {
            Ok(()) => Ok(Some(landed)),
            Err(rdma_sim::Error::RetriesExhausted { .. }) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Spends one attempt on re-posting `clusters` clusters, counted as
    /// `reposts` retries. `true`: go again, the exponential backoff is
    /// already charged to virtual time. `false`: the budget is spent and
    /// the caller tolerates it. `partition` names the read in the error
    /// when it does not.
    fn again(&mut self, reposts: u64, clusters: usize, partition: u32) -> Result<bool> {
        self.attempt += 1;
        self.retries += reposts;
        let config = &self.node.config;
        if self.attempt > config.read_retry_limit() {
            if self.tolerant {
                return Ok(false);
            }
            return Err(Error::ReadRetriesExhausted {
                partition,
                attempts: self.attempt,
            });
        }
        let us = config.retry_backoff_us() * f64::from(1u32 << (self.attempt - 1).min(16));
        self.node.qp.clock().advance_us(us);
        self.trace.instant(
            "read_retry",
            "engine",
            self.span,
            &[
                ("attempt", ArgValue::U64(u64::from(self.attempt))),
                ("clusters", ArgValue::U64(clusters as u64)),
                ("backoff_us", ArgValue::F64(us)),
            ],
        );
        Ok(true)
    }

    /// Posts the same `reqs` until they arrive or the budget runs out
    /// (`None`, for a tolerant reader) — for reads with no version to
    /// validate.
    pub(crate) fn post_until_delivered(
        &mut self,
        reqs: &[ReadReq],
        partition: u32,
    ) -> Result<Option<Vec<Vec<u8>>>> {
        self.attempt = 0;
        let whole: Vec<u64> = reqs.iter().map(|r| r.len).collect();
        loop {
            if let Some(landed) = self.post(reqs, &whole)? {
                return Ok(Some(landed.into_iter().map(|(all, _)| all).collect()));
            }
            if !self.again(1, reqs.len(), partition)? {
                return Ok(None);
            }
        }
    }

    /// Reads `pending` — plus any piggybacked cached-pin `verify`
    /// `(partition, pinned version)` checks — under the optimistic version
    /// protocol: each span travels between two reads of its partition's
    /// version slot; a mismatch means a writer committed mid-read and the
    /// span is read again. A pin whose version moved is invalidated and
    /// re-read with the round. On the SQ8 wire a stable blob with a
    /// nonzero version is followed by a (bracketed) read of its group's
    /// overflow area: the compressed blob carries no overflow records and
    /// the version proves some exist. The blob itself is immutable, so a
    /// version moving *between* the two rounds is harmless — the newer
    /// overflow strictly supersedes the older; only a torn overflow read
    /// sends the partition around again. A post the substrate dropped
    /// re-posts the whole round. Every round after the first costs one
    /// attempt of the engine budget, with exponential backoff charged to
    /// virtual time; what running out means is the reader's to say.
    /// Results are added to `out`.
    pub(super) fn fetch(
        &mut self,
        mut pending: Vec<Load>,
        mut verify: Vec<(u32, u64)>,
        cause: ReadCause,
        out: &mut Fetch,
    ) -> Result<()> {
        let node = self.node;
        let bracketed = node.policy.reuse;
        self.attempt = 0;
        while !pending.is_empty() || !verify.is_empty() {
            let span_cause = if self.attempt == 0 {
                cause
            } else {
                ReadCause::Retry
            };
            let mut reqs = Vec::with_capacity(verify.len() + 3 * pending.len());
            let mut heads = Vec::with_capacity(reqs.capacity());
            for &(p, _) in &verify {
                reqs.push(node.version_req(p)?);
                heads.push(8);
            }
            let mut lasts = Vec::with_capacity(pending.len());
            for load in &pending {
                let (off, len) = node.load_span(load.partition)?;
                let body = ReadReq::new(node.rkey, off, len).with_cause(span_cause);
                let (cut, cluster_last) = node.cluster_cut(load.partition, len)?;
                lasts.push(cluster_last);
                node.push_body(&mut reqs, &mut heads, load.partition, body, cut, bracketed)?;
            }
            let Some(landed) = self.post(&reqs, &heads)? else {
                let first = pending.first().map_or(0, |l| l.partition);
                if self.again(1, pending.len(), first)? {
                    continue;
                }
                // Unverified pins stay as they are: stale at worst, which
                // degraded mode already admits.
                out.failed.append(&mut pending);
                break;
            };
            let mut bufs = landed.into_iter();
            let mut unstable: Vec<Load> = Vec::new();
            for (p, pinned) in verify.drain(..) {
                if read_version(&bufs.next().expect("one buffer per request").0)? != pinned {
                    node.cache.lock().invalidate(p);
                    out.stale.push(p);
                    unstable.push(Load::of(p));
                }
            }
            let mut mutated: Vec<(Load, Vec<u8>)> = Vec::new();
            for (load, cluster_last) in pending.drain(..).zip(lasts) {
                let Some((version, (head, tail))) = take_body(&mut bufs, bracketed)? else {
                    unstable.push(load);
                    continue;
                };
                // Full wire: the other side of the cut is the rest of the
                // group span.
                let (cluster, rest) = if cluster_last {
                    (tail, head)
                } else {
                    (head, tail)
                };
                let overflow = (!node.use_sq).then_some(rest);
                if node.use_sq && version != 0 {
                    mutated.push((load, cluster));
                } else {
                    out.stable.push(Fetched {
                        load,
                        version,
                        cluster,
                        overflow,
                    });
                }
            }
            if !mutated.is_empty() {
                let mut reqs = Vec::with_capacity(3 * mutated.len());
                let mut heads = Vec::with_capacity(reqs.capacity());
                for (load, _) in &mutated {
                    let loc = node.directory.location(load.partition)?;
                    let area = ReadReq::new(node.rkey, loc.overflow_off, loc.overflow_len)
                        .with_cause(ReadCause::OverflowScan);
                    let whole = loc.overflow_len;
                    node.push_body(&mut reqs, &mut heads, load.partition, area, whole, true)?;
                }
                let mut areas = self.post(&reqs, &heads)?.map(Vec::into_iter);
                for (load, cluster) in mutated {
                    // A dropped follow-up sends its partitions around
                    // again, blob and overflow together.
                    let area = match &mut areas {
                        Some(bufs) => take_body(bufs, true)?,
                        None => None,
                    };
                    match area {
                        Some((version, (area, _))) => out.stable.push(Fetched {
                            load,
                            version,
                            cluster,
                            overflow: Some(area),
                        }),
                        None => unstable.push(load),
                    }
                }
            }
            if unstable.is_empty() {
                break;
            }
            if !self.again(unstable.len() as u64, unstable.len(), unstable[0].partition)? {
                out.failed.append(&mut unstable);
                break;
            }
            pending = unstable;
        }
        Ok(())
    }
}

/// Decodes one 8-byte version-slot read.
fn read_version(buf: &[u8]) -> Result<u64> {
    let raw: [u8; 8] = buf
        .try_into()
        .map_err(|_| Error::Corrupt("version slot short read".into()))?;
    Ok(u64::from_le_bytes(raw))
}

/// Takes one `[version, body, version]` bracket (a bare body when
/// `bracketed` is off) from a round's buffers. `None`: the two version
/// reads differ — a writer committed mid-read and the body may be torn.
fn take_body(
    bufs: &mut impl Iterator<Item = Landed>,
    bracketed: bool,
) -> Result<Option<(u64, Landed)>> {
    let mut next = || bufs.next().expect("one buffer per request");
    if !bracketed {
        return Ok(Some((0, next())));
    }
    let before = read_version(&next().0)?;
    let body = next();
    let after = read_version(&next().0)?;
    Ok((before == after).then_some((after, body)))
}

impl ComputeNode {
    /// The `(offset, len)` span one load of partition `p` reads: the
    /// contiguous cluster+overflow group span, or just the compressed
    /// blob when this node uses the SQ8 wire format.
    pub(super) fn load_span(&self, p: u32) -> Result<(u64, u64)> {
        if self.use_sq {
            self.directory
                .sq_span(p)?
                .ok_or_else(|| Error::Corrupt(format!("partition {p} has no sq span")))
        } else {
            Ok(self.directory.location(p)?.read_span())
        }
    }

    fn version_req(&self, p: u32) -> Result<ReadReq> {
        Ok(
            ReadReq::new(self.rkey, self.directory.version_slot_off(p)?, 8)
                .with_cause(ReadCause::VersionCheck),
        )
    }

    /// Where the fetch cuts `p`'s load span of `len` bytes in two, and
    /// whether the serialized cluster is the part after the cut (back
    /// slot) rather than before it. The SQ8 blob is the whole span.
    fn cluster_cut(&self, p: u32, len: u64) -> Result<(u64, bool)> {
        let loc = self.directory.location(p)?;
        Ok(match loc.slot {
            _ if self.use_sq => (len, false),
            GroupSlot::Front => (loc.cluster_len, false),
            GroupSlot::Back => (len.saturating_sub(loc.cluster_len), true),
        })
    }

    /// `reqs` extended by `body`, between two reads of `p`'s version slot
    /// when `bracketed`; `heads` by where each lands (`cut` bytes into the
    /// body).
    fn push_body(
        &self,
        reqs: &mut Vec<ReadReq>,
        heads: &mut Vec<u64>,
        p: u32,
        body: ReadReq,
        cut: u64,
        bracketed: bool,
    ) -> Result<()> {
        if bracketed {
            let vs = self.version_req(p)?;
            reqs.extend([vs, body, vs]);
            heads.extend([8, cut, 8]);
        } else {
            reqs.push(body);
            heads.push(cut);
        }
        Ok(())
    }

    /// The one fetch → [`LoadedCluster`] step: the buffer the cluster
    /// landed in is adopted as it is, next to the overflow area cut out of
    /// the rest of the group span — or, SQ8 wire, the area its follow-up
    /// read brought (none: the version slot proved it pristine). Either
    /// must be the cluster of the directory entry it was fetched for
    /// ([`LoadedCluster::expecting`]).
    fn decode(&self, fetched: Fetched) -> Result<LoadedCluster> {
        let Fetched {
            load,
            cluster,
            overflow,
            ..
        } = fetched;
        let loaded = if self.use_sq {
            LoadedCluster::adopt(cluster, 0, true, overflow.as_deref())?
        } else {
            let loc = self.directory.location(load.partition)?;
            let (rest, n) = (
                overflow.as_deref().unwrap_or_default(),
                loc.overflow_len as usize,
            );
            // Front slot: alignment padding, then the area. Back: the area
            // comes first.
            let area = match loc.slot {
                GroupSlot::Front => rest.len().checked_sub(n).map(|at| &rest[at..]),
                GroupSlot::Back => rest.get(..n),
            };
            let area =
                area.ok_or_else(|| Error::Corrupt("span ends inside its overflow area".into()))?;
            LoadedCluster::adopt(cluster, 0, false, Some(area))?
        };
        loaded.expecting(load.partition, self.directory.dim())
    }

    /// Turns freshly fetched loads into clusters across the instance's
    /// worker threads, like the paper's per-instance OpenMP pool. Each
    /// load's buffer is handed over, not re-read: what comes back is the
    /// load, its version, and the cluster that now owns the bytes.
    pub(super) fn materialize(
        &self,
        fetched: Vec<Fetched>,
        threads: usize,
    ) -> Result<Vec<(Load, u64, Arc<LoadedCluster>)>> {
        let cells: Vec<_> = fetched.into_iter().map(|f| Mutex::new(Some(f))).collect();
        run_indexed(cells.len(), threads, |i| {
            let f = cells[i].lock().take().expect("every index runs once");
            Ok((f.load, f.version, Arc::new(self.decode(f)?)))
        })
    }
}
