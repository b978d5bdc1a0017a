//! The one loader: every cluster span a compute node reads (a batch's
//! load round or a naive read, as [`crate::loader::plan_load`] plans them)
//! goes through [`Reader::fetch`], every other read (rerank rows, the
//! health probe's counters) through its post + retry parts. DESIGN.md §5d
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
use crate::loader::{plan_load, version_read, LoadRound};
use crate::telemetry::span::{ArgValue, BatchTrace, SpanId};
use crate::{Error, QuantizeMode, Result};

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

/// Virtual µs charged before a reader's first engine retry; each further
/// retry doubles it ([`Reader::again`]).
const RETRY_BACKOFF_US: f64 = 8.0;

/// The post primitive and the retry budget of one logical read at a
/// time.
pub(crate) struct Reader<'a> {
    node: &'a ComputeNode,
    /// What running out of engine-level retries means: the caller gets
    /// back whatever arrived and carries on (degraded results,
    /// approximate distances), or the read
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
        let us = RETRY_BACKOFF_US * f64::from(1u32 << (self.attempt - 1).min(16));
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
                reqs.push(version_read(&node.directory, node.rkey, p)?);
                heads.push(8);
            }
            let mut lasts = Vec::with_capacity(pending.len());
            for load in &pending {
                let round = node.plan(load.partition, None, bracketed, span_cause)?;
                let round = round.expect("a first round reads");
                lasts.push(round.cluster_last);
                reqs.extend(round.reqs);
                heads.extend(round.cuts);
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
            let (mut reqs, mut heads, mut mutated) = (Vec::new(), Vec::new(), Vec::new());
            for (load, cluster_last) in pending.drain(..).zip(lasts) {
                let Some((version, (head, tail))) = take_body(&mut bufs, bracketed)? else {
                    unstable.push(load);
                    continue;
                };
                let (cluster, rest) = if cluster_last {
                    (tail, head)
                } else {
                    (head, tail)
                };
                // Full wire: the rest of the group span holds the overflow
                // area. SQ8: the blob is the whole span, and a follow-up
                // reads the area when the version proves it written.
                match node.plan(load.partition, Some(version), bracketed, span_cause)? {
                    Some(round) => {
                        reqs.extend(round.reqs);
                        heads.extend(round.cuts);
                        mutated.push((load, cluster));
                    }
                    None => out.stable.push(Fetched {
                        load,
                        version,
                        cluster,
                        overflow: (node.wire == QuantizeMode::Off).then_some(rest),
                    }),
                }
            }
            if !mutated.is_empty() {
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
    /// [`plan_load`] for one load of `p` on this node's wire.
    pub(super) fn plan(
        &self,
        p: u32,
        observed: Option<u64>,
        bracketed: bool,
        cause: ReadCause,
    ) -> Result<Option<LoadRound>> {
        plan_load(
            &self.directory,
            self.rkey,
            p,
            self.wire,
            observed,
            bracketed,
            cause,
        )
    }

    /// The one fetch → [`LoadedCluster`] step: the buffer the cluster
    /// landed in is adopted as it is, next to the overflow area the
    /// layout finds in what landed beside it — the rest of the group
    /// span, or (SQ8 wire) the area its follow-up read brought (none: the
    /// version slot proved it pristine). Either must be the cluster of
    /// the directory entry it was fetched for
    /// ([`LoadedCluster::expecting`]).
    fn decode(&self, fetched: Fetched) -> Result<LoadedCluster> {
        let Fetched {
            load,
            cluster,
            overflow,
            ..
        } = fetched;
        let loc = self.directory.location(load.partition)?;
        let area = overflow.as_deref().map(|rest| loc.overflow_in(rest));
        let quantized = self.wire == QuantizeMode::Sq8;
        LoadedCluster::adopt(cluster, 0, quantized, area.transpose()?)?
            .expecting(load.partition, self.directory.dim())
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
