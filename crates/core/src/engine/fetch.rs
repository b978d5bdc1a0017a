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

use rdma_sim::{ps_to_us, ReadCause, ReadReq, Scatter};

use super::{run_indexed, ComputeNode};
use crate::cluster::LoadedCluster;
use crate::loader::{plan_load, version_read, LoadRound};
use crate::telemetry::span::{ArgValue, BatchTrace, SpanId, SpanKind, SpanRecord};
use crate::{Error, QuantizeMode, Result};

/// One cluster read the loader owes its caller. `key` names the load in
/// the caller's resolved map: the partition itself when the mode reuses
/// (one load serves every query of the batch), a per-`(query, route
/// position)` counter under `Naive`.
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

/// Virtual picoseconds (8 µs) charged before a reader's first engine
/// retry; each further retry doubles it ([`Reader::again`]).
const RETRY_BACKOFF_PS: u64 = 8_000_000;

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

    /// Posts `reqs` as one doorbell batch — priced at the node's doorbell
    /// limit, so at limit 1 every request is a round trip of its own —
    /// each landing in two buffers of its own, cut `heads[i]` bytes in. The
    /// buffers start empty and are sized by the read that fills them,
    /// once, after the substrate has bounds-checked it. `None` means the
    /// substrate gave up retransmitting: nothing of this round is usable
    /// and the engine-level budget decides. A traced post is rendered
    /// ([`Reader::render`]) from where the batch's wall, the clock and the
    /// fault count stood before it.
    fn post(&self, reqs: &[ReadReq], heads: &[u64]) -> Result<Option<Vec<Landed>>> {
        let qp = &self.node.qp;
        let before = (self.trace.is_enabled()).then(|| {
            (
                self.trace.elapsed_us(),
                qp.clock().now_ps(),
                qp.stats().faults(),
            )
        });
        let mut landed: Vec<Landed> = reqs.iter().map(|_| Landed::default()).collect();
        let cuts = reqs.iter().zip(heads);
        let mut into: Vec<Scatter<'_>> = (landed.iter_mut().zip(cuts))
            .map(|((head, tail), (r, &at))| Scatter::cut(head, tail, at, r.len))
            .collect();
        let delivered = match qp.read_doorbell_into(reqs, &mut into) {
            Ok(()) => true,
            Err(rdma_sim::Error::RetriesExhausted { .. }) => false,
            Err(e) => return Err(e.into()),
        };
        if let Some(before) = before {
            self.render(reqs, delivered, before);
        }
        Ok(delivered.then_some(landed))
    }

    /// Writes one post of `reqs` under the reader's span: a `fault_retry`
    /// instant per dropped attempt, then, if the post was delivered, a
    /// `read_doorbell` span per chunk of the model's
    /// [`schedule`](rdma_sim::NetworkModel::schedule), with a
    /// `cluster_read` child per work request in a chunk of several. On
    /// the virtual clock the drops' timeouts come first, then each chunk
    /// at its scheduled cost: on one thread exactly what the clock was
    /// charged, picosecond for picosecond (posts racing on one queue pair
    /// overlap). A chunk's requests tile the chunk in proportion to their
    /// bytes (evenly when it moves none), and the post's wall is split
    /// among its chunks in proportion to their cost.
    fn render(&self, reqs: &[ReadReq], delivered: bool, (wall0, vt0, faults0): (f64, u64, u64)) {
        let qp = &self.node.qp;
        let model = qp.model();
        let drops = qp.stats().faults() - faults0;
        let timeout = model.timeout_ps();
        for attempt in 1..=drops {
            let args = vec![
                ("verb", ArgValue::Str("read_doorbell")),
                ("attempt", ArgValue::U64(attempt)),
                ("timeout_us", ArgValue::F64(ps_to_us(timeout))),
                ("vt_us", ArgValue::F64(ps_to_us(vt0 + attempt * timeout))),
            ];
            let at = [(wall0, 0.0), (0.0, 0.0)];
            self.record("fault_retry", SpanKind::Instant, self.span, at, args);
        }
        if !delivered {
            return;
        }
        let start = vt0 + drops * timeout;
        let wall = self.trace.elapsed_us() - wall0;
        let schedule = || model.schedule(reqs.len(), |i| reqs[i].len);
        let total: u64 = schedule().map(|(.., cost)| cost).sum();
        let wall_at = |ps: u64| wall * ps as f64 / total as f64;
        let mut done = 0;
        for (i, (chunk, bytes, cost)) in schedule().enumerate() {
            let at = [
                (wall0 + wall_at(done), wall_at(done + cost) - wall_at(done)),
                (ps_to_us(start + done), ps_to_us(cost)),
            ];
            done += cost;
            let args = vec![
                ("wqes", ArgValue::U64(chunk.len() as u64)),
                ("bytes", ArgValue::U64(bytes)),
                ("chunk", ArgValue::U64(i as u64)),
            ];
            let id = self.record("read_doorbell", SpanKind::Span, self.span, at, args);
            if chunk.len() < 2 {
                continue;
            }
            let n = chunk.len() as f64;
            let share = |moved: u64, j: usize| match bytes {
                0 => j as f64 / n,
                _ => moved as f64 / bytes as f64,
            };
            let mut moved = 0;
            for (j, r) in reqs[chunk].iter().enumerate() {
                let req = part(at, share(moved, j), share(moved + r.len, j + 1));
                moved += r.len;
                let args = vec![
                    ("wqe", ArgValue::U64(j as u64)),
                    ("offset", ArgValue::U64(r.offset)),
                    ("bytes", ArgValue::U64(r.len)),
                ];
                self.record("cluster_read", SpanKind::Span, id, req, args);
            }
        }
    }

    /// Pushes one `rdma` record under `parent` at `[wall, vt]`, each a
    /// `(start, duration)` in µs.
    fn record(
        &self,
        name: &'static str,
        kind: SpanKind,
        parent: SpanId,
        [wall, vt]: [(f64, f64); 2],
        args: Vec<(&'static str, ArgValue)>,
    ) -> SpanId {
        self.trace.push_span(SpanRecord {
            name,
            cat: "rdma",
            parent: parent.raw(),
            kind,
            wall_start_us: wall.0,
            wall_dur_us: wall.1,
            vt_start_us: vt.0,
            vt_dur_us: vt.1,
            args,
        })
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
        let ps = RETRY_BACKOFF_PS << (self.attempt - 1).min(16);
        self.node.qp.charge_backoff_ps(ps);
        self.trace.instant(
            "read_retry",
            "engine",
            self.span,
            &[
                ("attempt", ArgValue::U64(u64::from(self.attempt))),
                ("clusters", ArgValue::U64(clusters as u64)),
                ("backoff_us", ArgValue::F64(ps_to_us(ps))),
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
        let bracketed = node.mode.reuses();
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

/// The part `[f0, f1]` of each `(start, duration)` interval.
fn part(intervals: [(f64, f64); 2], f0: f64, f1: f64) -> [(f64, f64); 2] {
    intervals.map(|(start, dur)| (start + dur * f0, dur * (f1 - f0)))
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
        run_indexed(fetched, threads, |f| {
            Ok((f.load, f.version, Arc::new(self.decode(f)?)))
        })
    }
}
