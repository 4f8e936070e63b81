//! The bulletin board: authenticated broadcast with metering.
//!
//! In the YOSO model every message — point-to-point included — is
//! posted to a public board (encrypted to its recipient when private),
//! so broadcast and P2P cost the same (§3.3). The board is therefore
//! the *single* communication channel of the protocol, and metering
//! postings measures the protocol's entire communication.
//!
//! The board itself is a thin façade over a pluggable
//! [`BoardTransport`]: the default [`InProcessTransport`] keeps
//! postings in this process with round-indexed storage; the
//! [`crate::tcp`] backend talks to a `board-server` process so
//! committee drivers and auditors can run as separate OS processes.
//! Metering stays local to the posting process either way.

use std::sync::Arc;

use crate::metrics::CommMeter;
use crate::role::RoleId;
use crate::transport::{
    BoardError, BoardTransport, InProcessTransport, PostRecord, WireMessage,
};

/// One posting on the board.
#[derive(Debug, Clone)]
pub struct Posting<M> {
    /// The posting round.
    pub round: u64,
    /// The author role.
    pub from: RoleId,
    /// The protocol phase the post was metered under. Shared, not
    /// owned: every posting of a phase aliases one allocation, so
    /// cloning a posting (or a whole round slice) never copies the
    /// label.
    pub phase: Arc<str>,
    /// The message payload.
    pub message: M,
    /// Metered size in ring elements (travels with the posting so
    /// remote auditor processes can rebuild the communication meter).
    pub elements: u64,
    /// Metered size in bytes.
    pub bytes: u64,
}

/// An append-only bulletin board carrying messages of type `M`,
/// shared between the simulated roles.
///
/// Every post records its size with the [`CommMeter`] under the
/// supplied phase label; experiments read the meter, tests read the
/// postings. Posting and round methods are fallible because the
/// backing [`BoardTransport`] may be remote; the in-process backend
/// never fails.
pub struct BulletinBoard<M> {
    transport: Arc<dyn BoardTransport<M>>,
    meter: CommMeter,
    audit: bool,
}

impl<M> std::fmt::Debug for BulletinBoard<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BulletinBoard")
            .field("backend", &self.transport.backend_name())
            .field("audit", &self.audit)
            .finish_non_exhaustive()
    }
}

impl<M> Clone for BulletinBoard<M> {
    fn clone(&self) -> Self {
        BulletinBoard {
            transport: Arc::clone(&self.transport),
            meter: self.meter.clone(),
            audit: self.audit,
        }
    }
}

impl<M: Clone + Send + Sync + 'static> Default for BulletinBoard<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Clone + Send + Sync + 'static> BulletinBoard<M> {
    /// Creates an empty in-process board with a fresh meter.
    pub fn new() -> Self {
        Self::with_transport(Arc::new(InProcessTransport::new()))
    }

    /// Creates a board that meters traffic but does not retain posting
    /// payloads — used by large-scale experiments where the audit log
    /// would dominate memory.
    pub fn metered_only() -> Self {
        let mut b = Self::new();
        b.audit = false;
        b
    }

    /// Creates a board over an explicit transport backend.
    pub fn with_transport(transport: Arc<dyn BoardTransport<M>>) -> Self {
        BulletinBoard { transport, meter: CommMeter::new(), audit: true }
    }

    /// Disables (or re-enables) payload retention: with `audit` off the
    /// board meters traffic but forwards nothing to the transport.
    #[must_use]
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }
}

impl<M: WireMessage + Clone + Send + Sync + 'static> BulletinBoard<M> {
    /// Connects to a remote `board-server` at `addr` with the default
    /// [`crate::tcp::TcpOptions`] (connect retry + I/O timeouts).
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::Io`] if the server stays unreachable past
    /// the retry budget.
    pub fn connect_tcp(addr: std::net::SocketAddr) -> Result<Self, BoardError> {
        Self::connect_tcp_with(addr, crate::tcp::TcpOptions::default())
    }

    /// Like [`BulletinBoard::connect_tcp`] with explicit
    /// [`crate::tcp::TcpOptions`] — the hook for tuning the pipelining
    /// window (`pipeline_window: 1` syncs after every frame)
    /// or frame-chunking thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::Io`] if the server stays unreachable past
    /// the retry budget.
    pub fn connect_tcp_with(
        addr: std::net::SocketAddr,
        opts: crate::tcp::TcpOptions,
    ) -> Result<Self, BoardError> {
        let t = crate::tcp::TcpTransport::connect(addr, opts)?;
        Ok(Self::with_transport(Arc::new(t)))
    }
}

impl<M> BulletinBoard<M> {
    /// The communication meter recording all posts.
    pub fn meter(&self) -> &CommMeter {
        &self.meter
    }

    /// A short label naming the transport backend (diagnostics).
    pub fn backend_name(&self) -> &'static str {
        self.transport.backend_name()
    }

    /// The current round.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn round(&self) -> Result<u64, BoardError> {
        self.transport.round()
    }

    /// Advances to the next round (the synchronous model's clock tick).
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn advance_round(&self) -> Result<u64, BoardError> {
        self.transport.advance_round()
    }

    /// Posts a message, recording `elements` ring elements /
    /// `bytes` bytes of traffic under `phase`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn post(
        &self,
        from: RoleId,
        message: M,
        phase: &str,
        elements: u64,
        bytes: u64,
    ) -> Result<(), BoardError> {
        self.meter.record(phase, elements, bytes);
        if !self.audit {
            return Ok(());
        }
        self.transport.post_batch(vec![PostRecord {
            from,
            phase: Arc::from(phase),
            message,
            elements,
            bytes,
        }])
    }

    /// Posts a batch of same-sized messages from one role under one
    /// phase, taking the transport's write lock (or sending one TCP
    /// frame) **once** for the whole batch. The phase label is
    /// allocated once and shared by every posting, and in-process
    /// appends are a monomorphic slice loop — no per-message
    /// allocation or dispatch.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn post_batch(
        &self,
        from: RoleId,
        phase: &str,
        messages: &[M],
        elements_each: u64,
        bytes_each: u64,
    ) -> Result<(), BoardError>
    where
        M: Clone,
    {
        let count = messages.len() as u64;
        self.meter.record_many(
            phase,
            elements_each * count,
            bytes_each * count,
            count,
        );
        if !self.audit || messages.is_empty() {
            return Ok(());
        }
        let shared: Arc<str> = Arc::from(phase);
        self.transport.post_slice(&from, &shared, messages, elements_each, bytes_each)
    }

    /// Posts a heterogeneous batch (mixed roles, phases and sizes) in
    /// one transport call — the replay path of the parallel engine's
    /// post buffers. Metering is aggregated per run of equal phase
    /// labels, so a single-phase buffer costs one meter update.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn post_records(&self, records: Vec<PostRecord<M>>) -> Result<(), BoardError> {
        self.post_record_stream(records.into_iter()).map(|_| ())
    }

    /// Streaming variant of [`BulletinBoard::post_records`]: the
    /// transport drains the iterator straight into its log (or wire
    /// frames) while metering is aggregated per run of equal phase
    /// labels on the fly — no intermediate `Vec` of records is ever
    /// built. This is the parallel engine's buffer-flush hot path.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn post_record_stream(
        &self,
        records: impl Iterator<Item = PostRecord<M>>,
    ) -> Result<u64, BoardError> {
        let mut metered =
            MeteredRecords { inner: records, meter: &self.meter, run: None };
        if !self.audit {
            let n = (&mut metered).count() as u64;
            return Ok(n);
        }
        self.transport.post_stream(&mut metered)
    }

    /// Number of postings so far.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn len(&self) -> Result<usize, BoardError> {
        self.transport.len()
    }

    /// Whether the board is empty.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn is_empty(&self) -> Result<bool, BoardError> {
        Ok(self.len()? == 0)
    }

    /// Snapshot of all postings (clones).
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn postings(&self) -> Result<Vec<Posting<M>>, BoardError> {
        self.transport.read_from(0)
    }

    /// Snapshot of the postings made in `round` — `O(round size)`, via
    /// the transport's per-round index.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn postings_in_round(&self, round: u64) -> Result<Vec<Posting<M>>, BoardError> {
        self.transport.read_round(round)
    }

    /// Applies `f` to each posting without cloning (in-process
    /// backends iterate under the read lock).
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn for_each<F: FnMut(&Posting<M>)>(&self, mut f: F) -> Result<(), BoardError> {
        self.transport.for_each(&mut f)
    }

    /// Applies `f` to each posting of `round` without cloning and
    /// without scanning other rounds.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn for_each_in_round<F: FnMut(&Posting<M>)>(
        &self,
        round: u64,
        mut f: F,
    ) -> Result<(), BoardError> {
        self.transport.for_each_in_round(round, &mut f)
    }

    /// Drops all postings of sealed rounds before `round` — the
    /// streaming driver's **retention watermark**. Sequence numbers and
    /// the round clock are unaffected ([`Self::len`] keeps counting
    /// dropped postings, so cursor-synchronised readers are
    /// undisturbed), but reads that dip below the watermark fail with
    /// [`BoardError::Protocol`]. Backends without local storage ignore
    /// the request.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn retain_rounds_from(&self, round: u64) -> Result<(), BoardError> {
        self.transport.retain_rounds_from(round)
    }

    /// Opens a cursor-based subscription: each [`BoardCursor::poll`]
    /// returns only the postings appended since the previous poll, so
    /// a long-lived reader never re-clones history.
    pub fn subscribe(&self) -> BoardCursor<M> {
        BoardCursor { transport: Arc::clone(&self.transport), pos: 0 }
    }

    /// Blocks until the board holds at least `target` postings and
    /// returns the observed length. This is the worker-mode
    /// synchronization primitive: a role-sharded worker waits for the
    /// board to reach the canonical position of its next posting run
    /// before appending, so the global posting order is identical to a
    /// single-process run.
    ///
    /// Polls with a short spin-then-sleep backoff (the in-process
    /// backend resolves in the spin window; TCP backends settle into
    /// millisecond sleeps).
    ///
    /// # Errors
    ///
    /// Propagates transport failures, or [`BoardError::Protocol`] if
    /// `timeout` elapses first (a peer worker died or desynced).
    pub fn wait_len_at_least(
        &self,
        target: usize,
        // lint:allow(determinism): the timeout only bounds polling; no
        // wall-clock value is read into the posting log.
        timeout: std::time::Duration,
    ) -> Result<usize, BoardError> {
        wait_until(timeout, || {
            let len = self.len()?;
            Ok(if len >= target { Some(len) } else { None })
        })
        .map_err(|e| match e {
            WaitError::TimedOut => BoardError::Protocol(format!(
                "timed out waiting for board length >= {target} (a peer worker \
                 may have crashed or fallen behind)"
            )),
            WaitError::Board(b) => b,
        })
    }

    /// Blocks until the board's round clock reaches at least `round`
    /// and returns the observed round. Workers park here at each phase
    /// boundary: the round tick (issued by the leader worker once all
    /// of the round's postings have landed) *is* the YOSO handoff, so
    /// no side channel is needed to release the barrier.
    ///
    /// # Errors
    ///
    /// Propagates transport failures, or [`BoardError::Protocol`] if
    /// `timeout` elapses first.
    pub fn wait_round_at_least(
        &self,
        round: u64,
        // lint:allow(determinism): the timeout only bounds polling; no
        // wall-clock value is read into the posting log.
        timeout: std::time::Duration,
    ) -> Result<u64, BoardError> {
        wait_until(timeout, || {
            let r = self.round()?;
            Ok(if r >= round { Some(r) } else { None })
        })
        .map_err(|e| match e {
            WaitError::TimedOut => BoardError::Protocol(format!(
                "timed out waiting for board round >= {round} (the leader \
                 worker may have crashed before ticking the round clock)"
            )),
            WaitError::Board(b) => b,
        })
    }
}

/// Iterator adapter behind [`BulletinBoard::post_record_stream`]:
/// forwards records unchanged while folding consecutive equal-phase
/// records into one [`CommMeter::record_many`] call per run. The
/// trailing run is flushed when the inner iterator ends (and on drop,
/// so a transport that stops draining early still meters what it
/// consumed).
struct MeteredRecords<'a, M, I: Iterator<Item = PostRecord<M>>> {
    inner: I,
    meter: &'a CommMeter,
    run: Option<(Arc<str>, u64, u64, u64)>,
}

impl<M, I: Iterator<Item = PostRecord<M>>> MeteredRecords<'_, M, I> {
    fn flush_run(&mut self) {
        if let Some((phase, elements, bytes, count)) = self.run.take() {
            self.meter.record_many(&phase, elements, bytes, count);
        }
    }
}

impl<M, I: Iterator<Item = PostRecord<M>>> Iterator for MeteredRecords<'_, M, I> {
    type Item = PostRecord<M>;

    fn next(&mut self) -> Option<PostRecord<M>> {
        match self.inner.next() {
            Some(r) => {
                match &mut self.run {
                    Some((phase, elements, bytes, count))
                        if phase.as_ref() == r.phase.as_ref() =>
                    {
                        *elements += r.elements;
                        *bytes += r.bytes;
                        *count += 1;
                    }
                    _ => {
                        self.flush_run();
                        self.run =
                            Some((Arc::clone(&r.phase), r.elements, r.bytes, 1));
                    }
                }
                Some(r)
            }
            None => {
                self.flush_run();
                None
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<M, I: Iterator<Item = PostRecord<M>>> Drop for MeteredRecords<'_, M, I> {
    fn drop(&mut self) {
        self.flush_run();
    }
}

enum WaitError {
    TimedOut,
    Board(BoardError),
}

/// Polls `probe` with spin-then-sleep backoff until it yields a value
/// or `timeout` elapses. First ~64 probes yield the CPU only (the
/// in-process fast path), then sleeps escalate 1ms → 20ms.
fn wait_until<T>(
    // lint:allow(determinism): timing here decides only *when* we give
    // up waiting, never *what* gets posted — a run that doesn't time
    // out produces the same transcript regardless of poll timing.
    timeout: std::time::Duration,
    mut probe: impl FnMut() -> Result<Option<T>, BoardError>,
) -> Result<T, WaitError> {
    // lint:allow(determinism): see the `timeout` parameter — timeout
    // bookkeeping only, nothing time-derived reaches the board.
    use std::time::{Duration, Instant};
    let start = Instant::now();
    let mut spins = 0u32;
    loop {
        match probe().map_err(WaitError::Board)? {
            Some(v) => return Ok(v),
            None => {
                if start.elapsed() >= timeout {
                    return Err(WaitError::TimedOut);
                }
                if spins < 64 {
                    spins += 1;
                    std::thread::yield_now();
                } else {
                    let ms = (u64::from(spins) / 64).min(20);
                    spins = spins.saturating_add(64);
                    std::thread::sleep(Duration::from_millis(ms.max(1)));
                }
            }
        }
    }
}

/// Rebuilds per-phase communication stats from a posting log, in label
/// order — the cross-worker metering aggregation path. Every posting
/// carries its metered `elements`/`bytes`, so a reader holding the
/// full log (an auditor, or a worker whose local [`CommMeter`] saw
/// only its own share of the posts) reconstructs exactly what a
/// single-process [`CommMeter::phases`] would report.
pub fn phases_from_postings<M>(
    postings: &[Posting<M>],
) -> Vec<(String, crate::metrics::PhaseStats)> {
    let mut by_phase =
        std::collections::BTreeMap::<String, crate::metrics::PhaseStats>::new();
    for p in postings {
        let s = by_phase.entry(p.phase.to_string()).or_default();
        s.elements += p.elements;
        s.bytes += p.bytes;
        s.messages += 1;
    }
    by_phase.into_iter().collect()
}

/// The seed of the 64-bit FNV-1a hash over transcript lines.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV-1a multiplier.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental, clone-free replacement for
/// [`phases_from_postings`]: consumes board rounds as they seal,
/// folding each posting into per-phase communication stats and a
/// 64-bit FNV-1a hash of the canonical transcript line
/// (`round|from|phase|message`, the `board-stats --dump` format), so
/// a streaming driver never materializes the posting history. After a
/// [`drain_sealed`](Self::drain_sealed) the caller may hand the
/// consumed prefix to [`BulletinBoard::retain_rounds_from`] — the
/// accumulator never re-reads a round it has absorbed.
#[derive(Debug, Clone)]
pub struct PhaseAccumulator {
    by_phase: std::collections::BTreeMap<String, crate::metrics::PhaseStats>,
    next_round: u64,
    postings: u64,
    hash: u64,
    line: String,
}

impl Default for PhaseAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseAccumulator {
    /// An empty accumulator positioned before round 0.
    pub fn new() -> Self {
        PhaseAccumulator {
            by_phase: std::collections::BTreeMap::new(),
            next_round: 0,
            postings: 0,
            hash: FNV_OFFSET,
            line: String::new(),
        }
    }

    /// Folds one posting into the stats and the transcript hash.
    fn absorb<M: std::fmt::Debug>(&mut self, p: &Posting<M>) {
        use std::fmt::Write as _;
        let s = self.by_phase.entry(p.phase.to_string()).or_default();
        s.elements += p.elements;
        s.bytes += p.bytes;
        s.messages += 1;
        self.line.clear();
        let _ = writeln!(self.line, "{}|{}|{}|{:?}", p.round, p.from, p.phase, p.message);
        for &b in self.line.as_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.postings += 1;
    }

    /// Consumes every sealed round not yet absorbed (clone-free) and
    /// returns the board's current (still open) round. The caller must
    /// guarantee those rounds are complete — in the engine this holds
    /// at stage boundaries, after the round-advance barrier.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn drain_sealed<M: Clone + Send + Sync + std::fmt::Debug + 'static>(
        &mut self,
        board: &BulletinBoard<M>,
    ) -> Result<u64, BoardError> {
        let open = board.round()?;
        while self.next_round < open {
            let round = self.next_round;
            board.for_each_in_round(round, |p| self.absorb(p))?;
            self.next_round += 1;
        }
        Ok(open)
    }

    /// Consumes the sealed rounds *and* the currently open round — the
    /// end-of-run drain, after the final post.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn finish<M: Clone + Send + Sync + std::fmt::Debug + 'static>(
        &mut self,
        board: &BulletinBoard<M>,
    ) -> Result<(), BoardError> {
        let open = self.drain_sealed(board)?;
        board.for_each_in_round(open, |p| self.absorb(p))?;
        self.next_round = open + 1;
        Ok(())
    }

    /// The first round not yet absorbed — the retention watermark to
    /// pass to [`BulletinBoard::retain_rounds_from`].
    pub fn next_round(&self) -> u64 {
        self.next_round
    }

    /// Number of postings absorbed so far.
    pub fn postings(&self) -> u64 {
        self.postings
    }

    /// The FNV-1a 64 hash of every absorbed transcript line.
    pub fn transcript_hash(&self) -> u64 {
        self.hash
    }

    /// Per-phase stats in label order — the same shape
    /// [`phases_from_postings`] returns from a materialized log.
    pub fn phases(&self) -> Vec<(String, crate::metrics::PhaseStats)> {
        self.by_phase.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }
}

/// A stateful reader over a board transport: remembers how far it has
/// read and fetches only the suffix on each poll.
pub struct BoardCursor<M> {
    transport: Arc<dyn BoardTransport<M>>,
    pos: usize,
}

impl<M> std::fmt::Debug for BoardCursor<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoardCursor")
            .field("backend", &self.transport.backend_name())
            .field("pos", &self.pos)
            .finish_non_exhaustive()
    }
}

impl<M> BoardCursor<M> {
    /// Postings appended since the last poll (empty if none).
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn poll(&mut self) -> Result<Vec<Posting<M>>, BoardError> {
        let batch = self.transport.read_from(self.pos)?;
        self.pos += batch.len();
        Ok(batch)
    }

    /// Number of postings consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_and_read_back() {
        let board: BulletinBoard<String> = BulletinBoard::new();
        assert!(board.is_empty().unwrap());
        board.post(RoleId::new("c1", 0), "hello".into(), "offline", 2, 16).unwrap();
        board.advance_round().unwrap();
        board.post(RoleId::new("c1", 1), "world".into(), "online", 1, 8).unwrap();
        assert_eq!(board.len().unwrap(), 2);
        assert_eq!(board.round().unwrap(), 1);
        let r0 = board.postings_in_round(0).unwrap();
        assert_eq!(r0.len(), 1);
        assert_eq!(r0[0].message, "hello");
        assert_eq!(r0[0].elements, 2);
        let r1 = board.postings_in_round(1).unwrap();
        assert_eq!(r1[0].from, RoleId::new("c1", 1));
    }

    #[test]
    fn metering_accumulates() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        board.post(RoleId::new("c", 0), 1, "offline", 3, 24).unwrap();
        board.post(RoleId::new("c", 1), 2, "offline", 5, 40).unwrap();
        board.post(RoleId::new("c", 2), 3, "online", 1, 8).unwrap();
        let stats = board.meter().phase("offline");
        assert_eq!(stats.elements, 8);
        assert_eq!(stats.bytes, 64);
        assert_eq!(stats.messages, 2);
        assert_eq!(board.meter().phase("online").elements, 1);
        assert_eq!(board.meter().total().elements, 9);
    }

    #[test]
    fn board_clones_share_state() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        let board2 = board.clone();
        board.post(RoleId::new("c", 0), 7, "x", 1, 8).unwrap();
        assert_eq!(board2.len().unwrap(), 1);
        assert_eq!(board2.meter().total().elements, 1);
    }

    #[test]
    fn post_batch_matches_per_post_metering_and_log() {
        let a: BulletinBoard<u64> = BulletinBoard::new();
        let b: BulletinBoard<u64> = BulletinBoard::new();
        let from = RoleId::new("c", 3);
        for m in 0..5u64 {
            a.post(from.clone(), m, "offline/x", 2, 16).unwrap();
        }
        b.post_batch(from, "offline/x", &[0, 1, 2, 3, 4], 2, 16).unwrap();
        assert_eq!(a.meter().phase("offline/x"), b.meter().phase("offline/x"));
        let (pa, pb) = (a.postings().unwrap(), b.postings().unwrap());
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(pb.iter()) {
            assert_eq!((x.round, &x.from, &*x.phase, x.message), (y.round, &y.from, &*y.phase, y.message));
        }
    }

    #[test]
    fn post_records_mixed_phases_meter_correctly() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        let recs = vec![
            PostRecord {
                from: RoleId::new("c", 0),
                phase: Arc::from("a"),
                message: 1,
                elements: 2,
                bytes: 16,
            },
            PostRecord {
                from: RoleId::new("c", 1),
                phase: Arc::from("a"),
                message: 2,
                elements: 3,
                bytes: 24,
            },
            PostRecord {
                from: RoleId::new("c", 2),
                phase: Arc::from("b"),
                message: 3,
                elements: 1,
                bytes: 8,
            },
        ];
        board.post_records(recs).unwrap();
        assert_eq!(board.meter().phase("a").elements, 5);
        assert_eq!(board.meter().phase("a").messages, 2);
        assert_eq!(board.meter().phase("b").bytes, 8);
        assert_eq!(board.len().unwrap(), 3);
    }

    #[test]
    fn post_record_stream_matches_vec_flush() {
        let rec = |i: usize, phase: &str| PostRecord {
            from: RoleId::new("c", i),
            phase: Arc::from(phase),
            message: i as u64,
            elements: 2,
            bytes: 16,
        };
        let a: BulletinBoard<u64> = BulletinBoard::new();
        let b: BulletinBoard<u64> = BulletinBoard::new();
        let records = vec![rec(0, "a"), rec(1, "a"), rec(2, "b"), rec(3, "a")];
        a.post_records(records.clone()).unwrap();
        let n = b.post_record_stream(records.into_iter()).unwrap();
        assert_eq!(n, 4);
        assert_eq!(a.meter().phases(), b.meter().phases());
        assert_eq!(a.meter().phase("a").messages, 3);
        let (pa, pb) = (a.postings().unwrap(), b.postings().unwrap());
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(pb.iter()) {
            assert_eq!((x.round, &x.from, &*x.phase, x.message), (y.round, &y.from, &*y.phase, y.message));
        }
    }

    #[test]
    fn phase_accumulator_matches_materialized_log_and_survives_retention() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        let mut acc = PhaseAccumulator::new();
        for round in 0..3u64 {
            for i in 0..4usize {
                board
                    .post(RoleId::new("c", i), round * 10 + i as u64, "offline/x", 2, 16)
                    .unwrap();
            }
            board.advance_round().unwrap();
            // Drain the sealed rounds and drop them behind the
            // watermark: the accumulator never re-reads them.
            acc.drain_sealed(&board).unwrap();
            board.retain_rounds_from(acc.next_round()).unwrap();
        }
        board.post(RoleId::new("c", 9), 99, "online/y", 1, 8).unwrap();
        acc.finish(&board).unwrap();

        // Reference: the same postings on a fully materialized board.
        let full: BulletinBoard<u64> = BulletinBoard::new();
        let mut full_acc = PhaseAccumulator::new();
        for round in 0..3u64 {
            for i in 0..4usize {
                full.post(RoleId::new("c", i), round * 10 + i as u64, "offline/x", 2, 16)
                    .unwrap();
            }
            full.advance_round().unwrap();
        }
        full.post(RoleId::new("c", 9), 99, "online/y", 1, 8).unwrap();
        full_acc.finish(&full).unwrap();

        assert_eq!(acc.phases(), phases_from_postings(&full.postings().unwrap()));
        assert_eq!(acc.postings(), 13);
        assert_eq!(acc.transcript_hash(), full_acc.transcript_hash());

        // The hash covers payloads: one changed message diverges.
        let other: BulletinBoard<u64> = BulletinBoard::new();
        let mut other_acc = PhaseAccumulator::new();
        other.post(RoleId::new("c", 9), 98, "online/y", 1, 8).unwrap();
        other_acc.finish(&other).unwrap();
        let mut same_acc = PhaseAccumulator::new();
        let same: BulletinBoard<u64> = BulletinBoard::new();
        same.post(RoleId::new("c", 9), 98, "online/y", 1, 8).unwrap();
        same_acc.finish(&same).unwrap();
        assert_eq!(other_acc.transcript_hash(), same_acc.transcript_hash());
        assert_ne!(other_acc.transcript_hash(), acc.transcript_hash());
    }

    #[test]
    fn metered_only_skips_storage_but_counts() {
        let board: BulletinBoard<u64> = BulletinBoard::metered_only();
        board.post(RoleId::new("c", 0), 1, "x", 4, 32).unwrap();
        board.post_batch(RoleId::new("c", 1), "x", &[0, 1, 2], 1, 8).unwrap();
        assert_eq!(board.len().unwrap(), 0);
        assert_eq!(board.meter().phase("x").messages, 4);
        assert_eq!(board.meter().phase("x").elements, 7);
    }

    #[test]
    fn wait_len_returns_immediately_when_satisfied() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        board.post(RoleId::new("c", 0), 1, "x", 1, 8).unwrap();
        let len = board
            .wait_len_at_least(1, std::time::Duration::from_secs(5))
            .unwrap();
        assert_eq!(len, 1);
    }

    #[test]
    fn wait_len_times_out_with_protocol_error() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        let err = board
            .wait_len_at_least(1, std::time::Duration::from_millis(10))
            .unwrap_err();
        assert!(matches!(err, BoardError::Protocol(_)));
    }

    #[test]
    fn wait_round_unblocks_on_cross_thread_tick() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        let clone = board.clone();
        std::thread::scope(|s| {
            let waiter = s.spawn(move || {
                clone.wait_round_at_least(2, std::time::Duration::from_secs(30))
            });
            board.advance_round().unwrap();
            board.advance_round().unwrap();
            assert_eq!(waiter.join().unwrap().unwrap(), 2);
        });
    }

    #[test]
    fn phases_from_postings_matches_meter() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        board.post(RoleId::new("c", 0), 1, "b/phase", 3, 24).unwrap();
        board.post(RoleId::new("c", 1), 2, "a/phase", 2, 16).unwrap();
        board.post(RoleId::new("c", 2), 3, "a/phase", 5, 40).unwrap();
        let rebuilt = phases_from_postings(&board.postings().unwrap());
        assert_eq!(rebuilt, board.meter().phases());
    }

    #[test]
    fn cursor_subscription_sees_only_new_posts() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        let mut cur = board.subscribe();
        board.post(RoleId::new("c", 0), 1, "x", 1, 8).unwrap();
        assert_eq!(cur.poll().unwrap().len(), 1);
        assert!(cur.poll().unwrap().is_empty());
        board.post_batch(RoleId::new("c", 1), "x", &[0, 1, 2, 3], 1, 8).unwrap();
        let batch = cur.poll().unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(cur.position(), 5);
    }
}
