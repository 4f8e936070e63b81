//! The traced run's board layer: a [`BoardTransport`] wrapper that
//! times every call into the real transport and attributes wall time
//! to protocol steps along the board timeline.
//!
//! Step attribution: within a stage, the interval between consecutive
//! post calls is charged to the later call's phase label (the work that
//! produced a post happened since the previous one). Whatever follows a
//! stage's last post is that stage's `tail`. The stage boundaries come
//! from the stage runner ([`Tracer::begin_stage`] / [`Tracer::end_stage`]),
//! so the steps of a stage plus its tail add up to the stage time the
//! runner measured, and the difference is reported as a residual.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use yoso_runtime::{BoardError, BoardTransport, PostRecord, Posting, RoleId};

/// Post calls are additionally counted per step for these labels: the
/// steps whose call pattern (one record per call, or one huge flush)
/// decides board cost.
pub const COUNTED_STEPS: [&str; 3] = [
    "offline/3-dependent",
    "offline/6-reenc-shares",
    "online/1-keydist",
];

/// Counters and step times gathered by one traced run.
#[derive(Debug, Default, Clone)]
pub struct TraceTotals {
    /// Seconds charged to each phase label (board-timeline attribution).
    pub steps: BTreeMap<String, f64>,
    /// Seconds after each stage's last post.
    pub tails: BTreeMap<&'static str, f64>,
    /// Stage time as measured by the stage runner, per stage.
    pub stages: BTreeMap<&'static str, f64>,
    /// Post calls into the transport.
    pub post_calls: u64,
    /// Post calls per phase label (label of the call's last record).
    pub post_calls_by_step: BTreeMap<String, u64>,
    /// Records posted.
    pub posts: u64,
    /// Metered bytes posted.
    pub posted_bytes: u64,
    /// Seconds spent inside post calls.
    pub post_busy_s: f64,
    /// Read calls (`read_round`, `read_from`, `for_each*`).
    pub read_calls: u64,
    /// Seconds spent inside read calls.
    pub read_busy_s: f64,
    /// Read calls that returned an error.
    pub read_failures: u64,
    /// Round advances.
    pub rounds: u64,
    /// Phase labels posted in each round.
    pub round_labels: BTreeMap<u64, BTreeSet<String>>,
}

impl TraceTotals {
    /// Seconds charged to steps whose label belongs to `stage` (the
    /// label equals the stage or starts with `stage/`).
    pub fn stage_steps(&self, stage: &str) -> f64 {
        self.steps
            .iter()
            .filter(|(l, _)| stage_of(l) == stage)
            .map(|(_, s)| s)
            .sum()
    }

    /// Runner-measured stage time minus its steps and tail.
    pub fn residual(&self, stage: &'static str) -> f64 {
        self.stages.get(stage).copied().unwrap_or(0.0)
            - self.stage_steps(stage)
            - self.tails.get(stage).copied().unwrap_or(0.0)
    }
}

/// The stage a phase label belongs to: `offline/4-pack` → `offline`,
/// `setup/dkg` and `setup-rekey` → `setup`.
pub fn stage_of(label: &str) -> &str {
    let head = label.split('/').next().unwrap_or(label);
    head.split('-').next().unwrap_or(head)
}

#[derive(Debug, Default)]
struct State {
    totals: TraceTotals,
    /// End of the previous post call (or the current stage's start);
    /// `None` outside stages.
    mark: Option<Instant>,
    /// A step name that overrides the posts' phase labels.
    relabel: Option<&'static str>,
}

/// Shared timeline of a traced run.
#[derive(Debug, Default)]
pub struct Tracer {
    state: Mutex<State>,
}

impl Tracer {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Marks the start of a stage.
    pub fn begin_stage(&self) {
        self.lock().mark = Some(Instant::now());
    }

    /// Marks the end of `stage`, which the stage runner measured as `secs`;
    /// the time since the last post becomes the stage's tail.
    pub fn end_stage(&self, stage: &'static str, secs: f64) {
        let now = Instant::now();
        let mut s = self.lock();
        if let Some(mark) = s.mark.take() {
            *s.totals.tails.entry(stage).or_default() += now.duration_since(mark).as_secs_f64();
        }
        *s.totals.stages.entry(stage).or_default() += secs;
    }

    /// Charges posts to `step` instead of their phase label until
    /// called again with `None` (the rekey posts under `setup`).
    pub fn relabel(&self, step: Option<&'static str>) {
        self.lock().relabel = step;
    }

    /// A snapshot of everything recorded so far.
    pub fn totals(&self) -> TraceTotals {
        self.lock().totals.clone()
    }

    fn note_post(&self, start: Instant, label: Option<&str>, records: u64, bytes: u64) {
        let end = Instant::now();
        let mut s = self.lock();
        let label = label.unwrap_or("(empty)");
        let round = s.totals.rounds;
        let labels = s.totals.round_labels.entry(round).or_default();
        if !labels.contains(label) {
            labels.insert(label.to_string());
        }
        let label = s.relabel.unwrap_or(label);
        if let Some(mark) = s.mark.replace(end) {
            let dt = end.duration_since(mark).as_secs_f64();
            *s.totals.steps.entry(label.to_string()).or_default() += dt;
        }
        let t = &mut s.totals;
        t.post_calls += 1;
        t.posts += records;
        t.posted_bytes += bytes;
        t.post_busy_s += end.duration_since(start).as_secs_f64();
        if COUNTED_STEPS.contains(&label) {
            *t.post_calls_by_step.entry(label.to_string()).or_default() += 1;
        }
    }

    fn note_read<T>(&self, start: Instant, result: &Result<T, BoardError>) {
        let dt = start.elapsed().as_secs_f64();
        let mut s = self.lock();
        s.totals.read_calls += 1;
        s.totals.read_busy_s += dt;
        if result.is_err() {
            s.totals.read_failures += 1;
        }
    }
}

/// The timing layer: forwards every call to `inner` and reports it to
/// the [`Tracer`].
pub struct TimedTransport<M> {
    inner: Arc<dyn BoardTransport<M>>,
    tracer: Arc<Tracer>,
}

impl<M> TimedTransport<M> {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn BoardTransport<M>>, tracer: Arc<Tracer>) -> Self {
        TimedTransport { inner, tracer }
    }
}

/// Counts the records and bytes of a posted stream and remembers the
/// last record's phase label.
struct Counting<'a, M> {
    inner: &'a mut dyn Iterator<Item = PostRecord<M>>,
    records: u64,
    bytes: u64,
    last: Option<Arc<str>>,
}

impl<M> Iterator for Counting<'_, M> {
    type Item = PostRecord<M>;
    fn next(&mut self) -> Option<PostRecord<M>> {
        let r = self.inner.next()?;
        self.records += 1;
        self.bytes += r.bytes;
        if self.last.as_ref() != Some(&r.phase) {
            self.last = Some(Arc::clone(&r.phase));
        }
        Some(r)
    }
}

impl<M: Send + Sync> BoardTransport<M> for TimedTransport<M> {
    fn post_batch(&self, records: Vec<PostRecord<M>>) -> Result<(), BoardError> {
        let start = Instant::now();
        let n = records.len() as u64;
        let bytes = records.iter().map(|r| r.bytes).sum();
        let label = records.last().map(|r| Arc::clone(&r.phase));
        let out = self.inner.post_batch(records);
        self.tracer.note_post(start, label.as_deref(), n, bytes);
        out
    }

    fn post_stream(
        &self,
        records: &mut dyn Iterator<Item = PostRecord<M>>,
    ) -> Result<u64, BoardError> {
        let start = Instant::now();
        let mut counting = Counting {
            inner: records,
            records: 0,
            bytes: 0,
            last: None,
        };
        let out = self.inner.post_stream(&mut counting);
        let Counting {
            records,
            bytes,
            last,
            ..
        } = counting;
        self.tracer
            .note_post(start, last.as_deref(), records, bytes);
        out
    }

    fn post_slice(
        &self,
        from: &RoleId,
        phase: &Arc<str>,
        messages: &[M],
        elements: u64,
        bytes: u64,
    ) -> Result<(), BoardError>
    where
        M: Clone,
    {
        let start = Instant::now();
        let out = self
            .inner
            .post_slice(from, phase, messages, elements, bytes);
        let n = messages.len() as u64;
        self.tracer.note_post(start, Some(phase), n, bytes * n);
        out
    }

    fn advance_round(&self) -> Result<u64, BoardError> {
        let out = self.inner.advance_round();
        self.tracer.lock().totals.rounds += 1;
        out
    }

    fn round(&self) -> Result<u64, BoardError> {
        self.inner.round()
    }

    fn len(&self) -> Result<usize, BoardError> {
        self.inner.len()
    }

    fn read_round(&self, round: u64) -> Result<Vec<Posting<M>>, BoardError> {
        let start = Instant::now();
        let out = self.inner.read_round(round);
        self.tracer.note_read(start, &out);
        out
    }

    fn read_from(&self, cursor: usize) -> Result<Vec<Posting<M>>, BoardError> {
        let start = Instant::now();
        let out = self.inner.read_from(cursor);
        self.tracer.note_read(start, &out);
        out
    }

    fn for_each(&self, f: &mut dyn FnMut(&Posting<M>)) -> Result<(), BoardError> {
        let start = Instant::now();
        let out = self.inner.for_each(f);
        self.tracer.note_read(start, &out);
        out
    }

    fn for_each_in_round(
        &self,
        round: u64,
        f: &mut dyn FnMut(&Posting<M>),
    ) -> Result<(), BoardError> {
        let start = Instant::now();
        let out = self.inner.for_each_in_round(round, f);
        self.tracer.note_read(start, &out);
        out
    }

    fn retain_rounds_from(&self, round: u64) -> Result<(), BoardError> {
        self.inner.retain_rounds_from(round)
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

#[cfg(test)]
mod tests {
    use super::stage_of;

    #[test]
    fn labels_map_to_their_stage() {
        assert_eq!(stage_of("offline/4-pack"), "offline");
        assert_eq!(stage_of("offline/handover"), "offline");
        assert_eq!(stage_of("online/1-keydist"), "online");
        assert_eq!(stage_of("setup"), "setup");
        assert_eq!(stage_of("setup/dkg"), "setup");
        assert_eq!(stage_of("setup-rekey"), "setup");
    }
}
