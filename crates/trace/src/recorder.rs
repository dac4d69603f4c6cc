//! The flight recorder: the workspace's one per-thread event ring.
//!
//! Every span transition, [`crate::Telemetry::event`], degradation,
//! budget trip, fault fire, contained panic and store action lands
//! here, with all opt-in telemetry **off**, so a failure always leaves
//! a black-box record to dump. Incident dumps, slow-request captures
//! and the Chrome traces of [`crate::timeline`] are all views over the
//! same records.
//!
//! # Detail level
//!
//! The ring is always on at coarse detail: each thread keeps its most
//! recent [`RING_CAP`] records. `GEF_PROF`
//! ([`crate::timeline::prof_enabled`]) raises the detail level:
//! capacity grows to [`PROF_CAP`], gef-par records a span per task
//! (fields `region`, `chunk`, `of`), and spans sample
//! `heap.in_use_bytes` as [`Kind::Counter`] records when the tracking
//! allocator is installed. At either level a full ring overwrites its
//! *oldest* record and counts it, so memory stays bounded and what
//! survives is the most recent window of activity.
//!
//! # Cost model
//!
//! Each append takes the calling thread's own uncontended mutex,
//! stamps a timestamp and a global sequence number, and pushes into
//! the ring, reusing the buffers of the record it overwrites: fixed
//! cost, no I/O. The only cross-thread contention is a snapshot (dump
//! or export time) and first-use registration.
//!
//! # Disabling
//!
//! The `noop` cargo feature pins [`active`] to a constant `false`,
//! compiling every hook away (same contract as [`crate::enabled`]).
//! [`set_suppressed`] is a runtime kill switch used by tests to prove
//! that recording does not perturb pipeline outputs (recorder-on vs
//! suppressed runs must be bit-identical).
//!
//! # Thread ids
//!
//! Tids are logical, not OS ids, so the same worker index is the same
//! track at any `GEF_THREADS`: gef-par worker `k` is `tid = k + 1` (via
//! [`register_worker`]), the first unregistered thread to record claims
//! `tid = 0` (`main`), later unregistered threads get `tid = 1000 + n`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Ring capacity per thread at coarse detail. On overflow the *oldest*
/// record is overwritten (and counted), so each thread always holds
/// its most recent records.
pub const RING_CAP: usize = 256;

/// Ring capacity per thread while `GEF_PROF` raises the detail level.
pub const PROF_CAP: usize = 1 << 16;

/// What kind of activity a [`Record`] captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kind {
    /// A [`crate::Telemetry::event`] mirror.
    #[default]
    Event,
    /// A [`crate::Span`] or (at `GEF_PROF` detail) a gef-par task was
    /// entered.
    SpanBegin,
    /// A span or task closed.
    SpanEnd,
    /// A degradation-ladder step (gef-core recovery).
    Degradation,
    /// A budget transition (hard/soft deadline first exceeded).
    Budget,
    /// An armed fault-injection site fired.
    Fault,
    /// A contained worker/task panic.
    Panic,
    /// An artifact-store durability action (quarantine, recovery,
    /// cache eviction, incident pruning — from gef-store/gef-core).
    Store,
    /// A counter sample (`GEF_PROF` detail): the named track shows the
    /// record's `value` field from its timestamp on.
    Counter,
}

impl Kind {
    /// Stable lowercase label used in incident-dump JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Kind::Event => "event",
            Kind::SpanBegin => "span_begin",
            Kind::SpanEnd => "span_end",
            Kind::Degradation => "degradation",
            Kind::Budget => "budget",
            Kind::Fault => "fault",
            Kind::Panic => "panic",
            Kind::Store => "store",
            Kind::Counter => "counter",
        }
    }
}

/// One recorded activity, as returned by [`snapshot_last`] (thread
/// identity as the ring had it at append time).
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// Activity kind.
    pub kind: Kind,
    /// Logical thread id (see module docs).
    pub tid: u64,
    /// Logical thread name (`main`, `gef-par-0`, `thread-1`, …).
    pub thread: Arc<str>,
    /// Nanoseconds since the recorder's process-wide epoch.
    pub ts_ns: u64,
    /// Global sequence number (total order tie-break).
    pub seq: u64,
    /// Record name (event name, span name, degradation action, site, …).
    pub name: String,
    /// Numeric fields, when the source carried any.
    pub fields: Vec<(String, f64)>,
    /// Free-text payload (degradation cause, panic message, …).
    pub detail: Option<String>,
    /// Trace id of the request context active when the record was
    /// appended ([`crate::ctx`]); `0` outside any request scope.
    pub trace: u64,
}

struct Ring {
    tid: u64,
    name: Arc<str>,
    events: VecDeque<Record>,
    overwritten: u64,
}

impl Ring {
    /// Append a record, overwriting the oldest one when the ring is
    /// full. The overwritten record's buffers are reused, so a full ring
    /// appends a name and fields without allocating.
    fn push(&mut self, kind: Kind, name: &str, fields: &[(&str, f64)], detail: Option<&str>) {
        let cap = if crate::timeline::prof_enabled() {
            PROF_CAP
        } else {
            RING_CAP
        };
        // A ring filled at profiling detail shrinks back to RING_CAP on
        // its first append after GEF_PROF turns off.
        while self.events.len() > cap {
            self.events.pop_front();
            self.overwritten += 1;
        }
        let recycled = if self.events.len() == cap {
            self.overwritten += 1;
            self.events.pop_front()
        } else {
            None
        };
        let mut ev = recycled.unwrap_or_default();
        ev.kind = kind;
        ev.tid = self.tid;
        // A recycled record usually names this ring already; skipping
        // the clone keeps two atomic ops off every append.
        if !Arc::ptr_eq(&ev.thread, &self.name) {
            ev.thread = Arc::clone(&self.name);
        }
        ev.ts_ns = now_ns();
        ev.seq = SEQ.fetch_add(1, Ordering::Relaxed);
        ev.name.clear();
        ev.name.push_str(name);
        ev.fields.clear();
        ev.fields
            .extend(fields.iter().map(|(k, v)| (k.to_string(), *v)));
        ev.detail = detail.map(str::to_string);
        ev.trace = crate::ctx::current_id();
        self.events.push_back(ev);
    }
}

type SharedRing = Arc<Mutex<Ring>>;

fn registry() -> &'static Mutex<Vec<SharedRing>> {
    static REGISTRY: OnceLock<Mutex<Vec<SharedRing>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

static SUPPRESSED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);

// First unregistered thread claims tid 0 ("main"); later unregistered
// threads get 1000, 1001, …
static MAIN_CLAIMED: AtomicBool = AtomicBool::new(false);
static EXTRA_TID: AtomicU64 = AtomicU64::new(1000);

/// The recorder's monotonic origin (independent of the budget clock;
/// first use wins).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    static REC_RING: RefCell<Option<SharedRing>> = const { RefCell::new(None) };
}

fn worker_identity(k: usize) -> (u64, Arc<str>) {
    ((k as u64) + 1, format!("gef-par-{k}").into())
}

fn new_ring(worker: Option<usize>) -> SharedRing {
    let (tid, name) = match worker {
        Some(k) => worker_identity(k),
        None => {
            if !MAIN_CLAIMED.swap(true, Ordering::Relaxed) {
                (0, "main".into())
            } else {
                let tid = EXTRA_TID.fetch_add(1, Ordering::Relaxed);
                (tid, format!("thread-{}", tid - 1000).into())
            }
        }
    };
    let ring = Arc::new(Mutex::new(Ring {
        tid,
        name,
        events: VecDeque::with_capacity(RING_CAP),
        overwritten: 0,
    }));
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(Arc::clone(&ring));
    ring
}

fn append(kind: Kind, name: &str, fields: &[(&str, f64)], detail: Option<&str>) {
    REC_RING.with(|tl| {
        let mut slot = tl.borrow_mut();
        let arc = slot.get_or_insert_with(|| new_ring(None));
        let mut ring = arc.lock().unwrap_or_else(|e| e.into_inner());
        ring.push(kind, name, fields, detail);
    });
}

/// Whether the recorder is currently recording.
///
/// Constant `false` under the `noop` cargo feature (hooks compile
/// away); otherwise `true` unless [`set_suppressed`] turned recording
/// off at runtime. One relaxed atomic load.
#[inline(always)]
pub fn active() -> bool {
    if cfg!(feature = "noop") {
        return false;
    }
    !SUPPRESSED.load(Ordering::Relaxed)
}

/// Runtime kill switch: `true` stops all recording (hooks become a
/// single atomic load) until re-enabled.
///
/// The recorder is meant to be always on; this exists so tests can
/// assert pipeline outputs are bit-identical with recording on vs off
/// within one binary.
pub fn set_suppressed(on: bool) {
    SUPPRESSED.store(on, Ordering::Relaxed);
}

/// Record an activity with numeric fields. No-op while [`active`] is
/// false.
#[inline]
pub fn record(kind: Kind, name: &str, fields: &[(&str, f64)]) {
    if active() {
        append(kind, name, fields, None);
    }
}

/// Record an activity with a free-text payload (degradation cause,
/// panic message, …). No-op while [`active`] is false.
#[inline]
pub fn note(kind: Kind, name: &str, detail: &str) {
    if active() {
        append(kind, name, &[], Some(detail));
    }
}

/// Record a span entry on this thread, with optional numeric fields
/// (gef-par tasks carry `region`/`chunk`/`of`); pair with [`span_end`].
///
/// Returns whether the entry was recorded — callers must invoke
/// [`span_end`] on close exactly when this returned `true`, so every
/// thread's begins and ends stay balanced.
#[inline]
#[must_use = "call span_end on close iff this returned true"]
pub fn span_begin(name: &str, fields: &[(&str, f64)]) -> bool {
    let on = active();
    if on {
        append(Kind::SpanBegin, name, fields, None);
    }
    on
}

/// Record the close of span `name`, opened on this thread with
/// [`span_begin`].
#[inline]
pub fn span_end(name: &str) {
    append(Kind::SpanEnd, name, &[], None);
}

/// Bind the calling thread to logical worker id `index` (gef-par spawn
/// order): its ring records as `tid = index + 1`, named
/// `gef-par-<index>`. Called once by the gef-par pool at worker spawn.
pub fn register_worker(index: usize) {
    REC_RING.with(|tl| {
        let mut slot = tl.borrow_mut();
        match slot.as_ref() {
            Some(arc) => {
                let mut ring = arc.lock().unwrap_or_else(|e| e.into_inner());
                (ring.tid, ring.name) = worker_identity(index);
            }
            None => *slot = Some(new_ring(Some(index))),
        }
    });
}

/// The most recent `n` records across all threads, merged into one
/// globally ordered view (by timestamp, tie-broken by sequence
/// number). This is the incident-dump drain.
pub fn snapshot_last(n: usize) -> Vec<Record> {
    snapshot_filtered(n, None)
}

/// Like [`snapshot_last`], but keeping only records stamped with
/// `trace` — the slice one request left across every thread's ring.
/// This is what slow-request captures drain.
pub fn snapshot_trace(n: usize, trace: u64) -> Vec<Record> {
    snapshot_filtered(n, Some(trace))
}

fn snapshot_filtered(n: usize, trace: Option<u64>) -> Vec<Record> {
    let mut merged: Vec<Record> = Vec::new();
    for ring in registry().lock().unwrap_or_else(|e| e.into_inner()).iter() {
        let r = ring.lock().unwrap_or_else(|e| e.into_inner());
        // Each ring is in (ts_ns, seq) order, so the global last `n`
        // are among every ring's own last `n`.
        merged.extend(
            r.events
                .iter()
                .rev()
                .filter(|e| trace.is_none_or(|t| e.trace == t))
                .take(n)
                .cloned(),
        );
    }
    merged.sort_by_key(|r| (r.ts_ns, r.seq));
    if merged.len() > n {
        merged.drain(..merged.len() - n);
    }
    merged
}

fn sum_rings(f: impl Fn(&Ring) -> u64) -> u64 {
    let rings = registry().lock().unwrap_or_else(|e| e.into_inner());
    rings
        .iter()
        .map(|r| f(&r.lock().unwrap_or_else(|e| e.into_inner())))
        .sum()
}

/// Total records currently held across all threads.
pub fn event_count() -> usize {
    sum_rings(|r| r.events.len() as u64) as usize
}

/// Total records overwritten (full rings) across all threads since the
/// last [`reset`].
pub fn overwritten_total() -> u64 {
    sum_rings(|r| r.overwritten)
}

/// Sorted logical thread ids that currently hold at least one record.
pub fn tids_with_events() -> Vec<u64> {
    let rings = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut tids: Vec<u64> = rings
        .iter()
        .map(|r| r.lock().unwrap_or_else(|e| e.into_inner()))
        .filter(|r| !r.events.is_empty())
        .map(|r| r.tid)
        .collect();
    tids.sort_unstable();
    tids.dedup();
    tids
}

/// Clear every thread's records and overwrite counts (thread/tid
/// registrations and open spans are kept). Used by tests, by sweeps
/// that archive one incident per schedule, and to scope a profile.
pub fn reset() {
    let rings = registry().lock().unwrap_or_else(|e| e.into_inner());
    for ring in rings.iter() {
        let mut r = ring.lock().unwrap_or_else(|e| e.into_inner());
        r.events.clear();
        r.overwritten = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // Rings are process-global and other in-crate tests record spans
    // and events into them; serialise on the crate-wide test lock.
    use crate::TEST_LOCK;

    fn with_recorder<T>(f: impl FnOnce() -> T) -> T {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_suppressed(false);
        reset();
        let out = f();
        reset();
        out
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        with_recorder(|| {
            for i in 0..(RING_CAP + 10) {
                record(Kind::Event, "flood", &[("i", i as f64)]);
            }
            let snap = snapshot_last(usize::MAX);
            let mine: Vec<&Record> = snap.iter().filter(|r| r.name == "flood").collect();
            assert_eq!(mine.len(), RING_CAP);
            assert!(overwritten_total() >= 10);
            // Drop-oldest: the first surviving record is number 10, the
            // last is the final append.
            assert_eq!(mine[0].fields[0].1, 10.0);
            assert_eq!(mine[mine.len() - 1].fields[0].1, (RING_CAP + 10 - 1) as f64);
        });
    }

    #[test]
    fn profiling_detail_raises_capacity_and_coarse_trims_back() {
        with_recorder(|| {
            crate::timeline::set_prof_enabled(true);
            for _ in 0..(RING_CAP * 2) {
                record(Kind::Event, "wide", &[]);
            }
            let kept = |name: &str| {
                snapshot_last(usize::MAX)
                    .iter()
                    .filter(|r| r.name == name)
                    .count()
            };
            assert_eq!(kept("wide"), RING_CAP * 2, "PROF_CAP holds them all");
            crate::timeline::set_prof_enabled(false);
            record(Kind::Event, "narrow", &[]);
            assert_eq!(kept("wide") + kept("narrow"), RING_CAP);
        });
    }

    #[test]
    fn suppressed_records_nothing() {
        with_recorder(|| {
            set_suppressed(true);
            assert!(!active());
            record(Kind::Event, "ghost", &[]);
            note(Kind::Panic, "ghost.note", "boom");
            assert!(!span_begin("ghost.span", &[]));
            set_suppressed(false);
            assert!(snapshot_last(usize::MAX)
                .iter()
                .all(|r| !r.name.starts_with("ghost")));
        });
    }

    #[test]
    fn span_transitions_carry_names_and_fields() {
        with_recorder(|| {
            assert!(span_begin("outer", &[]));
            assert!(span_begin("inner", &[("chunk", 3.0)]));
            span_end("inner");
            span_end("outer");
            let spans: Vec<(Kind, String, usize)> = snapshot_last(usize::MAX)
                .into_iter()
                .filter(|r| r.name == "outer" || r.name == "inner")
                .map(|r| (r.kind, r.name, r.fields.len()))
                .collect();
            assert_eq!(
                spans,
                vec![
                    (Kind::SpanBegin, "outer".to_string(), 0),
                    (Kind::SpanBegin, "inner".to_string(), 1),
                    (Kind::SpanEnd, "inner".to_string(), 0),
                    (Kind::SpanEnd, "outer".to_string(), 0),
                ]
            );
        });
    }

    #[test]
    fn concurrent_writers_merge_in_global_order() {
        with_recorder(|| {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    std::thread::spawn(move || {
                        register_worker(w);
                        for i in 0..100 {
                            record(Kind::Event, "mt", &[("i", i as f64)]);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let snap = snapshot_last(usize::MAX);
            let mine: Vec<&Record> = snap.iter().filter(|r| r.name == "mt").collect();
            assert_eq!(mine.len(), 400);
            // Globally ordered and attributed to worker tids 1..=4.
            assert!(mine
                .windows(2)
                .all(|w| (w[0].ts_ns, w[0].seq) <= (w[1].ts_ns, w[1].seq)));
            for w in 0..4u64 {
                assert_eq!(
                    mine.iter().filter(|r| r.tid == w + 1).count(),
                    100,
                    "worker {w}"
                );
            }
        });
    }

    #[test]
    fn snapshot_last_truncates_to_most_recent() {
        with_recorder(|| {
            for i in 0..20 {
                record(Kind::Event, "trunc", &[("i", i as f64)]);
            }
            let snap = snapshot_last(5);
            assert_eq!(snap.len(), 5);
            assert_eq!(snap[snap.len() - 1].fields[0].1, 19.0);
        });
    }

    #[test]
    fn trace_context_stamps_and_filters() {
        with_recorder(|| {
            record(Kind::Event, "untraced", &[]);
            {
                let _s = crate::ctx::TraceCtx::with_id(0xabc).enter();
                record(Kind::Event, "traced", &[]);
            }
            let slice = snapshot_trace(usize::MAX, 0xabc);
            assert_eq!(slice.len(), 1);
            assert_eq!(slice[0].name, "traced");
            assert_eq!(slice[0].trace, 0xabc);
            // The unscoped record is stamped 0 and excluded.
            assert!(snapshot_last(usize::MAX)
                .iter()
                .any(|r| r.name == "untraced" && r.trace == 0));
        });
    }

    #[test]
    fn detail_and_kind_labels_survive() {
        with_recorder(|| {
            note(
                Kind::Degradation,
                "lambda_fixed",
                "gam_fit: NotPositiveDefinite",
            );
            let snap = snapshot_last(usize::MAX);
            let r = snap.iter().find(|r| r.name == "lambda_fixed").unwrap();
            assert_eq!(r.kind.label(), "degradation");
            assert_eq!(r.detail.as_deref(), Some("gam_fit: NotPositiveDefinite"));
        });
    }
}
