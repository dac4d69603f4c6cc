//! Time-resolved profiling: the `GEF_PROF` switch, and a Chrome Trace
//! Event Format renderer over the flight [`recorder`]'s records.
//!
//! Where the rest of `gef-trace` records *aggregates* (a span's count
//! and duration distribution), a Chrome trace shows *when* things ran
//! and on *which thread* — enough to reconstruct a per-worker gantt in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) and see a
//! lopsided histogram-build region or a deadline trip as a shape, not
//! a sum.
//!
//! # Enabling
//!
//! `GEF_PROF` raises the recorder's detail level (see
//! [`recorder`]'s module docs): larger per-thread rings, gef-par task
//! spans and heap counter samples. It is resolved once into an atomic:
//!
//! | `GEF_PROF` | effect |
//! |---|---|
//! | unset, `""`, `0`, `off`, `false` | coarse detail (default) |
//! | anything else (`1`, `on`, …) | profiling detail |
//!
//! Tests and embedders can override the environment with
//! [`set_prof_enabled`]. The `noop` cargo feature pins [`prof_enabled`]
//! to a constant `false`, exactly like [`crate::enabled`].
//!
//! # Export
//!
//! [`chrome_trace_json`] renders every thread's records as one Chrome
//! Trace Event Format document (`ph` `B`/`E`/`i`/`C` plus `thread_name`
//! metadata, `ts` in microseconds); [`chrome_trace_fragment`] keeps one
//! request's records; [`emit`] writes the document under
//! `results/profiles/`. Load the file in Perfetto or `chrome://tracing`
//! as-is. Tracks are keyed by the recorder's logical tids, so a thread
//! has the same tid here as in incident dumps and slow captures.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};

use crate::json::JsonWriter;
use crate::recorder::{self, Kind, Record};

// Profiles and incident dumps share the recorder's records, so clearing
// and listing them goes through the recorder too.
pub use crate::recorder::{reset, tids_with_events};

// 0 = uninitialised (read GEF_PROF on first use), 1 = off, 2 = on.
static PROF: AtomicU8 = AtomicU8::new(0);

fn prof_from_env() -> bool {
    match std::env::var("GEF_PROF") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "" | "0" | "off" | "false"
        ),
        Err(_) => false,
    }
}

/// Whether profiling detail is on (resolving `GEF_PROF` on first
/// call). With the `noop` cargo feature this is a constant `false`.
#[inline(always)]
pub fn prof_enabled() -> bool {
    if cfg!(feature = "noop") {
        return false;
    }
    match PROF.load(Ordering::Relaxed) {
        0 => {
            let on = prof_from_env();
            PROF.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
        1 => false,
        _ => true,
    }
}

/// Force profiling detail on or off, overriding `GEF_PROF`.
pub fn set_prof_enabled(on: bool) {
    PROF.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Render every thread's recorder records as one Chrome Trace Event
/// Format document.
///
/// The document is an object with a `traceEvents` array —
/// `thread_name` / `thread_sort_index` metadata first, then all records
/// in global (timestamp, sequence) order, `ts` in microseconds — plus a
/// top-level `droppedEvents` count of the records the rings overwrote.
/// It loads directly in `chrome://tracing` and Perfetto.
pub fn chrome_trace_json() -> String {
    chrome_trace(&recorder::snapshot_last(usize::MAX))
}

/// Like [`chrome_trace_json`], but keeping only records stamped with
/// `trace` (see [`crate::ctx`]) — one request's stage and task spans
/// across every thread, as a loadable Chrome-trace fragment. Threads
/// with no matching records are omitted entirely.
pub fn chrome_trace_fragment(trace: u64) -> String {
    chrome_trace(&recorder::snapshot_trace(usize::MAX, trace))
}

/// Render `records` (globally ordered, as a recorder snapshot returns
/// them) as a Chrome Trace Event Format document; see
/// [`chrome_trace_json`].
pub fn chrome_trace(records: &[Record]) -> String {
    let threads: BTreeMap<u64, &str> = records.iter().map(|r| (r.tid, &*r.thread)).collect();

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    // Process + thread metadata so the viewer names and orders tracks.
    fn meta(w: &mut JsonWriter, name: &str, tid: u64, fill_args: impl FnOnce(&mut JsonWriter)) {
        w.begin_object();
        w.field_str("name", name);
        w.field_str("ph", "M");
        w.field_u64("pid", 1);
        w.field_u64("tid", tid);
        w.key("args");
        w.begin_object();
        fill_args(w);
        w.end_object();
        w.end_object();
    }
    meta(&mut w, "process_name", 0, |w| w.field_str("name", "gef"));
    for (&tid, name) in &threads {
        meta(&mut w, "thread_name", tid, |w| w.field_str("name", name));
        meta(&mut w, "thread_sort_index", tid, |w| {
            w.field_f64("sort_index", tid as f64);
        });
    }
    // Open spans per tid: an end whose begin the ring overwrote would
    // close a slice the viewer never opened, so it is skipped.
    let mut open: BTreeMap<u64, usize> = BTreeMap::new();
    for r in records {
        let depth = open.entry(r.tid).or_default();
        let ph = match r.kind {
            Kind::SpanBegin => {
                *depth += 1;
                "B"
            }
            Kind::SpanEnd if *depth == 0 => continue,
            Kind::SpanEnd => {
                *depth -= 1;
                "E"
            }
            Kind::Counter => "C",
            _ => "i",
        };
        w.begin_object();
        w.field_str("name", &r.name);
        w.field_str("ph", ph);
        // Chrome trace timestamps are microseconds.
        w.field_f64("ts", r.ts_ns as f64 / 1_000.0);
        w.field_u64("pid", 1);
        w.field_u64("tid", r.tid);
        if ph == "i" {
            // Thread-scoped instant (a tick on that thread's track).
            w.field_str("s", "t");
        }
        if r.trace != 0 {
            // Non-standard field, ignored by trace viewers; lets tools
            // slice an unfiltered export by request after the fact.
            w.field_str("trace", &crate::hash::to_hex(r.trace));
        }
        if !r.fields.is_empty() || r.detail.is_some() {
            w.key("args");
            w.begin_object();
            for (k, v) in &r.fields {
                w.field_f64(k, *v);
            }
            if let Some(detail) = &r.detail {
                w.field_str("detail", detail);
            }
            w.end_object();
        }
        w.end_object();
    }
    w.end_array();
    w.field_str("displayTimeUnit", "ms");
    w.field_u64("droppedEvents", recorder::overwritten_total());
    w.end_object();
    w.finish()
}

/// Write [`chrome_trace_json`] as `<dir>/<label>.trace.json` (`label`
/// sanitised to `[A-Za-z0-9._-]`), creating directories.
pub fn export_chrome_to(dir: &std::path::Path, label: &str) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.trace.json", crate::file_label(label)));
    std::fs::write(&path, chrome_trace_json())?;
    Ok(path)
}

/// If profiling is on, write the merged timeline under
/// `results/profiles/` and return the path (logging it to stderr);
/// otherwise do nothing. Call once at the end of a profiled run.
pub fn emit(label: &str) -> Option<std::path::PathBuf> {
    if !prof_enabled() {
        return None;
    }
    match export_chrome_to(std::path::Path::new("results/profiles"), label) {
        Ok(path) => {
            eprintln!("gef-trace: wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("gef-trace: failed to write chrome trace: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};

    // Profiling state and the rings are process-global, and enabling
    // profiling raises every thread's detail level — so these tests
    // share the crate-wide test lock.
    use crate::TEST_LOCK;

    fn with_prof<T>(f: impl FnOnce() -> T) -> T {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_prof_enabled(true);
        let out = f();
        set_prof_enabled(false);
        reset();
        out
    }

    fn str_of<'a>(e: &'a JsonValue, k: &str) -> Option<&'a str> {
        e.get(k).and_then(JsonValue::as_str)
    }

    /// Flooding one thread past [`recorder::PROF_CAP`] inside an open
    /// span overwrites the span's begin: the export must still parse,
    /// keep every tid's B/E balanced, and report the overwrites.
    #[test]
    fn export_stays_valid_after_the_ring_overwrites() {
        with_prof(|| {
            {
                let _span = crate::Span::enter("flooded");
                for i in 0..(recorder::PROF_CAP + 10) {
                    recorder::record(Kind::Event, "flood", &[("i", i as f64)]);
                }
            }
            assert!(recorder::overwritten_total() >= 11);
            let doc = chrome_trace_json();
            let v = parse(&doc).unwrap_or_else(|e| panic!("export does not parse: {e}"));
            let events = v.get("traceEvents").and_then(JsonValue::as_array).unwrap();
            let mut depth: BTreeMap<i64, i64> = BTreeMap::new();
            for e in events {
                let tid = e.get("tid").and_then(JsonValue::as_f64).unwrap() as i64;
                match str_of(e, "ph").unwrap() {
                    "B" => *depth.entry(tid).or_default() += 1,
                    "E" => {
                        let d = depth.entry(tid).or_default();
                        *d -= 1;
                        assert!(*d >= 0, "E without matching B on tid {tid}");
                    }
                    _ => {}
                }
            }
            assert!(depth.values().all(|&d| d == 0), "unbalanced B/E: {depth:?}");
            assert!(events.iter().all(|e| str_of(e, "name") != Some("flooded")));
            assert_eq!(
                v.get("droppedEvents").and_then(JsonValue::as_f64),
                Some(recorder::overwritten_total() as f64)
            );
        });
    }

    #[test]
    fn fragment_keeps_only_one_requests_events() {
        with_prof(|| {
            crate::global().event("ambient", &[]);
            for (id, name) in [(0xa1, "req.a"), (0xb2, "req.b")] {
                let _scope = crate::ctx::TraceCtx::with_id(id).enter();
                assert!(recorder::span_begin(name, &[]));
                recorder::span_end(name);
            }
            // Only the request's own records, each stamped with its id.
            let doc = parse(&chrome_trace_fragment(0xa1)).unwrap();
            let events = doc.get("traceEvents").and_then(JsonValue::as_array);
            let stamped: Vec<(&str, Option<&str>)> = events
                .unwrap()
                .iter()
                .filter(|e| str_of(e, "ph") != Some("M"))
                .map(|e| (str_of(e, "name").unwrap(), str_of(e, "trace")))
                .collect();
            let own = crate::hash::to_hex(0xa1);
            assert_eq!(stamped, [("req.a", Some(own.as_str())); 2]);
        });
    }
}
