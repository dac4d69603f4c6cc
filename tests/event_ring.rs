//! One thread, one identity: the flight recorder is the only per-thread
//! event ring, so every view rendered from it — recorder snapshots, the
//! Chrome-trace fragment, and a slow-request capture with its embedded
//! timeline — names a thread by the same logical tid and stamps its
//! records against the same clock origin.
//!
//! The test is alone in its binary on purpose: which thread claims the
//! `main` tid depends on which records first in the process.

use gef_trace::json::{parse, JsonValue};
use gef_trace::{ctx::TraceCtx, recorder, timeline};
use std::collections::BTreeSet;

/// The tids of the non-metadata entries of `doc[key]`.
fn tids(doc: &JsonValue, key: &str) -> BTreeSet<u64> {
    let events = doc.get(key).and_then(JsonValue::as_array).expect(key);
    events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) != Some("M"))
        .map(|e| e.get("tid").and_then(JsonValue::as_f64).expect("tid") as u64)
        .collect()
}

#[test]
fn one_thread_has_one_tid_and_clock_in_every_view() {
    // A thread that only leaves a recorder note, before profiling is
    // on, registers first; then a profiled request thread runs.
    timeline::set_prof_enabled(false);
    std::thread::spawn(|| recorder::note(recorder::Kind::Event, "ring.bystander", ""))
        .join()
        .unwrap();
    timeline::set_prof_enabled(true);
    let trace = 0x5eed_u64;
    let slow = std::thread::spawn(move || {
        let _scope = TraceCtx::with_id(trace).enter();
        gef_trace::time("ring.request", || {
            gef_trace::global().event("ring.tick", &[])
        });
        gef_core::incident::render_slow(trace, 900, 500, "POST /explain")
    })
    .join()
    .unwrap();
    let fragment = parse(&timeline::chrome_trace_fragment(trace)).expect("fragment parses");
    timeline::set_prof_enabled(false);

    let records = recorder::snapshot_trace(usize::MAX, trace);
    let rec_tids: BTreeSet<u64> = records.iter().map(|r| r.tid).collect();
    assert_eq!(rec_tids.len(), 1, "one request thread: {rec_tids:?}");
    assert_eq!(tids(&fragment, "traceEvents"), rec_tids);
    let slow = parse(&slow).expect("slow capture parses");
    assert_eq!(tids(&slow, "events"), rec_tids);
    assert_eq!(tids(slow.get("timeline").unwrap(), "traceEvents"), rec_tids);

    // One clock origin: the tick's Chrome `ts` (µs) is its `ts_ns`.
    let tick = records.iter().find(|r| r.name == "ring.tick").unwrap();
    let events = fragment.get("traceEvents").and_then(JsonValue::as_array);
    let ts_us = events
        .unwrap()
        .iter()
        .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("ring.tick"))
        .and_then(|e| e.get("ts").and_then(JsonValue::as_f64))
        .expect("tick in fragment");
    assert!((ts_us * 1_000.0 - tick.ts_ns as f64).abs() < 1.0);
}
