//! The tracking allocator end to end: installed as this binary's global
//! allocator, it must feed the `mem` counters, and under `GEF_PROF` a
//! span must leave a `heap.in_use_bytes` counter sample that the Chrome
//! export renders as a `C` event. Run with
//! `cargo test -p gef-trace --features alloc-track`.
#![cfg(feature = "alloc-track")]

use gef_trace::json::{parse, JsonValue};
use gef_trace::{mem, recorder, timeline};

#[global_allocator]
static ALLOC: mem::TrackingAlloc = mem::TrackingAlloc;

#[test]
fn tracking_allocator_feeds_counters() {
    assert!(mem::tracking());
    let before = mem::stats();
    let v: Vec<u8> = Vec::with_capacity(1 << 20);
    let after = mem::stats();
    drop(v);
    assert!(after.allocs > before.allocs);
    assert!(after.bytes_allocated - before.bytes_allocated >= 1 << 20);
    assert!(after.peak_bytes >= after.in_use_bytes);
    let freed = mem::stats();
    assert!(freed.bytes_freed - before.bytes_freed >= 1 << 20);
}

#[test]
fn profiled_spans_sample_the_heap_counter_track() {
    timeline::set_prof_enabled(true);
    gef_trace::time("alloc.span", || std::hint::black_box(vec![0u8; 4096]));
    let doc = timeline::chrome_trace_json();
    timeline::set_prof_enabled(false);

    let heap = recorder::snapshot_last(usize::MAX)
        .into_iter()
        .find(|r| r.kind == recorder::Kind::Counter && r.name == "heap.in_use_bytes")
        .expect("a heap counter sample");
    assert!(heap.fields[0].1 > 0.0);

    // The sample renders as a Chrome counter event.
    let v = parse(&doc).expect("chrome trace parses");
    let events = v.get("traceEvents").and_then(JsonValue::as_array).unwrap();
    let is = |e: &JsonValue, k, want| e.get(k).and_then(JsonValue::as_str) == Some(want);
    assert!(events
        .iter()
        .any(|e| is(e, "ph", "C") && is(e, "name", "heap.in_use_bytes")));
}
