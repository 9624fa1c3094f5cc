//! `model::telemetry`: histogram recording and the Prometheus export
//! a `/metrics` scrape pays for.

use super::{ns_per_call, ns_per_fresh, Rows};
use apram_model::{StepHistogram, TelemetryRegistry};
use std::hint::black_box;

pub fn probe(rows: &mut Rows) {
    let hist = StepHistogram::new();
    let mut v = 1u64;
    let record_ns = ns_per_call(10, 50_000, || {
        v = v
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        hist.record(v >> 44);
    });

    // A registry the size of a busy server's: 32 labeled counter
    // series and 8 latency histograms.
    let registry = TelemetryRegistry::new(4);
    for i in 0..32 {
        let object = format!("object{}", i % 8);
        let series = format!("series_{}_total", i / 8);
        registry
            .labeled_counter(&series, &[("object", &object)])
            .add(0, i);
    }
    for i in 0..8 {
        let h = registry.histogram(&format!("latency_{i}_ns"));
        for k in 0..2_000u64 {
            h.record((k % 4) as usize, 50 + k * (i + 1));
        }
    }
    let export_ns = ns_per_fresh(
        30,
        || (),
        |_| {
            black_box(registry.to_prometheus());
        },
    );

    rows.extend([
        ("model.telemetry.hist_record_ns", record_ns),
        ("model.telemetry.prometheus_export_ms", export_ns / 1e6),
    ]);
}
