//! Live telemetry: lock-free step histograms, a sharded metrics
//! registry, progress heartbeats, and Prometheus / collapsed-stack
//! exporters.
//!
//! The paper's quantitative claims are *step complexities* — e.g. the
//! Figure 5 scan's `n² + n + 1` reads per operation — so the interesting
//! observable is the full per-operation distribution, not an aggregate
//! mean. The pieces here:
//!
//! - [`StepHistogram`]: a fixed 64-bucket log-scale histogram over
//!   `u64` atomics. Values up to [`LOSSLESS_MAX`] get a bucket each
//!   (exact counts and exact quantiles — this is where the small-`n`
//!   analytic bounds live); above that, two sub-buckets per octave.
//! - [`TelemetryRegistry`]: counters and histograms registered
//!   by key, each **sharded** — one cache-line-padded slot per explorer
//!   worker — so the parallel engine records per-op step costs with
//!   zero cross-worker contention. Shards merge on demand.
//! - [`Heartbeat`]: a periodic JSONL progress sink for long
//!   explorations (see [`crate::sim::ExploreConfig`]).
//! - Exporters: [`TelemetryRegistry::to_prometheus`] (text exposition
//!   format) and [`crate::span::SpanNode::to_folded`] (collapsed-stack
//!   lines for flamegraph tooling).
//! - [`CountingCtx`]: a [`MemCtx`] adapter counting the reads and
//!   writes of each operation, so any algorithm written against the
//!   trait reports its per-op step cost without modification.

use crate::ctx::{MemCtx, ProcId};
use crate::json::Json;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Number of buckets in a [`StepHistogram`].
pub const HIST_BUCKETS: usize = 64;

/// Largest value recorded losslessly: every `v <= LOSSLESS_MAX` owns a
/// bucket of width 1, so counts *and* quantiles are exact in that range.
pub const LOSSLESS_MAX: u64 = 31;

/// Bucket index for a recorded value.
///
/// `v <= LOSSLESS_MAX` maps to bucket `v`. Larger values get two
/// sub-buckets per power of two (split on the bit below the leading
/// one), giving a worst-case relative quantile error of 25%. Everything
/// from 1,572,864 up shares the last bucket.
pub fn bucket_index(v: u64) -> usize {
    if v <= LOSSLESS_MAX {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as usize; // >= 5 since v >= 32
    let half = ((v >> (exp - 1)) & 1) as usize;
    (32 + (exp - 5) * 2 + half).min(HIST_BUCKETS - 1)
}

/// Smallest value that maps to bucket `i` (the inverse of
/// [`bucket_index`] on bucket boundaries). Quantiles report this lower
/// bound, which is the value itself throughout the lossless range.
pub fn bucket_lower_bound(i: usize) -> u64 {
    assert!(i < HIST_BUCKETS, "bucket index out of range");
    if i < 32 {
        return i as u64;
    }
    let exp = 5 + (i - 32) / 2;
    let half = ((i - 32) % 2) as u64;
    (1u64 << exp) | (half << (exp - 1))
}

/// A log-bucketed histogram of step counts over `u64` atomics.
///
/// Recording is wait-free (a handful of relaxed atomic RMWs) and safe
/// from any number of threads; [`StepHistogram::snapshot`] merges the
/// atomics into a plain [`HistogramSnapshot`]. Snapshots taken while
/// recorders are still running are individually-atomic but not mutually
/// consistent — quiesce writers (join workers) before comparing counts.
pub struct StepHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for StepHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl StepHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        StepHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation of `v`.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A plain copy of the current contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl fmt::Debug for StepHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StepHistogram")
            .field("count", &self.count())
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

/// A plain (non-atomic) copy of a [`StepHistogram`]: mergeable,
/// comparable, exportable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (exact, not bucketed).
    pub max: u64,
    /// Per-bucket counts (`HIST_BUCKETS` entries; bucket `i` covers
    /// values from [`bucket_lower_bound`]`(i)` up to the next bucket's
    /// lower bound, exclusive).
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Fold `other` into `self` (bucket-wise sums; `max` of maxes).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as the lower bound of the
    /// bucket holding the rank-`⌈q·count⌉` observation — exact whenever
    /// that observation is `<=` [`LOSSLESS_MAX`]. 0 on an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_lower_bound(i);
            }
        }
        self.max
    }

    /// Median ([`quantile`](Self::quantile) at 0.5).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile — the tail statistic the sampling explorer
    /// reports against analytic step bounds.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Arithmetic mean (0.0 on an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// JSON export: summary statistics plus the bucket counts (trimmed
    /// after the last non-empty bucket).
    pub fn to_json(&self) -> Json {
        let used = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("sum", Json::UInt(self.sum)),
            ("max", Json::UInt(self.max)),
            ("mean", Json::Float(self.mean())),
            ("p50", Json::UInt(self.p50())),
            ("p90", Json::UInt(self.p90())),
            ("p99", Json::UInt(self.p99())),
            ("p999", Json::UInt(self.p999())),
            (
                "buckets",
                Json::Arr(
                    self.buckets[..used]
                        .iter()
                        .map(|&c| Json::UInt(c))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One cache line per shard so concurrent workers never contend on a
/// neighbouring slot (false sharing).
#[repr(align(64))]
struct PadCell(AtomicU64);

struct ShardedCells {
    cells: Vec<PadCell>,
}

impl ShardedCells {
    fn new(shards: usize) -> Self {
        ShardedCells {
            cells: (0..shards).map(|_| PadCell(AtomicU64::new(0))).collect(),
        }
    }

    fn total(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// A monotonically increasing counter sharded per worker. Cloning the
/// handle shares the underlying cells.
#[derive(Clone)]
pub struct CounterHandle {
    cells: Arc<ShardedCells>,
}

impl CounterHandle {
    /// Add `v` on `shard` (a worker index below the registry's shard
    /// count).
    pub fn add(&self, shard: usize, v: u64) {
        self.cells.cells[shard].0.fetch_add(v, Ordering::Relaxed);
    }

    /// Add 1 on `shard`.
    pub fn inc(&self, shard: usize) {
        self.add(shard, 1);
    }

    /// The merged total across all shards.
    pub fn total(&self) -> u64 {
        self.cells.total()
    }

    /// The count recorded on one shard.
    pub fn shard_value(&self, shard: usize) -> u64 {
        self.cells.cells[shard].0.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for CounterHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CounterHandle(total={})", self.total())
    }
}

/// A [`StepHistogram`] per worker shard. Cloning shares the shards.
#[derive(Clone)]
pub struct HistogramHandle {
    shards: Arc<Vec<StepHistogram>>,
}

impl HistogramHandle {
    /// Record `v` on `shard`.
    pub fn record(&self, shard: usize, v: u64) {
        self.shards[shard].record(v);
    }

    /// One shard's contents.
    pub fn shard_snapshot(&self, shard: usize) -> HistogramSnapshot {
        self.shards[shard].snapshot()
    }

    /// All shards merged.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for s in self.shards.iter() {
            merged.merge(&s.snapshot());
        }
        merged
    }
}

impl fmt::Debug for HistogramHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HistogramHandle(count={})", self.snapshot().count)
    }
}

/// A registry of sharded instruments addressed by key.
///
/// One shard per explorer worker: each worker records only on its own
/// shard (a private cache line), so the hot path takes no locks and
/// shares no contended cache lines. Registration (`counter` /
/// `histogram`) takes a short mutex and is idempotent per
/// key — call sites keep the returned handle rather than re-looking-up
/// per record.
pub struct TelemetryRegistry {
    shards: usize,
    counters: Mutex<Vec<(String, CounterHandle)>>,
    histograms: Mutex<Vec<(String, HistogramHandle)>>,
    labeled: Mutex<Vec<LabeledSeries>>,
}

/// One labeled counter series: metric key, label `(name, value)` pairs
/// in registration order, and its sharded handle.
type LabeledSeries = (String, Vec<(String, String)>, CounterHandle);

impl TelemetryRegistry {
    /// A registry with `shards` worker slots (at least 1).
    pub fn new(shards: usize) -> Self {
        TelemetryRegistry {
            shards: shards.max(1),
            counters: Mutex::new(Vec::new()),
            histograms: Mutex::new(Vec::new()),
            labeled: Mutex::new(Vec::new()),
        }
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Register (or retrieve) the counter `key`.
    pub fn counter(&self, key: &str) -> CounterHandle {
        let mut list = self.counters.lock().expect("registry lock");
        if let Some((_, h)) = list.iter().find(|(k, _)| k == key) {
            return h.clone();
        }
        let h = CounterHandle {
            cells: Arc::new(ShardedCells::new(self.shards)),
        };
        list.push((key.to_string(), h.clone()));
        h
    }

    /// Register (or retrieve) the histogram `key`.
    pub fn histogram(&self, key: &str) -> HistogramHandle {
        let mut list = self.histograms.lock().expect("registry lock");
        if let Some((_, h)) = list.iter().find(|(k, _)| k == key) {
            return h.clone();
        }
        let h = HistogramHandle {
            shards: Arc::new((0..self.shards).map(|_| StepHistogram::new()).collect()),
        };
        list.push((key.to_string(), h.clone()));
        h
    }

    /// Register (or retrieve) the counter `key` with a fixed label set
    /// — one series per distinct `(key, labels)` pair, exported as
    /// `key{label="value",...}` with label values escaped per the
    /// exposition format. This is how per-cell heatmap series (cell
    /// ids, object names) flow through the registry.
    pub fn labeled_counter(&self, key: &str, labels: &[(&str, &str)]) -> CounterHandle {
        let mut list = self.labeled.lock().expect("registry lock");
        if let Some((_, _, h)) = list.iter().find(|(k, l, _)| {
            k == key
                && l.len() == labels.len()
                && l.iter()
                    .zip(labels)
                    .all(|((lk, lv), (k2, v2))| lk == k2 && lv == v2)
        }) {
            return h.clone();
        }
        let h = CounterHandle {
            cells: Arc::new(ShardedCells::new(self.shards)),
        };
        list.push((
            key.to_string(),
            labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            h.clone(),
        ));
        h
    }

    /// The merged total of the labeled counter series, if registered.
    pub fn labeled_counter_total(&self, key: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let list = self.labeled.lock().expect("registry lock");
        list.iter()
            .find(|(k, l, _)| {
                k == key
                    && l.len() == labels.len()
                    && l.iter()
                        .zip(labels)
                        .all(|((lk, lv), (k2, v2))| lk == k2 && lv == v2)
            })
            .map(|(_, _, h)| h.total())
    }

    /// The merged total of counter `key`, if registered.
    pub fn counter_total(&self, key: &str) -> Option<u64> {
        let list = self.counters.lock().expect("registry lock");
        list.iter().find(|(k, _)| k == key).map(|(_, h)| h.total())
    }

    /// The merged snapshot of histogram `key`, if registered.
    pub fn histogram_snapshot(&self, key: &str) -> Option<HistogramSnapshot> {
        let list = self.histograms.lock().expect("registry lock");
        list.iter()
            .find(|(k, _)| k == key)
            .map(|(_, h)| h.snapshot())
    }

    /// JSON export of every instrument (counters also listed per
    /// shard so worker load imbalance is visible).
    pub fn to_json(&self) -> Json {
        let counters = self.counters.lock().expect("registry lock");
        let histograms = self.histograms.lock().expect("registry lock");
        let labeled = self.labeled.lock().expect("registry lock");
        Json::obj([
            (
                "counters",
                Json::Obj(
                    counters
                        .iter()
                        .map(|(k, h)| {
                            (
                                k.clone(),
                                Json::obj([
                                    ("total", Json::UInt(h.total())),
                                    (
                                        "per_shard",
                                        Json::Arr(
                                            (0..self.shards)
                                                .map(|s| Json::UInt(h.shard_value(s)))
                                                .collect(),
                                        ),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.snapshot().to_json()))
                        .collect(),
                ),
            ),
            (
                "labeled_counters",
                Json::Arr(
                    labeled
                        .iter()
                        .map(|(k, l, h)| {
                            Json::obj([
                                ("name", Json::Str(k.clone())),
                                (
                                    "labels",
                                    Json::Obj(
                                        l.iter()
                                            .map(|(lk, lv)| (lk.clone(), Json::Str(lv.clone())))
                                            .collect(),
                                    ),
                                ),
                                ("total", Json::UInt(h.total())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Prometheus text exposition of every instrument.
    ///
    /// Counters emit the merged total plus (when sharded) one
    /// `{shard="i"}` series per worker; histograms use the classic
    /// cumulative `_bucket{le="..."}` / `_sum` / `_count` encoding with
    /// `le` at each bucket's inclusive upper bound. Keys are sanitized
    /// to the Prometheus metric-name alphabet.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let counters = self.counters.lock().expect("registry lock");
        for (key, h) in counters.iter() {
            let name = sanitize_metric_name(key);
            out.push_str(&format!("# TYPE {name} counter\n"));
            out.push_str(&format!("{name} {}\n", h.total()));
            if self.shards > 1 {
                for s in 0..self.shards {
                    out.push_str(&format!("{name}{{shard=\"{s}\"}} {}\n", h.shard_value(s)));
                }
            }
        }
        drop(counters);
        let labeled = self.labeled.lock().expect("registry lock");
        let mut typed: Vec<String> = Vec::new();
        for (key, labels, h) in labeled.iter() {
            let name = sanitize_metric_name(key);
            if !typed.contains(&name) {
                out.push_str(&format!("# TYPE {name} counter\n"));
                typed.push(name.clone());
            }
            let series: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{}=\"{}\"", sanitize_metric_name(k), escape_label_value(v)))
                .collect();
            out.push_str(&format!("{name}{{{}}} {}\n", series.join(","), h.total()));
        }
        drop(labeled);
        let histograms = self.histograms.lock().expect("registry lock");
        for (key, h) in histograms.iter() {
            let name = sanitize_metric_name(key);
            let snap = h.snapshot();
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let used = snap
                .buckets
                .iter()
                .rposition(|&c| c > 0)
                .map_or(0, |i| i + 1);
            let mut cum = 0u64;
            for (i, &c) in snap.buckets[..used.min(HIST_BUCKETS - 1)]
                .iter()
                .enumerate()
            {
                cum += c;
                let le = bucket_lower_bound(i + 1) - 1;
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", snap.count));
            out.push_str(&format!("{name}_sum {}\n", snap.sum));
            out.push_str(&format!("{name}_count {}\n", snap.count));
        }
        out
    }
}

impl fmt::Debug for TelemetryRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetryRegistry")
            .field("shards", &self.shards)
            .finish_non_exhaustive()
    }
}

/// Map a registry key onto the Prometheus metric-name alphabet
/// (`[a-zA-Z0-9_:]`, not starting with a digit).
fn sanitize_metric_name(key: &str) -> String {
    let mut name: String = key
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if name.is_empty() || name.starts_with(|c: char| c.is_ascii_digit()) {
        name.insert(0, '_');
    }
    name
}

/// Escape a label value for the Prometheus text exposition format:
/// backslash, double quote and newline become `\\`, `\"` and `\n`.
/// Everything the heatmap exporters put between label quotes (cell ids,
/// object names) goes through this, and [`validate_prometheus`] accepts
/// exactly these escapes back.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Validate Prometheus text-exposition line format (comment lines and
/// `name{labels} value` samples). Label values may contain any
/// characters, with `\\`, `\"` and `\n` escapes (see
/// [`escape_label_value`]). Returns the first offending line on
/// failure. A self-contained smoke check for CI — no external parser.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    for (no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            let ok = rest.starts_with("HELP ")
                || rest.strip_prefix("TYPE ").is_some_and(|t| {
                    let mut parts = t.split_whitespace();
                    let name_ok = parts.next().is_some_and(is_metric_name);
                    let kind_ok = matches!(
                        parts.next(),
                        Some("counter" | "gauge" | "histogram" | "summary" | "untyped")
                    );
                    name_ok && kind_ok && parts.next().is_none()
                });
            if !ok {
                return Err(format!("line {}: malformed comment: {raw}", no + 1));
            }
            continue;
        }
        parse_sample_line(line).map_err(|e| format!("line {}: {e}: {raw}", no + 1))?;
    }
    Ok(())
}

fn is_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse one `name[{label="value",...}] value` sample line. Label
/// values are scanned escape-aware, so quoted values may contain
/// commas, braces, and `\\` / `\"` / `\n` escapes.
fn parse_sample_line(line: &str) -> Result<(), &'static str> {
    let name_end = line
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(line.len());
    if !is_metric_name(&line[..name_end]) {
        return Err("bad metric name");
    }
    let bytes = line.as_bytes();
    let mut i = name_end;
    if i < bytes.len() && bytes[i] == b'{' {
        i += 1;
        loop {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= bytes.len() {
                return Err("unterminated label set");
            }
            if bytes[i] == b'}' {
                i += 1;
                break;
            }
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let name = &line[start..i];
            if name.is_empty() || name.starts_with(|c: char| c.is_ascii_digit()) {
                return Err("bad label name");
            }
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= bytes.len() || bytes[i] != b'=' {
                return Err("label without '='");
            }
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= bytes.len() || bytes[i] != b'"' {
                return Err("label value not quoted");
            }
            i += 1;
            loop {
                match bytes.get(i) {
                    None => return Err("unterminated label value"),
                    Some(b'"') => {
                        i += 1;
                        break;
                    }
                    Some(b'\\') => match bytes.get(i + 1) {
                        Some(b'\\' | b'"' | b'n') => i += 2,
                        _ => return Err("bad escape in label value"),
                    },
                    Some(_) => i += 1,
                }
            }
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b',' {
                i += 1;
            } else if i >= bytes.len() || bytes[i] != b'}' {
                return Err("expected ',' or '}' after label");
            }
        }
    }
    let value = line[i..].trim();
    if value.is_empty() {
        return Err("missing sample value");
    }
    match value {
        "+Inf" | "-Inf" | "NaN" => Ok(()),
        v => v.parse::<f64>().map(|_| ()).map_err(|_| "bad sample value"),
    }
}

/// A [`MemCtx`] adapter that counts the reads and writes of each
/// operation, so any algorithm written against the trait reports its
/// per-op step cost without modification:
///
/// ```ignore
/// let mut counting = CountingCtx::new(ctx);
/// counting.begin_op();
/// let view = handle.scan(&mut counting);
/// histogram.record(proc, counting.op_reads());
/// ```
pub struct CountingCtx<'a, C> {
    inner: &'a mut C,
    reads: u64,
    writes: u64,
}

impl<'a, C> CountingCtx<'a, C> {
    /// Wrap `inner`, starting with zeroed counters.
    pub fn new(inner: &'a mut C) -> Self {
        CountingCtx {
            inner,
            reads: 0,
            writes: 0,
        }
    }

    /// Reset the per-op counters (call at each operation's invocation).
    pub fn begin_op(&mut self) {
        self.reads = 0;
        self.writes = 0;
    }

    /// Reads performed since the last [`begin_op`](Self::begin_op).
    pub fn op_reads(&self) -> u64 {
        self.reads
    }

    /// Writes performed since the last [`begin_op`](Self::begin_op).
    pub fn op_writes(&self) -> u64 {
        self.writes
    }
}

impl<T: Clone, C: MemCtx<T>> MemCtx<T> for CountingCtx<'_, C> {
    fn proc(&self) -> ProcId {
        self.inner.proc()
    }

    fn n_procs(&self) -> usize {
        self.inner.n_procs()
    }

    fn n_regs(&self) -> usize {
        self.inner.n_regs()
    }

    fn read(&mut self, reg: usize) -> T {
        self.reads += 1;
        self.inner.read(reg)
    }

    fn write(&mut self, reg: usize, val: T) {
        self.writes += 1;
        self.inner.write(reg, val)
    }
}

/// A periodic progress sink for long explorations.
///
/// Attach one to [`crate::sim::Budget::heartbeat`] and the
/// explorer emits a JSONL [`ProgressBeat`] roughly every `every`
/// interval (plus one final beat), so a `--quick=false` run is never
/// silent for minutes.
#[derive(Clone)]
pub struct Heartbeat {
    /// Minimum interval between beats.
    pub every: Duration,
    sink: Arc<Mutex<dyn Write + Send>>,
}

impl Heartbeat {
    /// A heartbeat writing JSON lines to `sink` every `every`.
    pub fn new(every: Duration, sink: impl Write + Send + 'static) -> Self {
        Heartbeat {
            every,
            sink: Arc::new(Mutex::new(sink)),
        }
    }

    /// A heartbeat over a pre-shared sink (e.g. a buffer the caller
    /// keeps a handle to for inspection after the run).
    pub fn shared(every: Duration, sink: Arc<Mutex<dyn Write + Send>>) -> Self {
        Heartbeat { every, sink }
    }

    /// Write one beat as a JSON line. I/O errors are swallowed —
    /// telemetry must never fail an exploration.
    pub fn emit(&self, beat: &ProgressBeat) {
        let line = beat.to_json().to_compact();
        if let Ok(mut sink) = self.sink.lock() {
            let _ = writeln!(sink, "{line}");
            let _ = sink.flush();
        }
    }

    /// Emit `beat()` if one is due — `*due` has passed — and make the
    /// next one due [`every`](Heartbeat::every) after it. Every periodic
    /// beat is paced here; the caller's first `*due` says whether the
    /// first beat comes at once or one interval in.
    pub fn emit_if_due(&self, due: &mut Instant, beat: impl FnOnce() -> ProgressBeat) {
        if Instant::now() >= *due {
            self.emit(&beat());
            *due = Instant::now() + self.every;
        }
    }
}

impl fmt::Debug for Heartbeat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Heartbeat")
            .field("every", &self.every)
            .field("sink", &"<dyn Write>")
            .finish()
    }
}

/// One progress snapshot of a running exploration.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgressBeat {
    /// Wall-clock time since the exploration started.
    pub elapsed: Duration,
    /// Complete runs executed so far.
    pub runs: u64,
    /// Branches pruned by sleep sets so far.
    pub sleep_skips: u64,
    /// Pending work: stacked branches (sequential) or queued prefix
    /// tasks (parallel) at the moment of the beat.
    pub queue_depth: usize,
    /// Whether a violation has been found.
    pub violation_found: bool,
}

impl ProgressBeat {
    /// Throughput so far (0.0 before any time has elapsed).
    pub fn runs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.runs as f64 / secs
        }
    }

    /// The JSONL payload.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("elapsed_secs", Json::Float(self.elapsed.as_secs_f64())),
            ("elapsed_ms", Json::UInt(self.elapsed.as_millis() as u64)),
            ("runs", Json::UInt(self.runs)),
            ("runs_per_sec", Json::Float(self.runs_per_sec())),
            ("sleep_skips", Json::UInt(self.sleep_skips)),
            ("queue_depth", Json::UInt(self.queue_depth as u64)),
            ("violation_found", Json::Bool(self.violation_found)),
        ])
    }
}

/// A shared, thread-safe heartbeat sink (see [`Heartbeat::shared`]).
pub type SharedSink = Arc<Mutex<dyn Write + Send>>;

/// A `Write` sink into a shared byte buffer, for capturing heartbeat
/// output in tests and the experiments CLI.
pub fn buffer_sink() -> (SharedSink, Arc<Mutex<Vec<u8>>>) {
    let buf = Arc::new(Mutex::new(Vec::new()));
    (buf.clone() as SharedSink, buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_boundaries_are_exact_in_the_lossless_range() {
        for v in 0..=LOSSLESS_MAX {
            let i = bucket_index(v);
            assert_eq!(i, v as usize);
            assert_eq!(bucket_lower_bound(i), v);
        }
        // The first lossy bucket starts exactly where losslessness ends.
        assert_eq!(bucket_index(LOSSLESS_MAX + 1), 32);
        assert_eq!(bucket_lower_bound(32), LOSSLESS_MAX + 1);
    }

    #[test]
    fn bucket_index_is_monotone_and_inverts_on_boundaries() {
        for i in 0..HIST_BUCKETS {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            if i > 0 {
                assert!(bucket_lower_bound(i - 1) < lo);
                assert_eq!(bucket_index(lo - 1), i - 1, "below bucket {i}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_lower_bound(HIST_BUCKETS - 1), (1 << 20) | (1 << 19));
    }

    #[test]
    fn histogram_quantiles_are_exact_for_small_counts() {
        let h = StepHistogram::new();
        for v in [3u64, 3, 3, 7, 7, 13, 21, 21, 21, 30] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.sum, 3 * 3 + 14 + 13 + 63 + 30);
        assert_eq!(s.max, 30);
        assert_eq!(s.p50(), 7);
        assert_eq!(s.p90(), 21);
        assert_eq!(s.p99(), 30);
        assert_eq!(s.quantile(0.0), 3);
        assert_eq!(s.quantile(1.0), 30);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = StepHistogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.to_json().get("count").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn large_values_land_in_log_buckets() {
        let h = StepHistogram::new();
        h.record(1000);
        h.record(1_000_000);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.max, u64::MAX);
        // Quantiles report bucket lower bounds for lossy values.
        assert_eq!(s.quantile(0.01), bucket_lower_bound(bucket_index(1000)));
        assert!(s.quantile(0.01) <= 1000);
        assert!(s.quantile(0.01) >= 768); // within the 2-per-octave bucket
    }

    #[test]
    fn snapshot_json_has_summary_and_buckets() {
        let h = StepHistogram::new();
        for v in 0..5u64 {
            h.record(v);
        }
        let doc = h.snapshot().to_json();
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(5));
        assert_eq!(doc.get("p50").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("max").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("buckets").and_then(Json::as_arr).unwrap().len(), 5);
        // Round-trips through the parser.
        let parsed = crate::json::parse(&doc.to_compact()).unwrap();
        assert_eq!(parsed.get("p99").and_then(Json::as_u64), Some(4));
    }

    proptest! {
        /// Satellite: merging per-shard recordings equals recording
        /// everything on one shard — same counts, same quantiles.
        #[test]
        fn merge_of_shards_equals_single_shard(
            obs in proptest::collection::vec((0usize..4, 0u64..5000), 0..200)
        ) {
            let sharded = TelemetryRegistry::new(4).histogram("steps");
            let single = TelemetryRegistry::new(1).histogram("steps");
            for &(shard, v) in &obs {
                sharded.record(shard, v);
                single.record(0, v);
            }
            let merged = sharded.snapshot();
            prop_assert_eq!(&merged, &single.snapshot());
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                prop_assert_eq!(merged.quantile(q), single.snapshot().quantile(q));
            }
        }

        /// Satellite: bucket boundaries are exact for counts in the
        /// lossless range — the histogram's quantiles there are the
        /// true order statistics.
        #[test]
        fn lossless_range_quantiles_are_order_statistics(
            mut vals in proptest::collection::vec(0u64..=LOSSLESS_MAX, 1..100),
            q_pct in 0u32..=100
        ) {
            let q = f64::from(q_pct) / 100.0;
            let h = StepHistogram::new();
            for &v in &vals {
                h.record(v);
            }
            vals.sort_unstable();
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            prop_assert_eq!(h.snapshot().quantile(q), vals[rank - 1]);
        }

        #[test]
        fn bucket_lower_bound_inverts_bucket_index(v in 0u64..u64::MAX) {
            let i = bucket_index(v);
            let lo = bucket_lower_bound(i);
            prop_assert!(lo <= v);
            if i + 1 < HIST_BUCKETS {
                prop_assert!(v < bucket_lower_bound(i + 1));
            }
        }
    }

    #[test]
    fn registry_dedups_keys_and_shares_handles() {
        let reg = TelemetryRegistry::new(2);
        let a = reg.counter("runs");
        let b = reg.counter("runs");
        a.add(0, 3);
        b.add(1, 4);
        assert_eq!(a.total(), 7);
        assert_eq!(reg.counter_total("runs"), Some(7));
        assert_eq!(a.shard_value(0), 3);
        assert_eq!(a.shard_value(1), 4);
        assert_eq!(reg.counter_total("missing"), None);
        let h = reg.histogram("steps");
        reg.histogram("steps").record(1, 5);
        assert_eq!(h.snapshot().count, 1);
        assert_eq!(reg.histogram_snapshot("steps").unwrap().count, 1);
        let d = reg.counter("depth");
        d.add(0, 2);
        reg.counter("depth").add(1, 3);
        assert_eq!(d.total(), 5);
    }

    #[test]
    fn registry_json_exposes_per_shard_counters() {
        let reg = TelemetryRegistry::new(2);
        reg.counter("runs").add(0, 1);
        reg.counter("runs").add(1, 2);
        reg.histogram("steps").record(0, 4);
        let doc = reg.to_json();
        let runs = doc.get("counters").and_then(|c| c.get("runs")).unwrap();
        assert_eq!(runs.get("total").and_then(Json::as_u64), Some(3));
        let per = runs.get("per_shard").and_then(Json::as_arr).unwrap();
        assert_eq!(per.len(), 2);
        let steps = doc.get("histograms").and_then(|h| h.get("steps")).unwrap();
        assert_eq!(steps.get("count").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn prometheus_export_passes_the_validator() {
        let reg = TelemetryRegistry::new(3);
        reg.counter("explore_runs").add(0, 10);
        reg.counter("explore_runs").add(2, 5);
        reg.counter("queue depth").add(1, 7); // space → sanitized
        let h = reg.histogram("scan.reads");
        for v in [5u64, 9, 9, 40, 2000] {
            h.record(1, v);
        }
        let text = reg.to_prometheus();
        validate_prometheus(&text).expect("own export must validate");
        assert!(text.contains("# TYPE explore_runs counter"));
        assert!(text.contains("explore_runs 15"));
        assert!(text.contains("explore_runs{shard=\"2\"} 5"));
        assert!(text.contains("queue_depth 7"));
        assert!(text.contains("scan_reads_count 5"));
        assert!(text.contains("scan_reads_sum 2063"));
        assert!(text.contains("scan_reads_bucket{le=\"+Inf\"} 5"));
        // Cumulative counts are non-decreasing.
        let cums: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("scan_reads_bucket"))
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert!(cums.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_prometheus("ok_metric 1\n").is_ok());
        assert!(validate_prometheus("x{l=\"v\"} 2.5\n").is_ok());
        assert!(validate_prometheus("x +Inf\n").is_ok());
        assert!(validate_prometheus("# HELP x anything goes\n").is_ok());
        assert!(validate_prometheus("1bad 2\n").is_err());
        assert!(validate_prometheus("x{l=unquoted} 1\n").is_err());
        assert!(validate_prometheus("x{l=\"v\" 1\n").is_err());
        assert!(validate_prometheus("x notanumber\n").is_err());
        assert!(validate_prometheus("x\n").is_err());
        assert!(validate_prometheus("# TYPE x nonsense\n").is_err());
        assert!(validate_prometheus("# TYPE 1x counter\n").is_err());
    }

    /// Satellite: the validator accepts escaped label values (commas,
    /// braces, escaped quotes/backslashes/newlines inside the quotes)
    /// and rejects the malformed variants.
    #[test]
    fn validator_handles_label_value_escapes() {
        assert!(validate_prometheus("x{l=\"a,b\"} 1\n").is_ok());
        assert!(validate_prometheus("x{l=\"a}b\"} 1\n").is_ok());
        assert!(validate_prometheus("x{l=\"say \\\"hi\\\"\"} 1\n").is_ok());
        assert!(validate_prometheus("x{l=\"back\\\\slash\"} 1\n").is_ok());
        assert!(validate_prometheus("x{l=\"line\\nbreak\"} 1\n").is_ok());
        assert!(validate_prometheus("x{a=\"1,2\",b=\"3\"} 4\n").is_ok());
        assert!(validate_prometheus("x{l=\"\"} 1\n").is_ok());
        // Bad escape sequence.
        assert!(validate_prometheus("x{l=\"oops\\q\"} 1\n").is_err());
        // Trailing backslash swallows the closing quote.
        assert!(validate_prometheus("x{l=\"oops\\\"} 1\n").is_err());
        // Unterminated value.
        assert!(validate_prometheus("x{l=\"open} 1\n").is_err());
        // Garbage between labels.
        assert!(validate_prometheus("x{l=\"v\" ; m=\"w\"} 1\n").is_err());
    }

    #[test]
    fn escape_label_value_round_trips_through_the_validator() {
        for raw in [
            "plain",
            "with \"quotes\"",
            "back\\slash",
            "multi\nline",
            "a,b}c{d",
        ] {
            let line = format!("m{{l=\"{}\"}} 1\n", escape_label_value(raw));
            validate_prometheus(&line).unwrap_or_else(|e| panic!("{raw:?}: {e}"));
        }
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(escape_label_value("plain"), "plain");
    }

    #[test]
    fn labeled_counters_export_and_dedup() {
        let reg = TelemetryRegistry::new(2);
        let a = reg.labeled_counter("hot_cells", &[("object", "afek"), ("cell", "3")]);
        let b = reg.labeled_counter("hot_cells", &[("object", "afek"), ("cell", "3")]);
        let other = reg.labeled_counter("hot_cells", &[("object", "we\"ird"), ("cell", "4")]);
        a.add(0, 5);
        b.add(1, 2); // same series, different shard
        other.inc(0);
        assert_eq!(
            reg.labeled_counter_total("hot_cells", &[("object", "afek"), ("cell", "3")]),
            Some(7)
        );
        assert_eq!(
            reg.labeled_counter_total("hot_cells", &[("object", "nope"), ("cell", "3")]),
            None
        );
        let text = reg.to_prometheus();
        validate_prometheus(&text).expect("labeled export must validate");
        assert!(text.contains("hot_cells{object=\"afek\",cell=\"3\"} 7"));
        assert!(text.contains("hot_cells{object=\"we\\\"ird\",cell=\"4\"} 1"));
        // One TYPE line for the shared metric name.
        assert_eq!(
            text.matches("# TYPE hot_cells counter").count(),
            1,
            "{text}"
        );
        let doc = reg.to_json();
        let labeled = doc.get("labeled_counters").and_then(Json::as_arr).unwrap();
        assert_eq!(labeled.len(), 2);
        assert_eq!(labeled[0].get("total").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn sanitizer_covers_the_edge_cases() {
        assert_eq!(sanitize_metric_name("scan.reads/op"), "scan_reads_op");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("ok:name_1"), "ok:name_1");
    }

    #[test]
    fn counting_ctx_tallies_per_op() {
        struct VecCtx {
            regs: Vec<u32>,
        }
        impl MemCtx<u32> for VecCtx {
            fn proc(&self) -> ProcId {
                1
            }
            fn n_procs(&self) -> usize {
                2
            }
            fn n_regs(&self) -> usize {
                self.regs.len()
            }
            fn read(&mut self, reg: usize) -> u32 {
                self.regs[reg]
            }
            fn write(&mut self, reg: usize, val: u32) {
                self.regs[reg] = val;
            }
        }
        let mut inner = VecCtx { regs: vec![0; 4] };
        let mut ctx = CountingCtx::new(&mut inner);
        assert_eq!(ctx.proc(), 1);
        assert_eq!(ctx.n_procs(), 2);
        assert_eq!(ctx.n_regs(), 4);
        ctx.begin_op();
        ctx.write(0, 7);
        let _ = ctx.read(0);
        let _ = ctx.read(1);
        assert_eq!((ctx.op_reads(), ctx.op_writes()), (2, 1));
        ctx.begin_op();
        assert_eq!((ctx.op_reads(), ctx.op_writes()), (0, 0));
        assert_eq!(inner.regs[0], 7);
    }

    #[test]
    fn heartbeat_emits_parseable_jsonl() {
        let (sink, buf) = buffer_sink();
        let hb = Heartbeat::shared(Duration::from_millis(1), sink);
        hb.emit(&ProgressBeat {
            elapsed: Duration::from_millis(1500),
            runs: 42,
            sleep_skips: 7,
            queue_depth: 3,
            violation_found: false,
        });
        hb.emit(&ProgressBeat {
            elapsed: Duration::from_secs(2),
            runs: 80,
            sleep_skips: 9,
            queue_depth: 0,
            violation_found: true,
        });
        let bytes = buf.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(first.get("runs").and_then(Json::as_u64), Some(42));
        assert_eq!(first.get("elapsed_ms").and_then(Json::as_u64), Some(1500));
        assert_eq!(first.get("queue_depth").and_then(Json::as_u64), Some(3));
        let rps = first.get("runs_per_sec").and_then(Json::as_f64).unwrap();
        assert!((rps - 28.0).abs() < 1e-9);
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("violation_found"), Some(&Json::Bool(true)));
    }

    /// A due beat is emitted and pushes the next one an interval out; a
    /// beat not yet due is not even computed.
    #[test]
    fn heartbeat_emits_only_when_due() {
        let (sink, buf) = buffer_sink();
        let hb = Heartbeat::shared(Duration::from_secs(3600), sink);
        let beat = || ProgressBeat {
            elapsed: Duration::ZERO,
            runs: 1,
            sleep_skips: 0,
            queue_depth: 0,
            violation_found: false,
        };
        let mut due = Instant::now();
        hb.emit_if_due(&mut due, beat);
        assert!(due > Instant::now() + Duration::from_secs(3000));
        hb.emit_if_due(&mut due, || unreachable!("not due"));
        assert_eq!(
            buf.lock().unwrap().iter().filter(|&&b| b == b'\n').count(),
            1
        );
    }
}
