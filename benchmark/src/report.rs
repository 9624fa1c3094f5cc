//! Turning a workload's outcome into named metrics, and result files
//! into A/A and comparison tables.

use crate::harness::estimate;
use crate::host;
use crate::plan::{self, END_TO_END, PER_LAYER};
use crate::stats::{self, Better};
use crate::trace;
use crate::workloads::{Outcome, RunCtx};
use apram_model::Json;
use std::collections::BTreeMap;

/// One reported number. `quartiles` are over the segments (or set-up
/// reps) the value was estimated from, when there were any.
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub quartiles: Option<(f64, f64, f64)>,
    pub samples: Option<u64>,
}

impl Value {
    fn plain(name: &'static str, unit: &'static str, value: f64) -> Value {
        Value {
            name,
            unit,
            value,
            quartiles: None,
            samples: None,
        }
    }

    fn estimated(name: &'static str, unit: &'static str, xs: &[f64], better: Better) -> Value {
        let (value, quartiles) = estimate(xs, better);
        Value {
            name,
            unit,
            value,
            quartiles: Some(quartiles),
            samples: None,
        }
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("value".to_string(), Json::Float(self.value)),
            ("unit".to_string(), Json::Str(self.unit.to_string())),
        ];
        if let Some((q1, q2, q3)) = self.quartiles {
            fields.push((
                "quartiles".to_string(),
                Json::Arr(vec![Json::Float(q1), Json::Float(q2), Json::Float(q3)]),
            ));
        }
        if let Some(n) = self.samples {
            fields.push(("samples".to_string(), Json::UInt(n)));
        }
        Json::Obj(fields)
    }

    pub fn print(&self) {
        let mut line = format!("  {:<44} {:>18.9} {:<6}", self.name, self.value, self.unit);
        if let Some((q1, q2, q3)) = self.quartiles {
            line += &format!(" quartiles [{q1:.9} {q2:.9} {q3:.9}]");
        }
        if let Some(n) = self.samples {
            line += &format!(" ({n} samples)");
        }
        println!("{line}");
    }
}

/// The five end-to-end metrics of an untraced run (rule 2 throughout).
pub fn end_to_end(outcome: &Outcome) -> Vec<Value> {
    let m = &outcome.measured;
    let unit = |name: &str| {
        END_TO_END
            .iter()
            .find(|e| e.name == name)
            .expect("end-to-end metric")
            .unit
    };
    let mut p50 = Value::estimated(
        "op_p50_us",
        unit("op_p50_us"),
        &m.p50_us(false),
        Better::Lower,
    );
    p50.samples = Some(m.samples(false));
    vec![
        Value::estimated(
            "ops_per_s",
            unit("ops_per_s"),
            &m.ops_per_s(false),
            Better::Higher,
        ),
        p50,
        Value::estimated(
            "cpu_us_per_op",
            unit("cpu_us_per_op"),
            &m.cpu_us_per_op(false),
            Better::Lower,
        ),
        Value::plain("peak_rss_mb", unit("peak_rss_mb"), host::peak_rss_mb()),
        Value {
            name: "setup_s",
            unit: unit("setup_s"),
            value: stats::best_share_median(
                &outcome.setup_s,
                plan::SETUP_BEST_SHARE,
                Better::Lower,
            ),
            quartiles: Some(stats::quartiles(&outcome.setup_s)),
            samples: Some(outcome.setup_s.len() as u64),
        },
    ]
}

/// The probes' rows as values, in [`PER_LAYER`] order; every metric that
/// is not a `bench.*` row must be among them.
pub fn layer_values(rows: Vec<(&'static str, f64)>) -> Vec<Value> {
    let rows: BTreeMap<&str, f64> = rows.into_iter().collect();
    PER_LAYER
        .iter()
        .filter(|l| !l.0.starts_with("bench."))
        .map(|&(name, unit, _)| {
            let value = *rows
                .get(name)
                .unwrap_or_else(|| panic!("no probe reported {name}"));
            Value::plain(name, unit, value)
        })
        .collect()
}

/// The per-layer metrics of a traced run: the `bench.*` rows that
/// describe the traced workload itself, after the layer probes' rows
/// when the run was asked for those too.
pub fn per_layer(outcome: &Outcome, probes: Option<Vec<(&'static str, f64)>>) -> Vec<Value> {
    let m = &outcome.measured;
    let untraced = estimate(&m.ops_per_s(false), Better::Higher).0;
    let traced = estimate(&m.ops_per_s(true), Better::Higher).0;
    let gen_cpu: Vec<f64> = m
        .segs
        .iter()
        .filter(|s| !s.traced)
        .map(|s| s.gen_cpu.as_secs_f64() * 1e6 / s.ops as f64)
        .collect();
    let timer_ns = crate::layers::ns_per_call(10, 20_000, || {
        std::hint::black_box(std::time::Instant::now());
    });
    let spans: usize = outcome
        .trace
        .iter()
        .flat_map(|t| &t.bufs)
        .map(|b| b.spans().len())
        .sum();
    let bench: BTreeMap<&str, f64> = BTreeMap::from([
        ("bench.load.gen_ns_per_op", outcome.gen_ns_per_op),
        (
            "bench.load.cpu_us_per_op",
            estimate(&gen_cpu, Better::Lower).0,
        ),
        ("bench.timer.now_ns", timer_ns),
        ("bench.trace.overhead_share", 1.0 - traced / untraced),
        (
            "bench.trace.op_p99_us",
            stats::quantile_sorted_f32(&m.all_samples, 0.99) as f64 / 1e3,
        ),
        (
            "bench.trace.op_ptop_us",
            stats::ptop_sorted_f32(&m.all_samples).1 as f64 / 1e3,
        ),
        ("bench.trace.samples", m.all_samples.len() as f64),
        ("bench.trace.spans", spans as f64),
    ]);
    let mut values = probes.map(layer_values).unwrap_or_default();
    values.extend(
        PER_LAYER
            .iter()
            .filter(|l| l.0.starts_with("bench."))
            .map(|&(name, unit, _)| Value::plain(name, unit, bench[name])),
    );
    values
}

/// `name → {value, unit, ..}` for a result file.
pub fn metrics_json(values: &[Value]) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|v| (v.name.to_string(), v.to_json()))
            .collect(),
    )
}

/// Self-time table of a traced run's spans.
pub fn span_summary(outcome: &Outcome) -> Json {
    let Some(t) = &outcome.trace else {
        return Json::Arr(Vec::new());
    };
    Json::Arr(
        trace::summarize(&t.bufs, t.names)
            .into_iter()
            .map(|(name, count, total, own)| {
                Json::obj([
                    ("name", Json::Str(name)),
                    ("count", Json::UInt(count)),
                    ("total_ns", Json::UInt(total)),
                    ("self_ns", Json::UInt(own)),
                ])
            })
            .collect(),
    )
}

/// Everything about one run that a result file keeps.
pub fn run_detail(
    workload: &str,
    ctx: &RunCtx,
    seconds: u64,
    outcome: &Outcome,
    values: &[Value],
) -> Json {
    let plan = plan::workload(workload).expect("known workload");
    Json::obj([
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::UInt(ctx.seed)),
        ("seconds", Json::UInt(seconds)),
        ("trace", Json::Bool(ctx.trace)),
        ("quick", Json::Bool(ctx.quick)),
        ("correct", Json::Bool(is_correct(outcome))),
        ("attempted", Json::UInt(outcome.measured.attempted)),
        ("failed", Json::UInt(outcome.measured.failed)),
        (
            "problems",
            Json::Arr(outcome.problems.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "stream_hash",
            Json::Str(format!("{:016x}", outcome.stream_hash)),
        ),
        ("procs", Json::UInt(ctx.procs as u64)),
        ("segment_ops", Json::UInt(outcome.segment_ops)),
        ("setup_reps", Json::UInt(ctx.setup_reps(plan) as u64)),
        ("segments", Json::UInt(outcome.measured.segs.len() as u64)),
        ("metrics", metrics_json(values)),
        ("per_segment", per_segment(outcome)),
        ("span_summary", span_summary(outcome)),
    ])
}

/// The raw per-segment values the run-level estimates were taken from,
/// in run order, and the set-up reps as 21 evenly spaced quantiles.
fn per_segment(outcome: &Outcome) -> Json {
    let m = &outcome.measured;
    let floats = |xs: Vec<f64>| Json::Arr(xs.into_iter().map(Json::Float).collect());
    let mut setup = outcome.setup_s.clone();
    setup.sort_by(f64::total_cmp);
    let setup_quantiles = (0..=20)
        .map(|i| setup[i * (setup.len() - 1) / 20])
        .collect();
    Json::obj([
        (
            "traced",
            Json::Arr(m.segs.iter().map(|s| Json::Bool(s.traced)).collect()),
        ),
        (
            "ops_per_s",
            floats(m.segs.iter().map(|s| s.ops_per_s()).collect()),
        ),
        (
            "op_p50_us",
            floats(m.segs.iter().map(|s| s.p50_ns / 1e3).collect()),
        ),
        (
            "cpu_us_per_op",
            floats(m.segs.iter().map(|s| s.cpu_us_per_op()).collect()),
        ),
        ("setup_s_quantiles", floats(setup_quantiles)),
    ])
}

pub fn is_correct(outcome: &Outcome) -> bool {
    outcome.problems.is_empty() && outcome.measured.failed == 0
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn driver_line(outcome: &Outcome, values: &[Value]) -> String {
    Json::obj([
        ("correct", Json::Bool(is_correct(outcome))),
        ("attempted", Json::UInt(outcome.measured.attempted.max(1))),
        ("failed", Json::UInt(outcome.measured.failed)),
        (
            "metrics",
            Json::Obj(
                values
                    .iter()
                    .map(|v| {
                        (
                            v.name.to_string(),
                            Json::obj([
                                ("value", Json::Float(v.value)),
                                ("unit", Json::Str(v.unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .to_compact()
}

/// The work sizes every result file records next to the fingerprint.
pub fn plan_json() -> Json {
    Json::obj([
        ("run_seconds", Json::UInt(plan::RUN_SECONDS)),
        (
            "segments_per_second",
            Json::UInt(plan::SEGMENTS_PER_SECOND as u64),
        ),
        ("trace_pairs", Json::UInt(plan::TRACE_PAIRS as u64)),
        (
            "workloads",
            Json::Obj(
                plan::WORKLOADS
                    .iter()
                    .map(|w| {
                        (
                            w.name.to_string(),
                            Json::obj([
                                ("segment_ops", Json::UInt(w.segment_ops)),
                                ("setup_reps", Json::UInt(w.setup_reps as u64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------
// Reading result files back

/// `workload → metric → one value per run`, from a result file.
pub type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn table_of(results: &Json) -> Table {
    let mut table = Table::new();
    let Some(Json::Obj(workloads)) = results.get("workloads") else {
        return table;
    };
    for (name, w) in workloads {
        let runs = w.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
        for run in runs {
            let Some(Json::Obj(metrics)) = run.get("metrics") else {
                continue;
            };
            for (metric, v) in metrics {
                if let Some(x) = v.get("value").and_then(Json::as_f64) {
                    table
                        .entry(name.clone())
                        .or_default()
                        .entry(metric.clone())
                        .or_default()
                        .push(x);
                }
            }
        }
    }
    table
}

/// Run-to-run spread of one metric over a file's runs, as a share of
/// their median: the distance between the quartiles when there are at
/// least four runs, the whole range with two or three, unknown with one.
pub fn spread(runs: &[f64]) -> Option<f64> {
    match runs.len() {
        0 | 1 => None,
        2 | 3 => {
            let lo = runs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = runs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            Some((hi - lo) / stats::median(runs))
        }
        _ => {
            let (q1, q2, q3) = stats::quartiles(runs);
            Some((q3 - q1) / q2)
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `base` (one value per run each) for a metric
/// with the given direction, bound and run-to-run spread. With the
/// spread unknown (single runs) nothing can be called improved.
pub fn verdict(
    better: Better,
    bound: f64,
    spread: Option<f64>,
    base: &[f64],
    new: &[f64],
) -> Verdict {
    let worsening = better.worsening(stats::median(base), stats::median(new));
    let Some(spread) = spread else {
        return if worsening > bound {
            Verdict::Regressed
        } else {
            Verdict::WithinBound
        };
    };
    let every_new_run_better = base
        .iter()
        .all(|&b| new.iter().all(|&n| better.worsening(b, n) < 0.0));
    if spread > bound {
        // The instrument cannot resolve a change of the bound's size
        // here, unless the two sides do not even overlap.
        return if every_new_run_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        Verdict::Regressed
    } else if -worsening > spread && every_new_run_better {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// Whether two result files were taken on comparable hosts; `Err` names
/// the first differing fingerprint field.
pub fn comparable(a: &Json, b: &Json) -> Result<(), String> {
    for key in host::COMPARABLE_KEYS {
        let fa = a.get("fingerprint").and_then(|f| f.get(key));
        let fb = b.get("fingerprint").and_then(|f| f.get(key));
        if fa.map(Json::to_compact) != fb.map(Json::to_compact) {
            return Err(format!(
                "{key}: {} vs {}",
                fa.map_or("missing".into(), Json::to_compact),
                fb.map_or("missing".into(), Json::to_compact)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let lower = Better::Lower;
        // 3 % slower with a 5 % bound and a tight instrument.
        assert_eq!(
            verdict(lower, 0.05, Some(0.01), &[100.0, 101.0], &[103.0, 104.0]),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(lower, 0.05, Some(0.01), &[100.0, 101.0], &[108.0, 109.0]),
            Verdict::Regressed
        );
        // Clearly faster, every run, by more than the spread.
        assert_eq!(
            verdict(lower, 0.05, Some(0.01), &[100.0, 101.0], &[90.0, 91.0]),
            Verdict::Improved
        );
        // Faster on the medians but the runs overlap: no claim.
        assert_eq!(
            verdict(lower, 0.05, Some(0.01), &[100.0, 90.0], &[95.0, 89.0]),
            Verdict::WithinBound
        );
        // The instrument is noisier than the bound: nothing is resolved
        // unless the sides do not overlap at all.
        assert_eq!(
            verdict(lower, 0.05, Some(0.09), &[100.0, 101.0], &[108.0, 99.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(lower, 0.05, Some(0.09), &[100.0, 101.0], &[60.0, 61.0]),
            Verdict::Improved
        );
        // Single runs: the spread is unknown, so no gain can be claimed.
        assert_eq!(
            verdict(lower, 0.05, None, &[100.0], &[60.0]),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(lower, 0.05, None, &[100.0], &[106.0]),
            Verdict::Regressed
        );
        // Direction matters: more ops/s is better.
        assert_eq!(
            verdict(Better::Higher, 0.05, Some(0.01), &[100.0], &[90.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn differing_fingerprints_are_not_comparable() {
        let file = |cpu: &str| {
            Json::obj([(
                "fingerprint",
                Json::obj(host::COMPARABLE_KEYS.map(|k| {
                    (
                        k,
                        if k == "cpu_model" {
                            Json::Str(cpu.into())
                        } else {
                            Json::UInt(2)
                        },
                    )
                })),
            )])
        };
        assert!(comparable(&file("xeon"), &file("xeon")).is_ok());
        let err = comparable(&file("xeon"), &file("epyc")).unwrap_err();
        assert!(err.starts_with("cpu_model"), "{err}");
        assert!(comparable(&file("xeon"), &Json::obj([("seed", Json::UInt(1))])).is_err());
    }

    #[test]
    fn tables_collect_one_value_per_run() {
        let run = |v: f64| {
            Json::obj([(
                "metrics",
                Json::obj([(
                    "ops_per_s",
                    Json::obj([
                        ("value", Json::Float(v)),
                        (
                            "quartiles",
                            Json::Arr(vec![
                                Json::Float(v * 0.9),
                                Json::Float(v),
                                Json::Float(v * 1.1),
                            ]),
                        ),
                    ]),
                )]),
            )])
        };
        let file = Json::obj([(
            "workloads",
            Json::obj([(
                "w",
                Json::obj([("runs", Json::Arr(vec![run(10.0), run(12.0)]))]),
            )]),
        )]);
        let t = table_of(&file);
        assert_eq!(t["w"]["ops_per_s"], vec![10.0, 12.0]);
        // Two runs: their whole range over their median.
        let s = spread(&t["w"]["ops_per_s"]).unwrap();
        assert!((s - 2.0 / 11.0).abs() < 1e-9, "{s}");
        // Four or more: the distance between the quartiles.
        assert_eq!(spread(&[10.0, 10.0, 10.0, 10.0]), Some(0.0));
        assert_eq!(spread(&[9.0, 10.0, 11.0, 12.0, 13.0]), Some(2.0 / 11.0));
        // One: unknown.
        assert_eq!(spread(&[10.0]), None);
    }
}
