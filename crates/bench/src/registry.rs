//! The experiment registry: the one list of what `experiments run` can
//! run. The CLI's known names, its usage text, the order of `run all`
//! and the files it may write all derive from [`EXPERIMENTS`]; adding an
//! experiment is one module with a `*_report` function plus one entry
//! here.

use crate::report::{Report, Sink};
use crate::{e12, e13, e14, e15, experiments as sim, ExpOpts};

/// One experiment: how it is selected, headed and titled, what it may
/// write beside its report, and the function that runs it.
pub struct Experiment {
    /// The name `experiments run` selects it by, and the `<name>` of
    /// `BENCH_<name>.json`.
    pub name: &'static str,
    /// The markdown heading line printed above its tables.
    pub heading: &'static str,
    /// The `title` of its JSON report.
    pub title: &'static str,
    /// Every file it may hand back as an [`Artifact`](crate::Artifact),
    /// under the directory it goes to. Declared here, not discovered at
    /// run time, so that no two experiments can claim the same file.
    pub artifacts: &'static [(Sink, &'static str)],
    /// Run it.
    pub run: fn(&ExpOpts) -> Report,
}

/// Every experiment, in `run all` order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "e1",
        heading: "## E1 — Theorem 5 upper bound (approximate agreement steps)",
        title: "Theorem 5 upper bound: measured vs (2n+1)·log₂(Δ/ε)+O(n)",
        artifacts: &[],
        run: sim::e1_report,
    },
    Experiment {
        name: "e2",
        heading: "## E2 — Lemma 6 adversary lower bound (2 processes)",
        title: "Lemma 6 adversary lower bound: forced vs ⌊log₃(Δ/ε)⌋",
        artifacts: &[],
        run: sim::e2_report,
    },
    Experiment {
        name: "e3",
        heading: "## E3 — the bounded wait-free hierarchy (Theorems 7–8)",
        title: "Theorems 7–8: the bounded wait-free hierarchy",
        artifacts: &[],
        run: sim::e3_report,
    },
    Experiment {
        name: "e4",
        heading: "## E4 — §6.2 Scan operation counts",
        title: "§6.2 Scan operation counts: measured vs n²+n+1/n+2 and n²−1/n+1",
        artifacts: &[(Sink::Telemetry, "telemetry.prom")],
        run: sim::e4_report,
    },
    Experiment {
        name: "e4b",
        heading: "### E4b — lattice scan vs Afek et al. snapshot (reads per scan)",
        title: "Lattice scan vs Afek et al. snapshot, reads per scan",
        artifacts: &[],
        run: sim::e4b_report,
    },
    Experiment {
        name: "e5",
        heading: "## E5 — universal construction overhead per operation",
        title: "Universal construction overhead: measured vs 2(n²−1) reads / 2(n+1) writes",
        artifacts: &[],
        run: sim::e5_report,
    },
    Experiment {
        name: "e6",
        heading: "## E6 — exhaustive linearizability verification",
        title: "Exhaustive linearizability verification (Theorems 26 and 33)",
        artifacts: &[(Sink::Telemetry, "heartbeat.jsonl")],
        run: sim::e6_report,
    },
    Experiment {
        name: "e8",
        heading: "## E8 — ablations of Figure 2",
        title: "Figure 2 ablations: adaptive termination is unsound for n ≥ 3",
        artifacts: &[],
        run: sim::e8_report,
    },
    Experiment {
        name: "e9",
        heading: "## E9 — failure forensics (naive-collect negative control)",
        title: "Failure forensics: shrunk counterexample, witness explanation, search spans",
        artifacts: &[
            (Sink::Forensics, "shrunk_schedule.jsonl"),
            (Sink::Forensics, "witness.json"),
            (Sink::Forensics, "witness.txt"),
            (Sink::Forensics, "spans.json"),
            (Sink::Telemetry, "spans.folded"),
        ],
        run: sim::e9_report,
    },
    Experiment {
        name: "e10",
        heading: "## E10 — wait-freedom certification: the certified (n, f) grid",
        title: "Wait-freedom certification: certified (n, f) grid with survivor latency vs f",
        artifacts: &[],
        run: sim::e10_report,
    },
    Experiment {
        name: "e11",
        heading: "## E11 — sampled tail latency: step percentiles vs analytic bounds",
        title: "Sampled tail latency: p50/p99/p999/max survivor steps vs analytic bounds",
        artifacts: &[],
        run: sim::e11_report,
    },
    Experiment {
        name: "e12",
        heading: "## E12 — contention profile: hot cell vs spread, charged step accounting",
        title: "Contention profile: measured vs contention-charged vs worst-case steps, \
                hot cell vs spread workloads",
        artifacts: &[
            (Sink::Telemetry, "contention.prom"),
            (Sink::Telemetry, "contention_heatmap.json"),
        ],
        run: e12::e12_report,
    },
    Experiment {
        name: "e13",
        heading: "## E13 — native register-file scaling: threads × objects × tiers",
        title: "Native register-file scaling: ops/sec and op-latency percentiles, \
                packed vs buffered vs rwlock tiers",
        artifacts: &[],
        run: e13::e13_report,
    },
    Experiment {
        name: "e14",
        heading: "## E14 — flight-recorder overhead and online spot-checks",
        title: "Flight-recorder overhead: recorder off vs 1-in-64 sampling vs always-on, \
                with online linearizability spot-checks of reconstructed native histories",
        artifacts: &[
            (Sink::Telemetry, "flight.json"),
            (Sink::Telemetry, "flight.prom"),
        ],
        run: e14::e14_report,
    },
    Experiment {
        name: "e15",
        heading: "## E15 — serving-layer SLO and offline audit (apram-serve)",
        title: "Serving-layer SLO and offline audit: multi-tenant load with a mid-stream \
                client kill over apram-serve, flight-recorder histories re-checked offline",
        artifacts: &[(Sink::Telemetry, "serve.prom")],
        run: e15::e15_report,
    },
    Experiment {
        name: "explore",
        heading: "## Exploration throughput (sequential vs parallel explorer)",
        title: "Exploration throughput: schedules/sec of the parallel explorer by thread count",
        artifacts: &[],
        run: sim::explore_report,
    },
];

/// Look an experiment up by name.
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The experiment names, space-separated, in registry order (for usage
/// and error messages).
pub fn experiment_names() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    names.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Block;
    use apram_model::Json;

    #[test]
    fn names_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|other| other.name != e.name),
                "experiment '{}' is registered twice",
                e.name
            );
            assert_eq!(experiment(e.name).unwrap().heading, e.heading);
        }
        assert!(experiment("e7").is_none());
        assert!(
            experiment_names().starts_with("e1 e2 ") && experiment_names().ends_with(" explore")
        );
    }

    /// `--telemetry DIR` and `--forensics DIR` are each one directory
    /// for the whole run, so a file name claimed twice is a file written
    /// twice and kept once (E14 and E15 both wrote `flight.prom`).
    #[test]
    fn no_two_experiments_claim_the_same_artifact() {
        let claims: Vec<(&str, &(Sink, &str))> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.artifacts.iter().map(move |a| (e.name, a)))
            .collect();
        for (i, (name, claim)) in claims.iter().enumerate() {
            for (other, earlier) in &claims[..i] {
                assert_ne!(
                    claim, earlier,
                    "'{name}' and '{other}' both write this file"
                );
            }
        }
    }

    /// Every experiment's quick report is well formed: every markdown
    /// row has as many cells as there are headers, every JSON row of a
    /// table has the same key set, the printed text ends in a blank
    /// line, the JSON document re-parses, and every artifact handed back
    /// is one the entry declares.
    #[test]
    fn quick_reports_are_well_formed() {
        let opts = ExpOpts {
            seed: 0,
            quick: true,
            threads: 2,
        };
        let keys = |row: &Json| match row {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("a table row must be a JSON object, got {other:?}"),
        };
        for e in EXPERIMENTS {
            let report = (e.run)(&opts);
            let tables = report.body.iter().filter_map(|b| match b {
                Block::Table(t) => Some(t),
                Block::Text(_) => None,
            });
            let mut n_tables = 0;
            for t in tables {
                n_tables += 1;
                assert!(!t.headers.is_empty() && !t.rows.is_empty(), "{}", e.name);
                for cells in &t.cells {
                    assert_eq!(cells.len(), t.headers.len(), "{}: ragged row", e.name);
                }
                for row in &t.rows {
                    assert_eq!(keys(row), keys(&t.rows[0]), "{}: uneven keys", e.name);
                }
            }
            assert!(n_tables >= 1, "{} printed no table", e.name);
            assert!(report.render().ends_with("\n\n"), "{}", e.name);
            let doc = report.document(e, &opts, 0.5).to_pretty(2);
            let parsed = apram_model::json::parse(&doc).expect("report re-parses");
            assert_eq!(
                parsed.get("experiment").and_then(Json::as_str),
                Some(e.name)
            );
            assert!(parsed.get("rows").is_some());
            for a in &report.artifacts {
                assert!(
                    e.artifacts.contains(&(a.sink, a.name)),
                    "{} handed back undeclared artifact {}",
                    e.name,
                    a.name
                );
                assert!(!a.contents.is_empty(), "{}: {} is empty", e.name, a.name);
            }
            assert_eq!(report.artifacts.len(), e.artifacts.len(), "{}", e.name);
        }
    }
}
