//! PR acceptance: failure forensics end to end.
//!
//! A seeded non-linearizable run (the naive-collect snapshot) driven
//! through `explore` must produce a shrunk schedule that is strictly
//! shorter than the original, replays bit-identically to the same
//! violation under `Replay::strict`, and whose witness explanation names
//! the blocking real-time precedence edge `update(P1) ≺ update(P2)`.
//!
//! When `APRAM_FORENSICS_DIR` is set, the artifacts under inspection are
//! also written there (the CI failure-artifact hook).

use apram_bench::{e9_factory, E9RecCell, E9_PROCS};
use apram_history::{check_linearizable, CheckOutcome, CheckerConfig, Ops, Violation};
use apram_model::sim::strategy::Replay;
use apram_model::sim::{ExploreConfig, SimBuilder};
use apram_snapshot::collect::CollectArray;
use apram_snapshot::snapshot::{SnapOp, SnapResp, SnapshotSpec};
use std::sync::{Arc, Mutex};

/// Dump a forensics artifact when `APRAM_FORENSICS_DIR` is set, so a CI
/// failure of this suite leaves the evidence behind.
fn dump_artifact(name: &str, contents: &str) {
    let Ok(dir) = std::env::var("APRAM_FORENSICS_DIR") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir).expect("create APRAM_FORENSICS_DIR");
    std::fs::write(dir.join(name), contents).expect("write forensics artifact");
}

#[test]
fn shrunk_schedule_replays_bit_identically_and_names_the_blocking_edge() {
    let arr = CollectArray::new(E9_PROCS);
    let spec = SnapshotSpec::<u32>::new(E9_PROCS);
    let cell: E9RecCell = Arc::new(Mutex::new(None));

    // Explore until the checker rejects a history; the on-violation hook
    // then minimizes the failing schedule before `explore` returns.
    let visit_cell = Arc::clone(&cell);
    let stats = SimBuilder::new(arr.registers::<u32>())
        .owners(arr.owners())
        .explore(
            &ExploreConfig::new().shrink(true),
            e9_factory(arr, Arc::clone(&cell)),
            |out| {
                out.assert_no_panics();
                let hist = visit_cell.lock().unwrap().take().unwrap().snapshot();
                check_linearizable(&spec, &hist, &CheckerConfig::default()).is_ok()
            },
        );
    let report = stats
        .violation
        .expect("naive collect must produce a violation");
    dump_artifact("shrunk_schedule.jsonl", &{
        let mut s = report.to_json().to_compact();
        s.push('\n');
        s
    });

    // 1. Strictly shorter than the original failing schedule.
    assert!(
        report.schedule.len() < report.original.len(),
        "shrunk schedule ({} steps) must be strictly shorter than the original ({})",
        report.schedule.len(),
        report.original.len()
    );

    // 2. Strict replay with the schedule length as step budget reproduces
    //    the execution bit-identically — twice, to the same violation.
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut factory = e9_factory(arr, Arc::clone(&cell));
        let out = SimBuilder::new(arr.registers::<u32>())
            .owners(arr.owners())
            .strategy(Replay::strict(report.schedule.clone()))
            .max_steps(report.schedule.len() as u64)
            .run(factory());
        out.assert_no_panics();
        assert_eq!(
            out.trace.schedule(),
            report.schedule,
            "every entry of the shrunk schedule must be serviced"
        );
        let hist = cell.lock().unwrap().take().unwrap().snapshot();
        let verdict = check_linearizable(&spec, &hist, &CheckerConfig::default());
        runs.push((out.trace.clone(), hist, verdict));
    }
    let (trace_b, hist_b, verdict_b) = runs.pop().unwrap();
    let (trace_a, hist_a, verdict_a) = runs.pop().unwrap();
    assert_eq!(trace_a, trace_b, "trace must replay bit-identically");
    assert_eq!(hist_a, hist_b, "history must replay bit-identically");
    assert_eq!(verdict_a, verdict_b, "verdict must be identical");

    // 3. The witness explanation names the blocking real-time precedence
    //    edge: an update by P1 that completed before an update by P2 was
    //    invoked, which is exactly what the naive collect's view denies.
    let CheckOutcome::Violation(Violation::NotLinearizable { explanation, .. }) = verdict_a else {
        panic!("expected NotLinearizable, got {verdict_a:?}");
    };
    let explanation = *explanation;
    let ops = Ops::extract(&hist_a);
    dump_artifact("witness.json", &explanation.to_json().to_pretty(2));
    dump_artifact("witness.txt", &explanation.render(&ops));
    assert!(
        explanation.frontier.len() < ops.len(),
        "a violation cannot linearize every operation: {explanation:?}"
    );
    let recs = ops.records();
    let &(a, b) = explanation
        .edges
        .iter()
        .find(|&&(a, b)| recs[a].proc == 1 && recs[b].proc == 2)
        .unwrap_or_else(|| {
            panic!("explanation must name an update(P1) ≺ update(P2) edge: {explanation:?}")
        });
    assert!(matches!(recs[a].op, SnapOp::Update(_)));
    assert!(matches!(recs[b].op, SnapOp::Update(_)));
    assert!(ops.precedes(a, b), "the named edge must be real");
    // The scanner's view misses the P1 update yet includes a P2 value:
    // the anomaly the edge makes impossible to linearize.
    let view = recs
        .iter()
        .find_map(|r| match &r.resp {
            Some(SnapResp::View(v)) => Some(v.clone()),
            _ => None,
        })
        .expect("the scanner completed its snap");
    assert!(view[2].is_some(), "view saw a P2 value: {view:?}");
    // And the rendered form names the edge in human-readable terms.
    let rendered = explanation.render(&ops);
    assert!(
        rendered.contains(&format!("op {a} \u{227a} op {b}")),
        "{rendered}"
    );
}
