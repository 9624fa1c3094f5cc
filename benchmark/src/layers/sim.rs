//! `model::sim`: the explorer, the certifier, the sampler and a single
//! simulated run, on the `explore_verify` forest.

use super::{ns_per_fresh, Rows};
use crate::workloads::explore::{afek_tree, counter_tree, maxreg_crash_tree, TreeResult};
use apram_model::sim::{Budgeted, SampleConfig, SimBuilder};
use apram_objects::sim_spec;
use apram_objects::simspec::{e10_afek_bodies, e10_pair};
use apram_snapshot::AfekSnapshot;
use std::hint::black_box;
use std::time::Instant;

const SAMPLE_RUNS: u64 = 400;

fn forest(threads: usize) -> [TreeResult; 3] {
    [
        counter_tree(threads, &None),
        afek_tree(threads, &None),
        maxreg_crash_tree(threads, [5, 9], &None),
    ]
}

fn forest_runs_per_s(threads: usize) -> (f64, [TreeResult; 3]) {
    let mut best = 0.0f64;
    let mut last = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let trees = forest(threads);
        let runs: u64 = trees.iter().map(|t| t.runs).sum();
        best = best.max(runs as f64 / t0.elapsed().as_secs_f64());
        last = Some(trees);
    }
    (best, last.expect("three rounds ran"))
}

pub fn probe(threads: usize, rows: &mut Rows) {
    // One worker on this pinned core; then `threads` workers free to use
    // every core, which is what a user of the parallel engine gets.
    let (one, trees) = forest_runs_per_s(1);
    let many = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                crate::host::pin_current_thread_to(&crate::host::all_cpus());
                forest_runs_per_s(threads).0
            })
            .join()
            .expect("explorer thread")
    });
    let runs: u64 = trees.iter().map(|t| t.runs).sum();

    let t0 = Instant::now();
    black_box(afek_tree(1, &None));
    let certify_ms = t0.elapsed().as_secs_f64() * 1e3;

    let afek = sim_spec("afek").expect("registry name");
    let scfg = SampleConfig::new(vec![afek.bound(2); 2])
        .max_runs(SAMPLE_RUNS)
        .seed(7);
    let report = afek.sample(&scfg, 2, 1);
    let sample_runs_per_s = report.runs as f64 / report.elapsed.as_secs_f64();

    // One round-robin run of the snapshot cell, start to joined threads.
    let snap = AfekSnapshot::new(2);
    let run_ns = ns_per_fresh(
        100,
        || e10_pair(2, move |rec| e10_afek_bodies(snap, rec)),
        |(factory, check)| {
            let out = SimBuilder::new(snap.registers::<u32>())
                .owners(snap.owners())
                .run(factory());
            black_box(check(&out));
        },
    );

    rows.extend([
        ("model.sim.explore.runs", runs as f64),
        ("model.sim.explore.runs_per_s_1t", one),
        ("model.sim.explore.runs_per_s_nt", many),
        ("model.sim.explore.pruning_ratio", trees[2].pruning_ratio),
        ("model.sim.explore.replay_ratio", trees[2].replay_ratio),
        ("model.sim.certify_ms", certify_ms),
        ("model.sim.sample.runs_per_s", sample_runs_per_s),
        ("model.sim.run_us", run_ns / 1e3),
    ]);
}
