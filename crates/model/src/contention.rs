//! Contention profiling: per-cell hot-spot attribution, stall tracing,
//! and contention-charged step accounting.
//!
//! The paper's step bounds are worst-case over all schedules, but Bender
//! et al. ("Fast Concurrent Primitives Despite Contention") argue the
//! honest cost model charges a step against the *point contention* it
//! suffered: an access serviced while `k` processes compete for the same
//! cell counts `1/k`, so a bound that is only reached by piling every
//! process onto one register "collapses" once the accounting normalizes
//! by the observed contention. This module is the profiling substrate
//! that records exactly that:
//!
//! - **Per-cell counters** ([`CellStats`]): reads/writes, how many were
//!   contended, the sum and peak of observed point contention, and
//!   *step-window* accessor statistics (how many distinct processes
//!   touched the cell per [`WINDOW`]-step window).
//! - **Stall attribution edges**: `(reader P, writer Q, cell c) -> k`
//!   counts the re-reads of `c` by `P` that observed an intervening
//!   write by `Q` — the steps `P` "spent because of" `Q` (the
//!   double-collect retry pattern makes these edges the interesting
//!   forensic signal).
//! - **Contention-charged accounting**: each access adds
//!   `CHARGE_UNIT / k` (integer fixed point, `k` = point contention) to
//!   its process's charged total, so charged step counts are exact
//!   rationals for `k <= 16` and deterministic for all `k` — no float
//!   summation order to worry about.
//!
//! A [`ContentionProfiler`] observes one execution: the paper counts
//! cost per execution (the steps one process takes in one schedule), and
//! so does the profile. [`crate::sim::SimBuilder::profile`] gives each
//! `run*` a fresh profiler, whose [`ContentionMap`] comes back on the
//! run's outcome; the schedule searches never profile.
//!
//! The simulator profiles *exactly*: the scheduler sees every pending
//! request, so point contention is the true number of processes blocked
//! on the cell. The native backend has no such view and does not
//! estimate one.

use crate::ctx::{AccessKind, ProcId};
use crate::json::Json;
use std::collections::BTreeMap;

/// Fixed-point denominator for contention-charged step accounting:
/// `lcm(1..=16)`, so a charge of `1/k` is exact for any point contention
/// `k <= 16` (and deterministically truncated above). One full step is
/// `CHARGE_UNIT`; charged totals divide back out via
/// [`ContentionMap::charged_steps`].
pub const CHARGE_UNIT: u64 = 720_720;

/// Width (in scheduler steps) of the accessor-counting window: within
/// each window the profiler records how many *distinct* processes
/// touched each cell.
pub const WINDOW: u64 = 64;

/// Accumulated contention statistics for one register (cell).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CellStats {
    /// Reads serviced on this cell.
    pub reads: u64,
    /// Writes serviced on this cell.
    pub writes: u64,
    /// Accesses whose point contention exceeded 1.
    pub contended: u64,
    /// Sum of the point contention observed by each access (so the mean
    /// is `contention_sum / (reads + writes)`).
    pub contention_sum: u64,
    /// Largest point contention any single access observed.
    pub peak_contention: u64,
    /// Step windows (width [`WINDOW`]) in which this cell was accessed.
    pub windows: u64,
    /// Sum over those windows of the number of distinct accessors.
    pub accessor_sum: u64,
    /// Largest number of distinct accessors in any one window.
    pub peak_window_accessors: u64,
}

impl CellStats {
    /// Total accesses to this cell.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Mean point contention per access (0.0 when untouched).
    pub fn mean_contention(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.contention_sum as f64 / self.accesses() as f64
        }
    }
}

/// The product of profiling one run: per-cell hot-spot counters,
/// per-process (raw and contention-charged) step totals, and stall
/// attribution edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContentionMap {
    n_procs: usize,
    n_regs: usize,
    /// Profiled runs in this map: always 1, a profile is of one run.
    pub runs: u64,
    /// Per-register statistics (`n_regs` entries).
    pub cells: Vec<CellStats>,
    /// Raw steps per process.
    pub proc_steps: Vec<u64>,
    /// Contention-charged steps per process, in [`CHARGE_UNIT`] fixed
    /// point.
    pub charged_total: Vec<u64>,
    /// The worst single-run charged total per process, in
    /// [`CHARGE_UNIT`] fixed point: of one run, `charged_total` itself.
    pub charged_worst: Vec<u64>,
    /// `(reader, writer, cell) -> stalled re-reads`: reads by `reader`
    /// that re-read `cell` after an intervening write by `writer`.
    pub stall_edges: BTreeMap<(ProcId, ProcId, usize), u64>,
}

impl ContentionMap {
    /// Number of processes.
    pub fn n_procs(&self) -> usize {
        self.n_procs
    }

    /// Number of registers.
    pub fn n_regs(&self) -> usize {
        self.n_regs
    }

    /// Total raw steps across all processes.
    pub fn total_steps(&self) -> u64 {
        self.proc_steps.iter().sum()
    }

    /// Contention-charged steps of `proc`, as a real number of steps
    /// ([`CHARGE_UNIT`] divided back out).
    pub fn charged_steps(&self, proc: ProcId) -> f64 {
        self.charged_total[proc] as f64 / CHARGE_UNIT as f64
    }

    /// Total contention-charged steps across all processes.
    pub fn total_charged_steps(&self) -> f64 {
        self.charged_total.iter().sum::<u64>() as f64 / CHARGE_UNIT as f64
    }

    /// The largest single-run contention-charged step total of any
    /// process — the charged analogue of a worst-case survivor latency.
    pub fn worst_charged_steps(&self) -> f64 {
        self.charged_worst.iter().copied().max().unwrap_or(0) as f64 / CHARGE_UNIT as f64
    }

    /// The hottest cells: the accessed registers sorted by descending
    /// contention sum (ties broken by register id), truncated to
    /// `limit`.
    pub fn hot_cells(&self, limit: usize) -> Vec<(usize, &CellStats)> {
        let mut idx: Vec<usize> = (0..self.n_regs)
            .filter(|&r| self.cells[r].accesses() > 0)
            .collect();
        idx.sort_by(|&a, &b| {
            self.cells[b]
                .contention_sum
                .cmp(&self.cells[a].contention_sum)
                .then(a.cmp(&b))
        });
        idx.truncate(limit);
        idx.into_iter().map(|r| (r, &self.cells[r])).collect()
    }

    /// The hot-cell heatmap as JSON: per-cell counters (cells with no
    /// accesses are omitted), per-process raw/charged steps, and the
    /// stall edges.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("n_procs", Json::UInt(self.n_procs as u64)),
            ("n_regs", Json::UInt(self.n_regs as u64)),
            ("runs", Json::UInt(self.runs)),
            ("charge_unit", Json::UInt(CHARGE_UNIT)),
            ("total_steps", Json::UInt(self.total_steps())),
            ("charged_steps", Json::Float(self.total_charged_steps())),
            (
                "worst_charged_steps",
                Json::Float(self.worst_charged_steps()),
            ),
            (
                "cells",
                Json::Arr(
                    (0..self.n_regs)
                        .filter(|&r| self.cells[r].accesses() > 0)
                        .map(|r| {
                            let c = &self.cells[r];
                            Json::obj([
                                ("reg", Json::UInt(r as u64)),
                                ("reads", Json::UInt(c.reads)),
                                ("writes", Json::UInt(c.writes)),
                                ("contended", Json::UInt(c.contended)),
                                ("contention_sum", Json::UInt(c.contention_sum)),
                                ("peak_contention", Json::UInt(c.peak_contention)),
                                ("mean_contention", Json::Float(c.mean_contention())),
                                ("windows", Json::UInt(c.windows)),
                                ("accessor_sum", Json::UInt(c.accessor_sum)),
                                ("peak_window_accessors", Json::UInt(c.peak_window_accessors)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "procs",
                Json::Arr(
                    (0..self.n_procs)
                        .map(|p| {
                            Json::obj([
                                ("proc", Json::UInt(p as u64)),
                                ("steps", Json::UInt(self.proc_steps[p])),
                                ("charged", Json::Float(self.charged_steps(p))),
                                (
                                    "charged_worst_run",
                                    Json::Float(self.charged_worst[p] as f64 / CHARGE_UNIT as f64),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "stall_edges",
                Json::Arr(
                    self.stall_edges
                        .iter()
                        .map(|(&(reader, writer, reg), &stalls)| {
                            Json::obj([
                                ("reader", Json::UInt(reader as u64)),
                                ("writer", Json::UInt(writer as u64)),
                                ("reg", Json::UInt(reg as u64)),
                                ("stalls", Json::UInt(stalls)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Push the heatmap's integer series into a
    /// [`crate::telemetry::TelemetryRegistry`] as labeled counters on
    /// `shard`, so the map exports through the same registry (and the
    /// same [`crate::telemetry::TelemetryRegistry::to_prometheus`]
    /// endpoint) as the rest of the run's telemetry.
    pub fn register_heatmap(
        &self,
        registry: &crate::telemetry::TelemetryRegistry,
        shard: usize,
        object: &str,
    ) {
        for (r, c) in self.cells.iter().enumerate() {
            if c.accesses() == 0 {
                continue;
            }
            let cell = r.to_string();
            for (kind, v) in [("read", c.reads), ("write", c.writes)] {
                registry
                    .labeled_counter(
                        "apram_cell_accesses",
                        &[("object", object), ("cell", &cell), ("kind", kind)],
                    )
                    .add(shard, v);
            }
            registry
                .labeled_counter(
                    "apram_cell_contended",
                    &[("object", object), ("cell", &cell)],
                )
                .add(shard, c.contended);
        }
        for (&(reader, writer, reg), &stalls) in &self.stall_edges {
            registry
                .labeled_counter(
                    "apram_stall_steps",
                    &[
                        ("object", object),
                        ("reader", &reader.to_string()),
                        ("writer", &writer.to_string()),
                        ("cell", &reg.to_string()),
                    ],
                )
                .add(shard, stalls);
        }
    }
}

/// Observes one execution and builds its [`ContentionMap`].
///
/// [`new`](Self::new) opens the run, [`record`](Self::record) is called
/// once per serviced access, and [`into_map`](Self::into_map) closes the
/// run. Recording is deterministic: given the same sequence of
/// `(proc, reg, kind, point_contention)` records, the resulting map is
/// identical — there is no clock and no float accumulation.
#[derive(Debug)]
pub struct ContentionProfiler {
    map: ContentionMap,
    /// Last process to write each register.
    last_writer: Vec<Option<ProcId>>,
    /// Writes applied to each register.
    write_epoch: Vec<u64>,
    /// `proc * n_regs + reg` -> write epoch the process last observed on
    /// the register (`u64::MAX` = never accessed it).
    seen_epoch: Vec<u64>,
    /// Distinct-accessor bitmask per register for the current window.
    window_mask: Vec<u64>,
    /// Steps into the current window.
    window_len: u64,
}

impl ContentionProfiler {
    /// A profiler for one run of `n_procs` processes over `n_regs`
    /// registers. Window accessor masks are 64-bit, so `n_procs` must be
    /// below 64 (the same limit the explorer's sleep sets impose).
    pub fn new(n_procs: usize, n_regs: usize) -> Self {
        assert!(
            n_procs < 64,
            "contention profiler supports at most 63 processes"
        );
        ContentionProfiler {
            map: ContentionMap {
                n_procs,
                n_regs,
                runs: 1,
                cells: vec![CellStats::default(); n_regs],
                proc_steps: vec![0; n_procs],
                charged_total: vec![0; n_procs],
                charged_worst: vec![0; n_procs],
                stall_edges: BTreeMap::new(),
            },
            last_writer: vec![None; n_regs],
            write_epoch: vec![0; n_regs],
            seen_epoch: vec![u64::MAX; n_procs * n_regs],
            window_mask: vec![0; n_regs],
            window_len: 0,
        }
    }

    fn flush_window(&mut self) {
        for (r, mask) in self.window_mask.iter_mut().enumerate() {
            if *mask != 0 {
                let accessors = mask.count_ones() as u64;
                let c = &mut self.map.cells[r];
                c.windows += 1;
                c.accessor_sum += accessors;
                c.peak_window_accessors = c.peak_window_accessors.max(accessors);
                *mask = 0;
            }
        }
        self.window_len = 0;
    }

    /// Record one serviced access: process `proc` touched register `reg`
    /// while `point_contention` processes (including itself, so `>= 1`)
    /// were competing for it.
    pub fn record(&mut self, proc: ProcId, reg: usize, kind: AccessKind, point_contention: u64) {
        let k = point_contention.max(1);
        let cell = &mut self.map.cells[reg];
        match kind {
            AccessKind::Read => cell.reads += 1,
            AccessKind::Write => cell.writes += 1,
        }
        if k > 1 {
            cell.contended += 1;
        }
        cell.contention_sum += k;
        cell.peak_contention = cell.peak_contention.max(k);

        self.map.proc_steps[proc] += 1;
        self.map.charged_total[proc] += CHARGE_UNIT / k;

        // Stall attribution: a read that observes a write it has not
        // seen before, by someone else, after having read the cell
        // earlier, is a stalled re-read charged to that writer.
        let slot = proc * self.map.n_regs + reg;
        match kind {
            AccessKind::Read => {
                let seen = self.seen_epoch[slot];
                if seen != u64::MAX && self.write_epoch[reg] > seen {
                    if let Some(w) = self.last_writer[reg] {
                        if w != proc {
                            *self.map.stall_edges.entry((proc, w, reg)).or_insert(0) += 1;
                        }
                    }
                }
                self.seen_epoch[slot] = self.write_epoch[reg];
            }
            AccessKind::Write => {
                self.write_epoch[reg] += 1;
                self.last_writer[reg] = Some(proc);
                self.seen_epoch[slot] = self.write_epoch[reg];
            }
        }

        // Window accounting: distinct accessors per WINDOW-step window.
        self.window_mask[reg] |= 1 << proc;
        self.window_len += 1;
        if self.window_len >= WINDOW {
            self.flush_window();
        }
    }

    /// Close the run: flush the partial window and return its map.
    pub fn into_map(mut self) -> ContentionMap {
        self.flush_window();
        self.map.charged_worst.clone_from(&self.map.charged_total);
        self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::validate_prometheus;

    fn record_seq(p: &mut ContentionProfiler, seq: &[(ProcId, usize, AccessKind, u64)]) {
        for &(proc, reg, kind, k) in seq {
            p.record(proc, reg, kind, k);
        }
    }

    #[test]
    fn charges_are_exact_fixed_point() {
        let mut p = ContentionProfiler::new(3, 2);
        // Three accesses at contention 1, 2, 3: charged 1 + 1/2 + 1/3.
        record_seq(
            &mut p,
            &[
                (0, 0, AccessKind::Write, 1),
                (1, 0, AccessKind::Read, 2),
                (2, 0, AccessKind::Read, 3),
            ],
        );
        let m = p.into_map();
        assert_eq!(m.total_steps(), 3);
        let charged = m.charged_total.iter().sum::<u64>();
        assert_eq!(charged, CHARGE_UNIT + CHARGE_UNIT / 2 + CHARGE_UNIT / 3);
        assert!((m.total_charged_steps() - (1.0 + 0.5 + 1.0 / 3.0)).abs() < 1e-12);
        assert_eq!(m.cells[0].contended, 2);
        assert_eq!(m.cells[0].peak_contention, 3);
        assert_eq!(m.cells[0].contention_sum, 6);
        assert_eq!(m.cells[1].accesses(), 0);
        // A profile is of one run: its worst run is the whole of it.
        assert_eq!(m.runs, 1);
        assert_eq!(m.charged_worst, m.charged_total);
    }

    #[test]
    fn stall_edges_attribute_rereads_to_the_intervening_writer() {
        let mut p = ContentionProfiler::new(3, 1);
        record_seq(
            &mut p,
            &[
                (0, 0, AccessKind::Read, 1),  // first read: no edge
                (1, 0, AccessKind::Write, 1), // intervening writer Q=1
                (0, 0, AccessKind::Read, 1),  // stalled re-read -> (0,1,0)
                (0, 0, AccessKind::Read, 1),  // no new write: no edge
                (2, 0, AccessKind::Write, 1),
                (0, 0, AccessKind::Read, 1), // stalled re-read -> (0,2,0)
            ],
        );
        let m = p.into_map();
        assert_eq!(m.stall_edges.get(&(0, 1, 0)), Some(&1));
        assert_eq!(m.stall_edges.get(&(0, 2, 0)), Some(&1));
        assert_eq!(m.stall_edges.len(), 2);
    }

    #[test]
    fn own_writes_do_not_stall() {
        let mut p = ContentionProfiler::new(2, 1);
        record_seq(
            &mut p,
            &[
                (0, 0, AccessKind::Read, 1),
                (0, 0, AccessKind::Write, 1),
                (0, 0, AccessKind::Read, 1), // saw only its own write
            ],
        );
        assert!(p.into_map().stall_edges.is_empty());
    }

    #[test]
    fn windows_count_distinct_accessors() {
        let mut p = ContentionProfiler::new(4, 2);
        // 3 distinct accessors on reg 0, one on reg 1, in one window.
        record_seq(
            &mut p,
            &[
                (0, 0, AccessKind::Read, 1),
                (1, 0, AccessKind::Read, 1),
                (2, 0, AccessKind::Read, 1),
                (0, 0, AccessKind::Read, 1), // repeat: still 3 distinct
                (3, 1, AccessKind::Write, 1),
            ],
        );
        let m = p.into_map(); // flushes the partial window
        assert_eq!(m.cells[0].windows, 1);
        assert_eq!(m.cells[0].accessor_sum, 3);
        assert_eq!(m.cells[0].peak_window_accessors, 3);
        assert_eq!(m.cells[1].windows, 1);
        assert_eq!(m.cells[1].accessor_sum, 1);
    }

    #[test]
    fn window_boundary_splits_accessor_counts() {
        let mut p = ContentionProfiler::new(2, 1);
        for _ in 0..WINDOW {
            p.record(0, 0, AccessKind::Read, 1);
        }
        // Window flushed exactly at the boundary; next access opens a new one.
        p.record(1, 0, AccessKind::Read, 1);
        let m = p.into_map();
        assert_eq!(m.cells[0].windows, 2);
        assert_eq!(m.cells[0].accessor_sum, 2); // 1 + 1 distinct
        assert_eq!(m.cells[0].peak_window_accessors, 1);
    }

    #[test]
    fn hot_cells_rank_by_contention() {
        let mut p = ContentionProfiler::new(2, 3);
        record_seq(
            &mut p,
            &[
                (0, 2, AccessKind::Read, 2),
                (1, 2, AccessKind::Read, 2),
                (0, 1, AccessKind::Read, 1),
            ],
        );
        let m = p.into_map();
        let hot = m.hot_cells(2);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, 2);
        assert_eq!(hot[1].0, 1);
        assert_eq!(m.hot_cells(1).len(), 1);
    }

    #[test]
    fn json_and_prometheus_exports_are_well_formed() {
        let mut p = ContentionProfiler::new(2, 2);
        record_seq(
            &mut p,
            &[
                (0, 0, AccessKind::Read, 2),
                (1, 0, AccessKind::Write, 2),
                (0, 0, AccessKind::Read, 1),
            ],
        );
        let m = p.into_map();
        let doc = m.to_json();
        assert_eq!(doc.get("runs").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("total_steps").and_then(Json::as_u64), Some(3));
        let cells = doc.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 1); // untouched cell omitted
        let parsed = crate::json::parse(&doc.to_compact()).unwrap();
        assert_eq!(
            parsed.get("charge_unit").and_then(Json::as_u64),
            Some(CHARGE_UNIT)
        );

        let reg = crate::telemetry::TelemetryRegistry::new(1);
        m.register_heatmap(&reg, 0, "double \"quoted\" \\ name");
        let prom = reg.to_prometheus();
        validate_prometheus(&prom).expect("heatmap must validate");
        assert!(prom.contains("apram_cell_accesses{object=\"double \\\"quoted\\\" \\\\ name\",cell=\"0\",kind=\"read\"} 2"));
        assert!(prom.contains("apram_stall_steps"));
    }

    #[test]
    fn registry_heatmap_export_validates() {
        let mut p = ContentionProfiler::new(2, 1);
        record_seq(
            &mut p,
            &[
                (0, 0, AccessKind::Read, 1),
                (1, 0, AccessKind::Write, 2),
                (0, 0, AccessKind::Read, 2),
            ],
        );
        let m = p.into_map();
        let reg = crate::telemetry::TelemetryRegistry::new(2);
        m.register_heatmap(&reg, 0, "afek");
        m.register_heatmap(&reg, 1, "afek"); // second shard accumulates
        let text = reg.to_prometheus();
        validate_prometheus(&text).expect("registry export must validate");
        assert!(text.contains("apram_cell_accesses{object=\"afek\",cell=\"0\",kind=\"read\"} 4"));
        assert!(text
            .contains("apram_stall_steps{object=\"afek\",reader=\"0\",writer=\"1\",cell=\"0\"} 2"));
    }
}
