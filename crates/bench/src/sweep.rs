//! The config-driven sweep harness: a [`SweepPlan`] (a hand-rolled-JSON
//! grid over object × n × f × scheduler × schedule-budget) driving a
//! resumable run directory.
//!
//! A sweep materializes as `runs/<name>/`:
//!
//! * `plan.json` — the plan itself, written at sweep start and verified
//!   on resume (resuming under a different plan is an error, not a
//!   silent mix of grids).
//! * `cell_<id>.json` — one report per grid cell, written atomically
//!   (temp file + rename) after the cell completes. Cell reports are
//!   **deterministic bytes** for a given plan: rerunning or resuming a
//!   cell reproduces its file exactly.
//! * `manifest.json` — sweep progress (completed cell ids, in grid
//!   execution order), rewritten after every cell.
//! * `heartbeat.jsonl` — one [`ProgressBeat`] line per completed cell
//!   (appended across resumes), via the telemetry plumbing.
//!
//! Resume is cell-file-based: [`run_sweep`] skips any cell whose report
//! already parses, so an interrupted sweep restarts from the last
//! completed cell — and because each cell's seed is derived from the
//! root seed and the cell *id* (not its position or the completion
//! history), the resumed cells are bit-identical to what an
//! uninterrupted sweep would have produced.
//!
//! # Seed scheme
//!
//! One root seed reproduces the whole sweep (see [`apram_model::seed`]):
//! cell execution order is shuffled with `split(seed, STREAM_ORDER)`,
//! and each cell samples with `split(seed, STREAM_CELL ^ fnv1a(id))`.
//!
//! # Plan schema
//!
//! ```json
//! {
//!   "name": "quick",
//!   "seed": 0,
//!   "objects": ["snapshot", "afek", "double-collect", "scan", "lock"],
//!   "ns": [2, 3],
//!   "fs": [0, 1],
//!   "schedulers": ["random", "pct3", "exhaustive"],
//!   "budget": {"runs": 2000, "depth": 0}
//! }
//! ```
//!
//! `objects` name the snapshot constructions of the E10/E11 grids
//! (`lock` is the negative control and only instantiates at `n = 2`);
//! `schedulers` are `exhaustive` (the certifier), `random` (uniform
//! schedule sampling) or `pct<d>` (PCT at depth `d`); `budget.runs` is
//! the schedule budget per sampled cell and `budget.depth` the
//! exhaustive branching depth (0 = the E10 per-cell default). A plan
//! whose grid holds an exhaustive cell wider than the explorer can
//! branch over (n > 64 at f = 0, n > 32 at f >= 1; see
//! [`MAX_CHOICES`]) is refused when parsed.

use apram_model::seed::{fnv1a, split, STREAM_CELL, STREAM_ORDER};
use apram_model::sim::explore::MAX_CHOICES;
use apram_model::sim::{
    Budgeted, Certificate, CertifyConfig, ExploreConfig, SampleConfig, SampleReport, Sampler,
};
use apram_model::telemetry::{Heartbeat, ProgressBeat};
use apram_model::Json;
use apram_objects::simspec::{sim_spec, SimObjectSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The objects a sweep can instantiate, in canonical grid order.
pub const SWEEP_OBJECTS: [&str; 5] = apram_objects::simspec::SIM_OBJECTS;

/// How one cell explores its schedule space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellSched {
    /// Exhaustive fault-aware certification (the E10 engine).
    Exhaustive,
    /// Uniform random schedule sampling.
    Random,
    /// PCT priority sampling at the given depth.
    Pct(u32),
}

impl CellSched {
    /// Parse a scheduler name: `exhaustive`, `random`, or `pct<d>`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "exhaustive" => Ok(CellSched::Exhaustive),
            "random" => Ok(CellSched::Random),
            _ => s
                .strip_prefix("pct")
                .and_then(|d| d.parse::<u32>().ok())
                .filter(|&d| d >= 1)
                .map(CellSched::Pct)
                .ok_or_else(|| format!("unknown scheduler '{s}' (want exhaustive|random|pct<d>)")),
        }
    }

    /// The canonical spelling [`parse`](Self::parse) accepts.
    pub fn label(&self) -> String {
        match self {
            CellSched::Exhaustive => "exhaustive".into(),
            CellSched::Random => "random".into(),
            CellSched::Pct(d) => format!("pct{d}"),
        }
    }

    fn sampler(&self) -> Option<Sampler> {
        match *self {
            CellSched::Exhaustive => None,
            CellSched::Random => Some(Sampler::Random),
            CellSched::Pct(depth) => Some(Sampler::Pct { depth }),
        }
    }
}

/// One grid cell: an object instance, fault budget, and scheduler with
/// its schedule budget.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Object name (one of [`SWEEP_OBJECTS`]).
    pub object: String,
    /// Number of processes.
    pub n: usize,
    /// Crash budget (exhaustive: all patterns up to `f`; sampled: `f`
    /// random victims per run).
    pub f: usize,
    /// The exploration engine.
    pub sched: CellSched,
    /// Schedule budget for sampled cells.
    pub runs: u64,
    /// Branching depth for exhaustive cells (0 = E10 default).
    pub depth: usize,
}

impl SweepCell {
    /// The cell's stable identity — the key for its report file and its
    /// seed stream. Independent of grid order, so reordering or
    /// extending a plan never changes an existing cell's results.
    pub fn id(&self) -> String {
        format!(
            "{}_n{}_f{}_{}",
            self.object.replace('-', ""),
            self.n,
            self.f,
            self.sched.label()
        )
    }

    /// This cell's root seed under the sweep's seed.
    pub fn seed(&self, sweep_seed: u64) -> u64 {
        split(sweep_seed, STREAM_CELL ^ fnv1a(self.id().as_bytes()))
    }
}

/// The declarative sweep grid; see the [module docs](self) for the JSON
/// schema.
#[derive(Clone, Debug)]
pub struct SweepPlan {
    /// Sweep name (names the run directory).
    pub name: String,
    /// Root seed: the whole sweep is a pure function of this value.
    pub seed: u64,
    /// Objects to instantiate.
    pub objects: Vec<String>,
    /// Process counts.
    pub ns: Vec<usize>,
    /// Crash budgets.
    pub fs: Vec<usize>,
    /// Exploration engines.
    pub schedulers: Vec<CellSched>,
    /// Schedule budget per sampled cell.
    pub runs: u64,
    /// Branching depth for exhaustive cells (0 = E10 default).
    pub depth: usize,
}

impl SweepPlan {
    /// Parse a plan from its JSON text.
    pub fn from_json(text: &str) -> Result<SweepPlan, String> {
        let doc = apram_model::json::parse(text).map_err(|e| format!("bad plan JSON: {e:?}"))?;
        let str_field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("plan is missing string field '{k}'"))
        };
        let u64_list = |k: &str| -> Result<Vec<u64>, String> {
            doc.get(k)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("plan is missing array field '{k}'"))?
                .iter()
                .map(|v| v.as_u64().ok_or_else(|| format!("non-integer in '{k}'")))
                .collect()
        };
        let objects: Vec<String> = doc
            .get("objects")
            .and_then(Json::as_arr)
            .ok_or("plan is missing array field 'objects'")?
            .iter()
            .map(|v| {
                let name = v.as_str().ok_or("non-string in 'objects'")?;
                if SWEEP_OBJECTS.contains(&name) {
                    Ok(name.to_string())
                } else {
                    Err(format!("unknown object '{name}' (want {SWEEP_OBJECTS:?})"))
                }
            })
            .collect::<Result<_, String>>()?;
        let schedulers = doc
            .get("schedulers")
            .and_then(Json::as_arr)
            .ok_or("plan is missing array field 'schedulers'")?
            .iter()
            .map(|v| CellSched::parse(v.as_str().ok_or("non-string in 'schedulers'")?))
            .collect::<Result<Vec<_>, String>>()?;
        let budget = doc.get("budget").unwrap_or(&Json::Null);
        let plan = SweepPlan {
            name: str_field("name")?,
            seed: doc.get("seed").and_then(Json::as_u64).unwrap_or(0),
            objects,
            ns: u64_list("ns")?.into_iter().map(|n| n as usize).collect(),
            fs: u64_list("fs")?.into_iter().map(|f| f as usize).collect(),
            schedulers,
            runs: budget.get("runs").and_then(Json::as_u64).unwrap_or(1000),
            depth: budget.get("depth").and_then(Json::as_u64).unwrap_or(0) as usize,
        };
        if plan.name.is_empty()
            || !plan
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(format!(
                "plan name '{}' must be non-empty [A-Za-z0-9_-]",
                plan.name
            ));
        }
        if plan.objects.is_empty() || plan.ns.is_empty() || plan.fs.is_empty() {
            return Err("plan grid is empty (objects/ns/fs)".into());
        }
        if plan.schedulers.is_empty() {
            return Err("plan has no schedulers".into());
        }
        // A crash budget doubles the branches at each decision point.
        let too_wide = |c: &SweepCell| {
            c.sched == CellSched::Exhaustive && c.n * (1 + usize::from(c.f > 0)) > MAX_CHOICES
        };
        if let Some(c) = plan.cells().into_iter().find(too_wide) {
            return Err(format!(
                "exhaustive cell n = {}, f = {} is too wide: the explorer branches over at most \
                 {MAX_CHOICES} choices, so it takes n <= {MAX_CHOICES} at f = 0 and n <= {} at f >= 1",
                c.n,
                c.f,
                MAX_CHOICES / 2
            ));
        }
        Ok(plan)
    }

    /// Serialize back to the JSON schema [`from_json`](Self::from_json)
    /// parses.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("seed", Json::UInt(self.seed)),
            (
                "objects",
                Json::Arr(self.objects.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "ns",
                Json::Arr(self.ns.iter().map(|&n| Json::UInt(n as u64)).collect()),
            ),
            (
                "fs",
                Json::Arr(self.fs.iter().map(|&f| Json::UInt(f as u64)).collect()),
            ),
            (
                "schedulers",
                Json::Arr(
                    self.schedulers
                        .iter()
                        .map(|s| Json::Str(s.label()))
                        .collect(),
                ),
            ),
            (
                "budget",
                Json::obj([
                    ("runs", Json::UInt(self.runs)),
                    ("depth", Json::UInt(self.depth as u64)),
                ]),
            ),
        ])
    }

    /// Expand the grid into cells, in execution order: the cross
    /// product, minus meaningless combinations (an object with a
    /// [`fixed_n`](SimObjectSpec::fixed_n) — the lock control, `n = 2` —
    /// only instantiates at that size; `f` stays below `n`), shuffled
    /// deterministically by `split(seed, STREAM_ORDER)` so long sweeps
    /// interleave cheap and expensive cells instead of draining one
    /// object at a time.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::new();
        for object in &self.objects {
            let fixed_n = spec_for(object).fixed_n();
            for &n in &self.ns {
                if fixed_n.is_some_and(|k| k != n) {
                    continue;
                }
                for &f in &self.fs {
                    if f >= n {
                        continue;
                    }
                    for sched in &self.schedulers {
                        cells.push(SweepCell {
                            object: object.clone(),
                            n,
                            f,
                            sched: *sched,
                            runs: self.runs,
                            depth: self.depth,
                        });
                    }
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(split(self.seed, STREAM_ORDER));
        for i in (1..cells.len()).rev() {
            cells.swap(i, rng.gen_range(0..=i));
        }
        cells
    }
}

/// Look up the sim spec for an object name, panicking with the sweep's
/// canonical error on an unknown name.
fn spec_for(object: &str) -> &'static dyn SimObjectSpec {
    sim_spec(object).unwrap_or_else(|| panic!("unknown object '{object}'"))
}

/// Analytic per-process step bound for one object instance (the same
/// bounds the E10 grid certifies against; `lock`'s is the reference
/// bound its tail is expected to blow through). Delegates to the
/// [`apram_objects::simspec`] registry.
pub fn object_bound(object: &str, n: usize) -> u64 {
    spec_for(object).bound(n)
}

/// Build the sampled configuration shared by every object dispatch arm.
fn cell_sample_config(cell: &SweepCell, seed: u64) -> SampleConfig {
    let sampler = cell.sched.sampler().expect("sampled cell");
    let spec = spec_for(&cell.object);
    SampleConfig::new(vec![spec.bound(cell.n); cell.n])
        .sampler(sampler)
        .seed(seed)
        .tail_only(spec.tail_only())
        .max_runs(cell.runs)
        .max_crashes(cell.f)
}

/// Run one *sampled* cell (`random` / `pct<d>`) through the
/// [`apram_objects::simspec`] registry; `seed` is the cell seed from
/// [`SweepCell::seed`].
pub fn run_sample_cell(cell: &SweepCell, seed: u64, threads: usize) -> SampleReport {
    let scfg = cell_sample_config(cell, seed);
    spec_for(&cell.object).sample(&scfg, cell.n, threads)
}

/// Certify one *exhaustive* cell with `threads` workers: the branching
/// depth used (the cell's, or the object's default for `(n, f)`) and the
/// certificate — bit-identical across thread counts by the certifier's
/// own guarantee, which is what E10's `parallel_agrees` column checks.
pub fn certify_cell(cell: &SweepCell, threads: usize) -> (usize, Certificate) {
    let n = cell.n;
    let spec = spec_for(&cell.object);
    let depth = if cell.depth > 0 {
        cell.depth
    } else {
        spec.default_depth(n, cell.f)
    };
    let ccfg = CertifyConfig::new(vec![spec.bound(n); n])
        .explore(ExploreConfig::new().max_depth(depth).max_crashes(cell.f));
    (depth, spec.certify(&ccfg, n, threads))
}

/// Run one cell and build its (deterministic) report document.
pub fn run_cell(cell: &SweepCell, sweep_seed: u64, threads: usize) -> Json {
    let seed = cell.seed(sweep_seed);
    let mut fields: Vec<(String, Json)> = vec![
        ("cell".into(), Json::Str(cell.id())),
        ("object".into(), Json::Str(cell.object.clone())),
        ("n".into(), Json::UInt(cell.n as u64)),
        ("f".into(), Json::UInt(cell.f as u64)),
        ("scheduler".into(), Json::Str(cell.sched.label())),
        (
            "bound".into(),
            Json::UInt(object_bound(&cell.object, cell.n)),
        ),
    ];
    let body = match cell.sched {
        CellSched::Exhaustive => {
            let (depth, cert) = certify_cell(cell, threads);
            Json::obj([
                ("depth", Json::UInt(depth as u64)),
                ("certificate", cert.to_json()),
            ])
        }
        _ => {
            let report = run_sample_cell(cell, seed, threads);
            Json::obj([("sample", report.to_json())])
        }
    };
    let Json::Obj(pairs) = body else {
        unreachable!("cell bodies are objects")
    };
    fields.extend(pairs);
    Json::obj(fields)
}

/// Options for [`run_sweep`] / [`resume_sweep`].
#[derive(Clone, Debug, Default)]
pub struct SweepOpts {
    /// Worker threads per cell (0 = all available parallelism).
    pub threads: usize,
    /// Stop (successfully) after completing this many *new* cells —
    /// the hook the resume tests and the CI kill-resume check use to
    /// interrupt a sweep at a cell boundary.
    pub max_cells: Option<usize>,
    /// Heartbeat cadence for `heartbeat.jsonl` (a beat is also forced
    /// after every completed cell).
    pub every: Duration,
}

/// What a sweep invocation did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Cells in the plan's grid.
    pub total: usize,
    /// Cells skipped because their report already existed (resume).
    pub skipped: usize,
    /// Cells executed by this invocation.
    pub completed: usize,
}

impl SweepOutcome {
    /// Every cell in the grid now has a report.
    pub fn done(&self) -> bool {
        self.skipped + self.completed == self.total
    }
}

/// File name of one cell's report.
pub fn cell_file(dir: &Path, cell: &SweepCell) -> PathBuf {
    dir.join(format!("cell_{}.json", cell.id()))
}

/// Atomically write `contents` (temp file + rename), so an interrupted
/// sweep never leaves a half-written report to be mistaken for a
/// completed cell.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Execute `plan` into `dir`, skipping cells whose reports already
/// exist; see the [module docs](self) for the directory layout and
/// resume semantics.
pub fn run_sweep(plan: &SweepPlan, dir: &Path, opts: &SweepOpts) -> std::io::Result<SweepOutcome> {
    let started = Instant::now();
    std::fs::create_dir_all(dir)?;
    let plan_path = dir.join("plan.json");
    let plan_text = plan.to_json().to_pretty(2);
    if plan_path.exists() {
        let existing = std::fs::read_to_string(&plan_path)?;
        if existing != plan_text {
            return Err(std::io::Error::other(format!(
                "{} holds a different plan; refusing to mix sweeps (use a fresh --out)",
                plan_path.display()
            )));
        }
    } else {
        write_atomic(&plan_path, &plan_text)?;
    }
    let hb_file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("heartbeat.jsonl"))?;
    let every = if opts.every.is_zero() {
        Duration::from_millis(500)
    } else {
        opts.every
    };
    let hb = Heartbeat::new(every, hb_file);

    let cells = plan.cells();
    let mut outcome = SweepOutcome {
        total: cells.len(),
        skipped: 0,
        completed: 0,
    };
    let mut completed_ids: Vec<String> = Vec::new();
    let write_manifest = |done_ids: &[String], outcome: &SweepOutcome| {
        let doc = Json::obj([
            ("name", Json::Str(plan.name.clone())),
            ("seed", Json::UInt(plan.seed)),
            ("total_cells", Json::UInt(outcome.total as u64)),
            (
                "completed",
                Json::Arr(done_ids.iter().cloned().map(Json::Str).collect()),
            ),
            ("done", Json::Bool(done_ids.len() == outcome.total)),
        ]);
        write_atomic(&dir.join("manifest.json"), &doc.to_pretty(2))
    };

    for cell in &cells {
        let path = cell_file(dir, cell);
        let prior = std::fs::read_to_string(&path)
            .ok()
            .filter(|text| apram_model::json::parse(text).is_ok());
        if prior.is_some() {
            outcome.skipped += 1;
            completed_ids.push(cell.id());
            continue;
        }
        if opts.max_cells.is_some_and(|k| outcome.completed >= k) {
            write_manifest(&completed_ids, &outcome)?;
            return Ok(outcome);
        }
        let report = run_cell(cell, plan.seed, opts.threads);
        write_atomic(&path, &report.to_pretty(2))?;
        outcome.completed += 1;
        completed_ids.push(cell.id());
        write_manifest(&completed_ids, &outcome)?;
        hb.emit(&ProgressBeat {
            elapsed: started.elapsed(),
            runs: (outcome.skipped + outcome.completed) as u64,
            sleep_skips: 0,
            queue_depth: outcome.total - outcome.skipped - outcome.completed,
            violation_found: report
                .get("sample")
                .and_then(|s| s.get("violations"))
                .and_then(Json::as_u64)
                .is_some_and(|v| v > 0),
        });
    }
    write_manifest(&completed_ids, &outcome)?;
    Ok(outcome)
}

/// Resume the sweep recorded in `dir`: re-parse its `plan.json` and
/// re-run, skipping every completed cell.
pub fn resume_sweep(dir: &Path, opts: &SweepOpts) -> std::io::Result<SweepOutcome> {
    let plan_path = dir.join("plan.json");
    let text = std::fs::read_to_string(&plan_path)
        .map_err(|e| std::io::Error::other(format!("cannot read {}: {e}", plan_path.display())))?;
    let plan = SweepPlan::from_json(&text).map_err(std::io::Error::other)?;
    run_sweep(&plan, dir, opts)
}

/// The built-in quick sweep plan (the CI smoke grid): two schedulers
/// over the full object set at n = 2, one crash, a few hundred
/// schedules per sampled cell.
pub fn quick_plan(seed: u64) -> SweepPlan {
    SweepPlan {
        name: "quick".into(),
        seed,
        objects: SWEEP_OBJECTS.iter().map(|s| s.to_string()).collect(),
        ns: vec![2],
        fs: vec![1],
        schedulers: vec![CellSched::Random, CellSched::Pct(3)],
        runs: 300,
        depth: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan(seed: u64) -> SweepPlan {
        SweepPlan {
            name: "tiny".into(),
            seed,
            objects: vec!["scan".into(), "lock".into()],
            ns: vec![2],
            fs: vec![0, 1],
            schedulers: vec![CellSched::Random, CellSched::Exhaustive],
            runs: 40,
            depth: 5,
        }
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = tiny_plan(9);
        let text = plan.to_json().to_pretty(2);
        let back = SweepPlan::from_json(&text).unwrap();
        assert_eq!(back.to_json().to_pretty(2), text);
        assert_eq!(back.cells().len(), plan.cells().len());
    }

    #[test]
    fn plan_rejects_garbage() {
        assert!(SweepPlan::from_json("{").is_err());
        assert!(SweepPlan::from_json("{\"name\": \"x\"}").is_err());
        let bad_obj =
            r#"{"name":"x","seed":0,"objects":["nope"],"ns":[2],"fs":[0],"schedulers":["random"]}"#;
        assert!(SweepPlan::from_json(bad_obj)
            .unwrap_err()
            .contains("unknown object"));
        let bad_sched =
            r#"{"name":"x","seed":0,"objects":["scan"],"ns":[2],"fs":[0],"schedulers":["pct0"]}"#;
        assert!(SweepPlan::from_json(bad_sched)
            .unwrap_err()
            .contains("scheduler"));
        let bad_name = r#"{"name":"a/b","seed":0,"objects":["scan"],"ns":[2],"fs":[0],"schedulers":["random"]}"#;
        assert!(SweepPlan::from_json(bad_name).unwrap_err().contains("name"));
    }

    #[test]
    fn plan_refuses_exhaustive_cells_too_wide_to_explore() {
        let plan = |fs: &str, sched: &str| {
            SweepPlan::from_json(&format!(
                r#"{{"name":"x","seed":0,"objects":["scan"],"ns":[40],"fs":{fs},"schedulers":["{sched}"]}}"#
            ))
        };
        let err = plan("[1]", "exhaustive").unwrap_err();
        assert!(err.contains("n = 40, f = 1"), "{err}");
        assert!(err.contains("n <= 32 at f >= 1"), "{err}");
        // Sampling has no such limit, and neither does f = 0 at n = 40.
        assert!(plan("[0]", "random").is_ok());
        assert!(plan("[1]", "random").is_ok());
        assert!(plan("[0]", "exhaustive").is_ok());
    }

    #[test]
    fn grid_expansion_filters_and_shuffles_deterministically() {
        let plan = tiny_plan(1);
        let cells = plan.cells();
        // scan: 2 f × 2 sched; lock at n=2: same → 8 cells.
        assert_eq!(cells.len(), 8);
        assert_eq!(
            cells.iter().map(|c| c.id()).collect::<Vec<_>>(),
            plan.cells().iter().map(|c| c.id()).collect::<Vec<_>>(),
            "shuffle must be a pure function of the seed"
        );
        let mut other = tiny_plan(2)
            .cells()
            .iter()
            .map(|c| c.id())
            .collect::<Vec<_>>();
        let mut ours = cells.iter().map(|c| c.id()).collect::<Vec<_>>();
        // Same cell set, (almost surely) different order under another seed.
        ours.sort();
        other.sort();
        assert_eq!(ours, other);
        // Lock never instantiates at n != 2, f never reaches n.
        let wide = SweepPlan {
            ns: vec![2, 3],
            fs: vec![0, 1, 2],
            ..tiny_plan(0)
        };
        for c in wide.cells() {
            assert!(c.object != "lock" || c.n == 2);
            assert!(c.f < c.n);
        }
    }

    #[test]
    fn cell_seed_is_order_independent() {
        let plan = tiny_plan(7);
        let by_id: std::collections::HashMap<String, u64> = plan
            .cells()
            .iter()
            .map(|c| (c.id(), c.seed(plan.seed)))
            .collect();
        // Reversing or re-deriving the grid never changes a cell's seed.
        for c in plan.cells().iter().rev() {
            assert_eq!(by_id[&c.id()], c.seed(plan.seed));
        }
        // Distinct cells get distinct seeds.
        let mut seeds: Vec<u64> = by_id.values().copied().collect();
        seeds.sort();
        seeds.dedup();
        assert_eq!(seeds.len(), by_id.len());
    }
}
