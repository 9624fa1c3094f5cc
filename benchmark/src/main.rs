//! The repo benchmark. Four ways to call it (through `benchmark/run.sh`,
//! which builds first):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload; the last line of stdout is the driver's JSON object;
//! * no `--workload` — the suite: every workload in a child process of
//!   its own, `out/results.json`; with `--trace 1` the traced suite,
//!   which runs the layer probes once, in one more child (`--layers`),
//!   and writes `out/results_traced.json`;
//! * `--aa [--sets 2 --runs 3]` — the suite in two sets, compared
//!   against the bounds;
//! * `--compare A.json B.json` — two result files, row by row.

mod alloc;
mod harness;
mod host;
mod layers;
mod plan;
mod report;
mod stats;
mod stream;
mod trace;
mod verify;
mod workloads;

use apram_model::json::parse;
use apram_model::Json;
use plan::{END_TO_END, PER_LAYER, WORKLOADS};
use report::Verdict;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::RunCtx;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str =
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
                      [--probes 0]  a traced workload run without the layer probes
       run.sh --layers [--seed N]   the layer probes alone
       run.sh --aa [--sets N] [--runs N] [--seed N]
       run.sh --compare BASE.json NEW.json";

/// Marks the line a child prints for its parent's result file.
const DETAIL: &str = "detail: ";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    aa: bool,
    /// Run the layer probes alone.
    layers: bool,
    /// A traced workload run also runs the layer probes (the traced
    /// suite turns this off and runs them once).
    probes: bool,
    sets: usize,
    runs: usize,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: plan::RUN_SECONDS,
        trace: false,
        quick: false,
        aa: false,
        layers: false,
        probes: true,
        sets: 2,
        runs: 3,
        compare: None,
    };
    let mut it = argv.iter();
    let number = |flag: &str, v: Option<&String>| -> Result<u64, String> {
        v.ok_or(format!("{flag} needs a value"))?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = it.next().ok_or("--workload needs a name")?;
                if plan::workload(name).is_none() {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload '{name}' (known: {known:?})"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => args.seed = number(flag, it.next())?,
            "--seconds" => {
                args.seconds = number(flag, it.next())?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => args.trace = number(flag, it.next())? != 0,
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            "--layers" => args.layers = true,
            "--probes" => args.probes = number(flag, it.next())? != 0,
            "--sets" => args.sets = number(flag, it.next())?.max(2) as usize,
            "--runs" => args.runs = number(flag, it.next())?.max(1) as usize,
            "--compare" => {
                let a = it.next().ok_or("--compare needs two files")?;
                let b = it.next().ok_or("--compare needs two files")?;
                args.compare = Some((a.into(), b.into()));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Where traces and result files go: `$APRAM_BENCH_OUT`, which `run.sh`
/// points at `benchmark/out`.
fn out_dir() -> PathBuf {
    std::env::var_os("APRAM_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark/out"))
}

fn write_text(path: &Path, text: String) -> Result<(), String> {
    let write = || {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text + "\n")
    };
    write().map_err(|e: std::io::Error| format!("cannot write {}: {e}", path.display()))
}

fn write_json(path: &Path, json: &Json) -> Result<(), String> {
    write_text(path, json.to_pretty(1))
}

// ---------------------------------------------------------------------
// One run of one workload

/// Every mode returns `Ok(passed)`; `Err` is a failure to run at all.
type Passed = Result<bool, String>;

fn run_one(name: &str, args: &Args) -> Passed {
    let ctx = RunCtx {
        seed: args.seed,
        procs: host::procs(),
        trace: args.trace,
        quick: args.quick,
        seconds: args.seconds,
    };
    // What a run does on the main thread — generating streams, the
    // set-up reps between segments — happens on the load CPU too.
    if let Some(cpu) = host::load_cpu() {
        host::pin_current_thread(cpu);
    }
    let outcome = workloads::run(name, &ctx).expect("workload name was validated");
    let values = if ctx.trace {
        if let Some(t) = &outcome.trace {
            let path = out_dir().join(format!("trace_{name}.json"));
            // Tens of thousands of events: compact, one line.
            write_text(
                &path,
                trace::chrome_trace(name, &t.bufs, t.names).to_compact(),
            )?;
        }
        let probes = args.probes.then(|| layers::run_all(ctx.seed, ctx.procs));
        report::per_layer(&outcome, probes)
    } else {
        report::end_to_end(&outcome)
    };

    println!("{name}: {}", plan::workload(name).expect("validated").why);
    println!(
        "  seed {} procs {} segments {} segment_ops {} attempted {} failed {}",
        ctx.seed,
        ctx.procs,
        outcome.measured.segs.len(),
        outcome.segment_ops,
        outcome.measured.attempted,
        outcome.measured.failed
    );
    for v in &values {
        v.print();
    }
    for p in &outcome.problems {
        println!("  CHECK FAILED: {p}");
    }
    let detail = report::run_detail(name, &ctx, args.seconds, &outcome, &values);
    println!("{DETAIL}{}", detail.to_compact());
    println!("{}", report::driver_line(&outcome, &values));
    // A run that finished is a run that succeeded; whether its outputs
    // were correct is in the line above.
    Ok(true)
}

// ---------------------------------------------------------------------
// The suite: every workload in its own child process

/// Run this same executable as a child with `argv`, pass its report on,
/// and return the detail object it printed.
fn child(what: &str, argv: &[&str]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(argv)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{what} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    for line in stdout.lines().filter(|l| !l.starts_with(DETAIL)) {
        println!("{line}");
    }
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL))
        .ok_or(format!("{what} printed no detail line"))?;
    parse(detail).map_err(|e| format!("{what}: bad detail line: {e:?}"))
}

/// One workload in a child process of its own (so `peak_rss_mb` is per
/// workload). A traced child leaves the layer probes to [`child_layers`].
fn child_run(name: &str, seed: u64, args: &Args, trace: bool) -> Result<Json, String> {
    let (seed, seconds) = (seed.to_string(), args.seconds.to_string());
    let mut argv = vec!["--workload", name, "--seed", &seed, "--seconds", &seconds];
    argv.extend(if trace {
        ["--trace", "1", "--probes", "0"].as_slice()
    } else {
        ["--trace", "0"].as_slice()
    });
    if args.quick {
        argv.push("--quick");
    }
    child(name, &argv)
}

/// The layer probes, once, in a child process of their own.
fn child_layers(seed: u64) -> Result<Json, String> {
    child("layers", &["--layers", "--seed", &seed.to_string()])
}

/// The layer probes alone: every per-layer metric that does not describe
/// a traced workload.
fn run_layers(args: &Args) -> Passed {
    let rows = layers::run_all(args.seed, host::procs());
    let values = report::layer_values(rows);
    println!("layers: the per-layer probes, seed {}", args.seed);
    for v in &values {
        v.print();
    }
    let detail = Json::obj([
        ("seed", Json::UInt(args.seed)),
        ("metrics", report::metrics_json(&values)),
    ]);
    println!("{DETAIL}{}", detail.to_compact());
    Ok(true)
}

/// A result file: fingerprint, plan, and per workload the list of runs.
fn results_file(args: &Args, layers: Option<Json>, runs: Vec<(String, Vec<Json>)>) -> Json {
    Json::obj([
        ("fingerprint", host::fingerprint()),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::UInt(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("plan", report::plan_json()),
        // The layer probes' rows (traced suite and A/A sets only).
        ("layers", layers.unwrap_or(Json::Null)),
        (
            "workloads",
            Json::Obj(
                runs.into_iter()
                    .map(|(name, runs)| (name, Json::obj([("runs", Json::Arr(runs))])))
                    .collect(),
            ),
        ),
    ])
}

fn all_correct(runs: &[(String, Vec<Json>)]) -> bool {
    runs.iter()
        .flat_map(|(_, rs)| rs)
        .all(|r| matches!(r.get("correct"), Some(Json::Bool(true))))
}

fn run_suite(args: &Args) -> Passed {
    let mut runs = Vec::new();
    for w in &WORKLOADS {
        let detail = child_run(w.name, args.seed, args, args.trace)?;
        runs.push((w.name.to_string(), vec![detail]));
    }
    let layers = args.trace.then(|| child_layers(args.seed)).transpose()?;
    let ok = all_correct(&runs);
    let file = if args.trace {
        "results_traced.json"
    } else {
        "results.json"
    };
    let path = out_dir().join(file);
    write_json(&path, &results_file(args, layers, runs))?;
    println!("wrote {}", path.display());
    if !ok {
        eprintln!("at least one workload failed its output checks");
    }
    Ok(ok)
}

// ---------------------------------------------------------------------
// A/A: the same code twice, judged by the benchmark's own bounds

/// Counts that must repeat exactly between two runs of the same code.
fn exact_counts() -> impl Iterator<Item = &'static str> {
    PER_LAYER
        .iter()
        .map(|l| l.0)
        .filter(|n| n.ends_with("_steps") || *n == "model.sim.explore.runs")
}

fn run_aa(args: &Args) -> Passed {
    let mut files = Vec::new();
    let mut counts = Vec::new();
    for set in 0..args.sets {
        let label = (b'a' + set as u8) as char;
        let mut runs: Vec<(String, Vec<Json>)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), Vec::new()))
            .collect();
        for run in 0..args.runs {
            for (w, slot) in WORKLOADS.iter().zip(&mut runs) {
                println!("--- set {label} run {run}");
                let seed = args.seed + run as u64;
                slot.1.push(child_run(w.name, seed, args, false)?);
            }
        }
        // The layer probes once per set, for the exact counts.
        println!("--- set {label} layers");
        let layers = child_layers(args.seed)?;
        counts.push(layers.clone());
        let ok = all_correct(&runs);
        let file = results_file(args, Some(layers), runs);
        write_json(&out_dir().join(format!("aa_{label}.json")), &file)?;
        if !ok {
            eprintln!("set {label}: a workload failed its output checks");
            return Ok(false);
        }
        files.push(file);
    }

    let base = report::table_of(&files[0]);
    let mut failed = false;
    println!(
        "\n{:<22} {:<14} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "set a median", "set b median", "diff", "bound"
    );
    for other in &files[1..] {
        let new = report::table_of(other);
        for w in &WORKLOADS {
            for e in &END_TO_END {
                let (a, b) = (&base[w.name][e.name], &new[w.name][e.name]);
                let (ma, mb) = (stats::median(a), stats::median(b));
                let diff = e.better.worsening(ma, mb);
                let ok = diff.abs() <= e.bound;
                failed |= !ok;
                println!(
                    "{:<22} {:<14} {:>14.6} {:>14.6} {:>+7.2}% {:>6.0}%  {}",
                    w.name,
                    e.name,
                    ma,
                    mb,
                    100.0 * diff,
                    100.0 * e.bound,
                    if ok { "agree" } else { "DISAGREE" }
                );
            }
        }
    }
    for name in exact_counts() {
        let values: Vec<Option<f64>> = counts
            .iter()
            .map(|d| d.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect();
        let same = values.windows(2).all(|w| w[0] == w[1]) && values[0].is_some();
        failed |= !same;
        println!(
            "{name:<44} {:>8}  {}",
            values[0].map_or("missing".to_string(), |v| v.to_string()),
            if same { "identical" } else { "DIFFERS" }
        );
    }
    if failed {
        eprintln!("A/A: two sets of the same code disagree beyond a bound");
    } else {
        println!("A/A: every metric agrees within its bound");
    }
    Ok(!failed)
}

// ---------------------------------------------------------------------
// Compare two result files

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

fn run_compare(base_path: &Path, new_path: &Path) -> Passed {
    let (base, new) = (load(base_path)?, load(new_path)?);
    if let Err(why) = report::comparable(&base, &new) {
        println!("NOT COMPARABLE: host fingerprints differ ({why})");
        return Ok(false);
    }
    let (tb, tn) = (report::table_of(&base), report::table_of(&new));
    println!(
        "{:<22} {:<14} {:>14} {:>14} {:>7} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "ratio", "spread", "bound"
    );
    let mut regressed = false;
    for w in &WORKLOADS {
        for e in &END_TO_END {
            let (Some(b), Some(n)) = (
                tb.get(w.name).and_then(|m| m.get(e.name)),
                tn.get(w.name).and_then(|m| m.get(e.name)),
            ) else {
                println!("{:<22} {:<14} missing in one file", w.name, e.name);
                continue;
            };
            let spread = match (report::spread(b), report::spread(n)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let verdict = report::verdict(e.better, e.bound, spread, b, n);
            regressed |= verdict == Verdict::Regressed;
            let (mb, mn) = (stats::median(b), stats::median(n));
            println!(
                "{:<22} {:<14} {:>14.6} {:>14.6} {:>7.3} {:>7} {:>6.0}%  {}",
                w.name,
                e.name,
                mb,
                mn,
                mn / mb,
                spread.map_or("n/a".into(), |s| format!("{:.1}%", 100.0 * s)),
                100.0 * e.bound,
                verdict.label()
            );
        }
    }
    Ok(!regressed)
}

fn main() -> ExitCode {
    host::rerun_without_aslr();
    host::warm_allocator();
    // Remember the CPUs we were given before any thread pins itself.
    host::all_cpus();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let passed = if let Some((a, b)) = &args.compare {
        run_compare(a, b)
    } else if args.aa {
        run_aa(&args)
    } else if args.layers {
        run_layers(&args)
    } else if let Some(name) = &args.workload {
        run_one(name, &args)
    } else {
        run_suite(&args)
    };
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&argv(
            "--workload serve_steady --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_steady"));
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (9, 10, true, false));
        assert!(a.probes && !a.layers);
        let a = parse_args(&argv("--workload serve_steady --trace 1 --probes 0")).unwrap();
        assert!(a.trace && !a.probes);
        assert!(parse_args(&argv("--layers --seed 4")).unwrap().layers);
        let a = parse_args(&argv("--aa --sets 2 --runs 4 --quick")).unwrap();
        assert!(a.aa && a.quick);
        assert_eq!((a.sets, a.runs), (2, 4));
        let a = parse_args(&argv("--compare x.json y.json")).unwrap();
        assert_eq!(a.compare, Some(("x.json".into(), "y.json".into())));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seconds 61")).is_err());
        assert!(parse_args(&argv("--seed x")).is_err());
        assert!(parse_args(&argv("--compare only-one.json")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }

    #[test]
    fn exact_counts_are_the_step_counts_and_the_run_count() {
        let names: Vec<_> = exact_counts().collect();
        assert_eq!(names.len(), 9);
        assert!(names.contains(&"model.sim.explore.runs"));
        assert!(names.contains(&"objects.afek.read_steps"));
    }
}
