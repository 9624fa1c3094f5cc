//! Regenerate the EXPERIMENTS.md tables and, with `--json`, the
//! machine-readable `BENCH_<name>.json` reports.
//!
//! ```text
//! experiments run all                        # every experiment
//! experiments run e4 e10 e11 --quick         # a selection
//! experiments run e11 --json out/            # + BENCH_e11.json
//! experiments sweep --config plan.json --out runs/nightly
//! experiments resume runs/nightly            # pick up where it stopped
//! ```
//!
//! Subcommands:
//!
//! * `run <names… | all>` — run experiments and print their
//!   EXPERIMENTS.md tables. The names are those of the
//!   [`apram_bench::registry`] (`experiments --help` lists them); the
//!   subcommand is one loop over it: select, time, print, write.
//! * `sweep --config PLAN.json --out DIR` — execute a [`SweepPlan`]
//!   grid into a resumable run directory (`--max-cells K` stops after K
//!   new cells, for smoke tests of the resume path).
//! * `resume DIR` — continue the sweep recorded in DIR, skipping every
//!   completed cell.
//!
//! Shared flags (parsed once, honored by every subcommand):
//!
//! * `--seed N` — root seed for all sampled schedules (default 0;
//!   sweeps take their seed from the plan file instead)
//! * `--quick` — shrink grids and sample counts for a smoke run
//! * `--threads N` — worker threads for parallel exploration, sampling
//!   and history checking (default 0 = all available parallelism); also
//!   pins the `explore` benchmark grid to exactly N
//! * `--json [DIR]` — write one `BENCH_<name>.json` per experiment into
//!   DIR (default `bench-out`)
//! * `--telemetry [DIR]` — write the experiments' telemetry artifacts
//!   into DIR (default `telemetry-out`): Prometheus text, heartbeat
//!   JSONL, collapsed-stack span trees, the flight-recorder trace
//! * `--forensics DIR` — write the E9 forensics bundle into DIR
//!
//! Which experiment writes which file is declared in its registry entry
//! (see EXPERIMENTS.md for the schemas).
//!
//! A subcommand is required: the historical pre-subcommand spellings
//! (`experiments e4`, `experiments --e4`) are gone.

use apram_bench::*;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

/// Which subcommand was requested.
enum Cmd {
    /// `run <names>`.
    Run,
    /// `sweep --config PLAN --out DIR`.
    Sweep { config: PathBuf, out: PathBuf },
    /// `resume DIR`.
    Resume { dir: PathBuf },
}

struct Cli {
    cmd: Cmd,
    /// Experiments selected by name; empty = all of them.
    names: Vec<String>,
    opts: ExpOpts,
    json_dir: Option<PathBuf>,
    telemetry_dir: Option<PathBuf>,
    forensics_dir: Option<PathBuf>,
    max_cells: Option<usize>,
}

/// Parse a flag's numeric value, or exit 2 naming the flag.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad {flag} value '{value}'")))
}

fn parse_cli() -> Cli {
    let mut args = std::env::args().skip(1).peekable();
    // Subcommand dispatch on the first token; anything else is an
    // error (the old pre-subcommand grammar is gone).
    let sub = match args.peek().map(String::as_str) {
        Some("run" | "sweep" | "resume") => args.next().unwrap(),
        Some("--help" | "-h") | None => "run".into(),
        Some(tok) => usage(&format!(
            "unknown subcommand '{tok}' (want run|sweep|resume)"
        )),
    };
    let (in_sweep, in_resume) = (sub == "sweep", sub == "resume");
    let mut cli = Cli {
        cmd: Cmd::Run,
        names: Vec::new(),
        opts: ExpOpts::default(),
        json_dir: None,
        telemetry_dir: None,
        forensics_dir: None,
        max_cells: None,
    };
    let (mut config, mut out, mut dir) = (None, None, None);

    // A token is a directory operand (not a fresh flag or experiment
    // name) — lets `--json` / `--telemetry` take their DIR optionally.
    let is_dir_operand = |tok: &String| !tok.starts_with('-') && experiment(tok).is_none();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "--quick" => cli.opts.quick = true,
            "--seed" => cli.opts.seed = number(&arg, &value("a value")),
            "--threads" => cli.opts.threads = number(&arg, &value("a value")),
            "--json" => {
                let dir = args.next_if(is_dir_operand);
                cli.json_dir = Some(dir.unwrap_or("bench-out".into()).into());
            }
            "--telemetry" => {
                let dir = args.next_if(is_dir_operand);
                cli.telemetry_dir = Some(dir.unwrap_or("telemetry-out".into()).into());
            }
            "--forensics" => cli.forensics_dir = Some(value("a directory").into()),
            "--config" if in_sweep => config = Some(PathBuf::from(value("a plan file"))),
            "--out" if in_sweep => out = Some(PathBuf::from(value("a directory"))),
            "--max-cells" if in_sweep || in_resume => {
                cli.max_cells = Some(number(&arg, &value("a count")));
            }
            "--help" | "-h" => usage(""),
            name if !name.starts_with('-') => {
                if in_resume {
                    if dir.is_some() {
                        usage("resume takes exactly one run directory");
                    }
                    dir = Some(PathBuf::from(name));
                } else if in_sweep {
                    usage(&format!("sweep takes no positional operand '{name}'"));
                } else if name == "all" {
                    // `run all` = no filter.
                } else if experiment(name).is_some() {
                    cli.names.push(name.to_string());
                } else {
                    usage(&format!("unknown experiment '{name}'"));
                }
            }
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    cli.cmd = match sub.as_str() {
        "sweep" => Cmd::Sweep {
            config: config.unwrap_or_else(|| usage("sweep requires --config PLAN.json")),
            out: out.unwrap_or_else(|| usage("sweep requires --out DIR")),
        },
        "resume" => Cmd::Resume {
            dir: dir.unwrap_or_else(|| usage("resume requires a run directory")),
        },
        _ => Cmd::Run,
    };
    cli
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: experiments run [{} | all] \
         [--seed N] [--quick] [--threads N] [--json [DIR]] \
         [--telemetry [DIR]] [--forensics DIR]\n\
         \x20      experiments sweep --config PLAN.json --out DIR [--max-cells K] [--threads N]\n\
         \x20      experiments resume DIR [--max-cells K] [--threads N]",
        experiment_names()
    );
    exit(if err.is_empty() { 0 } else { 2 })
}

/// Execute `sweep` / `resume` and print the outcome summary.
fn run_sweep_cmd(cli: &Cli) -> ! {
    let sweep_opts = SweepOpts {
        threads: cli.opts.threads,
        max_cells: cli.max_cells,
        every: std::time::Duration::from_millis(500),
    };
    let (result, dir) = match &cli.cmd {
        Cmd::Sweep { config, out } => {
            let text = std::fs::read_to_string(config).unwrap_or_else(|e| {
                eprintln!("error: cannot read {}: {e}", config.display());
                exit(1);
            });
            let plan = SweepPlan::from_json(&text).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                exit(1);
            });
            (run_sweep(&plan, out, &sweep_opts), out.clone())
        }
        Cmd::Resume { dir } => (resume_sweep(dir, &sweep_opts), dir.clone()),
        Cmd::Run => unreachable!("run is handled by main"),
    };
    match result {
        Ok(outcome) => {
            println!(
                "sweep {}: {} cells total, {} skipped (already complete), {} run{}",
                dir.display(),
                outcome.total,
                outcome.skipped,
                outcome.completed,
                if outcome.done() {
                    "; sweep complete"
                } else {
                    "; interrupted (resume to continue)"
                },
            );
            exit(0)
        }
        Err(e) => {
            eprintln!("error: {e}");
            exit(1)
        }
    }
}

/// Write `contents` to `dir/name`, creating `dir` as needed; a failure
/// ends the process with status 1.
fn write_file(dir: &Path, name: &str, contents: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        exit(1);
    }
    let path = dir.join(name);
    if let Err(e) = std::fs::write(&path, contents) {
        eprintln!("error: cannot write {}: {e}", path.display());
        exit(1);
    }
    eprintln!("wrote {}", path.display());
}

fn main() {
    let cli = parse_cli();
    if !matches!(cli.cmd, Cmd::Run) {
        run_sweep_cmd(&cli);
    }
    let selected = |e: &&Experiment| cli.names.is_empty() || cli.names.iter().any(|n| n == e.name);
    for exp in EXPERIMENTS.iter().filter(selected) {
        let started = Instant::now();
        println!("{}\n", exp.heading);
        let report = (exp.run)(&cli.opts);
        print!("{}", report.render());
        if let Some(dir) = &cli.json_dir {
            let doc = report.document(exp, &cli.opts, started.elapsed().as_secs_f64());
            write_file(dir, &format!("BENCH_{}.json", exp.name), &doc.to_pretty(2));
        }
        for artifact in &report.artifacts {
            assert!(
                exp.artifacts.contains(&(artifact.sink, artifact.name)),
                "{} does not declare the artifact {}",
                exp.name,
                artifact.name
            );
            let dir = match artifact.sink {
                Sink::Telemetry => &cli.telemetry_dir,
                Sink::Forensics => &cli.forensics_dir,
            };
            if let Some(dir) = dir {
                write_file(dir, artifact.name, &artifact.contents);
            }
        }
    }
}
