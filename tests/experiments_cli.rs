//! The `experiments` binary from outside: its printed tables against a
//! golden capture, its exit codes, and the files it writes.

use apram_bench::{experiment_names, EXPERIMENTS};
use std::path::PathBuf;
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

/// Run and expect exit status 0.
fn succeed(args: &[&str]) -> Output {
    let out = experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    out
}

/// A fresh directory under the build's temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The paths of the `wrote <path>` lines on stderr.
fn wrote(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter_map(|l| l.strip_prefix("wrote ").map(String::from))
        .collect()
}

/// E4's two `lock_snap | micros` rows time native threads in
/// microseconds, so their p50/p99/max cells are wall clock (0 in most
/// runs, a few µs in about one of eight): blank those three cells.
fn mask_wall_clock(stdout: &str) -> String {
    let mask = |line: &str| {
        let mut cells: Vec<&str> = line.split(" | ").collect();
        if cells.len() == 9 && cells[1] == "micros" {
            cells[4..7].fill("~");
        }
        cells.join(" | ")
    };
    stdout.lines().map(|l| mask(l) + "\n").collect()
}

/// The deterministic experiments print, byte for byte, what they
/// printed before the registry existed: `golden/experiments_quick.txt`
/// is the stdout of this command line at the commit before the refactor
/// (PR 16). One worker, because E6's budget-capped replay counts depend
/// on worker timing with more.
#[test]
fn quick_tables_match_the_golden_capture() {
    let line = "run e1 e2 e3 e4 e4b e5 e6 e8 e9 e10 e11 e12 --quick --threads 1";
    let out = succeed(&line.split(' ').collect::<Vec<_>>());
    let stdout = String::from_utf8(out.stdout).expect("tables are UTF-8");
    let golden = include_str!("golden/experiments_quick.txt");
    if mask_wall_clock(&stdout) != mask_wall_clock(golden) {
        for (i, (got, want)) in stdout.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                mask_wall_clock(got),
                mask_wall_clock(want),
                "line {}",
                i + 1
            );
        }
        panic!(
            "stdout has {} lines, the golden capture {}",
            stdout.lines().count(),
            golden.lines().count()
        );
    }
}

#[test]
fn bad_names_and_flags_exit_2_and_list_the_registry() {
    for (args, complaint) in [
        (&["run", "e7"][..], "unknown experiment 'e7'"),
        (&["run", "e5", "--fast"][..], "unknown flag '--fast'"),
        (&["e5"][..], "unknown subcommand 'e5'"),
    ] {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
        assert!(stderr.contains(&experiment_names()), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
    assert_eq!(EXPERIMENTS.len(), experiment_names().split(' ').count());
}

#[test]
fn json_report_is_written_and_parses() {
    let dir = scratch("cli-json").join("nested");
    let out = succeed(&["run", "e5", "--quick", "--json", dir.to_str().unwrap()]);
    let path = dir.join("BENCH_e5.json");
    assert_eq!(wrote(&out), [path.to_str().unwrap()]);
    let text = std::fs::read_to_string(&path).expect("report written");
    let doc = apram_model::json::parse(&text).expect("report parses");
    assert_eq!(doc.get("experiment").and_then(|v| v.as_str()), Some("e5"));
    assert_eq!(doc.get("quick"), Some(&apram_model::Json::Bool(true)));
    let rows = doc
        .get("rows")
        .and_then(|v| v.as_arr())
        .expect("rows array");
    assert_eq!(rows.len(), 3);
    assert!(rows
        .iter()
        .all(|r| r.get("matches_paper") == Some(&apram_model::Json::Bool(true))));
}

/// A report that cannot be written is exit status 1, not a panic and
/// not silence.
#[test]
fn unwritable_report_directory_exits_1() {
    let dir = scratch("cli-unwritable");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("occupied");
    std::fs::write(&file, "not a directory").unwrap();
    let out = experiments(&["run", "e5", "--quick", "--json", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error: cannot create"));
}

/// E14 and E15 used to write the same `flight.prom`, so a run of both
/// kept only the second. Every artifact of one run is a file of its own.
#[test]
fn one_telemetry_directory_holds_every_artifact() {
    let dir = scratch("cli-telemetry");
    let out = succeed(&[
        "run",
        "e14",
        "e15",
        "--quick",
        "--telemetry",
        dir.to_str().unwrap(),
    ]);
    let mut files = wrote(&out);
    assert_eq!(files.len(), 3, "{files:?}");
    files.sort();
    files.dedup();
    assert_eq!(files.len(), 3, "a file was written twice");
    for name in ["flight.json", "flight.prom", "serve.prom"] {
        let text = std::fs::read_to_string(dir.join(name)).expect(name);
        assert!(!text.is_empty(), "{name} is empty");
    }
    let serve = std::fs::read_to_string(dir.join("serve.prom")).unwrap();
    assert!(serve.contains("serve_requests_total"), "{serve}");
}
