//! What the benchmark needs from the operating system: CPU pinning,
//! the process CPU clock, peak resident memory, and the host
//! fingerprint that decides whether two result files are comparable.
//!
//! The foreign calls below are glibc symbols `std` already links;
//! declaring them here avoids a `libc` dependency the sandbox cannot
//! fetch.

use apram_model::Json;
use std::process::Command;
use std::time::Duration;

/// `cpu_set_t` is 1024 bits on Linux.
const CPU_SET_WORDS: usize = 16;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `personality(2)` flag: no address-space randomization.
const ADDR_NO_RANDOMIZE: u64 = 0x0004_0000;

extern "C" {
    fn personality(persona: u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

/// Re-execute this program with address-space randomization off, once.
///
/// Where the kernel happens to put the heap, the stacks and the mapped
/// files moves `VmHWM` by ±0.1 MB run to run (measured: six values in
/// 4.60–4.84 MB with randomization, two without) — most of a 5 % bound
/// on a 5 MB process — and shifts cache aliasing with it. Returns if
/// randomization is already off or cannot be turned off.
pub fn rerun_without_aslr() {
    use std::os::unix::process::CommandExt;
    // SAFETY: `personality` takes and returns plain integers;
    // 0xffff_ffff only queries the current persona.
    let current = unsafe { personality(0xffff_ffff) };
    if current < 0 || current as u64 & ADDR_NO_RANDOMIZE != 0 {
        return;
    }
    // SAFETY: as above; sets a flag that only affects later `exec`s.
    if unsafe { personality(current as u64 | ADDR_NO_RANDOMIZE) } < 0 {
        return;
    }
    if let Ok(exe) = std::env::current_exe() {
        // On success `exec` does not return; on failure run as we are.
        let _ = std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .exec();
    }
}

/// Put glibc's allocator in the state a long-running process ends up
/// in, before anything is measured.
///
/// glibc raises its mmap threshold to the size of the largest mmapped
/// block freed so far (up to 32 MiB) and its trim threshold to twice
/// that. Until then, whether a 256 KiB allocation is a fresh mapping
/// (page faults on every set-up rep) or recycled heap depends on what
/// happened to be allocated and freed earlier: `native_recorded`'s
/// `setup_s` read 0.50 ms, 0.33 ms and 0.13 ms with three builds of the
/// benchmark that differed only in unrelated start-up code. One block
/// of the maximum size, allocated and freed untouched, ends that: the
/// thresholds are at their ceiling for the rest of the run.
pub fn warm_allocator() {
    const CEILING: usize = 32 << 20;
    drop(std::hint::black_box(vec![0u8; CEILING - (64 << 10)]));
}

/// CPUs the process could run on when it started, ascending (a pinned
/// thread asks for this to undo its pin).
pub fn all_cpus() -> Vec<usize> {
    static AT_START: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    AT_START.get_or_init(allowed_cpus).clone()
}

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread to one CPU. Returns whether the kernel
/// accepted it (a refused pin only costs repeatability, it is not fatal).
pub fn pin_current_thread(cpu: usize) -> bool {
    pin_current_thread_to(&[cpu])
}

/// Restrict the calling thread — and every thread it spawns from now
/// on — to `cpus`.
pub fn pin_current_thread_to(cpus: &[usize]) -> bool {
    let mut mask = [0u64; CPU_SET_WORDS];
    for &cpu in cpus {
        if cpu >= CPU_SET_WORDS * 64 {
            return false;
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the CPU-time clocks are always available on Linux");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// User + system CPU time this process has consumed, all threads.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU time the calling thread has consumed.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// `VmHWM` of this process in MiB (0 when /proc is unreadable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Processes (sessions, handles, explorer workers) a workload runs:
/// `min(nproc, 4)`, sized to the host.
pub fn procs() -> usize {
    all_cpus().len().clamp(1, 4)
}

/// The one CPU every workload's load runs on (rule 5): the last one we
/// were given, away from CPU 0's interrupts and the shell that started
/// us. `None` when the affinity mask could not be read.
pub fn load_cpu() -> Option<usize> {
    all_cpus().last().copied()
}

/// The core of process `p` when every process gets one of its own, for
/// the probes that measure real overlap; more processes than cores
/// wrap around.
pub fn cpu_of(p: usize) -> Option<usize> {
    let cpus = all_cpus();
    (!cpus.is_empty()).then(|| cpus[p % cpus.len()])
}

/// A CPU other than [`load_cpu`], for the probes that need a second
/// thread to contend with (falls back to the load CPU on one core).
pub fn other_cpu() -> Option<usize> {
    let cpus = all_cpus();
    cpus.iter().rev().nth(1).or(cpus.last()).copied()
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything that must match for two result files to be compared.
pub fn fingerprint() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    Json::obj([
        ("nproc", Json::UInt(all_cpus().len() as u64)),
        (
            "available_parallelism",
            Json::UInt(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
        ("cpu_model", Json::Str(cpu_model)),
        ("kernel", Json::Str(kernel)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("procs", Json::UInt(procs() as u64)),
        (
            "load_cpu",
            load_cpu().map_or(Json::Null, |c| Json::UInt(c as u64)),
        ),
    ])
}

/// The fingerprint fields that decide comparability (the commit and
/// the seed may differ between two comparable files).
pub const COMPARABLE_KEYS: [&str; 7] = [
    "nproc",
    "available_parallelism",
    "cpu_model",
    "kernel",
    "rustc",
    "procs",
    "load_cpu",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_and_rss_is_positive() {
        let a = process_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu() > a);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn pinning_to_an_allowed_cpu_succeeds() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        std::thread::spawn(move || {
            assert!(pin_current_thread(cpus[0]));
            assert_eq!(allowed_cpus(), vec![cpus[0]]);
        })
        .join()
        .unwrap();
    }
}
