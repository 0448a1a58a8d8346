//! Repository benchmark for the cibola workspace.
//!
//! Three workloads, each stressing different layers:
//!
//! * `campaign-mult8` — an exhaustive active-closure SEU campaign through
//!   `run_campaign_wide` (netlist, arch and inject layers).
//! * `storm-ensemble` — a parallel Monte-Carlo ensemble of accelerated
//!   storm missions with telemetry disabled (radiation and scrub layers).
//! * `chaos-forensics` — the E13 chaos mission flown with a recording
//!   telemetry sink, its dump analysed by the forensics engine (scrub
//!   escalation ladder, telemetry and forensics layers).
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1` runs
//! the traced replay that splits the time by layer, timing calls into each
//! crate's public functions from outside. Every run also runs the
//! correctness gate; a failed check makes the exit code non-zero.
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign-mult8 --seed 42 --seconds 20 --trace 0
//! ```

mod campaign;
mod mission;
mod report;

use std::path::Path;
use std::time::Instant;

use report::Report;

/// The seed whose outputs are pinned by digest. Checks that do not depend
/// on the seed run for every seed.
pub const DEFAULT_SEED: u64 = 42;

/// End-to-end metrics printed by an untraced run.
const END_TO_END: [&str; 3] = ["throughput_per_cpu_s", "setup_s", "peak_rss_mb"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["campaign-mult8", "storm-ensemble", "chaos-forensics"];

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&format!("expected one of {WORKLOADS:?}")));
                }
                workload = Some(value.clone());
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("expected seconds in (0, 600]"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// splitmix64 of `seed` and a stream tag: the per-purpose seeds (stimulus,
/// ensemble base, mission) a workload derives from its one workload seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64 over a byte string: the pinned-output digests.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Seconds on one of the kernel's CPU-time clocks (64-bit Linux).
fn clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds run by every thread of this process so far, exited
/// threads included (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// The end-to-end figures are per CPU second rather than per wall-clock
/// second: on a few vCPUs of a shared host, wall time also counts the time
/// other guests hold the host's cores, which the guest kernel accounts as
/// steal rather than as CPU time of this process.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds run by the calling thread so far (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Run `f` at least `min_reps` times and until `budget_s` seconds have
/// passed, returning each repetition's result.
pub fn repeat_for<T>(budget_s: f64, min_reps: usize, mut f: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || secs(start) < budget_s {
        out.push(f(out.len()));
    }
    out
}

/// Set-up takes milliseconds while the host's speed drifts over seconds,
/// so set-up is timed (in CPU seconds of the thread doing it) in bursts of
/// this many wall seconds spread over the run (one before the measurement,
/// one after each measured repetition) and `setup_s` is the median over
/// all of them.
pub const SETUP_BURST_S: f64 = 0.25;

/// A counter from a telemetry sink's metrics registry, if it was ever
/// bumped.
pub fn counter(tele: &cibola_telemetry::Telemetry, name: &str) -> Option<f64> {
    tele.snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v as f64)
}

/// Worker threads the campaign and ensemble fan-out uses: the rayon
/// stand-in honours `RAYON_NUM_THREADS`, else the available parallelism.
pub fn pool_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(nproc)
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Restart the peak-resident-set count (`VmHWM`) from the current
/// resident set, so the next reading is the peak of one repetition rather
/// than of the process so far. Where the kernel refuses, readings stay
/// whole-process peaks.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`) since the last
/// `reset_peak_rss`, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit being measured: `HEAD` of a git checkout, else unknown.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Digest of the sources that make up the measured program, so two runs
/// of different code are told apart even outside a git checkout.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                files.push(p);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf(), "Cargo.lock".into()];
    for dir in ["crates", "shims", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend(std::fs::read(&f).unwrap_or_default());
    }
    fnv64(&all)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Refuse to run outside a repository checkout rather than report on
    // whatever happens to be in the current directory.
    if !Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        std::process::exit(2);
    }

    // Settings fingerprint: perfbench/compare.py refuses a parent/change
    // comparison whose settings (all of these but seed, commit and source
    // digest) differ.
    println!(
        "settings {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"rayon_threads\": {}, \"profile\": \"{}\", \"commit\": \"{}\", \"source_digest\": \"{:016x}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        pool_threads(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_commit(),
        source_digest(),
    );

    let mut rep = Report::new();
    match args.workload.as_str() {
        "campaign-mult8" => campaign::run(&args, &mut rep),
        "storm-ensemble" => mission::run_storm(&args, &mut rep),
        _ => mission::run_chaos(&args, &mut rep),
    }
    let ok = if args.trace {
        rep.finish_trace(&args.workload)
    } else {
        rep.finish(&END_TO_END)
    };
    if !ok {
        std::process::exit(1);
    }
}
