//! The repository benchmark: end-to-end metrics of the paper-budget
//! workloads, or (with `--trace 1`) their per-layer self times.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload battery --seed 42 --seconds 20 --trace 0
//! ```
//!
//! Every workload is a closed loop with one client: the next iteration
//! starts when the previous one returns. The last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
//! lines before it give the same figures for people. See `README.md`.

mod procfs;
mod replay;
mod stats;
mod trace;
mod workload;

use stats::median;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Inputs, Prepared, Workload};

/// The reproduction's seed of data generation, training and the GA.
const DATA_SEED: u64 = 42;

/// Set-ups made per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Warm passes whose median peak memory is `battery_warm`'s `peak_rss_mb`.
const WARM_PEAK_PASSES: usize = 5;

/// Fewest timed iterations a run makes, even past `--seconds`.
const MIN_ITERATIONS: usize = 3;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    data_seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut data_seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--data-seed" => data_seed = Some(value.parse().map_err(|_| "bad --data-seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DATA_SEED),
        data_seed: data_seed.unwrap_or(DATA_SEED),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a run reports: operation counts, the metrics, and notes for people.
#[derive(Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> \
                 [--data-seed <n>]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work = work_dir(args.workload);
    println!(
        "# perfbench workload={} seed={} data_seed={} seconds={} trace={} nproc={} commit={}",
        args.workload.name(),
        args.seed,
        args.data_seed,
        args.seconds,
        u8::from(args.trace),
        procfs::nproc(),
        commit()
    );
    let outcome = setup(&args, &work).and_then(|(prepared, setup)| {
        let budget = Duration::from_secs(args.seconds);
        if args.trace {
            trace::run(prepared, budget, &setup)
        } else {
            Ok(run_untraced(prepared, budget, &setup))
        }
    });
    std::fs::remove_dir_all(&work).ok();
    let report = match outcome {
        Ok(report) => report,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = report.failed == 0 && report.attempted > 0 && finite;
    for note in &report.notes {
        println!("# {note}");
    }
    for metric in &report.metrics {
        println!("{:<28} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    println!("{}", result_json(correct, &report));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where a run keeps its stores: under the build directory, inside the
/// checkout, one directory per process.
fn work_dir(workload: Workload) -> PathBuf {
    let build = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    build
        .join("perfbench-work")
        .join(format!("{}-{}", workload.name(), std::process::id()))
}

/// What the set-ups of a run measured.
pub struct SetupStats {
    /// Median set-up time.
    pub seconds: f64,
    /// Time of the first set-up, the only one that starts with the cold
    /// multiplier-cost cache a fresh process has.
    pub first_seconds: f64,
    /// Peak resident memory of one pass of the workload, taken right after
    /// the first set-up (see `first_pass_peak_rss_mb_of`).
    pub first_pass_peak_rss_mb: f64,
    /// Multiplier-cost cache hit ratio of the first set-up, which starts
    /// from the cold cache a fresh process has.
    pub cold_cache_hit_ratio: f64,
}

/// Sets the workload up `SETUP_REPEATS` times and keeps the last set-up.
fn setup(args: &Args, work: &Path) -> Result<(Prepared, SetupStats), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<Prepared> = None;
    let mut cold_cache_hit_ratio = f64::NAN;
    let mut first_pass_peak_rss_mb = f64::NAN;
    for attempt in 0..SETUP_REPEATS {
        let start = Instant::now();
        let inputs = Inputs::generate(args.workload, args.seed, args.data_seed);
        let prepared = Prepared::setup(args.workload, inputs, &work.join(format!("s{attempt}")));
        times.push(start.elapsed().as_secs_f64());
        let mut prepared = match prepared {
            Ok(prepared) => prepared,
            Err(message) => {
                if let Some(previous) = kept {
                    previous.teardown();
                }
                return Err(message);
            }
        };
        if attempt == 0 {
            cold_cache_hit_ratio = pmlp_hw::multiplier_cache_stats().hit_rate();
            match first_pass_peak_rss_mb_of(&mut prepared) {
                Ok(peak) => first_pass_peak_rss_mb = peak,
                Err(message) => {
                    prepared.teardown();
                    return Err(message);
                }
            }
        }
        if let Some(previous) = kept.replace(prepared) {
            previous.teardown();
        }
    }
    let stats = SetupStats {
        seconds: median(&times),
        first_seconds: times[0],
        first_pass_peak_rss_mb,
        cold_cache_hit_ratio,
    };
    Ok((kept.expect("at least one set-up"), stats))
}

/// Peak resident memory of one pass of the workload, read right after the
/// process's first set-up. For `battery` and `ga_whitewine` that pass is the
/// set-up's warm-up. For `battery_warm` the warm-up is the cold store fill,
/// so it is the median over `WARM_PEAK_PASSES` checked warm passes (the
/// timed iterations' read path), each with the peak reset before it. They
/// run outside the set-up time.
fn first_pass_peak_rss_mb_of(prepared: &mut Prepared) -> Result<f64, String> {
    let read_peak = || procfs::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status");
    if prepared.workload() != Workload::BatteryWarm {
        return Ok(read_peak()?);
    }
    let mut peaks = Vec::with_capacity(WARM_PEAK_PASSES);
    for _ in 0..WARM_PEAK_PASSES {
        procfs::reset_peak_rss()?;
        let store_dir = prepared.fresh_store_dir();
        let outcome = prepared.iterate(&store_dir);
        peaks.push(read_peak()?);
        std::fs::remove_dir_all(&store_dir).ok();
        let problems = outcome.map_or_else(|message| vec![message], |o| prepared.check(&o));
        if !problems.is_empty() {
            return Err(format!("warm pass: {}", problems.join("; ")));
        }
    }
    Ok(median(&peaks))
}

/// The end-to-end run: untraced iterations until the time budget is spent.
fn run_untraced(mut prepared: Prepared, budget: Duration, setup: &SetupStats) -> Report {
    let mut report = Report::default();
    let mut walls = Vec::new();
    let mut cpu = 0.0;
    let start = Instant::now();
    while walls.len() < MIN_ITERATIONS || start.elapsed() < budget {
        let store_dir = prepared.fresh_store_dir();
        let cpu_before = procfs::cpu_seconds().unwrap_or(f64::NAN);
        let began = Instant::now();
        let outcome = prepared.iterate(&store_dir);
        walls.push(began.elapsed().as_secs_f64());
        cpu += procfs::cpu_seconds().unwrap_or(f64::NAN) - cpu_before;
        std::fs::remove_dir_all(&store_dir).ok();
        report.attempted += 1;
        let problems = match outcome {
            Ok(outcome) => prepared.check(&outcome),
            Err(message) => vec![message],
        };
        if !problems.is_empty() {
            report.failed += 1;
            for problem in problems {
                eprintln!("check failed: {problem}");
            }
        }
    }
    let reference = prepared.reference();
    let (hypervolume, gain) = (reference.hypervolume(), reference.area_gain());
    prepared.teardown();
    report.notes.push(format!(
        "first set-up (cold multiplier-cost cache) took {:.6} s",
        setup.first_seconds
    ));
    report.notes.push(format!(
        "{} iterations; run_s is their median, cpu_s their mean; error_rate = {}/{}",
        walls.len(),
        report.failed,
        report.attempted
    ));
    // The highest percentile with at least ten samples beyond it.
    if walls.len() >= 20 {
        let q = 1.0 - 10.0 / walls.len() as f64;
        report.notes.push(format!(
            "run_s p{:.0} = {:.6} s",
            q * 100.0,
            stats::quantile(&walls, q)
        ));
    }
    report.metrics = vec![
        Metric::new("run_s", median(&walls), "s"),
        Metric::new("cpu_s", cpu / walls.len() as f64, "s"),
        Metric::new("setup_s", setup.seconds, "s"),
        Metric::new("peak_rss_mb", setup.first_pass_peak_rss_mb, "MiB"),
        Metric::new("hypervolume", hypervolume, "ratio"),
        Metric::new("area_gain_5pct", gain, "x"),
    ];
    report
}

/// The result line the benchmark contract asks for.
fn result_json(correct: bool, report: &Report) -> String {
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    );
    for (i, metric) in report.metrics.iter().enumerate() {
        let value = if metric.value.is_finite() {
            format!("{:?}", metric.value)
        } else {
            "null".into()
        };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    json
}

/// The commit the checkout was made from, read from `.git` (loose or packed
/// refs); `unknown` when the checkout is not a git repository.
fn commit() -> String {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .ok()
            .map(|sha| sha.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed.lines().find_map(|line| {
                    let (sha, name) = line.split_once(' ')?;
                    (name == reference).then(|| sha.to_string())
                })
            }),
        None => Some(head.to_string()),
    };
    sha.filter(|sha| !sha.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
