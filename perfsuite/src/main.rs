//! The repository benchmark.
//!
//! ```text
//! perfsuite --workload <name> --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
//! ```
//!
//! Runs one named workload built from the seed, checks its outputs, and
//! prints one JSON result line last on stdout: the end-to-end metrics with
//! `--trace 0`, the per-layer profile with `--trace 1`. See README.md.

mod campaign;
mod frames;
mod harness;
mod serve;
mod trace;

use std::path::PathBuf;

use harness::{metric, peak_rss_mb, result_json, Metric, Tally};
use trace::Tracer;

const WORKLOADS: [&str; 4] = [
    "insitu_frames",
    "postproc_frames",
    "campaign_10k",
    "serve_10k",
];

/// The pinned execution shape of every run.
pub struct Shape {
    /// Worker-pool threads (`rayon::set_num_threads`), the calling thread
    /// included.
    pub pool_threads: usize,
    /// In-situ pipeline depth, passed as an argument.
    pub depth: usize,
}

/// What a timed run measured.
pub struct Outcome {
    pub correct: bool,
    pub tally: Tally,
    pub ops_per_s: f64,
    pub setup_s: f64,
    pub calls: usize,
}

/// SplitMix64 step: the benchmark's own seed mixer.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: serve::GOLDEN_SEED,
        seconds: 10.0,
        trace: false,
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|e| format!("bad --seed {value:?}: {e}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            "--commit" => args.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Run the traced profile of `workload` for `seconds` (at least one pass).
fn run_profile(
    workload: &str,
    seed: u64,
    seconds: f64,
    shape: &Shape,
    tr: &mut Tracer,
    log: &mut String,
) -> (Vec<Metric>, bool) {
    match workload {
        "insitu_frames" => frames::profile(false, seed, seconds, shape, tr, log),
        "postproc_frames" => frames::profile(true, seed, seconds, shape, tr, log),
        "campaign_10k" => campaign::profile(seed, seconds, tr, log),
        _ => serve::profile(seed, seconds, tr, log),
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfsuite: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Busy threads stay at or below nproc: the in-situ producer thread
    // plus a pool of nproc − 1 (the consumer included).
    let shape = Shape {
        pool_threads: nproc.saturating_sub(1).max(1),
        depth: 2,
    };
    rayon::set_num_threads(shape.pool_threads);
    println!(
        "{{\"host\": {{\"nproc\": {nproc}, \"pool_threads\": {}, \"depth\": {}, \"rustc\": \"{}\", \
         \"commit\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        shape.pool_threads,
        shape.depth,
        env!("PERFSUITE_RUSTC"),
        args.commit,
        args.workload,
        args.seed,
        args.seconds,
        args.trace
    );
    let line = if args.trace {
        traced(&args, &shape)
    } else {
        let o = match args.workload.as_str() {
            "insitu_frames" => frames::run(false, args.seed, args.seconds, &shape),
            "postproc_frames" => frames::run(true, args.seed, args.seconds, &shape),
            "campaign_10k" => campaign::run(args.seed, args.seconds),
            _ => serve::run(args.seed, args.seconds),
        };
        eprintln!(
            "{}: {} timed calls, {:.3} ops/s, setup {:.6} s",
            args.workload, o.calls, o.ops_per_s, o.setup_s
        );
        let metrics = [
            metric("ops_per_s", o.ops_per_s, "1/s"),
            metric("setup_s", o.setup_s, "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
        result_json(o.correct, o.tally, &metrics)
    };
    println!("{line}");
}

/// The traced run. The run's own workload is profiled for `--seconds`;
/// every other profile runs one pass, so that every per-layer metric is
/// always printed. A metric two profiles share comes from the first.
fn traced(args: &Args, shape: &Shape) -> String {
    let own = args.workload.as_str();
    let mut tr = Tracer::new();
    let mut log = String::new();
    let mut metrics: Vec<Metric> = Vec::new();
    let mut correct = true;
    let mut tally = Tally::default();
    let others = WORKLOADS.into_iter().filter(|w| *w != own);
    for w in std::iter::once(own).chain(others) {
        let budget = if w == own { args.seconds } else { 0.0 };
        let (m, ok) = run_profile(w, args.seed, budget, shape, &mut tr, &mut log);
        correct &= ok;
        tally.add(1, u64::from(!ok));
        for x in m {
            if !metrics.iter().any(|y| y.name == x.name) {
                metrics.push(x);
            }
        }
    }
    let dir = out_dir();
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let trace_path = dir.join(format!("{stem}.trace.json"));
    let table_path = dir.join(format!("{stem}.self_time.txt"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&trace_path, tr.chrome_json()))
        .and_then(|_| std::fs::write(&table_path, &log));
    if let Err(e) = written {
        eprintln!("perfsuite: cannot write the trace: {e}");
        std::process::exit(1);
    }
    eprint!("{log}");
    eprintln!(
        "trace: {} (open in https://ui.perfetto.dev), self times: {}",
        trace_path.display(),
        table_path.display()
    );
    result_json(correct, tally, &metrics)
}
