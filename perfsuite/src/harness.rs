//! Timing, statistics and the result line.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Median of `xs` (mean of the two middle values for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The fastest of `xs`: the call least slowed by other work on the host.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Operations attempted and failed, counted across every checked call.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Run one discarded warm-up call, then timed calls until `budget_s` of
/// wall time has passed and at least `min_calls` were timed. Only `call`
/// is inside the timer; `check` runs after the timer stops. Returns the
/// seconds of each timed call.
pub fn timed_calls<T>(
    budget_s: f64,
    min_calls: usize,
    mut call: impl FnMut() -> T,
    mut check: impl FnMut(T),
) -> Vec<f64> {
    let warm = call();
    check(warm);
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < min_calls || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        let out = call();
        secs.push(t0.elapsed().as_secs_f64());
        check(out);
    }
    secs
}

/// Times the constructions a workload's calls are built from, spread over
/// the run like the timed calls.
///
/// One batch of builds, lasting at least 10 ms and divided by its number
/// of builds, is timed after a checked call at most every quarter second,
/// so no batch is a single sub-millisecond timer read. `setup_s` is the
/// median over nine consecutive slices of the run of each slice's fastest
/// batch: a slice's fastest batch is the one least slowed by other load on
/// the host.
pub struct SetupTimer<B> {
    build: B,
    batch: usize,
    seconds: Vec<f64>,
    last: Option<Instant>,
}

impl<B> SetupTimer<B> {
    /// Build once (sizing the batch) and return the value built.
    pub fn new<T>(mut build: B) -> (Self, T)
    where
        B: FnMut() -> T,
    {
        let t0 = Instant::now();
        let first = build();
        let one = t0.elapsed().as_secs_f64().max(1e-9);
        let timer = SetupTimer {
            build,
            batch: ((0.01 / one).ceil() as usize).clamp(1, 1_000_000),
            seconds: Vec::new(),
            last: None,
        };
        (timer, first)
    }

    /// Time one batch, unless one was timed in the last quarter second.
    pub fn sample<T>(&mut self)
    where
        B: FnMut() -> T,
    {
        if self.last.is_some_and(|t| t.elapsed().as_secs_f64() < 0.25) {
            return;
        }
        let t0 = Instant::now();
        for _ in 0..self.batch {
            black_box((self.build)());
        }
        self.seconds
            .push(t0.elapsed().as_secs_f64() / self.batch as f64);
        self.last = Some(Instant::now());
    }

    /// Median over nine slices of the run of each slice's fastest batch.
    pub fn setup_s(&self) -> f64 {
        let slice = self.seconds.len().div_ceil(9);
        let fastest_per_slice: Vec<f64> = self.seconds.chunks(slice).map(fastest).collect();
        median(&fastest_per_slice)
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
