//! Fault-path overhead benchmark: [`Campaign::run_faulted`] with an
//! **empty** fault plan against [`Campaign::run`], across the paper's six
//! measured configurations.
//!
//! Clean runs are the fault-aware loops under [`FaultScenario::none`], so
//! both sides execute the same loop and `no_fault_overhead` times only
//! the [`ivis_core::FaultedRun`] wrapper (retry-energy attribution over
//! an empty backoff list and the stats hand-off). The 2% gate is kept so
//! that wrapper stays free. The bench writes
//! `BENCH_fault.json` (or the path given as the first non-flag argument)
//! as a tracked perf trajectory.
//!
//! It also replays one *seeded* fault scenario per pipeline and records
//! the [`ivis_core::FaultedRun::digest`] so the artifact doubles as a cross-thread,
//! cross-seed determinism witness: CI compares the digests produced at
//! `ZSIM_THREADS=1` and `ZSIM_THREADS=8`.
//!
//! With `--check`, exits nonzero if the aggregate no-fault overhead
//! exceeds 2% — the CI gate from the fault-injection issue.

use std::time::Instant;

use ivis_core::{Campaign, PipelineConfig};
use ivis_fault::{FaultPlan, FaultScenario};
use ivis_sim::SimDuration;

/// Minimum wall-clock seconds of `f` over `reps` runs (after warmup).
///
/// Minimum, not median: both paths do identical deterministic work, so
/// the best observation is the least-noisy estimate of the true cost.
fn time_min_s(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup + lazy init
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let mut out_path = "BENCH_fault.json".to_string();
    let mut check = false;
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
        } else {
            out_path = arg;
        }
    }
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let zsim = std::env::var("ZSIM_THREADS").ok();

    let campaign = Campaign::paper();
    let none = FaultScenario::none();
    let reps = 5;

    // --- no-fault overhead across the 2 pipelines × 3 rates matrix ---
    let mut rows = Vec::new();
    let mut clean_total = 0.0;
    let mut faulted_total = 0.0;
    for pc in PipelineConfig::paper_matrix() {
        let label = format!("{}@{}h", pc.kind.label(), pc.rate.every_hours);
        // Correctness first: both entry points must agree before their
        // cost is worth comparing.
        let clean = campaign.run(&pc);
        let faulted = campaign
            .run_faulted(&pc, &none)
            .expect("empty scenario cannot fail");
        assert_eq!(
            clean.energy_total().joules().to_bits(),
            faulted.metrics.energy_total().joules().to_bits(),
            "{label}: inert scenario must be bit-identical to the clean run"
        );
        let clean_s = time_min_s(reps, || {
            std::hint::black_box(campaign.run(&pc));
        });
        let faulted_s = time_min_s(reps, || {
            std::hint::black_box(campaign.run_faulted(&pc, &none).unwrap());
        });
        let overhead_pct = (faulted_s / clean_s - 1.0) * 100.0;
        eprintln!(
            "{label:>20}: clean {:.3} ms, resilient {:.3} ms ({overhead_pct:+.2}%)",
            clean_s * 1e3,
            faulted_s * 1e3
        );
        clean_total += clean_s;
        faulted_total += faulted_s;
        rows.push((label, clean_s, faulted_s, overhead_pct));
    }
    let aggregate_pct = (faulted_total / clean_total - 1.0) * 100.0;
    eprintln!(
        "aggregate: clean {:.3} ms, resilient {:.3} ms ({aggregate_pct:+.2}%)",
        clean_total * 1e3,
        faulted_total * 1e3
    );

    // --- seeded determinism witness: digest of one faulted run per kind ---
    // The horizon matches the clean executors' machine wall clock (the
    // 8-hour-rate runs finish inside ~1300–2700 s of simulated time), so
    // the randomly placed windows actually overlap the run.
    let horizon = SimDuration::from_secs(1_300);
    let mut digests = Vec::new();
    for pc in [
        PipelineConfig::paper(ivis_core::PipelineKind::InSitu, 8.0),
        PipelineConfig::paper(ivis_core::PipelineKind::PostProcessing, 8.0),
    ] {
        let scenario = FaultScenario::with_plan(FaultPlan::random(42, horizon));
        let run = campaign
            .run_faulted(&pc, &scenario)
            .expect("random plan at seed 42 completes degraded, not dead");
        let label = format!("{}@{}h/seed42", pc.kind.label(), pc.rate.every_hours);
        eprintln!("{label:>20}: {}", run.digest());
        digests.push((label, run.digest()));
    }

    let row_json: Vec<String> = rows
        .iter()
        .map(|(label, c, f, pct)| {
            format!(
                "    {{ \"config\": \"{label}\", \"clean_s\": {c:.6}, \
                 \"resilient_s\": {f:.6}, \"overhead_pct\": {pct:.3} }}"
            )
        })
        .collect();
    let digest_json: Vec<String> = digests
        .iter()
        .map(|(label, d)| format!("    {{ \"config\": \"{label}\", \"digest\": \"{d}\" }}"))
        .collect();
    let json = format!(
        "{{\n  \"host\": {{ \"available_parallelism\": {host_threads}, \"zsim_threads\": {} }},\n  \
         \"no_fault_overhead\": {{\n  \"rows\": [\n{}\n  ],\n  \
         \"aggregate_overhead_pct\": {aggregate_pct:.3}, \"bit_identical\": true }},\n  \
         \"seeded_digests\": [\n{}\n  ]\n}}\n",
        zsim.map_or("null".to_string(), |v| format!("\"{v}\"")),
        row_json.join(",\n"),
        digest_json.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    eprintln!("wrote {out_path}");

    if check && aggregate_pct > 2.0 {
        eprintln!(
            "FAIL: resilient executors cost {aggregate_pct:.2}% over the clean path \
             with no faults injected (2% budget)"
        );
        std::process::exit(1);
    }
}
