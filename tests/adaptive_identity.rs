//! The adaptive-trigger executor's determinism contract: every decision
//! the hysteresis controller takes, every PNG it emits and every trace
//! record it writes must be **bit-identical** between the pipelined path
//! and the sequential reference, at every thread count and every
//! candidate-grid size. Wall-clock microseconds are the one thing two
//! real executions can never agree on, so trace comparison normalizes
//! the time fields and demands byte-identity of everything else.
//!
//! Also here: a proptest that the *measured* effective rate — the
//! dynamic output the model consumes — always stays within the
//! configured interval band, whatever the ocean does.

mod common;

use common::normalize_trace;
use ivis_core::adaptive::{
    run_native_adaptive_sequential_with, run_native_adaptive_with, AdaptiveReport,
};
use ivis_core::native::NativeConfig;
use ivis_obs::{to_jsonl, Recorder};
use ivis_trigger::TriggerConfig;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const CANDIDATE_COUNTS: [usize; 3] = [1, 5, 10];

fn run_traced(
    run: fn(&NativeConfig, &TriggerConfig, &Recorder) -> AdaptiveReport,
    cfg: &NativeConfig,
    tc: &TriggerConfig,
) -> (AdaptiveReport, String) {
    let rec = Recorder::in_memory();
    let report = run(cfg, tc, &rec);
    let trace = rec.with_buffer(to_jsonl).unwrap();
    (report, trace)
}

#[test]
fn adaptive_outputs_are_bit_identical_at_all_thread_and_candidate_counts() {
    let cfg = NativeConfig::tiny();
    for candidates in CANDIDATE_COUNTS {
        let tc = TriggerConfig::new(8, candidates);
        let (golden, golden_trace) = run_traced(run_native_adaptive_sequential_with, &cfg, &tc);
        let golden_trace = normalize_trace(&golden_trace);
        assert!(
            golden_trace.contains("\"start_us\":0"),
            "normalizer broken?"
        );
        let golden_digest = golden.digest();
        for n in THREAD_COUNTS {
            rayon::set_num_threads(n);
            let (pipelined, trace) = run_traced(run_native_adaptive_with, &cfg, &tc);
            let ctx = format!("{candidates} candidates, {n} threads");
            assert_eq!(pipelined.digest(), golden_digest, "{ctx}");
            assert_eq!(pipelined.decisions, golden.decisions, "{ctx}");
            assert_eq!(pipelined.frames, golden.frames, "{ctx}");
            assert_eq!(
                pipelined.cinema.index_json(),
                golden.cinema.index_json(),
                "{ctx}"
            );
            for (ep, eg) in pipelined
                .cinema
                .entries()
                .iter()
                .zip(golden.cinema.entries())
            {
                assert_eq!(
                    ep.data, eg.data,
                    "PNG bytes differ at frame {} with {ctx}",
                    eg.timestep
                );
            }
            assert_eq!(pipelined.tracks, golden.tracks, "{ctx}");
            assert_eq!(pipelined.final_census, golden.final_census, "{ctx}");
            assert_eq!(
                normalize_trace(&trace),
                golden_trace,
                "trace structure differs at {ctx}"
            );
        }
        rayon::set_num_threads(0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the ocean does, the measured effective rate — the
    /// dynamic output fed to Eq. 6/7 — stays inside the configured
    /// band: no two emissions closer than `min_interval`, none farther
    /// apart than `max_interval` plus one analysis, and the mean
    /// interval at least `min_interval`.
    #[test]
    fn effective_rate_stays_within_configured_bounds(
        analysis_pow in 2u32..4,       // analysis every 4 or 8 steps
        span in 1u32..3,               // max = min << span
        candidates in 1usize..6,
        steps in 16u64..48,
        seed in 0u64..1024,
    ) {
        let analysis = 1u64 << analysis_pow;
        let mut cfg = NativeConfig::tiny();
        cfg.steps = steps;
        cfg.seed = seed;
        let mut tc = TriggerConfig::new(analysis, candidates);
        tc.max_interval = tc.min_interval << span;
        let r = run_native_adaptive_with(&cfg, &tc, &Recorder::off());
        let mut last: Option<u64> = None;
        for d in r.decisions.iter().filter(|d| d.emit) {
            prop_assert!(
                d.interval_steps >= tc.min_interval && d.interval_steps <= tc.max_interval,
                "interval {} outside [{}, {}]",
                d.interval_steps, tc.min_interval, tc.max_interval
            );
            if let Some(prev) = last {
                let gap = d.step - prev;
                prop_assert!(gap >= tc.min_interval, "gap {gap} under min");
                prop_assert!(
                    gap <= tc.max_interval + tc.analysis_interval,
                    "gap {gap} over max"
                );
            }
            last = Some(d.step);
        }
        if r.frames > 0 {
            prop_assert!(r.effective_interval_steps() >= tc.min_interval as f64);
        }
    }
}
