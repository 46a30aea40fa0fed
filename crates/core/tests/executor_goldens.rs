//! Golden-file pins of every executor family's observable output, so a
//! change that moves a digest, a trace line or a PNG byte fails against a
//! committed file instead of being compared only with itself:
//!
//! * `PipelineMetrics::digest` for `Campaign::paper()` and
//!   `paper_noisy(11)` over the six paper configurations, and the JSONL
//!   trace of `paper_noisy(11)` in-situ@8h;
//! * `FaultedRun::digest` and a JSONL-trace FNV-1a for `FaultPlan::random`
//!   seeds 1, 42 and 1337, both pipeline kinds;
//! * the native faulted pipeline on `NativeConfig::tiny()` at the same
//!   seeds, under `TransientIo { fail_prob: 0.4 }` and a twelve-frame
//!   storm that sheds frames both ways: Cinema index, PNG-byte FNV-1a,
//!   eddy tracks and final census (FNV-1a of their `Debug` form),
//!   `FaultStats::digest` and the trace with wall-clock fields zeroed.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p ivis-core --test
//! executor_goldens` — only for a deliberate, documented behaviour change.

#[path = "../../../tests/common/mod.rs"]
mod common;

use common::normalize_trace;
use ivis_core::campaign::Campaign;
use ivis_core::native::{run_native_insitu_faulted_with, NativeConfig};
use ivis_core::{PipelineConfig, PipelineKind};
use ivis_fault::{DegradationPolicy, FaultKind, FaultPlan, FaultScenario, FaultWindow};
use ivis_obs::{to_jsonl, Recorder};
use ivis_sim::SimDuration;

const SEEDS: [u64; 3] = [1, 42, 1337];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Compare `got` with the committed golden file `name`, rewriting the
/// file first when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, got: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).unwrap();
    }
    let want = std::fs::read_to_string(&path).expect("golden file present");
    if got != want {
        // Point at the first divergent line, not just at a mismatch.
        let same = got.lines().zip(want.lines()).take_while(|(g, w)| g == w);
        let line = same.count();
        panic!(
            "{name} drifted from the golden file at line {}: got {:?}, want {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

fn label(pc: &PipelineConfig) -> String {
    format!("{}@{}h", pc.kind.label(), pc.rate.every_hours)
}

#[test]
fn paper_matrix_digests_are_pinned() {
    let mut got = String::new();
    for (name, campaign) in [
        ("paper", Campaign::paper()),
        ("paper_noisy(11)", Campaign::paper_noisy(11)),
    ] {
        for pc in PipelineConfig::paper_matrix() {
            let m = campaign.try_run(&pc).expect("paper configurations fit");
            got += &format!("{name} {}: {}\n", label(&pc), m.digest());
        }
    }
    check_golden("paper_matrix_digests.txt", &got);
}

#[test]
fn noisy_insitu_8h_trace_is_pinned() {
    let mut campaign = Campaign::paper_noisy(11);
    let rec = Recorder::in_memory();
    campaign.config.recorder = rec.clone();
    campaign.run(&PipelineConfig::paper(PipelineKind::InSitu, 8.0));
    let trace = rec.with_buffer(to_jsonl).expect("recorder is on");
    check_golden("noisy11_insitu_8h_trace.jsonl", &trace);
}

#[test]
fn seeded_faulted_digests_are_pinned() {
    let mut got = String::new();
    for seed in SEEDS {
        let plan = FaultPlan::random(seed, SimDuration::from_secs(1_300));
        for kind in [PipelineKind::InSitu, PipelineKind::PostProcessing] {
            let pc = PipelineConfig::paper(kind, 8.0);
            let mut campaign = Campaign::paper_noisy(seed);
            let rec = Recorder::in_memory();
            campaign.config.recorder = rec.clone();
            let run = campaign
                .run_faulted(&pc, &FaultScenario::with_plan(plan.clone()))
                .expect("random plans degrade runs, they do not kill them");
            let trace = rec.with_buffer(to_jsonl).expect("recorder is on");
            got += &format!(
                "seed {seed} {}: {} | trace_fnv={:016x}\n",
                label(&pc),
                run.digest(),
                fnv1a(trace.as_bytes())
            );
        }
    }
    check_golden("faulted_digests.txt", &got);
}

/// One native faulted run rendered as a golden-file section.
fn native_faulted_section(name: &str, cfg: &NativeConfig, scenario: &FaultScenario) -> String {
    let rec = Recorder::in_memory();
    let out = run_native_insitu_faulted_with(cfg, scenario, &rec);
    let mut png = Vec::new();
    for e in out.report.cinema.entries() {
        png.extend_from_slice(&e.data);
    }
    let trace = rec.with_buffer(to_jsonl).expect("recorder is on");
    let r = &out.report;
    format!(
        "== {name}\nstats: {}\npng_fnv: {:016x}\ntracks_fnv: {:016x}\nindex: {}\ntrace:\n{}",
        out.stats.digest(),
        fnv1a(&png),
        fnv1a(format!("{:?} {:?}", r.tracks, r.final_census).as_bytes()),
        r.cinema.index_json(),
        normalize_trace(&trace)
    )
}

#[test]
fn native_faulted_outputs_are_pinned() {
    let tiny = NativeConfig::tiny();
    let storm_cfg = NativeConfig {
        steps: 96,
        ..NativeConfig::tiny()
    };
    let mut got = String::new();
    for seed in SEEDS {
        let plan = |fail_prob| {
            FaultPlan::new(seed).inject(
                FaultWindow::of_secs(0, 1_000_000),
                FaultKind::TransientIo { fail_prob },
            )
        };
        got += &native_faulted_section(
            &format!("seed {seed}"),
            &tiny,
            &FaultScenario::with_plan(plan(0.4)),
        );
        let mut storm = FaultScenario::with_plan(plan(0.7));
        storm.retry.max_attempts = 2;
        storm.degradation = DegradationPolicy {
            pressure_trigger: 2,
            clean_recover: 2,
            max_level: 2,
        };
        got += &native_faulted_section(&format!("storm seed {seed}"), &storm_cfg, &storm);
    }
    check_golden("native_faulted.txt", &got);
}
