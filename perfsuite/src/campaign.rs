//! `campaign_10k`: the paper matrix on a 10 000-node Caddy-style machine.
//!
//! Timed calls run `Campaign::try_run` over the six paper configurations
//! in a seed-permuted order. The traced run replays the same campaign
//! loop over `Machine` and `ParallelFileSystem` through their public
//! calls, and its digests must equal `try_run`'s.

use std::collections::BTreeMap;
use std::time::Instant;

use ivis_cluster::{JobPhase, Machine};
use ivis_core::{Campaign, PipelineConfig, PipelineKind, PipelineMetrics};
use ivis_power::node::NodePowerModel;
use ivis_sim::{SimDuration, SimTime};
use ivis_storage::ParallelFileSystem;

use crate::harness::{median, metric, timed_calls, Metric, SetupTimer, Tally};
use crate::trace::{StageTime, Tracer};
use crate::{splitmix64, Outcome};

pub const NODES: usize = 10_000;

/// `PipelineMetrics::digest` of each paper configuration on the 10k-node
/// machine. The in-situ@8h row equals the `caddy10k/in-situ@8h` row of
/// `BENCH_des.json`.
const GOLDEN: [(&str, &str); 6] = [
    (
        "in-situ@8h",
        "kind=in-situ rate_mh=8000 exec_us=68991480 t_sim_us=51597000 t_io_us=7674480 \
         t_viz_us=9720000 bytes=599999940 outputs=540 e_compute=0x41a7d3e335748962 \
         e_storage=0x41032b04458cd1e1",
    ),
    (
        "in-situ@24h",
        "kind=in-situ rate_mh=24000 exec_us=57395160 t_sim_us=51597000 t_io_us=2558160 \
         t_viz_us=3240000 bytes=199999980 outputs=180 e_compute=0x41a3f88b3c7c2dd7 \
         e_storage=0x40ffde02a52695a0",
    ),
    (
        "in-situ@72h",
        "kind=in-situ rate_mh=72000 exec_us=53529720 t_sim_us=51597000 t_io_us=852720 \
         t_viz_us=1080000 bytes=66666660 outputs=60 e_compute=0x41a2af6de97eba12 \
         e_storage=0x40fdb600add590c2",
    ),
    (
        "post-processing@8h",
        "kind=post-processing rate_mh=8000 exec_us=1735642193 t_sim_us=51597000 \
         t_io_us=1454043071 t_viz_us=230002122 bytes=230602122180 outputs=540 \
         e_compute=0x41f1b3a7915ad109 e_storage=0x414e6ba121e3432e",
    ),
    (
        "post-processing@24h",
        "kind=post-processing rate_mh=24000 exec_us=612950468 t_sim_us=51597000 \
         t_io_us=484686094 t_viz_us=76667374 bytes=76867374060 outputs=180 \
         e_compute=0x41d91b2a20b3908c e_storage=0x413579370fbdcf02",
    ),
    (
        "post-processing@72h",
        "kind=post-processing rate_mh=72000 exec_us=238716657 t_sim_us=51597000 \
         t_io_us=161563866 t_viz_us=25555791 bytes=25622458020 outputs=60 \
         e_compute=0x41c3bea058acecf5 e_storage=0x4120b3ad16c56d5c",
    ),
];

fn label(pc: &PipelineConfig) -> String {
    format!("{}@{}h", pc.kind.label(), pc.rate.every_hours)
}

fn golden(pc: &PipelineConfig) -> &'static str {
    let l = label(pc);
    GOLDEN
        .iter()
        .find(|(k, _)| *k == l)
        .map(|(_, d)| *d)
        .expect("every paper configuration has a golden digest")
}

/// The paper matrix in a seed-determined order (Fisher–Yates).
fn permuted_matrix(seed: u64) -> Vec<PipelineConfig> {
    let mut m = PipelineConfig::paper_matrix();
    let mut s = seed;
    for i in (1..m.len()).rev() {
        s = splitmix64(s);
        m.swap(i, (s % (i as u64 + 1)) as usize);
    }
    m
}

/// What the calls use: the campaign, the ordered matrix, and the machine
/// and file system each configuration run starts from.
fn build(seed: u64) -> (Campaign, Vec<PipelineConfig>, Machine, ParallelFileSystem) {
    let campaign = Campaign::caddy_scaled(NODES);
    let machine = Machine::new(
        campaign.topology.clone(),
        NodePowerModel::caddy(),
        campaign.config.io_policy,
    );
    (
        campaign,
        permuted_matrix(seed),
        machine,
        ParallelFileSystem::caddy_lustre(),
    )
}

/// The timed run. One call is one pass over the matrix; each
/// configuration is timed on its own, and `ops_per_s` is the number of
/// configurations over the sum of their median times.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let (mut setup, (campaign, matrix, _, _)) = SetupTimer::new(|| build(seed));
    assert_eq!(
        campaign.config.power_noise_rel, 0.0,
        "the campaign must stay noise-free"
    );
    let mut tally = Tally::default();
    let mut correct = true;
    let mut per_config: Vec<Vec<f64>> = vec![Vec::new(); matrix.len()];
    let passes = timed_calls(
        seconds,
        5,
        || {
            matrix
                .iter()
                .map(|pc| {
                    let t0 = Instant::now();
                    let r = campaign.try_run(pc);
                    (r, t0.elapsed().as_secs_f64())
                })
                .collect::<Vec<_>>()
        },
        |results| {
            for ((pc, (r, secs)), times) in matrix.iter().zip(results).zip(&mut per_config) {
                let ok = match r {
                    Ok(m) => m.digest() == golden(pc),
                    Err(e) => {
                        eprintln!("{}: {e}", label(pc));
                        false
                    }
                };
                if !ok {
                    eprintln!("{}: digest differs from the golden", label(pc));
                }
                correct &= ok;
                tally.add(1, u64::from(!ok));
                times.push(secs);
            }
            setup.sample();
        },
    );
    // The warm-up pass is the first of each configuration's times.
    let pass_s: f64 = per_config.iter().map(|t| median(&t[1..])).sum();
    Outcome {
        correct,
        tally,
        ops_per_s: matrix.len() as f64 / pass_s,
        setup_s: setup.setup_s(),
        calls: passes.len(),
    }
}

/// Replay one configuration's campaign loop with a span around every call
/// into `ivis-cluster` and `ivis-storage`; noise is off, so every noise
/// factor of the program's loop is exactly 1.
fn traced_config(campaign: &Campaign, pc: &PipelineConfig, tr: &mut Tracer) -> PipelineMetrics {
    let root = tr.begin("campaign.config");
    let cfg = &campaign.config;
    let (mut machine, mut pfs) = tr.span("cluster.new", || {
        (
            Machine::new(
                campaign.topology.clone(),
                NodePowerModel::caddy(),
                cfg.io_policy,
            ),
            ParallelFileSystem::caddy_lustre(),
        )
    });
    let spec = &pc.spec;
    let n_out = spec.num_outputs(pc.rate);
    let spp = spec.steps_per_output(pc.rate);
    let step_secs = campaign.cost.step_seconds(spec);
    let trailing = spec.total_steps().saturating_sub(n_out * spp);
    let mut now = SimTime::ZERO;
    let mut write = |tr: &mut Tracer, now: SimTime, path: &str, bytes: u64| {
        tr.span("storage.pfs_write", || pfs.write(now, path, bytes))
            .expect("the paper configurations fit the file system")
    };
    let begin = |tr: &mut Tracer, machine: &mut Machine, t: SimTime, phase: JobPhase| {
        tr.span("cluster.begin_phase", || machine.begin_phase(t, phase))
    };
    match pc.kind {
        PipelineKind::InSitu => {
            for k in 0..n_out {
                begin(tr, &mut machine, now, JobPhase::Simulate);
                now += SimDuration::from_secs_f64(step_secs * spp as f64);
                begin(tr, &mut machine, now, JobPhase::Visualize);
                now += SimDuration::from_secs_f64(cfg.viz_seconds_per_output);
                begin(tr, &mut machine, now, JobPhase::WriteOutput);
                let path = format!("/insitu/cinema/ts_{k:06}.png");
                now = write(tr, now, &path, cfg.image_bytes_per_output);
            }
            if trailing > 0 {
                begin(tr, &mut machine, now, JobPhase::Simulate);
                now += SimDuration::from_secs_f64(step_secs * trailing as f64);
            }
        }
        PipelineKind::PostProcessing => {
            let raw = spec.raw_output_bytes();
            for k in 0..n_out {
                begin(tr, &mut machine, now, JobPhase::Simulate);
                now += SimDuration::from_secs_f64(step_secs * spp as f64);
                begin(tr, &mut machine, now, JobPhase::WriteOutput);
                let path = format!("/postproc/raw/out_{k:06}.nc");
                now = write(tr, now, &path, raw);
            }
            if trailing > 0 {
                begin(tr, &mut machine, now, JobPhase::Simulate);
                now += SimDuration::from_secs_f64(step_secs * trailing as f64);
            }
            begin(tr, &mut machine, now, JobPhase::Visualize);
            let render = cfg.viz_seconds_per_output * n_out as f64;
            let read = (raw * n_out) as f64 / cfg.seq_read_bandwidth_bps;
            now += SimDuration::from_secs_f64(render.max(read));
            begin(tr, &mut machine, now, JobPhase::WriteOutput);
            let images = cfg.image_bytes_per_output * n_out;
            now = write(tr, now, "/postproc/images.tar", images);
        }
    }
    tr.span("cluster.finish", || machine.finish(now));
    let (t_sim, t_io, t_viz) = tr.span("cluster.timeline", || machine.timeline().decompose());
    let compute_profile = tr.span("cluster.meter", || {
        machine.cluster_meter().profile(SimTime::ZERO, now)
    });
    let storage_profile = tr.span("storage.meter", || {
        pfs.rack_meter().profile(SimTime::ZERO, now)
    });
    let storage_bytes = pfs.used_bytes();
    tr.end(root);
    PipelineMetrics {
        kind: pc.kind,
        rate_hours: pc.rate.every_hours,
        execution_time: now - SimTime::ZERO,
        t_sim,
        t_io,
        t_viz,
        storage_bytes,
        num_outputs: n_out,
        compute_profile,
        storage_profile,
    }
}

/// The traced profile: alternates traced matrix passes with untraced
/// `try_run` passes until `seconds` have passed (at least one of each).
pub fn profile(seed: u64, seconds: f64, tr: &mut Tracer, log: &mut String) -> (Vec<Metric>, bool) {
    let (campaign, matrix, _, _) = build(seed);
    let mut ok = true;
    let mut passes: Vec<(BTreeMap<&'static str, StageTime>, f64)> = Vec::new();
    let mut untraced_s = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let root = tr.begin("campaign.matrix");
        for pc in &matrix {
            let m = traced_config(&campaign, pc, tr);
            ok &= m.digest() == golden(pc);
        }
        tr.end(root);
        passes.push((tr.self_times(root), t0.elapsed().as_secs_f64()));
        let t0 = Instant::now();
        for pc in &matrix {
            ok &= campaign.try_run(pc).is_ok_and(|m| m.digest() == golden(pc));
        }
        untraced_s.push(t0.elapsed().as_secs_f64());
    }
    let per = |stage: &str, scale: f64, per_call: bool| -> f64 {
        let v: Vec<f64> = passes
            .iter()
            .map(|(st, _)| {
                let t = st.get(stage).copied().unwrap_or_default();
                let n = if per_call {
                    t.calls as f64
                } else {
                    matrix.len() as f64
                };
                t.self_s * scale / n
            })
            .collect();
        median(&v)
    };
    let share = |stage: &str| -> f64 {
        let v: Vec<f64> = passes
            .iter()
            .map(|(st, wall)| st.get(stage).map_or(0.0, |t| t.self_s) / wall)
            .collect();
        median(&v)
    };
    let closure = median(
        &passes
            .iter()
            .map(|(st, wall)| st.values().map(|t| t.self_s).sum::<f64>() / wall)
            .collect::<Vec<_>>(),
    );
    ok &= (0.95..=1.05).contains(&closure);
    let (last, _) = passes.last().expect("at least one pass");
    log.push_str(&crate::trace::self_time_table(
        "campaign_10k (last traced matrix pass)",
        last,
    ));
    let calls = |stage: &str| last.get(stage).map_or(0, |t| t.calls) as f64;
    let traced_s: Vec<f64> = passes.iter().map(|(_, w)| *w).collect();
    let metrics = vec![
        metric(
            "cluster.begin_phase_us",
            per("cluster.begin_phase", 1e6, true),
            "us",
        ),
        metric(
            "cluster.begin_phase_share",
            share("cluster.begin_phase"),
            "ratio",
        ),
        metric("cluster.phase_calls", calls("cluster.begin_phase"), "count"),
        metric("cluster.finish_ms", per("cluster.finish", 1e3, false), "ms"),
        metric("cluster.meter_ms", per("cluster.meter", 1e3, false), "ms"),
        metric("cluster.meter_share", share("cluster.meter"), "ratio"),
        metric("cluster.new_ms", per("cluster.new", 1e3, false), "ms"),
        metric(
            "storage.pfs_write_us",
            per("storage.pfs_write", 1e6, true),
            "us",
        ),
        metric(
            "storage.pfs_write_share",
            share("storage.pfs_write"),
            "ratio",
        ),
        metric("storage.pfs_calls", calls("storage.pfs_write"), "count"),
        metric("storage.meter_ms", per("storage.meter", 1e3, false), "ms"),
        metric(
            "campaign.events",
            calls("cluster.begin_phase") + calls("storage.pfs_write"),
            "count",
        ),
        metric(
            "core.loop_share",
            share("campaign.config") + share("campaign.matrix"),
            "ratio",
        ),
        metric("campaign.closure", closure, "ratio"),
        metric(
            "bench.trace_overhead",
            median(&traced_s) / median(&untraced_s),
            "ratio",
        ),
    ];
    (metrics, ok)
}
