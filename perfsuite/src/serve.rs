//! `serve_10k`: the `ivis-serve` reactor replaying the 10k-client tier.
//!
//! The schedule has the serve bench's shape: a warm-up prefix touching
//! every what-if key once, then 10 000 clients × 4 requests spread over
//! one simulated second with the default mix. Replays run on simulated
//! time, so the digest is fixed by the schedule; host time per replay is
//! what the benchmark measures.
//!
//! The traced profile charges host time to layers by unit cost × count:
//! each layer's public function is timed on the replay's own inputs, and
//! the replay's counters say how often the reactor calls it. What the
//! products leave of the replay's wall time is reported as unattributed.

use std::collections::HashMap;
use std::time::Instant;

use ivis_core::PipelineKind;
use ivis_model::{WhatIfAnalyzer, WhatIfRequest};
use ivis_obs::Recorder;
use ivis_serve::{
    parse_request, render_whatif_body, whatif_target, HttpResponse, LoadMix, LoadReport,
    LoadSchedule, Server, ServerConfig, ShardedFrameIndex,
};
use ivis_sim::{DesEngine, SimDuration, SimTime};
use ivis_viz::CinemaDatabase;

use crate::harness::{fastest, median, metric, timed_calls, Metric, SetupTimer, Tally};
use crate::trace::Tracer;
use crate::Outcome;

/// Frames in the synthetic Cinema database.
const FRAMES: u64 = 256;
/// Timesteps between stored frames.
const STEPS_PER_FRAME: u64 = 16;
/// The seed at which the replay digest is pinned.
pub const GOLDEN_SEED: u64 = 0x5e21e;
/// The `ServeStats::digest` of the 10k tier at [`GOLDEN_SEED`]. Its
/// counters equal the 10k row of `BENCH_serve.json`; the two byte digests
/// differ from that row because 404 bodies now name the missing frame,
/// which that file predates. `serve_bench` prints this digest today.
const GOLDEN_DIGEST: &str = "req=40128 ok=39158 bad=379 nf=591 shed_conn=0 shed_q=0 \
    hits=27264 misses=128 dedup=689 batches=4361 fill=17 qdepth=0 inflight=25 \
    stream=79576245f01a2e0b content=0cf77ab5654b61c7";

fn what_if_keys(mix: &LoadMix) -> Vec<WhatIfRequest> {
    let mut keys = Vec::new();
    for kind in [PipelineKind::InSitu, PipelineKind::PostProcessing] {
        for step in 0..mix.distinct_rates {
            let rate_hours = 1.0 + 0.75 * (step % 64) as f64;
            keys.push(
                WhatIfRequest::new(mix.spec, kind, rate_hours, mix.curve_points)
                    .expect("mix rates are representable"),
            );
        }
    }
    keys
}

/// The warm-up prefix (one request per what-if key, 1.5 ms apart) followed
/// by the seeded 10k-client load shifted past it.
pub fn schedule(seed: u64) -> LoadSchedule {
    let mix = LoadMix::default();
    let mut arrivals: Vec<(SimTime, Vec<u8>)> = what_if_keys(&mix)
        .iter()
        .enumerate()
        .map(|(i, key)| (SimTime::from_micros(i as u64 * 1_500), whatif_target(key)))
        .collect();
    let offset = arrivals.last().map_or(0, |(t, _)| t.as_micros()) + 50_000;
    let load = LoadSchedule::generate(seed, 10_000, 4, 1_000_000, mix, FRAMES, STEPS_PER_FRAME);
    arrivals.extend(
        load.arrivals
            .into_iter()
            .map(|(t, b)| (SimTime::from_micros(t.as_micros() + offset), b)),
    );
    LoadSchedule { arrivals }
}

/// The server the replays run against: default provisioning over the
/// synthetic Cinema database (its PNGs are encoded here) and its shard
/// index.
fn build_server() -> Server {
    Server::new(
        ServerConfig::default(),
        WhatIfAnalyzer::paper(),
        CinemaDatabase::synthetic("serve-bench", FRAMES, 64, 64, STEPS_PER_FRAME),
    )
}

fn replay(srv: &Server, sched: &LoadSchedule) -> LoadReport {
    srv.run_load(sched, &Recorder::off(), false)
}

/// The timed run. Sheds count as failed requests; deliberate 400s and
/// 404s from the mix are answers, so they count as successes.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let sched = schedule(seed);
    let (mut setup, srv) = SetupTimer::new(build_server);
    let mut tally = Tally::default();
    let mut correct = true;
    let mut first: Option<String> = None;
    let mut requests = 0u64;
    let secs = timed_calls(
        seconds,
        5,
        || replay(&srv, &sched),
        |r| {
            let digest = r.stats.digest();
            let same = first.get_or_insert_with(|| digest.clone()) == &digest;
            let pinned = seed != GOLDEN_SEED || digest == GOLDEN_DIGEST;
            if !same || !pinned {
                eprintln!("serve digest mismatch: {digest}");
            }
            correct &= same && pinned && r.stats.requests == sched.len() as u64;
            requests = r.stats.requests;
            let failed = if same && pinned {
                r.stats.shed()
            } else {
                r.stats.requests
            };
            tally.add(r.stats.requests, failed);
            setup.sample();
        },
    );
    Outcome {
        correct,
        tally,
        ops_per_s: requests as f64 / fastest(&secs),
        setup_s: setup.setup_s(),
        calls: secs.len(),
    }
}

/// How the server answers one scheduled request.
enum Reply<'a> {
    Json(&'a [u8]),
    Png(u64, &'a [u8]),
    Missing(u64),
    Bad,
}

impl Reply<'_> {
    /// The response bytes, built the way the server builds them.
    fn to_bytes(&self) -> Vec<u8> {
        match self {
            Reply::Json(body) => HttpResponse::ok_json(
                String::from_utf8(body.to_vec()).expect("json bodies are utf-8"),
            ),
            Reply::Png(_, png) => HttpResponse::ok_png(png.to_vec()),
            Reply::Missing(ts) => HttpResponse::not_found(&format!("frame {ts}")),
            Reply::Bad => HttpResponse::bad_request("malformed"),
        }
        .to_bytes()
    }
}

/// Events one DES dispatch chain of `n` self-rescheduling events fires.
fn dispatch_chain(n: u64) -> u64 {
    let mut eng: DesEngine<u64> = DesEngine::new();
    eng.schedule_at(SimTime::ZERO, 0);
    let mut handler = |eng: &mut DesEngine<u64>, _at: SimTime, k: u64| {
        if k + 1 < n {
            eng.schedule_in(SimDuration::from_micros(7), k + 1);
        }
    };
    eng.run(&mut handler);
    eng.events_executed()
}

/// Per-unit seconds of `f`, which performs `units` units of work, as the
/// median of `reps` timed repetitions inside one span.
fn unit_seconds(
    tr: &mut Tracer,
    name: &'static str,
    reps: usize,
    units: u64,
    mut f: impl FnMut(),
) -> f64 {
    let id = tr.begin(name);
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        v.push(t0.elapsed().as_secs_f64() / units.max(1) as f64);
    }
    tr.end(id);
    median(&v)
}

/// The traced profile: timed replays alternate with traced ones (the
/// replay inside a span, then each layer's unit cost) until `seconds`
/// have passed.
pub fn profile(seed: u64, seconds: f64, tr: &mut Tracer, log: &mut String) -> (Vec<Metric>, bool) {
    let sched = schedule(seed);
    let srv = build_server();
    let index = ShardedFrameIndex::build(srv.db(), srv.config().shards);
    let keys = what_if_keys(&LoadMix::default());
    let bodies: HashMap<Vec<u8>, Vec<u8>> = keys
        .iter()
        .map(|k| (whatif_target(k), render_whatif_body(srv.analyzer(), k)))
        .collect();
    // The response each request gets, resolved outside the timed units.
    let plan: Vec<Reply> = sched
        .arrivals
        .iter()
        .map(|(_, b)| {
            if let Some(body) = bodies.get(b) {
                return Reply::Json(body);
            }
            let ts = parse_request(b)
                .ok()
                .filter(|r| r.path == "/frame")
                .and_then(|r| r.param("timestep").and_then(|v| v.parse().ok()));
            match ts {
                Some(ts) => index
                    .lookup(srv.db(), ts)
                    .map_or(Reply::Missing(ts), |e| Reply::Png(ts, &e.data)),
                None => Reply::Bad,
            }
        })
        .collect();
    let frame_steps: Vec<u64> = plan
        .iter()
        .filter_map(|p| match p {
            Reply::Png(ts, _) | Reply::Missing(ts) => Some(*ts),
            _ => None,
        })
        .collect();
    let mut ok = true;
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let (mut parse, mut answer, mut lookup, mut respond, mut dispatch) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut report: Option<LoadReport> = None;
    let start = Instant::now();
    while traced_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let r = replay(&srv, &sched);
        untraced_s.push(t0.elapsed().as_secs_f64());
        let root = tr.begin("serve.profile");
        let id = tr.begin("serve.replay");
        let r2 = replay(&srv, &sched);
        tr.end(id);
        traced_s.push(tr.seconds(id));
        ok &= r.stats.digest() == r2.stats.digest() && r.stats.shed() == 0;
        ok &= seed != GOLDEN_SEED || r.stats.digest() == GOLDEN_DIGEST;
        parse.push(unit_seconds(
            tr,
            "serve.parse",
            3,
            sched.len() as u64,
            || {
                for (_, b) in &sched.arrivals {
                    let _ = std::hint::black_box(parse_request(b));
                }
            },
        ));
        answer.push(unit_seconds(
            tr,
            "model.answer",
            3,
            keys.len() as u64,
            || {
                for k in &keys {
                    std::hint::black_box(render_whatif_body(srv.analyzer(), k));
                }
            },
        ));
        lookup.push(unit_seconds(
            tr,
            "serve.shard_lookup",
            3,
            frame_steps.len() as u64,
            || {
                for &ts in &frame_steps {
                    std::hint::black_box(index.lookup(srv.db(), ts));
                }
            },
        ));
        respond.push(unit_seconds(
            tr,
            "serve.respond",
            3,
            plan.len() as u64,
            || {
                for p in &plan {
                    std::hint::black_box(p.to_bytes());
                }
            },
        ));
        const CHAIN: u64 = 200_000;
        dispatch.push(unit_seconds(tr, "sim.dispatch", 3, CHAIN, || {
            ok &= dispatch_chain(CHAIN) == CHAIN;
        }));
        tr.end(root);
        report = Some(r);
    }
    let r = report.expect("at least one replay");
    let s = &r.stats;
    let wall = median(&untraced_s);
    // Reactor events: one arrival per request, one completion per single
    // request or batch, and at most one deadline per batch.
    let singles = r.frame.count + r.other.count;
    let events = s.requests + singles + 2 * s.batches;
    let parts = [
        ("serve.parse", median(&parse), s.requests),
        ("model.answer", median(&answer), s.cache_misses),
        ("serve.shard_lookup", median(&lookup), r.frame.count),
        ("serve.respond", median(&respond), s.requests - s.shed()),
        ("sim.dispatch", median(&dispatch), events),
    ];
    let attributed: f64 = parts.iter().map(|(_, u, n)| u * *n as f64).sum();
    log.push_str("# serve_10k (unit cost x count per replay)\n");
    for (name, unit, n) in parts {
        log.push_str(&format!(
            "{name:<28} {:>10.3} us x {n:>8} = {:>9.3} ms ({:.2}%)\n",
            unit * 1e6,
            unit * n as f64 * 1e3,
            100.0 * unit * n as f64 / wall
        ));
    }
    log.push_str(&format!(
        "{:<28} {:>35.3} ms ({:.2}%)\n",
        "unattributed",
        (wall - attributed) * 1e3,
        100.0 * (wall - attributed) / wall
    ));
    let share = |u: f64, n: u64| u * n as f64 / wall;
    let hits = s.cache_hits as f64;
    let metrics = vec![
        metric("serve.parse_us", parts[0].1 * 1e6, "us"),
        metric("serve.parse_share", share(parts[0].1, parts[0].2), "ratio"),
        metric("model.answer_us", parts[1].1 * 1e6, "us"),
        metric("model.answer_share", share(parts[1].1, parts[1].2), "ratio"),
        metric("serve.shard_lookup_us", parts[2].1 * 1e6, "us"),
        metric(
            "serve.shard_lookup_share",
            share(parts[2].1, parts[2].2),
            "ratio",
        ),
        metric("serve.respond_us", parts[3].1 * 1e6, "us"),
        metric(
            "serve.respond_share",
            share(parts[3].1, parts[3].2),
            "ratio",
        ),
        metric("sim.dispatch_ns", parts[4].1 * 1e9, "ns"),
        metric("sim.dispatch_share", share(parts[4].1, parts[4].2), "ratio"),
        metric("serve.events", events as f64, "count"),
        metric(
            "serve.response_mb",
            plan.iter().map(|p| p.to_bytes().len()).sum::<usize>() as f64 / 1e6,
            "MB",
        ),
        metric(
            "serve.memo_hit_ratio",
            hits / (hits + s.cache_misses as f64),
            "ratio",
        ),
        metric("serve.batches", s.batches as f64, "count"),
        metric(
            "serve.dedup_ratio",
            s.batch_dedups as f64 / r.whatif.count as f64,
            "ratio",
        ),
        metric("serve.unattributed_share", 1.0 - attributed / wall, "ratio"),
        metric(
            "bench.trace_overhead",
            median(&traced_s) / median(&untraced_s),
            "ratio",
        ),
    ];
    (metrics, ok)
}
