//! The native frame chain: `insitu_frames` and `postproc_frames`.
//!
//! Timed calls run the program's own executors
//! (`run_native_insitu_depth`, `try_run_native_postproc`). The traced
//! run drives the same chain step by step through the crates' public
//! functions, with a span around each call, so each stage gets its own
//! self time.

use std::time::Instant;

use ivis_core::native::{
    run_native_insitu_depth, run_native_insitu_sequential, try_run_native_postproc, NativeConfig,
    NativeReport,
};
use ivis_core::{CatalystAdaptor, VizSnapshot};
use ivis_eddy::features::extract_features;
use ivis_eddy::segment::segment_eddies;
use ivis_eddy::tracking::EddyTracker;
use ivis_ocean::shallow_water::{ShallowWaterModel, SwParams};
use ivis_ocean::vortex::seed_random_eddies;
use ivis_ocean::{Field2D, Grid};
use ivis_storage::ncdf::VarData;
use ivis_storage::NcFile;
use ivis_viz::cinema::CinemaEntry;
use ivis_viz::png::{encoded_png_size, PngEncoder};
use ivis_viz::raster::SampleTables;
use ivis_viz::{CinemaDatabase, FieldRenderer, ImageBuffer};

use crate::harness::{fastest, median, metric, timed_calls, Metric, SetupTimer, Tally};
use crate::trace::{StageTime, Tracer};
use crate::{Outcome, Shape};

/// The frame workloads' configuration: a 96×64 ocean rendered to 720×512
/// images every 16 steps, 8 frames per call, no annotation.
pub fn config(seed: u64) -> NativeConfig {
    NativeConfig {
        nx: 96,
        ny: 64,
        cell_m: 60_000.0,
        steps: 128,
        output_every: 16,
        num_eddies: 6,
        seed,
        image_width: 720,
        image_height: 512,
        annotate: false,
    }
}

/// Frames whose PNG bytes or timestep differ from the reference, counting
/// missing and extra frames too.
fn mismatched(got: &[CinemaEntry], want: &[CinemaEntry]) -> u64 {
    let differing = got
        .iter()
        .zip(want)
        .filter(|(g, w)| g.timestep != w.timestep || g.data != w.data)
        .count();
    (differing + got.len().abs_diff(want.len())) as u64
}

fn build_model(cfg: &NativeConfig) -> ShallowWaterModel {
    let grid = Grid::channel(cfg.nx, cfg.ny, cfg.cell_m);
    let params = SwParams::eddy_channel(&grid);
    let mut model = ShallowWaterModel::new(grid, params);
    seed_random_eddies(&mut model, cfg.num_eddies, cfg.seed);
    model
}

fn tracker_for(grid: &Grid) -> EddyTracker {
    let (lx, _) = grid.extent();
    EddyTracker::new(6.0 * grid.dx, 2, lx)
}

/// What every call starts from: the seeded ocean, the renderer, the
/// frame scratch and an empty Cinema database.
struct Start {
    model: ShallowWaterModel,
    renderer: FieldRenderer,
    tables: SampleTables,
    img: ImageBuffer,
    enc: PngEncoder,
    cinema: CinemaDatabase,
}

fn build_start(cfg: &NativeConfig) -> Start {
    let model = build_model(cfg);
    let renderer = FieldRenderer::okubo_weiss(cfg.image_width, cfg.image_height);
    let tables = SampleTables::new(
        &Field2D::zeros(cfg.nx, cfg.ny),
        cfg.image_width,
        cfg.image_height,
    );
    Start {
        model,
        renderer,
        tables,
        img: ImageBuffer::new(cfg.image_width, cfg.image_height),
        enc: PngEncoder::new(),
        cinema: CinemaDatabase::new("frames"),
    }
}

/// The timed run of either frame workload.
pub fn run(postproc: bool, seed: u64, seconds: f64, shape: &Shape) -> Outcome {
    let cfg = config(seed);
    // The in-situ/post-processing fidelity contract: every call's PNG
    // bytes equal the strictly sequential in-situ loop's.
    let reference = run_native_insitu_sequential(&cfg).cinema;
    let (mut setup, _) = SetupTimer::new(|| build_start(&cfg));
    let frames = reference.len() as u64;
    let mut tally = Tally::default();
    let mut correct = frames > 0;
    let secs = timed_calls(
        seconds,
        5,
        || {
            if postproc {
                try_run_native_postproc(&cfg)
            } else {
                Ok(run_native_insitu_depth(&cfg, shape.depth))
            }
        },
        |out| {
            match out {
                Ok(report) => {
                    let bad = mismatched(report.cinema.entries(), reference.entries());
                    correct &= bad == 0;
                    tally.add(frames, bad.min(frames));
                }
                Err(e) => {
                    eprintln!("frame call failed: {e}");
                    correct = false;
                    tally.add(frames, frames);
                }
            }
            setup.sample();
        },
    );
    Outcome {
        correct,
        tally,
        ops_per_s: frames as f64 / fastest(&secs),
        setup_s: setup.setup_s(),
        calls: secs.len(),
    }
}

/// Per-frame stage self times of one traced pass, plus the pass's wall.
struct Pass {
    stages: std::collections::BTreeMap<&'static str, StageTime>,
    wall_s: f64,
    png_bytes: u64,
    raw_bytes: u64,
    eddies: u64,
    frames: u64,
}

/// Drive the in-situ chain sequentially through public calls.
fn traced_insitu(cfg: &NativeConfig, tr: &mut Tracer, reference: &CinemaDatabase) -> (Pass, bool) {
    let t0 = Instant::now();
    let root = tr.begin("frames.insitu");
    let Start {
        mut model,
        renderer,
        mut tables,
        mut img,
        mut enc,
        mut cinema,
    } = tr.span("core.start", || build_start(cfg));
    let grid = model.grid().clone();
    let mut adaptor = CatalystAdaptor::new();
    let mut tracker = tracker_for(&grid);
    let (mut png_bytes, mut eddies, mut frame) = (0u64, 0u64, 0u64);
    let mut step = 0;
    while step < cfg.steps {
        let chunk = cfg.output_every.min(cfg.steps - step);
        tr.span("ocean.solve", || model.run(chunk));
        step += chunk;
        let snap = tr.span("core.adapt", || adaptor.adapt(&model));
        let w = &snap.okubo_weiss;
        let seg = tr.span("eddy.segment", || segment_eddies(w, 0.2, 3));
        let feats = tr.span("eddy.features", || extract_features(&grid, w, &seg));
        tr.span("eddy.track", || tracker.observe(frame, &feats));
        let (lo, hi) = tr.span("viz.range", || renderer.resolve_range(w));
        tr.span("viz.tables", || tables.rebuild(w));
        tr.span("viz.shade", || {
            for (y, row) in img.pixels_mut().chunks_mut(renderer.width).enumerate() {
                tables.shade_row(y, renderer.colormap, lo, hi, row);
            }
        });
        let png = tr.span("viz.encode", || {
            let mut png =
                Vec::with_capacity(encoded_png_size(renderer.width, renderer.height) as usize);
            enc.encode_into(&img, &mut png);
            png
        });
        png_bytes += png.len() as u64;
        eddies += feats.len() as u64;
        tr.span("viz.commit", || {
            cinema.add_encoded(snap.timestep, snap.sim_hours, png)
        });
        frame += 1;
    }
    let tracks = tr.span("eddy.track", || tracker.finish());
    tr.end(root);
    let wall_s = t0.elapsed().as_secs_f64();
    let ok = mismatched(cinema.entries(), reference.entries()) == 0 && !tracks.is_empty();
    let pass = Pass {
        stages: tr.self_times(root),
        wall_s,
        png_bytes,
        raw_bytes: 0,
        eddies,
        frames: frame,
    };
    (pass, ok)
}

/// Encode a snapshot as an ncdf-lite raw file, as the post-processing
/// pipeline's stage 1 writes it.
fn encode_raw(snap: &VizSnapshot) -> Vec<u8> {
    let w = &snap.okubo_weiss;
    let mut f = NcFile::new();
    let dy = f.add_dim("y", w.ny() as u64);
    let dx = f.add_dim("x", w.nx() as u64);
    f.add_attr("timestep", snap.timestep.to_string());
    f.add_attr("sim_hours", format!("{}", snap.sim_hours));
    for (name, field) in [
        ("W", w),
        ("ssh", &snap.ssh),
        ("uc", &snap.uc),
        ("vc", &snap.vc),
    ] {
        f.add_var(name, vec![dy, dx], VarData::F64(field.data().to_vec()))
            .expect("shape is consistent");
    }
    f.encode().to_vec()
}

/// Decode a raw file back into a snapshot; `None` if it is corrupt.
fn decode_raw(bytes: &[u8]) -> Option<VizSnapshot> {
    let f = NcFile::decode(bytes).ok()?;
    let ny = f.dims.first()?.1 as usize;
    let nx = f.dims.get(1)?.1 as usize;
    let field = |name: &str| -> Option<Field2D> {
        let VarData::F64(data) = &f.var(name)?.data else {
            return None;
        };
        let mut out = Field2D::zeros(nx, ny);
        if data.len() != out.data().len() {
            return None;
        }
        out.data_mut().copy_from_slice(data);
        Some(out)
    };
    Some(VizSnapshot {
        timestep: f.attr("timestep")?.parse().ok()?,
        sim_hours: f.attr("sim_hours")?.parse().ok()?,
        ssh: field("ssh")?,
        uc: field("uc")?,
        vc: field("vc")?,
        okubo_weiss: field("W")?,
    })
}

/// Drive the post-processing chain through public calls: simulate and
/// write raw files, then read each back, segment, track and render it
/// through the serial `FieldRenderer::render` / `add_image` path.
fn traced_postproc(
    cfg: &NativeConfig,
    tr: &mut Tracer,
    reference: &CinemaDatabase,
) -> (Pass, bool) {
    let t0 = Instant::now();
    let root = tr.begin("frames.postproc");
    let Start {
        mut model,
        renderer,
        mut cinema,
        ..
    } = tr.span("core.start", || build_start(cfg));
    let grid = model.grid().clone();
    let mut adaptor = CatalystAdaptor::new();
    let mut store: Vec<Vec<u8>> = Vec::new();
    let mut step = 0;
    while step < cfg.steps {
        let chunk = cfg.output_every.min(cfg.steps - step);
        tr.span("ocean.solve", || model.run(chunk));
        step += chunk;
        let snap = tr.span("core.adapt", || adaptor.adapt(&model));
        store.push(tr.span("storage.ncdf_encode", || encode_raw(&snap)));
    }
    let mut tracker = tracker_for(&grid);
    let (mut eddies, mut ok) = (0u64, true);
    for (frame, bytes) in store.iter().enumerate() {
        let Some(snap) = tr.span("storage.ncdf_decode", || decode_raw(bytes)) else {
            ok = false;
            continue;
        };
        let w = &snap.okubo_weiss;
        let seg = tr.span("eddy.segment", || segment_eddies(w, 0.2, 3));
        let feats = tr.span("eddy.features", || extract_features(&grid, w, &seg));
        tr.span("eddy.track", || tracker.observe(frame as u64, &feats));
        let img = tr.span("viz.render", || renderer.render(w));
        tr.span("viz.add_image", || {
            cinema.add_image(snap.timestep, snap.sim_hours, &img)
        });
        eddies += feats.len() as u64;
    }
    let png_bytes = cinema.total_bytes();
    let tracks = tr.span("eddy.track", || tracker.finish());
    tr.end(root);
    let wall_s = t0.elapsed().as_secs_f64();
    ok &= mismatched(cinema.entries(), reference.entries()) == 0 && !tracks.is_empty();
    let pass = Pass {
        stages: tr.self_times(root),
        wall_s,
        png_bytes,
        raw_bytes: store.iter().map(|b| b.len() as u64).sum(),
        eddies,
        frames: store.len() as u64,
    };
    (pass, ok)
}

/// Overlap of the pipelined in-situ run: (wall_sim + wall_viz) over its
/// end-to-end wall time.
fn overlap(r: &NativeReport) -> f64 {
    (r.wall_sim + r.wall_viz).as_secs_f64() / r.wall_end_to_end.as_secs_f64()
}

/// Spans of both frame chains: span name, per-frame ms metric, share metric.
const SHARED_STAGES: [(&str, &str, &str); 5] = [
    ("ocean.solve", "ocean.solve_ms", "ocean.solve_share"),
    ("core.adapt", "core.adapt_ms", "core.adapt_share"),
    ("eddy.segment", "eddy.segment_ms", "eddy.segment_share"),
    ("eddy.features", "eddy.features_ms", "eddy.features_share"),
    ("eddy.track", "eddy.track_ms", "eddy.track_share"),
];

/// Spans only the in-situ chain has (the scratch-table render path).
const INSITU_STAGES: [(&str, &str, &str); 5] = [
    ("viz.range", "viz.range_ms", "viz.range_share"),
    ("viz.tables", "viz.tables_ms", "viz.tables_share"),
    ("viz.shade", "viz.shade_ms", "viz.shade_share"),
    ("viz.encode", "viz.encode_ms", "viz.encode_share"),
    ("viz.commit", "viz.commit_ms", "viz.commit_share"),
];

/// Spans only the post-processing chain has.
const POSTPROC_STAGES: [(&str, &str, &str); 4] = [
    ("viz.render", "viz.render_ms", "viz.render_share"),
    ("viz.add_image", "viz.add_image_ms", "viz.add_image_share"),
    (
        "storage.ncdf_encode",
        "storage.ncdf_encode_ms",
        "storage.ncdf_encode_share",
    ),
    (
        "storage.ncdf_decode",
        "storage.ncdf_decode_ms",
        "storage.ncdf_decode_share",
    ),
];

/// Median per-frame milliseconds of `stage` across passes.
fn stage_ms(passes: &[Pass], stage: &str) -> f64 {
    let per: Vec<f64> = passes
        .iter()
        .map(|p| p.stages.get(stage).map_or(0.0, |t| t.self_s) * 1e3 / p.frames as f64)
        .collect();
    median(&per)
}

/// Median share of the traced wall time spent in `stage`.
fn stage_share(passes: &[Pass], stage: &str) -> f64 {
    let per: Vec<f64> = passes
        .iter()
        .map(|p| p.stages.get(stage).map_or(0.0, |t| t.self_s) / p.wall_s)
        .collect();
    median(&per)
}

/// The traced profile of one frame workload. Alternates traced passes
/// with untraced runs of the same work until `seconds` have passed (at
/// least one of each), so the tracing overhead is measured under the same
/// conditions.
pub fn profile(
    postproc: bool,
    seed: u64,
    seconds: f64,
    shape: &Shape,
    tr: &mut Tracer,
    log: &mut String,
) -> (Vec<Metric>, bool) {
    let cfg = config(seed);
    let reference = run_native_insitu_sequential(&cfg).cinema;
    let mut ok = reference.len() as u64 == cfg.steps / cfg.output_every;
    let mut passes = Vec::new();
    let mut traced_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut overlaps = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (pass, pass_ok) = if postproc {
            traced_postproc(&cfg, tr, &reference)
        } else {
            traced_insitu(&cfg, tr, &reference)
        };
        ok &= pass_ok;
        traced_s.push(pass.wall_s);
        passes.push(pass);
        let t0 = Instant::now();
        if postproc {
            ok &= try_run_native_postproc(&cfg).is_ok();
        } else {
            ok &= run_native_insitu_sequential(&cfg).frames == cfg.steps / cfg.output_every;
        }
        untraced_s.push(t0.elapsed().as_secs_f64());
        if !postproc {
            overlaps.push(overlap(&run_native_insitu_depth(&cfg, shape.depth)));
        }
    }
    let closures: Vec<f64> = passes
        .iter()
        .map(|p| p.stages.values().map(|t| t.self_s).sum::<f64>() / p.wall_s)
        .collect();
    let closure = median(&closures);
    ok &= (0.95..=1.05).contains(&closure);
    let last = passes.last().expect("at least one pass");
    let title = if postproc {
        "postproc_frames (last traced pass)"
    } else {
        "insitu_frames (last traced pass)"
    };
    log.push_str(&crate::trace::self_time_table(title, &last.stages));
    let frames_total: u64 = passes.iter().map(|p| p.frames).sum();
    let own = if postproc {
        &POSTPROC_STAGES[..]
    } else {
        &INSITU_STAGES[..]
    };
    let mut m = Vec::new();
    for &(span, ms, share) in SHARED_STAGES.iter().chain(own) {
        m.push(metric(ms, stage_ms(&passes, span), "ms"));
        m.push(metric(share, stage_share(&passes, span), "ratio"));
    }
    let per_frame =
        |x: fn(&Pass) -> u64| passes.iter().map(x).sum::<u64>() as f64 / frames_total as f64;
    m.extend([
        metric("frame.png_bytes", per_frame(|p| p.png_bytes), "bytes"),
        metric("frame.eddies", per_frame(|p| p.eddies), "count"),
        metric("frame.closure", closure, "ratio"),
        metric(
            "bench.trace_overhead",
            median(&traced_s) / median(&untraced_s),
            "ratio",
        ),
    ]);
    if postproc {
        // Raw bytes written plus read back, per second of ncdf work.
        let ncdf_s = (stage_ms(&passes, "storage.ncdf_encode")
            + stage_ms(&passes, "storage.ncdf_decode"))
            * 1e-3;
        let raw_mb = 2.0 * per_frame(|p| p.raw_bytes) / 1e6;
        m.push(metric("storage.raw_mb_per_s", raw_mb / ncdf_s, "MB/s"));
    } else {
        let png_mb = per_frame(|p| p.png_bytes) / 1e6;
        let encode_s = stage_ms(&passes, "viz.encode") * 1e-3;
        m.push(metric("viz.encode_mb_per_s", png_mb / encode_s, "MB/s"));
        m.push(metric("native.overlap", median(&overlaps), "ratio"));
    }
    (m, ok)
}
