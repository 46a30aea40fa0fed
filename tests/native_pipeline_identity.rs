//! The pipelined native backend is a pure performance transform: every
//! output it produces — PNG bytes, the Cinema index JSON, eddy tracks and
//! census, and the recorded trace — must be **bit-identical** to the
//! retained sequential path, at every thread count. Wall-clock timestamps
//! are the one thing that can never agree between two real executions (a
//! sequential run does not even agree with itself), so trace comparison
//! normalizes the microsecond fields and demands byte-identity of
//! everything else: record order, span tree, names, phases, attrs, and
//! sample values.
//!
//! Also here: a proptest round-tripping random `ImageBuffer`s through the
//! new single-pass streaming encoder and the stored-block parser.

mod common;

use common::normalize_trace;
use ivis_core::native::{
    run_native_insitu_sequential_with, run_native_insitu_with, NativeConfig, NativeReport,
};
use ivis_obs::{to_jsonl, Recorder};
use ivis_viz::color::Rgb;
use ivis_viz::png::{encode_png_reference, parse_png_chunks, unzlib_stored, PngEncoder};
use ivis_viz::raster::ImageBuffer;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn run_traced(
    run: fn(&NativeConfig, &Recorder) -> NativeReport,
    cfg: &NativeConfig,
) -> (NativeReport, String) {
    let rec = Recorder::in_memory();
    let report = run(cfg, &rec);
    let trace = rec.with_buffer(to_jsonl).unwrap();
    (report, trace)
}

#[test]
fn pipelined_outputs_are_bit_identical_to_sequential_at_all_thread_counts() {
    let cfg = NativeConfig::tiny();
    let (golden, golden_trace) = run_traced(run_native_insitu_sequential_with, &cfg);
    let golden_trace = normalize_trace(&golden_trace);
    assert!(
        golden_trace.contains("\"start_us\":0"),
        "normalizer broken?"
    );
    for n in THREAD_COUNTS {
        rayon::set_num_threads(n);
        let (pipelined, trace) = run_traced(run_native_insitu_with, &cfg);
        assert_eq!(pipelined.frames, golden.frames, "{n} threads");
        // PNG bytes, frame for frame.
        assert_eq!(pipelined.cinema.len(), golden.cinema.len());
        for (ep, eg) in pipelined
            .cinema
            .entries()
            .iter()
            .zip(golden.cinema.entries())
        {
            assert_eq!(ep.filename, eg.filename, "{n} threads");
            assert_eq!(
                ep.data, eg.data,
                "PNG bytes differ at frame {} with {n} threads",
                eg.timestep
            );
        }
        // Cinema index JSON.
        assert_eq!(
            pipelined.cinema.index_json(),
            golden.cinema.index_json(),
            "{n} threads"
        );
        assert_eq!(pipelined.image_bytes, golden.image_bytes, "{n} threads");
        // Eddy tracks and final census.
        assert_eq!(pipelined.tracks, golden.tracks, "{n} threads");
        assert_eq!(pipelined.final_census, golden.final_census, "{n} threads");
        // Trace structure (everything but wall-clock microseconds).
        assert_eq!(
            normalize_trace(&trace),
            golden_trace,
            "trace structure differs at {n} threads"
        );
    }
    rayon::set_num_threads(0);
}

#[test]
fn normalize_trace_zeroes_only_time_fields() {
    let line = "{\"type\":\"span\",\"id\":3,\"start_us\":12345,\"end_us\":67890,\
                \"attrs\":{\"frame\":7}}\n\
                {\"type\":\"event\",\"t_us\":42,\"attrs\":{\"eddies\":5}}\n\
                {\"type\":\"metric\",\"samples\":[[999,1],[1000,2.5]]}";
    let want = "{\"type\":\"span\",\"id\":3,\"start_us\":0,\"end_us\":0,\
                \"attrs\":{\"frame\":7}}\n\
                {\"type\":\"event\",\"t_us\":0,\"attrs\":{\"eddies\":5}}\n\
                {\"type\":\"metric\",\"samples\":[[0,1],[0,2.5]]}";
    assert_eq!(normalize_trace(line), want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random images round-trip exactly through the streaming encoder and
    /// the stored-block parser, and the streamed bytes equal the retained
    /// reference encoder's.
    #[test]
    fn random_images_roundtrip_through_streaming_encoder(
        w in 1usize..40,
        h in 1usize..24,
        seed in 0u64..u64::MAX,
    ) {
        // Deterministic pseudo-random pixels from the seed (SplitMix64).
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut img = ImageBuffer::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let r = next();
                img.set(x, y, Rgb::new(r as u8, (r >> 8) as u8, (r >> 16) as u8));
            }
        }
        let mut enc = PngEncoder::new();
        let mut png = Vec::new();
        enc.encode_into(&img, &mut png);
        prop_assert_eq!(&png, &encode_png_reference(&img));
        let chunks = parse_png_chunks(&png).expect("signature, CRCs and IEND check out");
        prop_assert_eq!(chunks.len(), 3);
        let raw = unzlib_stored(&chunks[1].1).expect("framing and Adler check out");
        prop_assert_eq!(raw.len(), h * (1 + 3 * w));
        for y in 0..h {
            let row = &raw[y * (1 + 3 * w)..(y + 1) * (1 + 3 * w)];
            prop_assert_eq!(row[0], 0, "filter byte");
            for x in 0..w {
                let p = img.pixels()[y * w + x];
                prop_assert_eq!(&row[1 + 3 * x..4 + 3 * x], &[p.r, p.g, p.b]);
            }
        }
    }
}
