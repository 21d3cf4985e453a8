//! The replay phase of a traced run: after the measured windows, call each
//! layer's public functions on the workload's own inputs and time them one
//! by one.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use platter_imaging::Image;
use platter_obs::ProfileReport;
use platter_serve::{ModelRegistry, ServePool};
use platter_tensor::Tensor;
use platter_yolo::{
    decode_detections, merge_tta, nms, CompiledModel, Detection, SortTracker, TrackConfig,
    TtaConfig, Yolov4,
};

use crate::common::{
    mean, median, model_config, model_input, ms, registry_err, stack, CONF_THRESH, NMS_IOU,
    NMS_KIND,
};
use crate::report::Metrics;
use crate::trace::Tracer;

/// Plan op kinds reported as `tensor.op_{ms,share,mb}.<kind>`; a kind the
/// workload's model does not run reads 0.
pub const OP_KINDS: [&str; 11] = [
    "conv2d_mish",
    "conv2d_leaky",
    "conv2d_linear",
    "qconv2d_mish",
    "qconv2d_leaky",
    "qconv2d_linear",
    "quantize",
    "maxpool",
    "upsample",
    "concat",
    "add",
];

fn op_kind(label: &str) -> Option<&'static str> {
    Some(match label {
        "conv2d[Mish]" => "conv2d_mish",
        "conv2d[Leaky]" => "conv2d_leaky",
        "conv2d[Linear]" => "conv2d_linear",
        "qconv2d[Mish]" => "qconv2d_mish",
        "qconv2d[Leaky]" => "qconv2d_leaky",
        "qconv2d[Linear]" => "qconv2d_linear",
        "quantize" => "quantize",
        "add" => "add",
        l if l.starts_with("maxpool") => "maxpool",
        l if l.starts_with("upsample") => "upsample",
        l if l.starts_with("concat") => "concat",
        _ => return None,
    })
}

pub struct ReplayInput<'a> {
    /// The workload's checkpoint, as an eager model and as a file.
    pub model: &'a Yolov4,
    pub weights: &'a Path,
    /// Calibration batches of the INT8 build.
    pub calibration: &'a [Tensor],
    /// The workload's distinct source images.
    pub images: &'a [Image],
    /// Whether the workload serves the INT8 build.
    pub live_i8: bool,
    /// Batch size of the per-op profile: the size the workload mostly runs.
    pub profile_batch: usize,
    /// `(batch size, batches)` the pool executed in the traced window.
    pub served: &'a [(usize, u64)],
    /// Each session's answered detections, in frame order, to replay the
    /// tracker over; empty (the metrics read 0) on workloads without
    /// sessions.
    pub track_frames: &'a [Vec<Vec<Detection>>],
    /// The workload's pool and registry, idle now, for the swap replay.
    pub pool: &'a ServePool,
    pub registry: &'a ModelRegistry,
    pub tracer: Option<&'a Tracer>,
}

/// Run `f`, recording it as a replay span.
fn phase<T>(r: &ReplayInput, parent: Option<u64>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    if let Some(tr) = r.tracer {
        tr.span(name, parent, None, t0, Instant::now());
    }
    out
}

/// Median ms of `reps` forwards cycling through `batches`, after one
/// untimed forward that sizes the arena.
fn forward_ms(engine: &mut CompiledModel, batches: &[Tensor], reps: usize) -> Result<f64, String> {
    engine
        .try_run(&batches[0])
        .map_err(|e| format!("replay forward: {e}"))?;
    let mut times = Vec::with_capacity(reps);
    for i in 0..reps {
        let x = &batches[i % batches.len()];
        let t0 = Instant::now();
        let out = engine
            .try_run(x)
            .map_err(|e| format!("replay forward: {e}"))?;
        black_box(out);
        times.push(ms(t0.elapsed()));
    }
    Ok(median(&times))
}

pub fn replay(r: &ReplayInput) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let cfg = model_config();
    let size = cfg.input_size;
    let root = r.tracer.map(|t| t.id());
    let t_root = Instant::now();

    // imaging: letterbox + CHW on every distinct input, three passes.
    let lb_ms = phase(r, root, "replay.letterbox", || {
        let mut times = Vec::with_capacity(r.images.len() * 3);
        for _ in 0..3 {
            for img in r.images {
                let t0 = Instant::now();
                black_box(model_input(img, size));
                times.push(ms(t0.elapsed()));
            }
        }
        median(&times)
    });
    m.add(
        "imaging.letterbox_ms",
        lb_ms,
        "ms",
        format!("{}x{} -> {size}", r.images[0].width(), r.images[0].height()),
    );

    let inputs: Vec<Tensor> = r.images.iter().map(|img| model_input(img, size)).collect();
    let batch_of = |start: usize, n: usize| {
        let items: Vec<&Tensor> = (0..n)
            .map(|k| &inputs[(start + k) % inputs.len()])
            .collect();
        stack(&items)
    };
    let b1: Vec<Tensor> = (0..inputs.len()).map(|i| batch_of(i, 1)).collect();
    let b8: Vec<Tensor> = (0..4).map(|i| batch_of(i * 8, 8)).collect();

    // yolo forward on both builds of the checkpoint.
    let mut f32_engine = r.model.compile_inference();
    let mut i8_engine = r
        .model
        .compile_inference_quantized(r.calibration)
        .map_err(|e| format!("replay INT8 build: {e}"))?;
    phase(r, root, "replay.forward", || -> Result<(), String> {
        m.add(
            "yolo.forward_ms.f32_b1",
            forward_ms(&mut f32_engine, &b1, 24)?,
            "ms",
            "median of 24",
        );
        m.add(
            "yolo.forward_ms.f32_b8",
            forward_ms(&mut f32_engine, &b8, 8)?,
            "ms",
            "median of 8",
        );
        m.add(
            "yolo.forward_ms.i8_b1",
            forward_ms(&mut i8_engine, &b1, 24)?,
            "ms",
            "median of 24",
        );
        m.add(
            "yolo.forward_ms.i8_b8",
            forward_ms(&mut i8_engine, &b8, 8)?,
            "ms",
            "median of 8",
        );
        Ok(())
    })?;
    let live = if r.live_i8 {
        &mut i8_engine
    } else {
        &mut f32_engine
    };

    // Forward at the batch sizes the pool ran, weighted by how often.
    let served = phase(
        r,
        root,
        "replay.forward_served",
        || -> Result<f64, String> {
            let (mut total, mut batches) = (0.0, 0u64);
            for &(n, count) in r.served {
                let xs: Vec<Tensor> = (0..3).map(|i| batch_of(i * n, n)).collect();
                total += forward_ms(live, &xs, 3)? * count as f64;
                batches += count;
            }
            Ok(if batches == 0 {
                0.0
            } else {
                total / batches as f64
            })
        },
    )?;
    let mix: Vec<String> = r.served.iter().map(|(n, c)| format!("{c}x{n}")).collect();
    m.add(
        "yolo.forward_ms.served_batch",
        served,
        "ms",
        format!("mix {}", mix.join(" ")),
    );

    // decode / NMS on the live build's batch-1 heads of every input.
    phase(r, root, "replay.decode_nms", || -> Result<(), String> {
        let (mut dec, mut sup, mut cands, mut kept) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for x in &b1 {
            let heads = live
                .try_run(x)
                .map_err(|e| format!("replay forward: {e}"))?
                .to_vec();
            let t0 = Instant::now();
            let mut per_image = decode_detections(&heads, &cfg, CONF_THRESH);
            dec.push(ms(t0.elapsed()));
            let c = per_image.pop().unwrap_or_default();
            cands.push(c.len() as f64);
            let t0 = Instant::now();
            let d = nms(c, NMS_IOU, NMS_KIND);
            sup.push(ms(t0.elapsed()));
            kept.push(d.len() as f64);
        }
        let n = format!("n={}", b1.len());
        m.add("yolo.decode_ms", median(&dec), "ms", n.clone());
        m.add("yolo.nms_ms", median(&sup), "ms", n.clone());
        m.add(
            "yolo.candidates_per_image",
            mean(&cands),
            "boxes",
            n.clone(),
        );
        m.add("yolo.dets_per_image", mean(&kept), "boxes", n);
        Ok(())
    })?;

    // TTA: auxiliary view transforms of an 8-image batch, and the per-image
    // merge of the views' detections.
    phase(r, root, "replay.tta", || -> Result<(), String> {
        let tta = TtaConfig::standard();
        let views = tta.views();
        let x = &b8[0];
        let mut transform = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            for v in views.iter().filter(|v| !v.is_identity()) {
                black_box(v.transform_batch(x));
            }
            transform.push(ms(t0.elapsed()));
        }
        let mut sets: Vec<Vec<Vec<Detection>>> = vec![Vec::new(); 8];
        for v in &views {
            let input = if v.is_identity() {
                x.clone()
            } else {
                v.transform_batch(x)
            };
            let heads = live
                .try_run(&input)
                .map_err(|e| format!("replay forward: {e}"))?
                .to_vec();
            for (i, cand) in decode_detections(&heads, &cfg, CONF_THRESH)
                .into_iter()
                .enumerate()
            {
                let back = cand
                    .into_iter()
                    .map(|d| {
                        if v.is_identity() {
                            d
                        } else {
                            Detection {
                                score: d.score * tta.aux_weight(),
                                bbox: v.untransform_box(&d.bbox),
                                ..d
                            }
                        }
                    })
                    .collect();
                sets[i].push(back);
            }
        }
        let mut merge = Vec::new();
        for _ in 0..3 {
            for s in &sets {
                let s = s.clone();
                let t0 = Instant::now();
                black_box(merge_tta(s, NMS_IOU, NMS_KIND));
                merge.push(ms(t0.elapsed()));
            }
        }
        m.add(
            "yolo.tta_transform_ms",
            median(&transform),
            "ms",
            "aux views of one 8-image batch",
        );
        m.add("yolo.tta_merge_ms", median(&merge), "ms", "per image");
        Ok(())
    })?;

    // Tracker over each session's answered detections.
    phase(r, root, "replay.track", || -> Result<(), String> {
        let (mut step, mut tracks) = (Vec::new(), Vec::new());
        for seq in r.track_frames {
            let mut tracker =
                SortTracker::new(TrackConfig::default()).map_err(|e| format!("tracker: {e}"))?;
            for dets in seq {
                let t0 = Instant::now();
                let out = tracker.step(dets);
                step.push(ms(t0.elapsed()));
                tracks.push(out.len() as f64);
            }
        }
        let n = format!("n={}", step.len());
        m.add("yolo.track_step_ms", median(&step), "ms", n.clone());
        m.add("yolo.tracks_per_frame", mean(&tracks), "tracks", n);
        Ok(())
    })?;

    // Per-op profile of the live build at the workload's usual batch size.
    phase(r, root, "replay.profile", || -> Result<(), String> {
        let xs: Vec<Tensor> = (0..4)
            .map(|i| batch_of(i * r.profile_batch, r.profile_batch))
            .collect();
        live.try_run(&xs[0])
            .map_err(|e| format!("replay forward: {e}"))?;
        let mut report = ProfileReport::new();
        for i in 0..12 {
            black_box(live.run_profiled(&xs[i % xs.len()], &mut report));
        }
        let runs = report.runs().max(1) as f64;
        let total_ns = report.total_nanos().max(1) as f64;
        let mut per_kind = [(0u64, 0u64); OP_KINDS.len()];
        for (label, stat, _) in report.top_k(usize::MAX) {
            if let Some(k) = op_kind(&label) {
                let i = OP_KINDS.iter().position(|&n| n == k).expect("kind listed");
                per_kind[i].0 += stat.nanos;
                per_kind[i].1 += stat.bytes;
            }
        }
        let note = format!("batch {}", r.profile_batch);
        for (k, (nanos, bytes)) in OP_KINDS.iter().zip(per_kind) {
            m.add(
                format!("tensor.op_ms.{k}"),
                nanos as f64 / 1e6 / runs,
                "ms",
                note.clone(),
            );
            m.add(
                format!("tensor.op_share.{k}"),
                nanos as f64 / total_ns,
                "ratio",
                note.clone(),
            );
            m.add(
                format!("tensor.op_mb.{k}"),
                bytes as f64 / 1e6 / runs,
                "MB",
                "computed from tensor sizes",
            );
        }
        m.add(
            "tensor.profile_coverage",
            report.op_time_share(),
            "ratio",
            "op time / forward time",
        );
        Ok(())
    })?;
    // The live build has now run at batch 8, the largest a worker runs.
    m.add(
        "tensor.arena_bytes",
        live.arena_bytes() as f64,
        "bytes",
        "one engine after batch 8",
    );

    // Registry: load + compile + smoke of both builds, then hot swaps on
    // the workload's idle pool.
    phase(r, root, "replay.registry", || -> Result<(), String> {
        let reg = ModelRegistry::default();
        let (mut f32_ms, mut i8_ms, mut swap_ms) = (Vec::new(), Vec::new(), Vec::new());
        for v in 0..3 {
            let t0 = Instant::now();
            reg.load_file("replay", v, cfg.clone(), r.weights)
                .map_err(registry_err("replay load"))?;
            f32_ms.push(ms(t0.elapsed()));
            let t0 = Instant::now();
            reg.load_file_quantized("replay", 10 + v, cfg.clone(), r.weights, r.calibration)
                .map_err(registry_err("replay INT8 load"))?;
            i8_ms.push(ms(t0.elapsed()));
        }
        for v in 0..3 {
            let key = r
                .registry
                .load_file("replay", v, cfg.clone(), r.weights)
                .map_err(registry_err("replay swap candidate"))?;
            let t0 = Instant::now();
            r.registry
                .hot_swap(r.pool, &key)
                .map_err(registry_err("replay hot swap"))?;
            swap_ms.push(ms(t0.elapsed()));
        }
        m.add("registry.load_ms.f32", median(&f32_ms), "ms", "median of 3");
        m.add("registry.load_ms.i8", median(&i8_ms), "ms", "median of 3");
        m.add(
            "registry.swap_ms",
            median(&swap_ms),
            "ms",
            "median of 3, idle pool",
        );
        Ok(())
    })?;
    if let (Some(tr), Some(id)) = (r.tracer, root) {
        tr.span_with_id(id, "replay", None, None, t_root, Instant::now());
    }
    Ok(m)
}
