//! Settings every workload shares, seeded input generation, and the
//! bit-exact reference checks.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use platter_dataset::{ClassSet, DatasetSpec, SyntheticDataset};
use platter_imaging::augment::unletterbox_box;
use platter_imaging::Image;
use platter_serve::{ModelRegistry, ServeConfig, ServeError};
use platter_tensor::Tensor;
use platter_yolo::{decode_detections, nms, CompiledModel, Detection, NmsKind, YoloConfig, Yolov4};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Tracer;

/// Weights are a fixed seeded initialisation, not a function of `--seed`:
/// the model is part of the system under test, the seed only picks inputs.
pub const MODEL_SEED: u64 = 42;
const CALIBRATION_SEED: u64 = 0xCA1B;
/// IndianFood10.
pub const NUM_CLASSES: usize = 10;
/// Every pool shares this confidence threshold. At the default 0.25 the
/// seeded (untrained) weights keep ~210 of 252 candidates per 64-px image;
/// at this value they keep a handful per photo, close to the paper's 2.33
/// dishes per platter.
pub const CONF_THRESH: f32 = 0.38;
/// NMS settings of `ServeConfig::new`, repeated for the direct reference.
pub const NMS_IOU: f32 = 0.45;
pub const NMS_KIND: NmsKind = NmsKind::Diou;
/// Complete set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

pub fn model_config() -> YoloConfig {
    YoloConfig::micro(NUM_CLASSES)
}

/// The pool configuration every workload starts from: defaults of
/// `ServeConfig::new` except the fixed confidence threshold.
pub fn serve_config(
    workers: usize,
    queue_capacity: usize,
    deadline: Option<Duration>,
) -> ServeConfig {
    ServeConfig {
        queue_capacity,
        default_deadline: deadline,
        conf_thresh: CONF_THRESH,
        ..ServeConfig::new(workers)
    }
}

/// Deterministic 64-bit mix of `(seed, salt, i)`; per-request choices come
/// from it, so request `i` is the same however many requests a run sends.
pub fn mix(seed: u64, salt: u64, i: u64) -> u64 {
    let mut z = seed ^ salt.rotate_left(17) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Request `i`'s place, `0..block`, in a seeded order of its block of
/// `block` consecutive requests. Giving places `0..k` one treatment gives
/// it to exactly `k` requests per block, at seeded places.
pub fn place(seed: u64, salt: u64, i: u64, block: u64) -> u64 {
    let key = |j: u64| (mix(seed, salt, j), j);
    let start = i / block * block;
    (start..start + block).filter(|&j| key(j) < key(i)).count() as u64
}

/// `n` platter photos rendered at `size` px with the paper's single/multi
/// dish mix (IndianFood10 classes).
pub fn render_photos(seed: u64, n: usize, size: usize) -> Vec<Image> {
    let ds =
        SyntheticDataset::generate(DatasetSpec::micro(ClassSet::indianfood10(), n, size, seed));
    (0..n).map(|i| ds.render(i).0).collect()
}

/// Calibration batches of the INT8 build, from a fixed seed so the
/// quantized model is the same whatever `--seed` picks: eight photos, plus
/// uniform noise of the kind the registry's parity smoke feeds, so the
/// recorded activation ranges cover the smoke batch too.
pub fn calibration_set() -> Vec<Tensor> {
    let size = model_config().input_size;
    let inputs: Vec<Tensor> = render_photos(CALIBRATION_SEED, 8, 256)
        .iter()
        .map(|p| model_input(p, size))
        .collect();
    let mut rng = StdRng::seed_from_u64(CALIBRATION_SEED);
    vec![
        stack(&inputs.iter().collect::<Vec<_>>()),
        Tensor::rand_uniform(&[2, 3, size, size], 0.0, 1.0, &mut rng),
    ]
}

/// Letterboxed `[3, s, s]` model input for `image`, as the pool builds it.
pub fn model_input(image: &Image, size: usize) -> Tensor {
    Tensor::from_vec(image.letterbox(size).image.to_chw(), &[3, size, size])
}

/// Stack `[3, s, s]` items into one `[n, 3, s, s]` batch.
pub fn stack(items: &[&Tensor]) -> Tensor {
    let shape = items[0].shape().to_vec();
    let mut data = Vec::with_capacity(items.len() * items[0].numel());
    for t in items {
        data.extend_from_slice(t.as_slice());
    }
    Tensor::from_vec(data, &[items.len(), shape[0], shape[1], shape[2]])
}

/// Directory for weight files, inside the working directory and
/// removed on drop.
pub struct WorkDir {
    dir: PathBuf,
}

impl WorkDir {
    pub fn new() -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir { dir })
    }

    /// Write the seeded model's checkpoint and return its path.
    pub fn write_weights(&self) -> Result<PathBuf, String> {
        let path = self.dir.join("model.pltw");
        let bytes = Yolov4::new(model_config(), MODEL_SEED).save();
        std::fs::write(&path, &bytes[..])
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Removes `.bench_tmp` too once no other run is using it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Load the checkpoint into an eager model: the first step of bringing a
/// pool up.
pub fn load_model(weights: &Path) -> Result<Yolov4, String> {
    let buf =
        std::fs::read(weights).map_err(|e| format!("cannot read {}: {e}", weights.display()))?;
    Yolov4::from_weights(model_config(), &buf).map_err(|e| format!("checkpoint rejected: {e}"))
}

/// Set the system up `SETUPS` times with `setup`, dropping each before the
/// next, and return the last one with every set-up's seconds. `setup` gets
/// the id of its `setup` span, for its step spans.
pub fn set_up<S>(
    tracer: Option<&Tracer>,
    mut setup: impl FnMut(Option<u64>) -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let root = tracer.map(|t| t.id());
        let t0 = Instant::now();
        kept = Some(setup(root)?);
        let t1 = Instant::now();
        if let (Some(tr), Some(id)) = (tracer, root) {
            tr.span_with_id(id, "setup", None, None, t0, t1);
        }
        secs.push((t1 - t0).as_secs_f64());
    }
    Ok((kept.expect("SETUPS is at least 1"), secs))
}

/// Run `f` under a span named `name` when tracing.
pub fn timed<T>(
    tracer: Option<&Tracer>,
    parent: Option<u64>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = Instant::now();
    let out = f();
    if let Some(tr) = tracer {
        tr.span(name, parent, None, t0, Instant::now());
    }
    out
}

pub fn registry_err(what: &str) -> impl Fn(platter_serve::RegistryError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

pub fn serve_err(what: &str) -> impl Fn(ServeError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Registry with the pool's constructed model adopted, so swaps can track
/// it through draining.
pub fn adopted_registry(pool: &platter_serve::ServePool) -> Result<ModelRegistry, String> {
    let registry = ModelRegistry::default();
    registry
        .adopt_live(pool)
        .map_err(registry_err("adopt live model"))?;
    Ok(registry)
}

/// Bit-exact detection identity, in order.
pub fn same_dets(a: &[Detection], b: &[Detection]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.class == y.class
                && x.score.to_bits() == y.score.to_bits()
                && x.bbox.cx.to_bits() == y.bbox.cx.to_bits()
                && x.bbox.cy.to_bits() == y.bbox.cy.to_bits()
                && x.bbox.w.to_bits() == y.bbox.w.to_bits()
                && x.bbox.h.to_bits() == y.bbox.h.to_bits()
        })
}

/// The answer for `image` computed without the pool: letterbox, one
/// batch-1 forward, decode, NMS, then the pool's mapping back to source
/// coordinates.
pub fn direct_answer(
    engine: &mut CompiledModel,
    cfg: &YoloConfig,
    image: &Image,
) -> Result<Vec<Detection>, String> {
    let size = cfg.input_size;
    let lb = image.letterbox(size);
    let x = Tensor::from_vec(lb.image.to_chw(), &[1, 3, size, size]);
    let heads = engine
        .try_run(&x)
        .map_err(|e| format!("direct forward: {e}"))?;
    let candidates = decode_detections(heads, cfg, CONF_THRESH)
        .pop()
        .unwrap_or_default();
    Ok(nms(candidates, NMS_IOU, NMS_KIND)
        .into_iter()
        .filter_map(|d| {
            let b = unletterbox_box(
                &d.bbox,
                size,
                lb.scale,
                lb.pad_x,
                lb.pad_y,
                image.width(),
                image.height(),
            );
            b.clipped().map(|bbox| Detection { bbox, ..d })
        })
        .collect())
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    if s.is_empty() {
        return 0.0;
    }
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
