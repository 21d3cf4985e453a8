//! `archive_i8_tta`: a bulk re-scoring job over an archive of photos. It
//! waits for its replies, so the load is a closed loop keeping a fixed
//! window outstanding, against a two-worker pool whose live model is the
//! INT8 build, hot-swapped in. A quarter of the images ask for TTA, and
//! one in eight is pinned to a second INT8 version of the same weights.

use std::path::Path;
use std::time::Duration;

use platter_imaging::Image;
use platter_serve::{ModelRegistry, Pending, ServeError, ServePool};
use platter_tensor::Tensor;
use platter_yolo::{Detection, Yolov4};

use crate::common::*;
use crate::layers::{pool_metrics, window_metrics};
use crate::load::{closed_loop, summarize, Done, Summary};
use crate::replay::{replay, ReplayInput};
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// Source photo edge, px.
pub const PHOTO_PX: usize = 256;
/// Distinct photos per run.
pub const DISTINCT: usize = 32;
/// Pool workers.
pub const WORKERS: usize = 2;
/// Requests kept outstanding: enough to fill every worker's batch of 8
/// with the next batch queued behind it.
pub const WINDOW: usize = 32;
/// Queue capacity, above the window so nothing is shed.
pub const QUEUE: usize = 64;
/// Of each block of `BLOCK` consecutive requests, at seeded places,
/// `TTA_PER_BLOCK` ask for TTA and one is routed; the rest are plain.
pub const BLOCK: u64 = 8;
pub const TTA_PER_BLOCK: u64 = 2;
/// Latency limit of `slo_ok_ratio`, ms.
pub const LIMIT_MS: f64 = 3000.0;

const SALT_PICK: u64 = 0xA4C1;
const SALT_KIND: u64 = 0x77A0;

/// What a request asks the pool for.
#[derive(Clone, Copy)]
enum Kind {
    Plain,
    Tta,
    /// Pinned by `submit_image_to` to the second INT8 version.
    Routed,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Plain, Kind::Tta, Kind::Routed];

    fn name(self) -> &'static str {
        match self {
            Kind::Plain => "plain",
            Kind::Tta => "tta",
            Kind::Routed => "routed",
        }
    }
}

fn submit(pool: &ServePool, routed: &str, kind: Kind, img: &Image) -> Result<Pending, ServeError> {
    match kind {
        Kind::Plain => pool.submit_image(img),
        Kind::Tta => pool.submit_image_tta(img),
        Kind::Routed => pool.submit_image_to(routed, img),
    }
}

struct Stack {
    model: Yolov4,
    pool: ServePool,
    registry: ModelRegistry,
    routed: String,
}

fn setup(
    weights: &Path,
    calibration: &[Tensor],
    warm: &[Image],
    tracer: Option<&Tracer>,
    root: Option<u64>,
) -> Result<Stack, String> {
    let model = timed(tracer, root, "setup.load_checkpoint", || {
        load_model(weights)
    })?;
    let pool = timed(tracer, root, "setup.pool_new", || {
        ServePool::new(&model, serve_config(WORKERS, QUEUE, None))
    });
    let registry = adopted_registry(&pool)?;
    let key = timed(tracer, root, "setup.registry_load_i8", || {
        registry.load_file_quantized("default", 1, model_config(), weights, calibration)
    })
    .map_err(registry_err("load INT8 build"))?;
    timed(tracer, root, "setup.swap", || {
        registry.hot_swap(&pool, &key)
    })
    .map_err(registry_err("hot swap"))?;
    let routed = timed(tracer, root, "setup.registry_load_i8", || {
        registry.load_file_quantized("default", 2, model_config(), weights, calibration)
    })
    .map_err(registry_err("load routed INT8 build"))?;
    timed(tracer, root, "setup.route", || {
        registry.route(&pool, &routed)
    })
    .map_err(registry_err("route"))?;
    // Every worker picks the swap up and runs full batches with TTA and
    // routed jobs once.
    timed(tracer, root, "setup.warmup", || -> Result<(), String> {
        let burst: Vec<Pending> = warm
            .iter()
            .cycle()
            .take(3 * 8)
            .enumerate()
            .map(|(i, img)| submit(&pool, &routed, Kind::ALL[i % 3], img))
            .collect::<Result<_, _>>()
            .map_err(serve_err("warm-up"))?;
        for p in burst {
            p.wait().map_err(serve_err("warm-up"))?;
        }
        registry.retire_drained();
        Ok(())
    })?;
    Ok(Stack {
        model,
        pool,
        registry,
        routed,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let seed = args.seed;
    let photos = render_photos(seed, DISTINCT, PHOTO_PX);
    let calibration = calibration_set();
    let work = WorkDir::new()?;
    let weights = work.write_weights()?;
    let tracer = args.trace.then(Tracer::new);
    let tr = tracer.as_ref();

    let (stack, setups) = set_up(tr, |root| {
        setup(&weights, &calibration, &photos[..8], tr, root)
    })?;
    let pool = &stack.pool;

    // References: the pool answers each photo alone, once per kind.
    let refs: Vec<Vec<Vec<Detection>>> = Kind::ALL
        .iter()
        .map(|&kind| {
            photos
                .iter()
                .map(|p| submit(pool, &stack.routed, kind, p).and_then(Pending::wait))
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()
        .map_err(serve_err("reference"))?;

    let pick = |i: usize| (mix(seed, SALT_PICK, i as u64) % DISTINCT as u64) as usize;
    let kind = |i: usize| match place(seed, SALT_KIND, i as u64, BLOCK) {
        p if p < TTA_PER_BLOCK => Kind::Tta,
        p if p == TTA_PER_BLOCK => Kind::Routed,
        _ => Kind::Plain,
    };
    let length = Duration::from_secs(args.seconds);
    let mut problems = Vec::new();
    let window = |tracer: Option<&Tracer>, problems: &mut Vec<String>| -> Summary {
        let mut submit = |i: usize| submit(pool, &stack.routed, kind(i), &photos[pick(i)]);
        let w = closed_loop(WINDOW, length, &mut submit, &|p: Pending| p.wait(), tracer);
        let check = |d: &Done<Vec<Detection>>, dets: &Vec<Detection>| {
            let k = kind(d.req);
            (!same_dets(dets, &refs[k as usize][pick(d.req)])).then(|| {
                format!(
                    "answer differs from the {} reference of photo {}",
                    k.name(),
                    pick(d.req)
                )
            })
        };
        let class = |i: usize| kind(i).name();
        summarize(&w, LIMIT_MS, &check, &class, problems)
    };

    let stats0 = pool.stats();
    let main = window(None, &mut problems);
    main.check_stats(&stats0, &pool.stats(), &mut problems);
    let mut out = Outcome::new(&main, main.closed_throughput(), &setups, WORKERS);
    if let Some(tracer) = tr {
        let (before, stats0) = (pool.metrics(), pool.stats());
        let traced = window(Some(tracer), &mut problems);
        traced.check_stats(&stats0, &pool.stats(), &mut problems);
        let (serve, served) = pool_metrics(&before, &pool.metrics(), 8);
        let mut layers = serve;
        layers.extend(window_metrics(&traced, &main, traced.closed_throughput()));
        layers.extend(replay(&ReplayInput {
            model: &stack.model,
            weights: &weights,
            calibration: &calibration,
            images: &photos,
            live_i8: true,
            profile_batch: 8,
            served: &served,
            track_frames: &[],
            pool,
            registry: &stack.registry,
            tracer: Some(tracer),
        })?);
        out.add_traced(&traced, layers);
    }
    out.problems.extend(problems);
    out.tracer = tracer;
    Ok(out)
}
