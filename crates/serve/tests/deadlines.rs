//! Deadline-stamping regression suite.
//!
//! Deadlines used to be resolved by each submit wrapper against its own
//! clock read, so routed and TTA submissions — which do more preparation
//! work before enqueueing — could drift from plain ones, and none of them
//! was guaranteed to share its anchor with the job's `submitted` stamp.
//! All stamping now happens at one point (`make_job`), and this suite
//! pins the observable contract:
//!
//! 1. Every submission kind — an image or tensor [`Request`], each plain,
//!    TTA, and routed, and a session frame — culls against the *same*
//!    default deadline when made to outwait it.
//! 2. An explicit `None` deadline means "no deadline", never silently
//!    replaced by the configured default.
//! 3. An explicitly expired deadline culls without costing a forward pass.
//! 4. Culled work lands in `serve.culled_wait_ms` (queue wait recorded)
//!    and never in `serve.latency_ms` (answers only).
//! 5. A culled session frame skips that frame only: the session keeps
//!    answering its next one.

use std::time::{Duration, Instant};

use platter_imaging::{Image, Rgb};
use platter_serve::{
    DeadlineSpec, ModelRegistry, Request, ServeConfig, ServeError, ServeFault, ServeFaultPlan,
    ServePool,
};
use platter_tensor::Tensor;
use platter_yolo::{YoloConfig, Yolov4};

fn nano_cfg() -> YoloConfig {
    YoloConfig { input_size: 32, width: 0.1, ..YoloConfig::micro(10) }
}

/// A finite, deterministic `[3, 32, 32]` input.
fn test_tensor(seed: usize) -> Tensor {
    let data: Vec<f32> =
        (0..3 * 32 * 32).map(|i| ((i * 31 + seed * 137) % 251) as f32 / 251.0 - 0.5).collect();
    Tensor::from_vec(data, &[3, 32, 32])
}

fn test_image(seed: usize) -> Image {
    Image::new(40 + seed % 13, 30 + seed % 11, Rgb::new(0.3, 0.4, 0.2))
}

/// A tensor request that never expires.
fn undying(x: &Tensor) -> Request<'_> {
    Request { deadline: DeadlineSpec::Explicit(None), ..Request::tensor(x) }
}

#[test]
fn every_submit_path_culls_against_the_same_default_deadline() {
    let model = Yolov4::new(nano_cfg(), 21);
    // One worker, and a batch exactly as large as the eight submissions
    // below (six request kinds, one session frame, one control), so they
    // all coalesce into batch 0. The injected stall then holds that batch
    // past the shared default deadline before the cull runs. If any path
    // stamped its own deadline differently, it would be the one answering
    // detections here.
    let cfg = ServeConfig {
        max_batch: 8,
        max_wait: Duration::from_millis(150),
        default_deadline: Some(Duration::from_millis(40)),
        model_name: "live".to_string(),
        ..ServeConfig::new(1)
    };
    let stall =
        ServeFaultPlan::new().at(0, ServeFault::SlowExec { delay: Duration::from_millis(150) });
    let pool = ServePool::with_faults(&model, cfg, stall);
    let registry = ModelRegistry::default();
    let key = registry.adopt_live(&pool).expect("adopt live");
    registry.route(&pool, &key).expect("route live model");
    let session = pool.open_session().expect("open session");

    let (image, tensor) = (test_image(0), test_tensor(1));
    let mut culled = Vec::new();
    for plain in [Request::image(&image), Request::tensor(&tensor)] {
        let (tta, routed) =
            (Request { tta: true, ..plain }, Request { route: Some(&key), ..plain });
        for request in [plain, tta, routed] {
            culled.push(pool.submit(request).expect("admitted"));
        }
    }
    let frame = pool.submit_frame(session, &test_image(2)).expect("frame admitted");
    // The control: an explicit `None` deadline must survive the same wait.
    // Before stamping was centralised this was the path most at risk of
    // silently inheriting the default.
    let control = pool.submit(undying(&test_tensor(6))).expect("undying tensor");

    let n = culled.len() as u64 + 1;
    for (i, p) in culled.into_iter().enumerate() {
        assert_eq!(
            p.wait(),
            Err(ServeError::DeadlineExceeded),
            "submit path {i} outlived a deadline the other paths missed"
        );
    }
    assert_eq!(frame.wait(), Err(ServeError::DeadlineExceeded), "the session frame outlived it");
    assert!(control.wait().is_ok(), "an explicit None deadline must never be culled");

    let stats = pool.stats();
    assert_eq!(stats.deadline_dropped, n);
    assert_eq!(stats.completed, 1);

    let metrics = pool.metrics();
    let culled_wait = metrics.histogram("serve.culled_wait_ms").expect("registered");
    assert_eq!(culled_wait.count, n, "every culled job's queue wait is recorded");
    assert!(culled_wait.min > 0.0, "culled work waited a positive time");
    let latency = metrics.histogram("serve.latency_ms").expect("registered");
    assert_eq!(latency.count, 1, "latency histogram must record answers only");

    // The miss skipped one frame, not the stream. Fill batch 1 with seven
    // undying requests so it runs the moment the session's next frame is
    // admitted, well inside that frame's own default deadline.
    let fill: Vec<_> = (0..7)
        .map(|i| pool.submit(undying(&test_tensor(10 + i))).expect("fill admitted"))
        .collect();
    let next = pool.submit_frame(session, &test_image(3)).expect("next frame admitted");
    let answer = next.wait().expect("the session answers the frame after a miss");
    assert_eq!(answer.frame, 1, "frame indices continue past the culled frame");
    for p in fill {
        assert!(p.wait().is_ok());
    }
    pool.close_session(session).expect("close");
    pool.shutdown();
}

#[test]
fn an_already_expired_deadline_culls_without_a_forward_pass() {
    let model = Yolov4::new(nano_cfg(), 22);
    let pool = ServePool::new(&model, ServeConfig::new(1));

    let expired = Some(Instant::now() - Duration::from_millis(1));
    let image = test_image(7);
    let p = pool
        .submit(Request { deadline: DeadlineSpec::Explicit(expired), ..Request::image(&image) })
        .expect("admitted");
    assert_eq!(p.wait(), Err(ServeError::DeadlineExceeded));

    let stats = pool.stats();
    assert_eq!(stats.deadline_dropped, 1);
    assert_eq!(stats.completed, 0, "expired work must not reach the model");
    assert_eq!(stats.compiled_batches + stats.eager_batches, 0, "no batch may run for it");
    pool.shutdown();
}
