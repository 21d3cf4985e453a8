//! `pan_streams`: canteen and tray cameras stream frames at a fixed rate
//! whether or not earlier frames were answered, so every stream is an open
//! loop. One capture box triggers the cameras in turn, each in its own
//! slot of the frame interval. Each stream is a pool session whose frames
//! the pool tracks; the registry hot-swaps between versions carrying the
//! same weights at fixed points of the schedule.

use std::path::Path;
use std::time::{Duration, Instant};

use platter_dataset::ClassSet;
use platter_imaging::{render_video, Image, PlatterStyle, VideoSpec};
use platter_serve::{ModelRegistry, Pending, PendingFrame, ServePool, SessionId, TrackedFrame};
use platter_yolo::{Detection, SortTracker, Track, TrackConfig, Yolov4};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::common::*;
use crate::layers::{pool_metrics, window_metrics};
use crate::load::{open_loop, summarize, Done, Event, Summary, Window};
use crate::replay::{replay, ReplayInput};
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// Camera streams, one session each.
pub const STREAMS: usize = 8;
/// Frames per second per stream.
pub const FPS: u64 = 2;
/// Distinct frames of a stream's pan; the camera sweeps back and forth
/// over them for as long as the window lasts.
pub const PAN_FRAMES: usize = 20;
/// Frame interval, s.
const PERIOD: f64 = 1.0 / FPS as f64;
/// Each camera's trigger slot within the frame interval, s.
const SLOT: f64 = PERIOD / STREAMS as f64;
/// Largest seeded offset of a camera's trigger within its slot, s.
const SLOT_OFFSET: f64 = SLOT / 4.0;
/// Largest offset of one capture from its camera's trigger tick, s: a
/// software-timed trigger. Consecutive cameras' frames are at least
/// `SLOT - SLOT_OFFSET - 2 * CAPTURE_JITTER` (~41 ms) apart, about twice a
/// frame's service time, so frames meet in the queue only when the host
/// stalls one.
const CAPTURE_JITTER: f64 = 0.003;
/// Start of the first slot, s.
const LEAD: f64 = 0.01;
/// Camera frame edge, px (letterboxed to the 64-px model input).
pub const FRAME_PX: usize = 96;
/// Per-frame deadline: a frame that cannot start within it is skipped.
pub const DEADLINE_MS: u64 = 250;
/// Latency limit of `slo_ok_ratio`, ms.
pub const LIMIT_MS: f64 = 250.0;
/// Hot swaps per window, evenly spaced.
pub const SWAPS: usize = 3;
pub const QUEUE: usize = 64;

const SALT_VIDEO: u64 = 0x51DE;
const SALT_PHASE: u64 = 0xF4A5;

/// Answered detections per session, in frame order.
type Sequences = Vec<Vec<Vec<Detection>>>;

struct Stack {
    model: Yolov4,
    pool: ServePool,
    registry: ModelRegistry,
    /// Versions loaded for the next window's swaps.
    swap_keys: Vec<String>,
}

/// Load `SWAPS` versions of the checkpoint, numbered from `first`.
fn load_versions(
    registry: &ModelRegistry,
    weights: &Path,
    first: u64,
) -> Result<Vec<String>, String> {
    (0..SWAPS as u64)
        .map(|v| {
            registry
                .load_file("default", first + v, model_config(), weights)
                .map_err(registry_err("load version"))
        })
        .collect()
}

fn setup(
    weights: &Path,
    warm: &[Image],
    tracer: Option<&Tracer>,
    root: Option<u64>,
) -> Result<Stack, String> {
    let model = timed(tracer, root, "setup.load_checkpoint", || {
        load_model(weights)
    })?;
    let deadline = Some(Duration::from_millis(DEADLINE_MS));
    let pool = timed(tracer, root, "setup.pool_new", || {
        ServePool::new(&model, serve_config(1, QUEUE, deadline))
    });
    let registry = adopted_registry(&pool)?;
    let swap_keys = timed(tracer, root, "setup.registry_load_f32", || {
        load_versions(&registry, weights, 1)
    })?;
    timed(tracer, root, "setup.warmup", || -> Result<(), String> {
        // Frames one at a time (a burst would outlive the frame deadline),
        // then a full batch without a deadline to size the arena.
        let session = pool
            .open_session_with(TrackConfig::default())
            .map_err(serve_err("warm-up session"))?;
        for f in warm {
            pool.submit_frame(session, f)
                .and_then(PendingFrame::wait)
                .map_err(serve_err("warm-up"))?;
        }
        pool.close_session(session)
            .map_err(serve_err("warm-up session"))?;
        let burst: Vec<Pending> = warm
            .iter()
            .map(|f| pool.submit_image_with_deadline(f, None))
            .collect::<Result<_, _>>()
            .map_err(serve_err("warm-up"))?;
        for p in burst {
            p.wait().map_err(serve_err("warm-up"))?;
        }
        Ok(())
    })?;
    Ok(Stack {
        model,
        pool,
        registry,
        swap_keys,
    })
}

/// One jittered pan per stream, each from its own seeded generator.
fn render_streams(seed: u64) -> Result<Vec<Vec<Image>>, String> {
    let classes = ClassSet::indianfood10();
    (0..STREAMS as u64)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(mix(seed, SALT_VIDEO, s));
            let mut dishes = Vec::new();
            while dishes.len() < 3 {
                let kind = classes.kind(rng.random_range(0..classes.len()));
                if !dishes.contains(&kind) {
                    dishes.push(kind);
                }
            }
            let spec = VideoSpec {
                frame_size: FRAME_PX,
                world_size: 2 * FRAME_PX,
                frames: PAN_FRAMES,
                dishes,
                style: if rng.random_bool(0.5) {
                    PlatterStyle::Thali
                } else {
                    PlatterStyle::SharedPlate
                },
                pan_from: (rng.random_range(0.0..0.3f32), rng.random_range(0.2..0.8f32)),
                pan_to: (rng.random_range(0.7..1.0f32), rng.random_range(0.2..0.8f32)),
                jitter_px: 2,
                min_visibility: 0.25,
            };
            render_video(&spec, &mut rng)
                .map(|v| v.frames)
                .map_err(|e| format!("render stream {s}: {e}"))
        })
        .collect()
}

/// Pan frame shown at stream frame `k`: forward, then back, and again.
fn pan_frame(k: usize) -> usize {
    let period = 2 * (PAN_FRAMES - 1);
    let m = k % period;
    if m < PAN_FRAMES {
        m
    } else {
        period - m
    }
}

fn same_tracks(a: &[Track], b: &[Track]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.id == y.id
                && x.class == y.class
                && x.hits == y.hits
                && x.score.to_bits() == y.score.to_bits()
                && [x.bbox.cx, x.bbox.cy, x.bbox.w, x.bbox.h].map(f32::to_bits)
                    == [y.bbox.cx, y.bbox.cy, y.bbox.w, y.bbox.h].map(f32::to_bits)
        })
}

/// Check every answered frame: in-session frame index, detections equal
/// to the frame's reference, tracks equal to a direct tracker replay over
/// the frames the pool answered. Returns a problem per bad request (by
/// position in `w.done`) and the answered detections per session.
fn check_streams(
    w: &Window<TrackedFrame>,
    frames: usize,
    refs: &[Vec<Vec<Detection>>],
) -> Result<(Vec<Option<String>>, Sequences), String> {
    let mut bad = vec![None; w.done.len()];
    let mut answered = vec![Vec::new(); STREAMS];
    let mut trackers: Vec<SortTracker> = (0..STREAMS)
        .map(|_| SortTracker::new(TrackConfig::default()).map_err(|e| format!("tracker: {e}")))
        .collect::<Result<_, _>>()?;
    let mut accepted = [0u64; STREAMS];
    for (pos, d) in w.done.iter().enumerate() {
        let (s, k) = (d.req / frames, d.req % frames);
        if d.reply.is_none() {
            continue; // refused at the door: no frame index assigned
        }
        let index = accepted[s];
        accepted[s] += 1;
        let Ok(tf) = &d.result else { continue };
        let replayed = trackers[s].step(&tf.detections);
        bad[pos] = if tf.frame != index {
            Some(format!(
                "stream {s} frame {k}: answered as in-session frame {} (expected {index})",
                tf.frame
            ))
        } else if !same_dets(&tf.detections, &refs[s][pan_frame(k)]) {
            Some(format!(
                "stream {s} frame {k}: detections differ from the reference"
            ))
        } else if !same_tracks(&tf.tracks, &replayed) {
            Some(format!(
                "stream {s} frame {k}: tracks differ from a direct tracker replay"
            ))
        } else {
            None
        };
        answered[s].push(tf.detections.clone());
    }
    Ok((bad, answered))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let seed = args.seed;
    let frames = (FPS * args.seconds) as usize;
    let videos = render_streams(seed)?;
    let work = WorkDir::new()?;
    let weights = work.write_weights()?;
    let tracer = args.trace.then(Tracer::new);
    let tr = tracer.as_ref();

    let (mut stack, setups) = set_up(tr, |root| setup(&weights, &videos[0][..8], tr, root))?;

    // References: the pool answers each frame alone; each must also equal
    // the direct forward/decode/NMS answer.
    let mut problems = Vec::new();
    let mut engine = stack.model.compile_inference();
    let mut refs = Vec::with_capacity(STREAMS);
    for (s, video) in videos.iter().enumerate() {
        let mut per = Vec::with_capacity(PAN_FRAMES);
        for (k, f) in video.iter().enumerate() {
            let r = stack
                .pool
                .submit_image_with_deadline(f, None)
                .and_then(Pending::wait)
                .map_err(serve_err("reference"))?;
            if !same_dets(&direct_answer(&mut engine, &model_config(), f)?, &r) {
                problems.push(format!("stream {s} frame {k}: pool reference differs from the direct forward/decode/NMS answer"));
            }
            per.push(r);
        }
        refs.push(per);
    }

    // The capture box triggers the cameras in turn: camera `s` fires in
    // slot `s` of each frame interval, at a seeded offset within the slot,
    // and each capture lands up to CAPTURE_JITTER off its tick.
    let mut rng = StdRng::seed_from_u64(mix(seed, SALT_PHASE, 0));
    let mut schedule: Vec<(Duration, Event)> = Vec::with_capacity(STREAMS * frames + SWAPS);
    for s in 0..STREAMS {
        let phase = LEAD + s as f64 * SLOT + rng.random_range(0.0..SLOT_OFFSET);
        for k in 0..frames {
            let jitter = rng.random_range(-CAPTURE_JITTER..CAPTURE_JITTER);
            schedule.push((
                Duration::from_secs_f64(phase + k as f64 * PERIOD + jitter),
                Event::Request(s * frames + k),
            ));
        }
    }
    let seconds = args.seconds as f64;
    for j in 0..SWAPS {
        schedule.push((
            Duration::from_secs_f64(seconds * (j + 1) as f64 / (SWAPS + 1) as f64),
            Event::Control(j),
        ));
    }
    schedule.sort_by_key(|e| e.0);

    let window = |stack: &Stack,
                  tracer: Option<&Tracer>,
                  problems: &mut Vec<String>|
     -> Result<(Summary, Sequences), String> {
        let pool = &stack.pool;
        let sessions: Vec<SessionId> = (0..STREAMS)
            .map(|_| pool.open_session_with(TrackConfig::default()))
            .collect::<Result<_, _>>()
            .map_err(serve_err("open session"))?;
        let mut submit = |req: usize| {
            pool.submit_frame(
                sessions[req / frames],
                &videos[req / frames][pan_frame(req % frames)],
            )
        };
        let keys = &stack.swap_keys;
        let registry = &stack.registry;
        let mut swap_errors = Vec::new();
        let mut control = |j: usize| {
            let t0 = Instant::now();
            if let Err(e) = registry.hot_swap(pool, &keys[j]) {
                swap_errors.push(format!("hot swap {j}: {e}"));
            }
            if let Some(tr) = tracer {
                tr.span("registry.hot_swap", None, None, t0, Instant::now());
            }
        };
        let w = open_loop(
            &schedule,
            Duration::from_secs_f64(seconds),
            &mut submit,
            &mut control,
            &|p: PendingFrame| p.wait(),
            tracer,
        );
        problems.extend(swap_errors);
        for s in sessions {
            pool.close_session(s).map_err(serve_err("close session"))?;
        }
        stack.registry.retire_drained();
        let (bad, answered) = check_streams(&w, frames, &refs)?;
        // The schedule sends every request index once, so `done[i].req == i`.
        let check = |d: &Done<TrackedFrame>, _: &TrackedFrame| bad[d.req].clone();
        Ok((
            summarize(&w, LIMIT_MS, &check, &|_| "frame", problems),
            answered,
        ))
    };

    let stats0 = stack.pool.stats();
    let (main, _) = window(&stack, None, &mut problems)?;
    main.check_stats(&stats0, &stack.pool.stats(), &mut problems);
    let mut out = Outcome::new(&main, main.open_throughput(), &setups, 1);
    if let Some(tracer) = tr {
        stack.swap_keys = load_versions(&stack.registry, &weights, 1 + SWAPS as u64)?;
        let (before, stats0) = (stack.pool.metrics(), stack.pool.stats());
        let (traced, answered) = window(&stack, Some(tracer), &mut problems)?;
        traced.check_stats(&stats0, &stack.pool.stats(), &mut problems);
        let (serve, served) = pool_metrics(&before, &stack.pool.metrics(), 8);
        let mut layers = serve;
        layers.extend(window_metrics(&traced, &main, traced.open_throughput()));
        let images: Vec<Image> = videos
            .iter()
            .flat_map(|v| v.iter().step_by(2).cloned())
            .collect();
        let calibration = calibration_set();
        layers.extend(replay(&ReplayInput {
            model: &stack.model,
            weights: &weights,
            calibration: &calibration,
            images: &images,
            live_i8: false,
            profile_batch: 1,
            served: &served,
            track_frames: &answered,
            pool: &stack.pool,
            registry: &stack.registry,
            tracer: Some(tracer),
        })?);
        out.add_traced(&traced, layers);
    }
    out.problems.extend(problems);
    out.tracer = tracer;
    Ok(out)
}
