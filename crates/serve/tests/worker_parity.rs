//! Multi-worker parity and accounting suite.
//!
//! The data-parallel pool must be an implementation detail: a burst served
//! by N workers answers every request bit-identically to a single-worker
//! pool (batch-separable ops make outputs invariant to batch grouping and
//! worker placement), the per-worker batch counters must account for every
//! batch the pool ran, and the shared [`PlanWeights`] must come back to a
//! single reference once the pool is gone — even after panic isolation has
//! discarded and re-forked a worker's engine.

use std::sync::Arc;
use std::time::Duration;

use platter_serve::{Request, ServeConfig, ServeFault, ServeFaultPlan, ServePool};
use platter_tensor::Tensor;
use platter_yolo::{Detection, YoloConfig, Yolov4};

fn nano_model(seed: u64) -> Yolov4 {
    Yolov4::new(YoloConfig { input_size: 32, width: 0.1, ..YoloConfig::micro(10) }, seed)
}

fn serve_cfg(workers: usize) -> ServeConfig {
    ServeConfig { max_wait: Duration::from_millis(1), ..ServeConfig::new(workers) }
}

/// A finite, deterministic `[3, 32, 32]` input with per-request variation.
fn test_tensor(seed: usize) -> Tensor {
    let data: Vec<f32> =
        (0..3 * 32 * 32).map(|i| ((i * 31 + seed * 137) % 251) as f32 / 251.0 - 0.5).collect();
    Tensor::from_vec(data, &[3, 32, 32])
}

/// Collapse detections to their raw bits so equality means *bit*-equality,
/// not float-equality (`PartialEq` would pass -0.0 == 0.0).
fn det_bits(dets: &[Detection]) -> Vec<(usize, u32, [u32; 4])> {
    dets.iter()
        .map(|d| {
            (d.class, d.score.to_bits(), [
                d.bbox.cx.to_bits(),
                d.bbox.cy.to_bits(),
                d.bbox.w.to_bits(),
                d.bbox.h.to_bits(),
            ])
        })
        .collect()
}

/// Burst `n` requests into the pool open-loop, then collect answers in
/// submission order.
fn burst(pool: &ServePool, n: usize) -> Vec<Vec<(usize, u32, [u32; 4])>> {
    let pending: Vec<_> =
        (0..n).map(|i| pool.submit(Request::tensor(&test_tensor(i))).expect("admitted")).collect();
    pending.into_iter().map(|p| det_bits(&p.wait().expect("answered"))).collect()
}

#[test]
fn multi_worker_burst_matches_single_worker_bit_for_bit() {
    let model = nano_model(21);
    let n = 16;

    let single = ServePool::new(&model, serve_cfg(1));
    let want = burst(&single, n);
    single.shutdown();

    let multi = ServePool::new(&model, serve_cfg(2));
    let got = burst(&multi, n);
    multi.shutdown();

    assert_eq!(got, want, "worker placement / batch grouping changed answers");
    assert!(want.iter().any(|d| !d.is_empty()), "parity check never saw a detection");
}

#[test]
fn per_worker_batch_counters_account_for_every_batch() {
    let model = nano_model(22);
    let pool = ServePool::new(&model, serve_cfg(2));
    // Closed-loop so the trace is fault-free and every batch completes.
    for i in 0..10 {
        pool.detect_from(&test_tensor(i));
    }
    let stats = pool.stats();
    let metrics = pool.metrics();
    let per_worker: u64 = (0..2)
        .map(|i| {
            metrics
                .counter(&format!("serve.worker.{i}.batches"))
                .unwrap_or_else(|| panic!("serve.worker.{i}.batches not registered"))
        })
        .sum();
    assert_eq!(
        per_worker,
        stats.compiled_batches + stats.eager_batches,
        "per-worker counters must account for every batch the pool ran"
    );
    for i in 0..2 {
        assert!(
            metrics.counter(&format!("serve.worker.{i}.steals")).is_some(),
            "steal counter for worker {i} not registered"
        );
    }
    pool.shutdown();
}

/// `detect`-style closed-loop submission for raw tensors.
trait DetectFrom {
    fn detect_from(&self, x: &Tensor);
}

impl DetectFrom for ServePool {
    fn detect_from(&self, x: &Tensor) {
        self.submit(Request::tensor(x)).expect("admitted").wait().expect("answered");
    }
}

#[test]
fn shared_weights_refcount_returns_to_one_after_drain() {
    let model = nano_model(23);
    // Panic the first compiled batch: the worker discards its engine,
    // retries eagerly, and re-forks — exactly the path that could leak a
    // stale engine (and with it the weights) if ownership were wrong.
    let faults = ServeFaultPlan::new().at(0, ServeFault::WorkerPanic);
    let pool = ServePool::with_faults(&model, serve_cfg(2), faults);
    let weights = pool.shared_weights();

    for i in 0..6 {
        pool.detect_from(&test_tensor(i));
    }
    let stats = pool.stats();
    assert_eq!(stats.worker_panics, 1, "injected panic must have fired");
    assert_eq!(stats.completed, 6);

    pool.shutdown();
    drop(pool);
    assert_eq!(
        Arc::strong_count(&weights),
        1,
        "pool teardown leaked an engine holding the shared weights"
    );
}
