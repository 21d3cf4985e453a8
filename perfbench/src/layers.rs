//! Per-layer metrics read from outside the program: the pool's own
//! `metrics()` over the traced window, and what the load generator saw.

use platter_obs::MetricsSnapshot;

use crate::common::percentile;
use crate::load::Summary;
use crate::report::Metrics;

/// One histogram's samples between two snapshots of a pool's registry.
struct Delta {
    count: u64,
    sum: f64,
    /// `(upper bound, samples)`; the overflow bucket's bound is infinite.
    buckets: Vec<(f64, u64)>,
    min: f64,
    max: f64,
}

fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> Delta {
    let Some(a) = after.histogram(name) else {
        return Delta {
            count: 0,
            sum: 0.0,
            buckets: Vec::new(),
            min: 0.0,
            max: 0.0,
        };
    };
    let b = before.histogram(name);
    let buckets: Vec<(f64, u64)> = a
        .buckets
        .iter()
        .enumerate()
        .map(|(i, bk)| (bk.le, bk.count - b.map_or(0, |b| b.buckets[i].count)))
        .collect();
    Delta {
        count: a.count - b.map_or(0, |b| b.count),
        sum: a.sum - b.map_or(0.0, |b| b.sum),
        buckets,
        min: a.min,
        max: a.max,
    }
}

impl Delta {
    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Quantile estimated the way `platter_obs` does it: find the bucket
    /// holding the rank and interpolate inside it, clamped to the
    /// histogram's lifetime min/max.
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * (self.count as f64 - 1.0)).round() as u64;
        let mut seen = 0u64;
        let mut lower = self.min;
        for &(le, c) in &self.buckets {
            if seen + c > rank {
                let lo = lower.max(self.min);
                let hi = if le.is_finite() {
                    le.min(self.max)
                } else {
                    self.max
                };
                let frac = if c <= 1 {
                    0.5
                } else {
                    (rank - seen) as f64 / (c - 1) as f64
                };
                return lo + (hi - lo).max(0.0) * frac;
            }
            seen += c;
            lower = le;
        }
        self.max
    }
}

fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

/// Serve-layer metrics over the window between `before` and `after`, plus
/// the batch sizes the pool executed (`(size, batches)`, size taken as the
/// histogram bucket's upper bound, at most `max_batch`).
pub fn pool_metrics(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    max_batch: usize,
) -> (Metrics, Vec<(usize, u64)>) {
    let mut m = Metrics::default();
    let latency = delta(before, after, "serve.latency_ms");
    let note = format!("n={} (pool histogram)", latency.count);
    m.add(
        "serve.pool_latency_p50_ms",
        latency.quantile(0.50),
        "ms",
        note.clone(),
    );
    m.add(
        "serve.pool_latency_p90_ms",
        latency.quantile(0.90),
        "ms",
        note,
    );
    let batch = delta(before, after, "serve.batch_size");
    m.add(
        "serve.batch_size_mean",
        batch.mean(),
        "images",
        format!("batches={}", batch.count),
    );
    let depth = delta(before, after, "serve.queue_depth");
    m.add(
        "serve.queue_depth_p90",
        depth.quantile(0.90),
        "jobs",
        format!("n={}", depth.count),
    );
    let steals: u64 = after
        .counters
        .iter()
        .filter(|c| c.name.starts_with("serve.worker.") && c.name.ends_with(".steals"))
        .map(|c| counter_delta(before, after, &c.name))
        .sum();
    m.add("serve.steals", steals as f64, "count", "sum over workers");
    m.add(
        "serve.sheds",
        counter_delta(before, after, "serve.sheds") as f64,
        "count",
        "",
    );
    m.add(
        "serve.deadline_misses",
        counter_delta(before, after, "serve.deadline_misses") as f64,
        "count",
        "",
    );
    let culled = delta(before, after, "serve.culled_wait_ms");
    m.add(
        "serve.culled_wait_ms_p50",
        culled.quantile(0.50),
        "ms",
        format!("n={}", culled.count),
    );
    m.add(
        "serve.swap_reforks",
        counter_delta(before, after, "serve.swap.reforks") as f64,
        "count",
        "",
    );
    let served = batch
        .buckets
        .iter()
        .filter(|(_, c)| *c > 0)
        .map(|&(le, c)| {
            (
                (if le.is_finite() {
                    le as usize
                } else {
                    max_batch
                })
                .clamp(1, max_batch),
                c,
            )
        })
        .collect();
    (m, served)
}

/// Run-health and load-generator metrics of the traced window, the traced
/// end-to-end values, and what tracing cost against the untraced window.
pub fn window_metrics(traced: &Summary, untraced: &Summary, traced_throughput: f64) -> Metrics {
    let mut m = Metrics::default();
    let n = traced.submit_ms.len();
    m.add(
        "serve.submit_ms.p50",
        percentile(&traced.submit_ms, 0.50),
        "ms",
        format!("n={n}"),
    );
    m.add(
        "serve.submit_ms.p90",
        percentile(&traced.submit_ms, 0.90),
        "ms",
        format!("n={n}"),
    );
    m.add("load.sent", traced.sent as f64, "count", "");
    m.add("load.succeeded", traced.good as f64, "count", "");
    m.add("load.failed", traced.failed as f64, "count", "");
    m.add(
        "load.samples",
        traced.latencies().len() as f64,
        "count",
        "latency samples",
    );
    m.add(
        "load.late_p99_ms",
        percentile(&traced.late_ms, 0.99),
        "ms",
        format!("n={}", traced.late_ms.len()),
    );
    m.add(
        "load.late_max_ms",
        traced.late_ms.last().copied().unwrap_or(0.0),
        "ms",
        "",
    );
    m.add(
        "host.steal_share",
        traced.steal_share,
        "ratio",
        "/proc/stat over the traced window",
    );
    let e2e = traced.end_to_end("traced.", traced_throughput);
    m.extend(e2e);
    let base = untraced.latency(0.50);
    let ratio = if base > 0.0 {
        traced.latency(0.50) / base
    } else {
        0.0
    };
    m.add(
        "trace.overhead_ratio",
        ratio,
        "ratio",
        "traced / untraced latency_p50_ms",
    );
    m
}
