//! In-memory spans recorded around calls into the program's layers, written
//! out when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;

/// One timed interval: what ran, when, under which span and for which
/// request.
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: Option<u64>,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 14)),
        }
    }

    /// Reserve a span id, for a span whose children are recorded before it.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span under a fresh id and return the id.
    pub fn span(
        &self,
        name: &'static str,
        parent: Option<u64>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.span_with_id(id, name, parent, req, start, end);
        id
    }

    pub fn span_with_id(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            req,
            name,
            start,
            end,
        };
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
            .push(span);
    }

    /// Write the host record, every span and a per-name summary (count,
    /// total and self time, where self time is a span's duration minus its
    /// children's) to `path` as JSON.
    pub fn write(&self, path: &Path, host: HostRecord) -> Result<(), String> {
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking recorder");
        let mut child_ns: BTreeMap<u64, u128> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += (s.end - s.start).as_nanos();
            }
        }
        let mut summary: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
        for s in spans.iter() {
            let total = (s.end - s.start).as_nanos();
            let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = summary.entry(s.name).or_insert(NameSummary {
                name: s.name,
                count: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            e.count += 1;
            e.total_ms += total as f64 / 1e6;
            e.self_ms += own as f64 / 1e6;
        }
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let file = TraceFile {
            host,
            summary: summary.into_values().collect(),
            spans: spans
                .iter()
                .map(|s| SpanRecord {
                    id: s.id,
                    parent: s.parent,
                    req: s.req,
                    name: s.name,
                    start_us: us(s.start),
                    end_us: us(s.end),
                })
                .collect(),
        };
        let text = serde_json::to_string(&file).expect("a value tree always renders");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// What ran where, at the head of a trace file.
#[derive(Serialize)]
pub struct HostRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub nproc: usize,
    pub gemm_threads: usize,
    pub pool_workers: usize,
}

#[derive(Serialize)]
struct NameSummary {
    name: &'static str,
    count: u64,
    total_ms: f64,
    self_ms: f64,
}

#[derive(Serialize)]
struct SpanRecord {
    id: u64,
    parent: Option<u64>,
    req: Option<u64>,
    name: &'static str,
    start_us: f64,
    end_us: f64,
}

#[derive(Serialize)]
struct TraceFile {
    host: HostRecord,
    summary: Vec<NameSummary>,
    spans: Vec<SpanRecord>,
}
