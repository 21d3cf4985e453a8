//! Load generation: an open loop that sends on a fixed schedule and times
//! each request from its due instant, and a closed loop that keeps a fixed
//! window outstanding. Load comes from at most two threads: the generator
//! and, for the open loop, one collector.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use platter_serve::{ServeError, ServeStats};

use crate::common::{median, ms, percentile, sorted};
use crate::host::{cpu_times, steal_share};
use crate::report::Metrics;
use crate::trace::Tracer;

/// One entry of an open-loop schedule.
#[derive(Clone, Copy)]
pub enum Event {
    /// Send request `i`.
    Request(usize),
    /// Run control action `k` on the generator thread (a hot swap).
    Control(usize),
}

/// What happened to one request.
pub struct Done<R> {
    pub req: usize,
    /// When the request was due to be sent.
    pub due: Instant,
    /// How late the generator called submit.
    pub late: Duration,
    /// Time inside the submit call.
    pub submit: Duration,
    /// When the answer reached the client; `None` if refused at the door.
    pub reply: Option<Instant>,
    pub result: Result<R, ServeError>,
}

pub struct Window<R> {
    pub start: Instant,
    /// Scheduled end of the measured window.
    pub end: Instant,
    /// Every request sent, in request order.
    pub done: Vec<Done<R>>,
    pub steal_share: f64,
}

struct InFlight<H> {
    req: usize,
    due: Instant,
    late: Duration,
    submit: Duration,
    span: u64,
    handle: H,
}

/// Send `schedule` (offsets from the window start) through `submit`,
/// collecting answers with `wait` on a second thread in submission order.
pub fn open_loop<H: Send, R: Send>(
    schedule: &[(Duration, Event)],
    length: Duration,
    submit: &mut dyn FnMut(usize) -> Result<H, ServeError>,
    control: &mut dyn FnMut(usize),
    wait: &(dyn Fn(H) -> Result<R, ServeError> + Sync),
    tracer: Option<&Tracer>,
) -> Window<R> {
    let cpu0 = cpu_times();
    let start = Instant::now() + Duration::from_millis(5);
    let (tx, rx) = mpsc::channel::<InFlight<H>>();
    let mut done = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut out = Vec::new();
            for f in rx {
                let w0 = Instant::now();
                let result = wait(f.handle);
                let t = Instant::now();
                if let Some(tr) = tracer {
                    tr.span("serve.wait", Some(f.span), Some(f.req as u64), w0, t);
                    tr.span_with_id(f.span, "request", None, Some(f.req as u64), f.due, t);
                }
                out.push(Done {
                    req: f.req,
                    due: f.due,
                    late: f.late,
                    submit: f.submit,
                    reply: Some(t),
                    result,
                });
            }
            out
        });
        let mut refused = Vec::new();
        for &(offset, event) in schedule {
            let due = start + offset;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            match event {
                Event::Control(k) => control(k),
                Event::Request(req) => {
                    let t0 = Instant::now();
                    let span = tracer.map_or(0, |t| t.id());
                    let result = submit(req);
                    let t1 = Instant::now();
                    if let Some(tr) = tracer {
                        tr.span("serve.submit", Some(span), Some(req as u64), t0, t1);
                    }
                    let (late, submit) = (t0.saturating_duration_since(due), t1 - t0);
                    match result {
                        Ok(handle) => tx
                            .send(InFlight {
                                req,
                                due,
                                late,
                                submit,
                                span,
                                handle,
                            })
                            .expect("collector thread alive"),
                        Err(e) => {
                            if let Some(tr) = tracer {
                                tr.span_with_id(span, "request", None, Some(req as u64), due, t1);
                            }
                            refused.push(Done {
                                req,
                                due,
                                late,
                                submit,
                                reply: None,
                                result: Err(e),
                            });
                        }
                    }
                }
            }
        }
        drop(tx);
        let mut done = collector.join().expect("collector thread panicked");
        done.extend(refused);
        done
    });
    done.sort_by_key(|d| d.req);
    Window {
        start,
        end: start + length,
        done,
        steal_share: steal_share(cpu0, cpu_times()),
    }
}

/// Keep `window` requests outstanding for `length`, then drain. Answers are
/// collected oldest first, as a job that consumes results in order would.
pub fn closed_loop<H, R>(
    window: usize,
    length: Duration,
    submit: &mut dyn FnMut(usize) -> Result<H, ServeError>,
    wait: &dyn Fn(H) -> Result<R, ServeError>,
    tracer: Option<&Tracer>,
) -> Window<R> {
    let cpu0 = cpu_times();
    let start = Instant::now();
    let end = start + length;
    let mut next = 0usize;
    let mut outstanding: VecDeque<InFlight<H>> = VecDeque::with_capacity(window);
    let mut done = Vec::new();
    let mut send = |outstanding: &mut VecDeque<InFlight<H>>, done: &mut Vec<Done<R>>| {
        let req = next;
        next += 1;
        let span = tracer.map_or(0, |t| t.id());
        let t0 = Instant::now();
        let result = submit(req);
        let t1 = Instant::now();
        if let Some(tr) = tracer {
            tr.span("serve.submit", Some(span), Some(req as u64), t0, t1);
        }
        match result {
            Ok(handle) => outstanding.push_back(InFlight {
                req,
                due: t0,
                late: Duration::ZERO,
                submit: t1 - t0,
                span,
                handle,
            }),
            Err(e) => done.push(Done {
                req,
                due: t0,
                late: Duration::ZERO,
                submit: t1 - t0,
                reply: None,
                result: Err(e),
            }),
        }
    };
    for _ in 0..window {
        send(&mut outstanding, &mut done);
    }
    while let Some(f) = outstanding.pop_front() {
        let w0 = Instant::now();
        let result = wait(f.handle);
        let t = Instant::now();
        if let Some(tr) = tracer {
            tr.span("serve.wait", Some(f.span), Some(f.req as u64), w0, t);
            tr.span_with_id(f.span, "request", None, Some(f.req as u64), f.due, t);
        }
        done.push(Done {
            req: f.req,
            due: f.due,
            late: f.late,
            submit: f.submit,
            reply: Some(t),
            result,
        });
        if t < end {
            send(&mut outstanding, &mut done);
        }
    }
    done.sort_by_key(|d| d.req);
    Window {
        start,
        end,
        done,
        steal_share: steal_share(cpu0, cpu_times()),
    }
}

/// The measured window is cut into this many equal sub-windows; latency
/// percentiles and closed-loop throughput are the median of their
/// per-sub-window values, so a host stall that hits one sub-window does
/// not move the run's figure.
pub const SUBWINDOWS: usize = 3;

/// One answered request, times relative to the window start.
struct Answer {
    /// When the request was due (open loop) or sent (closed loop).
    due_s: f64,
    reply_s: f64,
    latency_ms: f64,
    good: bool,
}

/// A window reduced to the numbers the metrics need.
pub struct Summary {
    pub sent: usize,
    /// Answered and equal to the reference.
    pub good: usize,
    /// Refused, culled, skipped or failed: no answer.
    pub failed: usize,
    /// Refused at the door (never admitted).
    pub refused: usize,
    /// Answered correctly within the latency limit.
    pub slo_ok: usize,
    answers: Vec<Answer>,
    window_s: f64,
    pub late_ms: Vec<f64>,
    pub submit_ms: Vec<f64>,
    pub steal_share: f64,
    /// Latencies of answered requests per request class.
    by_class: Vec<(&'static str, Vec<f64>)>,
}

/// Reduce `w`; `check` compares an answer with its reference and describes
/// any difference.
pub fn summarize<R>(
    w: &Window<R>,
    limit_ms: f64,
    check: &dyn Fn(&Done<R>, &R) -> Option<String>,
    class_of: &dyn Fn(usize) -> &'static str,
    problems: &mut Vec<String>,
) -> Summary {
    let since = |t: Instant| t.saturating_duration_since(w.start).as_secs_f64();
    let mut s = Summary {
        sent: w.done.len(),
        good: 0,
        failed: 0,
        refused: w.done.iter().filter(|d| d.reply.is_none()).count(),
        slo_ok: 0,
        answers: Vec::with_capacity(w.done.len()),
        window_s: (w.end - w.start).as_secs_f64(),
        late_ms: sorted(w.done.iter().map(|d| ms(d.late)).collect()),
        submit_ms: sorted(w.done.iter().map(|d| ms(d.submit)).collect()),
        steal_share: w.steal_share,
        by_class: Vec::new(),
    };
    for d in &w.done {
        let (Ok(answer), Some(reply)) = (&d.result, d.reply) else {
            s.failed += 1;
            continue;
        };
        let latency_ms = ms(reply.saturating_duration_since(d.due));
        let class = class_of(d.req);
        match s.by_class.iter_mut().find(|(c, _)| *c == class) {
            Some((_, v)) => v.push(latency_ms),
            None => s.by_class.push((class, vec![latency_ms])),
        }
        let good = match check(d, answer) {
            Some(p) => {
                problems.push(format!("request {}: {p}", d.req));
                false
            }
            None => true,
        };
        if good {
            s.good += 1;
            if latency_ms <= limit_ms {
                s.slo_ok += 1;
            }
        }
        s.answers.push(Answer {
            due_s: since(d.due),
            reply_s: since(reply),
            latency_ms,
            good,
        });
    }
    s
}

impl Summary {
    /// Sub-window of a time since the window start; time past the window
    /// end counts in the last.
    fn sub(&self, t_s: f64) -> usize {
        ((t_s / self.window_s * SUBWINDOWS as f64) as usize).min(SUBWINDOWS - 1)
    }

    /// Latency percentile `q`: the median over the sub-windows of the
    /// percentile of the requests due in each.
    pub fn latency(&self, q: f64) -> f64 {
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); SUBWINDOWS];
        for a in &self.answers {
            per[self.sub(a.due_s)].push(a.latency_ms);
        }
        let each: Vec<f64> = per
            .into_iter()
            .filter(|v| !v.is_empty())
            .map(|v| percentile(&sorted(v), q))
            .collect();
        median(&each)
    }

    /// Requests the pool answered with detections.
    pub fn answered(&self) -> usize {
        self.answers.len()
    }

    /// Check the pool's own counters over the window against what the
    /// client saw: every admitted request answered exactly once.
    pub fn check_stats(&self, before: &ServeStats, after: &ServeStats, problems: &mut Vec<String>) {
        let accepted = after.accepted - before.accepted;
        let completed = after.completed - before.completed;
        let dropped = after.deadline_dropped - before.deadline_dropped;
        if accepted != (self.sent - self.refused) as u64 || completed != self.answered() as u64 {
            problems.push(format!(
                "pool stats disagree with the client: accepted {accepted} completed {completed} vs sent {} refused {} answered {}",
                self.sent,
                self.refused,
                self.answered()
            ));
        }
        if completed + dropped != accepted {
            problems.push(format!(
                "pool answered {completed} + culled {dropped} of {accepted} accepted"
            ));
        }
    }

    /// Every answered request's latency, ascending.
    pub fn latencies(&self) -> Vec<f64> {
        sorted(self.answers.iter().map(|a| a.latency_ms).collect())
    }

    /// The end-to-end metrics; `throughput` is answers per second as the
    /// workload defines it.
    pub fn end_to_end(&self, prefix: &str, throughput: f64) -> Metrics {
        let mut m = Metrics::default();
        let n = format!("n={}, median of {SUBWINDOWS} sub-windows", self.answered());
        m.add(
            format!("{prefix}latency_p50_ms"),
            self.latency(0.50),
            "ms",
            n.clone(),
        );
        m.add(
            format!("{prefix}latency_p90_ms"),
            self.latency(0.90),
            "ms",
            n,
        );
        m.add(
            format!("{prefix}slo_ok_ratio"),
            self.slo_ok as f64 / self.sent.max(1) as f64,
            "ratio",
            format!("{} of {} sent", self.slo_ok, self.sent),
        );
        m.add(
            format!("{prefix}throughput_ips"),
            throughput,
            "images/s",
            format!("{} good", self.good),
        );
        m
    }

    /// Good answers per second from the window start to the last answer:
    /// on an open loop this stays at the offered rate until answers fail or
    /// the backlog grows.
    pub fn open_throughput(&self) -> f64 {
        let last = self.answers.iter().map(|a| a.reply_s).fold(0.0, f64::max);
        self.good as f64 / last.max(1e-9)
    }

    /// Good answers per second: the median over the sub-windows of the
    /// good answers received in each, divided by its length. Answers after
    /// the window's end are not counted.
    pub fn closed_throughput(&self) -> f64 {
        let mut per = [0usize; SUBWINDOWS];
        for a in self
            .answers
            .iter()
            .filter(|a| a.good && a.reply_s < self.window_s)
        {
            per[self.sub(a.reply_s)] += 1;
        }
        let len_s = self.window_s / SUBWINDOWS as f64;
        median(&per.iter().map(|&n| n as f64 / len_s).collect::<Vec<_>>())
    }

    pub fn line(&self, label: &str) -> String {
        let classes: Vec<String> = self
            .by_class
            .iter()
            .map(|(c, v)| {
                let v = sorted(v.to_vec());
                format!(
                    "{c} n={} p50 {:.2} p90 {:.2}",
                    v.len(),
                    percentile(&v, 0.5),
                    percentile(&v, 0.9)
                )
            })
            .collect();
        format!(
            "{label}: sent {} good {} failed {} | late p99 {:.3} ms max {:.3} ms | steal {:.4} | {}",
            self.sent,
            self.good,
            self.failed,
            percentile(&self.late_ms, 0.99),
            self.late_ms.last().copied().unwrap_or(0.0),
            self.steal_share,
            classes.join(" | ")
        )
    }
}
