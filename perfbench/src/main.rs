//! Benchmark of the serving pool, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <archive_i8_tta|pan_streams> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run builds its inputs from `--seed`, sets the system up several
//! times (`setup_s` is the median), computes a reference answer for every
//! distinct input, then measures one window of `--seconds` and checks every
//! reply bit for bit. `--trace 1` measures a second, traced window on the
//! same pool, reads the pool's own metrics over it, and replays each
//! layer's public functions on the same inputs; its spans go to
//! `.bench_trace/`. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, end-to-end metrics with
//! `--trace 0` and per-layer metrics with `--trace 1`. BENCHMARK.json at the
//! repository root documents every workload and metric.

mod archive;
mod common;
mod host;
mod layers;
mod load;
mod replay;
mod report;
mod streams;
mod trace;

use std::path::PathBuf;

use crate::common::median;
use crate::load::Summary;
use crate::report::{Metrics, RunResult};
use crate::trace::{HostRecord, Tracer};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(1..=600).contains(&args.seconds) {
        return Err(format!("--seconds must be 1..=600, not {}", args.seconds));
    }
    Ok(args)
}

/// What a workload hands back: its windows' results and, when traced, its
/// per-layer metrics and spans.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    /// End-to-end metrics of the untraced window, plus `setup_s`.
    pub e2e: Metrics,
    pub layers: Option<Metrics>,
    pub tracer: Option<Tracer>,
    pub workers: usize,
}

impl Outcome {
    pub fn new(main: &Summary, throughput: f64, setups: &[f64], workers: usize) -> Outcome {
        let mut e2e = main.end_to_end("", throughput);
        let each: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
        e2e.add(
            "setup_s",
            median(setups),
            "s",
            format!("median of [{}]", each.join(", ")),
        );
        Outcome {
            attempted: main.sent as u64,
            failed: main.failed as u64,
            problems: Vec::new(),
            notes: vec![main.line("window")],
            e2e,
            layers: None,
            tracer: None,
            workers,
        }
    }

    pub fn add_traced(&mut self, traced: &Summary, layers: Metrics) {
        self.attempted += traced.sent as u64;
        self.failed += traced.failed as u64;
        self.notes.push(traced.line("traced window"));
        self.layers = Some(layers);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ref_before = host::ref_ms();
    let outcome = match args.workload.as_str() {
        "archive_i8_tta" => archive::run(&args),
        "pan_streams" => streams::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let mut out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let ref_ms = median(&[ref_before, host::ref_ms()]);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let host_line = format!(
        "host: nproc {nproc} gemm_threads {} pool_workers {} ref_ms {ref_ms:.3} PLATTER_THREADS {}",
        platter_tensor::gemm::effective_threads(),
        out.workers,
        std::env::var("PLATTER_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    out.notes.insert(
        0,
        format!(
            "workload {} seed {} seconds {} trace {}",
            args.workload, args.seed, args.seconds, args.trace as u8
        ),
    );
    out.notes.insert(1, host_line);
    let peak = host::peak_rss_mb();
    out.e2e.add("peak_rss_mb", peak, "MB", "VmHWM");

    let metrics = match (args.trace, out.layers.take()) {
        (true, Some(mut layers)) => {
            layers.add(
                "host.ref_ms",
                ref_ms,
                "ms",
                "fixed loop outside the program",
            );
            for m in &out.e2e.0 {
                out.notes.push(format!(
                    "untraced {} = {:.4} {} ({})",
                    m.name, m.value, m.unit, m.note
                ));
            }
            if let Some(tracer) = &out.tracer {
                let path = PathBuf::from(".bench_trace")
                    .join(format!("{}-seed{}.json", args.workload, args.seed));
                let host = HostRecord {
                    workload: args.workload.clone(),
                    seed: args.seed,
                    seconds: args.seconds,
                    nproc,
                    gemm_threads: platter_tensor::gemm::effective_threads(),
                    pool_workers: out.workers,
                };
                match tracer.write(&path, host) {
                    Ok(()) => out
                        .notes
                        .push(format!("spans written to {}", path.display())),
                    Err(e) => out.problems.push(e),
                }
            }
            layers
        }
        _ => std::mem::take(&mut out.e2e),
    };
    let result = RunResult {
        attempted: out.attempted,
        failed: out.failed,
        problems: out.problems,
        metrics,
        notes: out.notes,
    };
    if !report::emit(result) {
        std::process::exit(1);
    }
}
