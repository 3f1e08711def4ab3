//! `vpbench` — the repo's one benchmark. See `benchmark/README.md`.

mod awake;
mod engine;
mod engine_batch;
mod inputs;
mod json;
mod metrics;
mod pacer;
mod paper_replay;
mod probes;
mod report;
#[cfg(test)]
mod selftest;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::time::Instant;

use json::Json;
use trace::Tracer;

/// How much work a run does. `Smoke` is a self-test size and is never
/// recorded as a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// One workload run's parameters.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured phase. Paced workloads run this long;
    /// the in-process ones do an amount of work fixed by it.
    pub seconds: f64,
    pub scale: Scale,
    /// How many times set-up is repeated (`setup_s` is their median).
    pub setups: usize,
}

/// What one workload run produced.
pub struct Outcome {
    pub workload: &'static str,
    /// End-to-end metrics, by name.
    pub metrics: Vec<(String, f64)>,
    /// Per-layer metrics (traced runs only), by name.
    pub layers: Vec<(String, f64)>,
    /// Operations attempted, and those that failed: wrong answers,
    /// typed refusals, I/O or protocol errors.
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers alone (these make the run incorrect).
    pub wrong: u64,
    /// Workload-specific provenance.
    pub notes: Vec<(String, Json)>,
    /// Sample counts behind the percentiles.
    pub samples: Vec<(String, Json)>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            metrics: Vec::new(),
            layers: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: 0,
            notes: Vec::new(),
            samples: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
    }

    /// Sets (or replaces) a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        match self.layers.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.layers.push((name.to_owned(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.layers)
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_owned(), value));
    }

    pub fn sample_count(&mut self, key: &str, n: usize) {
        self.samples.push((key.to_owned(), Json::from(n)));
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A tail percentile the workload is sized to support: at full scale
/// too few samples beyond it is a sizing bug and stops the run; a smoke
/// run (never recorded) reports "not a number" instead.
pub fn tail(samples: &util::Samples, q: f64, scale: Scale, what: &str) -> f64 {
    match (samples.tail(q), scale) {
        (Some(v), _) => v,
        (None, Scale::Smoke) => f64::NAN,
        (None, Scale::Full) => panic!(
            "{what}: p{} of {} samples has fewer than {} beyond it",
            q * 100.0,
            samples.len(),
            util::MIN_BEYOND
        ),
    }
}

/// The benchmark's own directory (holds `out/`).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Runs one workload by name.
pub fn run_workload(name: &str, cfg: &RunCfg, tracer: &mut Tracer) -> Outcome {
    match name {
        "paper_replay" => paper_replay::run(cfg, tracer),
        "engine_batch" => engine_batch::run(cfg, tracer),
        "serve_read" => serve::run(serve::Mix::Read, cfg, tracer),
        "serve_mixed" => serve::run(serve::Mix::Mixed, cfg, tracer),
        other => panic!("unknown workload {other}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let started = Instant::now();
    let code = report::main(&args);
    eprintln!("vpbench: done in {:.1} s", started.elapsed().as_secs_f64());
    std::process::exit(code);
}
