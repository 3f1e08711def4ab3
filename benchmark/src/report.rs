//! Command line, result files, and the `run` / `repeat` drivers.
//!
//! ```text
//! vpbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! vpbench run    [--seed <n>] [--seconds <s>] [--trace] [--smoke]
//! vpbench repeat [--sets <k>] [--seed <n>] [--seconds <s>] [--smoke]
//! ```
//!
//! The first form runs one workload in this process and prints one
//! JSON object as its last line of output (the form `BENCHMARK.json`'s
//! `command` is completed to). `run` and `repeat` start one child
//! process per workload so that `peak_rss_mb` and allocator state do
//! not leak from one workload into the next.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::json::{obj, Json};
use crate::metrics::{self, Metric, DEMOTED, END_TO_END, EXTRA, PER_LAYER, WORKLOADS};
use crate::trace::Tracer;
use crate::{out_dir, run_workload, Outcome, RunCfg, Scale};

/// Measured seconds of `run` / `repeat` when `--seconds` is absent;
/// equals `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Measured seconds at `--smoke`.
const SMOKE_SECONDS: f64 = 2.0;
/// Set-up repeats of an untraced run (`setup_s` is their median).
const SETUPS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    sets: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        sets: 2,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--sets" => {
                a.sets = value("a count")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?;
                if a.sets < 2 {
                    return Err("--sets must be at least 2".into());
                }
            }
            "--smoke" => a.smoke = true,
            "--trace" => {
                // `--trace` alone (run mode) or `--trace 0|1`.
                a.trace = match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

impl Args {
    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

const USAGE: &str = "usage:
  vpbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  vpbench run    [--seed <n>] [--seconds <s>] [--trace] [--smoke]
  vpbench repeat [--sets <k>] [--seed <n>] [--seconds <s>] [--smoke]
workloads: paper_replay engine_batch serve_read serve_mixed";

pub fn main(args: &[String]) -> i32 {
    let (mode, rest) = match args.first().map(String::as_str) {
        Some("run") => ("run", &args[1..]),
        Some("repeat") => ("repeat", &args[1..]),
        _ => ("one", args),
    };
    let parsed = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vpbench: {e}\n{USAGE}");
            return 2;
        }
    };
    match mode {
        "run" => run_all(&parsed),
        "repeat" => repeat(&parsed),
        _ => match &parsed.workload {
            Some(w) if WORKLOADS.contains(&w.as_str()) => one(w, &parsed),
            Some(w) => {
                eprintln!("vpbench: unknown workload {w}\n{USAGE}");
                2
            }
            None => {
                eprintln!("{USAGE}");
                2
            }
        },
    }
}

// --- one workload, this process ---------------------------------------------

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(cfg: &RunCfg, traced: bool) -> Vec<(String, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let dir = crate::bench_dir();
    let commit = command_line(
        "git",
        &[
            "-C",
            &dir.to_string_lossy(),
            "rev-parse",
            "--short=12",
            "HEAD",
        ],
    );
    vec![
        ("nproc".into(), Json::from(nproc)),
        ("git_commit".into(), Json::from(commit)),
        ("rustc".into(), Json::from(command_line("rustc", &["-V"]))),
        ("seed".into(), Json::from(cfg.seed)),
        ("scale".into(), Json::from(cfg.scale.label())),
        ("seconds".into(), Json::from(cfg.seconds)),
        ("setups".into(), Json::from(cfg.setups)),
        ("traced".into(), Json::from(traced)),
    ]
}

fn metric_json(pairs: &[(String, f64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(name, value)| {
                let unit = metrics::find(name).map_or("", |m| m.unit);
                (
                    name.clone(),
                    obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::from(unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The names a workload's untraced run must emit, in listing order.
fn expected_end_to_end(workload: &str) -> Vec<&'static Metric> {
    END_TO_END
        .iter()
        .chain(EXTRA.iter().filter(|m| m.reported_by(workload)))
        .collect()
}

/// Orders `have` like `want` and insists that the two name sets match.
fn in_listing_order(
    what: &str,
    want: &[&'static Metric],
    have: &[(String, f64)],
) -> Vec<(String, f64)> {
    for (name, _) in have {
        assert!(
            want.iter().any(|m| m.name == name),
            "{what}: emitted a metric that is not listed: {name}"
        );
    }
    want.iter()
        .map(|m| {
            let v = have
                .iter()
                .find(|(n, _)| n == m.name)
                .unwrap_or_else(|| panic!("{what}: listed metric {} was not emitted", m.name))
                .1;
            (m.name.to_owned(), v)
        })
        .collect()
}

/// One finished run of one workload: the result file's contents and
/// what the result line needs.
pub struct Finished {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The run's metrics (end-to-end or per-layer), in listing order.
    pub listed: Vec<(String, f64)>,
    /// Where and how the numbers were taken.
    pub provenance: Json,
    /// `out/<file name>` → document.
    pub files: Vec<(String, Json)>,
}

/// End-to-end metrics of `out` in listing order, `failed_share` added.
fn end_to_end_of(out: &Outcome) -> Vec<(String, f64)> {
    let mut have = out.metrics.clone();
    have.push(("failed_share".into(), out.failed_share()));
    in_listing_order(out.workload, &expected_end_to_end(out.workload), &have)
}

/// The untraced run: every end-to-end metric the workload reports.
pub fn untraced(workload: &str, cfg: &RunCfg) -> Finished {
    let out = run_workload(workload, cfg, &mut Tracer::off());
    let listed = end_to_end_of(&out);
    let mut prov = provenance(cfg, false);
    prov.extend(out.notes.iter().cloned());
    let provenance = Json::Obj(prov);
    let file = obj(vec![
        ("workload", Json::from(out.workload)),
        ("provenance", provenance.clone()),
        ("correct", Json::from(out.wrong == 0)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("wrong_answers", Json::from(out.wrong)),
        ("metrics", metric_json(&listed)),
        ("samples", Json::Obj(out.samples.clone())),
    ]);
    Finished {
        workload: workload.to_owned(),
        correct: out.wrong == 0,
        attempted: out.attempted,
        failed: out.failed,
        listed,
        provenance,
        files: vec![(format!("{workload}.json"), file)],
    }
}

/// The traced run of `workload`: every per-layer metric.
///
/// Per-layer numbers come from spans and probe replays around the
/// workload's own calls. A layer the workload does not exercise (the
/// WAL under `serve_read`, the wire under `paper_replay`) is measured
/// by a smoke-scale traced run of the workload that does, so that
/// every per-layer metric is a measurement on every workload; the
/// result file records where each number came from. The workload is
/// also run untraced, once, to price the tracing itself.
pub fn traced(workload: &str, cfg: &RunCfg) -> Finished {
    let origin = Instant::now();
    let single = RunCfg {
        setups: 1,
        ..cfg.clone()
    };
    let side = RunCfg {
        seconds: SMOKE_SECONDS,
        scale: Scale::Smoke,
        ..single.clone()
    };
    let plain = run_workload(workload, &single, &mut Tracer::off());

    let mut layers: Vec<(String, f64)> = Vec::new();
    let mut sources: Vec<(String, Json)> = Vec::new();
    let mut merge = |from: &Outcome| {
        for (name, value) in &from.layers {
            layers.retain(|(n, _)| n != name);
            layers.push((name.clone(), *value));
            sources.retain(|(n, _)| n != name);
            sources.push((name.clone(), Json::from(from.workload)));
        }
    };
    let mut wrong = plain.wrong;
    for other in WORKLOADS.iter().filter(|w| **w != workload) {
        let out = run_workload(other, &side, &mut Tracer::new(true, origin));
        wrong += out.wrong;
        merge(&out);
    }
    let mut tracer = Tracer::new(true, origin);
    let mut main = run_workload(workload, &single, &mut tracer);
    wrong += main.wrong;
    // What tracing costs: the worse of the two headline latencies,
    // traced over untraced.
    let overhead = ["query_p50_us", "update_us_per_obj"]
        .iter()
        .filter_map(|m| Some(main.get(m)? / plain.get(m)? - 1.0))
        .fold(f64::MIN, f64::max);
    main.layer("trace.overhead_share", overhead);
    // The end-to-end metrics too unsteady to carry a bound ride along
    // here, from the untraced pass.
    for name in DEMOTED {
        let v = plain.get(name).expect("every workload reports it");
        main.layer(&format!("untraced.{name}"), v);
    }
    merge(&main);

    let want: Vec<&'static Metric> = PER_LAYER.iter().collect();
    let listed = in_listing_order(workload, &want, &layers);
    let mut prov = provenance(&single, true);
    prov.extend(main.notes.iter().cloned());
    let provenance = Json::Obj(prov);
    let result = obj(vec![
        ("workload", Json::from(workload)),
        ("provenance", provenance.clone()),
        ("correct", Json::from(wrong == 0)),
        ("attempted", Json::from(main.attempted)),
        ("failed", Json::from(main.failed)),
        ("layers", metric_json(&listed)),
        ("layer_source", Json::Obj(sources)),
        ("end_to_end_traced", metric_json(&end_to_end_of(&main))),
        ("end_to_end_untraced", metric_json(&end_to_end_of(&plain))),
    ]);
    let spans = obj(vec![
        ("workload", Json::from(workload)),
        ("seed", Json::from(cfg.seed)),
        ("spans", tracer.to_json()),
    ]);
    Finished {
        workload: workload.to_owned(),
        correct: wrong == 0,
        attempted: main.attempted,
        failed: main.failed,
        listed,
        provenance,
        files: vec![
            (format!("{workload}-traced.json"), result),
            (format!("trace-{workload}.json"), spans),
        ],
    }
}

/// The contract's result line: exactly `correct`, `attempted`,
/// `failed`, `metrics`, the latter holding exactly `listed`.
fn result_line(f: &Finished, listed: &[Metric]) -> String {
    let metrics: Vec<(String, f64)> = listed
        .iter()
        .map(|m| {
            let v = f
                .listed
                .iter()
                .find(|(n, _)| n == m.name)
                .unwrap_or_else(|| panic!("{}: no value for {}", f.workload, m.name))
                .1;
            assert!(v.is_finite(), "{}: {} is not a number", f.workload, m.name);
            (m.name.to_owned(), v)
        })
        .collect();
    obj(vec![
        ("correct", Json::from(f.correct)),
        ("attempted", Json::from(f.attempted.max(1))),
        ("failed", Json::from(f.failed)),
        ("metrics", metric_json(&metrics)),
    ])
    .render()
}

fn one(workload: &str, args: &Args) -> i32 {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds(),
        scale: args.scale(),
        setups: SETUPS,
    };
    let (f, listed) = if args.trace {
        (traced(workload, &cfg), PER_LAYER)
    } else {
        (untraced(workload, &cfg), END_TO_END)
    };
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create out dir");
    for (name, doc) in &f.files {
        let path = dir.join(name);
        std::fs::write(&path, doc.render() + "\n")
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    println!(
        "{workload}{}  seed {}  {} s  {}  ({} operations, {} failed, answers {})",
        if args.trace { " (traced)" } else { "" },
        cfg.seed,
        cfg.seconds,
        cfg.scale.label(),
        f.attempted,
        f.failed,
        if f.correct { "correct" } else { "WRONG" },
    );
    println!("provenance: {}", f.provenance.render());
    for (name, value) in &f.listed {
        let (unit, better) = metrics::find(name).map_or(("", ""), |m| (m.unit, m.better.label()));
        println!("  {name:<36} {value:>16.4} {unit:<6} ({better} is better)");
    }
    // A smoke run is a self-test: some tails have too few samples to
    // be numbers, and nothing reads its result line.
    if cfg.scale == Scale::Full {
        println!("{}", result_line(&f, listed));
    }
    i32::from(!f.correct)
}

// --- the whole set, one child per workload ----------------------------------

fn child(workload: &str, args: &Args, trace: bool) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `status` waits for the child; nothing is left running.
    match cmd.status() {
        Ok(s) => s.success(),
        Err(e) => {
            eprintln!("vpbench: cannot start child for {workload}: {e}");
            false
        }
    }
}

fn run_all(args: &Args) -> i32 {
    let mut ok = true;
    for w in WORKLOADS {
        ok &= child(w, args, args.trace);
    }
    if ok {
        println!(
            "vpbench run: all four workloads correct; results in {}",
            out_dir().display()
        );
        0
    } else {
        println!("vpbench run: FAILED (a workload gave a wrong answer or could not run)");
        1
    }
}

fn read_metrics(path: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc
        .get("metrics")
        .map(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// Relative gap between the extremes of `values`, over the smaller.
fn gap(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if hi == lo {
        0.0
    } else {
        (hi - lo) / lo.abs().max(f64::MIN_POSITIVE)
    }
}

/// One metric × workload row of `repeat`: does it repeat?
fn verdict(m: &Metric, bound: f64, values: &[f64]) -> Result<(), String> {
    if m.exact && values.windows(2).any(|w| w[0].to_bits() != w[1].to_bits()) {
        return Err("exact count differs".into());
    }
    let g = gap(values);
    if g > bound {
        return Err(format!("gap {:.2} % exceeds bound", g * 100.0));
    }
    Ok(())
}

/// One set of `repeat`: each workload's metrics, in `WORKLOADS` order.
type SetOfRuns = Vec<Vec<(String, f64)>>;

fn repeat(args: &Args) -> i32 {
    let mut sets: Vec<SetOfRuns> = Vec::new();
    for set in 0..args.sets {
        println!("=== set {} of {} ===", set + 1, args.sets);
        let mut this = Vec::new();
        for w in WORKLOADS {
            if !child(w, args, false) {
                println!("vpbench repeat: {w} failed in set {}", set + 1);
                return 1;
            }
            match read_metrics(&out_dir().join(format!("{w}.json"))) {
                Ok(m) => this.push(m),
                Err(e) => {
                    println!("vpbench repeat: {e}");
                    return 1;
                }
            }
        }
        sets.push(this);
    }
    println!(
        "\n{:<14} {:<26} {:>7} {:>7}  values",
        "workload", "metric", "gap %", "bound %"
    );
    let mut bad = 0;
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for m in expected_end_to_end(w) {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|s| s[wi].iter().find(|(n, _)| n == m.name).map(|(_, v)| *v))
                .collect();
            // The listed metrics' bounds equal `BENCHMARK.json`'s (a
            // self-test holds the two together).
            let bound = m.bound;
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            let status = match verdict(m, bound, &values) {
                Ok(()) => String::new(),
                Err(why) => {
                    bad += 1;
                    format!("  <-- {why}")
                }
            };
            println!(
                "{:<14} {:<26} {:>7.2} {:>7.1}  {}{}{status}",
                w,
                m.name,
                gap(&values) * 100.0,
                bound * 100.0,
                shown.join("  "),
                if m.exact { "  (exact)" } else { "" },
            );
        }
    }
    if bad == 0 {
        println!("vpbench repeat: every metric repeats within its bound");
        0
    } else {
        println!("vpbench repeat: {bad} metric(s) do not repeat");
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_contract_form_and_rejects_junk() {
        let a = parse(&strs(&[
            "--workload",
            "serve_read",
            "--seed",
            "42",
            "--seconds",
            "7",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_read"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(7.0), true));
        let b = parse(&strs(&["--trace", "0", "--smoke"])).unwrap();
        assert!(!b.trace && b.smoke);
        assert!(parse(&strs(&["--trace"])).unwrap().trace);
        assert!(parse(&strs(&["--seconds", "0"])).is_err());
        assert!(parse(&strs(&["--bogus"])).is_err());
        assert!(parse(&strs(&["--sets", "1"])).is_err());
    }

    #[test]
    fn repeat_verdicts() {
        let timing = &END_TO_END[1];
        assert!(verdict(timing, 0.10, &[100.0, 109.0]).is_ok());
        assert!(verdict(timing, 0.10, &[100.0, 111.0]).is_err());
        let exact = END_TO_END.iter().find(|m| m.exact).unwrap();
        assert!(verdict(exact, 0.10, &[12.5, 12.5]).is_ok());
        assert!(verdict(exact, 0.10, &[12.5, 12.500001]).is_err());
        let failed = EXTRA.iter().find(|m| m.name == "failed_share").unwrap();
        assert!(verdict(failed, failed.bound, &[0.0, 0.0]).is_ok());
        assert!(verdict(failed, failed.bound, &[0.0, 0.001]).is_err());
    }
}
