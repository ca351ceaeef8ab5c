//! Layer-ledger benchmark for the SMALL reproduction.
//!
//! One run measures one workload for `--seconds` seconds and prints
//! every metric by name with its unit, then, as the last line of
//! standard output, one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! run that times each layer from outside, through its public functions
//! and trait boundaries, and reports the per-layer metrics. Any failed
//! check makes the exit code nonzero. `--report` runs every workload
//! several times, interleaved, in child processes and prints the spread
//! of each metric. See `README.md` beside this file.

mod affinity;
mod json;
mod ledger;
mod lisp;
mod serve;
mod sim;
mod stats;

use stats::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] = [
    "lisp-compiled",
    "sim-pressure",
    "serve-resident",
    "serve-evict",
];

/// Spans a traced run keeps in memory before it only counts drops.
pub const SPAN_CAP: usize = 200_000;

/// The end-to-end metrics, in print order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("req_p50_us", "us"),
    ("req_p90_us", "us"),
    ("vcycles_per_op", "vcycle/op"),
    ("peak_rss_mb", "MiB"),
    ("success_ratio", "ratio"),
];

/// Every per-layer metric, in print order. A traced run reports each
/// of them; a layer that does not run on the workload reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("workloads.gen_ms", "ms"),
    ("workloads.events", "count"),
    ("sexpr.parse_ns", "ns"),
    ("sexpr.print_ns", "ns"),
    ("sexpr.calls", "count"),
    ("lisp.compiler.compile_ns", "ns"),
    ("lisp.compiler.calls", "count"),
    ("lisp.vm.self_ns", "ns"),
    ("lisp.vm.instructions", "count"),
    ("lisp.vm.ns_per_instr", "ns"),
    ("lisp.vm.fn_calls", "count"),
    ("core.lp.self_ns", "ns"),
    ("core.lp.calls.car", "count"),
    ("core.lp.calls.cdr", "count"),
    ("core.lp.calls.cons", "count"),
    ("core.lp.calls.rplac", "count"),
    ("core.lp.calls.retain", "count"),
    ("core.lp.calls.release", "count"),
    ("core.lp.calls.read_in", "count"),
    ("core.lp.calls.write_out", "count"),
    ("core.lp.calls.equal", "count"),
    ("core.lp.hit_rate", "ratio"),
    ("core.lp.inline_cache_hit_rate", "ratio"),
    ("core.lp.refops", "count"),
    ("core.lp.reclaim_ns", "ns"),
    ("core.lp.pseudo_overflows", "count"),
    ("core.lp.compressed", "count"),
    ("core.lp.cycle_collections", "count"),
    ("heap.self_ns", "ns"),
    ("heap.calls.read_in", "count"),
    ("heap.calls.split", "count"),
    ("heap.calls.merge", "count"),
    ("heap.calls.free_object", "count"),
    ("heap.calls.extract", "count"),
    ("heap.calls.peek", "count"),
    ("heap.ns_per_call", "ns"),
    ("simulator.self_ns", "ns"),
    ("simulator.ns_per_event", "ns"),
    ("profile.sink_ns", "ns"),
    ("persist.suspend_ns", "ns"),
    ("persist.resume_ns", "ns"),
    ("persist.blob_bytes", "bytes"),
    ("persist.resumes_per_req", "ratio"),
    ("serve.protocol.decode_ns", "ns"),
    ("serve.protocol.encode_ns", "ns"),
    ("serve.shard.busy_us", "us"),
    ("serve.shard.wait_us", "us"),
    ("serve.shard.queue_depth", "count"),
    ("serve.shard.sheds", "count"),
    ("serve.repl.wal_append_ns", "ns"),
    ("serve.repl.wal_bytes", "bytes"),
    ("bench.clock_read_ns", "ns"),
    ("bench.lp_crossing_ns", "ns"),
    ("bench.heap_crossing_ns", "ns"),
    ("bench.ops_per_s_untraced", "1/s"),
    ("bench.ops_per_s_traced", "1/s"),
];

/// Command-line arguments of one run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans_out: Option<PathBuf>,
}

/// What one run measured and whether its outputs were correct.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

/// The per-layer metric set of a traced run: every name of
/// [`PER_LAYER`], 0 until a workload sets it.
pub struct Layers(Vec<(&'static str, &'static str, f64)>);

impl Default for Layers {
    fn default() -> Layers {
        Layers(PER_LAYER.iter().map(|&(n, u)| (n, u, 0.0)).collect())
    }
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        slot.2 = value;
    }

    pub fn into_metrics(self) -> Metrics {
        let mut m = Metrics::default();
        for (n, u, v) in self.0 {
            m.put(n, v, u);
        }
        m
    }
}

/// Report what the timing itself costs (subtracted from self times).
pub fn set_calibration(m: &mut Layers, cal: &ledger::Calibration) {
    m.set("bench.clock_read_ns", cal.clock_ns);
    m.set("bench.lp_crossing_ns", cal.lp.inside + cal.lp.outside);
    m.set("bench.heap_crossing_ns", cal.heap.inside + cal.heap.outside);
}

/// Where a traced run writes its spans.
pub fn spans_path(args: &RunArgs) -> PathBuf {
    args.spans_out.clone().unwrap_or_else(|| {
        PathBuf::from(format!(
            "ledgerbench/out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ))
    })
}

fn usage() -> String {
    format!(
        "usage: ledgerbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]\n       ledgerbench --report [--runs <n>] [--seed <n>] [--seconds <s>]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(RunArgs, Option<usize>), String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans_out: None,
    };
    let mut report = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans-out" => args.spans_out = Some(PathBuf::from(value()?)),
            "--report" => report = Some(report.unwrap_or(5)),
            "--runs" => {
                let n: usize = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                report = Some(n.max(1));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if report.is_none() && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown or missing --workload {:?}", args.workload));
    }
    Ok((args, report))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print_outcome(args: &RunArgs, out: &Outcome) {
    for note in &out.notes {
        println!("# {note}");
    }
    println!(
        "# {} seed {} {}: {} attempted, {} failed (fail_ratio {})",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "end-to-end" },
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for m in &out.metrics.0 {
        let mut line = format!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
        if let Some(s) = m.spread {
            line.push_str(&format!(
                "   median of {} (q1 {:.4}, q3 {:.4})",
                s.n, s.q1, s.q3
            ));
        }
        if let Some(p) = m.percentile {
            line.push_str(&format!("   {} samples, {} beyond", p.n, p.beyond));
        }
        if let Some(pool) = m.pool {
            line.push_str(&format!(", the fastest of {pool}"));
        }
        println!("{line}");
    }
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
}

fn run_one(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = match args.workload.as_str() {
        "lisp-compiled" => lisp::run(args)?,
        "sim-pressure" => sim::run(args)?,
        "serve-resident" => serve::run(args, false)?,
        "serve-evict" => serve::run(args, true)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if !args.trace {
        let rss = stats::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
        out.metrics.put("peak_rss_mb", rss, "MiB");
        let success = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
        out.metrics.put("success_ratio", success, "ratio");
    }
    // Every run reports exactly its mode's metric set.
    let want: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let mut sorted = Metrics::default();
    for name in want {
        let m = out
            .metrics
            .0
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("{} did not report {name}", args.workload))?;
        sorted.0.push(m.clone());
    }
    out.metrics = sorted;
    Ok(out)
}

fn main() -> ExitCode {
    let (args, report) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = report {
        return match report_mode(&args, runs) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("report: {e}");
                ExitCode::from(2)
            }
        };
    }
    match run_one(&args) {
        Ok(out) => {
            print_outcome(&args, &out);
            if out.correct && out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            ExitCode::from(2)
        }
    }
}

/// One child run's parsed result line.
struct ChildResult {
    ok: bool,
    metrics: Vec<(String, f64, String)>,
}

fn child(args: &RunArgs, workload: &str, seed: u64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} seed {seed}: no output"))?;
    let v = json::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    let ok = v.get("correct").and_then(json::Value::as_bool) == Some(true)
        && v.get("failed").and_then(json::Value::as_f64) == Some(0.0)
        && out.status.success();
    let mut metrics = Vec::new();
    if let Some(json::Value::Object(fields)) = v.get("metrics") {
        for (name, m) in fields {
            let value = m
                .get("value")
                .and_then(json::Value::as_f64)
                .unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(json::Value::as_str)
                .unwrap_or("")
                .to_string();
            metrics.push((name.clone(), value, unit));
        }
    }
    Ok(ChildResult { ok, metrics })
}

/// Run every workload `runs` times in child processes, interleaved
/// (workload order rotates each round), then one traced run each, and
/// print the spread of every metric.
fn report_mode(args: &RunArgs, runs: usize) -> Result<bool, String> {
    let mut results: Vec<Vec<ChildResult>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    let mut all_ok = true;
    for r in 0..runs {
        for k in 0..WORKLOADS.len() {
            let w = (k + r) % WORKLOADS.len();
            let res = child(args, WORKLOADS[w], args.seed + r as u64, false)?;
            all_ok &= res.ok;
            results[w].push(res);
        }
    }
    for (w, workload) in WORKLOADS.iter().enumerate() {
        let ok = results[w].iter().filter(|r| r.ok).count();
        println!("== {workload}: {ok}/{} runs correct", results[w].len());
        println!(
            "{:<16} {:>10} {:>14} {:>14} {:>14} {:>9} {:>5}",
            "metric", "unit", "median", "q1", "q3", "iqr/med", "runs"
        );
        for (name, unit) in END_TO_END {
            let vals: Vec<f64> = results[w]
                .iter()
                .filter_map(|r| r.metrics.iter().find(|m| m.0 == name).map(|m| m.1))
                .collect();
            let s = stats::Spread::of(&vals);
            println!(
                "{:<16} {:>10} {:>14.4} {:>14.4} {:>14.4} {:>9.4} {:>5}",
                name,
                unit,
                s.median,
                s.q1,
                s.q3,
                s.rel_iqr(),
                s.n
            );
        }
    }
    println!("== traced runs (per-layer metrics; seed {})", args.seed);
    for workload in WORKLOADS {
        let res = child(args, workload, args.seed, true)?;
        all_ok &= res.ok;
        let get = |n: &str| {
            res.metrics
                .iter()
                .find(|m| m.0 == n)
                .map_or(f64::NAN, |m| m.1)
        };
        println!(
            "-- {workload}: ops_per_s untraced {:.1}, traced {:.1} (overhead {:.1}%), clock read {:.2} ns",
            get("bench.ops_per_s_untraced"),
            get("bench.ops_per_s_traced"),
            100.0 * (1.0 - get("bench.ops_per_s_traced") / get("bench.ops_per_s_untraced")),
            get("bench.clock_read_ns")
        );
        for (name, value, unit) in &res.metrics {
            println!("   {name:<32} {value:>16.4} {unit}");
        }
    }
    Ok(all_ok)
}
