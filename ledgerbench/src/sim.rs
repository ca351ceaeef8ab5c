//! `sim-pressure`: the Chapter-5 trace-driven simulator over the
//! Table 5.1 LYRA synthetic trace (160,933 primitives) with a 1024-entry
//! LPT. The working set exceeds the table, so reclamation, split/merge
//! and the heap controller carry much of the host time; no VM, compiler
//! or serving code runs. The LPT starts empty on every pass, as in the
//! thesis. `--seed` seeds both the trace generator and the simulator.

use crate::affinity::CpuRotation;
use crate::ledger::{
    Calibration, Ledger, Snap, SpanLog, TimedController, TimedSink, HEAP_CALLS, LP_CALLS,
};
use crate::stats::{ns, Metrics, Spread};
use crate::{Outcome, RunArgs};
use small_core::{ListProcessor, LpConfig};
use small_heap::{PersistableController, TwoPointerController};
use small_metrics::{EventSink, NoopSink};
use small_persist::{decode_checkpoint, CrashStore};
use small_profile::SpanSink;
use small_simulator::{run_sim_on_controller, run_sim_resumable, SimParams, SimResult};
use small_trace::Trace;
use small_workloads::synthetic;
use std::rc::Rc;
use std::time::{Duration, Instant};

const TABLE: usize = 1024;
/// Trace generations behind `setup_s`.
const SETUP_REPS: usize = 9;
/// Timed passes between trace generations during the measured window.
const SETUP_EVERY: usize = 4;
/// Free-queue bound of the simulator's own heap controller.
const FREE_QUEUE: usize = 256;

fn sim_params(seed: u64) -> SimParams {
    SimParams::default().with_table(TABLE).with_seed(seed)
}

fn generate(seed: u64) -> Trace {
    let mut params = synthetic::table_5_1("lyra");
    params.seed = seed;
    synthetic::generate(&params)
}

/// One pass over `trace` on a fresh LP reporting to `sink`.
fn pass<S: EventSink>(trace: &Trace, seed: u64, sink: S) -> (f64, SimResult, S) {
    let params = sim_params(seed);
    let controller = TwoPointerController::new(params.heap_cells, FREE_QUEUE);
    let t0 = Instant::now();
    let (r, _, sink) = run_sim_on_controller(trace, params, None, controller, sink);
    (t0.elapsed().as_secs_f64(), r, sink)
}

fn profiled(trace: &Trace) -> SpanSink {
    SpanSink::new(&trace.name).summary_only()
}

/// Primitives of the trace a pass left unexecuted: everything past an
/// abort (true overflow or a typed failure) counts as failed.
fn unexecuted(r: &SimResult, prims: usize) -> u64 {
    if r.true_overflow || r.failure.is_some() || r.prims_executed < prims {
        (prims - r.prims_executed.min(prims)) as u64
    } else {
        0
    }
}

/// The LPT audit the timed passes cannot reach (the simulator tears its
/// LP down): a durable run of the same trace and parameters ends in a
/// final checkpoint, which is restored and audited. The durable run
/// settles deferred releases at every event boundary, so its counters
/// differ slightly from a plain pass's; it must still run the whole
/// trace.
fn audit(trace: &Trace, seed: u64, prims: usize) -> Result<(), String> {
    let params = sim_params(seed);
    let mut store = CrashStore::new();
    let r = run_sim_resumable(trace, params, &mut store).map_err(|e| e.to_string())?;
    if unexecuted(&r, prims) > 0 {
        return Err(format!(
            "durable run stopped after {} of {prims} primitives",
            r.prims_executed
        ));
    }
    let bytes = store.checkpoint().ok_or("durable run left no checkpoint")?;
    let ckpt = decode_checkpoint(bytes).map_err(|e| e.to_string())?;
    let controller =
        TwoPointerController::import_image(&ckpt.controller).map_err(|e| format!("{e:?}"))?;
    let config = LpConfig {
        table_size: params.table_size,
        compression: params.compression,
        decrement: params.decrement,
        refcounts: params.refcounts,
        overflow: params.overflow,
        ..LpConfig::default()
    };
    let lp = ListProcessor::from_image(controller, config, &ckpt.lp, NoopSink)
        .map_err(|e| format!("{e:?}"))?;
    let report = lp.audit();
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("LPT audit failed: {report:?}"))
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut gen_secs = Vec::with_capacity(SETUP_REPS);
    let mut trace = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let t = generate(args.seed);
        gen_secs.push(t0.elapsed().as_secs_f64());
        trace = Some(t);
    }
    let trace = trace.expect("at least one generation");
    let prims = trace.primitive_count();
    if args.trace {
        return traced(args, &trace, prims, &gen_secs);
    }

    // The first pass settles lazy state and fixes the reference
    // counters every later pass must repeat; it is not timed.
    let (_, first, sink) = pass(&trace, args.seed, profiled(&trace));
    let profile = sink.finish();
    let mut attempted = prims as u64;
    let mut failed = unexecuted(&first, prims);
    let mut deterministic = true;
    let mut pass_secs = Vec::new();
    let mut cpus = CpuRotation::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline || pass_secs.len() < 3 {
        cpus.advance();
        // Regenerating the trace every few passes spreads the `setup_s`
        // samples over the whole run instead of bunching them at its
        // start; the same seed gives the same trace.
        if pass_secs.len() % SETUP_EVERY == 0 {
            let t0 = Instant::now();
            let again = generate(args.seed);
            gen_secs.push(t0.elapsed().as_secs_f64());
            if again.primitive_count() != prims {
                deterministic = false;
            }
        }
        let (secs, r, _) = pass(&trace, args.seed, profiled(&trace));
        attempted += prims as u64;
        failed += unexecuted(&r, prims);
        deterministic &= r.lpt == first.lpt;
        pass_secs.push(secs);
    }
    let audited = audit(&trace, args.seed, prims);
    let mut m = Metrics::default();
    m.put_median("setup_s", &gen_secs, "s");
    crate::stats::put_pass_timing(&mut m, prims as f64, &pass_secs);
    m.put(
        "vcycles_per_op",
        profile.timing.total as f64 / profile.timing.ops as f64,
        "vcycle/op",
    );
    let mut notes = vec![format!(
        "sim-pressure: {} timed passes over {prims} primitives; per pass {} pseudo-overflows, {} entries compressed, LPT hit rate {:.4}",
        pass_secs.len(),
        first.lpt.pseudo_overflows,
        first.lpt.compressed,
        first.lpt.hit_rate()
    )];
    notes.push(crate::stats::pass_profile(&pass_secs));
    if let Err(e) = &audited {
        notes.push(format!("FAILED: {e}"));
    }
    Ok(Outcome {
        correct: failed == 0 && deterministic && audited.is_ok(),
        attempted,
        failed,
        metrics: m,
        notes,
    })
}

fn traced(
    args: &RunArgs,
    trace: &Trace,
    prims: usize,
    gen_secs: &[f64],
) -> Result<Outcome, String> {
    let cal = Calibration::measure();
    let mut spans = SpanLog::new(crate::SPAN_CAP);
    let ledger = Rc::new(Ledger::default());
    let (_, first, _) = pass(trace, args.seed, profiled(trace));
    let (mut attempted, mut failed) = (prims as u64, unexecuted(&first, prims));
    let (mut with_sink, mut without_sink, mut traced_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut passes = 0u64;
    let mut inner = Snap::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut k = 0usize;
    // Interleave profiled, unprofiled and traced passes.
    while Instant::now() < deadline || k < 6 {
        let r = match k % 3 {
            0 => {
                let (secs, r, _) = pass(trace, args.seed, profiled(trace));
                with_sink.push(secs * 1e9);
                r
            }
            1 => {
                let (secs, r, _) = pass(trace, args.seed, NoopSink);
                without_sink.push(secs * 1e9);
                r
            }
            _ => {
                let params = sim_params(args.seed);
                let controller = TimedController {
                    inner: TwoPointerController::new(params.heap_cells, FREE_QUEUE),
                    ledger: Rc::clone(&ledger),
                };
                let sink = TimedSink::new(profiled(trace), Rc::clone(&ledger), true);
                let s0 = spans.now();
                let before = ledger.snap();
                let t0 = Instant::now();
                let (r, _, _) = run_sim_on_controller(trace, params, None, controller, sink);
                traced_ns.push(ns(t0.elapsed()));
                inner.add(ledger.snap().since(before));
                spans.close("simulator.pass", None, passes, s0);
                passes += 1;
                r
            }
        };
        attempted += prims as u64;
        failed += unexecuted(&r, prims);
        k += 1;
    }

    let n = passes as f64;
    let l = &*ledger;
    let heap_calls = l.heap_total_calls() as f64;
    let total: f64 = traced_ns.iter().sum();
    // Heap calls outside an LP bracket (settling deferred releases
    // between operations) leave the simulator's time with the LP's.
    let sim_self = cal.caller_self(total, inner) / n;
    let lp_self = cal.lp_self(l) / n;
    let heap_self = cal.heap_self(l) / n;
    let per = |c: u64| (c / passes) as f64;

    let mut m = crate::Layers::default();
    m.set("workloads.gen_ms", Spread::of(gen_secs).median * 1e3);
    m.set("workloads.events", trace.events.len() as f64);
    m.set("core.lp.self_ns", lp_self);
    for (k, name) in LP_CALLS.iter().enumerate() {
        m.set(&format!("core.lp.calls.{name}"), per(l.lp_calls[k].get()));
    }
    m.set("core.lp.hit_rate", first.lpt.hit_rate());
    let probes = l.cache_hits.get() + l.cache_misses.get();
    m.set(
        "core.lp.inline_cache_hit_rate",
        l.cache_hits.get() as f64 / probes.max(1) as f64,
    );
    m.set("core.lp.refops", first.lpt.refops as f64);
    m.set("core.lp.reclaim_ns", l.reclaim_ns.get() as f64 / n);
    m.set(
        "core.lp.pseudo_overflows",
        first.lpt.pseudo_overflows as f64,
    );
    m.set("core.lp.compressed", first.lpt.compressed as f64);
    m.set(
        "core.lp.cycle_collections",
        first.lpt.cycle_collections as f64,
    );
    m.set("heap.self_ns", heap_self);
    for (k, name) in HEAP_CALLS.iter().enumerate() {
        m.set(&format!("heap.calls.{name}"), per(l.heap_calls[k].get()));
    }
    m.set("heap.ns_per_call", heap_self * n / heap_calls.max(1.0));
    m.set("simulator.self_ns", sim_self);
    m.set(
        "simulator.ns_per_event",
        sim_self / trace.events.len() as f64,
    );
    m.set(
        "profile.sink_ns",
        Spread::of(&with_sink).median - Spread::of(&without_sink).median,
    );
    crate::set_calibration(&mut m, &cal);
    m.set(
        "bench.ops_per_s_untraced",
        prims as f64 / (Spread::of(&with_sink).median / 1e9),
    );
    m.set(
        "bench.ops_per_s_traced",
        prims as f64 / (Spread::of(&traced_ns).median / 1e9),
    );
    let path = crate::spans_path(args);
    spans
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m.into_metrics(),
        notes: vec![format!(
            "sim-pressure traced: {passes} traced, {} profiled, {} unprofiled passes; spans in {}",
            with_sink.len(),
            without_sink.len(),
            path.display()
        )],
    })
}
