//! `lisp-compiled`: the thesis programs SLANG and LYRA, compiled once in
//! set-up and run back to back, each on a fresh SMALL machine (VM over
//! `SmallBackend<TwoPointerController, SpanSink>`, default 2048-entry
//! LPT). VM dispatch and the LPT hit path do nearly all the work; the
//! simulator, persist and serve layers never run. The programs read
//! fixed inputs, so the seed does not apply.

use crate::affinity::CpuRotation;
use crate::ledger::{
    Calibration, Ledger, Snap, SpanLog, TimedBackend, TimedController, TimedSink, HEAP_CALLS,
    LP_CALLS,
};
use crate::stats::{ns, Metrics, Spread};
use crate::{Outcome, RunArgs};
use small_core::machine::SmallBackend;
use small_core::{ListProcessor, LpConfig, LptStats};
use small_heap::TwoPointerController;
use small_lisp::compiler::compile_forms;
use small_lisp::interp::PRELUDE;
use small_lisp::isa::Program;
use small_lisp::vm::{ListBackend, Vm, VmError, VmStats, VmValue};
use small_metrics::{EventSink, NoopSink};
use small_profile::SpanSink;
use small_sexpr::{parse_all, print, Interner, SExpr};
use small_workloads::{lyra, slang};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Backing heap per machine (the size the repository's end-to-end
/// tests run these programs on).
const HEAP_CELLS: usize = 1 << 18;
/// Instruction budget per program run; a runaway is a failed pass.
const BUDGET: u64 = 500_000_000;
/// Set-up repetitions behind `setup_s`.
const SETUP_REPS: usize = 21;

struct Prog {
    name: &'static str,
    program: Program,
    inputs: Vec<SExpr>,
}

struct Setup {
    interner: Interner,
    progs: Vec<Prog>,
}

/// Time spent in the set-up's own layers (traced run only).
#[derive(Default)]
struct SetupLedger {
    parse_ns: Vec<f64>,
    compile_ns: Vec<f64>,
}

/// Compile both programs and read their inputs in.
fn setup(spans: &mut Option<SpanLog>, led: &mut SetupLedger) -> Result<Setup, String> {
    let mut interner = Interner::new();
    let mut progs = Vec::new();
    let root = spans.as_mut().and_then(|s| s.open("setup", 0));
    for (name, source, inputs) in [
        (
            "slang",
            slang::source(),
            slang::inputs as fn(u32, &mut Interner) -> Vec<SExpr>,
        ),
        ("lyra", lyra::source(), lyra::inputs),
    ] {
        let t0 = Instant::now();
        let s0 = spans.as_ref().map_or(0, SpanLog::now);
        let forms = parse_all(&format!("{PRELUDE}\n{source}"), &mut interner)
            .map_err(|e| format!("{name}: parse: {e}"))?;
        led.parse_ns.push(ns(t0.elapsed()));
        if let Some(s) = spans.as_mut() {
            s.close("sexpr.parse", root, 0, s0);
        }
        let t1 = Instant::now();
        let s1 = spans.as_ref().map_or(0, SpanLog::now);
        let program =
            compile_forms(&forms, &mut interner).map_err(|e| format!("{name}: compile: {e}"))?;
        led.compile_ns.push(ns(t1.elapsed()));
        if let Some(s) = spans.as_mut() {
            s.close("lisp.compiler.compile", root, 0, s1);
        }
        let inputs = inputs(1, &mut interner);
        progs.push(Prog {
            name,
            program,
            inputs,
        });
    }
    if let Some(s) = spans.as_mut() {
        s.finish(root);
    }
    Ok(Setup { interner, progs })
}

/// The outputs each program must print: SLANG's one-hot decoder rows
/// and LYRA's interpreter outputs. Computed once, outside set-up time.
fn references() -> Vec<Vec<String>> {
    let slang_ref: Vec<String> = (0..10u32)
        .map(|v| print(&slang::expected_output(v), &Interner::new()))
        .collect();
    let run = lyra::run(1);
    let lyra_ref = run
        .outputs
        .iter()
        .map(|e| print(e, &run.interner))
        .collect();
    vec![slang_ref, lyra_ref]
}

/// Run one program to completion on `backend` and release everything
/// the machine still holds.
fn execute<B: ListBackend>(
    program: Program,
    inputs: Vec<SExpr>,
    backend: B,
) -> (Result<(), VmError>, Vm<B>) {
    let mut vm = Vm::new(program, backend);
    vm.input.extend(inputs);
    vm.set_budget(BUDGET);
    let r = vm.run().map(|v| {
        if let VmValue::List(id) = &v {
            vm.backend.release(id);
        }
    });
    vm.shutdown();
    (r, vm)
}

/// Post-run checks on one program: outputs, and an empty LPT once the
/// machine is shut down and lazy work drained.
struct RunCheck {
    ok: bool,
    stats: VmStats,
    lpt: LptStats,
    /// Nanoseconds per printed output (the `sexpr` print path).
    print_ns: Vec<f64>,
}

fn check<C: small_heap::HeapController, S: EventSink>(
    r: Result<(), VmError>,
    stats: VmStats,
    backend: &mut SmallBackend<C, S>,
    outputs: &[SExpr],
    expected: &[String],
    interner: &Interner,
) -> RunCheck {
    backend.lp.drain_unroots();
    backend.lp.drain_lazy();
    let mut print_ns = Vec::with_capacity(outputs.len());
    let printed: Vec<String> = outputs
        .iter()
        .map(|e| {
            let t0 = Instant::now();
            let s = print(e, interner);
            print_ns.push(ns(t0.elapsed()));
            s
        })
        .collect();
    RunCheck {
        ok: r.is_ok() && printed == expected && backend.lp.occupancy() == 0,
        stats,
        lpt: backend.lp.stats(),
        print_ns,
    }
}

/// One untraced SLANG+LYRA pass, each program on a fresh machine whose
/// LP reports to `mk(name)`.
struct Pass {
    secs: f64,
    ok: bool,
    list_ops: u64,
    instructions: u64,
    cycles: u64,
    lp_ops: u64,
}

fn pass<S: EventSink>(
    setup: &Setup,
    refs: &[Vec<String>],
    mk: impl Fn(&str) -> S,
    totals: impl Fn(S) -> (u64, u64),
) -> Pass {
    let mut out = Pass {
        secs: 0.0,
        ok: true,
        list_ops: 0,
        instructions: 0,
        cycles: 0,
        lp_ops: 0,
    };
    for (p, expected) in setup.progs.iter().zip(refs) {
        let (program, inputs) = (p.program.clone(), p.inputs.clone());
        let backend = SmallBackend::with_sink(HEAP_CELLS, LpConfig::default(), mk(p.name));
        let t0 = Instant::now();
        let (r, mut vm) = execute(program, inputs, backend);
        vm.backend.lp.drain_unroots();
        vm.backend.lp.drain_lazy();
        out.secs += t0.elapsed().as_secs_f64();
        let outputs = std::mem::take(&mut vm.output);
        let stats = vm.stats();
        let c = check(
            r,
            stats,
            &mut vm.backend,
            &outputs,
            expected,
            &setup.interner,
        );
        out.ok &= c.ok;
        out.list_ops += c.stats.list_ops;
        out.instructions += c.stats.instructions;
        let (cycles, ops) = totals(vm.backend.into_sink());
        out.cycles += cycles;
        out.lp_ops += ops;
    }
    out
}

fn profiled(name: &str) -> SpanSink {
    SpanSink::new(name).summary_only()
}

fn profile_totals(s: SpanSink) -> (u64, u64) {
    let p = s.finish();
    (p.timing.total, p.timing.ops)
}

fn untraced(setup: &Setup, refs: &[Vec<String>]) -> Pass {
    pass(setup, refs, profiled, profile_totals)
}

fn noop(setup: &Setup, refs: &[Vec<String>]) -> Pass {
    pass(setup, refs, |_| NoopSink, |_| (0, 0))
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let refs = references();
    let mut led = SetupLedger::default();
    let mut setup_samples = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = setup(&mut None, &mut led)?;
        setup_samples.push(t0.elapsed().as_secs_f64());
        built = Some(s);
    }
    let setup = built.expect("at least one set-up");
    if args.trace {
        return traced(args, &setup, &refs);
    }

    // The first pass settles lazy state (dispatch tables, allocator
    // arenas); it is checked and counted but not timed.
    let warm = untraced(&setup, &refs);
    let sig = |p: &Pass| (p.list_ops, p.instructions, p.cycles, p.lp_ops);
    let (list_ops, _, cycles, lp_ops) = sig(&warm);
    let (mut attempted, mut failed) = (warm.list_ops, if warm.ok { 0 } else { warm.list_ops });
    let mut deterministic = true;
    let mut pass_secs = Vec::new();
    let mut cpus = CpuRotation::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline || pass_secs.len() < 3 {
        cpus.advance();
        // A set-up before every pass spreads the `setup_s` samples over
        // the whole run instead of bunching them at its start.
        let t0 = Instant::now();
        let again = self::setup(&mut None, &mut led)?;
        setup_samples.push(t0.elapsed().as_secs_f64());
        drop(again);
        let p = untraced(&setup, &refs);
        deterministic &= sig(&p) == sig(&warm);
        attempted += p.list_ops;
        if !p.ok {
            failed += p.list_ops;
        }
        pass_secs.push(p.secs);
    }
    let mut m = Metrics::default();
    m.put_median("setup_s", &setup_samples, "s");
    crate::stats::put_pass_timing(&mut m, list_ops as f64, &pass_secs);
    m.put("vcycles_per_op", cycles as f64 / lp_ops as f64, "vcycle/op");
    Ok(Outcome {
        correct: failed == 0 && deterministic,
        attempted,
        failed,
        metrics: m,
        notes: vec![
            format!(
                "lisp-compiled: {} timed passes; per pass {list_ops} VM list ops, {lp_ops} LP ops, {cycles} virtual cycles",
                pass_secs.len()
            ),
            crate::stats::pass_profile(&pass_secs),
        ],
    })
}

/// Sums over the traced passes.
#[derive(Default)]
struct TracedSums {
    passes: u64,
    run_ns: f64,
    /// The LP work the VM runs enclosed.
    inner: Snap,
    drain_ns: f64,
    instructions: u64,
    fn_calls: u64,
    hits: u64,
    misses: u64,
    refops: u64,
    pseudo_overflows: u64,
    compressed: u64,
    cycle_collections: u64,
    print_ns: Vec<f64>,
}

/// One SLANG+LYRA pass with every boundary timed: the VM↔LP boundary
/// through [`TimedBackend`], LP↔heap through [`TimedController`].
fn traced_pass(
    setup: &Setup,
    refs: &[Vec<String>],
    ledger: &Rc<Ledger>,
    sums: &mut TracedSums,
    spans: &mut SpanLog,
) -> bool {
    let req = sums.passes;
    let root = spans.open("pass", req);
    let mut ok = true;
    for (p, expected) in setup.progs.iter().zip(refs) {
        let controller = TimedController {
            inner: TwoPointerController::new(HEAP_CELLS, 64),
            ledger: Rc::clone(ledger),
        };
        let sink = TimedSink::new(profiled(p.name), Rc::clone(ledger), false);
        let lp = ListProcessor::with_sink(controller, LpConfig::default(), sink);
        let backend = TimedBackend {
            inner: SmallBackend::from_lp(lp),
            ledger: Rc::clone(ledger),
        };
        let (program, inputs) = (p.program.clone(), p.inputs.clone());
        let s0 = spans.now();
        let before = ledger.snap();
        let t0 = Instant::now();
        let (r, mut vm) = execute(program, inputs, backend);
        sums.run_ns += ns(t0.elapsed());
        sums.inner.add(ledger.snap().since(before));
        spans.close("lisp.vm.run", root, req, s0);
        // Settling deferred and lazy LP work is part of an untraced
        // pass's time; it is timed here only for the traced-vs-untraced
        // throughput comparison, outside every layer's self time.
        let t1 = Instant::now();
        vm.backend.inner.lp.drain_unroots();
        vm.backend.inner.lp.drain_lazy();
        sums.drain_ns += ns(t1.elapsed());
        let outputs = std::mem::take(&mut vm.output);
        let stats = vm.stats();
        let c = check(
            r,
            stats,
            &mut vm.backend.inner,
            &outputs,
            expected,
            &setup.interner,
        );
        ok &= c.ok;
        sums.instructions += c.stats.instructions;
        sums.fn_calls += c.stats.fn_calls;
        sums.hits += c.lpt.hits;
        sums.misses += c.lpt.misses;
        sums.refops += c.lpt.refops;
        sums.pseudo_overflows += c.lpt.pseudo_overflows;
        sums.compressed += c.lpt.compressed;
        sums.cycle_collections += c.lpt.cycle_collections;
        sums.print_ns.extend(c.print_ns);
    }
    spans.finish(root);
    sums.passes += 1;
    ok
}

fn traced(args: &RunArgs, setup: &Setup, refs: &[Vec<String>]) -> Result<Outcome, String> {
    let cal = Calibration::measure();
    let mut spans = SpanLog::new(crate::SPAN_CAP);
    let mut led = SetupLedger::default();
    {
        let mut log = Some(spans);
        for _ in 0..SETUP_REPS {
            self::setup(&mut log, &mut led)?;
        }
        spans = log.expect("span log");
    }
    let ledger = Rc::new(Ledger::default());
    let mut sums = TracedSums::default();
    let (mut with_sink, mut without_sink, mut traced_secs) = (Vec::new(), Vec::new(), Vec::new());
    let warm = untraced(setup, refs);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut account = |ok: bool| {
        attempted += warm.list_ops;
        if !ok {
            failed += warm.list_ops;
        }
    };
    account(warm.ok);
    // Interleave the three pass kinds so drift in the host's speed
    // lands on all of them alike.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut k = 0usize;
    while Instant::now() < deadline || k < 6 {
        match k % 3 {
            0 => {
                let p = untraced(setup, refs);
                account(p.ok);
                with_sink.push(ns_of(p.secs));
            }
            1 => {
                let p = noop(setup, refs);
                account(p.ok);
                without_sink.push(ns_of(p.secs));
            }
            _ => {
                let before = sums.run_ns + sums.drain_ns;
                let ok = traced_pass(setup, refs, &ledger, &mut sums, &mut spans);
                traced_secs.push((sums.run_ns + sums.drain_ns - before) / 1e9);
                account(ok);
            }
        }
        k += 1;
    }

    let n = sums.passes as f64;
    let per = |c: u64| (c / sums.passes) as f64;
    let l = &*ledger;
    let heap_calls = l.heap_total_calls() as f64;
    let vm_self = cal.caller_self(sums.run_ns, sums.inner) / n;
    let lp_self = cal.lp_self(l) / n;
    let heap_self = cal.heap_self(l) / n;

    let mut m = crate::Layers::default();
    m.set("sexpr.parse_ns", Spread::of(&led.parse_ns).median);
    m.set("sexpr.print_ns", Spread::of(&sums.print_ns).median);
    m.set(
        "sexpr.calls",
        (setup.progs.len() + sums.print_ns.len() / sums.passes as usize) as f64,
    );
    m.set(
        "lisp.compiler.compile_ns",
        Spread::of(&led.compile_ns).median,
    );
    m.set("lisp.compiler.calls", setup.progs.len() as f64);
    m.set("lisp.vm.self_ns", vm_self);
    m.set("lisp.vm.instructions", per(sums.instructions));
    m.set("lisp.vm.ns_per_instr", vm_self / per(sums.instructions));
    m.set("lisp.vm.fn_calls", per(sums.fn_calls));
    m.set("core.lp.self_ns", lp_self);
    for (k, name) in LP_CALLS.iter().enumerate() {
        m.set(&format!("core.lp.calls.{name}"), per(l.lp_calls[k].get()));
    }
    m.set(
        "core.lp.hit_rate",
        sums.hits as f64 / (sums.hits + sums.misses).max(1) as f64,
    );
    let probes = l.cache_hits.get() + l.cache_misses.get();
    m.set(
        "core.lp.inline_cache_hit_rate",
        l.cache_hits.get() as f64 / probes.max(1) as f64,
    );
    m.set("core.lp.refops", per(sums.refops));
    m.set("core.lp.reclaim_ns", l.reclaim_ns.get() as f64 / n);
    m.set("core.lp.pseudo_overflows", per(sums.pseudo_overflows));
    m.set("core.lp.compressed", per(sums.compressed));
    m.set("core.lp.cycle_collections", per(sums.cycle_collections));
    m.set("heap.self_ns", heap_self);
    for (k, name) in HEAP_CALLS.iter().enumerate() {
        m.set(&format!("heap.calls.{name}"), per(l.heap_calls[k].get()));
    }
    m.set("heap.ns_per_call", heap_self * n / heap_calls.max(1.0));
    m.set(
        "profile.sink_ns",
        Spread::of(&with_sink).median - Spread::of(&without_sink).median,
    );
    crate::set_calibration(&mut m, &cal);
    m.set(
        "bench.ops_per_s_untraced",
        warm.list_ops as f64 / (Spread::of(&with_sink).median / 1e9),
    );
    m.set(
        "bench.ops_per_s_traced",
        warm.list_ops as f64 / Spread::of(&traced_secs).median,
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
            "lisp-compiled traced: {} traced, {} profiled, {} unprofiled passes; {} spans in {} ({} dropped)",
            sums.passes,
            with_sink.len(),
            without_sink.len(),
            spans.len(),
            path.display(),
            spans.dropped
        )],
    })
}

fn ns_of(secs: f64) -> f64 {
    secs * 1e9
}
