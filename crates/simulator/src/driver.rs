//! The trace-driven simulator (§5.2.1).
//!
//! Drives the *real* List Processor of `small-core` with a pre-processed
//! trace. The trace supplies the primitive sequence, chaining flags, and
//! function-call structure; arguments are reconstructed exactly as in
//! the thesis:
//!
//! * a chained argument is the value on top of the simulated run-time
//!   stack (the previous primitive's result);
//! * otherwise the operand is drawn from the current function's
//!   arguments (ArgProb), its locals (LocProb), or a non-local
//!   (remainder), then — with probability ReadProb — treated as freshly
//!   re-`read`;
//! * each result is bound to a random stack variable with probability
//!   BindProb, else left on top of the stack.
//!
//! The simulated control-cum-binding stack pushes argument and local
//! slots on every `FnEnter` ("randomly bound to something older on the
//! stack") and pops them on `FnExit`, generating the reference-count
//! bursts of §5.3.3. Every slot holds a [`Rooted`] binding handle;
//! popping a frame drops its handles and the LP performs the releases
//! at its next operation boundary.
//!
//! A parallel LRU data cache (§5.2.5) observes the same car/cdr request
//! stream through synthesized heap addresses: objects read in get
//! sequential addresses sized by their n/p, split pieces land at
//! Clark-distributed offsets from their parent, conses allocate
//! sequentially.
//!
//! [`run_sim_with_sink`] threads a [`small_metrics::EventSink`] through
//! the LP, so a run can be observed event-by-event (histograms,
//! counters) at no cost to the uninstrumented [`run_sim`] path.

use crate::cache::LruCache;
use crate::clark;
use crate::config::SimParams;
use fxhash::FxHashMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use small_core::LptStats;
use small_core::{Id, ListProcessor, LpConfig, LpError, LpValue, Rooted};
use small_heap::controller::{ControllerStats, HeapController, TwoPointerController};
use small_metrics::{EventCounts, EventSink, NoopSink};
use small_trace::{Prim, Trace};

/// Optional cache model configuration.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Number of cache lines.
    pub lines: usize,
    /// Cells per line.
    pub line_cells: usize,
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Trace name.
    pub name: String,
    /// LPT counters.
    pub lpt: LptStats,
    /// The LP's event counts (see `ListProcessor::counts`). A resumed
    /// durable run restarts the seven kinds `LptStats` does not carry
    /// at its last resume.
    pub counts: EventCounts,
    /// Heap-controller counters.
    pub heap: ControllerStats,
    /// car/cdr requests satisfied by LPT fields (Table 5.4 semantics —
    /// excludes splits triggered by rplaca/rplacd).
    pub access_hits: u64,
    /// car/cdr requests that needed a split.
    pub access_misses: u64,
    /// Cache hits over the same request stream (if a cache was attached).
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Whether the run aborted on a true LPT overflow.
    pub true_overflow: bool,
    /// A typed heap/LP failure that ended the run early (`None` for a
    /// clean completion or a plain true-overflow abort). The simulator
    /// never panics on heap failures; they surface here.
    pub failure: Option<String>,
    /// Primitive events executed before completion/abort.
    pub prims_executed: usize,
}

impl SimResult {
    /// LPT hit rate over car/cdr requests.
    pub fn lpt_hit_rate(&self) -> f64 {
        rate(self.access_hits, self.access_misses)
    }

    /// Cache hit rate over the same requests.
    pub fn cache_hit_rate(&self) -> f64 {
        rate(self.cache_hits, self.cache_misses)
    }
}

fn rate(h: u64, m: u64) -> f64 {
    if h + m == 0 {
        0.0
    } else {
        h as f64 / (h + m) as f64
    }
}

pub(crate) struct FrameSim {
    pub(crate) args: Vec<Rooted>,
    pub(crate) locals: Vec<Rooted>,
}

pub(crate) struct Driver<'t, C: HeapController, S: EventSink> {
    pub(crate) trace: &'t Trace,
    /// Precomputed `clark::np_pool` of the trace — derived, never
    /// serialized in checkpoints.
    pub(crate) np_pool: Vec<(u32, u32)>,
    pub(crate) params: SimParams,
    pub(crate) lp: ListProcessor<C, S>,
    pub(crate) rng: StdRng,
    pub(crate) frames: Vec<FrameSim>,
    pub(crate) globals: Vec<Rooted>,
    pub(crate) tos: Option<Rooted>,
    // Cache model.
    pub(crate) cache: Option<LruCache>,
    pub(crate) addrs: FxHashMap<Id, u64>,
    pub(crate) next_addr: u64,
    pub(crate) access_hits: u64,
    pub(crate) access_misses: u64,
}

/// Run the simulator over `trace` with `params`, optionally with a data
/// cache observing the same access stream.
pub fn run_sim(trace: &Trace, params: SimParams, cache: Option<CacheConfig>) -> SimResult {
    run_sim_with_sink(trace, params, cache, NoopSink).0
}

/// [`run_sim`] under a full-fidelity [`small_profile::SpanSink`]:
/// returns the finished cycle-stamped [`small_profile::Profile`]
/// (timeline spans, per-primitive attribution, and `run_stream`-exact
/// aggregate timing) alongside the ordinary result. The simulation is
/// identical to the uninstrumented path — the profiler only observes
/// the LP's operation boundaries.
pub fn run_sim_profiled(
    trace: &Trace,
    params: SimParams,
    cache: Option<CacheConfig>,
) -> (SimResult, small_profile::Profile) {
    let (r, sink) = run_sim_with_sink(
        trace,
        params,
        cache,
        small_profile::SpanSink::new(&trace.name),
    );
    (r, sink.finish())
}

/// [`run_sim`] with the LP reporting every event to `sink`; returns the
/// sink alongside the result. The simulation itself is identical — the
/// sink only observes.
pub fn run_sim_with_sink<S: EventSink>(
    trace: &Trace,
    params: SimParams,
    cache: Option<CacheConfig>,
    sink: S,
) -> (SimResult, S) {
    let controller = TwoPointerController::new(params.heap_cells, 256);
    let (result, _controller, sink) = run_sim_on_controller(trace, params, cache, controller, sink);
    (result, sink)
}

/// The generic core of [`run_sim`]: drive the trace over any heap
/// controller — notably a `small_heap::FaultyController` wrapper, which
/// is how the chaos harness replays workloads under seeded fault
/// schedules. Returns the controller alongside the result and sink so
/// fault ledgers survive the run.
pub fn run_sim_on_controller<C: HeapController, S: EventSink>(
    trace: &Trace,
    params: SimParams,
    cache: Option<CacheConfig>,
    controller: C,
    sink: S,
) -> (SimResult, C, S) {
    let lp = ListProcessor::with_sink(
        controller,
        LpConfig {
            table_size: params.table_size,
            compression: params.compression,
            decrement: params.decrement,
            refcounts: params.refcounts,
            overflow: params.overflow,
            ..LpConfig::default()
        },
        sink,
    );
    let mut d = Driver {
        trace,
        np_pool: clark::np_pool(&trace.uids),
        params,
        lp,
        rng: StdRng::seed_from_u64(params.seed),
        frames: Vec::new(),
        globals: Vec::new(),
        tos: None,
        cache: cache.map(|c| LruCache::new(c.lines, c.line_cells)),
        addrs: FxHashMap::default(),
        next_addr: 0,
        access_hits: 0,
        access_misses: 0,
    };
    let (true_overflow, prims_executed, failure) = d.run();
    let result = SimResult {
        name: trace.name.clone(),
        lpt: d.lp.stats(),
        counts: d.lp.counts(),
        heap: d.lp.controller.stats(),
        access_hits: d.access_hits,
        access_misses: d.access_misses,
        cache_hits: d.cache.as_ref().map_or(0, |c| c.hits),
        cache_misses: d.cache.as_ref().map_or(0, |c| c.misses),
        true_overflow,
        failure,
        prims_executed,
    };
    let (controller, sink) = d.teardown();
    (result, controller, sink)
}

impl<'t, C: HeapController, S: EventSink> Driver<'t, C, S> {
    /// Defuse outstanding handles and tear the LP down (the deferred
    /// releases would never run anyway; this keeps teardown explicit).
    pub(crate) fn teardown(mut self) -> (C, S) {
        self.tos.take().map(Rooted::leak);
        self.globals.drain(..).for_each(|h| {
            h.leak();
        });
        for f in self.frames.drain(..) {
            f.args.into_iter().chain(f.locals).for_each(|h| {
                h.leak();
            });
        }
        self.lp.into_parts()
    }

    /// Seed the global environment with a few read-in objects.
    pub(crate) fn seed_globals(&mut self) -> Result<(), LpError> {
        for _ in 0..6 {
            let v = self.fresh_object()?;
            // The read-in reference becomes the global binding.
            let h = self.lp.adopt_binding(v);
            self.globals.push(h);
        }
        Ok(())
    }

    /// Apply one trace event, counting primitives into `prims`.
    pub(crate) fn step(
        &mut self,
        ev: &small_trace::Event,
        prims: &mut usize,
    ) -> Result<(), LpError> {
        match ev {
            small_trace::Event::FnEnter { nargs, .. } => self.fn_enter(*nargs as usize),
            small_trace::Event::FnExit => {
                self.fn_exit();
                Ok(())
            }
            small_trace::Event::Prim { prim, args, .. } => {
                *prims += 1;
                self.prim(*prim, args)
            }
        }
    }

    fn run(&mut self) -> (bool, usize, Option<String>) {
        match self.seed_globals() {
            Ok(()) => {}
            Err(LpError::TrueOverflow) => return (true, 0, None),
            Err(e) => return (false, 0, Some(e.to_string())),
        }
        let trace = self.trace;
        let mut prims = 0usize;
        for ev in &trace.events {
            match self.step(ev, &mut prims) {
                Ok(()) => {}
                Err(LpError::TrueOverflow) => return (true, prims, None),
                // Any other heap/LP condition ends the run as a typed,
                // reported failure — the simulator never panics on one.
                Err(e) => return (false, prims, Some(e.to_string())),
            }
        }
        (false, prims, None)
    }

    // -- object creation ------------------------------------------------

    fn fresh_object(&mut self) -> Result<LpValue, LpError> {
        let (n, p) = clark::sample_np_pooled(&mut self.rng, &self.np_pool);
        let e = clark::gen_sexpr(&mut self.rng, n, p);
        let v = self.lp.retrying(|lp| lp.readlist(None, &e))?;
        if let LpValue::Obj(id) = v {
            // Sequential address sized by the object (§5.2.5).
            self.addrs.insert(id, self.next_addr);
            self.next_addr += u64::from(n + p).max(1);
        }
        Ok(v)
    }

    // -- simulated control stack ----------------------------------------

    fn fn_enter(&mut self, nargs: usize) -> Result<(), LpError> {
        let nlocals = self.rng.gen_range(0..=2usize);
        let mut frame = FrameSim {
            args: Vec::with_capacity(nargs),
            locals: Vec::with_capacity(nlocals),
        };
        for _ in 0..nargs {
            let v = self.older_value()?;
            frame.args.push(self.lp.root_binding(v));
        }
        for _ in 0..nlocals {
            let v = self.older_value()?;
            frame.locals.push(self.lp.root_binding(v));
        }
        self.frames.push(frame);
        Ok(())
    }

    fn fn_exit(&mut self) {
        // Dropping the frame drops its binding handles; the LP releases
        // them at its next operation boundary.
        self.frames.pop();
    }

    /// A value "older on the stack": a random existing slot, or a fresh
    /// object when none exists. The pool — TOS, then every frame's args
    /// and locals in order, then the globals — is indexed virtually;
    /// materializing it per call dominated the simulator's wall time on
    /// deep-stack traces without changing which value is drawn.
    fn older_value(&mut self) -> Result<LpValue, LpError> {
        let tos = usize::from(self.tos.is_some());
        let stack: usize = self
            .frames
            .iter()
            .map(|f| f.args.len() + f.locals.len())
            .sum();
        let len = tos + stack + self.globals.len();
        if len == 0 {
            return self.fresh_object();
        }
        let mut k = self.rng.gen_range(0..len);
        if let Some(h) = &self.tos {
            if k == 0 {
                return Ok(h.value());
            }
            k -= 1;
        }
        for f in &self.frames {
            if k < f.args.len() {
                return Ok(f.args[k].value());
            }
            k -= f.args.len();
            if k < f.locals.len() {
                return Ok(f.locals[k].value());
            }
            k -= f.locals.len();
        }
        Ok(self.globals[k].value())
    }

    // -- operand selection (§5.2.1) --------------------------------------

    fn select_slot(&mut self) -> (usize, usize, usize) {
        // Returns (class, frame index, slot index); class 0=arg, 1=local,
        // 2=global/non-local.
        let x: f64 = self.rng.gen();
        let cur = self.frames.len().checked_sub(1);
        if let Some(cur) = cur {
            if x < self.params.arg_prob && !self.frames[cur].args.is_empty() {
                let k = self.rng.gen_range(0..self.frames[cur].args.len());
                return (0, cur, k);
            }
            if x < self.params.arg_prob + self.params.loc_prob
                && !self.frames[cur].locals.is_empty()
            {
                let k = self.rng.gen_range(0..self.frames[cur].locals.len());
                return (1, cur, k);
            }
        }
        // Non-local: an outer frame slot or a global. The outer-slot
        // list (every non-current frame's args then locals, in frame
        // order) is indexed virtually — same draw, no per-call
        // materialization.
        let outer_frames = self.frames.len().saturating_sub(1);
        let outer_len: usize = self.frames[..outer_frames]
            .iter()
            .map(|f| f.args.len() + f.locals.len())
            .sum();
        let total = outer_len + self.globals.len();
        if total == 0 || self.rng.gen_range(0..total) >= outer_len {
            let k = if self.globals.is_empty() {
                0
            } else {
                self.rng.gen_range(0..self.globals.len())
            };
            (2, 0, k)
        } else {
            let mut k = self.rng.gen_range(0..outer_len);
            for (fi, f) in self.frames[..outer_frames].iter().enumerate() {
                if k < f.args.len() {
                    return (0, fi, k);
                }
                k -= f.args.len();
                if k < f.locals.len() {
                    return (1, fi, k);
                }
                k -= f.locals.len();
            }
            unreachable!("outer slot index within summed bounds")
        }
    }

    fn slot_get(&self, c: (usize, usize, usize)) -> LpValue {
        match c.0 {
            0 => self.frames[c.1].args[c.2].value(),
            1 => self.frames[c.1].locals[c.2].value(),
            _ => self.globals[c.2].value(),
        }
    }

    /// Install a binding handle in a slot; the displaced handle's
    /// reference is released at the next LP operation boundary.
    fn slot_set(&mut self, c: (usize, usize, usize), h: Rooted) {
        match c.0 {
            0 => self.frames[c.1].args[c.2] = h,
            1 => self.frames[c.1].locals[c.2] = h,
            _ => self.globals[c.2] = h,
        }
    }

    /// Pick an operand per §5.2.1. When `need_list` is set the operand
    /// must be a list object (car/cdr/rplac targets); an atom-valued
    /// slot is treated as freshly re-read.
    fn operand(&mut self, chained: bool, need_list: bool) -> Result<LpValue, LpError> {
        if chained {
            if let Some(h) = &self.tos {
                let v = h.value();
                if !need_list || v.is_list() {
                    return Ok(v);
                }
            }
        }
        if self.globals.is_empty() && self.frames.is_empty() {
            return self.fresh_object();
        }
        // Ensure a global exists for the non-local fallback.
        if self.globals.is_empty() {
            let v = self.fresh_object()?;
            let h = self.lp.adopt_binding(v);
            self.globals.push(h);
        }
        let slot = self.select_slot();
        let mut v = self.slot_get(slot);
        let reread = self.rng.gen_bool(self.params.read_prob) || (need_list && !v.is_list());
        if reread {
            let fresh = self.fresh_object()?;
            // `fresh` carries one stack reference; the slot adopts it.
            let h = self.lp.adopt_binding(fresh);
            self.slot_set(slot, h);
            v = fresh;
        }
        Ok(v)
    }

    // -- result placement -------------------------------------------------

    fn set_tos(&mut self, h: Rooted) {
        // The displaced TOS handle drops; its reference is released at
        // the next operation boundary.
        self.tos = Some(h);
    }

    fn maybe_bind(&mut self, v: LpValue) {
        if self.rng.gen_bool(self.params.bind_prob)
            && !(self.frames.is_empty() && self.globals.is_empty())
        {
            if self.globals.is_empty() {
                let h = self.lp.root_binding(v);
                self.globals.push(h);
                return;
            }
            let slot = self.select_slot();
            let h = self.lp.root_binding(v);
            self.slot_set(slot, h);
        }
    }

    // -- cache model --------------------------------------------------------

    fn addr_of(&mut self, id: Id) -> u64 {
        match self.addrs.get(&id) {
            Some(a) => *a,
            None => {
                let a = self.next_addr;
                self.next_addr += 1;
                self.addrs.insert(id, a);
                a
            }
        }
    }

    fn cache_access(&mut self, id: Id) {
        let addr = self.addr_of(id);
        if let Some(c) = self.cache.as_mut() {
            c.access(addr);
        }
    }

    /// After a split of `parent`, place both pieces at Clark-distributed
    /// offsets from the parent's address.
    fn place_children(&mut self, parent: Id) {
        let base = self.addr_of(parent);
        let (car, cdr) = self.lp.peek_fields(parent);
        for child in [car, cdr].into_iter().flatten() {
            if let LpValue::Obj(c) = child {
                if !self.addrs.contains_key(&c) {
                    let off = clark::pointer_distance(&mut self.rng);
                    self.addrs.insert(c, base.saturating_add_signed(off));
                }
            }
        }
    }

    // -- primitive execution --------------------------------------------

    fn prim(&mut self, prim: Prim, args: &[small_trace::event::ListRef]) -> Result<(), LpError> {
        let chained = |k: usize| args.get(k).is_some_and(|a| a.chained);
        match prim {
            Prim::Car | Prim::Cdr => {
                let arg = self.operand(chained(0), true)?;
                // Root the operand: selecting/re-reading other slots or
                // replacing TOS must not free it while in use. (A
                // register reference — no bus traffic.) Heap-direct
                // operands (§4.3.2.3 overflow mode) carry no table
                // reference; the handle is inert for them.
                let guard = self.lp.root(arg);
                if let LpValue::Obj(id) = arg {
                    self.cache_access(id);
                }
                let before = self.lp.counts().lpt_misses.get();
                let want_car = prim == Prim::Car;
                // Transient heap faults are retried with bounded
                // backoff at the call site, leaving the workload's RNG
                // stream untouched.
                let v = self.lp.retrying(|lp| {
                    if want_car {
                        lp.car_of(arg)
                    } else {
                        lp.cdr_of(arg)
                    }
                })?;
                if self.lp.counts().lpt_misses.get() > before {
                    self.access_misses += 1;
                    if let LpValue::Obj(id) = arg {
                        self.place_children(id);
                    }
                } else {
                    self.access_hits += 1;
                }
                // Atoms carry no reference; objects arrive retained.
                let h = self.lp.adopt_binding(v);
                self.set_tos(h);
                self.maybe_bind(v);
                drop(guard);
            }
            Prim::Cons => {
                let a = self.operand(chained(0), false)?;
                let guard_a = self.lp.root(a);
                // The second selection can re-read the slot holding `a`;
                // the root reference keeps `a` alive.
                let b = self.operand(chained(1), false)?;
                let guard_b = self.lp.root(b);
                let v = self.lp.retrying(|lp| lp.cons(a, b))?;
                if let LpValue::Obj(id) = v {
                    // A conventional machine would allocate one cell.
                    let addr = self.next_addr;
                    self.next_addr += 1;
                    self.addrs.insert(id, addr);
                }
                let h = self.lp.adopt_binding(v);
                self.set_tos(h);
                self.maybe_bind(v);
                drop(guard_a);
                drop(guard_b);
            }
            Prim::Rplaca | Prim::Rplacd => {
                let target = self.operand(chained(0), true)?;
                let guard_t = self.lp.root(target);
                let v = self.operand(chained(1), false)?;
                let guard_v = self.lp.root(v);
                let before = self.lp.counts().lpt_misses.get();
                let is_a = prim == Prim::Rplaca;
                match self.lp.retrying(|lp| {
                    if is_a {
                        lp.rplaca_of(target, v)
                    } else {
                        lp.rplacd_of(target, v)
                    }
                }) {
                    Ok(()) => {}
                    // Heap-direct values are immutable in overflow
                    // mode: the mutation is skipped and the run goes
                    // on against the unmodified target.
                    Err(LpError::Degraded(_)) => {}
                    Err(e) => return Err(e),
                }
                if self.lp.counts().lpt_misses.get() > before {
                    if let LpValue::Obj(id) = target {
                        self.place_children(id);
                    }
                }
                // The result is the modified list; TOS takes a fresh
                // stack reference to it.
                let h = self.lp.root_binding(target);
                self.set_tos(h);
                drop(guard_t);
                drop(guard_v);
            }
            Prim::Read => {
                let v = self.fresh_object()?;
                // `read` binds its result to a variable (Figure 4.15),
                // and its value lands on TOS.
                let bind = self.lp.root_binding(v);
                self.maybe_bind_forced(bind);
                let h = self.lp.adopt_binding(v);
                self.set_tos(h);
            }
        }
        Ok(())
    }

    fn maybe_bind_forced(&mut self, h: Rooted) {
        if self.globals.is_empty() {
            self.globals.push(h);
            return;
        }
        let slot = self.select_slot();
        self.slot_set(slot, h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use small_metrics::RecordingSink;
    use small_workloads::synthetic;

    fn small_trace() -> Trace {
        let mut p = synthetic::table_5_1("slang");
        p.primitives = 500;
        p.functions = 120;
        synthetic::generate(&p)
    }

    #[test]
    fn completes_without_overflow_on_adequate_table() {
        let t = small_trace();
        let r = run_sim(&t, SimParams::default(), None);
        assert!(!r.true_overflow);
        assert_eq!(r.prims_executed, 500);
        assert!(r.lpt.gets > 0);
        assert!(r.access_hits + r.access_misses > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let t = small_trace();
        let a = run_sim(&t, SimParams::default(), None);
        let b = run_sim(&t, SimParams::default(), None);
        assert_eq!(a.lpt.refops, b.lpt.refops);
        assert_eq!(a.access_misses, b.access_misses);
        let c = run_sim(&t, SimParams::default().with_seed(99), None);
        assert_ne!(a.lpt.refops, c.lpt.refops);
    }

    #[test]
    fn instrumented_run_matches_uninstrumented() {
        // The sink only observes: stats and counts with and without
        // instrumentation are identical.
        let t = small_trace();
        let plain = run_sim(&t, SimParams::default(), None);
        let (r, sink) = run_sim_with_sink(&t, SimParams::default(), None, RecordingSink::default());
        assert_eq!(plain.lpt, r.lpt);
        assert_eq!(plain.counts, r.counts);
        assert_eq!(plain.access_misses, r.access_misses);
        assert_eq!(sink.occupancy.count(), r.lpt.occupancy_samples);
    }

    #[test]
    fn cache_observes_same_stream() {
        let t = small_trace();
        let r = run_sim(
            &t,
            SimParams::default(),
            Some(CacheConfig {
                lines: 256,
                line_cells: 1,
            }),
        );
        assert_eq!(
            r.cache_hits + r.cache_misses,
            r.access_hits + r.access_misses,
            "cache sees exactly the car/cdr requests"
        );
    }

    #[test]
    fn lpt_beats_unit_line_cache_at_equal_entries() {
        // The Table 5.4 direction on a longer synthetic trace.
        let mut p = synthetic::table_5_1("slang");
        p.primitives = 2304;
        let t = synthetic::generate(&p);
        let size = 120;
        let r = run_sim(
            &t,
            SimParams::default().with_table(size),
            Some(CacheConfig {
                lines: size,
                line_cells: 1,
            }),
        );
        assert!(!r.true_overflow);
        assert!(
            r.cache_misses > r.access_misses,
            "cache misses {} must exceed LPT misses {}",
            r.cache_misses,
            r.access_misses
        );
    }

    #[test]
    fn tiny_table_overflow_is_reported_or_survived() {
        let t = small_trace();
        let r = run_sim(&t, SimParams::default().with_table(8), None);
        // Either compression kept it alive or a true overflow occurred;
        // both must be reported coherently.
        if r.true_overflow {
            assert!(r.prims_executed < 500);
        } else {
            assert!(r.lpt.pseudo_overflows > 0);
        }
    }

    #[test]
    fn peak_occupancy_bounded_by_table() {
        let t = small_trace();
        for size in [32, 64, 256] {
            let r = run_sim(&t, SimParams::default().with_table(size), None);
            assert!(r.lpt.max_occupancy <= size);
        }
    }
}
