//! Timing wrappers at the layer boundaries the program already exposes.
//!
//! * [`TimedBackend`] wraps a [`ListBackend`]: the VM↔LP boundary.
//! * [`TimedController`] wraps a [`HeapController`]: the LP↔heap
//!   boundary, built the way `small_heap::FaultyController` wraps one.
//! * [`TimedSink`] wraps an [`EventSink`]: its `op_begin`/`op_end`
//!   hooks bracket each LP operation when the LP is driven directly
//!   (the simulator), and it flags compression passes either way.
//!
//! All three add into one shared [`Ledger`]. Per-operation boundaries
//! are far too frequent to keep as individual spans, so they are kept
//! as counts and summed nanoseconds; spans are recorded one level up
//! (see [`SpanLog`]).

use small_heap::controller::{ControllerStats, HeapController, HeapError, SplitResult};
use small_heap::{HeapAddr, Word};
use small_lisp::vm::{ListBackend, VmError, VmValue};
use small_metrics::{Event, EventSink, OpClass, PrimKind};
use small_sexpr::SExpr;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// LP request kinds counted at the VM↔LP boundary (`core.lp.calls.*`).
pub const LP_CALLS: [&str; 9] = [
    "car",
    "cdr",
    "cons",
    "rplac",
    "retain",
    "release",
    "read_in",
    "write_out",
    "equal",
];

/// Heap-controller calls counted at the LP↔heap boundary
/// (`heap.calls.*`).
pub const HEAP_CALLS: [&str; 6] = [
    "read_in",
    "split",
    "merge",
    "free_object",
    "extract",
    "peek",
];

/// Counts and summed wall time at each boundary.
#[derive(Default)]
pub struct Ledger {
    pub lp_calls: [Cell<u64>; LP_CALLS.len()],
    /// Every closed LP bracket, counted call or not (each one costs a
    /// pair of clock reads).
    pub lp_brackets: Cell<u64>,
    pub lp_ns: Cell<u64>,
    pub heap_calls: [Cell<u64>; HEAP_CALLS.len()],
    pub heap_ns: Cell<u64>,
    /// Heap time and calls that fell inside an LP operation bracket.
    pub heap_in_lp_ns: Cell<u64>,
    pub heap_in_lp_calls: Cell<u64>,
    /// LP time of operations during which a compression pass ran.
    pub reclaim_ns: Cell<u64>,
    pub cache_hits: Cell<u64>,
    pub cache_misses: Cell<u64>,
    /// Set by the sink when a `PseudoOverflow` event is recorded;
    /// cleared by whoever closes the enclosing LP bracket.
    overflow_seen: Cell<bool>,
    /// Whether an LP bracket is open (heap calls inside it belong to
    /// the LP's time).
    in_lp: Cell<bool>,
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

impl Ledger {
    pub fn heap_total_calls(&self) -> u64 {
        self.heap_calls.iter().map(Cell::get).sum()
    }

    fn lp_enter(&self) -> Instant {
        self.in_lp.set(true);
        self.overflow_seen.set(false);
        Instant::now()
    }

    fn lp_exit(&self, kind: Option<usize>, t0: Instant) {
        let dt = t0.elapsed().as_nanos() as u64;
        self.in_lp.set(false);
        if let Some(kind) = kind {
            bump(&self.lp_calls[kind], 1);
        }
        bump(&self.lp_brackets, 1);
        bump(&self.lp_ns, dt);
        if self.overflow_seen.replace(false) {
            bump(&self.reclaim_ns, dt);
        }
    }

    fn heap_exit(&self, kind: usize, t0: Instant) {
        let dt = t0.elapsed().as_nanos() as u64;
        bump(&self.heap_calls[kind], 1);
        bump(&self.heap_ns, dt);
        if self.in_lp.get() {
            bump(&self.heap_in_lp_ns, dt);
            bump(&self.heap_in_lp_calls, 1);
        }
    }

    /// Time LP work issued outside any wrapper, counting it as a call
    /// of `kind` when it is one (a fallible write-out) and as LP time
    /// only otherwise (settling deferred releases).
    pub fn time_lp<T>(&self, kind: Option<usize>, f: impl FnOnce() -> T) -> T {
        let t0 = self.lp_enter();
        let out = f();
        self.lp_exit(kind, t0);
        out
    }
}

/// The ledger's running totals that a caller's own time encloses: LP
/// brackets, and heap calls made outside any LP bracket.
#[derive(Debug, Default, Clone, Copy)]
pub struct Snap {
    pub lp_ns: f64,
    pub brackets: f64,
    pub heap_out_ns: f64,
    pub heap_out_calls: f64,
}

impl Snap {
    pub fn since(self, before: Snap) -> Snap {
        Snap {
            lp_ns: self.lp_ns - before.lp_ns,
            brackets: self.brackets - before.brackets,
            heap_out_ns: self.heap_out_ns - before.heap_out_ns,
            heap_out_calls: self.heap_out_calls - before.heap_out_calls,
        }
    }

    pub fn add(&mut self, d: Snap) {
        self.lp_ns += d.lp_ns;
        self.brackets += d.brackets;
        self.heap_out_ns += d.heap_out_ns;
        self.heap_out_calls += d.heap_out_calls;
    }
}

impl Ledger {
    pub fn snap(&self) -> Snap {
        Snap {
            lp_ns: self.lp_ns.get() as f64,
            brackets: self.lp_brackets.get() as f64,
            heap_out_ns: (self.heap_ns.get() - self.heap_in_lp_ns.get()) as f64,
            heap_out_calls: (self.heap_total_calls() - self.heap_in_lp_calls.get()) as f64,
        }
    }
}

/// The cost of one empty boundary crossing, split into the part the
/// crossing's own measured interval sees and the part only the
/// enclosing caller sees, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Crossing {
    pub inside: f64,
    pub outside: f64,
}

/// Measured costs of the timing itself, subtracted from every self
/// time: one clock read, and one empty crossing of each boundary.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    pub clock_ns: f64,
    pub lp: Crossing,
    pub heap: Crossing,
}

impl Calibration {
    pub fn measure() -> Calibration {
        const N: u64 = 100_000;
        // Best of several batches: a preempted batch reads high.
        let best = |f: &dyn Fn(&Ledger)| {
            let mut best: Option<Crossing> = None;
            for _ in 0..7 {
                let l = Ledger::default();
                let t0 = Instant::now();
                for _ in 0..N {
                    f(&l);
                }
                let total = t0.elapsed().as_nanos() as f64 / N as f64;
                let inside = (l.lp_ns.get() + l.heap_ns.get()) as f64 / N as f64;
                let c = Crossing {
                    inside,
                    outside: (total - inside).max(0.0),
                };
                if best.is_none_or(|b| c.inside + c.outside < b.inside + b.outside) {
                    best = Some(c);
                }
            }
            best.expect("at least one batch")
        };
        Calibration {
            clock_ns: crate::stats::clock_read_ns(),
            lp: best(&|l| l.time_lp(Some(0), || std::hint::black_box(()))),
            heap: best(&|l| l.heap_exit(0, std::hint::black_box(Instant::now()))),
        }
    }

    /// Self time of a caller that measured `t_ns` around LP work whose
    /// totals grew by `inner`.
    pub fn caller_self(&self, t_ns: f64, inner: Snap) -> f64 {
        t_ns - inner.lp_ns
            - inner.brackets * self.lp.outside
            - inner.heap_out_ns
            - inner.heap_out_calls * self.heap.outside
    }

    /// The LP's self time: its brackets less the heap calls inside them.
    pub fn lp_self(&self, l: &Ledger) -> f64 {
        l.lp_ns.get() as f64
            - l.lp_brackets.get() as f64 * self.lp.inside
            - l.heap_in_lp_ns.get() as f64
            - l.heap_in_lp_calls.get() as f64 * self.heap.outside
    }

    pub fn heap_self(&self, l: &Ledger) -> f64 {
        l.heap_ns.get() as f64 - l.heap_total_calls() as f64 * self.heap.inside
    }
}

/// The VM↔LP boundary.
pub struct TimedBackend<B> {
    pub inner: B,
    pub ledger: Rc<Ledger>,
}

impl<B: ListBackend> TimedBackend<B> {
    fn timed<T>(&mut self, kind: usize, f: impl FnOnce(&mut B) -> T) -> T {
        let t0 = self.ledger.lp_enter();
        let out = f(&mut self.inner);
        self.ledger.lp_exit(Some(kind), t0);
        out
    }
}

impl<B: ListBackend> ListBackend for TimedBackend<B> {
    type Ref = B::Ref;

    fn car(&mut self, r: &B::Ref) -> Result<VmValue<B::Ref>, VmError> {
        self.timed(0, |b| b.car(r))
    }
    fn cdr(&mut self, r: &B::Ref) -> Result<VmValue<B::Ref>, VmError> {
        self.timed(1, |b| b.cdr(r))
    }
    fn cons(&mut self, car: VmValue<B::Ref>, cdr: VmValue<B::Ref>) -> Result<B::Ref, VmError> {
        self.timed(2, |b| b.cons(car, cdr))
    }
    fn rplaca(&mut self, r: &B::Ref, v: VmValue<B::Ref>) -> Result<(), VmError> {
        self.timed(3, |b| b.rplaca(r, v))
    }
    fn rplacd(&mut self, r: &B::Ref, v: VmValue<B::Ref>) -> Result<(), VmError> {
        self.timed(3, |b| b.rplacd(r, v))
    }
    fn retain(&mut self, r: &B::Ref) {
        self.timed(4, |b| b.retain(r))
    }
    fn release(&mut self, r: &B::Ref) {
        self.timed(5, |b| b.release(r))
    }
    fn read_in(&mut self, e: &SExpr) -> Result<VmValue<B::Ref>, VmError> {
        self.timed(6, |b| b.read_in(e))
    }
    fn write_out(&mut self, v: &VmValue<B::Ref>) -> SExpr {
        self.timed(7, |b| b.write_out(v))
    }
    fn equal(&mut self, a: &VmValue<B::Ref>, b: &VmValue<B::Ref>) -> bool {
        self.timed(8, |x| x.equal(a, b))
    }
}

/// The LP↔heap boundary.
pub struct TimedController<C> {
    pub inner: C,
    pub ledger: Rc<Ledger>,
}

impl<C: HeapController> HeapController for TimedController<C> {
    fn read_in(&mut self, expr: &SExpr) -> Result<Word, HeapError> {
        let t0 = Instant::now();
        let out = self.inner.read_in(expr);
        self.ledger.heap_exit(0, t0);
        out
    }
    fn split(&mut self, addr: HeapAddr) -> Result<SplitResult, HeapError> {
        let t0 = Instant::now();
        let out = self.inner.split(addr);
        self.ledger.heap_exit(1, t0);
        out
    }
    fn merge(&mut self, car: Word, cdr: Word) -> Result<HeapAddr, HeapError> {
        let t0 = Instant::now();
        let out = self.inner.merge(car, cdr);
        self.ledger.heap_exit(2, t0);
        out
    }
    fn free_object(&mut self, addr: HeapAddr) {
        let t0 = Instant::now();
        self.inner.free_object(addr);
        self.ledger.heap_exit(3, t0);
    }
    fn extract(&self, w: Word) -> SExpr {
        let t0 = Instant::now();
        let out = self.inner.extract(w);
        self.ledger.heap_exit(4, t0);
        out
    }
    fn peek(&self, addr: HeapAddr) -> Result<SplitResult, HeapError> {
        let t0 = Instant::now();
        let out = self.inner.peek(addr);
        self.ledger.heap_exit(5, t0);
        out
    }
    fn stats(&self) -> ControllerStats {
        self.inner.stats()
    }
}

/// Forwards every hook to `inner`. With `time_ops` set (an LP driven
/// directly, as by the simulator) its `op_begin`/`op_end` hooks are the
/// LP bracket; otherwise a [`TimedBackend`] owns the bracket and the
/// sink only flags compression passes and counts inline-cache probes.
pub struct TimedSink<S> {
    pub inner: S,
    pub ledger: Rc<Ledger>,
    time_ops: bool,
    open: Option<(usize, Instant)>,
}

impl<S> TimedSink<S> {
    pub fn new(inner: S, ledger: Rc<Ledger>, time_ops: bool) -> Self {
        TimedSink {
            inner,
            ledger,
            time_ops,
            open: None,
        }
    }
}

fn prim_call(p: PrimKind) -> usize {
    match p {
        PrimKind::Car => 0,
        PrimKind::Cdr => 1,
        PrimKind::Cons => 2,
        PrimKind::Rplaca | PrimKind::Rplacd => 3,
        PrimKind::ReadList => 6,
    }
}

impl<S: EventSink> EventSink for TimedSink<S> {
    fn record(&mut self, event: Event) {
        if matches!(event, Event::PseudoOverflow { .. }) {
            self.ledger.overflow_seen.set(true);
        }
        self.inner.record(event);
    }

    fn op_begin(&mut self, prim: PrimKind) {
        if self.time_ops {
            self.open = Some((prim_call(prim), self.ledger.lp_enter()));
        }
        self.inner.op_begin(prim);
    }

    fn op_end(&mut self, class: OpClass) {
        self.inner.op_end(class);
        if let Some((kind, t0)) = self.open.take() {
            self.ledger.lp_exit(Some(kind), t0);
        }
    }

    fn cache_probe(&mut self, hit: bool) {
        bump(
            if hit {
                &self.ledger.cache_hits
            } else {
                &self.ledger.cache_misses
            },
            1,
        );
        self.inner.cache_probe(hit);
    }
}

/// One recorded span: a call into a layer, with the span that caused it
/// and the request (or pass) it served.
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory and written when the traced run ends. Bounded:
/// past `cap` spans only the drop count grows, so a long run cannot
/// turn tracing into a memory benchmark.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    pub dropped: u64,
}

impl SpanLog {
    pub fn new(cap: usize) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span that started at `start_ns` and ends now; returns
    /// its id for children to name as parent.
    pub fn close(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start_ns: u64,
    ) -> Option<u32> {
        let end_ns = self.now();
        self.push(name, parent, request, start_ns, end_ns)
    }

    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<u32> {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        Some(id)
    }

    /// Reserve an id for a parent span whose end is not known yet;
    /// [`SpanLog::finish`] fills it in.
    pub fn open(&mut self, name: &'static str, request: u64) -> Option<u32> {
        let now = self.now();
        self.push(name, None, request, now, now)
    }

    pub fn finish(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let now = self.now();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// One JSON object per line: `name`, `start_ns`, `end_ns`, `parent`,
    /// `request`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        out.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}
