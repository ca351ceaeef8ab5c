//! `serve-resident` and `serve-evict`: the real TCP server
//! (`server::start`, 2 shards, replicating) under closed-loop client
//! connections, each a REPL waiting for its reply. Every request is an
//! eval drawn from `serve::gen::programs_for`.
//!
//! * `serve-resident`: 2 connections, one session each, and room for
//!   every session, so no session is ever suspended.
//! * `serve-evict`: 1 connection cycling over 4 sessions, two pinned to
//!   each shard, whose residency cap is 1. Each shard's two sessions
//!   alternate, so every eval resumes a suspended session.
//!
//! A run is [`SEGMENTS`] segments, each on a freshly started server.
//! Replies are checked against a serial `SessionStore` twin that replays
//! each session's stream in-process.

use crate::ledger::{
    Calibration, Ledger, Snap, SpanLog, TimedBackend, TimedController, TimedSink, HEAP_CALLS,
    LP_CALLS,
};
use crate::stats::{ns, Metrics, Percentile, Spread};
use crate::{Outcome, RunArgs};
use small_core::machine::SmallBackend;
use small_core::{ListProcessor, LptStats};
use small_heap::TwoPointerController;
use small_lisp::compiler::FrontEnd;
use small_lisp::vm::{ListBackend, Vm, VmStats, VmValue};
use small_persist::{digest_bytes, DIGEST_SEED};
use small_serve::gen::programs_for;
use small_serve::protocol::{
    compile_error_reply, lp_error_reply, parse_error_reply, vm_error_reply,
};
use small_serve::repl::{reply_digest, WalOp};
use small_serve::telemetry::ReqKind;
use small_serve::{
    start, Client, Reply, Request, Role, ServeConfig, ServeSink, ServerHandle, ServerParams,
    Session, SessionStore, Wal,
};
use small_sexpr::{parse_all, print, Interner};
use std::rc::Rc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
/// A run is this many segments, each on a freshly started server that
/// is driven for an equal share of the run and then shut down and
/// checked. Set-ups are thereby spread over the whole run, and no
/// server's never-trimmed WAL outgrows one segment's traffic.
const SEGMENTS: usize = 25;
/// Server start-ups behind `setup_s`, per segment; the last one serves
/// the segment.
const SETUP_PER_SEGMENT: usize = 2;
/// Length of the windows a closed loop's requests are grouped into by
/// completion time; each window is one timing sample.
const WINDOW_SECS: f64 = 0.25;
/// Evals per generated block of a session's stream.
const BLOCK: usize = 64;
/// Requests per session the traced run replays in-process.
const REPLAY_PER_SESSION: usize = 400;
/// Requests per session behind `vcycles_per_op`: a fixed prefix of each
/// stream, so the figure depends on the seed alone, not on how many
/// requests a run completed.
const VCYCLE_PER_SESSION: usize = 2048;

/// Session sizing: the serving soak cells' 8,192-cell heap and
/// 384-entry LPT.
fn config(evict: bool) -> ServeConfig {
    ServeConfig {
        table_size: 384,
        heap_cells: 1 << 13,
        max_resident: if evict { 1 } else { 4 },
        ..ServeConfig::default()
    }
}

fn sessions(evict: bool) -> u64 {
    if evict {
        4
    } else {
        2
    }
}

/// Client connections. `serve-evict` keeps one request in flight: each
/// of its evals costs a shard about a millisecond of suspend and resume,
/// and with two in flight both shards and both client threads contend
/// for a 2-vCPU host, so a slowed vCPU queues requests and its p90
/// swung 2.8× between runs of the same code.
fn clients(evict: bool) -> usize {
    if evict {
        1
    } else {
        2
    }
}

/// Connection `c` drives the sessions with `id % clients == c`, in turn;
/// ids are pinned to shard `id % SHARDS`.
fn owned(c: usize, evict: bool) -> Vec<u64> {
    (0..sessions(evict))
        .filter(|id| *id as usize % clients(evict) == c)
        .collect()
}

/// A session's endless request stream: consecutive `programs_for`
/// blocks, each starting and ending with the accumulator reset, so state
/// stays bounded however long the run.
struct Stream {
    seed: u64,
    session: u64,
    block: u64,
    buf: Vec<String>,
    pos: usize,
}

impl Stream {
    fn new(seed: u64, session: u64) -> Stream {
        Stream {
            seed,
            session,
            block: 0,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// The next eval request's wire text.
    fn next_request(&mut self) -> String {
        if self.pos == self.buf.len() {
            let block_seed = self
                .seed
                .wrapping_mul(0x1000_0000_01b3)
                .wrapping_add(self.block);
            self.buf = programs_for(block_seed, self.session, BLOCK);
            self.block += 1;
            self.pos = 0;
        }
        self.pos += 1;
        Request::Eval {
            id: self.session,
            seq: None,
            src: self.buf[self.pos - 1].clone(),
        }
        .encode()
    }
}

fn hash(text: &str) -> u64 {
    digest_bytes(DIGEST_SEED, text.as_bytes())
}

/// What one client connection saw.
#[derive(Default)]
struct ClientLog {
    lat_ns: Vec<u64>,
    /// Completion time of every reply, in ns since the loop started.
    done_ns: Vec<u64>,
    /// Per owned session: the digest of every reply, in order.
    replies: Vec<(u64, Vec<u64>)>,
    transport_errors: u64,
    sheds: u64,
    elapsed: f64,
}

fn client_loop(
    mut c: Client,
    sessions: Vec<u64>,
    seed: u64,
    start: Instant,
    until: Instant,
) -> ClientLog {
    let mut streams: Vec<Stream> = sessions.iter().map(|&s| Stream::new(seed, s)).collect();
    let mut log = ClientLog {
        replies: sessions.iter().map(|&s| (s, Vec::new())).collect(),
        ..ClientLog::default()
    };
    let mut k = 0usize;
    while Instant::now() < until {
        let i = k % streams.len();
        let text = streams[i].next_request();
        let sent = Instant::now();
        match c.request_text(&text) {
            Ok(reply) => {
                log.lat_ns.push(sent.elapsed().as_nanos() as u64);
                log.done_ns.push(start.elapsed().as_nanos() as u64);
                if reply.starts_with("(err busy") {
                    log.sheds += 1;
                }
                log.replies[i].1.push(hash(&reply));
            }
            Err(_) => {
                log.transport_errors += 1;
                break;
            }
        }
        k += 1;
    }
    log.elapsed = start.elapsed().as_secs_f64();
    log
}

/// A started server with its sessions opened and client connections
/// established.
struct Fleet {
    handle: ServerHandle,
    clients: Vec<Client>,
}

fn start_fleet(evict: bool, trace: bool) -> Result<Fleet, String> {
    let params = ServerParams {
        shards: SHARDS,
        replicate: true,
        trace,
        ..ServerParams::default()
    };
    let handle = start("127.0.0.1:0", config(evict), params).map_err(|e| e.to_string())?;
    let addr = handle.addr();
    let mut admin = Client::connect(addr, Role::Client).map_err(|e| e.to_string())?;
    for want in 0..sessions(evict) {
        let id = admin.open().map_err(|e| e.to_string())?;
        if id != want {
            return Err(format!("server opened session {id}, expected {want}"));
        }
    }
    drop(admin);
    let clients = (0..clients(evict))
        .map(|_| Client::connect(addr, Role::Client).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Fleet { handle, clients })
}

/// The outcome of one closed-loop TCP phase, checked.
struct Phase {
    lat_us: Vec<f64>,
    /// Per [`WINDOW_SECS`] of the loop: requests completed, and the p50
    /// and p90 latency of those requests.
    windows: Vec<Window>,
    failed: u64,
    elapsed: f64,
    evals: u64,
    resumes: u64,
    problems: Vec<String>,
    drained: small_serve::DrainOutcome,
}

fn closed_loop(fleet: Fleet, evict: bool, seed: u64, seconds: f64) -> Result<Phase, String> {
    let Fleet { handle, clients } = fleet;
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let mine = owned(c, evict);
                scope.spawn(move || client_loop(client, mine, seed, start, until))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let drained = handle.shutdown();
    let mut problems = Vec::new();
    if let Err(e) = drained.verify_suspended() {
        problems.push(format!("torn suspend blob at drain: {e}"));
    }
    let (_, resumes) = drained.eviction_counters();

    // The serial twin: every session's stream replayed in-process, reply
    // digests compared one by one. It never evicts.
    let mut twin = SessionStore::new(ServeConfig {
        max_resident: sessions(evict) as usize,
        ..config(evict)
    });
    for _ in 0..sessions(evict) {
        twin.open();
    }
    let mut mismatches = 0u64;
    let mut evals = 0u64;
    for log in &logs {
        for (session, digests) in &log.replies {
            let mut stream = Stream::new(seed, *session);
            for &got in digests {
                let req = Request::decode(&stream.next_request())
                    .map_err(|e| format!("generated request does not decode: {}", e.encode()))?;
                if hash(&twin.apply(&req).encode()) != got {
                    mismatches += 1;
                }
                evals += 1;
            }
        }
    }
    let transport: u64 = logs.iter().map(|l| l.transport_errors).sum();
    let sheds: u64 = logs.iter().map(|l| l.sheds).sum();
    if mismatches > 0 {
        problems.push(format!("{mismatches} replies differ from the serial twin"));
    }
    if transport > 0 {
        problems.push(format!("{transport} transport errors"));
    }
    if sheds > 0 {
        problems.push(format!("{sheds} requests shed busy"));
    }
    let want_resumes = if evict { evals } else { 0 };
    if resumes != want_resumes {
        problems.push(format!(
            "{resumes} session resumes for {evals} evals (want {want_resumes})"
        ));
    }
    // A shed reply also differs from the twin's; count each request once.
    let failed = mismatches.max(sheds) + transport;
    let mut lat_us: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.lat_ns.iter().map(|&n| n as f64 / 1e3))
        .collect();
    lat_us.sort_by(f64::total_cmp);
    // Whole windows only; a loop shorter than one window is one window.
    let window_ns = (WINDOW_SECS * 1e9) as u64;
    let whole = (seconds / WINDOW_SECS).floor() as usize;
    let mut by_window: Vec<Vec<f64>> = vec![Vec::new(); whole.max(1)];
    for log in &logs {
        for (done, lat) in log.done_ns.iter().zip(&log.lat_ns) {
            if let Some(b) = by_window.get_mut((*done / window_ns) as usize) {
                b.push(*lat as f64 / 1e3);
            }
        }
    }
    let span_secs = if whole == 0 { seconds } else { WINDOW_SECS };
    let windows = by_window
        .into_iter()
        .filter(|lat| !lat.is_empty())
        .map(|mut lat| {
            lat.sort_by(f64::total_cmp);
            Window {
                per_s: lat.len() as f64 / span_secs,
                p50: Percentile::of(&lat, 50.0).value,
                p90: Percentile::of(&lat, 90.0).value,
            }
        })
        .collect();
    Ok(Phase {
        windows,
        failed,
        elapsed: logs.iter().map(|l| l.elapsed).fold(0.0, f64::max),
        evals,
        resumes,
        lat_us,
        problems,
        drained,
    })
}

/// One window of a closed loop.
struct Window {
    /// Requests completed per second.
    per_s: f64,
    p50: f64,
    p90: f64,
}

/// The request streams of segment `segment` of a run with `seed`: each
/// segment's fresh server gets streams of its own.
fn segment_seed(seed: u64, segment: usize) -> u64 {
    seed.wrapping_mul(SEGMENTS as u64).wrapping_add(segment as u64)
}

/// Mean virtual cycles per eval over the first [`VCYCLE_PER_SESSION`]
/// requests of every session's stream, priced by the serving layer's
/// own clock on a serial twin.
fn vcycles_per_request(seed: u64, evict: bool) -> Result<f64, String> {
    let mut twin = SessionStore::new(ServeConfig {
        max_resident: sessions(evict) as usize,
        ..config(evict)
    });
    for s in 0..sessions(evict) {
        twin.open();
        let mut stream = Stream::new(seed, s);
        for _ in 0..VCYCLE_PER_SESSION {
            let req = Request::decode(&stream.next_request())
                .map_err(|e| format!("generated request does not decode: {}", e.encode()))?;
            twin.apply(&req);
        }
    }
    let eval = twin.telemetry().kind(ReqKind::Eval);
    Ok(eval.cycles.sum() as f64 / eval.cycles.count().max(1) as f64)
}

pub fn run(args: &RunArgs, evict: bool) -> Result<Outcome, String> {
    if args.trace {
        return traced(args, evict);
    }
    let slice = args.seconds / SEGMENTS as f64;
    let mut setup_secs = Vec::with_capacity(SEGMENTS * SETUP_PER_SEGMENT);
    let mut windows = Vec::new();
    let mut lat_us = Vec::new();
    let (mut failed, mut evals, mut resumes, mut elapsed) = (0u64, 0u64, 0u64, 0.0);
    let mut problems = Vec::new();
    for segment in 0..SEGMENTS {
        let mut fleet = None;
        for rep in 0..SETUP_PER_SEGMENT {
            let t0 = Instant::now();
            let f = start_fleet(evict, false)?;
            setup_secs.push(t0.elapsed().as_secs_f64());
            if rep + 1 < SETUP_PER_SEGMENT {
                drop(f.clients);
                f.handle.shutdown();
            } else {
                fleet = Some(f);
            }
        }
        let phase = closed_loop(
            fleet.expect("a fleet"),
            evict,
            segment_seed(args.seed, segment),
            slice,
        )?;
        windows.extend(phase.windows);
        lat_us.extend(phase.lat_us);
        failed += phase.failed;
        evals += phase.evals;
        resumes += phase.resumes;
        elapsed += phase.elapsed;
        problems.extend(
            phase
                .problems
                .into_iter()
                .map(|p| format!("segment {segment}: {p}")),
        );
    }
    lat_us.sort_by(f64::total_cmp);
    let mut m = Metrics::default();
    m.put_median("setup_s", &setup_secs, "s");
    // Each figure is the median, over the run's unslowed windows, of
    // that window's own figure (see `stats::UNSLOWED_SHARE`).
    let per = |f: fn(&Window) -> f64| windows.iter().map(f).collect::<Vec<f64>>();
    m.put_unslowed("ops_per_s", &per(|w| w.per_s), false, "1/s");
    m.put_unslowed("req_p50_us", &per(|w| w.p50), true, "us");
    m.put_unslowed("req_p90_us", &per(|w| w.p90), true, "us");
    m.put(
        "vcycles_per_op",
        vcycles_per_request(args.seed, evict)?,
        "vcycle/op",
    );
    let all = |q: f64| Percentile::of(&lat_us, q);
    let mut notes = vec![
        format!(
            "{}: {evals} evals over {elapsed:.2} s in {SEGMENTS} segments on {} connections, {resumes} resumes",
            args.workload,
            clients(evict)
        ),
        format!(
            "all {} latencies (us): p50 {:.1} ({} beyond), p90 {:.1} ({} beyond); figures below come from the unslowed {WINDOW_SECS} s windows",
            lat_us.len(),
            all(50.0).value,
            all(50.0).beyond,
            all(90.0).value,
            all(90.0).beyond
        ),
    ];
    notes.extend(problems.iter().map(|p| format!("FAILED: {p}")));
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: evals.max(1),
        failed,
        metrics: m,
        notes,
    })
}

type Machine =
    Vm<TimedBackend<SmallBackend<TimedController<TwoPointerController>, TimedSink<ServeSink>>>>;

/// One session's request pipeline rebuilt from the public pieces —
/// `parse_all`, `FrontEnd::compile`, `Vm::run`, `try_write_out` and
/// `print` — with the VM↔LP and LP↔heap boundaries timed. Mirrors
/// `Session::eval`, which the replay checks it against.
struct Pipeline {
    interner: Interner,
    front: FrontEnd,
    vm: Machine,
    ledger: Rc<Ledger>,
    step_budget: u64,
}

/// Per-call times of the replay, in nanoseconds.
#[derive(Default)]
struct ReplayTimes {
    decode: Vec<f64>,
    parse: Vec<f64>,
    compile: Vec<f64>,
    print: Vec<f64>,
    encode: Vec<f64>,
    wal: Vec<f64>,
    suspend: Vec<f64>,
    resume: Vec<f64>,
    blob_bytes: u64,
    /// VM run time, and the LP work inside it.
    run_ns: f64,
    inner: Snap,
}

impl Pipeline {
    fn new(cfg: &ServeConfig, ledger: &Rc<Ledger>) -> Result<Pipeline, String> {
        let mut interner = Interner::new();
        let front = FrontEnd::new(&mut interner);
        let controller = TimedController {
            inner: TwoPointerController::new(cfg.heap_cells, 64),
            ledger: Rc::clone(ledger),
        };
        let sink = TimedSink::new(ServeSink::default(), Rc::clone(ledger), false);
        let lp = ListProcessor::with_sink(controller, cfg.lp_config(), sink);
        let backend = TimedBackend {
            inner: SmallBackend::from_lp(lp),
            ledger: Rc::clone(ledger),
        };
        let forms = parse_all("nil", &mut interner).map_err(|e| e.to_string())?;
        let program = front.compile(&forms).map_err(|e| e.to_string())?;
        Ok(Pipeline {
            interner,
            front,
            vm: Vm::new(program, backend),
            ledger: Rc::clone(ledger),
            step_budget: cfg.step_budget,
        })
    }

    fn eval(&mut self, src: &str, t: &mut ReplayTimes) -> Reply {
        let t0 = Instant::now();
        let forms = parse_all(src, &mut self.interner);
        t.parse.push(ns(t0.elapsed()));
        let forms = match forms {
            Ok(f) => f,
            Err(e) => return parse_error_reply(&e),
        };
        let t0 = Instant::now();
        let program = self.front.compile(&forms);
        t.compile.push(ns(t0.elapsed()));
        let program = match program {
            Ok(p) => p,
            Err(e) => return compile_error_reply(&e),
        };
        self.vm.load_program(program);
        self.vm.set_budget(self.step_budget);
        let before = self.ledger.snap();
        let t0 = Instant::now();
        let result = self.vm.run();
        t.run_ns += ns(t0.elapsed());
        t.inner.add(self.ledger.snap().since(before));
        let reply = match result {
            Ok(v) => {
                let backend = &mut self.vm.backend.inner;
                let out = self.ledger.time_lp(Some(7), || backend.try_write_out(&v));
                let reply = match out {
                    Ok(e) => {
                        let t0 = Instant::now();
                        let text = print(&e, &self.interner);
                        t.print.push(ns(t0.elapsed()));
                        Reply::Value { text }
                    }
                    Err(e) => lp_error_reply(&e),
                };
                if let VmValue::List(id) = v {
                    self.vm.backend.release(&id);
                }
                reply
            }
            Err(e) => {
                self.vm.recover();
                vm_error_reply(&e)
            }
        };
        let lp = &mut self.vm.backend.inner.lp;
        self.ledger.time_lp(None, || lp.drain_unroots());
        reply
    }

    fn lpt(&self) -> LptStats {
        self.vm.backend.inner.lp.stats()
    }

    fn vm_stats(&self) -> VmStats {
        self.vm.stats()
    }
}

/// Replay a fixed number of each session's requests in-process through
/// the public pieces, timing each: `Request::decode`, the rebuilt
/// pipeline, `Reply::encode`, `Wal::append`, and — for `serve-evict` —
/// `Session::resume`/`Session::suspend` around every eval, as the server
/// does. Real `Session`s answer too, and every reply must match theirs.
fn replay(
    seed: u64,
    evict: bool,
    t: &mut ReplayTimes,
    ledger: &Rc<Ledger>,
    spans: &mut SpanLog,
) -> Result<(u64, u64, LptStats, VmStats, u64), String> {
    let cfg = config(evict);
    let n = sessions(evict);
    let mut pipes = (0..n)
        .map(|_| Pipeline::new(&cfg, ledger))
        .collect::<Result<Vec<_>, _>>()?;
    let mut streams: Vec<Stream> = (0..n).map(|s| Stream::new(seed, s)).collect();
    // Sessions as the server holds them: resident, or suspended blobs.
    let mut live: Vec<Option<Session>> = (0..n).map(|s| Some(Session::new(s, &cfg))).collect();
    let mut blobs: Vec<Vec<u8>> = vec![Vec::new(); n as usize];
    if evict {
        for s in 0..n as usize {
            blobs[s] = live[s].take().expect("fresh session").suspend();
        }
    }
    let mut wal = Wal::new();
    let (mut requests, mut mismatches) = (0u64, 0u64);
    for _ in 0..REPLAY_PER_SESSION {
        for s in 0..n as usize {
            let text = streams[s].next_request();
            let root = spans.open("request", requests);
            let s0 = spans.now();
            let t0 = Instant::now();
            let req = Request::decode(&text);
            t.decode.push(ns(t0.elapsed()));
            spans.close("serve.protocol.decode", root, requests, s0);
            let Ok(Request::Eval { id, src, .. }) = req else {
                return Err(format!(
                    "generated request {text} does not decode to an eval"
                ));
            };
            let s0 = spans.now();
            let reply = pipes[s].eval(&src, t);
            spans.close("lisp.pipeline", root, requests, s0);
            let t0 = Instant::now();
            let wire = reply.encode();
            t.encode.push(ns(t0.elapsed()));
            let s0 = spans.now();
            let t0 = Instant::now();
            wal.append(
                id,
                WalOp::Eval {
                    seq: None,
                    src: src.clone(),
                },
                reply_digest(&reply),
            );
            t.wal.push(ns(t0.elapsed()));
            spans.close("serve.repl.wal_append", root, requests, s0);

            let mut session = match live[s].take() {
                Some(session) => session,
                None => {
                    let s0 = spans.now();
                    let t0 = Instant::now();
                    let session =
                        Session::resume(id, &cfg, &blobs[s]).map_err(|e| e.to_string())?;
                    t.resume.push(ns(t0.elapsed()));
                    spans.close("persist.resume", root, requests, s0);
                    session
                }
            };
            if session.eval(&src).encode() != wire {
                mismatches += 1;
            }
            if evict {
                let s0 = spans.now();
                let t0 = Instant::now();
                blobs[s] = session.suspend();
                t.suspend.push(ns(t0.elapsed()));
                spans.close("persist.suspend", root, requests, s0);
                t.blob_bytes += blobs[s].len() as u64;
            } else {
                live[s] = Some(session);
            }
            spans.finish(root);
            requests += 1;
        }
    }
    let mut lpt = LptStats::default();
    let mut vm = VmStats::default();
    for p in &pipes {
        let l = p.lpt();
        lpt.hits += l.hits;
        lpt.misses += l.misses;
        lpt.refops += l.refops;
        lpt.pseudo_overflows += l.pseudo_overflows;
        lpt.compressed += l.compressed;
        lpt.cycle_collections += l.cycle_collections;
        let v = p.vm_stats();
        vm.instructions += v.instructions;
        vm.fn_calls += v.fn_calls;
    }
    let wal_bytes = wal.frames_from(0, usize::MAX).0.len() as u64;
    Ok((requests, mismatches, lpt, vm, wal_bytes))
}

/// Sum of the server's own span durations by name, in microseconds,
/// read from its folded-stack export (`serve;<thread>;<name> <µs>`).
fn span_totals(drained: &small_serve::DrainOutcome) -> Vec<(String, f64)> {
    let mut totals: Vec<(String, f64)> = Vec::new();
    let Some(log) = &drained.trace else {
        return totals;
    };
    for line in log.folded_stacks().lines() {
        let Some((stack, us)) = line.rsplit_once(' ') else {
            continue;
        };
        let name = stack.rsplit(';').next().unwrap_or(stack).to_string();
        let us: f64 = us.parse().unwrap_or(0.0);
        match totals.iter_mut().find(|(n, _)| *n == name) {
            Some((_, t)) => *t += us,
            None => totals.push((name, us)),
        }
    }
    totals
}

fn traced(args: &RunArgs, evict: bool) -> Result<Outcome, String> {
    let cal = Calibration::measure();
    // Untraced and traced closed loops alternate, each on a fresh
    // server, so drift in the host's speed lands on both alike.
    let slice = args.seconds / 4.0;
    let (mut plain, mut tr) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        plain.push(closed_loop(
            start_fleet(evict, false)?,
            evict,
            args.seed,
            slice,
        )?);
        tr.push(closed_loop(
            start_fleet(evict, true)?,
            evict,
            args.seed,
            slice,
        )?);
    }
    let mut problems: Vec<String> = plain
        .iter()
        .chain(&tr)
        .flat_map(|p| p.problems.iter().cloned())
        .collect();
    let sum = |ps: &[Phase], f: &dyn Fn(&Phase) -> f64| -> f64 { ps.iter().map(f).sum() };

    let mut busy_us = 0.0;
    for p in &tr {
        for (name, us) in span_totals(&p.drained) {
            if name == "decode" || name == "flush" || name == "accept" || name.starts_with("run:") {
                busy_us += us;
            }
        }
    }
    let evals = sum(&tr, &|p| p.evals as f64).max(1.0);
    let mean_lat =
        sum(&tr, &|p| p.lat_us.iter().sum::<f64>()) / sum(&tr, &|p| p.lat_us.len() as f64).max(1.0);
    let mut vol = small_serve::VolatileMetrics::default();
    for p in &tr {
        vol.merge(&p.drained.volatile_total());
    }
    let path = crate::spans_path(args);
    if let Some(json) = tr.last().and_then(|p| p.drained.chrome_trace()) {
        let server = path.with_extension("server.json");
        if let Some(dir) = server.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(&server, json).map_err(|e| format!("writing {}: {e}", server.display()))?;
    }

    let ledger = Rc::new(Ledger::default());
    let mut t = ReplayTimes::default();
    let mut spans = SpanLog::new(crate::SPAN_CAP);
    let (requests, mismatches, lpt, vm, wal_bytes) =
        replay(args.seed, evict, &mut t, &ledger, &mut spans)?;
    if mismatches > 0 {
        problems.push(format!(
            "{mismatches} replayed replies differ from the session's"
        ));
    }
    let r = requests as f64;
    let l = &*ledger;
    let heap_calls = l.heap_total_calls() as f64;
    let lp_self = cal.lp_self(l) / r;
    let vm_self = cal.caller_self(t.run_ns, t.inner) / r;
    let heap_self = cal.heap_self(l) / r;
    let med = |v: &[f64]| Spread::of(v).median;
    let per = |c: u64| c as f64 / r;

    let mut m = crate::Layers::default();
    m.set("sexpr.parse_ns", med(&t.parse));
    m.set("sexpr.print_ns", med(&t.print));
    m.set("sexpr.calls", per((t.parse.len() + t.print.len()) as u64));
    m.set("lisp.compiler.compile_ns", med(&t.compile));
    m.set("lisp.compiler.calls", per(t.compile.len() as u64));
    m.set("lisp.vm.self_ns", vm_self);
    m.set("lisp.vm.instructions", per(vm.instructions));
    m.set(
        "lisp.vm.ns_per_instr",
        vm_self / per(vm.instructions).max(1e-9),
    );
    m.set("lisp.vm.fn_calls", per(vm.fn_calls));
    m.set("core.lp.self_ns", lp_self);
    for (k, name) in LP_CALLS.iter().enumerate() {
        m.set(&format!("core.lp.calls.{name}"), per(l.lp_calls[k].get()));
    }
    m.set("core.lp.hit_rate", lpt.hit_rate());
    let probes = l.cache_hits.get() + l.cache_misses.get();
    m.set(
        "core.lp.inline_cache_hit_rate",
        l.cache_hits.get() as f64 / probes.max(1) as f64,
    );
    m.set("core.lp.refops", per(lpt.refops));
    m.set("core.lp.reclaim_ns", l.reclaim_ns.get() as f64 / r);
    m.set("core.lp.pseudo_overflows", per(lpt.pseudo_overflows));
    m.set("core.lp.compressed", per(lpt.compressed));
    m.set("core.lp.cycle_collections", per(lpt.cycle_collections));
    m.set("heap.self_ns", heap_self);
    for (k, name) in HEAP_CALLS.iter().enumerate() {
        m.set(&format!("heap.calls.{name}"), per(l.heap_calls[k].get()));
    }
    m.set("heap.ns_per_call", heap_self * r / heap_calls.max(1.0));
    m.set("persist.suspend_ns", med(&t.suspend));
    m.set("persist.resume_ns", med(&t.resume));
    m.set(
        "persist.blob_bytes",
        t.blob_bytes as f64 / t.suspend.len().max(1) as f64,
    );
    m.set(
        "persist.resumes_per_req",
        sum(&tr, &|p| p.resumes as f64) / evals,
    );
    m.set("serve.protocol.decode_ns", med(&t.decode));
    m.set("serve.protocol.encode_ns", med(&t.encode));
    m.set("serve.shard.busy_us", busy_us / evals);
    m.set("serve.shard.wait_us", mean_lat - busy_us / evals);
    m.set("serve.shard.queue_depth", vol.queue_depth.mean());
    m.set(
        "serve.shard.sheds",
        (vol.busy_sheds.get() + vol.conn_sheds.get()) as f64,
    );
    m.set("serve.repl.wal_append_ns", med(&t.wal));
    m.set("serve.repl.wal_bytes", wal_bytes as f64 / r);
    crate::set_calibration(&mut m, &cal);
    m.set(
        "bench.ops_per_s_untraced",
        sum(&plain, &|p| p.evals as f64) / sum(&plain, &|p| p.elapsed),
    );
    m.set(
        "bench.ops_per_s_traced",
        sum(&tr, &|p| p.evals as f64) / sum(&tr, &|p| p.elapsed),
    );
    spans
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let mut notes = vec![format!(
        "{} traced: {} + {} evals over TCP (untraced + traced), {requests} replayed in-process; spans in {}",
        args.workload,
        sum(&plain, &|p| p.evals as f64),
        evals,
        path.display()
    )];
    notes.extend(problems.iter().map(|p| format!("FAILED: {p}")));
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: plain.iter().chain(&tr).map(|p| p.evals).sum::<u64>() + requests,
        failed: plain.iter().chain(&tr).map(|p| p.failed).sum::<u64>() + mismatches,
        metrics: m.into_metrics(),
        notes,
    })
}
