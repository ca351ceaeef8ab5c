//! The deterministic soak harness: a concurrent client fleet against
//! the sharded TCP server, compared byte-for-byte with a serial
//! in-process twin.
//!
//! For every pinned seed, `clients` threads each open a session and
//! replay the seed's generated request stream (see [`crate::gen`]),
//! collecting the full reply transcript — evals, ledger, digest,
//! close. The same streams then run serially through a
//! [`SessionStore`] twin with eviction disabled
//! ([`SessionStore::apply`] produces exactly the replies the server
//! encodes). Session isolation and eviction-transparency reduce to one
//! check: **every transcript must be byte-identical across the two
//! runs**, even though the server run interleaved requests across
//! shards and suspended/resumed sessions under per-shard LRU pressure.
//! Session ids are allocated in decode order and therefore racy across
//! concurrent clients, so fleet transcripts exclude the `(ok opened …)`
//! reply; every other reply is id-free.
//!
//! A deterministic *eviction sweep* follows the fleet on both sides:
//! `max_resident + 2` sessions driven round-robin over one lockstep
//! connection, so every request round forces suspend/resume churn in a
//! fixed order (and, being lockstep, fixed ids — the sweep transcript
//! *does* include open replies). This guarantees the suspend/resume
//! path is exercised regardless of how the parallel phase was
//! scheduled.
//!
//! An optional **churn phase** (`churn > 0`) then rolls thousands of
//! short-lived sessions through a fresh server — open, a few requests,
//! close — across a small worker fleet, proving the sharded core
//! sustains multi-thousand-session turnover behind bounded queues with
//! zero busy-sheds at lockstep depth.
//!
//! After the sweep, the harness fetches a live `(metrics)` snapshot
//! over the wire and byte-compares its deterministic section (per-kind
//! request counts and virtual-cycle latency histograms) against the
//! serial twin's: request latency on the virtual clock is a pure
//! function of each request's operation stream, and histogram merging
//! is order-independent, so shard scheduling and eviction churn must
//! be invisible in the snapshot too.
//!
//! The report (`results/soak_report.json`) contains only
//! schedule-independent data — transcripts' digests, per-run aggregate
//! event counts, the deterministic metrics snapshot, match flags — and
//! is therefore byte-identical across runs; CI `cmp`s a double run.
//! Scheduling-dependent observables (eviction/resume totals, wall-clock
//! req/s, per-shard latency summaries, Prometheus text, Chrome traces)
//! are returned to the caller for threshold assertions and stderr,
//! never written to the report.

use crate::client::{Client, RetryClient, RetryPolicy};
use crate::gen::programs_for;
use crate::manager::SessionStore;
use crate::protocol::{Reply, Request, Role};
use crate::server::{self, ServerParams};
use crate::session::ServeConfig;
use crate::telemetry::{prometheus_text, ReqKind, ShardMetrics, VolatileMetrics};
use small_persist::{digest_bytes, DIGEST_SEED};
use std::io;
use std::net::TcpStream;
use std::time::Instant;

/// Soak run shape.
#[derive(Debug, Clone)]
pub struct SoakParams {
    /// Seeds to run (one server per seed).
    pub seeds: Vec<u64>,
    /// Concurrent clients per seed.
    pub clients: usize,
    /// Generated eval requests per client (plus fixed prologue/teardown).
    pub requests: usize,
    /// Per-session machine configuration; a small `max_resident` keeps
    /// every shard's LRU evictor busy during the fleet phase.
    pub cfg: ServeConfig,
    /// Server shape (shards, queue bounds, connection caps).
    pub server: ServerParams,
    /// Total short-lived sessions for the churn phase (0 = skip).
    pub churn: usize,
    /// Concurrent churn workers.
    pub churn_workers: usize,
}

impl Default for SoakParams {
    fn default() -> Self {
        SoakParams {
            seeds: vec![11, 23, 47],
            clients: 8,
            requests: 32,
            cfg: ServeConfig {
                heap_cells: 1 << 13,
                table_size: 384,
                // One resident session per shard: any two sessions
                // sharing a shard thrash suspend/resume.
                max_resident: 1,
                ..ServeConfig::default()
            },
            server: ServerParams {
                shards: 2,
                queue_cap: 64,
                max_conns_per_shard: 64,
                replicate: false,
                ..ServerParams::default()
            },
            churn: 0,
            churn_workers: 4,
        }
    }
}

/// What a soak run produced.
pub struct SoakOutcome {
    /// The deterministic JSON report body.
    pub report: String,
    /// Transcript (or aggregate-count, or metrics-snapshot) divergences
    /// found.
    pub mismatches: usize,
    /// Total LRU evictions across all servers (scheduling-dependent).
    pub evictions: u64,
    /// Total resume-on-touch events (scheduling-dependent).
    pub resumes: u64,
    /// Human-readable per-seed/per-shard telemetry lines — sustained
    /// requests/sec and binned p50/p99 eval latency on the virtual
    /// clock. Scheduling-dependent (stderr material, never report
    /// material).
    pub summary: Vec<String>,
    /// Prometheus-style text exposition of the telemetry merged across
    /// every seed's server (the `--metrics-out` payload).
    pub prometheus: String,
    /// Chrome Trace Format JSON from the last seed's server, when the
    /// soak ran with [`ServerParams::trace`].
    pub chrome_trace: Option<String>,
    /// Summed [`RetryClient::retries`] across every fleet and churn
    /// worker. Attempt counts are timing-dependent, so these three
    /// live in the stderr summary only — never in the byte-compared
    /// report.
    pub client_retries: u64,
    /// Summed [`RetryClient::reconnects`] across workers.
    pub client_reconnects: u64,
    /// Summed [`RetryClient::redials`] across workers.
    pub client_redials: u64,
}

/// (retries, reconnects, redials) of one worker's client.
type ClientCounters = (u64, u64, u64);

/// A fresh single-endpoint retrying client against `addr`. The soak
/// wire is clean local TCP, so the counters are expected to read
/// zero — but the fleet runs the same client type the chaos campaigns
/// torture, and the bins report whatever it actually absorbed.
fn retry_client(addr: std::net::SocketAddr, seed: u64) -> RetryClient<TcpStream> {
    RetryClient::new(
        move || {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Client::from_transport(stream, Role::Client)
        },
        RetryPolicy {
            seed,
            ..RetryPolicy::default()
        },
    )
}

fn transcript_digest(replies: &[String]) -> u64 {
    let mut h = DIGEST_SEED;
    for r in replies {
        h = digest_bytes(h, r.as_bytes());
    }
    h
}

/// The typed request stream one fleet client sends after opening its
/// session (transcripted; the racy `(ok opened …)` reply is not).
fn client_requests(id: u64, seed: u64, client: u64, requests: usize) -> Vec<Request> {
    let mut reqs: Vec<Request> = programs_for(seed, client, requests)
        .into_iter()
        .map(|src| Request::Eval { id, seq: None, src })
        .collect();
    reqs.push(Request::Ledger { id });
    reqs.push(Request::Digest { id });
    reqs.push(Request::Close { id, seq: None });
    reqs
}

/// One TCP client's full scripted conversation, plus its retry
/// counters (surfaced in the bin summary, never in the report).
fn tcp_client_run(
    addr: std::net::SocketAddr,
    seed: u64,
    client: u64,
    requests: usize,
) -> io::Result<(Vec<String>, ClientCounters)> {
    let mut c = retry_client(addr, seed ^ client.rotate_left(32));
    let id = match c.request(&Request::Open { token: None })? {
        Reply::Opened { id } => id,
        other => return Err(io::Error::new(io::ErrorKind::InvalidData, other.encode())),
    };
    let mut t = Vec::new();
    for req in client_requests(id, seed, client, requests) {
        t.push(c.request_text(&req.encode())?);
    }
    Ok((t, (c.retries(), c.reconnects(), c.redials())))
}

/// The serial twin of [`tcp_client_run`]: same typed requests, one
/// thread, no eviction.
fn serial_client_run(
    twin: &mut SessionStore,
    seed: u64,
    client: u64,
    requests: usize,
) -> Vec<String> {
    let id = twin.open();
    client_requests(id, seed, client, requests)
        .iter()
        .map(|req| twin.apply(req).encode())
        .collect()
}

/// The deterministic eviction sweep, expressed over any request
/// transport. Opens `max_resident + 2` sessions and drives them
/// round-robin so every round suspends and resumes sessions in a
/// fixed order. Lockstep on one connection, so the open replies are
/// deterministic and transcripted.
fn run_sweep(
    req: &mut dyn FnMut(&Request) -> io::Result<String>,
    seed: u64,
    cfg: &ServeConfig,
) -> io::Result<Vec<String>> {
    let fleet = cfg.max_resident + 2;
    let sweep_seed = seed.wrapping_add(0x5eed);
    let mut t = Vec::new();
    let mut ids = Vec::new();
    for _ in 0..fleet {
        let reply = req(&Request::Open { token: None })?;
        let id = match Reply::decode(&reply) {
            Some(Reply::Opened { id }) => id,
            _ => return Err(io::Error::new(io::ErrorKind::InvalidData, reply)),
        };
        t.push(reply);
        ids.push(id);
    }
    let progs: Vec<Vec<String>> = (0..fleet)
        .map(|k| programs_for(sweep_seed, k as u64, 6))
        .collect();
    let rounds = progs[0].len();
    for round in 0..rounds {
        for (&id, prog) in ids.iter().zip(progs.iter()) {
            t.push(req(&Request::Eval {
                id,
                seq: None,
                src: prog[round].clone(),
            })?);
        }
    }
    for &id in &ids {
        t.push(req(&Request::Ledger { id })?);
        t.push(req(&Request::Digest { id })?);
        t.push(req(&Request::Close { id, seq: None })?);
    }
    Ok(t)
}

/// Run one seed's serial twin alone — the fleet scripts plus the
/// eviction sweep, no TCP, no threads — and return its request
/// telemetry. This is the deterministic "soak cell" the bench
/// trajectory commits: virtual-cycle latency histograms that any
/// machine reproduces byte-identically from the seed.
pub fn twin_telemetry(
    seed: u64,
    clients: usize,
    requests: usize,
    cfg: &ServeConfig,
) -> ShardMetrics {
    let mut twin = SessionStore::new(ServeConfig {
        max_resident: usize::MAX,
        ..*cfg
    });
    for c in 0..clients {
        // Same request stream as `serial_client_run`, but nobody reads
        // the replies here — telemetry is recorded inside `apply` — so
        // skip the transcript encode.
        let id = twin.open();
        for req in client_requests(id, seed, c as u64, requests) {
            let _ = twin.apply(&req);
        }
    }
    // The eviction sweep, mirroring `run_sweep`'s exact request
    // sequence (same opens, same round-robin evals, same teardown —
    // `regress --check` holds the telemetry byte-identical to the
    // transcripted path), minus the reply encode/decode round-trips
    // nothing here reads.
    let fleet = cfg.max_resident + 2;
    let sweep_seed = seed.wrapping_add(0x5eed);
    let ids: Vec<u64> = (0..fleet)
        .map(|_| match twin.apply(&Request::Open { token: None }) {
            Reply::Opened { id } => id,
            other => unreachable!("twin open failed: {}", other.encode()),
        })
        .collect();
    let progs: Vec<Vec<String>> = (0..fleet)
        .map(|k| programs_for(sweep_seed, k as u64, 6))
        .collect();
    for round in 0..progs[0].len() {
        for (&id, prog) in ids.iter().zip(progs.iter()) {
            let _ = twin.apply(&Request::Eval {
                id,
                seq: None,
                src: prog[round].clone(),
            });
        }
    }
    for &id in &ids {
        let _ = twin.apply(&Request::Ledger { id });
        let _ = twin.apply(&Request::Digest { id });
        let _ = twin.apply(&Request::Close { id, seq: None });
    }
    twin.telemetry().clone()
}

/// The request scripts of one churn worker: `sessions` short-lived
/// sessions, each opened, exercised briefly, and closed.
fn churn_scripts(seed: u64, worker: u64, sessions: usize) -> Vec<Vec<String>> {
    (0..sessions)
        .map(|k| programs_for(seed ^ 0xc4a0, worker * 1_000_003 + k as u64, 2))
        .collect()
}

/// One churn worker's conversation: open → short script → close per
/// session, transcripting every id-free reply.
fn churn_worker_run(
    addr: std::net::SocketAddr,
    seed: u64,
    worker: u64,
    sessions: usize,
) -> io::Result<(Vec<String>, ClientCounters)> {
    let mut c = retry_client(addr, seed ^ worker.rotate_left(48));
    let mut t = Vec::new();
    for script in churn_scripts(seed, worker, sessions) {
        let id = match c.request(&Request::Open { token: None })? {
            Reply::Opened { id } => id,
            other => return Err(io::Error::new(io::ErrorKind::InvalidData, other.encode())),
        };
        for src in script {
            t.push(c.request_text(&Request::Eval { id, seq: None, src }.encode())?);
        }
        t.push(c.request_text(&Request::Close { id, seq: None }.encode())?);
    }
    Ok((t, (c.retries(), c.reconnects(), c.redials())))
}

struct ChurnResult {
    json: String,
    mismatches: usize,
    evictions: u64,
    resumes: u64,
    counters: ClientCounters,
}

/// The churn phase: `total` sessions rolled through a fresh server by
/// `workers` concurrent connections, vs. a serial twin.
fn run_churn(p: &SoakParams, seed: u64) -> io::Result<ChurnResult> {
    let total = p.churn;
    let workers = p.churn_workers.max(1);
    let per_worker = total.div_ceil(workers);
    let handle = server::start("127.0.0.1:0", p.cfg, p.server)?;
    let addr = handle.addr();

    let transcripts: Vec<io::Result<(Vec<String>, ClientCounters)>> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..workers)
            .map(|w| s.spawn(move || churn_worker_run(addr, seed, w as u64, per_worker)))
            .collect();
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|_| Err(io::Error::other("churn worker panicked")))
            })
            .collect()
    });

    let outcome = handle.shutdown();
    let (evictions, resumes) = outcome.eviction_counters();
    let server_counts = outcome.aggregate_counts();

    // Serial twin: every worker's scripts, one store, no eviction.
    let mut twin = SessionStore::new(ServeConfig {
        max_resident: usize::MAX,
        ..p.cfg
    });
    let mut mismatches = 0usize;
    let mut digests = Vec::new();
    let mut counters = (0u64, 0u64, 0u64);
    for (w, transcript) in transcripts.iter().enumerate() {
        let mut serial = Vec::new();
        for script in churn_scripts(seed, w as u64, per_worker) {
            let id = twin.open();
            for src in script {
                serial.push(twin.apply(&Request::Eval { id, seq: None, src }).encode());
            }
            serial.push(twin.apply(&Request::Close { id, seq: None }).encode());
        }
        let ok = matches!(transcript, Ok((t, _)) if *t == serial);
        if !ok {
            mismatches += 1;
        }
        if let Ok((_, (retries, reconnects, redials))) = transcript {
            counters.0 += retries;
            counters.1 += reconnects;
            counters.2 += redials;
        }
        digests.push(format!(
            "{{\"worker\":{w},\"reply_digest\":\"d{:016x}\",\"match\":{ok}}}",
            transcript_digest(&serial)
        ));
    }
    let counts_ok = server_counts == twin.aggregate_counts();
    if !counts_ok {
        mismatches += 1;
    }
    let sessions = per_worker * workers;
    Ok(ChurnResult {
        json: format!(
            "{{\"sessions\":{sessions},\"workers\":{workers},\
             \"counts_match\":{counts_ok},\"transcripts\":[{}]}}",
            digests.join(",")
        ),
        mismatches,
        evictions,
        resumes,
        counters,
    })
}

/// Run the full soak campaign. IO errors from the TCP leg surface as
/// mismatches (a transcript that could not be collected can't match),
/// not process aborts.
pub fn run_soak(p: &SoakParams) -> io::Result<SoakOutcome> {
    let mut runs = Vec::new();
    let mut mismatches = 0usize;
    let mut evictions = 0u64;
    let mut resumes = 0u64;
    let mut summary = Vec::new();
    let mut total_reqs = ShardMetrics::default();
    let mut total_vol = VolatileMetrics::default();
    let mut chrome_trace = None;
    let (mut client_retries, mut client_reconnects, mut client_redials) = (0u64, 0u64, 0u64);

    for &seed in &p.seeds {
        let handle = server::start("127.0.0.1:0", p.cfg, p.server)?;
        let addr = handle.addr();
        let t_run = Instant::now();

        // Phase 1: the concurrent fleet.
        let server_transcripts: Vec<io::Result<(Vec<String>, ClientCounters)>> =
            std::thread::scope(|s| {
                let joins: Vec<_> = (0..p.clients)
                    .map(|c| s.spawn(move || tcp_client_run(addr, seed, c as u64, p.requests)))
                    .collect();
                joins
                    .into_iter()
                    .map(|j| {
                        j.join()
                            .unwrap_or_else(|_| Err(io::Error::other("client thread panicked")))
                    })
                    .collect()
            });
        for (_, (retries, reconnects, redials)) in server_transcripts.iter().flatten() {
            client_retries += retries;
            client_reconnects += reconnects;
            client_redials += redials;
        }

        // Phase 2: the deterministic eviction sweep over one connection.
        let sweep_server: io::Result<Vec<String>> = (|| {
            let mut c = Client::connect(addr, Role::Client)?;
            run_sweep(&mut |req| c.request_text(&req.encode()), seed, &p.cfg)
        })();

        let elapsed = t_run.elapsed();

        // The live wire surface: a `(metrics)` snapshot fetched after
        // every fleet and sweep reply has been received. Reply release
        // happens only after the owning shard publishes its telemetry
        // cell, so this merged snapshot is final — its deterministic
        // section must equal the serial twin's, byte for byte.
        let wire_metrics: io::Result<(String, String)> = (|| {
            let mut c = Client::connect(addr, Role::Client)?;
            match c.request(&Request::Metrics).map_err(io::Error::other)? {
                Reply::Metrics {
                    deterministic,
                    volatile,
                } => Ok((deterministic, volatile)),
                other => Err(io::Error::new(io::ErrorKind::InvalidData, other.encode())),
            }
        })();

        // Graceful drain; the outcome carries final state for audit.
        if let Ok(mut c) = Client::connect(addr, Role::Client) {
            let _ = c.request(&Request::Shutdown);
        }
        let outcome = handle.shutdown();
        let server_counts = outcome.aggregate_counts();
        let (ev, res) = outcome.eviction_counters();
        evictions += ev;
        resumes += res;

        // Per-shard virtual-clock latency summary (scheduling-dependent:
        // fleet session ids are racy, so shard assignment varies).
        let seed_reqs: u64 = outcome
            .stores
            .iter()
            .map(|s| s.telemetry().requests())
            .sum();
        let secs = elapsed.as_secs_f64().max(1e-9);
        summary.push(format!(
            "seed {seed}: {seed_reqs} requests in {secs:.3}s ({:.0} req/s sustained)",
            seed_reqs as f64 / secs
        ));
        for (k, store) in outcome.stores.iter().enumerate() {
            let t = store.telemetry();
            let e = t.kind(ReqKind::Eval);
            summary.push(format!(
                "  shard {k}: {} requests, {} evals, eval latency p50={} p99={} cycles",
                t.requests(),
                e.count.get(),
                e.cycles.quantile(0.5),
                e.cycles.quantile(0.99),
            ));
        }
        total_reqs.merge(&outcome.telemetry());
        total_vol.merge(&outcome.volatile_total());
        if let Some(json) = outcome.chrome_trace() {
            chrome_trace = Some(json);
        }
        // The drain guarantee has teeth: every suspended blob written
        // by the final evictions must decode cleanly.
        let blobs_ok = outcome.verify_suspended().is_ok();

        // Serial twin: same typed requests, one thread, no eviction.
        let mut twin = SessionStore::new(ServeConfig {
            max_resident: usize::MAX,
            ..p.cfg
        });
        let serial_transcripts: Vec<Vec<String>> = (0..p.clients)
            .map(|c| serial_client_run(&mut twin, seed, c as u64, p.requests))
            .collect();
        let sweep_serial = run_sweep(&mut |req| Ok(twin.apply(req).encode()), seed, &p.cfg)
            .expect("serial sweep is infallible");
        let serial_counts = twin.aggregate_counts();
        let twin_metrics = twin.telemetry().deterministic_json();

        // Compare.
        let mut sessions_json = Vec::new();
        for c in 0..p.clients {
            let serial = &serial_transcripts[c];
            let ok = matches!(&server_transcripts[c], Ok((t, _)) if t == serial);
            if !ok {
                mismatches += 1;
            }
            sessions_json.push(format!(
                "{{\"client\":{c},\"reply_digest\":\"d{:016x}\",\"match\":{ok}}}",
                transcript_digest(serial)
            ));
        }
        let sweep_ok = matches!(&sweep_server, Ok(t) if *t == sweep_serial);
        if !sweep_ok {
            mismatches += 1;
        }
        let counts_ok = server_counts == serial_counts;
        if !counts_ok {
            mismatches += 1;
        }
        if !blobs_ok {
            mismatches += 1;
        }
        // The telemetry gate: the snapshot fetched over the wire from
        // the sharded, racy, eviction-thrashed server must be
        // byte-identical to the serial twin's — virtual-cycle latency
        // is a pure function of each request's op stream, and
        // histogram merging is order-independent.
        let metrics_ok = matches!(&wire_metrics, Ok((det, _)) if *det == twin_metrics);
        if !metrics_ok {
            mismatches += 1;
        }
        runs.push(format!(
            "{{\"seed\":{seed},\"sessions\":[{}],\
             \"sweep_digest\":\"d{:016x}\",\"sweep_match\":{sweep_ok},\
             \"counts_match\":{counts_ok},\"metrics_match\":{metrics_ok},\
             \"drain_blobs_ok\":{blobs_ok},\"metrics\":{twin_metrics},\"aggregate\":{}}}",
            sessions_json.join(","),
            transcript_digest(&sweep_serial),
            serial_counts.to_json(),
        ));
    }

    // Phase 3 (optional): multi-thousand-session churn on the first seed.
    let churn_json = if p.churn > 0 {
        let seed = p.seeds.first().copied().unwrap_or(11);
        let churn = run_churn(p, seed)?;
        mismatches += churn.mismatches;
        evictions += churn.evictions;
        resumes += churn.resumes;
        client_retries += churn.counters.0;
        client_reconnects += churn.counters.1;
        client_redials += churn.counters.2;
        churn.json
    } else {
        "null".to_string()
    };

    let report = format!(
        "{{\"schema\":\"soak_report_v3\",\"proto_version\":{},\"clients\":{},\"requests\":{},\
         \"shards\":{},\"queue_cap\":{},\
         \"seeds\":[{}],\"all_match\":{},\"churn\":{churn_json},\"runs\":[{}]}}\n",
        crate::protocol::PROTO_VERSION,
        p.clients,
        p.requests,
        p.server.shards,
        p.server.queue_cap,
        p.seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(","),
        mismatches == 0,
        runs.join(","),
    );
    Ok(SoakOutcome {
        report,
        mismatches,
        evictions,
        resumes,
        summary,
        prometheus: prometheus_text(&total_reqs, &total_vol),
        chrome_trace,
        client_retries,
        client_reconnects,
        client_redials,
    })
}
