//! The replication chaos campaign: one scenario matrix.
//!
//! Every run stands up a replicating primary with one or two
//! [`RelayNode`] replicas behind it, drives a seeded, fully idempotent
//! script in lockstep, kills the serving node at pinned operation
//! indices, and compares every reply byte-for-byte against an
//! uninterrupted serial twin. A [`Row`] picks one point of
//!
//! * **topology** — [`Topology::Standby`]: one replica, promoted
//!   in-process; the rest of the script and the epilogue are applied
//!   to its store directly. [`Topology::Chain`]: primary → S1 → S2,
//!   S2 pulling S1's retained log over real TCP; each promoted node
//!   keeps serving on its inherited listener, so the client, the
//!   downstream puller and the rest of the run stay on the wire.
//! * **kills** — one per replica, so the topology fixes the count
//!   (standby 1, chain 2). The first kill is pinned; each later one
//!   falls halfway through the rest of the script (`second_kill`).
//! * **faults** — [`Faults::None`]: a clean wire. [`Faults::Wire`]: a
//!   seeded [`FaultPlan`], injected at the transport boundary (a
//!   [`FaultyStream`] under the retrying client: torn frames,
//!   connection resets at pinned byte offsets) and on the replication
//!   hops (duplicated, delayed and corrupted pulls).
//!
//! Promotion is never scripted: each replica holds a [`Lease`] on the
//! node it follows, fed by `(ping)` heartbeats, and promotes only
//! after the dead node has missed [`LeaseParams::miss_threshold`]
//! consecutive probes. After every promotion the last acknowledged
//! mutation before each kill so far is re-sent and must be answered
//! from the replicated dedup window: the same reply bytes, nothing
//! executed. Each dead node's drain must leave only fully-written
//! suspend blobs, and the survivor must agree with the twin on
//! aggregate event counts and open sessions.
//!
//! The report (`results/cluster_report.json`) contains only
//! schedule-independent data and is byte-identical across runs.
//! Client retry counters depend on timing, so they go to stderr only.

use crate::client::{self, Client, DialFn, RetryClient, RetryPolicy, Transport};
use crate::gen::programs_for;
use crate::manager::SessionStore;
use crate::protocol::{Reply, Request, Role};
use crate::repl::{Lease, LeaseParams, RelayNode, ReplError};
use crate::server::{self, ServerHandle, ServerParams};
use crate::session::ServeConfig;
use rand::splitmix64;
use small_persist::{digest_bytes, DIGEST_SEED};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Heartbeat cadence while a node leads (every N script ops), so each
/// lease sees real beats before its kill and the probe count is a
/// deterministic function of the kill points.
const HEARTBEAT_EVERY: usize = 8;

/// Tokens for the scripted opens start here (any value works; being
/// far from the session-id range keeps transcripts easy to read).
const TOKEN_BASE: u64 = 1000;

// ---------------------------------------------------------------------
// The fault plan
// ---------------------------------------------------------------------

/// The seeded fault schedule for one run. Everything here is computed
/// up front from `(seed, kill_at)` — nothing is drawn during I/O — so
/// the faults a run experiences are a pure function of its key. The
/// default plan schedules nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Cumulative client-connection byte offsets (reads + writes
    /// combined, across reconnects) at which the connection is reset.
    pub reset_offsets: Vec<u64>,
    /// Script indices after which the standby re-applies an
    /// already-applied batch (must be skipped as a duplicate).
    pub dup_pulls: Vec<usize>,
    /// Script indices whose catch-up is skipped (applied lag grows).
    /// Never includes the final pre-kill index, so the standby is
    /// always caught up when the primary dies.
    pub delayed_pulls: Vec<usize>,
    /// Script indices where a corrupted copy of the next batch is
    /// probed (must fail closed) before the clean batch applies.
    pub corrupt_pulls: Vec<usize>,
}

impl FaultPlan {
    /// Build the plan for one `(seed, kill_at)` run.
    pub fn new(seed: u64, kill_at: usize) -> FaultPlan {
        let mut rng = seed ^ 0x6E65_7463_6861_6F73; // "netchaos"
        let mut reset_offsets = Vec::new();
        // First reset lands inside the early frames; spacing leaves a
        // full retry cycle (redial handshake + re-send + reply) of
        // headroom so a bounded attempt budget always wins through.
        let mut at = 200 + splitmix64(&mut rng) % 256;
        for _ in 0..6 {
            reset_offsets.push(at);
            at += 384 + splitmix64(&mut rng) % 512;
        }
        let (mut dup_pulls, mut delayed_pulls, mut corrupt_pulls) =
            (Vec::new(), Vec::new(), Vec::new());
        for i in 1..kill_at {
            match splitmix64(&mut rng) % 8 {
                0 => dup_pulls.push(i),
                1 if i + 1 < kill_at => delayed_pulls.push(i),
                2 => corrupt_pulls.push(i),
                _ => {}
            }
        }
        FaultPlan {
            reset_offsets,
            dup_pulls,
            delayed_pulls,
            corrupt_pulls,
        }
    }

    /// Distinct fault points this plan schedules (resets are counted
    /// as planned here; the report also records how many fired).
    pub fn points(&self) -> usize {
        self.reset_offsets.len()
            + self.dup_pulls.len()
            + self.delayed_pulls.len()
            + self.corrupt_pulls.len()
    }
}

// ---------------------------------------------------------------------
// The faulty transport
// ---------------------------------------------------------------------

/// Shared fault-injection state: one per run, threaded through every
/// [`FaultyStream`] the run's client dials, so byte counters and the
/// reset queue survive reconnects.
#[derive(Debug)]
pub struct FaultState {
    /// Chunk-size stream. Private to the transport: its consumption
    /// rate depends on call timing, which is why reset offsets are
    /// *not* drawn from it during I/O.
    rng: u64,
    /// Cumulative bytes moved (reads + writes) across every connection
    /// sharing this state.
    transferred: u64,
    /// Pending reset offsets against `transferred`, ascending.
    resets: VecDeque<u64>,
    /// Offsets consumed so far.
    resets_fired: u64,
}

impl FaultState {
    /// Fresh shared state with a seeded chunker and a reset queue.
    pub fn shared(seed: u64, reset_offsets: &[u64]) -> Arc<Mutex<FaultState>> {
        Arc::new(Mutex::new(FaultState {
            rng: seed ^ 0x5DEE_CE66_D1CE_4E5B,
            transferred: 0,
            resets: reset_offsets.iter().copied().collect(),
            resets_fired: 0,
        }))
    }

    /// Resets injected so far.
    pub fn resets_fired(&self) -> u64 {
        self.resets_fired
    }

    /// Total bytes moved through faulty streams so far.
    pub fn transferred(&self) -> u64 {
        self.transferred
    }

    /// Budget for one I/O call of at most `len` bytes: `None` means
    /// the call must inject a reset *now* (the counter sits exactly on
    /// a planned offset); otherwise the allowed size, clamped to the
    /// seeded chunk and to the distance to the next offset so the
    /// counter can never jump past one.
    fn pre_io(&mut self, len: usize) -> Option<usize> {
        if let Some(&next) = self.resets.front() {
            if self.transferred >= next {
                self.resets.pop_front();
                self.resets_fired += 1;
                return None;
            }
        }
        let chunk = 1 + (splitmix64(&mut self.rng) % 64) as usize;
        let room = self
            .resets
            .front()
            .map(|&next| (next - self.transferred) as usize)
            .unwrap_or(usize::MAX);
        Some(len.min(chunk).min(room))
    }
}

/// A [`TcpStream`] that tears frames and dies on schedule: every read
/// and write is clamped to a seeded chunk size, and when the shared
/// cumulative byte counter reaches a planned offset the socket is shut
/// down and the call fails with `ConnectionReset`. Implements
/// [`Transport`], so a [`Client`] runs over it unchanged.
#[derive(Debug)]
pub struct FaultyStream {
    inner: TcpStream,
    state: Arc<Mutex<FaultState>>,
}

impl FaultyStream {
    /// Wrap a connected stream in a run's shared fault state.
    pub fn new(inner: TcpStream, state: Arc<Mutex<FaultState>>) -> FaultyStream {
        FaultyStream { inner, state }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn inject_reset(&self) -> io::Error {
        let _ = self.inner.shutdown(Shutdown::Both);
        io::Error::new(io::ErrorKind::ConnectionReset, "injected reset")
    }
}

impl Read for FaultyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let cap = match self.lock().pre_io(buf.len()) {
            Some(cap) => cap,
            None => return Err(self.inject_reset()),
        };
        let n = self.inner.read(&mut buf[..cap])?;
        self.lock().transferred += n as u64;
        Ok(n)
    }
}

impl Write for FaultyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let cap = match self.lock().pre_io(buf.len()) {
            Some(cap) => cap,
            None => return Err(self.inject_reset()),
        };
        let n = self.inner.write(&buf[..cap])?;
        self.lock().transferred += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Transport for FaultyStream {
    fn try_split(&self) -> io::Result<FaultyStream> {
        Ok(FaultyStream {
            inner: self.inner.try_clone()?,
            state: Arc::clone(&self.state),
        })
    }
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(timeout)
    }
}

// ---------------------------------------------------------------------
// The scenario matrix
// ---------------------------------------------------------------------

/// How the replicas stand behind the primary, and where a promoted
/// replica serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One replica, promoted in-process: the harness applies the rest
    /// of the script and the epilogue to the promoted store directly.
    Standby,
    /// Primary → S1 → S2. S1 pulls the primary's WAL and relays its
    /// retained frames to S2 over TCP. A promoted node serves on its
    /// inherited listener and keeps shipping to the rest of the chain.
    Chain,
}

impl Topology {
    /// Replicas behind the primary, and so the nodes a row kills.
    pub fn replicas(self) -> usize {
        match self {
            Topology::Standby => 1,
            Topology::Chain => 2,
        }
    }
}

/// The wire a row runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faults {
    /// Clean TCP and clean pulls.
    None,
    /// A seeded [`FaultPlan`] on the client wire and the replication
    /// hops.
    Wire,
}

/// One row of the matrix, with the seeds and first-kill points it
/// runs: every seed runs once per kill point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Replica layout and where promoted nodes serve.
    pub topology: Topology,
    /// Clean or faulty wire.
    pub faults: Faults,
    /// Seeds to run.
    pub seeds: Vec<u64>,
    /// Global operation indices of the first kill.
    pub kill_points: Vec<usize>,
}

impl Row {
    /// The scenario name, `topology/kills/faults` (e.g. `chain/2/wire`),
    /// with one kill per replica.
    pub fn name(&self) -> String {
        let topology = match self.topology {
            Topology::Standby => "standby",
            Topology::Chain => "chain",
        };
        let faults = match self.faults {
            Faults::None => "none",
            Faults::Wire => "wire",
        };
        format!("{topology}/{}/{faults}", self.topology.replicas())
    }
}

/// Campaign shape.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// The scenario rows, run in order.
    pub rows: Vec<Row>,
    /// Sessions opened (with idempotency tokens) before the rounds.
    pub sessions: usize,
    /// Generated eval requests per session. [`programs_for`] adds a
    /// two-request prologue and a closing `(setq acc nil)` (plus one
    /// more reset per 16 requests), so at the defaults the script is
    /// 4 opens + 4 × 11 evals = 48 ops.
    pub requests: usize,
    /// Primary (and twin-input) machine configuration.
    pub cfg: ServeConfig,
    /// Replica machine configurations in chain order (S1, S2). Each
    /// caps residency differently from the primary and from the other,
    /// so replay eviction provably cannot leak into replicated state.
    pub replica_cfgs: [ServeConfig; 2],
    /// Primary server shape; `replicate` is forced on.
    pub server: ServerParams,
}

impl Default for ClusterParams {
    fn default() -> Self {
        let cfg = ServeConfig {
            heap_cells: 1 << 13,
            table_size: 384,
            max_resident: 2,
            ..ServeConfig::default()
        };
        ClusterParams {
            rows: vec![
                // Kill points early (mid-open ramp), middle and late in
                // the 48-op script.
                Row {
                    topology: Topology::Standby,
                    faults: Faults::None,
                    seeds: vec![11, 23],
                    kill_points: vec![5, 23, 41],
                },
                Row {
                    topology: Topology::Standby,
                    faults: Faults::Wire,
                    seeds: vec![11, 23, 47],
                    kill_points: vec![5, 31],
                },
                // The second kills derive to 26 and 39 (see `second_kill`).
                Row {
                    topology: Topology::Chain,
                    faults: Faults::Wire,
                    seeds: vec![11, 23],
                    kill_points: vec![5, 31],
                },
            ],
            sessions: 4,
            requests: 8,
            cfg,
            replica_cfgs: [
                ServeConfig {
                    max_resident: 1,
                    ..cfg
                },
                ServeConfig {
                    max_resident: 3,
                    ..cfg
                },
            ],
            server: ServerParams {
                shards: 2,
                queue_cap: 64,
                max_conns_per_shard: 16,
                replicate: true,
                ..ServerParams::default()
            },
        }
    }
}

/// What a campaign produced.
#[derive(Default)]
pub struct ClusterOutcome {
    /// The deterministic JSON report body.
    pub report: String,
    /// Runs with any divergence or an unsurvived fault.
    pub mismatches: usize,
    /// Distinct fault points injected across the whole campaign.
    pub fault_points: usize,
    /// Summed [`RetryClient::retries`] across runs. Attempt counts are
    /// timing-dependent, so these three live in the stderr summary
    /// only — never in the byte-compared report.
    pub client_retries: u64,
    /// Summed [`RetryClient::reconnects`] across runs.
    pub client_reconnects: u64,
    /// Summed [`RetryClient::redials`] across runs (cluster scans
    /// count every endpoint dialed, including standby answers
    /// skipped).
    pub client_redials: u64,
}

/// The fully idempotent script: tokenized opens, then the generated
/// programs dealt round-robin as `(seval …)` with dense per-session
/// sequence numbers. Every op is a mutation that can be re-sent
/// verbatim. Ids are deterministic because the client is lockstep:
/// opens decode in order, so session `s` has id `s`.
fn script(seed: u64, sessions: usize, requests: usize) -> Vec<Request> {
    let mut ops: Vec<Request> = (0..sessions)
        .map(|s| Request::Open {
            token: Some(TOKEN_BASE + s as u64),
        })
        .collect();
    let progs: Vec<Vec<String>> = (0..sessions)
        .map(|s| programs_for(seed, s as u64, requests))
        .collect();
    let rounds = progs.first().map_or(0, Vec::len);
    for round in 0..rounds {
        for (s, prog) in progs.iter().enumerate() {
            ops.push(Request::Eval {
                id: s as u64,
                seq: Some(round as u64),
                src: prog[round].clone(),
            });
        }
    }
    ops
}

/// Post-promotion epilogue: a fresh session proving id continuity,
/// then ledger/digest/close for every original session. When it
/// travels the wire (`sequenced`) every mutating request carries a
/// token or seq so the retrying client may re-send it. The
/// per-session closes then carry seq `requests`, which is below each
/// session's cursor (11 at the defaults): they are answered
/// `seq-too-old`, the sessions stay open, and the transcript digest
/// pins that reply.
fn epilogue(sessions: usize, requests: usize, sequenced: bool) -> Vec<Request> {
    let fresh = sessions as u64;
    let seq = |s: u64| sequenced.then_some(s);
    let mut ops = vec![
        Request::Open {
            token: seq(TOKEN_BASE + fresh),
        },
        Request::Eval {
            id: fresh,
            seq: seq(0),
            src: "(setq acc (cons 7 nil))".to_string(),
        },
        Request::Close {
            id: fresh,
            seq: seq(1),
        },
    ];
    for s in 0..fresh {
        ops.push(Request::Ledger { id: s });
        ops.push(Request::Digest { id: s });
        ops.push(Request::Close {
            id: s,
            seq: seq(requests as u64),
        });
    }
    ops
}

/// The second kill index: halfway through the script remaining after
/// `kill1`, at least two ops later, and always inside the script. At
/// 48 ops, 5 → 26 and 31 → 39.
fn second_kill(kill1: usize, ops: usize) -> usize {
    (kill1 + 2.max((ops - kill1) / 2)).min(ops - 1).max(kill1)
}

/// Six extra reset offsets continuing the plan's spacing: a chain run
/// keeps the whole script (plus the epilogue) on the faulty wire, so
/// it moves far more bytes than a run that leaves the wire at its
/// only kill.
fn extended_resets(seed: u64, base: &[u64]) -> Vec<u64> {
    let mut rng = seed ^ 0x0063_6C75_7374_6572; // "cluster"
    let mut offsets = base.to_vec();
    let mut at = offsets.last().copied().unwrap_or(200);
    for _ in 0..6 {
        at += 384 + splitmix64(&mut rng) % 512;
        offsets.push(at);
    }
    offsets
}

fn transcript_digest(replies: &[String]) -> u64 {
    let mut h = DIGEST_SEED;
    for r in replies {
        h = digest_bytes(h, r.as_bytes());
    }
    h
}

fn repl_io(e: ReplError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// A dial closure for one endpoint: a plain `connect`, then `wrap`
/// around the stream. The connect runs *outside* any fault state, so
/// a dead endpoint (connection refused) consumes no fault-schedule
/// bytes and the reset offsets stay a pure function of the run key.
fn dialer<T: Transport>(
    addr: SocketAddr,
    wrap: impl Fn(TcpStream) -> T + Send + 'static,
) -> DialFn<T> {
    Box::new(move || {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Client::from_transport(wrap(stream), Role::Client)
    })
}

/// One heartbeat probe against `addr`, folded into the lease.
fn probe_lease(addr: SocketAddr, lease: &mut Lease, beats: &mut u64) {
    match client::ping(addr, lease.params().ping_timeout) {
        Some(lsn) => {
            lease.beat(lsn);
            *beats += 1;
        }
        None => {
            lease.miss();
        }
    }
}

/// Wait out a lease against a dead node. Bounded in case the freed
/// port is grabbed by a concurrent listener. Clean expiry means the
/// live phase missed no probe and the misses were exactly consecutive.
fn expire_lease(addr: SocketAddr, lease: &mut Lease) -> bool {
    let clean_before = lease.misses() == 0;
    let mut beats = 0;
    for _ in 0..lease.params().miss_threshold * 10 {
        if lease.is_expired() {
            break;
        }
        probe_lease(addr, lease, &mut beats);
    }
    clean_before && lease.is_expired() && lease.misses() == lease.params().miss_threshold
}

/// Relay lag is on the discovery surface: a replica fully caught up at
/// a kill boundary must say so via `(metrics)`.
fn reports_no_lag(addr: SocketAddr) -> io::Result<bool> {
    let mut probe = Client::connect(addr, Role::Client)?;
    Ok(matches!(
        probe.request(&Request::Metrics)?,
        Reply::Metrics { volatile, .. } if volatile.contains("\"relay_lag\":0")
    ))
}

/// The node serving the script.
enum Leader {
    /// A server on the wire: the primary, or a replica promoted onto
    /// its inherited listener.
    Wire(ServerHandle),
    /// A replica promoted in-process.
    Local(Box<SessionStore>),
}

impl Leader {
    fn serve<T: Transport>(
        &mut self,
        client: &mut RetryClient<T>,
        op: &Request,
    ) -> io::Result<String> {
        match self {
            Leader::Wire(_) => client.request_text(&op.encode()),
            Leader::Local(store) => Ok(store.apply(op).encode()),
        }
    }

    /// Re-send an already-acknowledged mutation. The answer must be
    /// byte-equal to the original acknowledgement and must execute
    /// nothing (on the wire: the WAL stays put) — exactly-once across
    /// however many failovers sit between the ack and the retry.
    fn resend_cached<T: Transport>(
        &mut self,
        client: &mut RetryClient<T>,
        op: &Request,
        original: &str,
    ) -> io::Result<bool> {
        match self {
            Leader::Wire(handle) => {
                let lsn_before = handle.wal_next_lsn();
                let reply = client.request_text(&op.encode())?;
                Ok(reply == original && handle.wal_next_lsn() == lsn_before)
            }
            Leader::Local(store) => {
                let (reply, applied) = match op {
                    Request::Eval {
                        id,
                        seq: Some(s),
                        src,
                    } => {
                        let ledger_before = store.ledger(*id);
                        let (reply, applied) = store.eval_seq(*id, *s, src);
                        (reply, applied || store.ledger(*id) != ledger_before)
                    }
                    Request::Open { token: Some(t) } => store.open_with_token(u64::MAX, *t),
                    _ => return Ok(false),
                };
                Ok(!applied && reply.encode() == original)
            }
        }
    }
}

/// What one replication hop saw. Hop 0 feeds S1 from the primary; hop
/// 1 feeds S2 from S1 (and, once S1 is promoted, from S1's server).
#[derive(Default)]
struct Hop {
    /// Already-applied windows re-pulled and re-applied.
    dup_pulls: u64,
    /// Every duplicate applied zero records.
    dup_idempotent: bool,
    /// Hop 0: the largest applied lag a delayed pull left standing.
    /// Later hops: the largest lag seen just before a pull.
    max_lag: u64,
}

/// What one kill → lease expiry → promotion step saw.
struct Kill {
    /// Global op index at which the serving node died.
    at: usize,
    /// The promoted replica's next LSN at the kill.
    replicated_lsn: u64,
    /// Heartbeats the replica's lease saw while the node served.
    lease_beats: u64,
    /// Consecutive missed probes that expired the lease.
    lease_misses: u32,
    /// The lease expired cleanly (see [`expire_lease`]).
    lease_expired: bool,
    /// The replica reported zero relay lag via `(metrics)`.
    relay_metrics_ok: bool,
    /// The promotion kept the replica's listener and its full log.
    promoted: bool,
    /// The dead node's drain left only fully-written suspend blobs.
    drain_ok: bool,
    /// Re-sends after this promotion, newest kill first: the last
    /// mutation before this kill, then before each earlier one.
    retry_cached: Vec<bool>,
}

impl Kill {
    fn ok(&self) -> bool {
        self.lease_expired
            && self.relay_metrics_ok
            && self.promoted
            && self.drain_ok
            && self.retry_cached.iter().all(|&ok| ok)
    }

    fn json(&self) -> String {
        format!(
            "{{\"at\":{},\"replicated_lsn\":{},\"lease_beats\":{},\"lease_misses\":{},\
             \"lease_expired\":{},\"relay_metrics_ok\":{},\"promoted\":{},\
             \"drain_ok\":{},\"retry_cached\":[{}]}}",
            self.at,
            self.replicated_lsn,
            self.lease_beats,
            self.lease_misses,
            self.lease_expired,
            self.relay_metrics_ok,
            self.promoted,
            self.drain_ok,
            join(&self.retry_cached),
        )
    }
}

/// Everything one run observed.
#[derive(Default)]
struct Run {
    seed: u64,
    ops: usize,
    resets_planned: usize,
    resets_fired: u64,
    delayed_pulls: u64,
    corrupt_probes: u64,
    corrupt_failed_closed: bool,
    hops: Vec<Hop>,
    kills: Vec<Kill>,
    transcript_digest: u64,
    transcript_match: bool,
    counts_match: bool,
    sessions_match: bool,
    survivor_drain_ok: bool,
    client_retries: u64,
    client_reconnects: u64,
    client_redials: u64,
}

impl Run {
    fn fault_points(&self) -> usize {
        (self.resets_fired
            + self.delayed_pulls
            + self.corrupt_probes
            + self.hops.iter().map(|h| h.dup_pulls).sum::<u64>()) as usize
    }

    fn drains_ok(&self) -> bool {
        self.survivor_drain_ok && self.kills.iter().all(|k| k.drain_ok)
    }

    fn ok(&self) -> bool {
        self.transcript_match
            && self.counts_match
            && self.sessions_match
            && self.drains_ok()
            && self.corrupt_failed_closed
            && self.hops.iter().all(|h| h.dup_idempotent)
            && self.kills.iter().all(Kill::ok)
    }

    fn json(&self, scenario: &str) -> String {
        let hops: Vec<String> = self
            .hops
            .iter()
            .map(|h| {
                format!(
                    "{{\"dup_pulls\":{},\"dup_idempotent\":{},\"max_lag\":{}}}",
                    h.dup_pulls, h.dup_idempotent, h.max_lag
                )
            })
            .collect();
        let kills: Vec<String> = self.kills.iter().map(Kill::json).collect();
        format!(
            "{{\"scenario\":\"{scenario}\",\"seed\":{},\"ops\":{},\
             \"resets_planned\":{},\"resets_fired\":{},\
             \"delayed_pulls\":{},\"corrupt_probes\":{},\"corrupt_failed_closed\":{},\
             \"hops\":[{}],\"kills\":[{}],\
             \"transcript_digest\":\"d{:016x}\",\
             \"transcript_match\":{},\"counts_match\":{},\"sessions_match\":{},\
             \"drains_ok\":{}}}",
            self.seed,
            self.ops,
            self.resets_planned,
            self.resets_fired,
            self.delayed_pulls,
            self.corrupt_probes,
            self.corrupt_failed_closed,
            hops.join(","),
            kills.join(","),
            self.transcript_digest,
            self.transcript_match,
            self.counts_match,
            self.sessions_match,
            self.drains_ok(),
        )
    }
}

fn join<T: ToString>(items: &[T]) -> String {
    items.iter().map(T::to_string).collect::<Vec<_>>().join(",")
}

/// Ship the leader's log down the live replicas after op `i`, front
/// first: each replica catches up to its upstream over its own clean
/// replica-role connection. The plan's faults are injected per batch,
/// where they can be asserted on precisely: delays and corruption on
/// the hop fed by the leader, duplicates on every hop.
fn ship(
    i: usize,
    leader_lsn: u64,
    replicas: &VecDeque<RelayNode>,
    pullers: &mut [Client],
    plan: &FaultPlan,
    run: &mut Run,
) -> io::Result<()> {
    // Each kill so far promoted the front replica, so the front live
    // replica sits on hop `kills`.
    let front = run.kills.len();
    let mut target = leader_lsn;
    for (pos, (node, puller)) in replicas.iter().zip(pullers).enumerate() {
        let hop = &mut run.hops[front + pos];
        node.note_upstream(target);
        if pos == 0 && plan.delayed_pulls.contains(&i) {
            run.delayed_pulls += 1;
            hop.max_lag = hop.max_lag.max(node.relay_lag());
            target = node.next_lsn();
            continue;
        }
        if front + pos > 0 {
            hop.max_lag = hop.max_lag.max(node.relay_lag());
        }
        if pos == 0 && plan.corrupt_pulls.contains(&i) && node.next_lsn() < target {
            let (_, bytes) = puller.pull(node.next_lsn())?;
            if !bytes.is_empty() {
                let mut bad = bytes.clone();
                let last = bad.len() - 1;
                bad[last] ^= 0xff;
                // Fail closed: the corrupt batch must change nothing.
                let before = node.next_lsn();
                run.corrupt_failed_closed &=
                    matches!(node.apply(&bad), Err(ReplError::BadFrame { .. }))
                        && node.next_lsn() == before;
                node.apply(&bytes).map_err(repl_io)?;
                run.corrupt_probes += 1;
            }
        }
        puller.catch_up(node, target)?;
        if plan.dup_pulls.contains(&i) && node.next_lsn() > 0 {
            // Re-pull a window this replica already applied: an
            // at-least-once shipping layer in miniature.
            let (_, bytes) = puller.pull(node.next_lsn().saturating_sub(2))?;
            hop.dup_idempotent &= node.apply(&bytes).map_err(repl_io)? == 0;
            hop.dup_pulls += 1;
        }
        target = node.next_lsn();
    }
    Ok(())
}

/// One `(row, seed, kill point)` run: derive the kills, pick the wire,
/// drive.
fn run_row(p: &ClusterParams, row: &Row, seed: u64, kill_point: usize) -> io::Result<Run> {
    let ops = script(seed, p.sessions, p.requests);
    let mut kills = vec![kill_point.min(ops.len().saturating_sub(1))];
    while kills.len() < row.topology.replicas() {
        let last = kills[kills.len() - 1];
        kills.push(second_kill(last, ops.len()));
    }
    match row.faults {
        Faults::None => drive(p, row, seed, &ops, &kills, &FaultPlan::default(), |s| s),
        Faults::Wire => {
            let plan = FaultPlan::new(seed, kills[0]);
            let resets = match row.topology {
                Topology::Standby => plan.reset_offsets.clone(),
                Topology::Chain => extended_resets(seed, &plan.reset_offsets),
            };
            let state = FaultState::shared(seed, &resets);
            let shared = Arc::clone(&state);
            let mut run = drive(p, row, seed, &ops, &kills, &plan, move |s| {
                FaultyStream::new(s, Arc::clone(&shared))
            })?;
            run.resets_planned = resets.len();
            run.resets_fired = state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .resets_fired();
            Ok(run)
        }
    }
}

/// The run itself, over client connections `wrap`ped around TCP: lockstep
/// stages between kills, each kill followed by lease expiry,
/// promotion and the exactly-once re-sends, then the epilogue on the
/// survivor.
fn drive<T: Transport>(
    p: &ClusterParams,
    row: &Row,
    seed: u64,
    ops: &[Request],
    kills: &[usize],
    plan: &FaultPlan,
    wrap: impl Fn(TcpStream) -> T + Clone + Send + 'static,
) -> io::Result<Run> {
    let params = ServerParams {
        replicate: true,
        ..p.server
    };
    let promoted_params = ServerParams {
        shards: 1,
        wall: false,
        trace: false,
        ..params
    };
    let primary = server::start("127.0.0.1:0", p.cfg, params)?;
    let mut leader_addr = primary.addr();
    let mut leader = Leader::Wire(primary);
    let mut replicas = VecDeque::new();
    for cfg in &p.replica_cfgs[..row.topology.replicas()] {
        replicas.push_back(RelayNode::start("127.0.0.1:0", *cfg)?);
    }
    // The client scans, in order, every node that will serve it on the
    // wire and keeps the first that answers as primary.
    let mut endpoints = vec![dialer(leader_addr, wrap.clone())];
    if row.topology == Topology::Chain {
        endpoints.extend(replicas.iter().map(|r| dialer(r.addr(), wrap.clone())));
    }
    let mut client = RetryClient::with_endpoints(
        endpoints,
        RetryPolicy {
            attempts: 10,
            seed,
            ..RetryPolicy::default()
        },
    );
    let mut twin = SessionStore::new(ServeConfig {
        max_resident: usize::MAX,
        ..p.cfg
    });
    let mut run = Run {
        seed,
        ops: ops.len(),
        corrupt_failed_closed: true,
        hops: (0..replicas.len())
            .map(|_| Hop {
                dup_idempotent: true,
                ..Hop::default()
            })
            .collect(),
        survivor_drain_ok: true,
        ..Run::default()
    };
    let (mut transcript, mut oracle) = (Vec::new(), Vec::new());
    let mut next_op = 0;
    loop {
        // One stage per leader: serve the script in lockstep up to the
        // next kill (or the end), shipping every acknowledged op down
        // the live replicas, each over its own clean replica-role
        // connection, and feeding the front replica's lease.
        let stage = run.kills.len();
        let end = kills.get(stage).copied().unwrap_or(ops.len());
        let mut pullers = Vec::new();
        let mut upstream = leader_addr;
        for node in &replicas {
            pullers.push(Client::connect(upstream, Role::Replica)?);
            upstream = node.addr();
        }
        let mut lease = Lease::new(LeaseParams::default());
        let mut beats = 0;
        for (i, op) in ops.iter().enumerate().take(end).skip(next_op) {
            transcript.push(leader.serve(&mut client, op)?);
            oracle.push(twin.apply(op).encode());
            if let Leader::Wire(handle) = &leader {
                let lsn = handle
                    .wal_next_lsn()
                    .expect("a replicating leader has a WAL");
                ship(i, lsn, &replicas, &mut pullers, plan, &mut run)?;
            }
            if stage < kills.len() && i % HEARTBEAT_EVERY == 0 {
                probe_lease(leader_addr, &mut lease, &mut beats);
            }
        }
        next_op = end;
        let Some(&at) = kills.get(stage) else {
            break;
        };

        // Kill: the leader dies for real. The front replica notices on
        // its own — consecutive missed probes expire its lease — and
        // promotes, keeping its listener and retained log.
        let relay_metrics_ok = reports_no_lag(replicas[0].addr())?;
        client.disconnect();
        drop(pullers);
        let node = replicas.pop_front().expect("one replica per kill");
        let node_addr = node.addr();
        let replicated_lsn = node.next_lsn();
        let Leader::Wire(dying) = leader else {
            unreachable!("only a wire leader has replicas behind it")
        };
        let drain_ok = dying.shutdown().verify_suspended().is_ok();
        let lease_expired = expire_lease(leader_addr, &mut lease);
        let parts = node.stop();
        let promoted = parts.listener.local_addr().is_ok_and(|a| a == node_addr)
            && parts.wal.next_lsn() == replicated_lsn;
        leader = match row.topology {
            Topology::Chain => Leader::Wire(server::start_promoted(
                parts.listener,
                promoted_params,
                parts.store,
                parts.wal,
            )?),
            Topology::Standby => Leader::Local(Box::new(parts.store)),
        };
        leader_addr = node_addr;

        // Exactly-once across every failover so far, newest kill
        // first. Every scripted op is a mutation, so the last one
        // acknowledged before a kill at `k` is op `k - 1`.
        let mut retry_cached = Vec::new();
        for &k in kills[..=stage].iter().rev() {
            retry_cached.push(match k.checked_sub(1) {
                Some(idx) => leader.resend_cached(&mut client, &ops[idx], &transcript[idx])?,
                None => true,
            });
        }
        run.kills.push(Kill {
            at,
            replicated_lsn,
            lease_beats: beats,
            lease_misses: lease.misses(),
            lease_expired,
            relay_metrics_ok,
            promoted,
            drain_ok,
            retry_cached,
        });
    }

    let sequenced = matches!(leader, Leader::Wire(_));
    for op in epilogue(p.sessions, p.requests, sequenced) {
        transcript.push(leader.serve(&mut client, &op)?);
        oracle.push(twin.apply(&op).encode());
    }
    client.disconnect();
    run.client_retries = client.retries();
    run.client_reconnects = client.reconnects();
    run.client_redials = client.redials();
    let (counts, sessions) = match leader {
        Leader::Wire(handle) => {
            let survivor = handle.shutdown();
            run.survivor_drain_ok = survivor.verify_suspended().is_ok();
            (survivor.aggregate_counts(), survivor.session_ids())
        }
        Leader::Local(store) => (store.aggregate_counts(), store.session_ids()),
    };
    for node in replicas {
        node.stop();
    }
    run.transcript_digest = transcript_digest(&oracle);
    run.transcript_match = transcript == oracle;
    run.counts_match = counts == twin.aggregate_counts();
    run.sessions_match = sessions == twin.session_ids();
    Ok(run)
}

/// Run the whole matrix: every row, every seed, every kill point.
pub fn run_cluster(p: &ClusterParams) -> io::Result<ClusterOutcome> {
    let mut out = ClusterOutcome::default();
    let (mut scenarios, mut runs) = (Vec::new(), Vec::new());
    for row in &p.rows {
        let name = row.name();
        let (mut mismatches, mut fault_points) = (0, 0);
        for &seed in &row.seeds {
            for &kill in &row.kill_points {
                let run = run_row(p, row, seed, kill)?;
                mismatches += usize::from(!run.ok());
                fault_points += run.fault_points();
                out.client_retries += run.client_retries;
                out.client_reconnects += run.client_reconnects;
                out.client_redials += run.client_redials;
                runs.push(run.json(&name));
            }
        }
        scenarios.push(format!(
            "{{\"scenario\":\"{name}\",\"seeds\":[{}],\"kill_points\":[{}],\
             \"fault_points\":{fault_points},\"all_match\":{}}}",
            join(&row.seeds),
            join(&row.kill_points),
            mismatches == 0,
        ));
        out.mismatches += mismatches;
        out.fault_points += fault_points;
    }
    out.report = format!(
        "{{\"schema\":\"cluster_report_v1\",\"proto_version\":{},\
         \"sessions\":{},\"requests\":{},\"scenarios\":[{}],\
         \"fault_points\":{},\"all_match\":{},\"runs\":[{}]}}\n",
        crate::protocol::PROTO_VERSION,
        p.sessions,
        p.requests,
        scenarios.join(","),
        out.fault_points,
        out.mismatches == 0,
        runs.join(","),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn faulty_stream_resets_at_the_pinned_offset() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = TcpStream::connect(addr).unwrap();
        let (sink, _) = listener.accept().unwrap();
        let state = FaultState::shared(7, &[100]);
        let mut faulty = FaultyStream::new(peer, Arc::clone(&state));

        // Chunking: a large write is always clamped below the chunk cap.
        let n = faulty.write(&[0u8; 500]).unwrap();
        assert!((1..=64).contains(&n), "chunked write returned {n}");

        // Writing through the boundary fails exactly at byte 100, with
        // the socket dead afterwards.
        let mut total = n as u64;
        let err = loop {
            match faulty.write(&[0u8; 500]) {
                Ok(n) => total += n as u64,
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(total, 100, "reset fired at the pinned offset");
        let st = state.lock().unwrap();
        assert_eq!((st.resets_fired(), st.transferred()), (1, 100));
        drop(sink);
    }

    #[test]
    fn fault_plans_are_pure_functions_of_their_key() {
        let a = FaultPlan::new(11, 31);
        let b = FaultPlan::new(11, 31);
        assert_eq!(a.reset_offsets, b.reset_offsets);
        assert_eq!(a.dup_pulls, b.dup_pulls);
        assert_eq!(a.delayed_pulls, b.delayed_pulls);
        assert_eq!(a.corrupt_pulls, b.corrupt_pulls);
        assert!(a.points() > 0);
        // Delays never land on the final pre-kill op.
        assert!(!a.delayed_pulls.contains(&30));
        let c = FaultPlan::new(23, 31);
        assert_ne!(a.reset_offsets, c.reset_offsets, "seeds must differ");
    }

    #[test]
    fn second_kill_stays_inside_the_script() {
        let p = ClusterParams::default();
        let ops = script(11, p.sessions, p.requests).len();
        assert_eq!(ops, 48);
        assert_eq!(second_kill(5, ops), 26);
        assert_eq!(second_kill(31, ops), 39);
        assert_eq!(second_kill(35, 36), 35); // degenerate but legal
        assert!(second_kill(0, 4) > 0);
    }

    #[test]
    fn preset_rows_are_clean_and_deterministic() {
        let preset = ClusterParams::default();
        for row in &preset.rows {
            let p = ClusterParams {
                rows: vec![Row {
                    seeds: vec![11],
                    ..row.clone()
                }],
                ..preset.clone()
            };
            let name = row.name();
            let a = run_cluster(&p).expect("campaign runs");
            assert_eq!(a.mismatches, 0, "{name}: {}", a.report);
            match row.faults {
                Faults::Wire => assert!(a.fault_points > 0, "{name}: faults must fire"),
                Faults::None => assert_eq!(a.fault_points, 0, "{name}: clean wire"),
            }
            let b = run_cluster(&p).expect("campaign reruns");
            assert_eq!(
                a.report, b.report,
                "{name}: report must be byte-deterministic"
            );
        }
    }

    #[test]
    fn kill_at_zero_promotes_an_empty_standby() {
        // Degenerate but legal: nothing was replicated; the promoted
        // store must serve the entire script from scratch.
        let mut p = ClusterParams::default();
        p.rows.truncate(1);
        p.rows[0].seeds = vec![23];
        p.rows[0].kill_points = vec![0];
        let out = run_cluster(&p).expect("campaign runs");
        assert_eq!(out.mismatches, 0, "report: {}", out.report);
    }
}
