//! WAL-shipping replication over real sockets: a replica-role client
//! pulls journal frames from a live primary into a warm standby
//! ([`RelayNode`]),
//! and promotion yields a store whose observable state — ledgers,
//! digests, values, even the next session id — is byte-identical to
//! what the primary was serving.

use small_serve::server::{start, ServerParams};
use small_serve::session::ServeConfig;
use small_serve::{Client, RelayNode, Reply, Request, Role};

fn cfg() -> ServeConfig {
    ServeConfig {
        heap_cells: 1 << 13,
        table_size: 256,
        max_resident: 2,
        ..ServeConfig::default()
    }
}

fn primary() -> small_serve::ServerHandle {
    start(
        "127.0.0.1:0",
        cfg(),
        ServerParams {
            shards: 2,
            queue_cap: 64,
            max_conns_per_shard: 8,
            replicate: true,
            ..ServerParams::default()
        },
    )
    .expect("primary starts")
}

#[test]
fn promoted_standby_serves_the_primary_state() {
    let handle = primary();
    let mut c = Client::connect(handle.addr(), Role::Client).unwrap();
    let a = c.open().unwrap();
    let b = c.open().unwrap();
    let script: [(u64, &str); 6] = [
        (a, "(setq acc (cons 1 (cons 2 nil)))"),
        (b, "(setq acc (cons 9 nil))"),
        (a, "(setq acc (cons 3 acc))"),
        (a, "(car 5)"), // errors are journaled and replayed too
        (b, "(car acc)"),
        (a, "(car acc)"),
    ];
    for &(id, src) in &script {
        c.request(&Request::Eval {
            id,
            seq: None,
            src: src.to_string(),
        })
        .unwrap();
    }
    // What the live primary says about each session.
    let live: Vec<String> = [a, b]
        .iter()
        .flat_map(|&id| {
            [
                c.request_text(&Request::Ledger { id }.encode()).unwrap(),
                c.request_text(&Request::Digest { id }.encode()).unwrap(),
            ]
        })
        .collect();

    // Ship the whole journal (ledger/digest reads are not journaled,
    // so the WAL holds exactly the opens and evals).
    let mut puller = Client::connect(handle.addr(), Role::Replica).unwrap();
    let standby = RelayNode::start(
        "127.0.0.1:0",
        ServeConfig {
            max_resident: 1, // deliberately tighter than the primary
            ..cfg()
        },
    )
    .unwrap();
    let target = handle.wal_next_lsn().expect("primary has a WAL");
    assert_eq!(target, 2 + script.len() as u64);
    puller.catch_up(&standby, target).unwrap();
    drop((c, puller));
    handle.shutdown();

    // The survivor answers exactly as the primary did...
    let mut promoted = standby.stop().store;
    let replayed: Vec<String> = [a, b]
        .iter()
        .flat_map(|&id| {
            [
                promoted.apply(&Request::Ledger { id }).encode(),
                promoted.apply(&Request::Digest { id }).encode(),
            ]
        })
        .collect();
    assert_eq!(replayed, live);
    // ...and keeps allocating ids where the primary left off.
    assert_eq!(
        promoted.apply(&Request::Open { token: None }),
        Reply::Opened { id: 2 }
    );
}

#[test]
fn incremental_and_bulk_catch_up_converge() {
    let handle = primary();
    let mut c = Client::connect(handle.addr(), Role::Client).unwrap();
    let mut inc_puller = Client::connect(handle.addr(), Role::Replica).unwrap();
    let incremental = RelayNode::start("127.0.0.1:0", cfg()).unwrap();
    let id = c.open().unwrap();
    let target = handle.wal_next_lsn().unwrap();
    inc_puller.catch_up(&incremental, target).unwrap();
    for k in 0..12u64 {
        let src = if k == 0 {
            "(setq acc nil)".to_string()
        } else {
            format!("(setq acc (cons {k} acc))")
        };
        c.request(&Request::Eval { id, seq: None, src }).unwrap();
        // Pull after every single acknowledged request...
        let target = handle.wal_next_lsn().unwrap();
        inc_puller.catch_up(&incremental, target).unwrap();
    }
    // ...versus one bulk pull at the end.
    let mut bulk_puller = Client::connect(handle.addr(), Role::Replica).unwrap();
    let bulk = RelayNode::start("127.0.0.1:0", cfg()).unwrap();
    let target = handle.wal_next_lsn().unwrap();
    bulk_puller.catch_up(&bulk, target).unwrap();
    drop((c, inc_puller, bulk_puller));
    handle.shutdown();

    let mut a = incremental.stop().store;
    let mut b = bulk.stop().store;
    assert_eq!(
        a.apply(&Request::Digest { id }),
        b.apply(&Request::Digest { id })
    );
    assert_eq!(
        a.apply(&Request::Ledger { id }),
        b.apply(&Request::Ledger { id })
    );
}

#[test]
fn pull_is_gated_on_the_replica_role() {
    let handle = primary();
    let mut c = Client::connect(handle.addr(), Role::Client).unwrap();
    assert_eq!(
        c.request_text(&Request::Pull { from: 0 }.encode()).unwrap(),
        "(err proto not-a-replica)",
        "a client-role connection must not read the journal"
    );
    // The same request on a replica-role connection works.
    let mut r = Client::connect(handle.addr(), Role::Replica).unwrap();
    let (next, bytes) = r.pull(0).unwrap();
    assert_eq!((next, bytes.len()), (0, 0), "empty journal, clean pull");
    handle.shutdown();
}
