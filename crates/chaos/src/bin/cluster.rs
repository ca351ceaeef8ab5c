//! `cluster` — the replication chaos campaign, with a
//! byte-deterministic JSON report.
//!
//! ```text
//! cluster [--seeds N | --seeds a,b,c] [--sessions N] [--requests N]
//!         [--kill-points a,b,c] [--out PATH]
//! ```
//!
//! Runs every row of the scenario matrix (see `small_serve::cluster`):
//! `standby/1/none`, `standby/1/wire` and `chain/2/wire` by default,
//! each over its own pinned seeds and first-kill points. `--seeds` and
//! `--kill-points` replace every row's lists. For each run a
//! replicating primary serves a seeded script in lockstep while its
//! replicas pull the WAL; the serving node is killed, a replica's lease
//! expires and it promotes itself, and every reply is compared
//! byte-for-byte against an uninterrupted serial twin. Exit is nonzero
//! on any divergence or unsurvived fault. Client retry counters depend
//! on timing and go to stderr only.

use small_serve::cluster::{run_cluster, ClusterParams};
use small_serve::gen::PINNED_SEEDS;
use std::process::ExitCode;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_list<T: std::str::FromStr>(spec: &str, what: &str) -> Result<Vec<T>, String> {
    spec.split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad {what}: {s}")))
        .collect()
}

fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    if spec.contains(',') {
        return parse_list(spec, "seed");
    }
    let n: usize = spec
        .parse()
        .map_err(|_| format!("bad seed count: {spec}"))?;
    if n == 0 || n > PINNED_SEEDS.len() {
        return Err(format!("--seeds must be 1..={}", PINNED_SEEDS.len()));
    }
    Ok(PINNED_SEEDS[..n].to_vec())
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut p = ClusterParams::default();
    if let Some(s) = arg_value(&args, "--seeds") {
        let seeds = parse_seeds(&s)?;
        p.rows.iter_mut().for_each(|r| r.seeds = seeds.clone());
    }
    if let Some(s) = arg_value(&args, "--kill-points") {
        let kills: Vec<usize> = parse_list(&s, "kill point")?;
        if kills.is_empty() {
            return Err("need at least one kill point".to_string());
        }
        p.rows
            .iter_mut()
            .for_each(|r| r.kill_points = kills.clone());
    }
    if let Some(s) = arg_value(&args, "--sessions") {
        p.sessions = s.parse().map_err(|_| "bad --sessions")?;
    }
    if let Some(s) = arg_value(&args, "--requests") {
        p.requests = s.parse().map_err(|_| "bad --requests")?;
    }
    let out =
        arg_value(&args, "--out").unwrap_or_else(|| "results/cluster_report.json".to_string());

    let outcome = run_cluster(&p).map_err(|e| e.to_string())?;
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
    }
    std::fs::write(&out, &outcome.report).map_err(|e| e.to_string())?;

    for row in &p.rows {
        eprintln!(
            "cluster: {}: {} seeds x {} kill points",
            row.name(),
            row.seeds.len(),
            row.kill_points.len()
        );
    }
    eprintln!(
        "cluster: {} sessions x {} requests -> {out}",
        p.sessions, p.requests
    );
    eprintln!(
        "cluster: fault_points={} mismatches={}",
        outcome.fault_points, outcome.mismatches
    );
    eprintln!(
        "cluster: client retries={} reconnects={} redials={}",
        outcome.client_retries, outcome.client_reconnects, outcome.client_redials
    );
    if outcome.mismatches > 0 {
        eprintln!("cluster: FAILED: a fault was not survived or the twin diverged");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("cluster: {e}");
            ExitCode::FAILURE
        }
    }
}
