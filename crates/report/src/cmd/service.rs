//! `report serve`: the long-lived analysis service — the analysis pipeline
//! behind a zero-dependency HTTP front-end with a sharded verdict cache,
//! optionally persistent (`--store-dir`) and sharded across a fleet
//! (`--cluster-id` / `--peers`).

use std::io::Write as _;
use std::sync::Arc;

use crate::cli::{Flag, Parsed};

const PORT: Flag = Flag::new("--port", "P", "0", "port on 127.0.0.1, 0 = OS-assigned");
const WORKERS: Flag = Flag::new("--workers", "N", "4", "connection worker threads");
const CACHE_ENTRIES: Flag = Flag::new("--cache-entries", "N", "256", "verdict cache capacity");
const QUEUE_CAP: Flag = Flag::new("--queue-cap", "N", "64", "connection queue bound, then 503");
/// Crash-safe journal + snapshots; a restart answers warm.
const STORE_DIR: Flag = Flag::new("--store-dir", "DIR", "", "persist verdicts to DIR");
/// Appended to on handler panic and on SIGTERM drain.
const POSTMORTEM: Flag = Flag::new("--postmortem", "FILE", "", "flight-recorder dump file");
const CLUSTER_ID: Flag = Flag::new("--cluster-id", "N", "", "this node's id in --peers");
/// Must include `--cluster-id`'s own entry.
const PEERS: Flag = Flag::new(
    "--peers",
    "LIST",
    "",
    "seed table id=host:port,id=host:port,...",
);
const FORWARDING: Flag = Flag::new(
    "--forwarding",
    "M",
    "proxy",
    "foreign keys: proxy | redirect",
);
pub(super) const FLAGS: &[Flag] = &[
    PORT,
    WORKERS,
    CACHE_ENTRIES,
    QUEUE_CAP,
    STORE_DIR,
    POSTMORTEM,
    CLUSTER_ID,
    PEERS,
    FORWARDING,
];

/// A count that must be positive.
fn at_least_one(p: &Parsed, flag: &Flag) -> Result<usize, String> {
    match p.get(flag)? {
        0 => Err(format!("{} must be at least 1", flag.name)),
        n => Ok(n),
    }
}

/// `--store-dir` must name a usable directory — catching a path that is
/// actually a file, cannot be created, or cannot be written is a usage
/// error (exit 64), not a crash three requests into serving.
fn validate_store_dir(dir: &str) -> Result<(), String> {
    if dir.is_empty() {
        return Err("--store-dir requires a non-empty path".to_string());
    }
    let path = std::path::Path::new(dir);
    if path.exists() && !path.is_dir() {
        return Err(format!("--store-dir {dir:?} exists and is not a directory"));
    }
    std::fs::create_dir_all(path)
        .map_err(|e| format!("--store-dir {dir:?} cannot be created: {e}"))?;
    // Probe writability now: a read-only store dir should fail loudly at
    // the door.
    let probe = path.join(format!(".probe-{}", std::process::id()));
    std::fs::write(&probe, b"probe")
        .map_err(|e| format!("--store-dir {dir:?} is not writable: {e}"))?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

/// Clustered serving: both halves of the identity are required, and this
/// node must appear in its own seed table — a ring that doesn't contain
/// the node serving from it is always a config typo.
fn cluster_config(p: &Parsed) -> Result<Option<serve::ClusterConfig>, String> {
    let forwarding = serve::Forwarding::parse(&p.get::<String>(&FORWARDING)?)?;
    let peers = p
        .opt::<String>(&PEERS)?
        .map(|spec| cluster::parse_peers(&spec).map_err(|e| format!("invalid --peers: {e}")))
        .transpose()?;
    match (p.opt::<u32>(&CLUSTER_ID)?, peers) {
        (Some(_), None) => Err("--cluster-id requires --peers".to_string()),
        (None, Some(_)) => Err("--peers requires --cluster-id".to_string()),
        (Some(id), Some(peers)) if !peers.iter().any(|peer| peer.id == id) => Err(format!(
            "--cluster-id {id} does not appear in --peers \
             (the seed table must include this node's own entry)"
        )),
        (Some(node_id), Some(peers)) => Ok(Some(serve::ClusterConfig {
            node_id,
            peers,
            forwarding,
        })),
        (None, None) => Ok(None),
    }
}

pub(super) fn serve(p: &Parsed) -> Result<i32, String> {
    let port: u16 = p.get(&PORT)?;
    let workers = at_least_one(p, &WORKERS)?;
    let cache_entries = at_least_one(p, &CACHE_ENTRIES)?;
    let queue_cap = at_least_one(p, &QUEUE_CAP)?;
    let store_dir: Option<String> = p.opt(&STORE_DIR)?;
    if let Some(dir) = &store_dir {
        validate_store_dir(dir)?;
    }
    let postmortem: Option<std::path::PathBuf> = p.opt(&POSTMORTEM)?;
    let cluster_cfg = cluster_config(p)?;

    // `--metrics` still works (the dump happens after shutdown); live
    // counters are also queryable at /metricsz, so serving turns metrics
    // on even without the flag.
    obs::set_metrics(true);
    // Open the persistent store before binding: a locked or
    // unrecoverable store dir must fail the launch, not the first
    // request.
    let store_handle = match &store_dir {
        None => None,
        Some(dir) => {
            let path = std::path::Path::new(dir);
            match store::Store::open(path, store::StoreOptions::default()) {
                Ok(s) => {
                    let rec = s.recovery();
                    println!(
                        "serve: store {dir} recovered {} record(s) \
                         (gen {}, {} byte(s) quarantined)",
                        rec.recovered_records(),
                        rec.generation,
                        rec.quarantined_bytes
                    );
                    Some(Arc::new(s))
                }
                Err(store::StoreError::Locked { holder_pid }) => {
                    eprintln!(
                        "error: store dir {dir} is locked by live pid {holder_pid} \
                         (one serve process per store dir)"
                    );
                    return Ok(1);
                }
                Err(e) => {
                    eprintln!("error: cannot open store dir {dir}: {e}");
                    return Ok(1);
                }
            }
        }
    };
    if let Some(cl) = &cluster_cfg {
        println!(
            "serve: cluster node {} of {} peer(s), {} forwarding",
            cl.node_id,
            cl.peers.len(),
            match cl.forwarding {
                serve::Forwarding::Proxy => "proxy",
                serve::Forwarding::Redirect => "redirect",
            }
        );
    }
    let serve_cfg = serve::ServeConfig {
        port,
        workers,
        cache_entries,
        queue_cap,
        store: store_handle,
        postmortem,
        cluster: cluster_cfg,
        ..serve::ServeConfig::default()
    };
    serve::signal::install_handlers();
    let backend = Arc::new(crate::ReportBackend::new());
    let handle = match serve::serve(serve_cfg, backend) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot bind 127.0.0.1:{port}: {e}");
            return Ok(1);
        }
    };
    // `tests/process.rs` reads the OS-assigned port off this exact line.
    println!("serve: listening on 127.0.0.1:{}", handle.port());
    let _ = std::io::stdout().flush();
    obs::info!(
        "serve: {workers} workers, {cache_entries}-entry cache, queue cap {queue_cap} \
         (SIGTERM/ctrl-c to drain)"
    );
    serve::signal::wait_for_shutdown();
    handle.shutdown();
    println!("serve: shutdown complete");
    Ok(0)
}
