//! The TCP front-end: accept loop, connection lifecycle, backpressure,
//! and graceful shutdown.
//!
//! ```text
//! accept loop (own thread; `serve` returns once the socket is bound)
//!   ├─ nonblocking accept, polling the handle's stop flag + signal flag
//!   ├─ WorkerPool::try_submit(connection job)
//!   │    └─ QueueFull ⇒ write 503 + Retry-After inline, close
//!   └─ on shutdown: stop accepting, drain pool (in-flight requests
//!      finish, queued connections are served), then return
//! ```
//!
//! Each connection job runs the keep-alive loop: parse request → route →
//! write response, until the peer closes, an error forces a close, or the
//! pool starts draining. A draining handler finishes the *current*
//! request and then closes, and an idle one lets go at its next read
//! timeout — that is what makes SIGTERM drain quickly even with idle
//! keep-alive clients (a peer's pooled connections) parked on workers.
//!
//! The connection's `TcpStream` rides inside an `Arc<Mutex<Option<..>>>`
//! slot shared between the queued job and the accept loop: on a full
//! queue, the accept loop takes the stream back out of the slot and
//! answers 503 itself — backpressure costs one cheap write at the door,
//! never a queue slot.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::fleet::{ClusterConfig, ClusterRuntime};
use crate::http::{parse_request, ConnReader, HttpLimits, Response};
use crate::pool::WorkerPool;
use crate::router::{Backend, Router};
use crate::signal;

/// Per-read socket timeout on a served connection: how soon an idle
/// handler notices a drain. The parser retries reads until `HttpLimits`'
/// header deadline, so slow legitimate clients are unaffected.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// `Retry-After` seconds advertised on a 503 at the door.
const RETRY_AFTER_SECS: u32 = 1;

/// Serving parameters; `Default` gives the `report serve` defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1; 0 lets the OS pick (the bound port is
    /// reported via [`ServerHandle::port`] and printed by `report serve`).
    pub port: u16,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Verdict-cache capacity (entries; one entry = all three views of
    /// one canonical query).
    pub cache_entries: usize,
    /// Pending-connection queue bound; beyond it, new connections get 503.
    pub queue_cap: usize,
    /// Parser limits.
    pub limits: HttpLimits,
    /// Persistent verdict store. When set, cold results are journaled to
    /// disk, misses consult the store before the backend, and the accept
    /// loop compacts the journal into a snapshot at drain time.
    pub store: Option<Arc<store::Store>>,
    /// Where flight-recorder postmortems land (appended, one JSON doc
    /// per line) on handler panic and on drain. `None` disables file
    /// dumps; `GET /v1/debug/flightrec` works regardless.
    pub postmortem: Option<std::path::PathBuf>,
    /// Cluster membership (`--cluster-id`/`--peers`). When set, this node
    /// serves only its consistent-hash ring slice authoritatively and
    /// forwards or redirects foreign keys; a liveness prober thread runs
    /// alongside the accept loop.
    pub cluster: Option<ClusterConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            workers: 4,
            cache_entries: 256,
            queue_cap: 64,
            limits: HttpLimits::default(),
            store: None,
            postmortem: None,
            cluster: None,
        }
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] also shuts down gracefully.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Stop accepting, drain in-flight and queued work, join everything:
    /// what dropping the handle does.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind 127.0.0.1:`port` and serve `backend` until shutdown is requested
/// (via the returned handle, SIGINT, or SIGTERM). The accept loop runs on
/// its own thread; the call returns as soon as the socket is bound.
pub fn serve(cfg: ServeConfig, backend: Arc<dyn Backend>) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    listener.set_nonblocking(true)?;
    obs::set_postmortem_path(cfg.postmortem.as_deref());
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let cluster = match cfg.cluster.clone() {
        Some(cl_cfg) => {
            Some(Arc::new(ClusterRuntime::new(cl_cfg).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, e)
            })?))
        }
        None => None,
    };
    let router = Arc::new(Router::with_cluster(
        backend,
        cfg.cache_entries,
        cfg.store.clone(),
        cluster,
    ));

    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::Builder::new()
        .name("serve-accept".into())
        .spawn(move || accept_loop(&listener, &cfg, &accept_stop, &router))?;

    Ok(ServerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(listener: &TcpListener, cfg: &ServeConfig, stop: &AtomicBool, router: &Arc<Router>) {
    let pool = WorkerPool::new(cfg.workers, cfg.queue_cap);
    let draining = pool.draining_flag();

    // Clustered nodes probe peer /healthz continuously so proxying can
    // degrade to local recompute the moment a peer dies, rather than on
    // the first failed forward.
    let prober_stop = Arc::new(AtomicBool::new(false));
    let prober = router.cluster().map(|cl| {
        let cl = Arc::clone(cl);
        let stop_flag = Arc::clone(&prober_stop);
        std::thread::Builder::new()
            .name("serve-cluster-probe".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::SeqCst) && !signal::shutdown_requested() {
                    cl.probe_all();
                    // Sleep in small steps so drain isn't held up.
                    for _ in 0..6 {
                        if stop_flag.load(Ordering::SeqCst) || signal::shutdown_requested() {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            })
            .expect("spawn cluster prober")
    });

    while !stop.load(Ordering::SeqCst) && !signal::shutdown_requested() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if obs::metrics_enabled() {
                    let m = obs::metrics();
                    m.add("serve.connections", 1);
                    m.observe("serve.queue_depth", pool.queued() as u64);
                }
                // The stream lives in a shared slot so a rejected submit
                // can reclaim it for the inline 503.
                let slot = Arc::new(Mutex::new(Some(stream)));
                let job_slot = Arc::clone(&slot);
                let router = Arc::clone(router);
                let draining = Arc::clone(&draining);
                let limits = cfg.limits;
                let submitted = pool.try_submit(Box::new(move || {
                    if let Some(stream) = job_slot.lock().unwrap().take() {
                        handle_connection(stream, &limits, &router, draining);
                    }
                }));
                if submitted.is_err() {
                    if obs::metrics_enabled() {
                        obs::metrics().add("serve.rejected_503", 1);
                    }
                    obs::flight::record(obs::FlightKind::Overload, 503, 0, 0, "", "accept-queue");
                    if let Some(mut stream) = slot.lock().unwrap().take() {
                        let _ = Response::overloaded(RETRY_AFTER_SECS).write_to(&mut stream);
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                obs::error!("serve: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    // Graceful drain: everything accepted gets served before we return,
    // then the store's journal tail is folded into a snapshot so the
    // next process recovers from one segment. The flight ring is
    // persisted last, so the postmortem shows the drain completing.
    obs::flight::record(obs::FlightKind::Drain, 0, 0, 0, "", "drain-begin");
    prober_stop.store(true, Ordering::SeqCst);
    if let Some(t) = prober {
        let _ = t.join();
    }
    pool.shutdown();
    router.flush_store();
    obs::flight::dump_postmortem("sigterm-drain");
}

fn handle_connection(
    stream: TcpStream,
    limits: &HttpLimits,
    router: &Router,
    draining: Arc<AtomicBool>,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut reader = ConnReader::new(stream);
    reader.drain = Some(Arc::clone(&draining));
    while !draining.load(Ordering::SeqCst) && !signal::shutdown_requested() {
        let resp = match parse_request(&mut reader, limits) {
            Ok(req) => {
                let mut resp = router.handle(&req);
                // Honor the peer's connection preference, and stop serving
                // this session once shutdown begins.
                resp.close |= !req.keep_alive || draining.load(Ordering::SeqCst);
                resp
            }
            // A failed parse owes at most an error response, which closes.
            Err(err) => match err.response() {
                Some(resp) => resp,
                None => return,
            },
        };
        if resp.write_to(&mut reader.get_ref()).is_err() || resp.close {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::router::{AnalysisQuery, AnalysisViews, ApiError};

    struct TinyBackend;

    impl Backend for TinyBackend {
        fn apps_json(&self) -> String {
            "{\"apps\": [\"tiny\"]}\n".to_string()
        }

        fn canonicalize(&self, q: AnalysisQuery) -> Result<AnalysisQuery, ApiError> {
            Ok(q)
        }

        fn analyze(&self, q: &AnalysisQuery) -> Result<AnalysisViews, ApiError> {
            Ok(AnalysisViews {
                verdict: format!("{{\"app\": \"{}\"}}\n", q.app),
                conflicts: "{}\n".to_string(),
                patterns: "{}\n".to_string(),
            })
        }
    }

    #[test]
    fn serves_and_shuts_down_gracefully() {
        let handle = serve(ServeConfig::default(), Arc::new(TinyBackend)).unwrap();
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let health = client.get("/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert!(String::from_utf8_lossy(&health.body).contains("\"ok\""));
        // Keep-alive: second request on the same connection.
        let apps = client.get("/v1/apps").unwrap();
        assert_eq!(apps.status, 200);
        let verdict = client.get("/v1/verdict/tiny/x").unwrap();
        assert_eq!(verdict.status, 200);
        assert!(String::from_utf8_lossy(&verdict.body).contains("tiny"));
        handle.shutdown();
    }

    #[test]
    fn shutdown_releases_an_idle_keep_alive_connection() {
        let handle = serve(ServeConfig::default(), Arc::new(TinyBackend)).unwrap();
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        // A worker now waits on this connection for its next request; the
        // drain must end that wait, not the 5 s header deadline.
        let t0 = std::time::Instant::now();
        handle.shutdown();
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
        // Closed without an answer: no 408 was owed.
        assert!(client.get("/healthz").is_err());
    }

    #[test]
    fn http10_connection_closes_after_response() {
        let handle = serve(ServeConfig::default(), Arc::new(TinyBackend)).unwrap();
        use std::io::{Read, Write};
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap(); // server closes ⇒ read_to_end returns
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("HTTP/1.1 200"));
        assert!(text.contains("Connection: close"));
        handle.shutdown();
    }
}
