//! The TCP front-end: accept loop, connection lifecycle, backpressure,
//! and graceful shutdown.
//!
//! ```text
//! accept loop (own thread; `serve` returns once the socket is bound)
//!   ├─ blocking accept, then read the server's `stopping` flag
//!   ├─ try_send(stream) on the bounded connection channel
//!   │    └─ Full ⇒ the stream comes back: write 503 + Retry-After, close
//!   └─ once stopping: accept the backlog until WouldBlock, drop the
//!      sender, join the workers (each finishes its connection, then
//!      serves what is still queued)
//! ```
//!
//! One flag says the server is stopping; only dropping the
//! [`ServerHandle`] sets it. The drop then connects once to the server's
//! own address, behind every connection the kernel already holds, which
//! wakes the `accept`: every connection whose handshake finished before
//! the stop is answered. The cluster prober (unparked by the drain),
//! every handler and every handler's `ConnReader` read only this flag.
//!
//! Workers share the channel's receiver behind one `Mutex` and run the
//! keep-alive loop per connection: parse request → route → write
//! response, until the peer closes, an error forces a close, or the
//! server is stopping — then the response just written carried
//! `Connection: close`. A connection whose request has arrived is
//! answered, queued or not; one with no byte yet lets go at its next
//! 50 ms read timeout. That is what makes a drain quick even with
//! idle keep-alive clients (a peer's pooled connections) parked on
//! workers.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::fleet::{ClusterConfig, ClusterRuntime};
use crate::http::{parse_request, ConnReader, HttpLimits, Response};
use crate::router::{Backend, Router};

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
    stopping: Arc<AtomicBool>,
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
        self.stopping.store(true, Ordering::SeqCst);
        let Some(t) = self.accept_thread.take() else {
            return;
        };
        // Wake the blocked `accept`. Join only if the wake landed: when
        // the connect fails (no descriptor left, say), the loop is left to
        // stop at the next connection anyone makes, not joined forever.
        match TcpStream::connect_timeout(&self.addr, Duration::from_secs(1)) {
            Ok(wake) => {
                drop(wake);
                let _ = t.join();
            }
            Err(e) => obs::error!("serve: cannot wake the accept loop ({e}); not joining it"),
        }
    }
}

/// Bind 127.0.0.1:`port` and serve `backend` until the returned handle
/// is shut down or dropped. The accept loop runs on its own thread; the
/// call returns as soon as the socket is bound.
pub fn serve(cfg: ServeConfig, backend: Arc<dyn Backend>) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    obs::set_postmortem_path(cfg.postmortem.as_deref());
    let addr = listener.local_addr()?;
    let stopping = Arc::new(AtomicBool::new(false));
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

    let accept_stopping = Arc::clone(&stopping);
    let accept_thread = std::thread::Builder::new()
        .name("serve-accept".into())
        .spawn(move || accept_loop(&listener, &cfg, &accept_stopping, &router))?;

    Ok(ServerHandle {
        addr,
        stopping,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(
    listener: &TcpListener,
    cfg: &ServeConfig,
    stopping: &Arc<AtomicBool>,
    router: &Arc<Router>,
) {
    let (tx, rx) = sync_channel::<TcpStream>(cfg.queue_cap.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<_> = (0..cfg.workers.max(1))
        .map(|k| {
            let rx = Arc::clone(&rx);
            let router = Arc::clone(router);
            let stopping = Arc::clone(stopping);
            let limits = cfg.limits;
            std::thread::Builder::new()
                .name(format!("serve-worker-{k}"))
                .spawn(move || worker(&rx, &limits, &router, &stopping))
                .expect("spawn worker thread")
        })
        .collect();

    // Clustered nodes probe peer /healthz continuously so proxying can
    // degrade to local recompute the moment a peer dies, rather than on
    // the first failed forward.
    let prober = router.cluster().map(|cl| {
        let cl = Arc::clone(cl);
        let stopping = Arc::clone(stopping);
        std::thread::Builder::new()
            .name("serve-cluster-probe".into())
            .spawn(move || {
                while !stopping.load(Ordering::SeqCst) {
                    cl.probe_all();
                    std::thread::park_timeout(Duration::from_millis(300));
                }
            })
            .expect("spawn cluster prober")
    });

    // A full queue hands the stream back for the inline 503.
    let admit = |stream: TcpStream| {
        if obs::metrics_enabled() {
            obs::metrics().add("serve.connections", 1);
        }
        if let Err(TrySendError::Full(mut stream) | TrySendError::Disconnected(mut stream)) =
            tx.try_send(stream)
        {
            if obs::metrics_enabled() {
                obs::metrics().add("serve.rejected_503", 1);
            }
            obs::flight::record(obs::FlightKind::Overload, 503, 0, 0, "", "accept-queue");
            let _ = Response::overloaded(RETRY_AFTER_SECS).write_to(&mut stream);
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    };
    while !stopping.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => admit(stream),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // Back off so a persistent error (EMFILE) cannot spin.
            Err(e) => {
                obs::error!("serve: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    // Stop-time drain of the backlog, until `WouldBlock` (or any other
    // error): the handle's wake-up connection is last in it, so every
    // connection made before the stop is admitted.
    if listener.set_nonblocking(true).is_ok() {
        while let Ok((stream, _peer)) = listener.accept() {
            admit(stream);
        }
    }
    // Graceful drain: everything accepted gets served before we return,
    // then the store's journal tail is folded into a snapshot so the
    // next process recovers from one segment. The flight ring is
    // persisted last, so the postmortem shows the drain completing.
    obs::flight::record(obs::FlightKind::Drain, 0, 0, 0, "", "drain-begin");
    if let Some(t) = prober {
        t.thread().unpark();
        let _ = t.join();
    }
    drop(tx);
    for t in workers {
        let _ = t.join();
    }
    router.flush_store();
    obs::flight::dump_postmortem("sigterm-drain");
}

/// One worker: serve queued connections until the sender is dropped and
/// the queue is empty.
fn worker(
    rx: &Mutex<Receiver<TcpStream>>,
    limits: &HttpLimits,
    router: &Router,
    stopping: &Arc<AtomicBool>,
) {
    loop {
        // The guard drops with this statement: a worker holds the lock
        // only while it waits, never while it serves.
        let next = rx.lock().expect("recv does not panic").recv();
        let Ok(stream) = next else { return };
        // A handler panic must not kill the worker; it is recorded and the
        // worker keeps serving (the connection drops, which the peer sees
        // as a reset — never a hung server).
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_connection(stream, limits, router, stopping)
        }));
        if served.is_err() {
            obs::error!("serve: connection handler panicked (worker survives)");
            if obs::metrics_enabled() {
                obs::metrics().add("serve.handler_panics", 1);
            }
            // Crash forensics: the router's PanicTrap already stamped the
            // dying request's id into the ring; persist the whole ring
            // while the trail is hot.
            obs::flight::dump_postmortem("handler-panic");
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    limits: &HttpLimits,
    router: &Router,
    stopping: &Arc<AtomicBool>,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut reader = ConnReader::new(stream);
    reader.drain = Some(Arc::clone(stopping));
    loop {
        let resp = match parse_request(&mut reader, limits) {
            Ok(req) => {
                let mut resp = router.handle(&req);
                // Honor the peer's connection preference, and end this
                // session with this response once the server is stopping.
                resp.close |= !req.keep_alive || stopping.load(Ordering::SeqCst);
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
