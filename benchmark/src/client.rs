//! The load generator: a lean keep-alive HTTP client and the three loop
//! shapes the workloads use.
//!
//! * **closed loop, seeded list** — each connection sends its list, the
//!   next request only after the previous reply, in whole cycles until
//!   the window has passed (cold workloads);
//! * **closed loop, fixed window** — each connection draws requests for a
//!   fixed time (warm workloads);
//! * **open loop** — requests fall due on a fixed schedule whether or not
//!   the previous one finished; latency is timed from the *due* time, so
//!   a stall is charged to every request it delayed.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use simrng::SimRng;

use crate::plan::Request;

/// One keep-alive connection. Requests are pre-rendered bytes; replies
/// are parsed in place (status, `Content-Length`, the fleet's
/// `X-Cluster-Served-By`) without allocating per request.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

pub struct Reply<'a> {
    pub status: u16,
    pub served_by: Option<u32>,
    pub body: &'a [u8],
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Value of header `name` (as `Response::write_to` spells it) in `head`.
fn header<'a>(head: &'a [u8], name: &[u8]) -> Option<&'a [u8]> {
    let mut rest = head;
    while let Some(eol) = find(rest, b"\r\n") {
        let line = &rest[..eol];
        if let Some(value) = line.strip_prefix(name) {
            if let Some(value) = value.strip_prefix(b": ") {
                return Some(value);
            }
        }
        rest = &rest[eol + 2..];
    }
    None
}

fn number<T: std::str::FromStr>(bytes: &[u8]) -> Option<T> {
    std::str::from_utf8(bytes).ok()?.trim().parse().ok()
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A 256-rank cold request takes seconds under contention; a
        // minute of silence means the server is gone.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Send one pre-rendered request and read its whole reply.
    pub fn roundtrip(&mut self, wire: &[u8]) -> io::Result<Reply<'_>> {
        self.stream.write_all(wire)?;
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            // The terminator can straddle two reads; rescan the tail only.
            let from = self.buf.len().saturating_sub(3);
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(pos) = find(&self.buf[from..], b"\r\n\r\n") {
                break from + pos;
            }
            if self.buf.len() > 64 * 1024 {
                return Err(bad("response head over 64 KiB"));
            }
        };
        let head = &self.buf[..head_end + 2];
        let status: u16 = head
            .get(9..12)
            .and_then(number)
            .ok_or_else(|| bad("bad status line"))?;
        let length: usize = header(head, b"Content-Length")
            .and_then(number)
            .ok_or_else(|| bad("no Content-Length"))?;
        if length > 16 << 20 {
            return Err(bad("body over 16 MiB"));
        }
        let served_by = header(head, b"X-Cluster-Served-By").and_then(number);
        let total = head_end + 4 + length;
        while self.buf.len() < total {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        if self.buf.len() != total {
            return Err(bad("bytes after the response body"));
        }
        Ok(Reply {
            status,
            served_by,
            body: &self.buf[head_end + 4..total],
        })
    }

    /// One checked operation: the body, when the reply satisfies the
    /// request's expectation.
    pub fn op(&mut self, req: &Request) -> Result<&[u8], String> {
        match self.roundtrip(&req.wire) {
            Ok(reply) => req
                .expect
                .check(reply.status, reply.served_by, reply.body)
                .map(|()| reply.body),
            Err(e) => Err(format!("i/o: {e}")),
        }
    }
}

/// Set in a sample when the key belongs to another node than the one the
/// request entered through. Latencies stay far below 2^63 ns, and the bit
/// makes one sort split the samples by route.
const FOREIGN_BIT: u64 = 1 << 63;

/// Latency samples of one phase: one buffer, sized and touched before the
/// phase starts and cut into a chunk per connection. The harness's memory
/// is then the same whatever the program's speed, so `peak_rss_mib` moves
/// with the program and not with the number of samples it produced.
pub struct Samples {
    buf: Vec<u64>,
    per_conn: usize,
}

impl Samples {
    pub fn new(conns: usize, per_conn: usize) -> Samples {
        // A non-zero fill writes, and so maps, every page now.
        Samples {
            buf: vec![u64::MAX; conns * per_conn.max(1)],
            per_conn: per_conn.max(1),
        }
    }

    /// Move each connection's recorded samples to the front and return
    /// them all, unsorted, route bit still set.
    fn pack(&mut self, recorded: &[usize]) -> &mut [u64] {
        let mut total = 0;
        for (i, &n) in recorded.iter().enumerate() {
            let from = i * self.per_conn;
            self.buf.copy_within(from..from + n, total);
            total += n;
        }
        &mut self.buf[..total]
    }
}

/// The samples of a finished phase, sorted.
pub struct Sorted<'a> {
    /// All latencies, ns, ascending.
    pub all: &'a [u64],
    /// Median latency of the operations served by the entry node, and of
    /// those it forwarded (0 when there were none), ns.
    pub local_p50: u64,
    pub foreign_p50: u64,
}

/// Where one slice of a connection's run ends: how many samples and
/// correct operations it had by then, when, and how much CPU the whole
/// process had used by then.
#[derive(Clone, Copy, Default)]
struct Mark {
    recorded: usize,
    ops: u64,
    t_ns: u64,
    cpu_ns: u64,
}

/// One connection's window into [`Samples`].
struct Recorder<'a> {
    chunk: &'a mut [u64],
    recorded: usize,
    /// Time every `stride`-th correct operation.
    stride: usize,
    /// Correct operations so far.
    ops: u64,
    /// Slice boundaries; the first one is the start of the phase.
    marks: Vec<Mark>,
}

impl Recorder<'_> {
    fn record(&mut self, lat: Duration, foreign: bool) {
        self.ops += 1;
        if !self.ops.is_multiple_of(self.stride as u64) {
            return;
        }
        // A full chunk stops recording; the operation is still counted.
        if let Some(slot) = self.chunk.get_mut(self.recorded) {
            *slot = lat.as_nanos() as u64 | if foreign { FOREIGN_BIT } else { 0 };
            self.recorded += 1;
        }
    }

    /// A slice boundary at `t` since the phase began (`t` = 0 opens the
    /// first slice).
    fn mark(&mut self, t: Duration) {
        self.marks.push(Mark {
            recorded: self.recorded,
            ops: self.ops,
            t_ns: t.as_nanos() as u64,
            cpu_ns: crate::sysinfo::cpu_time_ns(),
        });
    }
}

/// What one connection counted.
#[derive(Default)]
pub struct ConnStats {
    pub attempted: u64,
    pub failed: u64,
    /// First failure, for the report.
    pub first_error: Option<String>,
    /// Every request put on the wire, warm-up and the one cut off by the
    /// window's end included — what the program's own counters saw.
    pub sent_total: u64,
    /// ... of which for keys another node owns.
    pub sent_foreign: u64,
    /// Fixed-work loops keep some cold bodies `(list index, body)` for the
    /// warm-equals-cold re-fetch.
    pub kept: Vec<(usize, Vec<u8>)>,
    /// Samples this connection wrote into its chunk.
    recorded: usize,
    marks: Vec<Mark>,
}

fn is_foreign(req: &Request) -> bool {
    matches!(
        req.expect,
        crate::check::Expect::Bytes {
            served_by: Some(_),
            ..
        }
    )
}

impl ConnStats {
    /// Send `req`, checked: the body when it was correct. Counts the send,
    /// not the attempt: the caller decides whether it is measured.
    fn send<'c>(&mut self, conn: &'c mut Conn, req: &Request) -> Result<&'c [u8], String> {
        self.sent_total += 1;
        self.sent_foreign += u64::from(is_foreign(req));
        conn.op(req)
    }

    /// Count one measured operation; `true` when it was correct.
    pub fn count(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
                false
            }
        }
    }
}

/// Phase bookkeeping shared by the loop shapes: per-connection counts.
pub struct Phase {
    pub conns: Vec<ConnStats>,
}

/// Per-slice figures of a phase. A slice is a stretch of equal work (a
/// cycle of a seeded list) or of equal time (a tenth of a second of a
/// window); the workloads report the good-side decile over slices, so the
/// stretches in which the box ran slower do not move the result.
#[derive(Default)]
pub struct SliceStats {
    /// Whole-system throughput in each slice, ops/s.
    pub rates: Vec<f64>,
    /// Median and 90th-percentile latency within each slice, ns.
    pub p50_ns: Vec<f64>,
    pub p90_ns: Vec<f64>,
    /// Process CPU time per correct operation in each slice, ns.
    pub cpu_ns_per_op: Vec<f64>,
}

impl Phase {
    /// Sort the phase's samples in place.
    pub fn sorted<'a>(&self, samples: &'a mut Samples) -> Sorted<'a> {
        let recorded: Vec<usize> = self.conns.iter().map(|c| c.recorded).collect();
        let packed = samples.pack(&recorded);
        // With the route bit on top, one sort leaves the entry node's own
        // operations first and the forwarded ones after them.
        packed.sort_unstable();
        let split = packed.partition_point(|&s| s & FOREIGN_BIT == 0);
        let p50 = |s: &[u64]| crate::stats::quantile(s, s.len(), 0.5).unwrap_or(0) & !FOREIGN_BIT;
        let (local_p50, foreign_p50) = (p50(&packed[..split]), p50(&packed[split..]));
        for s in packed.iter_mut() {
            *s &= !FOREIGN_BIT;
        }
        packed.sort_unstable();
        Sorted {
            all: packed,
            local_p50,
            foreign_p50,
        }
    }

    /// Per-slice throughput, latency quantiles and CPU per operation; call
    /// before [`Phase::sorted`], which reorders the samples. With
    /// `aligned` slices (every connection cut at the same times) a slice
    /// is the connections taken together: their operations, their samples
    /// pooled, the process CPU the slice spanned. Otherwise each
    /// connection's slice stands for the system: `conns` times its
    /// operations over the time and the process CPU it spanned.
    pub fn slice_stats(&self, samples: &Samples, aligned: bool) -> SliceStats {
        let mut out = SliceStats::default();
        let n_conns = self.conns.len() as f64;
        let slices = |conn: &ConnStats| conn.marks.len().saturating_sub(1);
        // Slice `s` of connection `i`: seconds, operations, process CPU, samples.
        let slice = |i: usize, s: usize| {
            let (prev, mark) = (self.conns[i].marks[s], self.conns[i].marks[s + 1]);
            let chunk = &samples.buf[i * samples.per_conn..][prev.recorded..mark.recorded];
            (
                (mark.t_ns - prev.t_ns) as f64 / 1e9,
                (mark.ops - prev.ops) as f64,
                (mark.cpu_ns - prev.cpu_ns) as f64,
                chunk.iter().map(|s| s & !FOREIGN_BIT),
            )
        };
        let mut scratch: Vec<u64> = Vec::new();
        let mut push = |scratch: &mut Vec<u64>, rate: f64, ops: f64, cpu_ns: f64| {
            out.rates.push(rate);
            if ops > 0.0 {
                out.cpu_ns_per_op.push(cpu_ns / ops);
            }
            scratch.sort_unstable();
            let n = scratch.len();
            if let (Some(p50), Some(p90)) = (
                crate::stats::quantile(scratch, n, 0.5),
                crate::stats::quantile(scratch, n, 0.9),
            ) {
                out.p50_ns.push(p50 as f64);
                out.p90_ns.push(p90 as f64);
            }
            scratch.clear();
        };
        if aligned {
            for s in 0..self.conns.iter().map(slices).min().unwrap_or(0) {
                let (mut rate, mut ops, mut cpu_ns) = (0.0, 0.0, 0.0);
                for i in 0..self.conns.len() {
                    let (secs, done, cpu, lat) = slice(i, s);
                    rate += done / secs;
                    ops += done;
                    // Every connection read the same process clock.
                    cpu_ns = cpu;
                    scratch.extend(lat);
                }
                push(&mut scratch, rate, ops, cpu_ns);
            }
        } else {
            for (i, conn) in self.conns.iter().enumerate() {
                for s in 0..slices(conn) {
                    let (secs, done, cpu, lat) = slice(i, s);
                    scratch.extend(lat);
                    push(&mut scratch, done / secs * n_conns, done * n_conns, cpu);
                }
            }
        }
        out
    }
}

/// Run `body(conn_index, conn, recorder, start_barrier)` on one thread
/// per connection (thread `i` pinned to core `i`), all released together.
fn run_conns<F>(conns: &mut [Conn], samples: &mut Samples, stride: usize, body: F) -> Phase
where
    F: Fn(usize, &mut Conn, &mut Recorder, &Barrier) -> ConnStats + Sync,
{
    let chunks: Vec<&mut [u64]> = samples.buf.chunks_mut(samples.per_conn).collect();
    assert_eq!(chunks.len(), conns.len(), "one sample chunk per connection");
    let barrier = Barrier::new(conns.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(chunks)
            .enumerate()
            .map(|(i, (conn, chunk))| {
                let (body, barrier) = (&body, &barrier);
                scope.spawn(move || {
                    // One load thread per core, and kept there: left to
                    // the scheduler, the four threads of a warm ping-pong
                    // (two clients, two workers) wander between placements
                    // whose throughput differs threefold. A pinned client
                    // draws the worker that serves it onto its own core.
                    crate::sysinfo::pin_to_cpu(i);
                    let mut recorder = Recorder {
                        chunk,
                        recorded: 0,
                        stride,
                        ops: 0,
                        marks: Vec::with_capacity(256),
                    };
                    let mut stats = body(i, conn, &mut recorder, barrier);
                    stats.recorded = recorder.recorded;
                    stats.marks = recorder.marks;
                    stats
                })
            })
            .collect();
        let conns = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        Phase { conns }
    })
}

/// At most this many cold bodies are kept per connection for the re-fetch.
pub const KEEP_MAX: usize = 32;

/// Closed loop over a seeded list: connection `i` sends `lists[i]` in
/// order, one slice per `cycle` requests, and stops at the first cycle
/// boundary past `window` (or at the end of its list). Whole cycles only,
/// so every slice is the same work; how many there are moves with the
/// program's speed, what each one measured does not. Every `keep_every`-th
/// body is kept, up to [`KEEP_MAX`]. `samples` needs a chunk per list as
/// long as the list.
pub fn closed_fixed(
    conns: &mut [Conn],
    lists: &[Vec<Request>],
    (cycle, keep_every): (usize, usize),
    window: Duration,
    samples: &mut Samples,
) -> Phase {
    run_conns(conns, samples, 1, |i, conn, recorder, barrier| {
        let mut stats = ConnStats::default();
        barrier.wait();
        let t0 = Instant::now();
        recorder.mark(Duration::ZERO);
        for (k, req) in lists[i].iter().enumerate() {
            let t = Instant::now();
            let outcome = stats.send(conn, req);
            let lat = t.elapsed();
            let outcome = outcome.map(|body| {
                if k % keep_every == 0 && stats.kept.len() < KEEP_MAX {
                    stats.kept.push((k, body.to_vec()));
                }
            });
            if stats.count(outcome) {
                recorder.record(lat, false);
            }
            if (k + 1) % cycle == 0 {
                let since = t0.elapsed();
                recorder.mark(since);
                if since >= window {
                    break;
                }
            }
        }
        stats
    })
}

/// Of a window loop's correct operations, every fourth is timed into the
/// sample buffer: quantiles need no more, and the buffer stays small.
pub const WINDOW_STRIDE: usize = 4;

/// Closed loop over a fixed window: each connection draws uniformly from
/// `reqs` (its own seeded stream) for `warmup`, unrecorded, then for
/// `window`, cut into slices of `slice`.
pub fn closed_window(
    conns: &mut [Conn],
    reqs: &[Request],
    seed: u64,
    (warmup, window, slice): (Duration, Duration, Duration),
    samples: &mut Samples,
) -> Phase {
    run_conns(
        conns,
        samples,
        WINDOW_STRIDE,
        |i, conn, recorder, barrier| {
            let mut rng = SimRng::seed_from_u64(seed.wrapping_add(i as u64));
            let mut stats = ConnStats::default();
            let t = Instant::now();
            while t.elapsed() < warmup {
                let req = &reqs[rng.range_usize(0, reqs.len())];
                if let Err(e) = stats.send(conn, req).map(|_| ()) {
                    // A failure while warming is still a failure of the run.
                    stats.count(Err(e));
                }
            }
            barrier.wait();
            let t0 = Instant::now();
            recorder.mark(Duration::ZERO);
            let mut boundary = slice;
            loop {
                let req = &reqs[rng.range_usize(0, reqs.len())];
                let t = Instant::now();
                let outcome = stats.send(conn, req).map(|_| ());
                let done = Instant::now();
                let since = done - t0;
                // An operation belongs to the slice it completed in.
                while since >= boundary && boundary <= window {
                    recorder.mark(boundary);
                    boundary += slice;
                }
                if since >= window {
                    // The reply landed after the window closed: not counted.
                    break;
                }
                if stats.count(outcome) {
                    recorder.record(done - t, is_foreign(req));
                }
            }
            stats
        },
    )
}

/// Time source of the open loop, so the schedule arithmetic can be tested
/// against a clock that only moves when told to.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Return once `now_ns() >= t_ns`.
    fn wait_until(&self, t_ns: u64);
}

pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t_ns: u64) {
        // Yield until due. Sleeping through gaps of 25-100 µs idles the
        // core, and waking an idle virtual CPU costs more than a warm
        // request: the generator then runs late at every rate and measures
        // the hypervisor. A bare spin would steal from the server's
        // workers, which share these two cores; yielding hands the core to
        // any worker that is runnable and comes back when none is.
        while self.now_ns() < t_ns {
            std::thread::yield_now();
        }
    }
}

/// What one open-loop connection measured.
#[derive(Default)]
pub struct OpenStats {
    /// Completion time minus *due* time of each correct operation, ns.
    pub from_due_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// How late the generator sent the latest-sent request, ns.
    pub max_lateness_ns: u64,
    /// Lateness of the last request: a backlog that grew is still there.
    pub final_lateness_ns: u64,
}

/// Send `count` operations, operation `k` falling due at `k * interval`
/// after the call. One connection holds one request at a time, so when the
/// server falls behind the backlog queues here, in the schedule, and shows
/// as lateness.
pub fn open_loop<C: Clock>(
    clock: &C,
    interval_ns: u64,
    count: u64,
    mut op: impl FnMut(u64) -> bool,
) -> OpenStats {
    let mut stats = OpenStats::default();
    stats.from_due_ns.reserve(count as usize);
    let start = clock.now_ns();
    for k in 0..count {
        let due = start + k * interval_ns;
        clock.wait_until(due);
        let lateness = clock.now_ns() - due;
        stats.max_lateness_ns = stats.max_lateness_ns.max(lateness);
        stats.final_lateness_ns = lateness;
        stats.attempted += 1;
        if op(k) {
            stats.from_due_ns.push(clock.now_ns() - due);
        } else {
            stats.failed += 1;
        }
    }
    stats
}

/// Open loop at `rate` ops/s, split evenly over `conns`, for `duration`.
pub fn open_phase(
    conns: &mut [Conn],
    reqs: &[Request],
    seed: u64,
    rate: u64,
    duration: Duration,
) -> Vec<OpenStats> {
    let interval_ns = 1_000_000_000 * conns.len() as u64 / rate;
    let count = duration.as_nanos() as u64 / interval_ns;
    let barrier = Barrier::new(conns.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    crate::sysinfo::pin_to_cpu(i);
                    let mut rng = SimRng::seed_from_u64(seed.wrapping_add(i as u64));
                    barrier.wait();
                    let clock = WallClock::start();
                    open_loop(&clock, interval_ns, count, |_| {
                        conn.op(&reqs[rng.range_usize(0, reqs.len())]).is_ok()
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that moves only when waited on or advanced by the op.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    #[test]
    fn open_loop_keeps_schedule_when_service_is_fast() {
        let clock = FakeClock(Cell::new(1_000));
        let stats = open_loop(&clock, 100, 10, |_| {
            clock.0.set(clock.0.get() + 30);
            true
        });
        assert_eq!(stats.from_due_ns, vec![30; 10]);
        assert_eq!((stats.max_lateness_ns, stats.final_lateness_ns), (0, 0));
        assert_eq!((stats.attempted, stats.failed), (10, 0));
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_it_delays() {
        // Service takes 30 except op 2, which stalls for 350: ops 3..5 are
        // sent late and their latency is counted from when they were due.
        let clock = FakeClock(Cell::new(0));
        let stats = open_loop(&clock, 100, 8, |k| {
            clock.0.set(clock.0.get() + if k == 2 { 350 } else { 30 });
            true
        });
        // op2 due 200, done 550. op3 due 300, sent 550 (late 250), done 580.
        // op4 due 400, sent 580 (late 180), done 610. op5 due 500, sent 610
        // (late 110), done 640. op6 due 600, sent 640 (late 40), done 670.
        // op7 due 700: back on schedule.
        assert_eq!(stats.from_due_ns, vec![30, 30, 350, 280, 210, 140, 70, 30]);
        assert_eq!(stats.max_lateness_ns, 250);
        assert_eq!(stats.final_lateness_ns, 0);
    }

    #[test]
    fn open_loop_backlog_grows_when_service_is_slower_than_the_schedule() {
        let clock = FakeClock(Cell::new(0));
        let stats = open_loop(&clock, 100, 5, |k| {
            clock.0.set(clock.0.get() + 150);
            k != 4
        });
        assert_eq!(stats.from_due_ns, vec![150, 200, 250, 300]);
        assert_eq!(stats.final_lateness_ns, 200);
        assert_eq!(stats.max_lateness_ns, 200);
        assert_eq!((stats.attempted, stats.failed), (5, 1));
    }

    /// A backend that answers at once, so the loops can be driven through
    /// the real server without simulating anything.
    struct Stub;

    fn stub_body(app: &str) -> String {
        format!("{{\"app\": \"{app}\", \"required_model\": \"session\"}}\n")
    }

    impl serve::Backend for Stub {
        fn apps_json(&self) -> String {
            "{}\n".to_string()
        }

        fn canonicalize(
            &self,
            q: serve::AnalysisQuery,
        ) -> Result<serve::AnalysisQuery, serve::ApiError> {
            Ok(q)
        }

        fn analyze(
            &self,
            q: &serve::AnalysisQuery,
        ) -> Result<serve::AnalysisViews, serve::ApiError> {
            Ok(serve::AnalysisViews {
                verdict: stub_body(&q.app),
                conflicts: "{}\n".to_string(),
                patterns: "{}\n".to_string(),
            })
        }
    }

    fn stub_server() -> (serve::ServerHandle, Vec<Conn>) {
        let server = serve::serve(serve::ServeConfig::default(), std::sync::Arc::new(Stub))
            .expect("bind a stub server");
        let conns = (0..2)
            .map(|_| Conn::connect(server.addr()).expect("connect"))
            .collect();
        (server, conns)
    }

    fn stub_request(i: usize, expect: crate::check::Expect) -> Request {
        Request {
            wire: crate::plan::wire(&format!("/v1/verdict/app{i}/x")),
            expect,
        }
    }

    #[test]
    fn window_loop_slices_samples_and_checks_every_body() {
        let (server, mut conns) = stub_server();
        let mut reqs: Vec<Request> = (0..8)
            .map(|i| {
                stub_request(
                    i,
                    crate::check::Expect::Bytes {
                        body: stub_body(&format!("app{i}")).into_bytes().into(),
                        served_by: None,
                    },
                )
            })
            .collect();
        let ms = Duration::from_millis;
        let times = (ms(30), ms(300), ms(100));
        let mut samples = Samples::new(2, 100_000);
        let phase = closed_window(&mut conns, &reqs, 1, times, &mut samples);
        let attempted: u64 = phase.conns.iter().map(|c| c.attempted).sum();
        let sent: u64 = phase.conns.iter().map(|c| c.sent_total).sum();
        assert!(attempted > 100, "{attempted} operations in 300 ms");
        assert!(
            sent > attempted,
            "warm-up and cut-off requests are sent, not attempted"
        );
        assert_eq!(phase.conns.iter().map(|c| c.failed).sum::<u64>(), 0);
        let slices = phase.slice_stats(&samples, true);
        assert_eq!(slices.rates.len(), 3);
        assert!(slices.rates.iter().all(|r| *r > 0.0));
        assert_eq!(
            slices.p50_ns.len(),
            3,
            "one p50 per slice, connections pooled"
        );
        assert_eq!(slices.cpu_ns_per_op.len(), 3);
        assert!(slices.cpu_ns_per_op.iter().all(|c| *c > 0.0));
        // Slice rates are whole-system: together they account for every op.
        let from_rates: f64 = slices.rates.iter().map(|r| r * 0.1).sum();
        assert!(
            (from_rates - attempted as f64).abs() < 1.0,
            "{from_rates} vs {attempted}"
        );
        let sorted = phase.sorted(&mut samples);
        assert!(sorted.all.windows(2).all(|w| w[0] <= w[1]));
        let expected = attempted as usize / WINDOW_STRIDE;
        assert!(
            sorted.all.len().abs_diff(expected) <= 2,
            "every fourth op is sampled"
        );
        assert!(sorted.local_p50 > 0 && sorted.foreign_p50 == 0);

        // One tampered expectation: its operations fail, the rest do not.
        reqs[3] = stub_request(
            3,
            crate::check::Expect::Bytes {
                body: b"something else".to_vec().into(),
                served_by: None,
            },
        );
        let phase = closed_window(&mut conns, &reqs, 1, times, &mut samples);
        let failed: u64 = phase.conns.iter().map(|c| c.failed).sum();
        let attempted: u64 = phase.conns.iter().map(|c| c.attempted).sum();
        assert!(
            failed > 0 && failed < attempted / 4,
            "{failed} of {attempted}"
        );
        assert!(phase.conns.iter().any(|c| c.first_error.is_some()));
        drop(conns);
        server.shutdown();
    }

    #[test]
    fn list_loop_stops_on_a_cycle_boundary_marks_slices_and_keeps_bodies() {
        let (server, mut conns) = stub_server();
        let lists: Vec<Vec<Request>> = (0..2)
            .map(|c| {
                (0..6)
                    .map(|i| stub_request(10 * c + i, crate::check::Expect::Model("session")))
                    .collect()
            })
            .collect();
        let mut samples = Samples::new(2, 6);
        // A window already over when the loop starts: one cycle, no more.
        let phase = closed_fixed(&mut conns, &lists, (3, 2), Duration::ZERO, &mut samples);
        for stats in &phase.conns {
            assert_eq!((stats.attempted, stats.failed), (3, 0));
        }
        assert_eq!(phase.slice_stats(&samples, false).rates.len(), 2);
        // A window longer than the list takes: the whole list.
        let hour = Duration::from_secs(3600);
        let phase = closed_fixed(&mut conns, &lists, (3, 2), hour, &mut samples);
        for (c, stats) in phase.conns.iter().enumerate() {
            assert_eq!((stats.attempted, stats.failed), (6, 0));
            let kept: Vec<usize> = stats.kept.iter().map(|(k, _)| *k).collect();
            assert_eq!(kept, vec![0, 2, 4]);
            assert_eq!(
                stats.kept[1].1,
                stub_body(&format!("app{}", 10 * c + 2)).into_bytes()
            );
        }
        let slices = phase.slice_stats(&samples, false);
        assert_eq!(
            slices.rates.len(),
            4,
            "two cycles on each of two connections"
        );
        assert_eq!(slices.p90_ns.len(), 4);
        assert_eq!(slices.cpu_ns_per_op.len(), 4);
        assert_eq!(phase.sorted(&mut samples).all.len(), 12);
        drop(conns);
        server.shutdown();
    }

    #[test]
    fn header_lookup_is_exact() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 12\r\nX-Cluster-Served-By: 2\r\n";
        assert_eq!(
            header(head, b"Content-Length").and_then(number::<usize>),
            Some(12)
        );
        assert_eq!(
            header(head, b"X-Cluster-Served-By").and_then(number::<u32>),
            Some(2)
        );
        assert_eq!(header(head, b"Content"), None);
        assert_eq!(header(head, b"Retry-After"), None);
    }
}
