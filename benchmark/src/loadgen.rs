//! The benchmark's own client: closed- and open-loop load generators and a
//! one-request-at-a-time sender, built on the public frame codec so every
//! request keeps its own timestamps. It never retries: an `Error` frame is
//! a failed request.

use crate::procfs;
use cdd_bench::workload::WorkloadEntry;
use cdd_core::TraceContext;
use cdd_net::auth;
use cdd_net::frame::{
    self, assemble_sequence, read_frame, Frame, NetError, NetRequest, NetResponse, WorkSpec,
};
use std::collections::hash_map::{Entry, HashMap};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How often the load generator samples the process's thread count.
const THREAD_SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// An open-loop reader gives up after this long without any frame.
const STALL_LIMIT: Duration = Duration::from_secs(60);

/// One request's fate as the client saw it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Position of the request in the workload stream.
    pub idx: usize,
    /// Where its latency starts: the scheduled due time in an open loop,
    /// the frame write otherwise.
    pub start: Instant,
    /// When its terminal frame (`Response` or `Error`) arrived.
    pub done: Instant,
    /// The terminal response, if the request succeeded.
    pub response: Option<NetResponse>,
    /// The reassembled job sequence (empty on failure).
    pub sequence: Vec<u32>,
    /// The terminal error, if the request failed.
    pub error: Option<NetError>,
}

impl Exchange {
    /// Client-side latency, milliseconds.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.done
            .saturating_duration_since(self.start)
            .as_secs_f64()
            * 1e3
    }
}

/// What one loaded phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every request that reached a terminal frame, in stream order.
    pub exchanges: Vec<Exchange>,
    /// Requests sent.
    pub attempted: usize,
    /// From the phase's start to its last terminal frame, seconds.
    pub wall_s: f64,
    /// How late the open-loop sender sent each request, milliseconds
    /// (empty for a closed loop, which has no schedule).
    pub lags_ms: Vec<f64>,
    /// Highest thread count sampled while the phase ran.
    pub threads_peak: u64,
}

impl Phase {
    /// Requests answered with a `Response`.
    #[must_use]
    pub fn answered(&self) -> usize {
        self.exchanges
            .iter()
            .filter(|x| x.response.is_some())
            .count()
    }

    /// `Error` frames plus requests never answered.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.attempted - self.answered()
    }

    /// Latencies of the answered requests, milliseconds.
    #[must_use]
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.exchanges
            .iter()
            .filter(|x| x.response.is_some())
            .map(Exchange::latency_ms)
            .collect()
    }

    /// Answered requests per second of phase wall time.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let answered = self.answered() as f64;
        answered / self.wall_s.max(f64::MIN_POSITIVE)
    }
}

/// The request frame for stream position `idx` (frame id `idx + 1`; id 0
/// names connection-level errors). A traced request carries a sampled
/// trace context, so the fleet returns its flight record.
#[must_use]
pub(crate) fn request_frame(idx: usize, e: &WorkloadEntry, traced: bool) -> Frame {
    let id = idx as u64 + 1;
    Frame::Request(NetRequest {
        id,
        tenant: e.tenant.clone(),
        token: auth::token_for(&e.tenant, auth::DEFAULT_SECRET),
        priority: e.priority,
        deadline_ms: None,
        algorithm: e.algorithm,
        iterations: e.iterations,
        seed: e.seed,
        work: WorkSpec::ById {
            n: e.id.n as u64,
            k: e.id.k,
            h: e.id.h,
        },
        trace: traced.then(|| TraceContext::root(id)),
    })
}

/// Open a client connection.
pub(crate) fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay {addr}: {e}"))?;
    Ok(stream)
}

struct Inflight {
    start: Instant,
    chunks: Vec<u8>,
}

/// Fold one received frame into the in-flight table; returns the exchange
/// it completed, if any. `due` creates the entry of a request the table
/// does not know yet (the open loop's reader learns of sends late).
fn absorb(
    frame: Frame,
    pending: &mut HashMap<u64, Inflight>,
    due: Option<&dyn Fn(u64) -> Option<Instant>>,
) -> Result<Option<Exchange>, String> {
    let id = match &frame {
        Frame::Chunk(c) => c.id,
        Frame::Response(r) => r.id,
        Frame::Error(e) if e.id == 0 => {
            return Err(format!("connection-level error {:?}: {}", e.code, e.detail))
        }
        Frame::Error(e) => e.id,
        _ => return Ok(None),
    };
    if let (Some(due), Entry::Vacant(slot)) = (due, pending.entry(id)) {
        let start = due(id).ok_or_else(|| format!("reply for unknown request id {id}"))?;
        slot.insert(Inflight {
            start,
            chunks: Vec::new(),
        });
    }
    let finish = |p: Inflight, response, sequence, error| {
        Some(Exchange {
            idx: usize::try_from(id - 1).expect("ids come from stream positions"),
            start: p.start,
            done: Instant::now(),
            response,
            sequence,
            error,
        })
    };
    Ok(match frame {
        Frame::Chunk(c) => {
            if let Some(p) = pending.get_mut(&id) {
                if c.index == 0 {
                    p.chunks.clear();
                }
                p.chunks.extend_from_slice(&c.data);
            }
            None
        }
        Frame::Response(r) => match pending.remove(&id) {
            Some(p) => {
                let sequence = assemble_sequence(&p.chunks).map_err(|e| e.to_string())?;
                finish(p, Some(r), sequence, None)
            }
            None => None,
        },
        Frame::Error(e) => pending
            .remove(&id)
            .and_then(|p| finish(p, None, Vec::new(), Some(e))),
        _ => None,
    })
}

/// Write request `idx` to `stream` and enter it in the in-flight table; its
/// latency starts at the write.
fn send(
    stream: &mut TcpStream,
    pending: &mut HashMap<u64, Inflight>,
    (idx, e): (usize, &WorkloadEntry),
    traced: bool,
) -> Result<(), String> {
    let bytes = request_frame(idx, e, traced).encode();
    let start = Instant::now();
    stream
        .write_all(&bytes)
        .map_err(|err| format!("send request {idx}: {err}"))?;
    pending.insert(
        idx as u64 + 1,
        Inflight {
            start,
            chunks: Vec::new(),
        },
    );
    Ok(())
}

fn sample_threads(next: &mut Instant, peak: &AtomicU64) {
    let now = Instant::now();
    if now >= *next {
        peak.fetch_max(procfs::threads(), Ordering::Relaxed);
        *next = now + THREAD_SAMPLE_EVERY;
    }
}

/// A closed loop: `connections` connections, each on its own thread (the
/// caller's thread drives the first), keep `window` requests in flight.
#[derive(Debug, Clone, Copy)]
pub struct ClosedLoop {
    /// Client connections.
    pub connections: usize,
    /// Requests in flight per connection.
    pub window: usize,
    /// Attach a sampled trace context to every request.
    pub traced: bool,
}

/// Drive every request of `entries` through `addr` in a closed loop.
/// Request `i` goes out on connection `i % connections`.
pub fn closed_loop(
    addr: &str,
    entries: &[WorkloadEntry],
    cfg: &ClosedLoop,
) -> Result<Phase, String> {
    let connections = cfg.connections.max(1);
    let start = Instant::now();
    let peak = AtomicU64::new(procfs::threads());
    let drive = |c: usize| -> Result<(Vec<Exchange>, usize), String> {
        let mut stream = connect(addr)?;
        let mut mine = (c..entries.len()).step_by(connections);
        let mut pending: HashMap<u64, Inflight> = HashMap::new();
        let mut done = Vec::new();
        let mut sent = 0usize;
        let mut next_sample = start;
        loop {
            while pending.len() < cfg.window.max(1) {
                let Some(idx) = mine.next() else { break };
                send(&mut stream, &mut pending, (idx, &entries[idx]), cfg.traced)?;
                sent += 1;
            }
            if pending.is_empty() {
                return Ok((done, sent));
            }
            let frame = read_frame(&mut stream)
                .map_err(|e| format!("read from {addr}: {e}"))?
                .ok_or_else(|| format!("{addr} closed the connection"))?;
            done.extend(absorb(frame, &mut pending, None)?);
            sample_threads(&mut next_sample, &peak);
        }
    };
    let results: Vec<Result<(Vec<Exchange>, usize), String>> = std::thread::scope(|s| {
        let others: Vec<_> = (1..connections)
            .map(|c| s.spawn(move || drive(c)))
            .collect();
        let first = drive(0);
        std::iter::once(first)
            .chain(
                others
                    .into_iter()
                    .map(|h| h.join().expect("client connection thread panicked")),
            )
            .collect()
    });
    let mut phase = Phase::default();
    for r in results {
        let (exchanges, sent) = r?;
        phase.exchanges.extend(exchanges);
        phase.attempted += sent;
    }
    finish_phase(&mut phase, start, peak.load(Ordering::Relaxed));
    Ok(phase)
}

fn finish_phase(phase: &mut Phase, start: Instant, threads_peak: u64) {
    phase.exchanges.sort_by_key(|x| x.idx);
    let end = phase
        .exchanges
        .iter()
        .map(|x| x.done)
        .max()
        .unwrap_or(start);
    phase.wall_s = end.saturating_duration_since(start).as_secs_f64();
    phase.threads_peak = threads_peak;
}

/// Drive `entries` through `addr` in an open loop: request `i` is due
/// `schedule[i]` seconds after the phase starts. One sender thread writes
/// each request at its due time; this thread reads the replies. Latency
/// runs from the due time, so a stall that delays sending shows in every
/// request it delays.
pub fn open_loop(
    addr: &str,
    entries: &[WorkloadEntry],
    schedule: &[f64],
    traced: bool,
) -> Result<Phase, String> {
    assert!(
        schedule.len() <= entries.len(),
        "schedule longer than the stream"
    );
    let mut reader = connect(addr)?;
    reader
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| format!("read timeout on {addr}: {e}"))?;
    let mut writer = reader
        .try_clone()
        .map_err(|e| format!("clone {addr}: {e}"))?;
    let sent = AtomicUsize::new(0);
    let sender_done = AtomicBool::new(false);
    let abort = AtomicBool::new(false);
    let peak = AtomicU64::new(procfs::threads());
    let start = Instant::now();
    let due_of = |offset: f64| start + Duration::from_secs_f64(offset);

    let (lags, replies) = std::thread::scope(|s| {
        let sender = s.spawn(|| -> Result<Vec<f64>, String> {
            let mut lags = Vec::with_capacity(schedule.len());
            let result = (|| {
                for (idx, &offset) in schedule.iter().enumerate() {
                    if abort.load(Ordering::SeqCst) {
                        break;
                    }
                    let bytes = request_frame(idx, &entries[idx], traced).encode();
                    let due = due_of(offset);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    lags.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                    // Published before the write: the reply may beat the
                    // write call's return.
                    sent.store(idx + 1, Ordering::SeqCst);
                    writer
                        .write_all(&bytes)
                        .map_err(|e| format!("send to {addr}: {e}"))?;
                }
                Ok(())
            })();
            if result.is_err() {
                abort.store(true, Ordering::SeqCst);
            }
            sender_done.store(true, Ordering::SeqCst);
            result.map(|()| lags)
        });
        let replies = (|| -> Result<Vec<Exchange>, String> {
            let due = |id: u64| {
                let idx = usize::try_from(id).ok()?.checked_sub(1)?;
                (idx < sent.load(Ordering::SeqCst)).then(|| due_of(schedule[idx]))
            };
            let mut pending: HashMap<u64, Inflight> = HashMap::new();
            let mut done = Vec::with_capacity(schedule.len());
            let mut last_progress = Instant::now();
            let mut next_sample = start;
            loop {
                if abort.load(Ordering::SeqCst) {
                    return Err("the open-loop sender failed".to_string());
                }
                if sender_done.load(Ordering::SeqCst) && done.len() == sent.load(Ordering::SeqCst) {
                    return Ok(done);
                }
                sample_threads(&mut next_sample, &peak);
                match read_frame(&mut reader) {
                    Ok(Some(f)) => {
                        last_progress = Instant::now();
                        done.extend(absorb(f, &mut pending, Some(&due))?);
                    }
                    Ok(None) => return Err(format!("{addr} closed the connection")),
                    Err(e) if frame::is_idle_timeout(&e) => {
                        if last_progress.elapsed() > STALL_LIMIT {
                            return Err(format!("no reply from {addr} for {STALL_LIMIT:?}"));
                        }
                    }
                    Err(e) => return Err(format!("read from {addr}: {e}")),
                }
            }
        })();
        if replies.is_err() {
            abort.store(true, Ordering::SeqCst);
        }
        (sender.join().expect("open-loop sender panicked"), replies)
    });
    let lags_ms = lags?;
    let mut phase = Phase {
        exchanges: replies?,
        attempted: sent.load(Ordering::SeqCst),
        lags_ms,
        ..Phase::default()
    };
    finish_phase(&mut phase, start, peak.load(Ordering::Relaxed));
    Ok(phase)
}

/// Send request `idx` alone over `stream` and wait for its reply.
pub(crate) fn serial(
    stream: &mut TcpStream,
    entries: &[WorkloadEntry],
    idx: usize,
) -> Result<Exchange, String> {
    let mut pending = HashMap::new();
    send(stream, &mut pending, (idx, &entries[idx]), false)?;
    loop {
        let frame = read_frame(stream)
            .map_err(|e| format!("read reply to request {idx}: {e}"))?
            .ok_or("peer closed the connection")?;
        if let Some(x) = absorb(frame, &mut pending, None)? {
            return Ok(x);
        }
    }
}
