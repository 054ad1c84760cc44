//! Load generators for the TCP workloads: an open-loop connection generator
//! (seeded schedule, timed from the due instant) and a closed-loop
//! pipelined generator (fixed requests in flight, timed from the send).

use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use boosthd::Prediction;
use boosthd_serve::wire::{read_frame, Client, ErrorCode, Reply, DEFAULT_MAX_FRAME_BYTES};

use crate::report::{IO, MISMATCH, MISSING};
use crate::trace::{now_ns, ns_at};

/// How long a client waits for one reply before counting it missing.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// How long past the timed phase a generator keeps sending late events.
pub const GRACE: Duration = Duration::from_secs(5);

/// One scheduled operation of an open-loop connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A predict request for pool row `row`, routed to fleet model rank
    /// `model` when given.
    Read {
        /// Request pool row.
        row: usize,
        /// Fleet model rank (`None`: the server's default model).
        model: Option<usize>,
    },
    /// Publish a new version of fleet model rank `model`.
    Publish {
        /// Fleet model rank.
        model: usize,
    },
}

/// A verified reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOk {
    /// Predicted class.
    pub class: usize,
    /// Fleet version that served it.
    pub version: Option<u64>,
}

/// One predict request as the client saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRec {
    /// Correlation id.
    pub id: u64,
    /// Request pool row.
    pub row: usize,
    /// Fleet model rank, when routed.
    pub model: Option<usize>,
    /// Latency origin: the due instant (open loop) or the send (closed).
    pub origin_ns: u64,
    /// Send instant.
    pub send_ns: u64,
    /// Reply instant, when one arrived.
    pub recv_ns: Option<u64>,
    /// The verified reply or the failure cause.
    pub result: Result<ReadOk, &'static str>,
}

/// One publish (append then refresh).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishRec {
    /// Fleet model rank.
    pub model: usize,
    /// Start instant.
    pub start_ns: u64,
    /// `ModelStore::append` time.
    pub append_ns: u64,
    /// `Fleet::refresh` time.
    pub refresh_ns: u64,
    /// Whether both calls succeeded.
    pub ok: bool,
}

/// Everything one connection generator observed.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Predict requests.
    pub reads: Vec<ReadRec>,
    /// Publishes.
    pub publishes: Vec<PublishRec>,
    /// Generator lateness: send minus due, for events whose due instant
    /// found the connection free.
    pub lateness_ns: Vec<u64>,
    /// Events whose due instant found the connection still busy (their
    /// wait is server backlog, counted in latency, not in lateness).
    pub backlogged: u64,
}

/// Checks one reply against the in-process reference.
pub trait Checker: Sync {
    /// Verifies `reply` to request `id` for pool `row` routed to `model`.
    fn check(
        &self,
        id: u64,
        row: usize,
        model: Option<usize>,
        reply: &Reply,
    ) -> Result<ReadOk, &'static str>;
}

/// Runs one publish and reports `(append_ns, refresh_ns)`.
pub trait Publisher: Sync {
    /// Publishes a new version of fleet model rank `model`.
    ///
    /// # Errors
    ///
    /// The store or registry error, as text.
    fn publish(&self, model: usize) -> Result<(u64, u64), String>;
}

/// Runs one publish and records it.
pub fn timed_publish(publisher: &dyn Publisher, model: usize) -> PublishRec {
    let start_ns = now_ns();
    let (append_ns, refresh_ns, ok) = match publisher.publish(model) {
        Ok((append, refresh)) => (append, refresh, true),
        Err(_) => (0, 0, false),
    };
    PublishRec {
        model,
        start_ns,
        append_ns,
        refresh_ns,
        ok,
    }
}

/// Class, confidence and abstention must be bit-identical to `reference`;
/// the echoed id and (for routed requests) model name must match.
pub fn compare<'r>(
    id: u64,
    reply: &Reply,
    expect_model: Option<&str>,
    reference: impl FnOnce(Option<u64>) -> Option<&'r Prediction>,
) -> Result<ReadOk, &'static str> {
    match reply {
        Reply::Predict {
            id: rid,
            class,
            confidence,
            abstained,
            model,
            version,
            ..
        } => {
            let Some(want) = reference(*version) else {
                return Err(MISMATCH);
            };
            let same = *rid == id
                && *class == want.class
                && confidence.to_bits() == want.confidence.to_bits()
                && *abstained == want.abstained
                && model.as_deref() == expect_model;
            if same {
                Ok(ReadOk {
                    class: *class,
                    version: *version,
                })
            } else {
                Err(MISMATCH)
            }
        }
        Reply::Error { code, .. } => Err(code
            .as_deref()
            .and_then(ErrorCode::from_tag)
            .unwrap_or(ErrorCode::Internal)
            .tag()),
        _ => Err(MISMATCH),
    }
}

/// Connects with `TCP_NODELAY` and a reply timeout.
///
/// # Errors
///
/// Connection failures.
pub fn connect(addr: &str) -> std::io::Result<Client> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok(Client::from_stream(stream))
}

fn send_read(
    client: &mut Client,
    id: u64,
    raw: &[f32],
    model: Option<&str>,
) -> Result<Reply, &'static str> {
    let sent = match model {
        Some(m) => client.send_predict_model(id, m, raw),
        None => client.send_predict(id, raw),
    };
    sent.map_err(|_| IO)?;
    match client.recv() {
        Ok(Some(reply)) => Ok(reply),
        Ok(None) => Err(MISSING),
        Err(_) => Err(MISSING),
    }
}

/// Sends `count` untimed requests round-robin over the pool so that
/// connections, the pool and caches are warm before timing starts.
///
/// # Errors
///
/// Any request that does not return a prediction.
pub fn warm_up(addr: &str, raw: &[Vec<f32>], names: &[String], count: usize) -> Result<(), String> {
    let mut client = connect(addr).map_err(|e| format!("warm-up connect: {e}"))?;
    for k in 0..count {
        let model = (!names.is_empty()).then(|| names[k % names.len()].as_str());
        match send_read(&mut client, k as u64, &raw[k % raw.len()], model) {
            Ok(Reply::Predict { .. }) => {}
            other => return Err(format!("warm-up request {k} failed: {other:?}")),
        }
    }
    Ok(())
}

/// Drives one connection through `events` (due instants in seconds from
/// `t0`). A request whose connection is still busy at its due instant is
/// sent as soon as the previous reply lands. Events still unsent `GRACE`
/// after `horizon` count as missing.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: &str,
    events: &[(f64, Event)],
    id_base: u64,
    t0: Instant,
    horizon: Duration,
    raw: &[Vec<f32>],
    names: &[String],
    checker: &dyn Checker,
    publisher: Option<&dyn Publisher>,
) -> ConnLog {
    let mut log = ConnLog::default();
    let t0_ns = ns_at(t0);
    let cutoff = t0 + horizon + GRACE;
    let mut client = connect(addr).ok();
    let mut free_ns = t0_ns;
    for (k, &(due_s, event)) in events.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(due_s);
        let due_ns = t0_ns + (due_s * 1e9) as u64;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let late = Instant::now() > cutoff;
        let send_ns = now_ns();
        if free_ns <= due_ns {
            log.lateness_ns.push(send_ns.saturating_sub(due_ns));
        } else {
            log.backlogged += 1;
        }
        match event {
            Event::Read { row, model } => {
                let id = id_base + k as u64;
                let name = model.map(|m| names[m].as_str());
                let result = match (&mut client, late) {
                    (Some(c), false) => send_read(c, id, &raw[row], name)
                        .and_then(|reply| checker.check(id, row, model, &reply)),
                    _ => Err(MISSING),
                };
                let recv_ns = match result {
                    Err(MISSING) | Err(IO) => None,
                    _ => Some(now_ns()),
                };
                if result == Err(MISSING) || result == Err(IO) {
                    // A dead connection stays dead; later reads are missing.
                    client = None;
                }
                free_ns = recv_ns.unwrap_or_else(now_ns);
                log.reads.push(ReadRec {
                    id,
                    row,
                    model,
                    origin_ns: due_ns,
                    send_ns,
                    recv_ns,
                    result,
                });
            }
            Event::Publish { model } => {
                let rec = match (publisher, late) {
                    (Some(p), false) => timed_publish(p, model),
                    _ => PublishRec {
                        model,
                        start_ns: send_ns,
                        append_ns: 0,
                        refresh_ns: 0,
                        ok: false,
                    },
                };
                free_ns = now_ns();
                log.publishes.push(rec);
            }
        }
    }
    log
}

/// Keeps `window` requests in flight on one connection for `horizon`: a
/// sender (the calling thread) and a reader thread. Latency is timed from
/// the send. Replies still outstanding `REPLY_TIMEOUT` after the last
/// send count as missing.
pub fn closed_loop(
    addr: &str,
    window: usize,
    horizon: Duration,
    raw: &[Vec<f32>],
    next_row: impl Fn(u64) -> usize,
    checker: &dyn Checker,
) -> Result<ConnLog, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    read_half
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut client = Client::from_stream(stream);
    let mut reader = BufReader::new(read_half);
    let in_flight = (Mutex::new(0usize), Condvar::new());
    let (tx, rx) = mpsc::channel::<(u64, usize, u64)>();
    let deadline = Instant::now() + horizon;

    let reads = std::thread::scope(|scope| {
        let in_flight = &in_flight;
        let reader_thread = scope.spawn(move || {
            let mut reads = Vec::new();
            let mut pending: HashMap<u64, (usize, u64)> = HashMap::new();
            let mut open = true;
            loop {
                if pending.is_empty() {
                    match rx.recv() {
                        Ok((id, row, send)) => {
                            pending.insert(id, (row, send));
                        }
                        Err(_) => break,
                    }
                }
                while let Ok((id, row, send)) = rx.try_recv() {
                    pending.insert(id, (row, send));
                }
                let frame = if open {
                    read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES)
                } else {
                    Ok(None)
                };
                let reply = match frame {
                    Ok(Some(f)) => Reply::parse(&f).ok(),
                    _ => None,
                };
                let recv_ns = now_ns();
                let Some(reply) = reply else {
                    // Closed, timed out, or unparseable: everything still
                    // pending (and anything sent later) is missing.
                    open = false;
                    for (id, (row, send)) in pending.drain() {
                        reads.push(missing(id, row, send));
                    }
                    *in_flight.0.lock().expect("in-flight lock") = 0;
                    in_flight.1.notify_all();
                    continue;
                };
                let id = match &reply {
                    Reply::Predict { id, .. } => Some(*id),
                    Reply::Error { id, .. } => *id,
                    _ => None,
                };
                let Some(id) = id else { continue };
                if !pending.contains_key(&id) {
                    // The sender records before it writes, so the entry
                    // is at most one channel hop away.
                    while let Ok((pid, row, send)) = rx.recv() {
                        pending.insert(pid, (row, send));
                        if pid == id {
                            break;
                        }
                    }
                }
                let Some((row, send)) = pending.remove(&id) else {
                    continue;
                };
                reads.push(ReadRec {
                    id,
                    row,
                    model: None,
                    origin_ns: send,
                    send_ns: send,
                    recv_ns: Some(recv_ns),
                    result: checker.check(id, row, None, &reply),
                });
                let mut n = in_flight.0.lock().expect("in-flight lock");
                *n = n.saturating_sub(1);
                in_flight.1.notify_one();
            }
            reads
        });

        let mut id = 0u64;
        while Instant::now() < deadline {
            {
                let mut n = in_flight.0.lock().expect("in-flight lock");
                while *n >= window && Instant::now() < deadline {
                    n = in_flight
                        .1
                        .wait_timeout(n, Duration::from_millis(50))
                        .expect("in-flight lock")
                        .0;
                }
                if Instant::now() >= deadline {
                    break;
                }
                *n += 1;
            }
            id += 1;
            let row = next_row(id);
            if tx.send((id, row, now_ns())).is_err() || client.send_predict(id, &raw[row]).is_err()
            {
                break;
            }
        }
        drop(tx);
        reader_thread.join().expect("reader thread panicked")
    });
    Ok(ConnLog {
        reads,
        ..ConnLog::default()
    })
}

fn missing(id: u64, row: usize, send: u64) -> ReadRec {
    ReadRec {
        id,
        row,
        model: None,
        origin_ns: send,
        send_ns: send,
        recv_ns: None,
        result: Err(MISSING),
    }
}
