//! The load generator: a keep-alive HTTP/1.1 client, a seeded arrival
//! schedule, and the open and closed loops that send it.
//!
//! Open loop: requests are due on a fixed schedule whether or not
//! earlier ones have finished, the way independent analysts arrive.
//! Each request is timed from when it was due, so a stall shows up in
//! the latency of every request queued behind it. Both loops keep one
//! keep-alive connection per thread; a due request goes out on the first
//! free connection.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// How long the client waits for a reply before counting the request as
/// failed. Failed requests are charged this as their latency.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Largest response body the client accepts.
const MAX_BODY: usize = 16 << 20;

/// SplitMix64: a small seeded generator, so one `--seed` pins every
/// input the benchmark derives.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so that independent
    /// inputs drawn from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// One parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Body bytes (exactly `Content-Length` of them).
    pub body: Vec<u8>,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
}

/// Read one response off a persistent connection: status line, headers,
/// then exactly `Content-Length` body bytes, leaving any pipelined
/// response after it unread in `reader`.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Reply> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = None;
    let mut keep_alive = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the headers"));
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad("bad Content-Length"))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = value.eq_ignore_ascii_case("keep-alive");
            }
        }
    }
    let length = length.ok_or_else(|| bad("response without Content-Length"))?;
    if length > MAX_BODY {
        return Err(bad("response body too large"));
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body)?;
    Ok(Reply {
        status,
        body,
        keep_alive,
    })
}

/// The exact bytes the client sends for `target`.
pub fn request_bytes(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\nConnection: keep-alive\r\n\r\n")
        .into_bytes()
}

/// A keep-alive HTTP/1.1 client on one connection. Each request goes
/// out in a single write with Nagle off, so any delay between request
/// and reply is the server's.
pub struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Client {
    /// A client for `addr`; it connects on first use.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    /// Send `GET target` and read the reply. An error drops the
    /// connection, so the next request starts on a fresh one.
    pub fn get(&mut self, target: &str) -> io::Result<Reply> {
        let result = self.exchange(target);
        match &result {
            Ok(reply) if reply.keep_alive => {}
            _ => self.conn = None,
        }
        result
    }

    fn exchange(&mut self, target: &str) -> io::Result<Reply> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, REQUEST_TIMEOUT)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some((stream, reader));
        }
        let (stream, reader) = self.conn.as_mut().expect("connected above");
        stream.write_all(&request_bytes(target))?;
        read_response(reader)
    }
}

/// One operation of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// When the operation is due, from the start of the phase.
    pub due: Duration,
    /// Index into the run's request targets.
    pub target: usize,
}

/// A seeded open-loop schedule over `duration`: `rate × duration`
/// arrivals placed uniformly at random (a Poisson process conditioned on
/// its count, so every run times the same number of requests), each on
/// a target `pick` draws; plus, given `periodic = (period, first)`, one
/// operation every `period` (the first half a period in) on targets
/// `first`, `first + 1`, ...
pub fn schedule(
    rng: &mut Rng,
    rate: f64,
    duration: Duration,
    mut pick: impl FnMut(&mut Rng) -> usize,
    periodic: Option<(Duration, usize)>,
) -> Vec<Op> {
    let count = (rate * duration.as_secs_f64()).round() as usize;
    let mut times: Vec<f64> = (0..count).map(|_| rng.unit()).collect();
    times.sort_by(f64::total_cmp);
    let mut ops: Vec<Op> = times
        .into_iter()
        .map(|t| Op {
            due: duration.mul_f64(t),
            target: pick(rng),
        })
        .collect();
    if let Some((period, first)) = periodic {
        let mut at = period / 2;
        let mut target = first;
        while at < duration {
            ops.push(Op { due: at, target });
            target += 1;
            at += period;
        }
    }
    ops.sort_by_key(|op| op.due);
    ops
}

/// What one request did.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the operation in the schedule (closed loop: send order).
    pub op: usize,
    /// Index into the run's request targets.
    pub target: usize,
    /// When it was due (closed loop: when it was sent).
    pub due: Instant,
    /// When the reply was complete (or the failure seen).
    pub done: Instant,
    /// How late the generator itself sent it: time past the due time,
    /// or past the moment a connection was free for it if that was
    /// later. Waiting for a free connection is the server's queue, not
    /// the generator's lateness.
    pub late: Duration,
    /// The reply, or the transport error's text.
    pub reply: Result<Reply, String>,
}

impl Sample {
    /// Latency from due time to completion, charging a failed request
    /// the client timeout.
    pub fn latency(&self) -> Duration {
        match &self.reply {
            Ok(r) if r.status == 200 => self.done - self.due,
            _ => REQUEST_TIMEOUT,
        }
    }
}

/// Run `ops` open-loop over `conns` keep-alive connections (one thread
/// each: the calling thread plus `conns − 1` spawned ones). Every
/// connection takes the next due operation as soon as it is free. With
/// a tracer, every even-numbered operation records its spans.
pub fn run_open(
    addr: SocketAddr,
    conns: usize,
    ops: &[Op],
    targets: &[String],
    tracer: Option<&Tracer>,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(ops.len()));
    let start = Instant::now() + Duration::from_millis(20);
    let lane = || {
        let mut client = Client::new(addr);
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(op) = ops.get(i) else { break };
            let free = Instant::now();
            let due = start + op.due;
            if due > free {
                std::thread::sleep(due - free);
            }
            let sent = Instant::now();
            let reply = client.get(&targets[op.target]).map_err(|e| e.to_string());
            let done = Instant::now();
            if let Some(t) = tracer.filter(|_| i.is_multiple_of(2)) {
                let root = t.record("http.request", i as u64, None, due, done);
                t.record("loadgen.queue", i as u64, Some(root), due, sent);
                t.record("http.exchange", i as u64, Some(root), sent, done);
            }
            mine.push(Sample {
                op: i,
                target: op.target,
                due,
                done,
                late: sent - due.max(free),
                reply,
            });
        }
        out.lock().expect("sample sink poisoned").extend(mine);
    };
    std::thread::scope(|s| {
        for _ in 1..conns {
            s.spawn(lane);
        }
        lane();
    });
    let mut samples = out.into_inner().expect("sample sink poisoned");
    samples.sort_by_key(|s| s.op);
    samples
}

/// Run a closed loop for `duration`: `conns` clients (one thread each)
/// send their next request as soon as the previous reply arrives.
/// `pick(lane, i)` chooses the target of a lane's `i`-th request.
/// Returns the samples and the wall time the loop actually ran.
pub fn run_closed(
    addr: SocketAddr,
    conns: usize,
    duration: Duration,
    targets: &[String],
    pick: &(dyn Fn(usize, usize) -> usize + Sync),
) -> (Vec<Sample>, Duration) {
    let out = Mutex::new(Vec::new());
    let start = Instant::now();
    let end = start + duration;
    let lane = |lane: usize| {
        let mut client = Client::new(addr);
        let mut mine = Vec::new();
        let mut i = 0;
        while Instant::now() < end {
            let target = pick(lane, i);
            let sent = Instant::now();
            let reply = client.get(&targets[target]).map_err(|e| e.to_string());
            mine.push(Sample {
                op: i,
                target,
                due: sent,
                done: Instant::now(),
                late: Duration::ZERO,
                reply,
            });
            i += 1;
        }
        out.lock().expect("sample sink poisoned").extend(mine);
    };
    std::thread::scope(|s| {
        for l in 1..conns {
            s.spawn(move || lane(l));
        }
        lane(0);
    });
    let elapsed = start.elapsed();
    (out.into_inner().expect("sample sink poisoned"), elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_responses_parse_one_at_a_time() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
Content-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}\
HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\nConnection: close\r\n\r\nnope";
        let mut reader = BufReader::new(&wire[..]);
        let first = read_response(&mut reader).unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.body, b"{\"ok\":true}");
        assert!(first.keep_alive);
        let second = read_response(&mut reader).unwrap();
        assert_eq!(second.status, 404);
        assert_eq!(second.body, b"nope");
        assert!(!second.keep_alive);
        assert!(read_response(&mut reader).is_err());
    }

    #[test]
    fn truncated_or_unframed_responses_are_errors() {
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_response(&mut BufReader::new(&short[..])).is_err());
        let unframed = b"HTTP/1.1 200 OK\r\n\r\nabc";
        assert!(read_response(&mut BufReader::new(&unframed[..])).is_err());
    }

    #[test]
    fn same_seed_same_schedule() {
        let make = |seed| {
            let mut rng = Rng::new(seed, 1);
            schedule(
                &mut rng,
                20.0,
                Duration::from_secs(5),
                |r| r.below(7),
                Some((Duration::from_secs(1), 100)),
            )
        };
        let a = make(42);
        assert_eq!(a, make(42));
        assert_ne!(a, make(43));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert_eq!(a.iter().filter(|op| op.target >= 100).count(), 5);
        // 20/s over 5 s.
        assert_eq!(a.len() - 5, 100);
    }
}
