//! The benchmark's TCP client: one thread multiplexing at most two
//! connections over one epoll instance.
//!
//! Every connection sets `TCP_NODELAY` and hands each batch of queued
//! request lines to the socket in one buffered write. A client that
//! writes a request in pieces without `TCP_NODELAY` waits ~40 ms per
//! call on Nagle's algorithm meeting the peer's delayed ACK, and then
//! measures that stall instead of the server.
//!
//! The server answers each connection in receipt order, so responses
//! are matched to requests first-in first-out per connection.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A request waiting for its response.
struct Pending {
    seq: u64,
    sched: Instant,
    sent: Option<Instant>,
}

/// One answered request.
pub struct Response {
    /// Connection index the request went out on.
    pub conn: usize,
    /// The caller's sequence number for the request.
    pub seq: u64,
    /// When the request was due: its slot in an open-loop schedule, or
    /// the moment a closed loop queued it.
    pub sched: Instant,
    /// When its bytes were handed to the socket.
    pub sent: Instant,
    /// When the response line was framed.
    pub recv: Instant,
    /// The response line without its newline.
    pub line: String,
}

impl Response {
    /// Latency from the due time, in µs (open-loop latency: a stalled
    /// generator charges its stall to the requests it delayed).
    pub fn latency_us(&self) -> f64 {
        (self.recv - self.sched).as_secs_f64() * 1e6
    }

    /// Round trip from the actual send, in µs.
    pub fn rtt_us(&self) -> f64 {
        (self.recv - self.sent).as_secs_f64() * 1e6
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    /// Bytes of `inbuf` already searched for a newline.
    scanned: usize,
    pending: VecDeque<Pending>,
    want_write: bool,
}

/// An evented client over a fixed set of connections.
pub struct Client {
    poll: mio::Poll,
    events: mio::Events,
    conns: Vec<Conn>,
    readbuf: Vec<u8>,
}

fn broken(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionAborted, msg)
}

impl Client {
    /// Opens `n` connections to `addr`.
    pub fn connect(addr: SocketAddr, n: usize) -> io::Result<Client> {
        let poll = mio::Poll::new()?;
        let mut conns = Vec::with_capacity(n);
        for c in 0..n {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            poll.register(&stream, mio::Token(c), mio::Interest::READABLE)?;
            conns.push(Conn {
                stream,
                out: Vec::new(),
                out_pos: 0,
                inbuf: Vec::new(),
                scanned: 0,
                pending: VecDeque::new(),
                want_write: false,
            });
        }
        Ok(Client {
            poll,
            events: mio::Events::with_capacity(64),
            conns,
            readbuf: vec![0u8; 256 * 1024],
        })
    }

    /// Requests sent or queued on `conn` and not yet answered.
    pub fn in_flight(&self, conn: usize) -> usize {
        self.conns[conn].pending.len()
    }

    /// Requests not yet answered on any connection.
    pub fn total_in_flight(&self) -> usize {
        self.conns.iter().map(|c| c.pending.len()).sum()
    }

    /// Queues one request line on `conn`; [`Client::flush`] sends it.
    pub fn queue(&mut self, conn: usize, seq: u64, line: &str, sched: Instant) {
        let c = &mut self.conns[conn];
        c.out.extend_from_slice(line.as_bytes());
        c.out.push(b'\n');
        c.pending.push_back(Pending {
            seq,
            sched,
            sent: None,
        });
    }

    /// Writes every connection's queued bytes, one write call per
    /// connection unless the socket buffer fills.
    pub fn flush(&mut self) -> io::Result<()> {
        for i in 0..self.conns.len() {
            self.flush_conn(i)?;
        }
        Ok(())
    }

    fn flush_conn(&mut self, i: usize) -> io::Result<()> {
        let c = &mut self.conns[i];
        if c.out_pos < c.out.len() {
            let now = Instant::now();
            for p in c.pending.iter_mut().rev() {
                if p.sent.is_some() {
                    break;
                }
                p.sent = Some(now);
            }
        }
        while c.out_pos < c.out.len() {
            match c.stream.write(&c.out[c.out_pos..]) {
                Ok(0) => return Err(broken("server closed the connection".into())),
                Ok(n) => c.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if c.out_pos == c.out.len() {
            c.out.clear();
            c.out_pos = 0;
        }
        let backlog = !c.out.is_empty();
        if backlog != c.want_write {
            let interest = if backlog {
                mio::Interest::READABLE | mio::Interest::WRITABLE
            } else {
                mio::Interest::READABLE
            };
            self.poll.reregister(&c.stream, mio::Token(i), interest)?;
            c.want_write = backlog;
        }
        Ok(())
    }

    /// Waits for readiness until `until` at the latest and appends every
    /// completed response to `out`. The last millisecond before `until`
    /// is spun rather than slept, because epoll's timeout has
    /// millisecond resolution and an open-loop generator must not
    /// oversleep its next slot.
    pub fn poll(&mut self, until: Instant, out: &mut Vec<Response>) -> io::Result<()> {
        let wait = until.saturating_duration_since(Instant::now());
        let wait = if wait >= Duration::from_millis(1) {
            Duration::from_millis(wait.as_millis() as u64)
        } else {
            Duration::ZERO
        };
        self.poll.poll(&mut self.events, Some(wait))?;
        let ready: Vec<(usize, bool, bool)> = self
            .events
            .iter()
            .map(|e| {
                (
                    e.token().0,
                    e.is_readable() || e.is_read_closed(),
                    e.is_writable(),
                )
            })
            .collect();
        for (i, readable, writable) in ready {
            if readable {
                self.read_conn(i, out)?;
            }
            if writable {
                self.flush_conn(i)?;
            }
        }
        Ok(())
    }

    fn read_conn(&mut self, i: usize, out: &mut Vec<Response>) -> io::Result<()> {
        let c = &mut self.conns[i];
        let mut eof = false;
        loop {
            match c.stream.read(&mut self.readbuf) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => c.inbuf.extend_from_slice(&self.readbuf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let recv = Instant::now();
        let mut start = 0;
        while let Some(pos) = c.inbuf[c.scanned..].iter().position(|&b| b == b'\n') {
            let end = c.scanned + pos;
            let line = String::from_utf8_lossy(&c.inbuf[start..end]).into_owned();
            start = end + 1;
            c.scanned = start;
            let p = c
                .pending
                .pop_front()
                .ok_or_else(|| broken(format!("unsolicited response: {line}")))?;
            out.push(Response {
                conn: i,
                seq: p.seq,
                sched: p.sched,
                sent: p.sent.unwrap_or(p.sched),
                recv,
                line,
            });
        }
        c.inbuf.drain(..start);
        c.scanned = c.inbuf.len();
        if eof && !c.pending.is_empty() {
            return Err(broken(format!(
                "server closed connection {i} with {} requests unanswered",
                c.pending.len()
            )));
        }
        Ok(())
    }

    /// Sends one request on an otherwise idle client and waits for its
    /// response: the path for control ops (`stats`, `profile`).
    pub fn rpc(&mut self, conn: usize, seq: u64, line: &str) -> io::Result<Response> {
        if self.total_in_flight() > 0 {
            return Err(broken("rpc on a client with requests in flight".into()));
        }
        let now = Instant::now();
        self.queue(conn, seq, line, now);
        self.flush()?;
        let deadline = now + Duration::from_secs(60);
        let mut got = Vec::new();
        while got.is_empty() {
            if Instant::now() >= deadline {
                return Err(broken(format!("no response to {line} within 60 s")));
            }
            self.poll(Instant::now() + Duration::from_millis(100), &mut got)?;
        }
        Ok(got.remove(0))
    }

    /// Polls until every in-flight request is answered or `limit`
    /// passes, appending responses to `out`.
    pub fn drain(&mut self, limit: Duration, out: &mut Vec<Response>) -> io::Result<()> {
        let deadline = Instant::now() + limit;
        while self.total_in_flight() > 0 {
            if Instant::now() >= deadline {
                return Err(broken(format!(
                    "{} requests unanswered after {limit:?}",
                    self.total_in_flight()
                )));
            }
            self.poll(Instant::now() + Duration::from_millis(50), out)?;
        }
        Ok(())
    }
}

/// A deterministic stream of random numbers (SplitMix64). Each
/// `(seed, stream)` pair is its own key space: a workload derives one
/// per run and per phase, so a phase never asks a question an earlier
/// phase already put in the server's cache.
pub struct Rng(u64);

impl Rng {
    /// The stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::Fixture;
    use crate::stats;

    #[test]
    fn sequential_pings_do_not_stall() {
        let fx = Fixture::start(Vec::new(), domatic_server::ServerConfig::default()).unwrap();
        let mut client = Client::connect(fx.addr(), 1).unwrap();
        let mut lat = Vec::new();
        for id in 1..=200u64 {
            let r = client
                .rpc(0, id, &format!("{{\"id\":{id},\"op\":\"ping\"}}"))
                .unwrap();
            assert_eq!(
                r.line,
                format!("{{\"id\":{id},\"ok\":true,\"result\":{{\"pong\":true}}}}")
            );
            lat.push(r.rtt_us());
        }
        let p50 = stats::quantile(stats::sort(&mut lat), 0.5).unwrap();
        assert!(p50 < 1000.0, "ping p50 {p50} µs: the client is stalling");
        drop(client);
        fx.stop().unwrap();
    }

    #[test]
    fn key_spaces_differ_per_stream_and_repeat_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut s1 = Rng::new(7, 1);
        let mut s2 = Rng::new(7, 2);
        let x: Vec<u64> = (0..8).map(|_| s1.next_u64()).collect();
        let y: Vec<u64> = (0..8).map(|_| s2.next_u64()).collect();
        assert!(x.iter().all(|v| !y.contains(v)));
    }
}
