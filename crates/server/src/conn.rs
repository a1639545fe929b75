//! Per-connection state for the evented TCP transport: ordered response
//! slots, the outbound wire buffer, and the per-request sink that pool
//! workers complete responses through.
//!
//! ## Pipelining in receipt order
//!
//! A client may write many requests on one connection without waiting
//! for responses. The shard assigns each parsed request a monotone
//! *sequence slot* on its connection; whenever a response completes (on
//! the shard thread for inline ops and shed errors, on a pool worker for
//! solves) it is committed into its slot, and only the *contiguous
//! completed prefix* of slots is promoted to the wire buffer. The socket
//! therefore carries responses in exactly the order their requests were
//! received, no matter how batching, caching, or the pool reorder
//! completion — which is what makes pipelined responses attributable
//! without client-side id bookkeeping (ids are still echoed).
//!
//! ## Who touches what
//!
//! The connection itself ([`Conn`]) is owned by exactly one shard thread
//! and never locked. Only the [`OutQueue`] is shared: pool workers
//! commit response bytes into it and schedule the connection on the
//! shard's ready list, then wake the shard's epoll via its
//! [`mio::Waker`]. All socket reads and writes happen on the shard.

use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Locks absorbing poison, same policy as the serve runtime.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// State one shard shares with pool workers completing its requests
/// (and with the acceptor handing it fresh connections).
pub(crate) struct ShardShared {
    /// Wakes the shard's epoll from any thread.
    pub waker: mio::Waker,
    /// Slab indices of connections with newly flushable bytes.
    pub ready: Mutex<Vec<usize>>,
    /// Freshly accepted connections awaiting registration.
    pub inbox: Mutex<Vec<TcpStream>>,
    /// Response slots allocated but not yet committed, shard-wide — the
    /// shard's in-flight depth, sampled into the
    /// `server.shard_queue_depth` histogram.
    pub depth: AtomicU64,
    /// Set after the server has drained: flush remaining bytes, close
    /// every connection, and exit the loop.
    pub finish: AtomicBool,
}

impl ShardShared {
    pub fn new(waker: mio::Waker) -> Self {
        ShardShared {
            waker,
            ready: Mutex::new(Vec::new()),
            inbox: Mutex::new(Vec::new()),
            depth: AtomicU64::new(0),
            finish: AtomicBool::new(false),
        }
    }

    /// Hands a fresh connection to the shard and wakes it.
    pub fn hand_off(&self, stream: TcpStream) {
        lock(&self.inbox).push(stream);
        let _ = self.waker.wake();
    }

    /// Tells the shard to flush out and exit, and wakes it.
    pub fn finish(&self) {
        self.finish.store(true, Ordering::Release);
        let _ = self.waker.wake();
    }
}

struct OutState {
    /// Sequence number of `slots[0]`.
    head_seq: u64,
    /// Next sequence to allocate.
    next_seq: u64,
    /// `None` = response still being computed; `Some` = completed bytes
    /// waiting for every earlier slot to complete.
    slots: VecDeque<Option<Vec<u8>>>,
    /// Bytes promoted from completed slots, partially written to the
    /// socket up to `wire_pos`.
    wire: Vec<u8>,
    wire_pos: usize,
    /// The connection is already on the shard's ready list.
    scheduled: bool,
    /// The socket died; commits are discarded from here on.
    dead: bool,
}

/// The shared outbound half of one connection.
pub(crate) struct OutQueue {
    /// This connection's slab index on its shard.
    conn: usize,
    shared: Arc<ShardShared>,
    state: Mutex<OutState>,
}

impl OutQueue {
    pub fn new(conn: usize, shared: Arc<ShardShared>) -> Self {
        OutQueue {
            conn,
            shared,
            state: Mutex::new(OutState {
                head_seq: 0,
                next_seq: 0,
                slots: VecDeque::new(),
                wire: Vec::new(),
                wire_pos: 0,
                scheduled: false,
                dead: false,
            }),
        }
    }

    /// Reserves the next in-order response slot.
    pub fn alloc(&self) -> u64 {
        let mut s = lock(&self.state);
        s.slots.push_back(None);
        let seq = s.next_seq;
        s.next_seq += 1;
        self.shared.depth.fetch_add(1, Ordering::Relaxed);
        seq
    }

    /// Completes slot `seq` with rendered response bytes; promotes the
    /// contiguous completed prefix to the wire and schedules the
    /// connection for flushing if that produced new flushable bytes.
    /// Called from any thread.
    pub fn commit(&self, seq: u64, bytes: Vec<u8>) {
        self.shared.depth.fetch_sub(1, Ordering::Relaxed);
        let mut s = lock(&self.state);
        if s.dead {
            return;
        }
        let idx = (seq - s.head_seq) as usize;
        s.slots[idx] = Some(bytes);
        let mut promoted = false;
        while let Some(Some(line)) = s.slots.pop_front_if(|slot| slot.is_some()) {
            s.wire.extend_from_slice(&line);
            s.head_seq += 1;
            promoted = true;
        }
        let flushable = s.wire.len() > s.wire_pos;
        if promoted && flushable && !s.scheduled {
            s.scheduled = true;
            drop(s);
            lock(&self.shared.ready).push(self.conn);
            let _ = self.shared.waker.wake();
        }
    }

    /// Marks the queue dead (socket gone); pending and future commits
    /// are discarded.
    pub fn kill(&self) {
        lock(&self.state).dead = true;
    }

    /// No outstanding slots and no unwritten wire bytes.
    pub fn is_idle(&self) -> bool {
        let s = lock(&self.state);
        s.slots.is_empty() && s.wire_pos >= s.wire.len()
    }

    /// Writes as much buffered wire as the socket accepts right now.
    /// Returns `Ok(true)` when backlog remains (caller should watch for
    /// writable readiness), `Ok(false)` when fully drained. The shard
    /// thread is the only caller.
    pub fn flush_into(&self, stream: &mut TcpStream) -> std::io::Result<bool> {
        let mut s = lock(&self.state);
        s.scheduled = false;
        loop {
            if s.wire_pos >= s.wire.len() {
                s.wire.clear();
                s.wire_pos = 0;
                return Ok(false);
            }
            match stream.write(&s.wire[s.wire_pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => s.wire_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// The per-request response sink: collects the rendered line and commits
/// it into the request's slot exactly once (on flush, or on drop as a
/// backstop so an abandoned sink can never wedge the pipeline).
pub(crate) struct SlotSink {
    out: Arc<OutQueue>,
    seq: u64,
    buf: Vec<u8>,
    committed: bool,
}

impl SlotSink {
    /// A sink for slot `seq`, boxed into the [`ResponseSink`] shape the
    /// serve runtime writes responses through.
    ///
    /// [`ResponseSink`]: crate::server::ResponseSink
    pub fn sink(out: &Arc<OutQueue>, seq: u64) -> crate::server::ResponseSink {
        Arc::new(Mutex::new(SlotSink {
            out: Arc::clone(out),
            seq,
            buf: Vec::new(),
            committed: false,
        }))
    }

    fn commit(&mut self) {
        if !self.committed {
            self.committed = true;
            self.out.commit(self.seq, std::mem::take(&mut self.buf));
        }
    }
}

impl Write for SlotSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.commit();
        Ok(())
    }
}

impl Drop for SlotSink {
    fn drop(&mut self) {
        self.commit();
    }
}

/// One live connection, owned by its shard thread.
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub out: Arc<OutQueue>,
    /// Unconsumed request bytes (at most one partial line after each
    /// read pass).
    pub read_buf: Vec<u8>,
    /// The peer half-closed (EOF seen); the connection lingers until its
    /// outstanding responses flush, then closes.
    pub read_closed: bool,
    /// The current epoll registration includes writable interest.
    pub want_write: bool,
    /// Server-wide monotone connection id, for trace events.
    pub id: u64,
}

/// A request line longer than this closes the connection: the framing is
/// JSON-lines and no legitimate request is remotely this large, so an
/// unbounded buffer would let one peer grow server memory without limit.
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> Arc<ShardShared> {
        let poll = mio::Poll::new().unwrap();
        let waker = mio::Waker::new(&poll, mio::Token(0)).unwrap();
        // The poll is dropped; the waker keeps its eventfd alive and
        // wake() simply signals nobody — fine for queue-only tests.
        std::mem::forget(poll);
        Arc::new(ShardShared::new(waker))
    }

    #[test]
    fn out_of_order_commits_flush_in_receipt_order() {
        let sh = shared();
        let q = Arc::new(OutQueue::new(3, Arc::clone(&sh)));
        let (a, b, c) = (q.alloc(), q.alloc(), q.alloc());
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(sh.depth.load(Ordering::Relaxed), 3);

        // Completing the *last* request first promotes nothing.
        q.commit(c, b"third\n".to_vec());
        assert!(lock(&sh.ready).is_empty());
        assert!(!q.is_idle());

        // Completing the head promotes the contiguous prefix (just it).
        q.commit(a, b"first\n".to_vec());
        assert_eq!(lock(&sh.ready).as_slice(), &[3]);

        // The middle one releases the rest.
        q.commit(b, b"second\n".to_vec());
        let s = lock(&q.state);
        assert_eq!(&s.wire[..], b"first\nsecond\nthird\n");
        assert!(s.slots.is_empty());
        assert_eq!(sh.depth.load(Ordering::Relaxed), 0);
        // Scheduled once: the second promotion found it already queued.
        drop(s);
        assert_eq!(lock(&sh.ready).len(), 1);
    }

    #[test]
    fn slot_sink_commits_once_and_drop_is_a_backstop() {
        let sh = shared();
        let q = Arc::new(OutQueue::new(0, Arc::clone(&sh)));
        let seq = q.alloc();
        let sink = SlotSink::sink(&q, seq);
        {
            let mut w = lock(&sink);
            writeln!(w, "hello").unwrap();
            w.flush().unwrap();
            w.flush().unwrap(); // second flush is a no-op
        }
        drop(sink); // drop after commit does not double-commit
        let s = lock(&q.state);
        assert_eq!(&s.wire[..], b"hello\n");
        drop(s);

        // An abandoned (never flushed) sink still frees its slot — an
        // empty commit that adds no wire bytes.
        let seq2 = q.alloc();
        drop(SlotSink::sink(&q, seq2));
        let s = lock(&q.state);
        assert!(s.slots.is_empty(), "abandoned slot must not wedge");
        assert_eq!(&s.wire[..], b"hello\n");
        drop(s);
        assert_eq!(sh.depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn dead_queues_discard_commits() {
        let sh = shared();
        let q = Arc::new(OutQueue::new(0, Arc::clone(&sh)));
        let seq = q.alloc();
        q.kill();
        q.commit(seq, b"too late\n".to_vec());
        let s = lock(&q.state);
        assert!(s.wire.is_empty());
        assert_eq!(sh.depth.load(Ordering::Relaxed), 0);
    }
}
