//! A single-threaded, readiness-driven connection driver.
//!
//! [`Driver::run`] multiplexes any number of nonblocking TCP connections
//! over a [`Poller`]. Connections arrive through an [`Inbox`] that another
//! thread (typically a blocking accept loop) fills; several drivers, each on
//! its own thread with its own inbox, share one listener that way. All
//! protocol behavior lives in the caller's [`Session`] state machine (bytes
//! in → response bytes out); the driver owns only transport mechanics:
//!
//! * **hand-off** — [`Inbox::push`] queues a stream and writes one byte to a
//!   socket pair whose read end the driver polls; the driver then takes the
//!   whole queue and asks the [`SessionFactory`] for a session per stream.
//! * **read** — until a short read, `EWOULDBLOCK` or the backpressure
//!   watermark, with `EINTR` retried, feeding [`Session::on_bytes`]. The
//!   poller is level-triggered, so a short read needs no confirming
//!   `EWOULDBLOCK` read: unread bytes report readiness again. Reading *stops*
//!   while a connection's unflushed output backlog exceeds the watermark,
//!   and the connection then waits only for writability, so a peer that
//!   pipelines requests without reading responses stalls only itself.
//! * **write** — nonblocking with partial-write accounting; when the socket
//!   would block, write interest is registered and the backlog kept. A
//!   session that closed is removed the moment its backlog drains, or at a
//!   bounded grace deadline if the peer never drains it.
//! * **tick** — [`Session::on_tick`] fires on every slot at a fixed cadence
//!   for idle and write-stall deadlines.
//!
//! The driver never blocks on any one peer; a non-reading client costs one
//! slot and (bounded) buffer, not a thread.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::io::ReadStep;
use crate::poller::{Event, Interest, Poller, Token};

/// What a session wants the driver to do with the connection afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep serving.
    Continue,
    /// Flush whatever is buffered, then close the connection.
    Close,
}

/// A per-connection protocol state machine.
///
/// Implementations must never block: they receive bytes, append response
/// bytes to `out`, and return whether the connection should stay open.
pub trait Session {
    /// `data` arrived from the peer. Append any responses to `out`.
    fn on_bytes(&mut self, data: &[u8], out: &mut Vec<u8>) -> Control;

    /// The output backlog drained below the watermark; resume any work the
    /// session deferred to bound `out` growth. Must be a no-op (and return
    /// [`Control::Continue`]) when there is nothing deferred.
    fn on_writable(&mut self, out: &mut Vec<u8>) -> Control {
        let _ = out;
        Control::Continue
    }

    /// Periodic tick (idle deadlines, etc.).
    fn on_tick(&mut self, out: &mut Vec<u8>) -> Control {
        let _ = out;
        Control::Continue
    }

    /// One flush wrote `n > 0` bytes to the socket in `elapsed` (for byte
    /// accounting and flush timing). Any progress counts: a flush that
    /// ends blocked reports what it managed to write.
    fn on_flushed(&mut self, n: usize, elapsed: Duration) {
        let _ = (n, elapsed);
    }
}

/// Creates sessions for handed-over connections and sees them end.
pub trait SessionFactory {
    type Session: Session;

    /// A connection arrived through the inbox; create its session. The
    /// stream is still in blocking mode here; the driver switches it to
    /// nonblocking afterwards.
    fn open(&mut self, stream: &TcpStream) -> Self::Session;

    /// A connection ended (any cause). Always called exactly once per
    /// opened session.
    fn closed(&mut self, session: Self::Session);

    /// Checked every loop iteration; `true` stops the driver after a final
    /// flush pass.
    fn should_stop(&self) -> bool;
}

/// Tuning knobs for [`Driver::run`].
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Cadence of [`Session::on_tick`] and of the `should_stop` check while
    /// idle.
    pub tick: Duration,
    /// Size of the shared read buffer (one `read(2)` max).
    pub read_chunk: usize,
    /// Stop reading from a connection while its unflushed output reaches
    /// this many bytes.
    pub write_backlog_watermark: usize,
    /// How long a closing connection may take to drain its final bytes
    /// before being dropped with output pending.
    pub close_grace: Duration,
    /// Force the portable `poll(2)` backend instead of epoll.
    pub force_poll_backend: bool,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            tick: Duration::from_millis(50),
            read_chunk: 64 * 1024,
            write_backlog_watermark: 256 * 1024,
            close_grace: Duration::from_secs(5),
            force_poll_backend: false,
        }
    }
}

struct Slot<S> {
    stream: TcpStream,
    session: S,
    /// Response bytes not yet written (every flush drops the written
    /// prefix).
    out: Vec<u8>,
    interest: Interest,
    closing: bool,
    close_deadline: Option<Instant>,
}

enum FlushStep {
    Drained,
    Blocked,
    Failed,
}

/// Connections waiting for one [`Driver`], pushed from any thread.
///
/// A `Mutex<Vec<TcpStream>>` plus a socket pair: [`Inbox::push`] appends
/// under the lock and writes a byte to one end; the driver polls the other
/// end, drains the bytes, and takes the queue. The lock guards one `push`
/// or one `take` at a time, each leaving the queue valid, so a poisoned
/// lock is recovered rather than propagated.
pub struct Inbox {
    queue: Mutex<Vec<TcpStream>>,
    wake_tx: UnixStream,
    wake_rx: UnixStream,
}

impl Inbox {
    /// An empty inbox with its wake-up socket pair.
    pub fn new() -> io::Result<Inbox> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(Inbox {
            queue: Mutex::new(Vec::new()),
            wake_tx,
            wake_rx,
        })
    }

    /// Queues `stream` for the driver and wakes it.
    pub fn push(&self, stream: TcpStream) {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(stream);
        self.wake();
    }

    /// Wakes the driver without handing it anything, so it rechecks
    /// [`SessionFactory::should_stop`] now rather than at its next tick.
    pub fn wake(&self) {
        // A full pipe means a wake-up is already pending.
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Drains the wake-up bytes, then takes the queue. Draining first means
    /// a push racing with this call is either taken now or wakes the
    /// driver again.
    fn take(&self) -> Vec<TcpStream> {
        let mut sink = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        std::mem::take(&mut *self.queue.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

const INBOX_TOKEN: Token = Token(0);

/// The event loop. See the module docs for the contract.
pub struct Driver<F: SessionFactory> {
    poller: Poller,
    inbox: Arc<Inbox>,
    factory: F,
    config: DriverConfig,
    slots: Vec<Option<Slot<F::Session>>>,
    free: Vec<usize>,
    read_buf: Vec<u8>,
}

impl<F: SessionFactory> Driver<F> {
    /// Run the loop over the connections pushed into `inbox` until
    /// [`SessionFactory::should_stop`] reports true. Connections still
    /// queued then are dropped unserved. Returns the factory for final
    /// accounting.
    pub fn run(inbox: Arc<Inbox>, factory: F, config: DriverConfig) -> io::Result<F> {
        let mut poller = if config.force_poll_backend {
            Poller::with_poll_backend()?
        } else {
            Poller::new()?
        };
        poller.register(inbox.wake_rx.as_raw_fd(), INBOX_TOKEN, Interest::READABLE)?;
        let mut driver = Driver {
            poller,
            inbox,
            factory,
            config,
            slots: Vec::new(),
            free: Vec::new(),
            read_buf: vec![0u8; config.read_chunk.max(1)],
        };
        driver.serve()?;
        driver.shutdown_flush();
        Ok(driver.factory)
    }

    fn serve(&mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        let mut next_tick = Instant::now() + self.config.tick;
        loop {
            if self.factory.should_stop() {
                return Ok(());
            }
            let timeout = next_tick.saturating_duration_since(Instant::now());
            self.poller.wait(&mut events, Some(timeout))?;
            // `events` is only mutated by `wait`, which runs strictly before
            // the dispatch below; taking it avoids aliasing `self`.
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                if ev.token == INBOX_TOKEN {
                    for stream in self.inbox.take() {
                        self.open(stream);
                    }
                } else {
                    let idx = ev.token.0 - 1;
                    if self.slots.get(idx).is_some_and(Option::is_some) {
                        if ev.readable {
                            self.handle_readable(idx);
                        }
                        if ev.writable && self.slots[idx].is_some() {
                            self.pump(idx);
                        }
                    }
                }
            }
            events = batch;
            let now = Instant::now();
            if now >= next_tick {
                self.tick_all(now);
                next_tick = now + self.config.tick;
            }
        }
    }

    fn open(&mut self, stream: TcpStream) {
        let session = self.factory.open(&stream);
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        let interest = Interest::READABLE;
        if stream.set_nonblocking(true).is_err()
            || self
                .poller
                .register(stream.as_raw_fd(), Token(idx + 1), interest)
                .is_err()
        {
            self.free.push(idx);
            self.factory.closed(session);
            return;
        }
        self.slots[idx] = Some(Slot {
            stream,
            session,
            out: Vec::new(),
            interest,
            closing: false,
            close_deadline: None,
        });
    }

    fn handle_readable(&mut self, idx: usize) {
        loop {
            let slot = self.slots[idx].as_mut().expect("live slot");
            if slot.closing {
                break;
            }
            if slot.out.len() >= self.config.write_backlog_watermark {
                // Backpressure: don't read more until the backlog drains.
                break;
            }
            match ReadStep::classify(slot.stream.read(&mut self.read_buf)) {
                ReadStep::Data(n) => {
                    if slot.session.on_bytes(&self.read_buf[..n], &mut slot.out) == Control::Close {
                        self.begin_close(idx);
                        break;
                    }
                    if n < self.read_buf.len() {
                        // Short read: the socket is drained for now.
                        break;
                    }
                }
                ReadStep::Retry => continue,
                ReadStep::Idle => break,
                ReadStep::Eof | ReadStep::Fatal(_) => {
                    // Best-effort final flush, then drop: with the read side
                    // gone there is nothing left to serve.
                    let _ = self.try_flush(idx);
                    self.remove(idx);
                    return;
                }
            }
        }
        self.pump(idx);
    }

    /// Flush; on drain give the session a chance to resume deferred work,
    /// and repeat while it produces output. Removes the slot on write
    /// failure or on a drained `closing` connection.
    fn pump(&mut self, idx: usize) {
        loop {
            match self.try_flush(idx) {
                FlushStep::Failed => {
                    self.remove(idx);
                    return;
                }
                FlushStep::Blocked => {
                    // Past the watermark nothing is read until the backlog
                    // drains, so only writability is worth a wake-up.
                    let slot = self.slots[idx].as_ref().expect("live slot");
                    let interest = if slot.out.len() >= self.config.write_backlog_watermark {
                        Interest::WRITABLE
                    } else {
                        Interest::BOTH
                    };
                    self.set_interest(idx, interest);
                    return;
                }
                FlushStep::Drained => {
                    let slot = self.slots[idx].as_mut().expect("live slot");
                    if slot.closing {
                        self.remove(idx);
                        return;
                    }
                    if slot.interest != Interest::READABLE {
                        self.set_interest(idx, Interest::READABLE);
                    }
                    let slot = self.slots[idx].as_mut().expect("live slot");
                    let before = slot.out.len();
                    let control = slot.session.on_writable(&mut slot.out);
                    let produced = slot.out.len() > before;
                    if control == Control::Close {
                        self.begin_close(idx);
                        if !produced {
                            // Nothing left to drain; close now.
                            self.remove(idx);
                            return;
                        }
                        continue;
                    }
                    if !produced {
                        return;
                    }
                }
            }
        }
    }

    fn try_flush(&mut self, idx: usize) -> FlushStep {
        let slot = self.slots[idx].as_mut().expect("live slot");
        if slot.out.is_empty() {
            return FlushStep::Drained;
        }
        let start = Instant::now();
        let mut written = 0;
        let step = loop {
            if written == slot.out.len() {
                break FlushStep::Drained;
            }
            match slot.stream.write(&slot.out[written..]) {
                Ok(0) => break FlushStep::Failed,
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break FlushStep::Blocked,
                Err(_) => break FlushStep::Failed,
            }
        };
        if written > 0 {
            slot.session.on_flushed(written, start.elapsed());
        }
        slot.out.drain(..written);
        step
    }

    fn begin_close(&mut self, idx: usize) {
        let grace = self.config.close_grace;
        let slot = self.slots[idx].as_mut().expect("live slot");
        if !slot.closing {
            slot.closing = true;
            slot.close_deadline = Some(Instant::now() + grace);
        }
    }

    fn set_interest(&mut self, idx: usize, interest: Interest) {
        let slot = self.slots[idx].as_mut().expect("live slot");
        if slot.interest == interest {
            return;
        }
        let fd = slot.stream.as_raw_fd();
        slot.interest = interest;
        let _ = self.poller.modify(fd, Token(idx + 1), interest);
    }

    fn tick_all(&mut self, now: Instant) {
        for idx in 0..self.slots.len() {
            let Some(slot) = self.slots[idx].as_mut() else {
                continue;
            };
            if slot.closing {
                if slot.close_deadline.is_some_and(|d| now >= d) {
                    // The peer never drained our final bytes within the
                    // grace period: reclaim the slot anyway.
                    self.remove(idx);
                }
                continue;
            }
            if slot.session.on_tick(&mut slot.out) == Control::Close {
                self.begin_close(idx);
            }
            self.pump(idx);
        }
    }

    fn remove(&mut self, idx: usize) {
        let slot = self.slots[idx].take().expect("live slot");
        let _ = self.poller.deregister(slot.stream.as_raw_fd());
        self.factory.closed(slot.session);
        self.free.push(idx);
    }

    /// One best-effort nonblocking flush for every live connection, then
    /// close them all.
    fn shutdown_flush(&mut self) {
        for idx in 0..self.slots.len() {
            if self.slots[idx].is_some() {
                let _ = self.try_flush(idx);
                self.remove(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write as IoWrite};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// Line-echo session: `QUIT` asks for a close, anything else echoes.
    struct Echo {
        pending: Vec<u8>,
    }

    impl Session for Echo {
        fn on_bytes(&mut self, data: &[u8], out: &mut Vec<u8>) -> Control {
            self.pending.extend_from_slice(data);
            while let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.pending.drain(..=pos).collect();
                if &line[..] == b"QUIT\n" {
                    out.extend_from_slice(b"bye\n");
                    return Control::Close;
                }
                out.extend_from_slice(b"echo ");
                out.extend_from_slice(&line);
            }
            Control::Continue
        }
    }

    struct EchoFactory {
        stop: Arc<AtomicBool>,
        closed: Arc<AtomicUsize>,
    }

    impl SessionFactory for EchoFactory {
        type Session = Echo;
        fn open(&mut self, _stream: &TcpStream) -> Echo {
            Echo {
                pending: Vec::new(),
            }
        }
        fn closed(&mut self, _session: Echo) {
            self.closed.fetch_add(1, Ordering::SeqCst);
        }
        fn should_stop(&self) -> bool {
            self.stop.load(Ordering::SeqCst)
        }
    }

    /// A running echo driver; the test accepts connections itself and
    /// hands them over through the inbox.
    struct EchoServer {
        listener: TcpListener,
        inbox: Arc<Inbox>,
        stop: Arc<AtomicBool>,
        closed: Arc<AtomicUsize>,
        driver: std::thread::JoinHandle<()>,
    }

    impl EchoServer {
        fn start(force_poll: bool) -> EchoServer {
            let inbox = Arc::new(Inbox::new().expect("inbox"));
            let stop = Arc::new(AtomicBool::new(false));
            let closed = Arc::new(AtomicUsize::new(0));
            let factory = EchoFactory {
                stop: Arc::clone(&stop),
                closed: Arc::clone(&closed),
            };
            let config = DriverConfig {
                tick: Duration::from_millis(10),
                force_poll_backend: force_poll,
                ..DriverConfig::default()
            };
            let driver_inbox = Arc::clone(&inbox);
            let driver = std::thread::spawn(move || {
                Driver::run(driver_inbox, factory, config).expect("driver");
            });
            EchoServer {
                listener: TcpListener::bind("127.0.0.1:0").expect("bind"),
                inbox,
                stop,
                closed,
                driver,
            }
        }

        /// Connects a client and pushes the server end into the inbox.
        fn connect(&self) -> TcpStream {
            let addr = self.listener.local_addr().expect("addr");
            let client = TcpStream::connect(addr).expect("connect");
            let (server_end, _) = self.listener.accept().expect("accept");
            self.inbox.push(server_end);
            client
        }

        /// Stops the driver (the wake-up reaches it at once) and returns
        /// how many sessions it reported closed.
        fn stop(self) -> usize {
            self.stop.store(true, Ordering::SeqCst);
            self.inbox.wake();
            self.driver.join().expect("driver thread");
            self.closed.load(Ordering::SeqCst)
        }
    }

    fn echo_roundtrip(force_poll: bool) {
        let server = EchoServer::start(force_poll);
        let mut conns = Vec::new();
        for i in 0..8 {
            let stream = server.connect();
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut stream = stream;
            writeln!(stream, "hello {i}").expect("write");
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            assert_eq!(line, format!("echo hello {i}\n"));
            conns.push((stream, reader));
        }
        // Flush-then-close on QUIT.
        let (ref mut s0, ref mut r0) = conns[0];
        s0.write_all(b"QUIT\n").expect("write quit");
        let mut line = String::new();
        r0.read_line(&mut line).expect("read bye");
        assert_eq!(line, "bye\n");
        assert_eq!(r0.read_line(&mut line).expect("eof"), 0, "closed after bye");

        assert!(server.stop() >= 8, "all sessions reported closed");
    }

    #[test]
    fn echo_roundtrip_native_backend() {
        echo_roundtrip(false);
    }

    #[test]
    fn echo_roundtrip_poll_backend() {
        echo_roundtrip(true);
    }

    /// A peer that stops reading must not wedge the loop: other clients
    /// stay served, and the stalled connection is reclaimed at the close
    /// grace deadline once its session asks to close.
    #[test]
    fn non_reading_peer_does_not_block_others() {
        let server = EchoServer::start(false);
        let mut staller = server.connect();
        // Push enough request bytes that the echoed responses overflow the
        // socket buffers of a peer that never reads.
        staller.set_nonblocking(true).expect("nonblocking");
        let chunk = [b'a'; 1023];
        let mut burst = Vec::new();
        for _ in 0..4096 {
            burst.extend_from_slice(&chunk);
            burst.push(b'\n');
        }
        let mut sent = 0;
        while sent < burst.len() {
            match staller.write(&burst[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("write: {e}"),
            }
        }
        // While the staller's backlog sits unflushed, a well-behaved client
        // must be served promptly.
        let well_behaved = server.connect();
        well_behaved
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut reader = BufReader::new(well_behaved.try_clone().expect("clone"));
        let mut w = well_behaved;
        w.write_all(b"ping\n").expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert_eq!(line, "echo ping\n");
        server.stop();
    }
}
