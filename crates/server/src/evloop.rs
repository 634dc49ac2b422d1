//! The reactors: `--workers N` event-loop threads that serve every
//! connection.
//!
//! The accept thread (in [`crate::server`]) admits each connection and
//! hands it to the reactor with the fewest live connections ([`Placement`])
//! through that reactor's [`Inbox`]. A reactor runs one
//! [`epfis_net::Driver`] over the connections it owns; this module is the
//! thin adapter between that driver and the transport-agnostic protocol
//! engine ([`Conn`]): [`EvFactory`] does connection-lifecycle accounting and
//! [`EvConn`] forwards driver callbacks into the engine. Reactors share
//! nothing but [`Shared`] — the `Arc` catalog snapshot plus atomics — so
//! the reactor count changes no answer, only which thread computes it.

use crate::server::{finish_connection, Shared};
use crate::session::{Conn, Step};
use epfis_net::{Control, Driver, DriverConfig, Inbox, Session, SessionFactory};
use epfis_obs::Level;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often idle deadlines, write stalls and the shutdown flag are
/// checked.
const TICK: Duration = Duration::from_millis(50);

/// Live connections per reactor. Only the accept thread places, so picking
/// the minimum and counting the new connection there cannot race with
/// another placement; reactors release concurrently.
pub(crate) struct Placement {
    live: Vec<AtomicUsize>,
}

impl Placement {
    pub(crate) fn new(reactors: usize) -> Placement {
        Placement {
            live: (0..reactors).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Connections admitted and not yet closed, over all reactors.
    pub(crate) fn total(&self) -> usize {
        self.live.iter().map(|n| n.load(Ordering::SeqCst)).sum()
    }

    /// Picks the reactor with the fewest live connections (ties go to the
    /// lowest index) and counts a new connection there.
    pub(crate) fn place(&self) -> usize {
        let (idx, _) = self
            .live
            .iter()
            .map(|n| n.load(Ordering::SeqCst))
            .enumerate()
            .min_by_key(|&(i, n)| (n, i))
            .expect("at least one reactor");
        self.live[idx].fetch_add(1, Ordering::SeqCst);
        idx
    }

    /// A connection on `reactor` closed.
    pub(crate) fn release(&self, reactor: usize) {
        self.live[reactor].fetch_sub(1, Ordering::SeqCst);
    }
}

fn control(step: Step) -> Control {
    match step {
        Step::Continue => Control::Continue,
        Step::Close => Control::Close,
    }
}

/// One connection: the shared protocol engine plus the handles the driver
/// callbacks need.
struct EvConn {
    conn: Conn,
    shared: Arc<Shared>,
    peer: String,
    /// When the connection first ticked with output it could not write (or
    /// work deferred behind that output) and no write progress since. The
    /// engine's idle clock deliberately ignores a backlogged connection, so
    /// without this a peer that stops reading mid-response would hold its
    /// slot forever.
    stalled_since: Option<Instant>,
}

impl Session for EvConn {
    fn on_bytes(&mut self, data: &[u8], out: &mut Vec<u8>) -> Control {
        control(self.conn.on_bytes(&self.shared, data, out))
    }

    fn on_writable(&mut self, out: &mut Vec<u8>) -> Control {
        if self.conn.has_deferred_work() {
            control(self.conn.resume(&self.shared, out))
        } else if self.conn.is_closed() {
            Control::Close
        } else {
            Control::Continue
        }
    }

    fn on_tick(&mut self, out: &mut Vec<u8>) -> Control {
        if self.conn.is_closed() {
            return Control::Close;
        }
        // Between ticks the driver flushes until the socket blocks, so
        // bytes still in `out` here are bytes the peer is not reading.
        if self.conn.has_deferred_work() || !out.is_empty() {
            let patience = self.shared.limits.write_patience();
            match self.stalled_since {
                None => self.stalled_since = Some(Instant::now()),
                Some(since) if since.elapsed() >= patience => {
                    self.shared
                        .logger
                        .event(Level::Warn, "server", "write_stall")
                        .field("peer", self.peer.as_str())
                        .field("pending_bytes", out.len() as u64)
                        .field("deadline_s", patience.as_secs_f64())
                        .emit();
                    // A stalled connection with an open ANALYZE session is
                    // counted by finish_connection instead.
                    if !self.conn.has_open_session() {
                        self.shared.metrics.session_disconnected();
                    }
                    // Nothing more will be read; drop the backlog so the
                    // driver closes now instead of after its close grace.
                    out.clear();
                    return Control::Close;
                }
                Some(_) => {}
            }
            return Control::Continue;
        }
        self.stalled_since = None;
        control(self.conn.check_idle(&self.shared, out))
    }

    fn on_flushed(&mut self, n: usize, elapsed: Duration) {
        self.stalled_since = None;
        self.shared.metrics.add_bytes_out(n as u64);
        // Flush attribution covers the whole written batch
        // (command="ALL", phase="flush"): one write serves every pipelined
        // response in it, so per-request flush time is not meaningful.
        self.shared.metrics.record_flush(elapsed.as_micros() as u64);
    }
}

/// Connection lifecycle for one reactor: the counters and events of an
/// admitted connection, and its [`Placement`] slot.
struct EvFactory {
    shared: Arc<Shared>,
    reactor: usize,
}

impl SessionFactory for EvFactory {
    type Session = EvConn;

    fn open(&mut self, stream: &TcpStream) -> EvConn {
        let shared = &self.shared;
        shared.metrics.connection_opened();
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_default();
        shared
            .logger
            .event(Level::Debug, "server", "connection_opened")
            .field("peer", peer.as_str())
            .emit();
        // Responses are small and latency-sensitive (text) or batched into
        // one write per pipeline drain (binary); Nagle buys nothing either
        // way.
        let _ = stream.set_nodelay(true);
        EvConn {
            conn: Conn::new(),
            shared: Arc::clone(shared),
            peer,
            stalled_since: None,
        }
    }

    fn closed(&mut self, mut session: EvConn) {
        let shared = &self.shared;
        finish_connection(shared, session.conn.take_session());
        shared.metrics.connection_closed();
        shared
            .logger
            .event(Level::Debug, "server", "connection_closed")
            .field("peer", session.peer.as_str())
            .emit();
        shared.placement.release(self.reactor);
    }

    fn should_stop(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

/// Body of reactor thread `reactor`: serves what arrives in `inbox` until
/// shutdown.
pub(crate) fn run(shared: Arc<Shared>, reactor: usize, inbox: Arc<Inbox>) {
    let factory = EvFactory {
        shared: Arc::clone(&shared),
        reactor,
    };
    let config = DriverConfig {
        tick: TICK,
        ..DriverConfig::default()
    };
    if let Err(e) = Driver::run(inbox, factory, config) {
        shared
            .logger
            .event(Level::Error, "server", "reactor_failed")
            .field("reactor", reactor as u64)
            .field("error", e.to_string())
            .emit();
    }
}

#[cfg(test)]
mod tests {
    use super::Placement;

    #[test]
    fn placement_picks_the_least_loaded_reactor_lowest_index_first() {
        let p = Placement::new(3);
        // All empty: ties go to the lowest index, then fill evenly.
        assert_eq!(p.place(), 0);
        assert_eq!(p.place(), 1);
        assert_eq!(p.place(), 2);
        assert_eq!(p.place(), 0);
        assert_eq!(p.total(), 4);
        // A closed connection frees its reactor's count: reactor 1 is now
        // the only one with a single connection.
        p.release(1);
        assert_eq!(p.total(), 3);
        assert_eq!(p.place(), 1);
        // Emptying reactor 2 makes it the strict minimum.
        p.release(2);
        assert_eq!(p.place(), 2);
        assert_eq!(p.total(), 4);
    }
}
