//! `epfis-net`: a readiness-driven connection core for the EPFIS server.
//!
//! `epfis serve` runs its connections on a few event-loop threads
//! ("reactors") instead of one thread per connection, so idle peers cost a
//! slot and a buffer rather than a thread, and a peer that stops *reading*
//! cannot pin anything. This crate provides the pieces:
//!
//! * [`io`] — shared classification of `read(2)`/`write(2)` results
//!   ([`ReadStep`]): `EINTR` is a retry, `EAGAIN`/timeouts are "no data yet",
//!   and only genuine errors or EOF tear a connection down. The driver
//!   (and the obs HTTP server) route their syscall results through this one
//!   table so a stray signal can never be mistaken for a peer close.
//!   Also hosts [`io::raise_nofile_limit`], used by tests and the load
//!   generator to lift `RLIMIT_NOFILE` before opening 10k+ sockets.
//! * [`poller`] — a thin wrapper over `epoll(7)` with a portable `poll(2)`
//!   fallback ([`Poller`]). Level-triggered, `usize` tokens, no allocation
//!   per wait beyond the reused event buffer.
//! * [`driver`] — a single-threaded connection [`Driver`] multiplexing any
//!   number of nonblocking TCP connections over a [`Session`] state machine:
//!   bytes in, response bytes out, with write backpressure (a connection
//!   with a deep unflushed backlog is not read from until it drains),
//!   deferred-work continuation, periodic ticks for idle deadlines, and a
//!   bounded-grace shutdown flush. Connections reach a driver through its
//!   [`Inbox`], filled by whichever thread accepts them.
//!
//! The crate is std-only: the epoll/poll bindings are local `extern "C"`
//! declarations against the libc that std already links.

pub mod driver;
pub mod io;
pub mod poller;

pub use driver::{Control, Driver, DriverConfig, Inbox, Session, SessionFactory};
pub use io::ReadStep;
pub use poller::{Event, Interest, Poller, Token};
