//! A deliberately tiny HTTP/1.1 server for metrics exposition.
//!
//! Serves `GET` requests only, one connection at a time, `Connection:
//! close` on every response — exactly what a Prometheus scraper or a
//! `curl` probe needs and nothing more. Requests are read with a short
//! socket timeout and an 8 KiB header cap, so a stalled or hostile peer
//! cannot pin the exposition thread for long. Routing is delegated to a
//! caller-supplied handler keyed on the request path (query string
//! included), which keeps this module free of any knowledge about what is
//! being exposed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum bytes of request head (request line + headers) we will buffer.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Per-connection socket timeout for both reads and writes.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// A response produced by the routing handler.
pub struct Response {
    /// HTTP status code (200, 404, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A 200 response with the given content type.
    pub fn ok(content_type: &'static str, body: String) -> Response {
        Response {
            status: 200,
            content_type,
            body,
        }
    }
}

/// Routing handler: maps a request path (with query string) to a response;
/// `None` becomes a 404.
pub type Handler = dyn Fn(&str) -> Option<Response> + Send + Sync;

/// A running exposition server; shuts down on drop.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `handler` on a
    /// background thread until shutdown or drop.
    pub fn serve<A: ToSocketAddrs>(addr: A, handler: Arc<Handler>) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("epfis-obs-http".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        serve_one(stream, handler.as_ref());
                    }
                }
            })?;
        Ok(HttpServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn shutdown(&mut self) {
        if self.handle.is_none() {
            return;
        }
        self.shutdown.store(true, Ordering::SeqCst);
        // Poke the listener so the blocking accept observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Answers the one request `stream` carries, then lets it close.
fn serve_one(mut stream: TcpStream, handler: &Handler) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let buf = read_request_head(&mut stream);
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let response = if method != "GET" {
        Response {
            status: 405,
            content_type: "text/plain; charset=utf-8",
            body: "method not allowed\n".to_string(),
        }
    } else {
        handler(path).unwrap_or(Response {
            status: 404,
            content_type: "text/plain; charset=utf-8",
            body: "not found\n".to_string(),
        })
    };
    let reason = match response.status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Response",
    };
    let head = format!(
        "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.content_type,
        response.body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(response.body.as_bytes());
    let _ = stream.flush();
}

/// Reads the request head until the end of the header block, the size cap,
/// EOF, or a timeout. `EINTR` is retried: a stray signal delivery is not a
/// peer hangup (a prior version of this loop treated any error as one and
/// served signal-interrupted scrapes a 405 from an empty request).
fn read_request_head<R: Read>(stream: &mut R) -> Vec<u8> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    while !contains_head_end(&buf) && buf.len() < MAX_REQUEST_BYTES {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    buf
}

fn contains_head_end(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let mut body = String::new();
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 && line.trim() != "" {
            line.clear(); // skip headers
        }
        reader.read_to_string(&mut body).unwrap();
        (status, body)
    }

    #[test]
    fn routes_get_requests_and_404s() {
        let mut server = HttpServer::serve(
            "127.0.0.1:0",
            Arc::new(|path: &str| {
                (path == "/hello")
                    .then(|| Response::ok("text/plain; charset=utf-8", "world\n".into()))
            }),
        )
        .unwrap();
        let (status, body) = get(server.addr(), "/hello");
        assert_eq!((status, body.as_str()), (200, "world\n"));
        let (status, _) = get(server.addr(), "/missing");
        assert_eq!(status, 404);
        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn interrupted_reads_are_retried_not_treated_as_hangup() {
        // A reader that fails with EINTR before every chunk, as a socket
        // read does when a signal lands mid-scrape.
        struct Interrupted<R> {
            inner: R,
            pending_interrupt: bool,
        }
        impl<R: Read> Read for Interrupted<R> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pending_interrupt {
                    self.pending_interrupt = false;
                    return Err(std::io::Error::from(std::io::ErrorKind::Interrupted));
                }
                self.pending_interrupt = true;
                self.inner.read(buf)
            }
        }
        let request = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
        let mut stream = Interrupted {
            inner: &request[..],
            pending_interrupt: true,
        };
        let head = read_request_head(&mut stream);
        assert_eq!(head, request, "EINTR must not truncate the request head");
    }

    #[test]
    fn rejects_non_get() {
        let server = HttpServer::serve(
            "127.0.0.1:0",
            Arc::new(|_: &str| Some(Response::ok("text/plain; charset=utf-8", "x".into()))),
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "POST / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        BufReader::new(stream).read_line(&mut response).unwrap();
        assert!(response.contains("405"), "{response}");
    }
}
