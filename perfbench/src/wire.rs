//! Loopback connections to `epfis serve`: binary framing v2 and the text
//! line protocol. Requests are written pre-encoded, so the load process
//! spends as little CPU per request as it can.

use epfis_server::framing::{self, BinResponse};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Every blocking read gives up after this long: a hung server becomes a
/// counted failure, not a hung benchmark.
pub const IO_TIMEOUT: Duration = Duration::from_secs(20);

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

fn protocol_error(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A connection upgraded with `HELLO BINARY`.
pub struct BinConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    body: Vec<u8>,
}

impl BinConn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let writer = connect(addr)?;
        let mut reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        (&writer).write_all(format!("{}\n", framing::HELLO_BINARY).as_bytes())?;
        let mut line = String::new();
        for expect in ["OK 1", framing::HELLO_ACK] {
            line.clear();
            reader.read_line(&mut line)?;
            if line.trim_end() != expect {
                return Err(protocol_error(format!("HELLO BINARY answered {line:?}")));
            }
        }
        Ok(BinConn {
            writer,
            reader,
            body: Vec::new(),
        })
    }

    /// Writes already-encoded frames.
    pub fn send(&mut self, frames: &[u8]) -> io::Result<()> {
        self.writer.write_all(frames)
    }

    /// Reads one response frame body into an internal buffer.
    pub fn recv_raw(&mut self) -> io::Result<&[u8]> {
        let mut len = [0u8; 4];
        self.reader.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if len > 64 << 20 {
            return Err(protocol_error(format!("response frame of {len} bytes")));
        }
        self.body.resize(len, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(&self.body)
    }

    pub fn recv(&mut self) -> io::Result<BinResponse> {
        let body = self.recv_raw()?;
        framing::decode_response(body).map_err(protocol_error)
    }
}

/// A text-protocol connection with a hand-rolled response parser, so it can
/// read with short timeouts (open-loop) without losing partial lines.
pub struct TextConn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Start of unparsed bytes in `buf`.
    at: usize,
}

/// One parsed text response: its status line plus data lines.
#[derive(Debug, Clone, PartialEq)]
pub enum TextResponse {
    Ok(Vec<String>),
    Err(String),
    Busy(String),
}

impl TextConn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Ok(TextConn {
            stream: connect(addr)?,
            buf: Vec::with_capacity(1 << 16),
            at: 0,
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// A second handle for writing, so one thread can send while another
    /// reads answers through this connection.
    pub fn split(self) -> io::Result<(TcpStream, TextConn)> {
        Ok((self.stream.try_clone()?, self))
    }

    /// Parses one complete response from the buffered bytes, if present.
    pub fn try_parse(&mut self) -> io::Result<Option<TextResponse>> {
        let pending = &self.buf[self.at..];
        let Some(nl) = pending.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&pending[..nl])
            .map_err(|_| protocol_error("non-UTF-8 response"))?
            .trim_end_matches('\r')
            .to_string();
        if let Some(msg) = head.strip_prefix("ERR ") {
            self.at += nl + 1;
            return Ok(Some(TextResponse::Err(msg.to_string())));
        }
        if let Some(msg) = head.strip_prefix("SERVER_BUSY") {
            self.at += nl + 1;
            return Ok(Some(TextResponse::Busy(msg.trim().to_string())));
        }
        let n: usize = head
            .strip_prefix("OK ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| protocol_error(format!("bad status line {head:?}")))?;
        let mut lines = Vec::with_capacity(n);
        let mut off = nl + 1;
        for _ in 0..n {
            let Some(end) = pending[off..].iter().position(|&b| b == b'\n') else {
                return Ok(None);
            };
            let line = std::str::from_utf8(&pending[off..off + end])
                .map_err(|_| protocol_error("non-UTF-8 response"))?;
            lines.push(line.trim_end_matches('\r').to_string());
            off += end + 1;
        }
        self.at += off;
        Ok(Some(TextResponse::Ok(lines)))
    }

    /// Reads more bytes, waiting at most `wait`. Returns false on a timeout.
    pub fn fill(&mut self, wait: Duration) -> io::Result<bool> {
        if self.at > 0 && self.at == self.buf.len() {
            self.buf.clear();
            self.at = 0;
        } else if self.at > (1 << 20) {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.stream
            .set_read_timeout(Some(wait.max(Duration::from_micros(1))))?;
        let old = self.buf.len();
        self.buf.resize(old + (1 << 16), 0);
        let got = self.stream.read(&mut self.buf[old..]);
        match got {
            Ok(0) => {
                self.buf.truncate(old);
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed",
                ))
            }
            Ok(n) => {
                self.buf.truncate(old + n);
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                self.buf.truncate(old);
                Ok(false)
            }
            Err(e) => {
                self.buf.truncate(old);
                Err(e)
            }
        }
    }

    /// Blocking request/response round trip.
    pub fn request(&mut self, line: &str) -> io::Result<TextResponse> {
        self.send(format!("{line}\n").as_bytes())?;
        loop {
            if let Some(resp) = self.try_parse()? {
                return Ok(resp);
            }
            if !self.fill(IO_TIMEOUT)? {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no response"));
            }
        }
    }
}
