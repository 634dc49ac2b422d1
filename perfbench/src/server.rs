//! The `epfis serve` child process: spawn with deployment flags only, wait
//! for its banner, scrape `/metrics`, read its `/proc` counters, stop it.

use crate::wire::{TextConn, TextResponse, IO_TIMEOUT};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub metrics_addr: SocketAddr,
}

impl Server {
    /// Starts `bin serve` on loopback with its catalog and WAL under `dir`,
    /// and returns once both listeners are bound. The WAL runs at the
    /// server's default fsync policy.
    pub fn spawn(bin: &Path, dir: &Path) -> io::Result<Server> {
        std::fs::create_dir_all(dir)?;
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--metrics-addr", "127.0.0.1:0"])
            .arg("--catalog")
            .arg(dir.join("catalog.scat"))
            .arg("--wal-dir")
            .arg(dir.join("wal"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let banner =
            |stdout: &mut BufReader<ChildStdout>, prefix: &str| -> io::Result<SocketAddr> {
                let mut line = String::new();
                stdout.read_line(&mut line)?;
                line.trim()
                    .strip_prefix(prefix)
                    .and_then(|a| a.parse().ok())
                    .ok_or_else(|| io::Error::other(format!("unexpected banner {line:?}")))
            };
        let addrs = banner(&mut stdout, "listening on ")
            .and_then(|a| Ok((a, banner(&mut stdout, "metrics on ")?)));
        match addrs {
            Ok((addr, metrics_addr)) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
                metrics_addr,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `SHUTDOWN` and waits for the process to exit (killing it if it
    /// does not within the I/O timeout). Returns whether it exited cleanly.
    pub fn shutdown(mut self) -> bool {
        let asked = TextConn::connect(self.addr)
            .and_then(|mut c| c.request("SHUTDOWN"))
            .map(|r| r == TextResponse::Ok(vec!["bye".into()]))
            .unwrap_or(false);
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return asked && status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return false;
                }
            }
        }
    }

    /// Scrapes `/metrics` into `series -> value` (the series keeps its
    /// labels verbatim, e.g. `epfis_wal_bytes_total` or
    /// `epfis_server_phase_duration_us_sum{command="PAGE",phase="wal"}`).
    pub fn metrics(&self) -> io::Result<HashMap<String, f64>> {
        let mut s = TcpStream::connect_timeout(&self.metrics_addr, IO_TIMEOUT)?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")?;
        let mut text = String::new();
        s.read_to_string(&mut text)?;
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b)
            .ok_or_else(|| io::Error::other("malformed /metrics response"))?;
        Ok(body
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                Some((series.to_string(), value.parse().ok()?))
            })
            .collect())
    }

    /// CPU time (user + system) the server has used, in nanoseconds.
    pub fn cpu_ns(&self) -> io::Result<u64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line, in clock ticks.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| io::Error::other("malformed stat"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        // sysconf(_SC_CLK_TCK) is 100 on every Linux ABI this runs on.
        Ok((ticks(11) + ticks(12)) * 10_000_000)
    }

    /// Voluntary plus involuntary context switches summed over the server's
    /// live threads.
    pub fn ctx_switches(&self) -> io::Result<u64> {
        let mut total = 0;
        for task in std::fs::read_dir(format!("/proc/{}/task", self.pid()))? {
            let Ok(status) = std::fs::read_to_string(task?.path().join("status")) else {
                continue; // the thread exited while we listed
            };
            total += status
                .lines()
                .filter(|l| l.contains("ctxt_switches:"))
                .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                .sum::<u64>();
        }
        Ok(total)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached when the run bails out early: never leave a server behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
