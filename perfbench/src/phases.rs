//! The timed phases, driven over loopback. Each phase records every answer
//! it receives; the answers are checked against the in-process expectations
//! only after the timed window, so checking costs no measured time.

use crate::inputs::{show_suffix, Inputs, OpenReq, Scan};
use crate::trace::Tracer;
use crate::wire::{BinConn, TextConn, TextResponse};
use epfis_server::framing::{self, BinResponse};
use std::io::{self, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// PAGE frames in flight per ingest connection.
const PAGE_WINDOW: usize = 16;
/// ESTIMATE frames per pipelined batch on each closed-loop connection.
const ESTIMATE_WINDOW: usize = 32;
/// Closed-loop connections (one thread each); at most `nproc` on 2 cores.
pub const CLOSED_CONNECTIONS: usize = 2;
/// Open-loop arrival rate, the same in every workload.
pub const OPEN_RATE_PER_S: f64 = 5000.0;

/// Attempted and failed operations, with the first few failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// A failure outside any counted operation (a lost connection).
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

/// One ANALYZE session as the client saw it.
pub struct Session {
    pub scan: usize,
    pub refs: u64,
    /// BEGIN sent to COMMIT acknowledged.
    pub elapsed: Duration,
    pub commit: Duration,
    pub begin_answer: BinResponse,
    pub page_answers: Vec<BinResponse>,
    pub commit_answer: BinResponse,
}

/// Streams one scan as BEGIN, pipelined PAGE frames, COMMIT.
pub fn stream_session(
    conn: &mut BinConn,
    scans: &[Scan],
    index: usize,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<Session> {
    let scan = &scans[index];
    let start = Instant::now();
    let root = tracer
        .as_deref_mut()
        .map(|t| t.open("client.analyze", None));
    conn.send(&scan.begin)?;
    let begin_answer = conn.recv()?;
    let mut page_answers = Vec::with_capacity(scan.frame_ends.len());
    let mut sent = 0usize;
    let mut from = 0usize;
    for &end in &scan.frame_ends {
        conn.send(&scan.frames[from..end])?;
        from = end;
        sent += 1;
        if sent - page_answers.len() > PAGE_WINDOW {
            page_answers.push(conn.recv()?);
        }
    }
    while page_answers.len() < sent {
        page_answers.push(conn.recv()?);
    }
    let commit_start = Instant::now();
    let commit_span = tracer.as_deref_mut().map(|t| t.open("client.commit", root));
    let mut frame = Vec::new();
    framing::encode_tag_only(&mut frame, framing::REQ_ANALYZE_COMMIT);
    conn.send(&frame)?;
    let commit_answer = conn.recv()?;
    let end = Instant::now();
    if let Some(t) = tracer {
        t.close(commit_span.expect("opened"));
        t.close(root.expect("opened"));
    }
    Ok(Session {
        scan: index,
        refs: scan.refs,
        elapsed: end - start,
        commit: end - commit_start,
        begin_answer,
        page_answers,
        commit_answer,
    })
}

/// Checks a session's recorded answers against the in-process commit.
pub fn check_session(s: &Session, scans: &[Scan], tally: &mut Tally) {
    let scan = &scans[s.scan];
    tally.check(matches!(s.begin_answer, BinResponse::Lines(_)), || {
        format!("{}: BEGIN answered {:?}", scan.name, s.begin_answer)
    });
    let mut total = 0u64;
    for (i, answer) in s.page_answers.iter().enumerate() {
        let end = scan.frame_ends[i];
        let start = if i == 0 { 0 } else { scan.frame_ends[i - 1] };
        total += ((end - start - 9) / framing::PAGE_RECORD_BYTES) as u64;
        tally.check(*answer == BinResponse::U64(total), || {
            format!(
                "{}: PAGE {i} answered {answer:?}, expected {total}",
                scan.name
            )
        });
    }
    let want = show_suffix(&scan.expected);
    let ok = match &s.commit_answer {
        BinResponse::Lines(l) => {
            l.len() == 1
                && l[0].starts_with(&format!("committed {} epoch=", scan.name))
                && l[0].ends_with(&format!(" {want}"))
        }
        _ => false,
    };
    tally.check(ok, || {
        format!(
            "{}: COMMIT answered {:?}, expected {want}",
            scan.name, s.commit_answer
        )
    });
}

/// Streams scans back to back, cycling through `scans` from the first. It
/// stops at the first whole cycle ended past `deadline` (so every run
/// ingests the same mix of scans), or after the session in progress once
/// `stop` is set. At least one session runs.
pub fn ingest_loop(
    addr: SocketAddr,
    scans: &[Scan],
    deadline: Instant,
    stop: Option<&AtomicBool>,
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> Vec<Session> {
    let mut sessions = Vec::new();
    let mut conn = match BinConn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.fail(format!("ingest connect: {e}"));
            return sessions;
        }
    };
    let mut next = 0;
    loop {
        match stream_session(&mut conn, scans, next % scans.len(), tracer.as_deref_mut()) {
            Ok(s) => sessions.push(s),
            Err(e) => {
                tally.fail(format!(
                    "ingest session {}: {e}",
                    scans[next % scans.len()].name
                ));
                break;
            }
        }
        next += 1;
        let cycle_done = next % scans.len() == 0;
        if stop.is_some_and(|s| s.load(Ordering::Acquire))
            || (cycle_done && Instant::now() >= deadline)
        {
            break;
        }
    }
    sessions
}

/// Samples of server-side counters around a phase.
#[derive(Clone, Copy, Default)]
pub struct ProcSample {
    pub cpu_ns: u64,
    pub ctx: u64,
}

pub struct ClosedRun {
    pub completed: u64,
    pub elapsed: Duration,
    /// Per connection: index of its first query and the answers' f64 bits.
    pub answers: Vec<(usize, Vec<u64>)>,
    /// When each pipelined batch completed, in ns from the phase start.
    pub batch_ends_ns: Vec<u64>,
    /// Server counters at the start and the end, both taken with every
    /// connection open.
    pub proc_before: ProcSample,
    pub proc_after: ProcSample,
}

/// Closed-loop binary ESTIMATEs: `CLOSED_CONNECTIONS` connections, each
/// sending a pipelined batch and waiting for all of its answers.
pub fn closed_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    duration: Duration,
    sample: &(dyn Fn() -> ProcSample + Sync),
    traced: bool,
    tally: &mut Tally,
) -> (ClosedRun, Vec<Tracer>) {
    let n = inputs.queries.len();
    let ready = Barrier::new(CLOSED_CONNECTIONS + 1);
    let done = Barrier::new(CLOSED_CONNECTIONS + 1);
    let release = Barrier::new(CLOSED_CONNECTIONS + 1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLOSED_CONNECTIONS)
            .map(|c| {
                let (ready, done, release) = (&ready, &done, &release);
                scope.spawn(move || {
                    let first = c * n / CLOSED_CONNECTIONS;
                    let mut answers = Vec::with_capacity(1 << 22);
                    let mut batch_ends = Vec::with_capacity(1 << 17);
                    let mut tracer = Tracer::new();
                    let conn = BinConn::connect(addr);
                    ready.wait();
                    let mut err = None;
                    let start = Instant::now();
                    let deadline = start + duration;
                    if let Ok(mut conn) = conn {
                        let mut at = first;
                        let mut batch = Vec::with_capacity(ESTIMATE_WINDOW * 64);
                        'run: while Instant::now() < deadline {
                            batch.clear();
                            for i in 0..ESTIMATE_WINDOW {
                                let q = (at + i) % n;
                                let lo = if q == 0 {
                                    0
                                } else {
                                    inputs.query_frame_ends[q - 1]
                                };
                                batch.extend_from_slice(
                                    &inputs.query_frames[lo..inputs.query_frame_ends[q]],
                                );
                            }
                            let span = traced.then(|| tracer.open("client.estimate_batch", None));
                            if let Err(e) = conn.send(&batch) {
                                err = Some(e);
                                break;
                            }
                            for _ in 0..ESTIMATE_WINDOW {
                                match conn.recv_raw() {
                                    Ok(body) => {
                                        answers.push(match framing::decode_response(body) {
                                            Ok(BinResponse::F64(v)) => v.to_bits(),
                                            // Never the bits of a served estimate:
                                            // the check below reports it.
                                            _ => u64::MAX,
                                        })
                                    }
                                    Err(e) => {
                                        err = Some(e);
                                        break 'run;
                                    }
                                }
                            }
                            if let Some(s) = span {
                                tracer.close(s);
                            }
                            at += ESTIMATE_WINDOW;
                            batch_ends.push(start.elapsed().as_nanos() as u64);
                        }
                        let elapsed = start.elapsed();
                        done.wait();
                        release.wait();
                        drop(conn);
                        (first, answers, batch_ends, elapsed, err, tracer)
                    } else {
                        done.wait();
                        release.wait();
                        (
                            first,
                            answers,
                            batch_ends,
                            Duration::ZERO,
                            conn.err(),
                            tracer,
                        )
                    }
                })
            })
            .collect();
        ready.wait();
        let proc_before = sample();
        done.wait();
        let proc_after = sample();
        release.wait();
        let mut run = ClosedRun {
            completed: 0,
            elapsed: Duration::ZERO,
            answers: Vec::new(),
            batch_ends_ns: Vec::new(),
            proc_before,
            proc_after,
        };
        let mut tracers = Vec::new();
        for w in workers {
            let (first, answers, batch_ends, elapsed, err, tracer) =
                w.join().expect("closed-loop worker");
            run.batch_ends_ns.extend(batch_ends);
            if let Some(e) = err {
                tally.fail(format!("closed-loop connection: {e}"));
            }
            run.completed += answers.len() as u64;
            run.elapsed = run.elapsed.max(elapsed);
            run.answers.push((first, answers));
            tracers.push(tracer);
        }
        (run, tracers)
    })
}

impl ClosedRun {
    /// Completions per second in each whole `window` of the phase.
    pub fn window_rates(&self, window: Duration) -> Vec<f64> {
        let w = window.as_nanos() as u64;
        let whole = (self.elapsed.as_nanos() as u64 / w) as usize;
        let mut counts = vec![0u64; whole];
        for &t in &self.batch_ends_ns {
            if let Some(c) = counts.get_mut((t / w) as usize) {
                *c += ESTIMATE_WINDOW as u64;
            }
        }
        counts
            .iter()
            .map(|&c| c as f64 / window.as_secs_f64())
            .collect()
    }
}

pub fn check_closed(run: &ClosedRun, inputs: &Inputs, tally: &mut Tally) {
    let n = inputs.queries.len();
    for (first, answers) in &run.answers {
        for (i, &bits) in answers.iter().enumerate() {
            let q = &inputs.queries[(first + i) % n];
            tally.check(bits == q.expected.to_bits(), || {
                format!(
                    "ESTIMATE {} {} {} {}: served {}, in-process {}",
                    inputs.catalog[q.entry].name,
                    q.sigma,
                    q.buffer,
                    q.sargable,
                    f64::from_bits(bits),
                    q.expected
                )
            });
        }
    }
}

pub struct OpenRun {
    /// Per request sent: which one, latency from its scheduled send time to
    /// its answer (ns), and the answer.
    pub requests: Vec<(usize, u64, TextResponse)>,
    /// How late each send left against its schedule (ns).
    pub late_ns: Vec<u64>,
    pub elapsed: Duration,
    pub proc_before: ProcSample,
    pub proc_after: ProcSample,
}

/// Open-loop text requests at `OPEN_RATE_PER_S` on one connection: one
/// thread sends each request when it is due, whether or not earlier answers
/// arrived; a second thread only sleeps in `read` and timestamps answers
/// (a timed read wait would round to the kernel tick, ~4 ms). Each request
/// is timed from when it was due.
pub fn open_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    duration: Duration,
    sample: &(dyn Fn() -> ProcSample + Sync),
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> OpenRun {
    let mut run = OpenRun {
        requests: Vec::new(),
        late_ns: Vec::new(),
        elapsed: Duration::ZERO,
        proc_before: ProcSample::default(),
        proc_after: ProcSample::default(),
    };
    let (mut writer, mut reader) = match TextConn::connect(addr).and_then(TextConn::split) {
        Ok(c) => c,
        Err(e) => {
            tally.fail(format!("open-loop connect: {e}"));
            return run;
        }
    };
    let total = (duration.as_secs_f64() * OPEN_RATE_PER_S) as usize;
    let interval_ns = 1e9 / OPEN_RATE_PER_S;
    let lines = &inputs.open_lines;
    run.late_ns.reserve(total);
    run.proc_before = sample();
    let start = Instant::now() + Duration::from_millis(1);
    let due = |i: usize| start + Duration::from_nanos((i as f64 * interval_ns) as u64);
    // The sender queues each request's (index, due time) before writing it,
    // so an answer's request is always queued by the time the answer arrives.
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Instant)>();
    let (send_result, received) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut requests = Vec::with_capacity(total);
            let result: io::Result<()> = (|| {
                while requests.len() < total {
                    let Some(resp) = reader.try_parse()? else {
                        if !reader.fill(crate::wire::IO_TIMEOUT)? {
                            return Err(io::Error::new(io::ErrorKind::TimedOut, "answers stopped"));
                        }
                        continue;
                    };
                    let now = Instant::now();
                    let (idx, due_at) = rx
                        .recv()
                        .map_err(|_| io::Error::other("answer without a request"))?;
                    requests.push((idx, (now - due_at).as_nanos() as u64, resp));
                }
                Ok(())
            })();
            (requests, result)
        });
        let result: io::Result<()> = (|| {
            for sent in 0..total {
                let at = due(sent);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let idx = sent % lines.len();
                let span = tracer.as_deref_mut().map(|t| t.open("client.send", None));
                tx.send((idx, at)).map_err(io::Error::other)?;
                writer.write_all(lines[idx].as_bytes())?;
                if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
                    t.close(s);
                }
                run.late_ns.push((Instant::now() - at).as_nanos() as u64);
            }
            Ok(())
        })();
        drop(tx);
        if result.is_err() {
            // Unblock the receiver: no more answers are coming.
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        (result, receiver.join().expect("open-loop receiver"))
    });
    run.elapsed = start.elapsed();
    run.proc_after = sample();
    let (requests, recv_result) = received;
    run.requests = requests;
    for r in [send_result, recv_result] {
        if let Err(e) = r {
            tally.fail(format!("open-loop connection: {e}"));
        }
    }
    if run.requests.len() < total {
        tally.fail(format!(
            "open loop: {} of {total} requests answered",
            run.requests.len()
        ));
    }
    run
}

pub fn check_open(run: &OpenRun, inputs: &Inputs, tally: &mut Tally) {
    for (idx, _, resp) in &run.requests {
        match inputs.open[*idx] {
            OpenReq::Estimate(q) => {
                let want = format!("{}", inputs.queries[q].expected);
                tally.check(*resp == TextResponse::Ok(vec![want.clone()]), || {
                    format!(
                        "{}: answered {resp:?}, in-process {want}",
                        inputs.open_lines[*idx].trim()
                    )
                });
            }
            OpenReq::Observe(o) => {
                let o = &inputs.observations[o];
                let head = format!("observed {} epoch=", inputs.catalog[o.entry].name);
                let body = format!(" estimate={} actual={} rel_err=", o.expected, o.actual);
                let ok = matches!(resp, TextResponse::Ok(l)
                    if l.len() == 1 && l[0].starts_with(&head) && l[0].contains(&body));
                tally.check(ok, || {
                    format!(
                        "{}: answered {resp:?}, expected{body}",
                        inputs.open_lines[*idx].trim()
                    )
                });
            }
        }
    }
}

/// `SHOW`, one line per entry, in name order.
pub fn show(addr: SocketAddr) -> io::Result<Vec<String>> {
    match TextConn::connect(addr)?.request("SHOW")? {
        TextResponse::Ok(lines) => Ok(lines),
        other => Err(io::Error::other(format!("SHOW answered {other:?}"))),
    }
}

/// Every `SHOW` line must carry exactly what an in-process commit of the
/// same references produced (everything but epoch and analysis time).
pub fn check_show(lines: &[String], scans: &[&Scan], tally: &mut Tally) {
    tally.check(lines.len() == scans.len(), || {
        format!(
            "SHOW lists {} entries, expected {}",
            lines.len(),
            scans.len()
        )
    });
    for scan in scans {
        let want = format!(
            " {} segments={}",
            show_suffix(&scan.expected),
            scan.expected.fpf.segments()
        );
        let line = lines
            .iter()
            .find(|l| l.starts_with(&format!("{} epoch=", scan.name)));
        tally.check(line.is_some_and(|l| l.ends_with(&want)), || {
            format!("SHOW {}: {line:?}, expected ...{want}", scan.name)
        });
    }
}
