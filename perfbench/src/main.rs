//! The EPFIS benchmark: one load process drives the real `epfis serve`
//! binary over loopback with seeded workloads, checks every answer, and
//! prints each end-to-end metric by name and unit. `--trace 1` instead runs
//! the same inputs with client spans plus an in-process replay through each
//! layer's public functions, and prints the per-layer metrics and the
//! ledger that reconciles them with the end-to-end time.
//!
//! ```text
//! epfis-perfbench --epfis PATH --workload estimate|mixed \
//!     --seed N --seconds S --trace 0|1
//! epfis-perfbench --repro-digests        # regenerate repro_digests.txt
//! ```
//!
//! Every workload runs the same phases, so that every end-to-end metric is
//! measured in every workload; the workloads differ in their inputs and in
//! how the run's seconds are shared (see `Plan`).

mod inputs;
mod phases;
mod replay;
mod repro;
mod server;
mod stats;
mod trace;
mod wire;

use crate::inputs::Inputs;
use crate::phases::{ProcSample, Session, Tally};
use crate::server::Server;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Rounds per run, each on a freshly set-up server, sharing `--seconds`
/// evenly; `setup_s` is the best set-up, `server_peak_rss_mib` the median.
const ROUNDS: usize = 3;
/// Reproductions per run; `repro_s` is the best of them.
const REPROS: usize = 3;
/// Requests replayed in-process per traced run.
const REPLAY_ESTIMATES: usize = 20_000;
const REPLAY_OPEN: usize = 8192;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    epfis: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or(format!("missing --{k}"));
    let args = Args {
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        epfis: get("epfis")?.into(),
    };
    if plan(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// How a workload shares its seconds between phases.
struct Plan {
    ingest: f64,
    closed: f64,
    open: f64,
    /// Re-ANALYZE the catalog back to back during the open-loop phase
    /// instead of in an ingest phase of its own.
    concurrent_ingest: bool,
}

fn plan(workload: &str) -> Option<Plan> {
    Some(match workload {
        "estimate" => Plan {
            ingest: 0.15,
            closed: 0.35,
            open: 0.50,
            concurrent_ingest: false,
        },
        "mixed" => Plan {
            ingest: 0.0,
            closed: 0.30,
            open: 0.70,
            concurrent_ingest: true,
        },
        _ => return None,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(k, (v, u))| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn per(x: f64, n: f64) -> f64 {
    if n > 0.0 {
        x / n
    } else {
        0.0
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--repro-digests") {
        for s in 0..repro::FIGURE_SEEDS {
            let seed = repro::figure_seed(s);
            println!("{seed} {:016x}", repro::run(seed, nproc(), None).digest);
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let run_dir = Path::new(".bench_run").join(format!("{}-{}", args.workload, std::process::id()));
    let result = run(&args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok((tally, metrics)) => {
            for m in &tally.messages {
                eprintln!("check failed: {m}");
            }
            let correct = tally.failed == 0;
            println!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                tally.attempted.max(1),
                tally.failed,
                metrics.json()
            );
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn proc_sample(server: &Server) -> ProcSample {
    ProcSample {
        cpu_ns: server.cpu_ns().unwrap_or(0),
        ctx: server.ctx_switches().unwrap_or(0),
    }
}

/// Spawns a server in `dir` and commits the catalog; the clock runs from the
/// spawn to the last preload acknowledgement.
fn set_up(
    args: &Args,
    dir: &Path,
    inputs: &Inputs,
    tally: &mut Tally,
) -> Result<(Server, f64, Vec<Session>), String> {
    let start = Instant::now();
    let server = Server::spawn(&args.epfis, dir)
        .map_err(|e| format!("spawn {}: {e}", args.epfis.display()))?;
    let mut conn =
        wire::BinConn::connect(server.addr).map_err(|e| format!("preload connect: {e}"))?;
    let mut sessions = Vec::with_capacity(inputs.catalog.len());
    for i in 0..inputs.catalog.len() {
        match phases::stream_session(&mut conn, &inputs.catalog, i, None) {
            Ok(s) => sessions.push(s),
            Err(e) => {
                tally.fail(format!("preload {}: {e}", inputs.catalog[i].name));
                break;
            }
        }
    }
    Ok((server, start.elapsed().as_secs_f64(), sessions))
}

/// Everything one run measured.
#[derive(Default)]
struct Measured {
    sessions: Vec<Session>,
    wal_bytes: f64,
    fsyncs: f64,
    ingest_cpu_ns: f64,
    closed: Option<phases::ClosedRun>,
    open: Option<phases::OpenRun>,
}

/// `epfis_wal_bytes_total` and `epfis_wal_fsyncs_total`.
fn wal_counters(server: &Server) -> (f64, f64) {
    server
        .metrics()
        .map(|m| {
            (
                m.get("epfis_wal_bytes_total").copied().unwrap_or(0.0),
                m.get("epfis_wal_fsyncs_total").copied().unwrap_or(0.0),
            )
        })
        .unwrap_or((0.0, 0.0))
}

/// The read phases of a round: the open loop (with the re-ANALYZE stream
/// beside it in `mixed`), then the closed loop. They come before the round's
/// solo ingest, so no latency is measured on top of its WAL write-back.
fn read_phases(
    server: &Server,
    inputs: &Inputs,
    plan: &Plan,
    seconds: f64,
    mut tracers: Option<&mut Vec<Tracer>>,
    tally: &mut Tally,
    m: &mut Measured,
) {
    let scans = &inputs.catalog;
    let wal = wal_counters;
    let sample = || proc_sample(server);
    let sample: &(dyn Fn() -> ProcSample + Sync) = &sample;
    let open_for = Duration::from_secs_f64(seconds * plan.open);
    let mut t = Tracer::new();
    if plan.concurrent_ingest {
        let stop = AtomicBool::new(false);
        let (b0, f0) = wal(server);
        let cpu0 = sample().cpu_ns;
        let mut ingest_tally = Tally::default();
        let (sessions, open) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let far = Instant::now() + Duration::from_secs(3600);
                phases::ingest_loop(
                    server.addr,
                    scans,
                    far,
                    Some(&stop),
                    None,
                    &mut ingest_tally,
                )
            });
            let traced = tracers.is_some().then_some(&mut t);
            let open = phases::open_loop(server.addr, inputs, open_for, sample, traced, tally);
            stop.store(true, Ordering::Release);
            (writer.join().expect("re-analyze thread"), open)
        });
        tally.merge(ingest_tally);
        m.ingest_cpu_ns = sample().cpu_ns.saturating_sub(cpu0) as f64;
        let (b1, f1) = wal(server);
        m.wal_bytes = b1 - b0;
        m.fsyncs = f1 - f0;
        m.sessions = sessions;
        m.open = Some(open);
    } else {
        let traced = tracers.is_some().then_some(&mut t);
        m.open = Some(phases::open_loop(
            server.addr,
            inputs,
            open_for,
            sample,
            traced,
            tally,
        ));
    }
    if let Some(ts) = tracers.as_deref_mut() {
        ts.push(t);
    }
    let (closed, closed_tracers) = phases::closed_loop(
        server.addr,
        inputs,
        Duration::from_secs_f64(seconds * plan.closed),
        sample,
        tracers.is_some(),
        tally,
    );
    m.closed = Some(closed);
    if let Some(ts) = tracers {
        ts.extend(closed_tracers);
    }
}

/// The solo ingest phase of a round (none in `mixed`): whole cycles of the
/// workload's scans.
fn ingest_phase(
    server: &Server,
    inputs: &Inputs,
    plan: &Plan,
    seconds: f64,
    tracers: Option<&mut Vec<Tracer>>,
    tally: &mut Tally,
    m: &mut Measured,
) {
    if plan.ingest == 0.0 {
        return;
    }
    let (b0, f0) = wal_counters(server);
    let cpu0 = proc_sample(server).cpu_ns;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * plan.ingest);
    let mut t = Tracer::new();
    let traced = tracers.is_some().then_some(&mut t);
    m.sessions = phases::ingest_loop(server.addr, &inputs.catalog, deadline, None, traced, tally);
    m.ingest_cpu_ns = proc_sample(server).cpu_ns.saturating_sub(cpu0) as f64;
    let (b1, f1) = wal_counters(server);
    m.wal_bytes = b1 - b0;
    m.fsyncs = f1 - f0;
    if let Some(ts) = tracers {
        ts.push(t);
    }
}

fn check(m: &Measured, inputs: &Inputs, tally: &mut Tally) {
    let scans = &inputs.catalog;
    for s in &m.sessions {
        phases::check_session(s, scans, tally);
    }
    if let Some(c) = &m.closed {
        phases::check_closed(c, inputs, tally);
    }
    if let Some(o) = &m.open {
        phases::check_open(o, inputs, tally);
    }
}

/// End-of-run gates on the server: SHOW matches the in-process commits, and
/// a restart on the same catalog and WAL directory serves the same catalog.
fn check_catalog(args: &Args, server: Server, dir: &Path, inputs: &Inputs, tally: &mut Tally) {
    let expected: Vec<&inputs::Scan> = inputs.catalog.iter().collect();
    let before = match phases::show(server.addr) {
        Ok(lines) => lines,
        Err(e) => {
            tally.fail(format!("SHOW: {e}"));
            Vec::new()
        }
    };
    phases::check_show(&before, &expected, tally);
    let clean = server.shutdown();
    tally.check(clean, || "server did not shut down cleanly".into());
    match Server::spawn(&args.epfis, dir) {
        Ok(restarted) => {
            let after = phases::show(restarted.addr).unwrap_or_default();
            tally.check(after == before, || {
                format!("catalog after restart differs: {after:?} vs {before:?}")
            });
            let clean = restarted.shutdown();
            tally.check(clean, || {
                "restarted server did not shut down cleanly".into()
            });
        }
        Err(e) => tally.fail(format!("restart: {e}")),
    }
}

fn run(args: &Args, run_dir: &Path) -> Result<(Tally, Metrics), String> {
    let plan = plan(&args.workload).expect("validated");
    let inputs = inputs::generate(args.seed, 1);
    println!("{}", provenance(args, run_dir, &inputs));
    let mut tally = Tally::default();
    let mut metrics = Metrics {
        values: BTreeMap::new(),
    };

    if args.trace {
        let dir = run_dir.join("server");
        let (server, _, sessions) = set_up(args, &dir, &inputs, &mut tally)?;
        for s in &sessions {
            phases::check_session(s, &inputs.catalog, &mut tally);
        }
        traced_run(
            args,
            &plan,
            &inputs,
            server,
            &dir,
            run_dir,
            &mut tally,
            &mut metrics,
        )?;
        return Ok((tally, metrics));
    }

    // The phases run in rounds, each on a freshly set-up server; each metric
    // is the median over rounds (or over windows within them), so a burst of
    // host noise spoils one round, not the run.
    let mut setup_s = Vec::new();
    let mut rss = Vec::new();
    let mut round = RoundStats::default();
    let (mut refs, mut wal_bytes) = (0u64, 0.0);
    let mut commits = 0;
    let share = args.seconds / ROUNDS as f64;
    let expected: Vec<&inputs::Scan> = inputs.catalog.iter().collect();
    for r in 0..ROUNDS {
        let dir = run_dir.join(format!("server{r}"));
        let (server, secs, sessions) = set_up(args, &dir, &inputs, &mut tally)?;
        for s in &sessions {
            phases::check_session(s, &inputs.catalog, &mut tally);
        }
        setup_s.push(secs);
        let mut m = Measured::default();
        read_phases(&server, &inputs, &plan, share, None, &mut tally, &mut m);
        ingest_phase(&server, &inputs, &plan, share, None, &mut tally, &mut m);
        check(&m, &inputs, &mut tally);
        rss.push(server.peak_rss_mib().map_err(|e| format!("VmHWM: {e}"))?);
        let round_refs: u64 = m.sessions.iter().map(|s| s.refs).sum();
        refs += round_refs;
        wal_bytes += m.wal_bytes;
        commits += m.sessions.len();
        round
            .commit
            .extend(m.sessions.iter().map(|s| s.commit.as_secs_f64() * 1e3));
        round.ingest.extend(
            m.sessions
                .iter()
                .map(|s| per(s.refs as f64, s.elapsed.as_secs_f64())),
        );
        let closed = m.closed.as_ref().expect("closed phase ran");
        round.closed.extend(closed.window_rates(CLOSED_WINDOW));
        let (est, obs) = open_latencies(m.open.as_ref().expect("open phase ran"), &inputs);
        report_latency(&format!("round {r} estimate (open loop)"), &est);
        report_latency(&format!("round {r} observe (open loop)"), &obs);
        window_quantiles(&est, 0.5, &mut round.p50);
        eprintln!(
            "round {r}: {} sessions, {} closed-loop estimates",
            m.sessions.len(),
            closed.completed
        );
        if r + 1 < ROUNDS {
            let lines = phases::show(server.addr).unwrap_or_default();
            phases::check_show(&lines, &expected, &mut tally);
            tally.check(server.shutdown(), || {
                "server did not shut down cleanly".into()
            });
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            check_catalog(args, server, &dir, &inputs, &mut tally);
        }
    }

    let mut repro_s = Vec::new();
    for _ in 0..REPROS {
        let repro = repro::run(repro::figure_seed(args.seed), nproc(), None);
        check_repro(args.seed, repro.digest, &mut tally);
        repro_s.push(repro.wall_s);
    }

    // This host shares its CPUs and disk: interference comes in periods of
    // tens of seconds that multiply tail latency and fsync time. Each metric
    // is therefore read from the quieter part of its samples: the lower
    // quartile of latencies and times, the upper quartile of rates, the best
    // of the set-ups and reproductions. A slower program moves these too.
    let low = |v: &mut Vec<f64>| quantile(v, 0.25).unwrap_or(0.0);
    let high = |v: &mut Vec<f64>| quantile(v, 0.75).unwrap_or(0.0);
    let best = |v: &mut Vec<f64>| quantile(v, 0.0).unwrap_or(0.0);
    let med = |v: &mut Vec<f64>| median(v).unwrap_or(0.0);
    eprintln!(
        "samples: {ROUNDS} rounds with a set-up each, {} commits, {} estimate windows of {WINDOW}, {REPROS} reproductions",
        commits,
        round.p50.len()
    );
    metrics.put("setup_s", best(&mut setup_s), "s");
    metrics.put("ingest_refs_per_s", high(&mut round.ingest), "refs/s");
    metrics.put("commit_ms", low(&mut round.commit), "ms");
    metrics.put("wal_bytes_per_ref", per(wal_bytes, refs as f64), "B/ref");
    metrics.put("server_peak_rss_mib", med(&mut rss), "MiB");
    metrics.put("estimate_per_s", high(&mut round.closed), "req/s");
    metrics.put("estimate_p50_us", low(&mut round.p50), "us");
    metrics.put("repro_s", best(&mut repro_s), "s");
    Ok((tally, metrics))
}

/// Per-session ingest rates and commit times, per-window closed-loop rates
/// and open-loop percentiles.
#[derive(Default)]
struct RoundStats {
    ingest: Vec<f64>,
    commit: Vec<f64>,
    closed: Vec<f64>,
    p50: Vec<f64>,
}

/// Closed-loop throughput is taken per window of this length.
const CLOSED_WINDOW: Duration = Duration::from_millis(100);

/// Requests per open-loop window: the p99 of 1000 requests has ten samples
/// beyond it.
const WINDOW: usize = 1000;

/// Appends the `q`-quantile (in us) of every whole window of `WINDOW`
/// consecutive latencies (ns, in send order).
fn window_quantiles(latencies_ns: &[f64], q: f64, out: &mut Vec<f64>) {
    for w in latencies_ns.chunks_exact(WINDOW) {
        out.push(quantile(&mut w.to_vec(), q).expect("non-empty window") / 1e3);
    }
}

fn check_repro(seed: u64, digest: u64, tally: &mut Tally) {
    let fig_seed = repro::figure_seed(seed);
    let want = repro::expected_digest(fig_seed);
    tally.check(want == Some(digest), || {
        format!("repro digest for figure seed {fig_seed}: {digest:016x}, expected {want:x?}")
    });
}

/// Open-loop latencies (ns) of answered ESTIMATE and OBSERVE requests.
fn open_latencies(open: &phases::OpenRun, inputs: &Inputs) -> (Vec<f64>, Vec<f64>) {
    let mut est = Vec::new();
    let mut obs = Vec::new();
    for (idx, ns, _) in &open.requests {
        match inputs.open[*idx] {
            inputs::OpenReq::Estimate(_) => est.push(*ns as f64),
            inputs::OpenReq::Observe(_) => obs.push(*ns as f64),
        }
    }
    (est, obs)
}

fn report_latency(what: &str, samples: &[f64]) {
    let mut v = samples.to_vec();
    let label = stats::highest_supported_percentile(v.len());
    let q = label
        .trim_start_matches('p')
        .parse::<f64>()
        .map_or(0.5, |p| p / 100.0);
    eprintln!(
        "{what}: n={} p50={:.1}us {label}={:.1}us",
        v.len(),
        quantile(&mut v, 0.5).unwrap_or(0.0) / 1e3,
        quantile(&mut v, q).unwrap_or(0.0) / 1e3
    );
}

/// The per-layer run: every phase once untraced and once traced (half the
/// phase's time each), server counters around them, the in-process replay,
/// and the reproduction untraced and traced.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    args: &Args,
    plan: &Plan,
    inputs: &Inputs,
    server: Server,
    dir: &Path,
    run_dir: &Path,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let half = args.seconds / 2.0;
    let mut plain = Measured::default();
    read_phases(&server, inputs, plan, half, None, tally, &mut plain);
    ingest_phase(&server, inputs, plan, half, None, tally, &mut plain);
    let mut client_tracers = Vec::new();
    let mut traced = Measured::default();
    let ts = Some(&mut client_tracers);
    read_phases(&server, inputs, plan, half, ts, tally, &mut traced);
    let ts = Some(&mut client_tracers);
    ingest_phase(&server, inputs, plan, half, ts, tally, &mut traced);
    let server_metrics = server.metrics().map_err(|e| format!("/metrics: {e}"))?;
    check(&plain, inputs, tally);
    check(&traced, inputs, tally);
    check_catalog(args, server, dir, inputs, tally);

    // In-process replay of the same inputs.
    let mut t = Tracer::new();
    let (catalog, wal) =
        replay::open_store(&run_dir.join("replay")).map_err(|e| format!("replay store: {e}"))?;
    let counts = replay::ingest(&catalog, &wal, &inputs.catalog, &mut t)
        .map_err(|e| format!("ingest replay: {e}"))?;
    let wrong = replay::estimates(&catalog, inputs, REPLAY_ESTIMATES, &mut t)
        + replay::open_lines(&catalog, inputs, REPLAY_OPEN, &mut t);
    tally.check(wrong == 0, || {
        format!("{wrong} replayed answers differ from the expected ones")
    });

    let repro_plain = repro::run(repro::figure_seed(args.seed), nproc(), None);
    let repro_tracer = Mutex::new(Tracer::new());
    let repro_traced = repro::run(repro::figure_seed(args.seed), nproc(), Some(&repro_tracer));
    check_repro(args.seed, repro_plain.digest, tally);
    check_repro(args.seed, repro_traced.digest, tally);
    let repro_tracer = repro_tracer.into_inner().expect("tracer lock");

    let times = t.self_times();
    let self_ns = |name: &str| times.get(name).map_or(0.0, |v| v.0 as f64);
    let count = |name: &str| times.get(name).map_or(0.0, |v| v.1 as f64);
    let refs = counts.refs as f64;
    let sessions = counts.sessions as f64;
    let estimates = count("replay.estimate");

    metrics.put(
        "server.framing.decode_ns_per_ref",
        per(self_ns("framing.decode_page"), refs),
        "ns",
    );
    metrics.put(
        "server.ingest.check_ns_per_ref",
        per(self_ns("ingest.check"), refs),
        "ns",
    );
    metrics.put(
        "server.ingest.feed_ns_per_ref",
        per(self_ns("ingest.feed"), refs),
        "ns",
    );
    metrics.put(
        "lrusim.stack.access_ns_per_ref",
        per(self_ns("lrusim.stack.access"), refs),
        "ns",
    );
    metrics.put(
        "lrusim.stack.compactions",
        counts.compactions as f64,
        "count",
    );
    metrics.put(
        "server.wal.encode_ns_per_ref",
        per(self_ns("wal.encode_page"), refs),
        "ns",
    );
    metrics.put(
        "server.wal.append_ns_per_ref",
        per(self_ns("wal.append_page"), refs),
        "ns",
    );
    let (cps, cp_bytes) = if counts.checkpoint_ns.is_empty() {
        (
            &counts.priced_checkpoint_ns,
            counts.priced_checkpoint_bytes_last,
        )
    } else {
        (&counts.checkpoint_ns, counts.checkpoint_bytes_last)
    };
    metrics.put(
        "server.ingest.checkpoint_us_first",
        cps.first().map_or(0.0, |&n| n as f64 / 1e3),
        "us",
    );
    metrics.put(
        "server.ingest.checkpoint_us_last",
        cps.last().map_or(0.0, |&n| n as f64 / 1e3),
        "us",
    );
    metrics.put("server.ingest.checkpoint_bytes_last", cp_bytes as f64, "B");
    metrics.put(
        "server.wal.checkpoint_share",
        per(counts.checkpoint_bytes as f64, counts.wal_bytes as f64),
        "ratio",
    );
    let e2e_sessions = (plain.sessions.len() + traced.sessions.len()) as f64;
    metrics.put(
        "server.wal.fsyncs_per_session",
        per(plain.fsyncs + traced.fsyncs, e2e_sessions),
        "count",
    );
    metrics.put(
        "server.ingest.commit_ms",
        per(self_ns("ingest.commit") + self_ns("segfit.fit"), sessions) / 1e6,
        "ms",
    );
    metrics.put(
        "segfit.fit_us",
        per(self_ns("segfit.fit"), sessions) / 1e3,
        "us",
    );
    metrics.put(
        "server.catalog.commit_ms",
        per(self_ns("catalog.commit"), sessions) / 1e6,
        "ms",
    );
    metrics.put(
        "server.catalog.persist_bytes",
        counts.persist_bytes as f64,
        "B",
    );
    metrics.put(
        "server.catalog.snapshot_ns",
        per(self_ns("catalog.snapshot"), estimates),
        "ns",
    );
    metrics.put(
        "core.est_io.estimate_ns",
        per(self_ns("est_io.estimate"), estimates),
        "ns",
    );
    metrics.put(
        "server.framing.decode_ns_per_req",
        per(self_ns("framing.decode_estimate"), estimates),
        "ns",
    );
    metrics.put(
        "server.framing.encode_ns_per_resp",
        per(self_ns("framing.encode_f64"), estimates),
        "ns",
    );
    metrics.put(
        "server.protocol.parse_ns_per_req",
        per(self_ns("protocol.parse"), count("protocol.parse")),
        "ns",
    );
    metrics.put(
        "server.accuracy.observe_ns",
        per(self_ns("accuracy.observe"), count("accuracy.observe")),
        "ns",
    );

    let e2e_refs: f64 = plain
        .sessions
        .iter()
        .chain(&traced.sessions)
        .map(|s| s.refs as f64)
        .sum();
    metrics.put(
        "server.proc.cpu_ns_per_ref",
        per(plain.ingest_cpu_ns + traced.ingest_cpu_ns, e2e_refs),
        "ns",
    );
    let closed_runs = [plain.closed.as_ref(), traced.closed.as_ref()];
    let (mut cpu, mut ctx, mut reqs) = (0.0, 0.0, 0.0);
    for c in closed_runs.iter().flatten() {
        cpu += c.proc_after.cpu_ns.saturating_sub(c.proc_before.cpu_ns) as f64;
        ctx += c.proc_after.ctx.saturating_sub(c.proc_before.ctx) as f64;
        reqs += c.completed as f64;
    }
    metrics.put("server.proc.cpu_ns_per_req", per(cpu, reqs), "ns");
    metrics.put("server.proc.ctx_switches_per_req", per(ctx, reqs), "count");
    let (mut ctx_text, mut text_reqs) = (0.0, 0.0);
    let mut late = Vec::new();
    for o in [plain.open.as_ref(), traced.open.as_ref()]
        .into_iter()
        .flatten()
    {
        ctx_text += o.proc_after.ctx.saturating_sub(o.proc_before.ctx) as f64;
        text_reqs += o.requests.len() as f64;
        late.extend(o.late_ns.iter().map(|&n| n as f64));
    }
    metrics.put(
        "server.proc.ctx_switches_per_text_req",
        per(ctx_text, text_reqs),
        "count",
    );
    metrics.put(
        "loadgen.late_p99_us",
        quantile(&mut late, 0.99).unwrap_or(0.0) / 1e3,
        "us",
    );
    // Open-loop p99s of the untraced half: per 1000-request window, lower
    // quartile over windows. They are reported here rather than gated as
    // end-to-end metrics: on a shared 2-vCPU host their run-to-run spread
    // exceeds any bound the benchmark may set.
    if let Some(o) = plain.open.as_ref() {
        let (est, obs) = open_latencies(o, inputs);
        for (name, samples) in [("estimate_p99_us", est), ("observe_p99_us", obs)] {
            let mut windows = Vec::new();
            window_quantiles(&samples, 0.99, &mut windows);
            metrics.put(name, quantile(&mut windows, 0.25).unwrap_or(0.0), "us");
        }
    }

    for (command, phases) in SERVER_PHASES {
        for phase in *phases {
            let key = |part: &str| {
                format!("epfis_server_phase_duration_us_{part}{{command=\"{command}\",phase=\"{phase}\"}}")
            };
            let sum = server_metrics.get(&key("sum")).copied().unwrap_or(0.0);
            let n = server_metrics.get(&key("count")).copied().unwrap_or(0.0);
            metrics.put(
                format!("server.phase.{command}.{phase}_mean_us"),
                per(sum, n),
                "us",
            );
        }
    }

    let figure_times = repro_tracer.self_times();
    for (g, span) in repro::GROUPS {
        let ns = figure_times.get(span).map_or(0.0, |v| v.0 as f64);
        metrics.put(format!("harness.figures.{g}_s"), ns / 1e9, "s");
    }

    // The ledger: untraced end-to-end time per operation against the sum of
    // the layers' self times per operation.
    let mut ledger = Vec::new();
    let rate = |m: &Measured| {
        let refs: f64 = m.sessions.iter().map(|s| s.refs as f64).sum();
        let busy: f64 = m.sessions.iter().map(|s| s.elapsed.as_secs_f64()).sum();
        per(busy * 1e9, refs)
    };
    let layer_sum =
        |names: &[&str], ops: f64| per(names.iter().map(|n| self_ns(n)).sum::<f64>(), ops);
    ledger.push((
        "ingest",
        "ref",
        rate(&plain),
        rate(&traced),
        layer_sum(replay::INGEST_LAYERS, refs),
        replay::INGEST_LAYERS,
        refs,
    ));
    let closed_ns = |m: &Measured| {
        m.closed.as_ref().map_or(0.0, |c| {
            per(
                c.elapsed.as_secs_f64() * 1e9 * phases::CLOSED_CONNECTIONS as f64,
                c.completed as f64,
            )
        })
    };
    ledger.push((
        "estimate",
        "req",
        closed_ns(&plain),
        closed_ns(&traced),
        layer_sum(replay::ESTIMATE_LAYERS, estimates),
        replay::ESTIMATE_LAYERS,
        estimates,
    ));
    let open_mean = |m: &Measured| {
        m.open.as_ref().map_or(0.0, |o| {
            per(
                o.requests.iter().map(|r| r.1 as f64).sum(),
                o.requests.len() as f64,
            )
        })
    };
    let open_ops = count("replay.open");
    ledger.push((
        "open",
        "req",
        open_mean(&plain),
        open_mean(&traced),
        layer_sum(replay::OPEN_LAYERS, open_ops),
        replay::OPEN_LAYERS,
        open_ops,
    ));
    for (name, op, e2e, e2e_traced, layers, names, ops) in &ledger {
        let parts: Vec<String> = names
            .iter()
            .map(|n| format!("{n} {:.1}", per(self_ns(n), *ops)))
            .collect();
        println!(
            "ledger {name}: untraced {e2e:.1} ns/{op} = layers {layers:.1} [{}] + unattributed {:.1}; traced {e2e_traced:.1} ns/{op}",
            parts.join(", "),
            e2e - layers
        );
        metrics.put(format!("ledger.{name}.e2e_ns_per_op"), *e2e, "ns");
        metrics.put(format!("ledger.{name}.layers_ns_per_op"), *layers, "ns");
        metrics.put(
            format!("ledger.{name}.unattributed_ns_per_op"),
            e2e - layers,
            "ns",
        );
        metrics.put(
            format!("trace.{name}.overhead_ratio"),
            per(*e2e, *e2e_traced),
            "ratio",
        );
    }
    let figures_sum: f64 = figure_times
        .iter()
        .filter(|(k, _)| k.starts_with("figures."))
        .map(|(_, v)| v.0 as f64)
        .sum();
    println!(
        "ledger repro: untraced {:.3} s on {} threads; figure groups sum to {:.3} s of thread time; traced {:.3} s",
        repro_plain.wall_s,
        nproc(),
        figures_sum / 1e9,
        repro_traced.wall_s
    );
    metrics.put("ledger.repro.e2e_ns_per_op", repro_plain.wall_s * 1e9, "ns");
    metrics.put("ledger.repro.layers_ns_per_op", figures_sum, "ns");
    metrics.put(
        "ledger.repro.unattributed_ns_per_op",
        repro_plain.wall_s * 1e9 - figures_sum,
        "ns",
    );
    metrics.put(
        "trace.repro.overhead_ratio",
        per(repro_plain.wall_s, repro_traced.wall_s),
        "ratio",
    );

    for ct in client_tracers {
        t.absorb(ct);
    }
    t.absorb(repro_tracer);
    let out =
        Path::new(".bench_out").join(format!("trace-{}-seed{}.txt", args.workload, args.seed));
    t.write_to(&out)
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    eprintln!("spans written to {}", out.display());
    Ok(())
}

/// Server phase histograms reported by the traced run: the commands each
/// workload sends, and the phases those commands record.
const SERVER_PHASES: &[(&str, &[&str])] = &[
    ("PAGE", &["queue", "parse", "execute", "wal"]),
    ("ANALYZE_COMMIT", &["queue", "parse", "execute", "wal"]),
    ("ESTIMATE", &["queue", "parse", "execute"]),
    ("OBSERVE", &["queue", "parse", "execute"]),
    ("ALL", &["flush"]),
];

/// Host and build facts a same-host A/B needs, as one JSON line.
fn provenance(args: &Args, run_dir: &Path, inputs: &Inputs) -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    let mut caches = Vec::new();
    for i in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let level = read(&format!("{base}/level"));
        let kind = read(&format!("{base}/type"));
        let size = read(&format!("{base}/size"));
        if level.trim() == "2" || level.trim() == "3" {
            caches.push(format!("L{} {} {}", level.trim(), kind.trim(), size.trim()));
        }
    }
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".into());
    let _ = std::fs::create_dir_all(run_dir);
    let fs = filesystem_of(run_dir);
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"provenance\": {{\"nproc\": {}, \"cpu\": \"{}\", \"caches\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"source_digest\": \"{:016x}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"wal_fsync\": \"batch (server default)\", \"wal_fs\": \"{}\", \"inputs_digest\": \"{:016x}\"}}}}",
        nproc(),
        esc(&cpu),
        esc(&caches.join("; ")),
        esc(&rustc),
        esc(&commit),
        source_digest(),
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        esc(&fs),
        inputs.digest()
    )
}

/// Digest of the program's sources (`crates/` and the lock file), standing
/// in for a commit hash where the checkout is not a git repository.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.lock"), PathBuf::from("Cargo.toml")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = stats::Fnv::new();
    for f in files {
        h.write(f.to_string_lossy().as_bytes());
        h.write(&std::fs::read(&f).unwrap_or_default());
    }
    h.finish()
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix).
fn filesystem_of(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, fs)| fs)
}
