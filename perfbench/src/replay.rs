//! The traced run's in-process replay: the same generated inputs pushed
//! through each layer's public functions in the order the server calls
//! them, with a span around every call.

use crate::inputs::{Inputs, OpenReq, Scan};
use crate::trace::Tracer;
use epfis::{EpfisConfig, LruFit, ScanQuery};
use epfis_lrusim::StackAnalyzer;
use epfis_server::framing::{self, BinRequest};
use epfis_server::protocol::{self, Request};
use epfis_server::wal::{self, ServerWal, WalConfig};
use epfis_server::{
    AccuracyConfig, AccuracyTracker, IngestSession, SessionCheckpoint, SharedCatalog,
};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Counts gathered alongside the spans.
#[derive(Default)]
pub struct IngestCounts {
    pub refs: u64,
    pub sessions: u64,
    pub compactions: u64,
    pub wal_bytes: u64,
    pub checkpoint_bytes: u64,
    pub checkpoint_bytes_last: u64,
    /// `checkpoint()` + `encode_checkpoint`, in ns, in order.
    pub checkpoint_ns: Vec<u64>,
    /// The same for sessions too short to checkpoint, priced at their end.
    pub priced_checkpoint_bytes_last: u64,
    pub priced_checkpoint_ns: Vec<u64>,
    pub persist_bytes: u64,
}

/// Names of the spans that make up the ingest ledger (server work per
/// reference, summed over self times).
pub const INGEST_LAYERS: &[&str] = &[
    "framing.decode_page",
    "ingest.check",
    "wal.encode_page",
    "wal.append_page",
    "ingest.feed",
    "lrusim.stack.access",
    "ingest.checkpoint",
    "wal.encode_checkpoint",
    "wal.append_checkpoint",
    "ingest.commit",
    "segfit.fit",
    "wal.commit",
    "catalog.commit",
];

/// A durable catalog and its WAL in `dir`, as `epfis serve` opens them
/// (default WAL configuration).
pub fn open_store(dir: &Path) -> io::Result<(SharedCatalog, ServerWal)> {
    std::fs::create_dir_all(dir)?;
    let catalog = SharedCatalog::open(dir.join("catalog.scat"))?;
    let server_wal = ServerWal::open(
        &WalConfig::new(dir.join("wal")),
        &catalog,
        EpfisConfig::default(),
        &epfis_obs::Logger::disabled(),
    )?;
    Ok((catalog, server_wal))
}

/// Replays `scans` as ANALYZE sessions into `catalog` through `server_wal`.
pub fn ingest(
    catalog: &SharedCatalog,
    server_wal: &ServerWal,
    scans: &[Scan],
    tracer: &mut Tracer,
) -> io::Result<IngestCounts> {
    let mut counts = IngestCounts::default();
    let mut scratch = Vec::new();
    for scan in scans {
        let root = tracer.open("replay.analyze", None);
        let sid = server_wal.begin(&scan.name, None, Some(scan.table_pages))?;
        let mut session = IngestSession::new(
            scan.name.clone(),
            EpfisConfig::default(),
            Some(scan.table_pages),
        );
        let mut analyzer = StackAnalyzer::new();
        let mut checkpointed = 0u64;
        for body in scan.frame_bodies() {
            let refs = match tracer.time("framing.decode_page", Some(root), || {
                framing::decode_request(body)
            }) {
                Ok(BinRequest::Page(refs)) => refs,
                other => {
                    return Err(io::Error::other(format!(
                        "replayed PAGE decoded as {other:?}"
                    )))
                }
            };
            tracer
                .time("ingest.check", Some(root), || {
                    session.check_batch_iter(refs.iter())
                })
                .map_err(io::Error::other)?;
            let append = tracer.open("wal.append_page", Some(root));
            let t0 = tracer.now_ns();
            wal::encode_page(&mut scratch, sid, refs.len(), refs.iter());
            let t1 = tracer.now_ns();
            server_wal.append_page(sid, refs.len(), refs.iter())?;
            tracer.close(append);
            // append_page encodes again inside; the separately timed encode is
            // its child.
            tracer.record("wal.encode_page", Some(append), t0, t1);
            counts.wal_bytes += scratch.len() as u64;
            scratch.clear();
            let feed = tracer.open("ingest.feed", Some(root));
            session.feed_batch_unchecked_iter(refs.iter());
            tracer.close(feed);
            let t0 = tracer.now_ns();
            for (_, page) in refs.iter() {
                analyzer.access(page);
            }
            let t1 = tracer.now_ns();
            tracer.record("lrusim.stack.access", Some(feed), t0, t1);
            if session.records() - checkpointed >= server_wal.checkpoint_refs() {
                let (cp, bytes, ns) = checkpoint(
                    tracer,
                    root,
                    &session,
                    sid,
                    &mut scratch,
                    "ingest.checkpoint",
                );
                counts.checkpoint_bytes += bytes;
                counts.checkpoint_bytes_last = bytes;
                counts.checkpoint_ns.push(ns);
                counts.wal_bytes += bytes;
                tracer.time("wal.append_checkpoint", Some(root), || {
                    server_wal.append_checkpoint(sid, &cp)
                })?;
                checkpointed = session.records();
            }
        }
        counts.refs += scan.refs;
        counts.compactions += analyzer.compactions();
        if checkpointed == 0 {
            // A session shorter than the checkpoint interval never
            // checkpoints; price what one of its state would cost, outside
            // the ledger.
            let (_, bytes, ns) = checkpoint(
                tracer,
                root,
                &session,
                sid,
                &mut scratch,
                "ingest.checkpoint_priced",
            );
            counts.priced_checkpoint_bytes_last = bytes;
            counts.priced_checkpoint_ns.push(ns);
        }

        let commit = tracer.open("ingest.commit", Some(root));
        let (stats, summary) = session.commit().map_err(io::Error::other)?;
        tracer.close(commit);
        let curve = analyzer.finish().fetch_curve();
        let (b_min, b_max) =
            LruFit::new(EpfisConfig::default()).modeling_range(scan.table_pages as u64);
        let samples: Vec<(f64, f64)> =
            epfis::grid::grid_points(b_min, b_max, EpfisConfig::default().grid)
                .iter()
                .map(|&b| (b as f64, curve.fetches(b) as f64))
                .collect();
        let t0 = tracer.now_ns();
        let fpf = epfis_segfit::fit_max_segments(&samples, EpfisConfig::default().segments);
        let t1 = tracer.now_ns();
        tracer.record("segfit.fit", Some(commit), t0, t1);
        if stats != scan.expected || fpf != stats.fpf {
            return Err(io::Error::other(format!(
                "{}: replayed commit differs",
                scan.name
            )));
        }
        let wal_commit = tracer.open("wal.commit", Some(root));
        server_wal.commit_session(sid, 0, |seq| {
            let span = tracer.open("catalog.commit", Some(wal_commit));
            let out =
                catalog.commit_analyzed(&scan.name, stats, Some(Arc::new(summary)), 0, Some(seq));
            tracer.close(span);
            out
        })?;
        tracer.close(wal_commit);
        tracer.close(root);
        counts.sessions += 1;
    }
    if let Some(path) = catalog.path() {
        counts.persist_bytes = std::fs::metadata(path)?.len();
    }
    Ok(counts)
}

fn checkpoint(
    tracer: &mut Tracer,
    root: usize,
    session: &IngestSession,
    sid: u64,
    scratch: &mut Vec<u8>,
    name: &'static str,
) -> (SessionCheckpoint, u64, u64) {
    let t0 = tracer.now_ns();
    let cp = tracer.time(name, Some(root), || session.checkpoint());
    let encode = if name == "ingest.checkpoint" {
        "wal.encode_checkpoint"
    } else {
        "wal.encode_checkpoint_priced"
    };
    tracer.time(encode, Some(root), || {
        wal::encode_checkpoint(scratch, sid, &cp)
    });
    let ns = tracer.now_ns() - t0;
    (cp, scratch.len() as u64, ns)
}

pub const ESTIMATE_LAYERS: &[&str] = &[
    "framing.decode_estimate",
    "catalog.snapshot",
    "est_io.estimate",
    "framing.encode_f64",
];

/// Replays binary ESTIMATE frames: decode, snapshot lookup, Est-IO, encode.
/// Returns the number of mismatching answers.
pub fn estimates(
    catalog: &SharedCatalog,
    inputs: &Inputs,
    count: usize,
    tracer: &mut Tracer,
) -> u64 {
    let mut out = Vec::with_capacity(64);
    let mut wrong = 0;
    let bodies: Vec<&[u8]> =
        crate::inputs::bodies(&inputs.query_frames, &inputs.query_frame_ends).collect();
    for i in 0..count {
        let q = i % bodies.len();
        let root = tracer.open("replay.estimate", None);
        let Ok(BinRequest::Estimate {
            name,
            sigma,
            buffer,
            sargable,
        }) = tracer.time("framing.decode_estimate", Some(root), || {
            framing::decode_request(bodies[q])
        })
        else {
            wrong += 1;
            continue;
        };
        let entry = tracer.time("catalog.snapshot", Some(root), || {
            catalog.snapshot().get_arc(name).cloned()
        });
        let Some(entry) = entry else {
            wrong += 1;
            continue;
        };
        let v = tracer.time("est_io.estimate", Some(root), || {
            entry
                .stats
                .estimate(&ScanQuery::range(sigma, buffer).with_sargable(sargable))
        });
        out.clear();
        tracer.time("framing.encode_f64", Some(root), || {
            framing::encode_resp_f64(&mut out, v)
        });
        tracer.close(root);
        if v.to_bits() != inputs.queries[q].expected.to_bits() {
            wrong += 1;
        }
    }
    wrong
}

pub const OPEN_LAYERS: &[&str] = &[
    "protocol.parse",
    "catalog.snapshot_text",
    "est_io.estimate_text",
    "accuracy.observe",
    "protocol.frame",
];

/// Replays the open-loop text lines: parse, snapshot lookup, Est-IO, the
/// accuracy tracker for OBSERVE, response framing.
pub fn open_lines(
    catalog: &SharedCatalog,
    inputs: &Inputs,
    count: usize,
    tracer: &mut Tracer,
) -> u64 {
    let tracker = AccuracyTracker::new(AccuracyConfig::default());
    let mut wrong = 0;
    for i in 0..count {
        let idx = i % inputs.open_lines.len();
        let line = inputs.open_lines[idx].trim_end();
        let root = tracer.open("replay.open", None);
        let req = tracer.time("protocol.parse", Some(root), || {
            protocol::parse_request(line)
        });
        let (name, query, actual) = match req {
            Ok(Request::Estimate {
                name,
                sigma,
                buffer,
                sargable,
            }) => (
                name,
                ScanQuery::range(sigma, buffer).with_sargable(sargable),
                None,
            ),
            Ok(Request::Observe {
                name,
                nkeys,
                actual,
                buffer,
            }) => {
                let entry = catalog.snapshot().get_arc(&name).cloned();
                let Some(entry) = entry else {
                    wrong += 1;
                    continue;
                };
                let sigma = (nkeys as f64 / entry.stats.distinct_keys as f64).clamp(0.0, 1.0);
                (
                    name,
                    ScanQuery::range(sigma, buffer.unwrap_or(entry.stats.b_min)),
                    Some(actual),
                )
            }
            _ => {
                wrong += 1;
                continue;
            }
        };
        let entry = tracer.time("catalog.snapshot_text", Some(root), || {
            catalog.snapshot().get_arc(&name).cloned()
        });
        let Some(entry) = entry else {
            wrong += 1;
            continue;
        };
        let v = tracer.time("est_io.estimate_text", Some(root), || {
            entry.stats.estimate(&query)
        });
        let obs = actual.map(|actual| {
            tracer.time("accuracy.observe", Some(root), || {
                tracker.observe(&name, entry.epoch, v, actual)
            })
        });
        let framed = tracer.time("protocol.frame", Some(root), || {
            let line = match (obs, actual) {
                (Some(obs), Some(actual)) => format!(
                    "observed {name} epoch={} estimate={v} actual={actual} rel_err={} stale={}",
                    entry.epoch, obs.rel_err, obs.stale as u8
                ),
                _ => format!("{v}"),
            };
            protocol::frame_ok(&[line])
        });
        std::hint::black_box(framed);
        tracer.close(root);
        let expected = match inputs.open[idx] {
            OpenReq::Estimate(q) => inputs.queries[q].expected,
            OpenReq::Observe(o) => inputs.observations[o].expected,
        };
        if v.to_bits() != expected.to_bits() {
            wrong += 1;
        }
    }
    wrong
}
