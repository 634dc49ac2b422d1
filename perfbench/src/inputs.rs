//! Seeded inputs. Everything a run sends to the server — statistics scans
//! as PAGE frames, ESTIMATE and OBSERVE requests — is a pure function of the
//! workload and the seed, and so are the answers the server must give,
//! computed here in-process from the same bytes.

use crate::stats::Fnv;
use epfis::{IndexStatistics, ScanQuery};
use epfis_datagen::{Dataset, DatasetSpec, Rng};
use epfis_server::framing::{self, BinRequest};
use epfis_server::IngestSession;

/// References per PAGE frame.
pub const FRAME_REFS: usize = 4096;

/// One statistics scan, ready to stream: keys strictly increase at every
/// run boundary (B-tree leaf order), pages are the records' heap pages.
pub struct Scan {
    pub name: String,
    pub table_pages: u32,
    pub refs: u64,
    /// The ANALYZE_BEGIN frame.
    pub begin: Vec<u8>,
    /// Concatenated PAGE frames (length-prefixed, as on the wire).
    pub frames: Vec<u8>,
    /// End offset of each frame in `frames`.
    pub frame_ends: Vec<usize>,
    /// What an in-process commit of the same references produces.
    pub expected: IndexStatistics,
}

impl Scan {
    fn from_dataset(name: String, data: &Dataset) -> Scan {
        let trace = data.trace();
        let mut begin = Vec::new();
        framing::encode_analyze_begin(&mut begin, &name, 0, data.table_pages());
        let mut frames = Vec::with_capacity(trace.pages().len() * 13);
        let mut frame_ends = Vec::new();
        let mut batch: Vec<(i64, u32)> = Vec::with_capacity(FRAME_REFS);
        for k in 0..trace.num_keys() as usize {
            let key = data.key_value(k);
            for &page in trace.run_pages(k) {
                batch.push((key, page));
                if batch.len() == FRAME_REFS {
                    framing::encode_page(&mut frames, &batch);
                    frame_ends.push(frames.len());
                    batch.clear();
                }
            }
        }
        if !batch.is_empty() {
            framing::encode_page(&mut frames, &batch);
            frame_ends.push(frames.len());
        }
        let expected = commit_in_process(&name, data.table_pages(), bodies(&frames, &frame_ends));
        Scan {
            name,
            table_pages: data.table_pages(),
            refs: data.records(),
            begin,
            frames,
            frame_ends,
            expected,
        }
    }

    /// Iterates the frame bodies (tag + payload, without length prefix).
    pub fn frame_bodies(&self) -> impl Iterator<Item = &[u8]> + '_ {
        bodies(&self.frames, &self.frame_ends)
    }

    /// The `(key, page)` references of one PAGE frame body.
    pub fn frame_refs(body: &[u8]) -> impl Iterator<Item = (i64, u32)> + Clone + '_ {
        match framing::decode_request(body) {
            Ok(BinRequest::Page(refs)) => refs.iter(),
            _ => panic!("benchmark input holds a non-PAGE frame"),
        }
    }
}

/// Frame bodies (tag + payload, without the length prefix) of concatenated
/// frames ending at `ends`.
pub fn bodies<'a>(frames: &'a [u8], ends: &'a [usize]) -> impl Iterator<Item = &'a [u8]> + 'a {
    let mut start = 0;
    ends.iter().map(move |&end| {
        let body = &frames[start + 4..end];
        start = end;
        body
    })
}

/// The server's ingest path, in-process: every frame decoded and fed through
/// an [`IngestSession`] with the server's default configuration.
fn commit_in_process<'a>(
    name: &str,
    table_pages: u32,
    frames: impl Iterator<Item = &'a [u8]>,
) -> IndexStatistics {
    let mut session = IngestSession::new(
        name.to_string(),
        epfis::EpfisConfig::default(),
        Some(table_pages),
    );
    for body in frames {
        session
            .feed_batch_iter(Scan::frame_refs(body))
            .expect("generated scans are in key order");
    }
    session.commit().expect("non-empty scan").0
}

/// The fields of a `SHOW` line (and of a COMMIT acknowledgement) that
/// depend only on the committed references: everything but epoch and time.
pub fn show_suffix(s: &IndexStatistics) -> String {
    format!(
        "T={} N={} I={} C={}",
        s.table_pages, s.records, s.distinct_keys, s.clustering_factor
    )
}

/// One Est-IO request against a catalog entry.
#[derive(Clone, Debug)]
pub struct Query {
    pub entry: usize,
    pub sigma: f64,
    pub buffer: u64,
    pub sargable: f64,
    /// In-process `IndexStatistics::estimate` on the expected entry.
    pub expected: f64,
}

/// One OBSERVE request: a real partial scan replayed through an LRU buffer.
#[derive(Clone, Debug)]
pub struct Observation {
    pub entry: usize,
    pub nkeys: u64,
    pub actual: u64,
    pub buffer: u64,
    /// The estimate the server must pair the observation with.
    pub expected: f64,
}

/// One request of the open-loop stream.
#[derive(Clone, Copy, Debug)]
pub enum OpenReq {
    Estimate(usize),
    Observe(usize),
}

/// Every second open-loop request is an OBSERVE.
const OBSERVE_EVERY: usize = 2;

pub struct Inputs {
    /// Entries committed during set-up and re-analyzed by the timed ingest.
    pub catalog: Vec<Scan>,
    pub queries: Vec<Query>,
    /// All queries as concatenated binary ESTIMATE frames.
    pub query_frames: Vec<u8>,
    pub query_frame_ends: Vec<usize>,
    pub observations: Vec<Observation>,
    pub open: Vec<OpenReq>,
    /// The open-loop requests as text lines, `\n`-terminated.
    pub open_lines: Vec<String>,
}

/// Catalog entries committed at set-up ("a few hundred").
const CATALOG_ENTRIES: u64 = 200;

fn log_uniform(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    (lo.ln() + rng.gen_f64() * (hi.ln() - lo.ln())).exp()
}

/// Zipf(0.86) over `n` items with shuffled ranks, as a cumulative table.
fn zipf_table(rng: &mut Rng, n: usize) -> Vec<f64> {
    let mut ranks: Vec<usize> = (1..=n).collect();
    rng.shuffle(&mut ranks);
    let mut acc = 0.0;
    ranks
        .iter()
        .map(|&r| {
            acc += 1.0 / (r as f64).powf(0.86);
            acc
        })
        .collect()
}

fn zipf_draw(rng: &mut Rng, table: &[f64]) -> usize {
    let x = rng.gen_f64() * table[table.len() - 1];
    table.partition_point(|&c| c < x).min(table.len() - 1)
}

/// Generates the inputs (the same for every workload). `scale` divides every
/// data size (1 for the benchmark; tests use a larger divisor to stay fast).
pub fn generate(seed: u64, scale: u64) -> Inputs {
    let mut rng = Rng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let n_entries = (CATALOG_ENTRIES / scale).max(4) as usize;

    // Catalog entries: near-unique to heavily duplicated keys, clustered
    // through scattered placement, a few thousand to tens of thousands of
    // references each.
    let mut catalog = Vec::with_capacity(n_entries);
    let mut datasets = Vec::with_capacity(n_entries);
    for i in 0..n_entries {
        let records = (log_uniform(&mut rng, 8_000.0, 40_000.0) as u64 / scale).max(200);
        let distinct =
            (log_uniform(&mut rng, records as f64 / 200.0, records as f64) as u64).max(2);
        let per_page = [10u32, 20, 40][rng.gen_range(3) as usize];
        let theta = if rng.gen_bool(0.5) { 0.0 } else { 0.86 };
        let k = rng.gen_f64();
        let spec =
            DatasetSpec::synthetic(records, distinct, per_page, theta, k).with_seed(rng.next_u64());
        let data = Dataset::generate(spec);
        catalog.push(Scan::from_dataset(format!("e{i:03}"), &data));
        datasets.push(data);
    }

    // Est-IO requests: Zipf-skewed entries, log-uniform sigma (small-sigma
    // correction and full ranges), buffers from 1 page to beyond the table,
    // and half of them with a sargable predicate (the urn-model branch).
    let zipf = zipf_table(&mut rng, n_entries);
    let n_queries = 4096;
    let queries: Vec<Query> = (0..n_queries)
        .map(|_| {
            let entry = zipf_draw(&mut rng, &zipf);
            let stats = &catalog[entry].expected;
            let sigma = log_uniform(&mut rng, 1e-5, 1.0);
            let buffer = log_uniform(&mut rng, 1.0, 2.0 * stats.table_pages as f64) as u64;
            let sargable = if rng.gen_bool(0.5) {
                1.0
            } else {
                log_uniform(&mut rng, 0.01, 1.0)
            };
            let expected = stats.estimate(&ScanQuery::range(sigma, buffer).with_sargable(sargable));
            Query {
                entry,
                sigma,
                buffer,
                sargable,
                expected,
            }
        })
        .collect();
    let mut query_frames = Vec::new();
    let mut query_frame_ends = Vec::new();
    for q in &queries {
        framing::encode_estimate(
            &mut query_frames,
            &catalog[q.entry].name,
            q.sigma,
            q.buffer,
            q.sargable,
        );
        query_frame_ends.push(query_frames.len());
    }

    // OBSERVE requests: a contiguous key range of the entry's own scan
    // replayed through an LRU buffer gives the ground-truth fetch count.
    let observations: Vec<Observation> = (0..512)
        .map(|_| {
            let entry = zipf_draw(&mut rng, &zipf);
            let data = &datasets[entry];
            let stats = &catalog[entry].expected;
            let keys = data.distinct_keys();
            let nkeys = (log_uniform(&mut rng, 1e-3, 1.0) * keys as f64)
                .ceil()
                .max(1.0) as u64;
            let first = rng.gen_range(keys - nkeys + 1) as usize;
            let trace = data.trace();
            let span = trace.run(first).start..trace.run(first + nkeys as usize - 1).end;
            let buffer = log_uniform(&mut rng, 1.0, stats.table_pages as f64) as u64;
            let actual = epfis_lrusim::simulate_lru(&trace.pages()[span], buffer as usize);
            let sigma = (nkeys as f64 / stats.distinct_keys as f64).clamp(0.0, 1.0);
            let expected = stats.estimate(&ScanQuery::range(sigma, buffer));
            Observation {
                entry,
                nkeys,
                actual,
                buffer,
                expected,
            }
        })
        .collect();

    let open: Vec<OpenReq> = (0..8192)
        .map(|i| {
            if i % OBSERVE_EVERY == OBSERVE_EVERY - 1 {
                OpenReq::Observe(rng.gen_range(observations.len() as u64) as usize)
            } else {
                OpenReq::Estimate(rng.gen_range(queries.len() as u64) as usize)
            }
        })
        .collect();
    let open_lines = open
        .iter()
        .map(|r| match *r {
            OpenReq::Estimate(i) => {
                let q = &queries[i];
                let name = &catalog[q.entry].name;
                format!("ESTIMATE {name} {} {} {}\n", q.sigma, q.buffer, q.sargable)
            }
            OpenReq::Observe(i) => {
                let o = &observations[i];
                let name = &catalog[o.entry].name;
                format!(
                    "OBSERVE {name} {} {} buffer={}\n",
                    o.nkeys, o.actual, o.buffer
                )
            }
        })
        .collect();

    Inputs {
        catalog,
        queries,
        query_frames,
        query_frame_ends,
        observations,
        open,
        open_lines,
    }
}

impl Inputs {
    /// Digest of every byte the run sends to the server.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for scan in &self.catalog {
            h.write(&scan.begin);
            h.write(&scan.frames);
        }
        h.write(&self.query_frames);
        for line in &self.open_lines {
            h.write(line.as_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = generate(7, 16).digest();
        assert_eq!(a, generate(7, 16).digest());
        assert_ne!(a, generate(8, 16).digest());
    }

    #[test]
    fn every_scan_has_strictly_increasing_keys() {
        let inputs = generate(3, 16);
        for scan in &inputs.catalog {
            let mut last: Option<i64> = None;
            let mut refs = 0u64;
            for body in scan.frame_bodies() {
                for (key, _) in Scan::frame_refs(body) {
                    if last != Some(key) {
                        assert!(
                            last.is_none_or(|l| key > l),
                            "{}: {key} after {last:?}",
                            scan.name
                        );
                        last = Some(key);
                    }
                    refs += 1;
                }
            }
            assert_eq!(refs, scan.refs, "{}", scan.name);
        }
    }
}
