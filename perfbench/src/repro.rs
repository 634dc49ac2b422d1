//! The paper reproduction at quick scale, in-process: the figure groups
//! `repro_all --quick 1` runs, fanned out over the thread budget, with a
//! digest of every table and CSV they produce.

use crate::stats::Fnv;
use crate::trace::Tracer;
use epfis::{EpfisConfig, GridStrategy, PhiMode};
use epfis_datagen::DatasetSpec;
use epfis_harness::figures::{self, SyntheticParams};
use epfis_harness::FigureData;
use std::sync::Mutex;
use std::time::Instant;

/// Figure groups, in output order, with their span names; each reports
/// `harness.figures.<group>_s`.
pub const GROUPS: [(&str, &str); 7] = [
    ("tables_fig1", "figures.tables_fig1"),
    ("gwl", "figures.gwl"),
    ("synthetic", "figures.synthetic"),
    ("segment_sensitivity", "figures.segment_sensitivity"),
    ("ablations", "figures.ablations"),
    ("policy_contention", "figures.policy_contention"),
    ("sargable_staleness", "figures.sargable_staleness"),
];

/// The figure seeds the reproduction cycles through; `repro_digests.txt` holds
/// each one's expected digest at quick scale.
pub const FIGURE_SEEDS: u64 = 16;

pub fn figure_seed(bench_seed: u64) -> u64 {
    figures::DEFAULT_SEED + bench_seed % FIGURE_SEEDS
}

/// Expected digest per figure seed, as committed next to the benchmark.
pub fn expected_digest(seed: u64) -> Option<u64> {
    include_str!("../repro_digests.txt").lines().find_map(|l| {
        let (s, d) = l.split_once(' ')?;
        (s.parse::<u64>().ok()? == seed).then(|| u64::from_str_radix(d.trim(), 16).ok())?
    })
}

fn figure(out: &mut Vec<String>, fig: &FigureData) {
    out.push(fig.to_table());
    out.push(fig.to_csv());
}

fn group(name: &str, seed: u64) -> Vec<String> {
    let mut out = Vec::new();
    let small_spec = |k: f64| DatasetSpec::synthetic(20_000, 400, 40, 0.0, k).with_seed(seed);
    let small_min_buffer = 30;
    let policy_spec = DatasetSpec::synthetic(20_000, 400, 40, 0.0, 0.5).with_seed(seed);
    match name {
        "tables_fig1" => {
            out.push(figures::tables(20, seed));
            figure(&mut out, &figures::fig1(20, seed));
        }
        "gwl" => {
            for (fig, _) in figures::gwl_all(20, 15, seed) {
                figure(&mut out, &fig);
            }
        }
        "synthetic" => {
            let params: Vec<SyntheticParams> = [0.0, 0.86]
                .iter()
                .flat_map(|&theta| {
                    [0.0, 0.05, 0.10, 0.20, 0.50, 1.0]
                        .map(|k| SyntheticParams::paper(theta, k).scaled(20))
                })
                .collect();
            for (fig, _) in figures::synthetic_all(&params) {
                figure(&mut out, &fig);
            }
        }
        "segment_sensitivity" => {
            let counts: Vec<usize> = (1..=12).collect();
            figure(
                &mut out,
                &figures::segment_sensitivity(small_spec(0.2), &counts, small_min_buffer, seed),
            );
        }
        "ablations" => {
            let configs: Vec<(&str, EpfisConfig)> = vec![
                ("paper", EpfisConfig::default()),
                ("no-correction", EpfisConfig::default().without_correction()),
                (
                    "phi=min",
                    EpfisConfig {
                        phi_mode: PhiMode::ProseMin,
                        ..EpfisConfig::default()
                    },
                ),
                (
                    "geometric-grid",
                    EpfisConfig::default().with_grid(GridStrategy::Geometric { points: 24 }),
                ),
                ("segments=3", EpfisConfig::default().with_segments(3)),
                ("segments=12", EpfisConfig::default().with_segments(12)),
            ];
            figure(
                &mut out,
                &figures::config_ablation(small_spec(0.2), &configs, small_min_buffer, seed),
            );
            figure(
                &mut out,
                &figures::sd_exponent_ablation(small_spec(0.2), small_min_buffer, seed),
            );
            figure(
                &mut out,
                &figures::baseline_variant_ablation(small_spec(0.2), small_min_buffer, seed),
            );
        }
        "policy_contention" => {
            figure(
                &mut out,
                &figures::policy_sensitivity(policy_spec.clone(), small_min_buffer, seed),
            );
            let pages = policy_spec.records / 40 / 4;
            figure(
                &mut out,
                &figures::contention(policy_spec, &[1, 2, 4, 8], pages, 40, seed),
            );
        }
        "sargable_staleness" => {
            let t = small_spec(1.0).records / 40;
            figure(
                &mut out,
                &figures::sargable_accuracy(
                    small_spec(1.0),
                    &[t / 20, t / 4, t / 2, t],
                    &[0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9],
                    seed,
                ),
            );
            figure(
                &mut out,
                &figures::staleness(
                    small_spec(0.2),
                    &[1.0, 1.1, 1.25, 1.5, 2.0, 3.0],
                    small_min_buffer,
                    seed,
                ),
            );
        }
        other => unreachable!("unknown figure group {other}"),
    }
    out
}

pub struct Repro {
    pub digest: u64,
    pub wall_s: f64,
}

/// Runs every group on `threads` workers. With a tracer, each group is a
/// span (a root of its own: groups are independent requests).
pub fn run(seed: u64, threads: usize, tracer: Option<&Mutex<Tracer>>) -> Repro {
    epfis_par::set_threads(threads);
    let start = Instant::now();
    type Task<'a> = Box<dyn FnOnce() -> Vec<String> + Send + 'a>;
    let tasks: Vec<Task> = GROUPS
        .iter()
        .map(|&(name, span)| {
            Box::new(move || match tracer {
                Some(t) => {
                    let s = t.lock().expect("tracer lock").now_ns();
                    let out = group(name, seed);
                    let mut t = t.lock().expect("tracer lock");
                    let e = t.now_ns();
                    t.record(span, None, s, e);
                    out
                }
                None => group(name, seed),
            }) as Task
        })
        .collect();
    let outputs = epfis_par::par_invoke(tasks);
    let wall_s = start.elapsed().as_secs_f64();
    let mut h = Fnv::new();
    for text in outputs.iter().flatten() {
        h.write(text.as_bytes());
        h.write(&[0]);
    }
    Repro {
        digest: h.finish(),
        wall_s,
    }
}
