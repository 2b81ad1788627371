//! `knn_batch`: offline batched brute-force k-NN, the shape of the
//! paper's Table 3. A fixed query slab runs against a wide, skewed
//! MovieLens-profile index whose dimensionality exceeds the 48 KiB
//! dense shared-memory budget (> 12,288 f32 columns), so the hybrid
//! kernel runs in hash-table mode — once with Cosine (expanded family:
//! one pass, norms, expansion) and once with Manhattan (NAMM: two
//! passes, finalize). No serving code runs.

use crate::layers::{LaunchTally, Metrics};
use crate::stats;
use crate::trace::Tracer;
use crate::{repeat_setup, setup_again, timed_loop, Ctx, Digest, Outcome};
use datasets::DatasetProfile;
use gpu_sim::Device;
use neighbors::{KnnResult, MultiDevice, NearestNeighbors, PreparedShards};
use semiring::reference::sparse_distance;
use semiring::{Distance, DistanceParams};
use sparse::{CsrMatrix, Idx};
use std::time::Instant;

/// Index rows; the first [`QUERY_ROWS`] of them are the query slab.
const INDEX_ROWS: usize = 1024;
/// Query rows: 512 per distance gives 1024 latency samples, enough to
/// leave ten beyond the nearest-rank p99.
const QUERY_ROWS: usize = 512;
/// Dimension scale of the MovieLens profile: 194k × 0.07 = 13,580
/// columns, past the 12,288 f32 columns dense smem holds.
const DIM_SCALE: f64 = 0.07;
/// Degree scale (mean row degree ≈ 10).
const DEGREE_SCALE: f64 = 0.1;
/// Row-degree cap, about 5× the mean: the skew stays, while dozens of
/// rows of every seed reach it, so the lognormal tail's longest rows
/// do not swing the slab's nnz with the seed.
const DEGREE_CAP: usize = 48;
/// Query rows per launch. The simulator keeps every deferred atomic of
/// a launch until its grid ends, so the process's peak memory follows
/// the largest tile; 128-row tiles keep that peak small and steady.
const TILE_ROWS: usize = 128;
const K: usize = 10;
const HOST_THREADS: usize = 2;
const DISTANCES: [Distance; 2] = [Distance::Cosine, Distance::Manhattan];
/// Sampled query rows checked against the reference, per distance.
const CHECKED_QUERIES: usize = 8;
/// Relative tolerance against the f64 reference: the kernels
/// accumulate in f32, so EXPERIMENTS.md's 1e-7 (an f64 pipeline
/// figure) scales to f32's ~1e-7 epsilon times the few hundred terms a
/// row pair sums.
const REL_TOL: f64 = 1e-5;

struct Setup {
    index: CsrMatrix<f32>,
    queries: CsrMatrix<f32>,
    estimators: Vec<(NearestNeighbors<f32>, PreparedShards<f32>)>,
    warm_sim_s: f64,
}

fn device(profiled: bool) -> Device {
    Device::volta()
        .with_host_threads(HOST_THREADS)
        .with_profiler(profiled)
}

fn setup(seed: u64, tracer: &Tracer, profiled: bool) -> Result<Setup, String> {
    let mut profile = DatasetProfile::movielens().scaled_with(DIM_SCALE, DEGREE_SCALE);
    profile.rows = INDEX_ROWS;
    profile.degree.max = DEGREE_CAP;
    let index = tracer.span("datasets.generate", || profile.generate(seed));
    let queries = index.slice_rows(0..QUERY_ROWS);
    let pool = MultiDevice::replicate(&device(profiled), 1);
    let mut estimators = Vec::new();
    let mut warm_sim_s = 0.0;
    for d in DISTANCES {
        let nn = NearestNeighbors::new(device(profiled), d)
            .with_batch_bytes(TILE_ROWS * INDEX_ROWS * std::mem::size_of::<f32>())
            .fit(index.clone());
        let shards = tracer.span("neighbors.prepare_shards", || nn.prepare_shards(&pool));
        let (s, _) = tracer
            .span("neighbors.warm_shards", || nn.warm_shards(&shards))
            .map_err(|e| format!("warm_shards({d}): {e}"))?;
        warm_sim_s += s;
        estimators.push((nn, shards));
    }
    Ok(Setup {
        index,
        queries,
        estimators,
        warm_sim_s,
    })
}

fn query_all(s: &Setup, tracer: &Tracer) -> Result<Vec<KnnResult<f32>>, String> {
    s.estimators
        .iter()
        .map(|(nn, shards)| {
            tracer
                .span("neighbors.kneighbors_prepared", || {
                    nn.kneighbors_prepared(shards, &s.queries, K)
                })
                .map_err(|e| format!("kneighbors_prepared({}): {e}", nn.metric()))
        })
        .collect()
}

fn digest(results: &[KnnResult<f32>]) -> u64 {
    let mut d = Digest::default();
    for r in results {
        d.f64(r.sim_seconds);
        for (i, dist) in r.indices.iter().zip(&r.distances) {
            d.neighbors(i, dist);
        }
    }
    d.finish()
}

fn row64(m: &CsrMatrix<f32>, r: usize) -> Vec<(Idx, f64)> {
    m.row_indices(r)
        .iter()
        .zip(m.row_values(r))
        .map(|(&c, &v)| (c, f64::from(v)))
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || (a - b).abs() <= REL_TOL * b.abs().max(1.0)
}

/// Checks sampled answers against the sequential f64 reference:
/// distances within [`REL_TOL`], index sets equal up to ties at the
/// k-th distance.
fn verify(s: &Setup, results: &[KnnResult<f32>], tracer: &Tracer) -> Result<(), String> {
    tracer.span("semiring.reference", || {
        let params = DistanceParams::default();
        let cols = s.index.cols();
        let index_rows: Vec<Vec<(Idx, f64)>> =
            (0..s.index.rows()).map(|r| row64(&s.index, r)).collect();
        for (d, r) in DISTANCES.iter().zip(results) {
            for q in (0..QUERY_ROWS).step_by(QUERY_ROWS / CHECKED_QUERIES) {
                let qrow = row64(&s.queries, q);
                let want: Vec<f64> = index_rows
                    .iter()
                    .map(|b| sparse_distance(&qrow, b, cols, *d, &params))
                    .collect();
                let (got_i, got_d) = (&r.indices[q], &r.distances[q]);
                let fail = |what: String| format!("{d} query {q}: {what}");
                if got_i.len() != K.min(want.len()) {
                    return Err(fail(format!("{} neighbors, want {K}", got_i.len())));
                }
                for (&i, &dist) in got_i.iter().zip(got_d) {
                    if !close(f64::from(dist), want[i]) {
                        return Err(fail(format!("row {i} at {dist}, reference {}", want[i])));
                    }
                }
                if got_d.windows(2).any(|w| w[0] > w[1]) {
                    return Err(fail("distances not ascending".into()));
                }
                let kth = f64::from(*got_d.last().expect("k > 0"));
                let mut sorted = want.clone();
                sorted.sort_by(f64::total_cmp);
                if !close(kth, sorted[K - 1]) {
                    return Err(fail(format!(
                        "k-th distance {kth}, reference {}",
                        sorted[K - 1]
                    )));
                }
                let strictly_closer = want
                    .iter()
                    .enumerate()
                    .filter(|&(_, &w)| w < kth - REL_TOL * kth.abs().max(1.0));
                for (j, _) in strictly_closer {
                    if !got_i.contains(&j) {
                        return Err(fail(format!("row {j} is closer than the k-th but missing")));
                    }
                }
            }
        }
        Ok(())
    })
}

/// Re-runs the slab on profiled devices and folds the launches, which
/// must carry exactly the unprofiled run's simulated outputs.
fn attribute(seed: u64, tracer: &Tracer, want: u64) -> Result<LaunchTally, String> {
    tracer.span("perfbench.attribute", || {
        let s = setup(seed, tracer, true)?;
        let results = query_all(&s, tracer)?;
        if digest(&results) != want {
            return Err("profiled run's simulated outputs differ from the unprofiled run's".into());
        }
        let mut tally = LaunchTally::default();
        for r in &results {
            tally.add(&r.launches);
        }
        Ok(tally)
    })
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Result<Outcome, String> {
    let (s, mut setup_s) = repeat_setup(ctx, tracer, || setup(ctx.seed, tracer, false))?;

    let mut last = Vec::new();
    let (iteration_s, query_digest) = tracer.span("perfbench.timed", || {
        timed_loop(
            ctx.seconds,
            || {
                let t = Instant::now();
                last = query_all(&s, tracer)?;
                Ok((digest(&last), t.elapsed().as_secs_f64()))
            },
            || setup_again(&mut setup_s, tracer, || setup(ctx.seed, tracer, false)),
        )
    })?;
    verify(&s, &last, tracer)?;
    let mut d = Digest::default();
    d.u64(query_digest);
    d.f64(s.warm_sim_s);
    let digest = d.finish();

    // Each distance's slab is one offline batch: its queries are
    // answered when the batch (warmed norms plus every launch) ends.
    let mut latencies = Vec::new();
    let mut sim_s = s.warm_sim_s;
    for r in &last {
        sim_s += r.sim_seconds;
        latencies.extend(std::iter::repeat_n(r.sim_seconds, r.indices.len()));
    }
    let tail = stats::tail(&latencies);
    if stats::samples_beyond(99.0, tail.samples) < stats::MIN_BEYOND_TAIL {
        return Err(format!(
            "{} latency samples leave too few beyond p99",
            tail.samples
        ));
    }
    let queries = (QUERY_ROWS * DISTANCES.len()) as u64;
    let mut e2e = Metrics::default();
    e2e.set("sim_s", "s", sim_s);
    e2e.set("sim_p50_latency_us", "us", tail.p50 * 1e6);
    e2e.set("sim_p99_latency_us", "us", tail.p99 * 1e6);
    // An offline batch has no arrival rate; its sustainable rate is
    // the slab's queries over the simulated time it takes.
    e2e.set("sim_max_qps_at_slo", "queries/s", queries as f64 / sim_s);
    e2e.set("served_frac", "ratio", 1.0);

    let mut layers = Metrics::default();
    let mut rows = Vec::new();
    if tracer.enabled() {
        let tally = attribute(ctx.seed, tracer, query_digest)?;
        let iterations = iteration_s.len() as f64;
        let query_host_s =
            tracer.total_under_s("neighbors.kneighbors_prepared", "perfbench.timed") / iterations;
        layers.extend(tally.metrics(query_host_s));
        rows = tally.rows(&bench::report::MetricRow::new().label("workload", "knn_batch"));
        let reps = setup_s.len() as f64;
        layers.set(
            "datasets.generate_s",
            "s",
            tracer.total_under_s("datasets.generate", "perfbench.setup") / reps,
        );
        let prepare_s = tracer.total_under_s("neighbors.prepare_shards", "perfbench.setup")
            + tracer.total_under_s("neighbors.warm_shards", "perfbench.setup");
        layers.set("neighbors.prepare_host_s", "s", prepare_s / reps);
        layers.set("neighbors.prepare_sim_s", "s", s.warm_sim_s);
        layers.set("neighbors.query_host_s", "s", query_host_s);
        layers.set(
            "neighbors.tiles",
            "count",
            last.iter().map(|r| r.batches as f64).sum(),
        );
        let peak = last
            .iter()
            .map(|r| {
                let m = r.peak_memory;
                m.input_bytes + m.output_bytes + m.workspace_bytes
            })
            .max()
            .unwrap_or(0);
        layers.set(
            "neighbors.peak_device_mb",
            "MiB",
            peak as f64 / (1 << 20) as f64,
        );
    }

    Ok(Outcome {
        attempted: queries * iteration_s.len() as u64,
        failed: 0,
        setup_s,
        iteration_s,
        queries_per_iteration: queries,
        e2e,
        layers,
        rows,
        digest,
        facts: vec![
            (
                "host_threads".into(),
                device(false).host_threads().to_string(),
            ),
            (
                "index".into(),
                format!("{}x{}", s.index.rows(), s.index.cols()),
            ),
            ("index_nnz".into(), s.index.nnz().to_string()),
        ],
    })
}
