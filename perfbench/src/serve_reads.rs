//! `serve_reads`: open-loop serving of single-row k-NN requests.
//! Poisson arrivals with Zipf (s = 1) popularity over two small pools —
//! skewed MovieLens and dense scRNA, both narrow enough for the hybrid
//! kernel's dense shared-memory mode — on the exact tier, Euclidean,
//! micro-batched, with the prepared cache warm before timing. Latency
//! is taken at a nominal rate below the knee; a search finds the
//! highest rate that still meets the 500 µs p99 SLO.

use crate::layers::{LaunchTally, Metrics};
use crate::serving::{self, K};
use crate::stats;
use crate::trace::Tracer;
use crate::{repeat_setup, setup_again, timed_loop, Ctx, Digest, Outcome};
use datasets::DatasetProfile;
use neighbors::NearestNeighbors;
use semiring::Distance;
use serve::{Request, ServeEngine, ServeReport, Workload};
use sparse::CsrMatrix;
use std::collections::BTreeMap;
use std::time::Instant;

/// Row-degree cap of the MovieLens pool: without it the seed decides
/// how long the lognormal tail's longest rows are, and with them the
/// pool's nnz, the batch cost and the knee.
const MOVIELENS_DEGREE_CAP: usize = 32;

/// The two pools: 1132 × 776 MovieLens and 264 × 104 scRNA.
fn profiles() -> [DatasetProfile; 2] {
    let mut movielens = DatasetProfile::movielens().scaled_with(0.004, 0.04);
    movielens.degree.max = MOVIELENS_DEGREE_CAP;
    [movielens, DatasetProfile::scrna().scaled_with(0.004, 0.01)]
}

/// Offered rate of the timed stream, below the knee (which sits
/// between 3 and 5 M/s on these pools).
const NOMINAL_QPS: f64 = 2.0e6;
/// Requests in the timed stream: ten latencies beyond p99 need 1000.
const STREAM_REQUESTS: usize = 2000;
/// Requests per stream of the max-rate search, at every rate: a
/// backlog trend near the knee then shows over ~1 ms of arrivals.
const SEARCH_REQUESTS: usize = 4000;
/// Grid steps searched either side of the nominal rate
/// (`1.02^48 ≈ 2.6×`).
const SEARCH_SPAN: i32 = 48;
/// Every this many request ids, one answer is re-derived one-shot.
const CHECK_EVERY: u64 = 50;

struct Setup {
    pools: Vec<CsrMatrix<f32>>,
    fitted: Vec<NearestNeighbors<f32>>,
    engine: ServeEngine<f32>,
    stream: Vec<Request<f32>>,
}

fn stream(seed: u64, rate: f64, requests: usize, pools: &[CsrMatrix<f32>]) -> Vec<Request<f32>> {
    serving::first_arrivals(
        Workload::steady(seed, rate, 1.0).with_zipf(1.0),
        requests,
        pools,
    )
}

fn setup(seed: u64, tracer: &Tracer) -> Result<Setup, String> {
    let pools: Vec<CsrMatrix<f32>> = tracer.span("datasets.generate", || {
        profiles().iter().map(|p| p.generate(seed)).collect()
    });
    let fitted: Vec<NearestNeighbors<f32>> = pools
        .iter()
        .map(|p| NearestNeighbors::new(serving::device(false), Distance::Euclidean).fit(p.clone()))
        .collect();
    let mut engine = ServeEngine::new(serving::pool(false), serving::config());
    // One request per pool fills the prepared cache, so every timed
    // replay runs on the cache's hit path.
    let warm: Vec<Request<f32>> = pools
        .iter()
        .enumerate()
        .map(|(d, p)| Request {
            id: d as u64,
            dataset: d,
            arrival_s: d as f64 * 1e-3,
            row: p.slice_rows(0..1),
        })
        .collect();
    tracer
        .span("serve.engine.replay", || engine.replay(&fitted, &warm))
        .map_err(|e| format!("warm-up replay: {e}"))?;
    let stream = stream(seed, NOMINAL_QPS, STREAM_REQUESTS, &pools);
    Ok(Setup {
        pools,
        fitted,
        engine,
        stream,
    })
}

/// Checks sampled answers are byte-identical to one-shot
/// `kneighbors_prepared` on the same rows (DESIGN §11).
fn verify(s: &Setup, report: &ServeReport<f32>, tracer: &Tracer) -> Result<f64, String> {
    tracer.span("perfbench.verify", || {
        let pool = serving::pool(false);
        let mut warm_sim_s = 0.0;
        let by_id: BTreeMap<u64, _> = report.responses.iter().map(|r| (r.id, r)).collect();
        for (d, nn) in s.fitted.iter().enumerate() {
            let sample: Vec<&Request<f32>> = s
                .stream
                .iter()
                .filter(|r| r.dataset == d && r.id % CHECK_EVERY == 0)
                .collect();
            let shards = tracer.span("neighbors.prepare_shards", || nn.prepare_shards(&pool));
            let (w, _) = tracer
                .span("neighbors.warm_shards", || nn.warm_shards(&shards))
                .map_err(|e| format!("warm_shards: {e}"))?;
            warm_sim_s += w;
            let rows: Vec<&CsrMatrix<f32>> = sample.iter().map(|r| &r.row).collect();
            let q = serving::vstack(&rows, s.pools[d].cols());
            let want = tracer
                .span("neighbors.kneighbors_prepared", || {
                    nn.kneighbors_prepared(&shards, &q, K)
                })
                .map_err(|e| format!("one-shot query: {e}"))?;
            for (i, req) in sample.iter().enumerate() {
                let got = by_id
                    .get(&req.id)
                    .ok_or_else(|| format!("request {} was not served", req.id))?;
                if got.indices != want.indices[i]
                    || serving::bits(&got.distances) != serving::bits(&want.distances[i])
                {
                    return Err(format!(
                        "request {} differs from the one-shot answer",
                        req.id
                    ));
                }
            }
        }
        Ok(warm_sim_s)
    })
}

/// Re-executes every batch of `report` through `kneighbors_prepared`,
/// on profiled devices (a `perfbench.attribute` span, for the range
/// attribution) or unprofiled ones (`perfbench.reexecute`, for the
/// neighbors layer's host time). The summed simulated seconds must
/// equal the engine's busy time bit for bit (the cache is warm, so no
/// batch pays a prepare).
fn reexecute(
    s: &Setup,
    report: &ServeReport<f32>,
    tracer: &Tracer,
    profiled: bool,
) -> Result<(LaunchTally, Metrics), String> {
    tracer.span(serving::reexecute_span(profiled), || {
        let pool = serving::pool(profiled);
        let shards: Vec<_> = s.fitted.iter().map(|nn| nn.prepare_shards(&pool)).collect();
        for (nn, sh) in s.fitted.iter().zip(&shards) {
            nn.warm_shards(sh)
                .map_err(|e| format!("warm_shards: {e}"))?;
        }
        let mut tally = LaunchTally::default();
        let (mut busy, mut tiles, mut peak) = (0.0f64, 0usize, 0usize);
        for b in serving::batches(report) {
            let d = s.stream[b.ids[0] as usize].dataset;
            let rows: Vec<&CsrMatrix<f32>> =
                b.ids.iter().map(|&id| &s.stream[id as usize].row).collect();
            let q = serving::vstack(&rows, s.pools[d].cols());
            let r = tracer
                .span("neighbors.kneighbors_prepared", || {
                    s.fitted[d].kneighbors_prepared(&shards[d], &q, K)
                })
                .map_err(|e| format!("re-executing a batch: {e}"))?;
            busy += r.sim_seconds;
            tiles += r.batches;
            let m = r.peak_memory;
            peak = peak.max(m.input_bytes + m.output_bytes + m.workspace_bytes);
            tally.add(&r.launches);
        }
        if busy.to_bits() != report.busy_seconds.to_bits() {
            return Err(format!(
                "re-executed batches take {busy} s, the engine was busy {} s",
                report.busy_seconds
            ));
        }
        let mut m = Metrics::default();
        m.set("neighbors.tiles", "count", tiles as f64);
        m.set(
            "neighbors.peak_device_mb",
            "MiB",
            peak as f64 / (1 << 20) as f64,
        );
        Ok((tally, m))
    })
}

/// One timed replay of the nominal stream: its digest and host seconds.
/// The first replay's report and prepare count are kept in `first`.
fn timed_replay(
    s: &mut Setup,
    tracer: &Tracer,
    first: &mut Option<(ServeReport<f32>, u64)>,
) -> Result<(u64, f64), String> {
    let before = s.engine.metrics().counter("serve.prepares_total");
    let t = Instant::now();
    let r = tracer
        .span("serve.engine.replay", || {
            s.engine.replay(&s.fitted, &s.stream)
        })
        .map_err(|e| format!("replay: {e}"))?;
    let host_s = t.elapsed().as_secs_f64();
    let prepares = s.engine.metrics().counter("serve.prepares_total") - before;
    let mut d = Digest::default();
    serving::digest(&mut d, &r);
    first.get_or_insert((r, prepares));
    Ok((d.finish(), host_s))
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Result<Outcome, String> {
    let (mut s, mut setup_s) = repeat_setup(ctx, tracer, || setup(ctx.seed, tracer))?;

    // The timed replays run in two halves, before and after the search,
    // so a run's fastest iteration samples the host over the whole run
    // (~50 s) rather than 20 s: a slow stretch on a shared host rarely
    // covers both halves.
    let mut first = None;
    let half_s = ctx.seconds / 2.0;
    let (mut iteration_s, digest) = tracer.span("perfbench.timed", || {
        timed_loop(
            half_s,
            || timed_replay(&mut s, tracer, &mut first),
            || setup_again(&mut setup_s, tracer, || setup(ctx.seed, tracer)),
        )
    })?;
    let search = tracer.span("perfbench.search", || {
        stats::max_rate_at_slo(NOMINAL_QPS, serving::RATE_STEP, SEARCH_SPAN, |rate| {
            let reqs = stream(ctx.seed, rate, SEARCH_REQUESTS, &s.pools);
            let r = tracer
                .span("serve.engine.replay", || s.engine.replay(&s.fitted, &reqs))
                .map_err(|e| format!("replay at {rate} queries/s: {e}"))?;
            Ok::<_, String>(serving::meets(&r, r.rejected.len() as u64))
        })
    })?;
    let search = search.ok_or("the SLO knee lies outside the searched rate grid")?;
    let (second_half, second_digest) = tracer.span("perfbench.timed", || {
        timed_loop(
            half_s,
            || timed_replay(&mut s, tracer, &mut first),
            || setup_again(&mut setup_s, tracer, || setup(ctx.seed, tracer)),
        )
    })?;
    if second_digest != digest {
        return Err("replays after the search differ from those before it".into());
    }
    iteration_s.extend(second_half);
    let (report, prepares) = first.expect("at least one iteration");
    serving::check_latency_split(&report)?;
    let tail = serving::latency_tail(&report);
    if stats::samples_beyond(99.0, tail.samples) < stats::MIN_BEYOND_TAIL {
        return Err(format!(
            "{} latencies leave too few beyond p99",
            tail.samples
        ));
    }
    let nominal_failed = report.rejected.len() as u64;
    let warm_sim_s = verify(&s, &report, tracer)?;

    let mut d = Digest::default();
    serving::digest(&mut d, &report);
    d.f64(search.rate);
    let digest = d.finish();

    let attempted = report.responses.len() + report.rejected.len();
    let mut e2e = Metrics::default();
    e2e.set("sim_s", "s", report.busy_seconds);
    e2e.set("sim_p50_latency_us", "us", tail.p50 * 1e6);
    e2e.set("sim_p99_latency_us", "us", tail.p99 * 1e6);
    e2e.set("sim_max_qps_at_slo", "queries/s", search.rate);
    e2e.set(
        "served_frac",
        "ratio",
        1.0 - stats::failed_frac(nominal_failed, 0, attempted as u64),
    );

    let mut layers = Metrics::default();
    let mut rows = Vec::new();
    if tracer.enabled() {
        let replay_host_s = crate::fastest(&iteration_s);
        layers.extend(serving::engine_layers(
            &report,
            &s.stream,
            s.engine.metrics(),
            prepares,
            replay_host_s,
        ));
        reexecute(&s, &report, tracer, false)?;
        let (tally, neighbors) = reexecute(&s, &report, tracer, true)?;
        let query_host_s =
            tracer.total_under_s("neighbors.kneighbors_prepared", "perfbench.reexecute");
        layers.extend(tally.metrics(replay_host_s));
        layers.extend(neighbors);
        rows = tally.rows(&bench::report::MetricRow::new().label("workload", "serve_reads"));
        layers.set(
            "datasets.generate_s",
            "s",
            tracer.total_under_s("datasets.generate", "perfbench.setup") / setup_s.len() as f64,
        );
        layers.set(
            "neighbors.prepare_host_s",
            "s",
            tracer.total_under_s("neighbors.prepare_shards", "perfbench.verify")
                + tracer.total_under_s("neighbors.warm_shards", "perfbench.verify"),
        );
        layers.set("neighbors.prepare_sim_s", "s", warm_sim_s);
        layers.set("neighbors.query_host_s", "s", query_host_s);
    }

    Ok(Outcome {
        attempted: attempted as u64 * iteration_s.len() as u64,
        failed: nominal_failed * iteration_s.len() as u64,
        setup_s,
        queries_per_iteration: report.responses.len() as u64,
        iteration_s,
        e2e,
        layers,
        rows,
        digest,
        facts: vec![
            (
                "host_threads".into(),
                serving::device(false).host_threads().to_string(),
            ),
            ("latency_samples".into(), tail.samples.to_string()),
            ("nominal_qps".into(), NOMINAL_QPS.to_string()),
            ("search_replays".into(), search.tried.to_string()),
            (
                "next_rate_missed".into(),
                format!("{:.0}", search.next_missed),
            ),
        ],
    })
}
