//! `serve_writes`: the serving engine with writes beside reads, through
//! `replay_ingest`. The base generation holds half the rows; a timed
//! WAL stream inserts the rest at a fixed write rate, deleting a live
//! row every 4th op, while open-loop Poisson reads arrive at a fixed
//! rate and a compaction threshold fires several times mid-stream.
//! `Strategy::NaiveCsr` is pinned: it scores each pair from the two
//! rows alone, so answers can be checked byte for byte against a
//! rebuild of the dataset at the same WAL prefix (DESIGN §16).

use crate::layers::{LaunchTally, Metrics};
use crate::serving::{self, K};
use crate::stats;
use crate::trace::Tracer;
use crate::{repeat_setup, setup_again, timed_loop, Ctx, Digest, Outcome};
use datasets::DatasetProfile;
use kernels::{PairwiseOptions, Strategy};
use neighbors::{NearestNeighbors, PreparedShards};
use semiring::Distance;
use serve::{
    CompactionJob, IngestReport, MutableDataset, Request, ServeEngine, TimedRecord, Wal, Workload,
};
use sparse::CsrMatrix;
use std::collections::BTreeMap;
use std::time::Instant;

/// 566 × 388 MovieLens rows.
const DIM_SCALE: f64 = 0.002;
const DEGREE_SCALE: f64 = 0.04;
/// Row-degree cap. A naive-CSR batch is as slow as its heaviest row
/// pair, so an uncapped lognormal tail would let one seed's longest
/// row swing the latency tail; at 32 several rows of every seed sit at
/// the cap.
const DEGREE_CAP: usize = 32;
/// Simulated gap between WAL records (50 k writes/s).
const WRITE_GAP_S: f64 = 20e-6;
/// Every 4th streamed op deletes a live row (as `spdist wal` does).
const DELETE_EVERY: usize = 4;
/// Offered read rate over the write stream's span.
const READ_QPS: f64 = 250e3;
/// Every this many read ids, one answer is checked against a rebuild.
const CHECK_EVERY: u64 = 50;

struct Setup {
    base: CsrMatrix<f32>,
    writes: Vec<TimedRecord<f32>>,
    reads: Vec<Request<f32>>,
    warm: Vec<Request<f32>>,
    proto: NearestNeighbors<f32>,
    threshold: usize,
    /// An engine and dataset whose base generation the warm-up replay
    /// has prepared, for the next timed replay to take.
    warmed: Option<(ServeEngine<f32>, MutableDataset<f32>)>,
}

/// Splits `m` into a base (first half) and a WAL inserting the rest,
/// deleting a live row every [`DELETE_EVERY`]th op.
fn split_stream(m: &CsrMatrix<f32>) -> (CsrMatrix<f32>, Wal<f32>) {
    let base_rows = m.rows() / 2;
    let base = m.slice_rows(0..base_rows);
    let mut wal = Wal::new(m.cols());
    let mut live: Vec<u64> = (0..base_rows as u64).collect();
    for (i, r) in (base_rows..m.rows()).enumerate() {
        if i % DELETE_EVERY == DELETE_EVERY - 1 {
            let victim = live.remove((i * 7 + 3) % live.len());
            wal.append_delete(victim);
        }
        wal.append_insert(m.row_indices(r), m.row_values(r));
        // Deletes never consume ids: the i-th insert is base_rows + i.
        live.push((base_rows + i) as u64);
    }
    (base, wal)
}

fn setup(seed: u64, tracer: &Tracer) -> Result<Setup, String> {
    let m = tracer.span("datasets.generate", || {
        let mut p = DatasetProfile::movielens().scaled_with(DIM_SCALE, DEGREE_SCALE);
        p.degree.max = DEGREE_CAP;
        p.generate(seed)
    });
    let (base, wal) = split_stream(&m);
    let writes: Vec<TimedRecord<f32>> = wal
        .records()
        .iter()
        .enumerate()
        .map(|(i, rec)| TimedRecord {
            at_s: i as f64 * WRITE_GAP_S,
            record: rec.clone(),
        })
        .collect();
    let span_s = writes.len() as f64 * WRITE_GAP_S;
    let reads = serving::first_arrivals(
        Workload::steady(seed, READ_QPS, 1.0),
        (READ_QPS * span_s).round() as usize,
        std::slice::from_ref(&m),
    );
    let warm = vec![Request {
        id: 0,
        dataset: 0,
        arrival_s: 0.0,
        row: m.slice_rows(0..1),
    }];
    let proto = NearestNeighbors::new(serving::device(false), Distance::Euclidean).with_options(
        PairwiseOptions {
            strategy: Strategy::NaiveCsr,
            ..PairwiseOptions::default()
        },
    );
    // A quarter of the stream per compaction: several fire mid-stream.
    let threshold = writes.len() / 4;
    let mut s = Setup {
        base,
        writes,
        reads,
        warm,
        proto,
        threshold,
        warmed: None,
    };
    s.warmed = Some(warm_engine(&s, tracer)?);
    Ok(s)
}

/// A fresh engine and dataset, after a one-read warm-up replay has
/// prepared the base generation, so a timed replay's cache misses are
/// the compactions' re-prepares.
fn warm_engine(
    s: &Setup,
    tracer: &Tracer,
) -> Result<(ServeEngine<f32>, MutableDataset<f32>), String> {
    let mut engine = ServeEngine::new(serving::pool(false), serving::config());
    let mut dataset = MutableDataset::new(s.base.clone());
    tracer
        .span("serve.engine.replay_ingest", || {
            engine.replay_ingest(&s.proto, &mut dataset, &[], &s.warm, 0)
        })
        .map_err(|e| format!("warm-up replay: {e}"))?;
    Ok((engine, dataset))
}

struct Replay {
    report: IngestReport<f32>,
    prepares: u64,
    registry: serve::MetricsRegistry,
    host_s: f64,
}

/// One timed replay on a warmed engine and dataset: the one set-up
/// left, then (untimed) a fresh one per later iteration.
fn replay(s: &mut Setup, tracer: &Tracer) -> Result<Replay, String> {
    let (mut engine, mut dataset) = match s.warmed.take() {
        Some(warmed) => warmed,
        None => warm_engine(s, tracer)?,
    };
    let before = engine.metrics().counter("serve.prepares_total");
    let t = Instant::now();
    let report = tracer
        .span("serve.engine.replay_ingest", || {
            engine.replay_ingest(&s.proto, &mut dataset, &s.writes, &s.reads, s.threshold)
        })
        .map_err(|e| format!("ingest replay: {e}"))?;
    let host_s = t.elapsed().as_secs_f64();
    Ok(Replay {
        prepares: engine.metrics().counter("serve.prepares_total") - before,
        registry: engine.metrics().clone(),
        report,
        host_s,
    })
}

fn digest(r: &IngestReport<f32>) -> u64 {
    let mut d = Digest::default();
    serving::digest(&mut d, &r.serve);
    d.u64(r.wal.applied);
    d.u64(r.wal.rejected);
    for c in &r.compactions {
        d.u64(c.generation);
        d.f64(c.started_s);
        d.f64(c.ready_s);
    }
    d.finish()
}

/// Checks sampled answers byte for byte against a one-shot query over
/// `MutableDataset::rebuild` at the WAL prefix the answer's batch saw:
/// the writes that landed before the batch closed.
fn verify(s: &Setup, r: &IngestReport<f32>, tracer: &Tracer) -> Result<(), String> {
    tracer.span("perfbench.verify", || {
        let pool = serving::pool(false);
        let by_id: BTreeMap<u64, _> = r.responses().iter().map(|x| (x.id, x)).collect();
        let mut by_prefix: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for b in serving::batches(&r.serve) {
            let prefix = s.writes.partition_point(|w| w.at_s < b.close_s);
            for id in b.ids.into_iter().filter(|id| id % CHECK_EVERY == 0) {
                by_prefix.entry(prefix).or_default().push(id);
            }
        }
        for (prefix, ids) in by_prefix {
            let mut ds = MutableDataset::new(s.base.clone());
            for w in &s.writes[..prefix] {
                ds.apply(&w.record)
                    .map_err(|e| format!("oracle WAL apply: {e:?}"))?;
            }
            let rebuilt = tracer.span("serve.segment.rebuild", || ds.rebuild());
            let nn = s.proto.clone().fit(rebuilt);
            let rows: Vec<&CsrMatrix<f32>> =
                ids.iter().map(|&id| &s.reads[id as usize].row).collect();
            let q = serving::vstack(&rows, s.base.cols());
            let want = tracer
                .span("neighbors.kneighbors_sharded", || {
                    nn.kneighbors_sharded(&pool, &q, K)
                })
                .map_err(|e| format!("rebuild oracle query: {e}"))?;
            for (i, id) in ids.iter().enumerate() {
                let got = by_id
                    .get(id)
                    .ok_or_else(|| format!("read {id} was not served"))?;
                if got.indices != want.indices[i]
                    || serving::bits(&got.distances) != serving::bits(&want.distances[i])
                {
                    return Err(format!(
                        "read {id} differs from the rebuild at WAL prefix {prefix}"
                    ));
                }
            }
        }
        Ok(())
    })
}

/// Re-executes every batch's two arms against a mirror of the dataset
/// (WAL applied up to the batch, compactions started and landed when
/// the report says), on profiled devices (a `perfbench.attribute`
/// span, for the range attribution) or unprofiled ones
/// (`perfbench.reexecute`, for the neighbors layer's host time). The
/// summed simulated seconds must equal the engine's busy time bit for
/// bit.
fn reexecute(
    s: &Setup,
    r: &IngestReport<f32>,
    tracer: &Tracer,
    profiled: bool,
) -> Result<(LaunchTally, Metrics), String> {
    tracer.span(serving::reexecute_span(profiled), || {
        let pool = serving::pool(profiled);
        let mut ds = MutableDataset::new(s.base.clone());
        let mut pending: Option<(f64, CompactionJob<f32>)> = None;
        let mut started = 0usize;
        let mut next = 0usize;
        let mut generations: BTreeMap<u64, (NearestNeighbors<f32>, PreparedShards<f32>)> =
            BTreeMap::new();
        let mut tally = LaunchTally::default();
        let (mut busy, mut tiles, mut peak, mut warm_sim_s) = (0.0f64, 0usize, 0usize, 0.0);
        let land = |ds: &mut MutableDataset<f32>,
                    pending: &mut Option<(f64, CompactionJob<f32>)>,
                    t: f64| {
            if pending.as_ref().is_some_and(|(ready, _)| *ready <= t) {
                let (_, job) = pending.take().expect("checked above");
                ds.finish_compaction(job);
            }
        };
        for b in serving::batches(&r.serve) {
            while next < s.writes.len() && s.writes[next].at_s < b.close_s {
                let w = &s.writes[next];
                next += 1;
                land(&mut ds, &mut pending, w.at_s);
                ds.apply(&w.record)
                    .map_err(|e| format!("mirror WAL apply: {e:?}"))?;
                if pending.is_none() && ds.pending_ops() >= s.threshold {
                    let ready = match r.compactions.get(started) {
                        Some(c) if c.started_s == w.at_s => c.ready_s,
                        Some(_) => return Err("mirror started a compaction out of step".into()),
                        None => f64::INFINITY,
                    };
                    started += 1;
                    pending = Some((ready, ds.begin_compaction()));
                }
            }
            land(&mut ds, &mut pending, b.close_s);
            let plan = ds.rank_plan();
            let fresh = (ds.fresh_rows() > 0).then(|| (ds.fresh_rows(), plan.fresh_dead));
            if fresh != b.fresh_scan {
                return Err(format!(
                    "mirror fresh segment {fresh:?}, engine {:?}",
                    b.fresh_scan
                ));
            }
            let rows: Vec<&CsrMatrix<f32>> =
                b.ids.iter().map(|&id| &s.reads[id as usize].row).collect();
            let q = serving::vstack(&rows, ds.cols());
            let mut exec = 0.0;
            let mut arms = Vec::new();
            if ds.base().rows() > 0 {
                let (nn, shards) = match generations.entry(ds.generation()) {
                    std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::btree_map::Entry::Vacant(e) => {
                        let nn = s.proto.clone().fit(ds.base().clone());
                        let shards =
                            tracer.span("neighbors.prepare_shards", || nn.prepare_shards(&pool));
                        let (w, _) = tracer
                            .span("neighbors.warm_shards", || nn.warm_shards(&shards))
                            .map_err(|e| format!("warm_shards: {e}"))?;
                        warm_sim_s += w;
                        e.insert((nn, shards))
                    }
                };
                let k_base = (K + plan.base_dead).min(ds.base().rows());
                arms.push(
                    tracer
                        .span("neighbors.kneighbors_prepared", || {
                            nn.kneighbors_prepared(shards, &q, k_base)
                        })
                        .map_err(|e| format!("base arm: {e}"))?,
                );
            }
            if let Some((fresh_rows, fresh_dead)) = fresh {
                let nn = s.proto.clone().fit(ds.fresh_matrix());
                let k_fresh = (K + fresh_dead).min(fresh_rows);
                arms.push(
                    tracer
                        .span("neighbors.kneighbors_sharded", || {
                            nn.kneighbors_sharded(&pool, &q, k_fresh)
                        })
                        .map_err(|e| format!("fresh arm: {e}"))?,
                );
            }
            for a in &arms {
                exec += a.sim_seconds;
                tiles += a.batches;
                let m = a.peak_memory;
                peak = peak.max(m.input_bytes + m.output_bytes + m.workspace_bytes);
                tally.add(&a.launches);
            }
            busy += exec;
        }
        if busy.to_bits() != r.serve.busy_seconds.to_bits() {
            return Err(format!(
                "re-executed arms take {busy} s, the engine was busy {} s",
                r.serve.busy_seconds
            ));
        }
        let mut m = Metrics::default();
        m.set("neighbors.tiles", "count", tiles as f64);
        m.set(
            "neighbors.peak_device_mb",
            "MiB",
            peak as f64 / (1 << 20) as f64,
        );
        m.set("neighbors.prepare_sim_s", "s", warm_sim_s);
        Ok((tally, m))
    })
}

fn segment_layers(r: &IngestReport<f32>) -> Metrics {
    let scans: Vec<(usize, usize)> = serving::batches(&r.serve)
        .iter()
        .filter_map(|b| b.fresh_scan)
        .collect();
    let n = scans.len() as f64;
    let mut m = Metrics::default();
    m.set("serve.segment.fresh_scans", "count", n);
    m.set(
        "serve.segment.fresh_rows_mean",
        "rows",
        crate::layers::ratio(scans.iter().map(|s| s.0 as f64).sum(), n),
    );
    m.set(
        "serve.segment.tombstoned_mean",
        "rows",
        crate::layers::ratio(scans.iter().map(|s| s.1 as f64).sum(), n),
    );
    m.set(
        "serve.compact.completed",
        "count",
        r.compactions.len() as f64,
    );
    m.set(
        "serve.compact.sim_s",
        "s",
        r.compactions.iter().map(|c| c.seconds).sum(),
    );
    m.set("serve.wal.applied", "count", r.wal.applied as f64);
    m.set("serve.wal.rejected", "count", r.wal.rejected as f64);
    m
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Result<Outcome, String> {
    let (mut s, mut setup_s) = repeat_setup(ctx, tracer, || setup(ctx.seed, tracer))?;

    let mut first: Option<Replay> = None;
    let (iteration_s, digest) = tracer.span("perfbench.timed", || {
        timed_loop(
            ctx.seconds,
            || {
                let r = replay(&mut s, tracer)?;
                let out = (digest(&r.report), r.host_s);
                first.get_or_insert(r);
                Ok(out)
            },
            || setup_again(&mut setup_s, tracer, || setup(ctx.seed, tracer)),
        )
    })?;
    let first = first.expect("at least one iteration");
    let report = &first.report;
    serving::check_latency_split(&report.serve)?;
    if report.compactions.len() < 2 {
        return Err(format!(
            "only {} compactions landed",
            report.compactions.len()
        ));
    }
    let tail = serving::latency_tail(&report.serve);
    if stats::samples_beyond(99.0, tail.samples) < stats::MIN_BEYOND_TAIL {
        return Err(format!(
            "{} latencies leave too few beyond p99",
            tail.samples
        ));
    }
    verify(&s, report, tracer)?;

    let reads = s.reads.len() as u64;
    let attempted = reads + report.wal.appended;
    let failed = report.serve.rejected.len() as u64 + report.wal.rejected;
    let served = report.serve.responses.len() as f64;
    let mut e2e = Metrics::default();
    e2e.set("sim_s", "s", report.serve.busy_seconds);
    e2e.set("sim_p50_latency_us", "us", tail.p50 * 1e6);
    e2e.set("sim_p99_latency_us", "us", tail.p99 * 1e6);
    // No rate search here: the reads' capacity bound is the reads the
    // device answers per simulated busy second under this write mix.
    e2e.set(
        "sim_max_qps_at_slo",
        "queries/s",
        served / report.serve.busy_seconds,
    );
    e2e.set(
        "served_frac",
        "ratio",
        1.0 - stats::failed_frac(failed, 0, attempted),
    );

    let mut layers = Metrics::default();
    let mut rows = Vec::new();
    if tracer.enabled() {
        let replay_host_s = crate::fastest(&iteration_s);
        layers.extend(serving::engine_layers(
            &report.serve,
            &s.reads,
            &first.registry,
            first.prepares,
            replay_host_s,
        ));
        layers.extend(segment_layers(report));
        reexecute(&s, report, tracer, false)?;
        let (tally, neighbors) = reexecute(&s, report, tracer, true)?;
        let query_host_s = tracer
            .total_under_s("neighbors.kneighbors_prepared", "perfbench.reexecute")
            + tracer.total_under_s("neighbors.kneighbors_sharded", "perfbench.reexecute");
        layers.extend(tally.metrics(replay_host_s));
        layers.extend(neighbors);
        rows = tally.rows(&bench::report::MetricRow::new().label("workload", "serve_writes"));
        layers.set(
            "datasets.generate_s",
            "s",
            tracer.total_under_s("datasets.generate", "perfbench.setup") / setup_s.len() as f64,
        );
        layers.set(
            "neighbors.prepare_host_s",
            "s",
            tracer.total_under_s("neighbors.prepare_shards", "perfbench.reexecute")
                + tracer.total_under_s("neighbors.warm_shards", "perfbench.reexecute"),
        );
        layers.set("neighbors.query_host_s", "s", query_host_s);
    }

    Ok(Outcome {
        attempted: attempted * iteration_s.len() as u64,
        failed: failed * iteration_s.len() as u64,
        setup_s,
        queries_per_iteration: report.serve.responses.len() as u64,
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
            ("writes".into(), s.writes.len().to_string()),
            ("compactions".into(), report.compactions.len().to_string()),
        ],
    })
}
