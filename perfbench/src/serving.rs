//! What `serve_reads` and `serve_writes` share: the engine settings,
//! batch reconstruction from request spans, and the `serve.engine` /
//! `serve.cache` numbers read off a replay.

use crate::layers::{ratio, Metrics};
use crate::stats::{self, Tail};
use crate::Digest;
use gpu_sim::Device;
use neighbors::MultiDevice;
use serve::{IndexMode, MetricsRegistry, Request, ServeConfig, ServeReport, SpanEvent, Workload};
use sparse::{CsrMatrix, Idx};

pub const K: usize = 10;
pub const MAX_BATCH: usize = 32;
pub const MAX_WAIT_S: f64 = 20e-6;
pub const DEVICES: usize = 2;
pub const HOST_THREADS: usize = 1;
/// Growth factor between adjacent rates of the max-rate search grid.
pub const RATE_STEP: f64 = 1.02;

/// The serving configuration both workloads use. The queue never
/// sheds: overload shows as latency and backlog, not refusals.
pub fn config() -> ServeConfig {
    ServeConfig {
        k: K,
        max_batch: MAX_BATCH,
        max_wait_s: MAX_WAIT_S,
        max_queue: usize::MAX,
        per_query_prepare: false,
        admission: None,
        index: IndexMode::Exact,
    }
}

pub fn device(profiled: bool) -> Device {
    Device::volta()
        .with_host_threads(HOST_THREADS)
        .with_profiler(profiled)
}

pub fn pool(profiled: bool) -> MultiDevice {
    MultiDevice::replicate(&device(profiled), DEVICES)
}

/// The span a traced run's re-execution of the served batches runs
/// in: profiled for the per-range attribution, unprofiled for the host
/// time of the neighbors calls (the profiler's own cost left out).
pub fn reexecute_span(profiled: bool) -> &'static str {
    if profiled {
        "perfbench.attribute"
    } else {
        "perfbench.reexecute"
    }
}

/// The first `n` arrivals of `workload`'s open-loop stream, whatever
/// its duration: a fixed count keeps the Poisson draw of how many
/// requests arrive from moving every per-replay total with the seed.
pub fn first_arrivals(workload: Workload, n: usize, pools: &[CsrMatrix<f32>]) -> Vec<Request<f32>> {
    // Long enough that fewer than n arrivals is a > 10-sigma event.
    let duration_s = (n as f64 + 10.0 * (n as f64).sqrt() + 10.0) / workload.base_qps;
    let mut requests = Workload {
        duration_s,
        diurnal_period_s: duration_s,
        ..workload
    }
    .generate(pools);
    assert!(
        requests.len() >= n,
        "stream has {} of {n} arrivals",
        requests.len()
    );
    requests.truncate(n);
    requests
}

/// Distances by their bits, for byte-identity checks.
pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Stacks single-row queries into one batch matrix, in order.
pub fn vstack(rows: &[&CsrMatrix<f32>], cols: usize) -> CsrMatrix<f32> {
    let mut indptr = vec![0];
    let mut indices: Vec<Idx> = Vec::new();
    let mut values = Vec::new();
    for r in rows {
        indices.extend_from_slice(r.indices());
        values.extend_from_slice(r.values());
        indptr.push(indices.len());
    }
    CsrMatrix::from_parts(rows.len(), cols, indptr, indices, values)
        .expect("stacking valid rows keeps CSR invariants")
}

/// One executed batch, rebuilt from the request spans.
pub struct Batch {
    /// When the batch closed (its `BatchAdmit` event).
    pub close_s: f64,
    /// Request ids in the order the engine stacked them.
    pub ids: Vec<u64>,
    /// `(fresh rows, tombstoned)` of its `FreshScan` event, if any.
    pub fresh_scan: Option<(usize, usize)>,
}

/// Batches in execution order. Spans are in `(arrival, id)` order,
/// which is the order requests joined their batch.
pub fn batches<T>(report: &ServeReport<T>) -> Vec<Batch> {
    let mut out: Vec<Option<Batch>> = Vec::new();
    for span in &report.spans {
        let mut admit = None;
        let mut fresh = None;
        for e in &span.events {
            match e.event {
                SpanEvent::BatchAdmit { batch, .. } => admit = Some((batch, e.t_s)),
                SpanEvent::FreshScan { rows, tombstoned } => fresh = Some((rows, tombstoned)),
                _ => {}
            }
        }
        let Some((batch, close_s)) = admit else {
            continue;
        };
        if out.len() <= batch {
            out.resize_with(batch + 1, || None);
        }
        out[batch]
            .get_or_insert_with(|| Batch {
                close_s,
                ids: Vec::new(),
                fresh_scan: fresh,
            })
            .ids
            .push(span.request_id);
    }
    out.into_iter()
        .map(|b| b.expect("batch ids are dense"))
        .collect()
}

/// Time from the last arrival until the last completion.
pub fn drain_lag_s<T>(report: &ServeReport<T>, requests: &[Request<T>]) -> f64 {
    let last_arrival = requests.iter().map(|r| r.arrival_s).fold(0.0, f64::max);
    let last_completion = report
        .responses
        .iter()
        .map(|r| r.completion_s)
        .fold(0.0, f64::max);
    last_completion - last_arrival
}

/// Latency tail over every response, by exact nearest rank.
pub fn latency_tail<T>(report: &ServeReport<T>) -> Tail {
    let lat: Vec<f64> = report.responses.iter().map(|r| r.latency_s()).collect();
    stats::tail(&lat)
}

/// Fitted rise of queue wait (dispatch − arrival) over the stream.
pub fn backlog_growth_s<T>(report: &ServeReport<T>) -> f64 {
    let points: Vec<(f64, f64)> = report
        .responses
        .iter()
        .map(|r| (r.arrival_s, r.dispatch_s - r.arrival_s))
        .collect();
    stats::trend_rise(&points)
}

/// Whether a replay meets the SLO ([`stats::meets_slo`]); `failed`
/// counts refusals and rejected writes.
pub fn meets<T>(report: &ServeReport<T>, failed: u64) -> bool {
    stats::meets_slo(
        failed,
        latency_tail(report).p99,
        backlog_growth_s(report),
        MAX_WAIT_S,
    )
}

/// Every simulated output of a replay.
pub fn digest(d: &mut Digest, report: &ServeReport<f32>) {
    d.f64(report.busy_seconds);
    d.f64(report.makespan_s);
    d.u64(report.batches as u64);
    d.u64(report.rejected.len() as u64);
    for r in &report.responses {
        d.u64(r.id);
        d.f64(r.arrival_s);
        d.f64(r.dispatch_s);
        d.f64(r.completion_s);
        d.neighbors(&r.indices, &r.distances);
    }
}

/// `serve.engine.*` and `serve.cache.*` numbers of one replay.
/// `prepares` is the registry's `serve.prepares_total` gained during
/// that replay; `registry` supplies the occupancy gauge, so its most
/// recent replay must be this one.
pub fn engine_layers(
    report: &ServeReport<f32>,
    requests: &[Request<f32>],
    registry: &MetricsRegistry,
    prepares: u64,
    replay_host_s: f64,
) -> Metrics {
    let mut m = Metrics::default();
    let wait: Vec<f64> = report
        .responses
        .iter()
        .map(|r| r.dispatch_s - r.arrival_s)
        .collect();
    let exec: Vec<f64> = report
        .responses
        .iter()
        .map(|r| r.completion_s - r.dispatch_s)
        .collect();
    let (wait, exec) = (stats::tail(&wait), stats::tail(&exec));
    m.set("serve.engine.queue_wait_p50_us", "us", wait.p50 * 1e6);
    m.set("serve.engine.queue_wait_p99_us", "us", wait.p99 * 1e6);
    m.set("serve.engine.exec_p50_us", "us", exec.p50 * 1e6);
    m.set("serve.engine.exec_p99_us", "us", exec.p99 * 1e6);
    m.set("serve.engine.batches", "count", report.batches as f64);
    m.set(
        "serve.engine.batch_occupancy",
        "ratio",
        registry.gauge("serve.batch_occupancy").unwrap_or(0.0),
    );
    m.set(
        "serve.engine.device_busy_frac",
        "ratio",
        ratio(report.busy_seconds, report.makespan_s),
    );
    m.set(
        "serve.engine.drain_lag_us",
        "us",
        drain_lag_s(report, requests) * 1e6,
    );
    m.set("serve.engine.replay_host_s", "s", replay_host_s);
    let c = report.cache;
    m.set(
        "serve.cache.hit_ratio",
        "ratio",
        ratio(c.hits as f64, (c.hits + c.misses) as f64),
    );
    m.set("serve.cache.misses", "count", c.misses as f64);
    m.set("serve.cache.evictions", "count", c.evictions as f64);
    m.set("serve.cache.prepares", "count", prepares as f64);
    m
}

/// Checks the latency identity every engine number above rests on:
/// queue wait plus execution is the response latency.
pub fn check_latency_split<T>(report: &ServeReport<T>) -> Result<(), String> {
    for r in &report.responses {
        let split = (r.dispatch_s - r.arrival_s) + (r.completion_s - r.dispatch_s);
        if (split - r.latency_s()).abs() > 4.0 * f64::EPSILON * r.completion_s.abs().max(1e-12) {
            return Err(format!(
                "request {}: wait + exec = {split}, latency = {}",
                r.id,
                r.latency_s()
            ));
        }
        if r.dispatch_s < r.arrival_s || r.completion_s < r.dispatch_s {
            return Err(format!("request {}: timestamps out of order", r.id));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use neighbors::NearestNeighbors;
    use semiring::Distance;

    fn tiny() -> CsrMatrix<f32> {
        let mut data = vec![0.0f32; 24 * 10];
        for r in 0..24 {
            for c in 0..10 {
                if (r + 3 * c) % 4 == 0 {
                    data[r * 10 + c] = 1.0 + r as f32 / 5.0 + c as f32 / 17.0;
                }
            }
        }
        CsrMatrix::from_dense(24, 10, &data)
    }

    fn burst(config: ServeConfig) -> (ServeReport<f32>, Vec<Request<f32>>) {
        let m = tiny();
        let nn = NearestNeighbors::new(device(false), Distance::Euclidean).fit(m.clone());
        let requests = serve::replay_rows(&m, 0.0);
        let mut engine = serve::ServeEngine::new(pool(false), config);
        let report = engine
            .replay(std::slice::from_ref(&nn), &requests)
            .expect("replay runs");
        (report, requests)
    }

    #[test]
    fn queue_wait_plus_exec_is_latency_for_every_response() {
        let (report, requests) = burst(ServeConfig {
            max_batch: 4,
            ..config()
        });
        assert_eq!(report.responses.len(), requests.len());
        check_latency_split(&report).unwrap();
    }

    #[test]
    fn failed_frac_is_refused_over_attempted_under_shedding() {
        let (report, requests) = burst(ServeConfig {
            max_batch: 4,
            max_queue: 6,
            ..config()
        });
        let refused = report.rejected.len() as u64;
        assert!(refused > 0, "a 6-deep queue must shed a 24-request burst");
        let attempted = (report.responses.len() + report.rejected.len()) as u64;
        assert_eq!(attempted, requests.len() as u64);
        let frac = stats::failed_frac(refused, 0, attempted);
        assert_eq!(frac, refused as f64 / requests.len() as f64);
        assert_eq!(frac, report.shed_fraction());
        assert!(!meets(&report, refused), "a shedding replay misses the SLO");
    }

    #[test]
    fn batches_rebuilt_from_spans_cover_every_response_once() {
        let (report, requests) = burst(ServeConfig {
            max_batch: 5,
            ..config()
        });
        let batches = batches(&report);
        assert_eq!(batches.len(), report.batches);
        let mut ids: Vec<u64> = batches.iter().flat_map(|b| b.ids.clone()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..requests.len() as u64).collect::<Vec<_>>());
        assert!(batches.iter().all(|b| b.ids.len() <= 5));
    }
}
