//! The repository benchmark: one command that runs a named workload
//! through the public API, checks its answers, and prints every metric
//! with its unit. See `perfbench/README.md` for the workloads, the
//! metrics and which layer moves which metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload knn_batch --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the
//! workload untraced and then again with spans around every layer call
//! (plus a sim-prof attribution pass), checks that every simulated
//! output of the two runs is bit-identical, prints the per-layer
//! metrics, and writes them as bench.v1 rows and the spans as a
//! chrome-trace under `perfbench/out/`.

mod knn_batch;
mod layers;
mod serve_reads;
mod serve_writes;
mod serving;
mod stats;
mod trace;

use bench::report::{BenchReport, MetricRow};
use layers::Metrics;
use std::hash::{DefaultHasher, Hasher};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics every workload prints with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("host_qps", "queries/s"),
    ("host_peak_rss_mb", "MiB"),
    ("sim_s", "s"),
    ("sim_p50_latency_us", "us"),
    ("sim_p99_latency_us", "us"),
    ("sim_max_qps_at_slo", "queries/s"),
    ("served_frac", "ratio"),
];

/// Per-layer metrics every workload prints with `--trace 1`; a layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("datasets.generate_s", "s"),
    ("gpu-sim.issues", "count"),
    ("gpu-sim.launches", "count"),
    ("gpu-sim.blocks", "count"),
    ("gpu-sim.issues_per_host_s", "1/s"),
    ("kernels.hybrid_pass_hash_sim_s", "s"),
    ("kernels.hybrid_pass_dense_sim_s", "s"),
    ("kernels.naive_csr_sim_s", "s"),
    ("kernels.row_norms_sim_s", "s"),
    ("kernels.expansion_sim_s", "s"),
    ("kernels.top_k_select_sim_s", "s"),
    ("kernels.finalize_sim_s", "s"),
    ("kernels.global_bytes", "B"),
    ("kernels.coalescing_eff", "ratio"),
    ("kernels.l2_unique_frac", "ratio"),
    ("kernels.smem_accesses", "count"),
    ("kernels.bank_conflict_ratio", "ratio"),
    ("kernels.divergence_ratio", "ratio"),
    ("kernels.atomic_conflict_ratio", "ratio"),
    ("kernels.barriers", "count"),
    ("kernels.occupancy", "ratio"),
    ("kernels.memory_bound_frac", "ratio"),
    ("neighbors.prepare_host_s", "s"),
    ("neighbors.prepare_sim_s", "s"),
    ("neighbors.query_host_s", "s"),
    ("neighbors.tiles", "count"),
    ("neighbors.peak_device_mb", "MiB"),
    ("serve.engine.queue_wait_p50_us", "us"),
    ("serve.engine.queue_wait_p99_us", "us"),
    ("serve.engine.exec_p50_us", "us"),
    ("serve.engine.exec_p99_us", "us"),
    ("serve.engine.batches", "count"),
    ("serve.engine.batch_occupancy", "ratio"),
    ("serve.engine.device_busy_frac", "ratio"),
    ("serve.engine.drain_lag_us", "us"),
    ("serve.engine.replay_host_s", "s"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.misses", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.prepares", "count"),
    ("serve.segment.fresh_scans", "count"),
    ("serve.segment.fresh_rows_mean", "rows"),
    ("serve.segment.tombstoned_mean", "rows"),
    ("serve.compact.completed", "count"),
    ("serve.compact.sim_s", "s"),
    ("serve.wal.applied", "count"),
    ("serve.wal.rejected", "count"),
    ("trace.host_overhead_frac", "ratio"),
];

/// How often each run repeats its set-up before the timed phase;
/// [`SETUP_BURST`] more repetitions follow every timed iteration, and
/// `setup_s` is the median of them all. A set-up takes milliseconds: its first
/// repetitions run on cold caches and a fresh heap, and a shared host
/// speeds up and slows down for stretches of seconds, so the median
/// samples warm repetitions across the whole run.
pub const SETUP_REPS: usize = 11;

/// Set-up repetitions after each timed iteration.
pub const SETUP_BURST: usize = 3;

/// What one workload run needs to know.
pub struct Ctx {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Host seconds the timed phase runs for (at least
    /// [`MIN_ITERATIONS`] iterations).
    pub seconds: f64,
    /// When the run began; the first set-up is timed from here.
    pub start: Instant,
}

/// Fewest timed iterations a run makes, however short `--seconds` is.
pub const MIN_ITERATIONS: usize = 3;

/// Everything one workload run measured.
pub struct Outcome {
    /// Queries (or requests) submitted in the timed phase.
    pub attempted: u64,
    /// Of those, refused or errored.
    pub failed: u64,
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host seconds of each timed iteration.
    pub iteration_s: Vec<f64>,
    /// Queries answered per timed iteration.
    pub queries_per_iteration: u64,
    /// Workload-computed end-to-end metrics (the simulated ones and
    /// `served_frac`); `main` adds the host-clock ones.
    pub e2e: Metrics,
    /// Per-layer metrics (filled when tracing).
    pub layers: Metrics,
    /// Extra bench.v1 rows (per-kernel and per-range, when tracing).
    pub rows: Vec<MetricRow>,
    /// Hash of every simulated output, for traced/untraced identity.
    pub digest: u64,
    /// `key=value` facts printed with the result (seed, threads, ...).
    pub facts: Vec<(String, String)>,
}

/// Bit-exact hash of simulated outputs.
#[derive(Default)]
pub struct Digest(DefaultHasher);

impl Digest {
    /// Folds in an f64 by its bits.
    pub fn f64(&mut self, v: f64) {
        self.0.write_u64(v.to_bits());
    }

    /// Folds in an f32 by its bits.
    pub fn f32(&mut self, v: f32) {
        self.0.write_u32(v.to_bits());
    }

    /// Folds in an integer.
    pub fn u64(&mut self, v: u64) {
        self.0.write_u64(v);
    }

    /// Folds in a neighbor list.
    pub fn neighbors(&mut self, indices: &[usize], distances: &[f32]) {
        self.u64(indices.len() as u64);
        for (&i, &d) in indices.iter().zip(distances) {
            self.u64(i as u64);
            self.f32(d);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Runs `setup` in a `perfbench.setup` span timed from `t0`, appends
/// its host seconds to `times` and returns its state.
fn timed_setup<S>(
    t0: Instant,
    times: &mut Vec<f64>,
    tracer: &Tracer,
    setup: impl FnOnce() -> Result<S, String>,
) -> Result<S, String> {
    let state = tracer.span("perfbench.setup", setup)?;
    times.push(t0.elapsed().as_secs_f64());
    Ok(state)
}

/// Runs `setup` [`SETUP_REPS`] times and keeps the last state, with
/// each repetition's host seconds; the first is timed from the start
/// of the run.
pub fn repeat_setup<S>(
    ctx: &Ctx,
    tracer: &Tracer,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut state = None;
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 { ctx.start } else { Instant::now() };
        let s = timed_setup(t0, &mut times, tracer, &mut setup)?;
        // The previous state is dropped outside the timed span.
        state = Some(s);
    }
    Ok((state.expect("SETUP_REPS > 0"), times))
}

/// Times [`SETUP_BURST`] more set-up repetitions into `times`,
/// dropping each state once timed.
pub fn setup_again<S>(
    times: &mut Vec<f64>,
    tracer: &Tracer,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(), String> {
    for _ in 0..SETUP_BURST {
        timed_setup(Instant::now(), times, tracer, &mut setup)?;
    }
    Ok(())
}

/// Runs `iterate` until `seconds` of host time have passed (and at
/// least [`MIN_ITERATIONS`] times), and `between` after each iteration
/// (more set-up repetitions, outside the iteration's time). `iterate` returns a digest of
/// its simulated outputs and the host seconds of the part it times;
/// every iteration must reproduce the first one's digest.
pub fn timed_loop(
    seconds: f64,
    mut iterate: impl FnMut() -> Result<(u64, f64), String>,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<(Vec<f64>, u64), String> {
    let begin = Instant::now();
    let mut times = Vec::new();
    let mut first = None;
    while times.len() < MIN_ITERATIONS || begin.elapsed().as_secs_f64() < seconds {
        let (digest, host_s) = iterate()?;
        between()?;
        times.push(host_s);
        if *first.get_or_insert(digest) != digest {
            return Err(format!(
                "timed iteration {} produced different simulated output than the first",
                times.len()
            ));
        }
    }
    Ok((times, first.expect("at least one iteration")))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, ctx: &Ctx, tracer: &Tracer) -> Result<Outcome, String> {
    match name {
        "knn_batch" => knn_batch::run(ctx, tracer),
        "serve_reads" => serve_reads::run(ctx, tracer),
        "serve_writes" => serve_writes::run(ctx, tracer),
        _ => unreachable!("workload name checked in main"),
    }
}

/// The fastest of a run's timed iterations. Interference from other
/// tenants of a shared host only ever slows an iteration, and on a
/// 2-vCPU VM it comes and goes over tens of seconds (±20 %), more than
/// any run-length median smooths out; the fastest iteration is the
/// steadiest estimate of what the code itself costs.
pub fn fastest(iteration_s: &[f64]) -> f64 {
    iteration_s.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(o: &Outcome) -> Result<Metrics, String> {
    let mut m = o.e2e.clone();
    m.set("setup_s", "s", stats::median(&o.setup_s));
    m.set(
        "host_qps",
        "queries/s",
        o.queries_per_iteration as f64 / fastest(&o.iteration_s),
    );
    m.set("host_peak_rss_mb", "MiB", peak_rss_mb()?);
    Ok(m)
}

fn json_metrics(m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|(k, (v, unit))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
    format!("{{{}}}", body.join(", "))
}

/// Keeps exactly the metrics of `list`, after checking the workload
/// produced no unlisted or non-finite ones.
fn select(m: &Metrics, list: &[(&str, &'static str)], fill_zero: bool) -> Result<Metrics, String> {
    if let Some(extra) = m.0.keys().find(|k| !list.iter().any(|(n, _)| n == k)) {
        return Err(format!("metric {extra} is not declared"));
    }
    let mut out = Metrics::default();
    for &(name, unit) in list {
        let v = match m.get(name) {
            Some(v) => v,
            None if fill_zero => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        out.set(name, unit, v);
    }
    Ok(out)
}

fn print_result(correct: bool, o: Option<&Outcome>, metrics: &Metrics) {
    let (attempted, failed) = o.map_or((0, 0), |o| (o.attempted, o.failed));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(metrics)
    );
}

/// Writes the traced run's bench.v1 rows and chrome-trace, after
/// checking both with the validators `xtask check_bench_json` uses.
fn write_trace_outputs(
    args: &Args,
    facts: &[(String, String)],
    e2e: &Metrics,
    layers: &Metrics,
    rows: &[MetricRow],
    tracer: &Tracer,
) -> Result<Vec<String>, String> {
    let mut base = MetricRow::new()
        .label("workload", &args.workload)
        .label("seed", &args.seed.to_string());
    for (k, v) in facts {
        base = base.label(k, v);
    }
    let mut report = BenchReport::new("perfbench");
    let mut e2e_row = base.clone().label("layer", "end_to_end");
    for (name, (v, _)) in &e2e.0 {
        e2e_row = e2e_row.value(name, *v);
    }
    let p50 = e2e.get("sim_p50_latency_us").unwrap_or(0.0) * 1e-6;
    let p99 = e2e.get("sim_p99_latency_us").unwrap_or(0.0) * 1e-6;
    report.push(
        e2e_row
            .value("p50_latency_s", p50)
            .value("p99_latency_s", p99),
    );
    for (name, (v, unit)) in &layers.0 {
        report.push(
            base.clone()
                .label(
                    "layer",
                    name.rsplit_once('.').map_or(name.as_str(), |(l, _)| l),
                )
                .label("metric", name)
                .label("unit", unit)
                .value("value", *v),
        );
    }
    report.rows.extend(rows.iter().cloned());
    let json = report.to_json();
    bench::validate_report(&json)?;
    bench::validate_latency_percentiles(&json)?;
    let chrome = trace::chrome_trace(&format!("perfbench {}", args.workload), &tracer.spans());
    bench::validate_chrome_trace(&chrome)?;

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let bench_path = dir.join(format!("{stem}.bench.json"));
    let trace_path = dir.join(format!("{stem}.trace.json"));
    for (path, text) in [(&bench_path, &json), (&trace_path, &chrome)] {
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(vec![
        bench_path.display().to_string(),
        trace_path.display().to_string(),
    ])
}

fn run(args: &Args, start: Instant) -> Result<(Outcome, Metrics), String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        start,
    };
    let untraced = run_workload(&args.workload, &ctx, &Tracer::off())?;
    let e2e = select(&end_to_end(&untraced)?, &END_TO_END, false)?;
    if !args.trace {
        return Ok((untraced, e2e));
    }

    let traced_start = Instant::now();
    let tracer = Tracer::on(start);
    let ctx = Ctx {
        start: traced_start,
        ..ctx
    };
    let mut traced = run_workload(&args.workload, &ctx, &tracer)?;
    if traced.digest != untraced.digest {
        return Err("traced run's simulated outputs differ from the untraced run's".into());
    }
    let overhead = fastest(&traced.iteration_s) / fastest(&untraced.iteration_s) - 1.0;
    traced
        .layers
        .set("trace.host_overhead_frac", "ratio", overhead);
    let layers = select(&traced.layers, &PER_LAYER, true)?;
    let written = write_trace_outputs(args, &traced.facts, &e2e, &layers, &traced.rows, &tracer)?;
    for path in written {
        println!("wrote {path}");
    }
    Ok((traced, layers))
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <knn_batch|serve_reads|serve_writes> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if !["knn_batch", "serve_reads", "serve_writes"].contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    }
    // The simulator reads this variable once and lets it override every
    // device's host-thread setting, which would silently change what a
    // workload measures.
    if std::env::var_os("GPU_SIM_HOST_THREADS").is_some() {
        eprintln!("perfbench: refusing to run with GPU_SIM_HOST_THREADS set; unset it");
        return ExitCode::from(2);
    }
    match run(&args, start) {
        Ok((outcome, metrics)) => {
            let facts: Vec<String> = outcome
                .facts
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            println!(
                "perfbench workload={} seed={} trace={} {}",
                args.workload,
                args.seed,
                u8::from(args.trace),
                facts.join(" ")
            );
            for (name, (v, unit)) in &metrics.0 {
                println!("  {name:<34} {v:>16.6} {unit}");
            }
            print_result(true, Some(&outcome), &metrics);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            print_result(false, None, &Metrics::default());
            ExitCode::FAILURE
        }
    }
}
