//! The micro-batched request engine: a deterministic discrete-event
//! simulation of a k-NN serving loop. One event loop and one batch
//! dispatch serve both entry points: [`ServeEngine::replay`] over
//! immutable fitted datasets (exact or IVF) and
//! [`ServeEngine::replay_ingest`] over a [`MutableDataset`] fed by a
//! timed WAL stream, whose writes are the loop's optional third event
//! source.
//!
//! Requests arrive at simulated timestamps, one query row each, tagged
//! with the dataset they query. The engine keeps one open batch per
//! dataset and closes a batch when it fills ([`ServeConfig::max_batch`])
//! or when its oldest request has waited [`ServeConfig::max_wait_s`];
//! closed batches execute serially on the device pool (devices inside
//! the pool still parallelize each batch's slabs, exactly like
//! `kneighbors_sharded`). Admission control (DESIGN §14) runs three
//! levers hard-to-soft: arrivals are shed outright once the backlog —
//! queued plus not-yet-completed requests — reaches
//! [`ServeConfig::max_queue`] (the HTTP-429 cliff), shed with typed
//! reasons past the [`AdmissionConfig`] watermarks or an empty
//! per-dataset token bucket, and *degraded* (routed through the
//! bloom-filter smem representation, byte-identical answers) past the
//! degrade watermark.
//!
//! Observability: every replay threads a [`RequestTraces`] collector
//! through the event loop (enqueue → batch-admit → cache hit/miss →
//! prepare → per-shard launch → retry/degrade → merge → reply) and
//! folds the outcome into the engine's [`MetricsRegistry`] — counters,
//! gauges, latency histograms, and per-dataset SLO burn (DESIGN §13).
//! Both are pure functions of the request set, so snapshots and traces
//! are byte-identical across host-thread counts and arrival
//! permutations.
//!
//! Determinism: batching only changes *when* a query runs and *which
//! rows share a tile*, and per-row results are independent of tile
//! composition (DESIGN §10); the engine funnels into the same execution
//! core as `kneighbors_sharded`, so every served response is
//! byte-identical to the one-shot answer for the same query row.

use crate::admission::{AdmissionConfig, AdmissionDecision, Rejection, ShedReason, TokenBucket};
use crate::cache::{CacheOutcome, CacheStats, PreparedCache};
use crate::fingerprint::fingerprint;
use crate::metrics::{percentile_sorted, MetricsRegistry};
use crate::segment::{merge_arms, AppliedOp, ArmLists, CompactionJob, MutableDataset, RankPlan};
use crate::slo::{assess, SloBudget, SloReport};
use crate::span::{RequestSpan, RequestTraces, SpanEvent};
use crate::wal::{WalError, WalRecord};
use kernels::{KernelError, SmemMode};
use neighbors::{IvfIndex, IvfParams, IvfPrepared, KnnResult, MultiDevice, NearestNeighbors};
use sparse::{CsrMatrix, Idx, Real};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How the engine generates candidates for each batch (DESIGN §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexMode {
    /// Brute-force scan of every index row (the default): answers are
    /// exact and degraded batches reroute through the bloom-filter smem
    /// representation, byte-identical by DESIGN §11.
    #[default]
    Exact,
    /// IVF approximate tier: a seeded [`IvfIndex`] is fitted (and
    /// cached) per dataset; batches probe `nprobe` posting lists and
    /// rerank them exactly. Degraded batches *halve* `nprobe` instead
    /// of switching smem — trading recall, never answer integrity
    /// (every returned pair carries an exact kernel distance,
    /// deterministic across host threads and pool sizes).
    Ivf {
        /// Posting lists to fit. `0` = auto (`ceil(sqrt(rows))`).
        nlist: usize,
        /// Lists probed per query (clamped to `[1, nlist]`;
        /// `nprobe == nlist` routes through the exact serving path, so
        /// it reproduces the exact oracle byte for byte).
        nprobe: usize,
    },
}

/// Batching and admission knobs for the request engine.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Neighbors returned per query.
    pub k: usize,
    /// A batch dispatches as soon as it holds this many requests.
    pub max_batch: usize,
    /// ... or as soon as its oldest request has waited this long
    /// (simulated seconds).
    pub max_wait_s: f64,
    /// Reject arrivals once this many admitted requests are still
    /// queued or executing.
    pub max_queue: usize,
    /// Serve without the prepared-index cache: every batch re-prepares
    /// (re-uploads, re-warms) its index from scratch. Exists to measure
    /// exactly what the cache buys; never faster.
    pub per_query_prepare: bool,
    /// SLO-driven admission control: per-dataset token buckets and
    /// degrade/shed watermarks ([`AdmissionConfig`]). `None` keeps only
    /// the hard `max_queue` cliff.
    pub admission: Option<AdmissionConfig>,
    /// Candidate-generation tier ([`IndexMode::Exact`] by default).
    pub index: IndexMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            k: 10,
            max_batch: 8,
            max_wait_s: 200e-6,
            max_queue: 1024,
            per_query_prepare: false,
            admission: None,
            index: IndexMode::Exact,
        }
    }
}

/// One incoming query: a single row against dataset `dataset`.
#[derive(Debug, Clone)]
pub struct Request<T> {
    /// Caller-chosen request id, echoed in the response.
    pub id: u64,
    /// Which fitted dataset this query targets (index into the slice
    /// passed to [`ServeEngine::replay`]).
    pub dataset: usize,
    /// Simulated arrival time in seconds.
    pub arrival_s: f64,
    /// The query row (`1 × cols`).
    pub row: CsrMatrix<T>,
}

/// The served answer for one request.
#[derive(Debug, Clone)]
pub struct Response<T> {
    /// Echo of [`Request::id`].
    pub id: u64,
    /// Echo of [`Request::dataset`].
    pub dataset: usize,
    /// Neighbor indices, ascending by distance.
    pub indices: Vec<usize>,
    /// The corresponding distances.
    pub distances: Vec<T>,
    /// Simulated arrival time.
    pub arrival_s: f64,
    /// When the request's batch closed and was handed to the device.
    pub dispatch_s: f64,
    /// When the batch's kernels finished.
    pub completion_s: f64,
}

impl<T> Response<T> {
    /// Queue + execution latency in simulated seconds.
    pub fn latency_s(&self) -> f64 {
        self.completion_s - self.arrival_s
    }
}

/// Aggregate outcome of a replay.
#[derive(Debug, Clone)]
pub struct ServeReport<T> {
    /// Served responses, in completion order (ties by id).
    pub responses: Vec<Response<T>>,
    /// Requests shed by admission control (typed reason per id), in
    /// arrival order.
    pub rejected: Vec<Rejection>,
    /// Batches executed.
    pub batches: usize,
    /// Simulated seconds spent executing kernels (excludes queue idle
    /// time; includes norm warming charged to cache misses).
    pub busy_seconds: f64,
    /// Last completion minus first arrival.
    pub makespan_s: f64,
    /// Cache counters accumulated during this replay.
    pub cache: CacheStats,
    /// Per-request spans in canonical `(arrival_s, id)` order; every
    /// span ends in a terminal event (reply or rejection).
    pub spans: Vec<RequestSpan>,
    /// SLO assessments for datasets with a configured
    /// [`SloBudget`] (see [`ServeEngine::set_slo`]), in dataset order.
    pub slo: Vec<SloReport>,
    /// Requests served through degraded (low-footprint) execution after
    /// their batch crossed the admission degrade watermark.
    pub degraded_requests: u64,
    /// Batches dispatched in degraded mode.
    pub degraded_batches: u64,
}

impl<T> ServeReport<T> {
    /// Served queries per simulated second.
    pub fn qps(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.responses.len() as f64 / self.makespan_s
        } else {
            0.0
        }
    }

    /// The `p`-th latency percentile in simulated seconds, using the
    /// workspace-wide nearest-rank definition
    /// ([`crate::metrics::nearest_rank`]) — the same rank rule the
    /// `metrics.v1` histograms apply, so the stderr summary and the
    /// registry always agree to within one histogram bucket width.
    ///
    /// Defined for every input: 0.0 with no served responses, the
    /// single latency with one. Never panics — simulated latencies are
    /// finite by construction and sorting uses [`f64::total_cmp`].
    pub fn latency_percentile(&self, p: f64) -> f64 {
        let mut lat: Vec<f64> = self.responses.iter().map(Response::latency_s).collect();
        lat.sort_by(f64::total_cmp);
        percentile_sorted(&lat, p)
    }

    /// Shed counts per typed reason, in [`ShedReason::ALL`] order —
    /// what the serve CLI's stderr summary prints so shedding is
    /// visible without a metrics snapshot.
    pub fn shed_counts(&self) -> [(ShedReason, usize); 3] {
        ShedReason::ALL.map(|reason| {
            (
                reason,
                self.rejected.iter().filter(|r| r.reason == reason).count(),
            )
        })
    }

    /// Fraction of arrivals shed (0.0 when nothing arrived).
    pub fn shed_fraction(&self) -> f64 {
        let arrived = self.responses.len() + self.rejected.len();
        if arrived == 0 {
            0.0
        } else {
            self.rejected.len() as f64 / arrived as f64
        }
    }
}

/// Stacks single-row queries into one `rows × cols` batch matrix.
fn vstack<T: Real>(rows: &[&CsrMatrix<T>], cols: usize) -> CsrMatrix<T> {
    let mut indptr = Vec::with_capacity(rows.len() + 1);
    let mut indices: Vec<Idx> = Vec::new();
    let mut values: Vec<T> = Vec::new();
    indptr.push(0);
    for r in rows {
        indices.extend_from_slice(r.indices());
        values.extend_from_slice(r.values());
        indptr.push(indices.len());
    }
    CsrMatrix::from_parts(rows.len(), cols, indptr, indices, values)
        .expect("stacking valid rows preserves CSR invariants")
}

/// The serving loop: fitted estimators, a device pool, a prepared-index
/// cache, the batching configuration, and the metrics registry every
/// replay folds its signals into.
pub struct ServeEngine<T> {
    multi: MultiDevice,
    cache: PreparedCache<T>,
    config: ServeConfig,
    metrics: MetricsRegistry,
    slos: BTreeMap<usize, SloBudget>,
    /// Fitted IVF artifacts per dataset id (IVF mode only), keyed by
    /// content fingerprint + pool size so refits and reshards are
    /// detected exactly like [`PreparedCache`] misses.
    ivf: BTreeMap<usize, IvfEntry<T>>,
}

/// What `ivf_lookup` hands a dispatching batch: the fitted index, its
/// prepared posting lists, the fit's simulated seconds, and whether
/// this call paid them (false on a cache hit).
type IvfArtifact<T> = (Arc<IvfIndex<T>>, Arc<IvfPrepared<T>>, f64, bool);

/// One cached IVF artifact: the fitted index plus its posting lists
/// prepared for the engine's pool.
struct IvfEntry<T> {
    fingerprint: u64,
    nlist: usize,
    devices: usize,
    index: Arc<IvfIndex<T>>,
    prepared: Arc<IvfPrepared<T>>,
}

#[derive(Default)]
struct OpenBatch<'r, T> {
    requests: Vec<&'r Request<T>>,
    /// Sticky: set when any member was admitted past the degrade
    /// watermark; the whole batch then executes in degraded mode.
    degraded: bool,
}

/// Mutable state of one replay's event loop, bundled so
/// [`ServeEngine::dispatch`] stays a readable call.
#[derive(Default)]
struct ReplayState<'r, T> {
    open: Vec<OpenBatch<'r, T>>,
    responses: Vec<Response<T>>,
    rejected: Vec<Rejection>,
    /// (completion, count) of still-executing batches.
    inflight: Vec<(f64, usize)>,
    device_free_at: f64,
    batches: usize,
    busy_seconds: f64,
    traces: RequestTraces,
    retries: u64,
    degrades: u64,
    faults: u64,
    shard_launches: u64,
    prepares: u64,
    /// Per-dataset admission token buckets (empty without admission).
    buckets: Vec<TokenBucket>,
    /// Degraded-mode clones of each dataset's base estimator (same
    /// fitted index, bloom-filter smem; DESIGN §14), built on the first
    /// degraded batch and rebuilt only when the base generation moves.
    degraded_fit: Vec<Option<(u64, NearestNeighbors<T>)>>,
    degraded_requests: u64,
    degraded_batches: u64,
    /// `ann.*` accounting (IVF mode only; all zero in exact mode).
    ann_searches: u64,
    ann_probes: u64,
    ann_shortlist_rows: u64,
    ann_fits: u64,
    ann_degraded_nprobe: u64,
}

impl<'r, T: Real> ReplayState<'r, T> {
    fn new(datasets: usize, admission: Option<AdmissionConfig>) -> Self {
        Self {
            open: (0..datasets).map(|_| OpenBatch::default()).collect(),
            buckets: admission
                .map(|cfg| vec![TokenBucket::new(&cfg); datasets])
                .unwrap_or_default(),
            degraded_fit: (0..datasets).map(|_| None).collect(),
            ..Self::default()
        }
    }

    /// Appends `event` at `t_s` to the span of every request in `batch`.
    fn push_all(&mut self, batch: &ClosedBatch<'_, T>, t_s: f64, event: SpanEvent) {
        for req in &batch.requests {
            self.traces.push_event(req.id, t_s, event.clone());
        }
    }

    /// Span events (and the prepare count) for one cache lookup.
    fn push_cache(&mut self, batch: &ClosedBatch<'_, T>, hit: bool, evictions: u64, seconds: f64) {
        if hit {
            self.push_all(batch, batch.close_s, SpanEvent::CacheHit);
        } else {
            self.push_all(batch, batch.close_s, SpanEvent::CacheMiss { evictions });
            self.push_all(batch, batch.start_s, SpanEvent::Prepare { seconds });
            self.prepares += 1;
        }
    }

    /// Folds one executed arm into the batch's spans and the replay's
    /// shard-launch, retry and degrade accounting.
    fn account_arm(&mut self, batch: &ClosedBatch<'_, T>, result: &KnnResult<T>) {
        let start_s = batch.start_s;
        for (slot, &seconds) in result.per_device_seconds.iter().enumerate() {
            self.shard_launches += 1;
            let event = SpanEvent::ShardLaunch {
                shard: slot,
                device_slot: slot,
                seconds,
            };
            self.push_all(batch, start_s, event);
        }
        let (mut attempts, mut faults, mut downgraded) = (None, 0, None);
        for r in &result.resilience {
            attempts = attempts.max(Some(r.attempts));
            faults += r.faults_absorbed.len();
            self.retries += u64::from(r.attempts.saturating_sub(1));
            if r.downgraded {
                self.degrades += 1;
                downgraded = downgraded.or(Some(r));
            }
        }
        self.faults += faults as u64;
        let attempts = attempts.unwrap_or(1);
        if attempts > 1 || faults > 0 {
            self.push_all(batch, start_s, SpanEvent::Retry { attempts, faults });
        }
        if let Some(r) = downgraded {
            let strategy = format!("{:?}", r.final_strategy);
            self.push_all(batch, start_s, SpanEvent::Degrade { strategy });
        }
    }
}

/// A batch closed at `close_s` that starts executing at `start_s`,
/// once the device pool is free.
struct ClosedBatch<'r, T> {
    requests: Vec<&'r Request<T>>,
    /// The members' rows stacked into one query matrix.
    query: CsrMatrix<T>,
    degraded: bool,
    close_s: f64,
    start_s: f64,
}

/// One executed arm's candidate lists, as [`merge_arms`] takes them.
fn arm_lists<T>(result: &Option<KnnResult<T>>) -> Option<ArmLists<'_, T>> {
    result
        .as_ref()
        .map(|r| (r.indices.as_slice(), r.distances.as_slice()))
}

/// The estimator `nn` forced onto the bloom-filter smem representation
/// — the low-footprint end of the Hybrid→Hash→Bloom→NaiveCsr cascade.
fn bloom<T: Real>(nn: NearestNeighbors<T>) -> NearestNeighbors<T> {
    let mut opts = *nn.pairwise_options();
    opts.smem_mode = SmemMode::Bloom;
    nn.with_options(opts)
}

/// What one batch executes against. An immutable dataset is the
/// degenerate mutable one: generation 0, no fresh arm and no
/// tombstones, so it carries no [`Segment`] and skips [`merge_arms`].
struct BatchView<'s, T> {
    /// Query width.
    cols: usize,
    /// The base arm's estimator and neighbor count; `None` when the
    /// base has nothing to scan.
    base: Option<(&'s NearestNeighbors<T>, usize)>,
    /// The base's compaction generation (the prepared-cache key).
    generation: u64,
    segment: Option<Segment<'s, T>>,
}

/// The mutable-dataset side of a [`BatchView`].
struct Segment<'s, T> {
    plan: RankPlan,
    proto: &'s NearestNeighbors<T>,
    dataset: &'s MutableDataset<T>,
    /// The fresh arm's neighbor count; `None` when it has nothing to
    /// scan.
    fresh_k: Option<usize>,
}

impl<'s, T: Real> BatchView<'s, T> {
    fn new(
        fitted: &'s [NearestNeighbors<T>],
        ingest: Option<&'s mut Ingest<'_, T>>,
        d: usize,
        k: usize,
    ) -> Self {
        let Some(ing) = ingest else {
            let nn = &fitted[d];
            return Self {
                cols: nn.index().expect("fitted").cols(),
                base: Some((nn, k)),
                generation: 0,
                segment: None,
            };
        };
        let generation = ing.dataset.generation();
        let base_rows = ing.dataset.base().rows();
        let scan_base = base_rows > 0 && k > 0;
        if scan_base && !matches!(&ing.base_fit, Some((g, _)) if *g == generation) {
            ing.base_fit = Some((
                generation,
                ing.proto.clone().fit(ing.dataset.base().clone()),
            ));
        }
        let fresh_rows = ing.dataset.fresh_rows();
        if fresh_rows > 0 && k > 0 {
            ing.fresh_scans += 1;
        }
        let ing: &'s Ingest<'_, T> = ing;
        let plan = ing.dataset.rank_plan();
        // Each arm over-fetches k + its dead rows so tombstone masking
        // can never starve the merge.
        let k_base = (k + plan.base_dead).min(base_rows);
        let fresh_k = (fresh_rows > 0 && k > 0).then(|| (k + plan.fresh_dead).min(fresh_rows));
        Self {
            cols: ing.dataset.cols(),
            base: ing
                .base_fit
                .as_ref()
                .filter(|_| scan_base)
                .map(|(_, nn)| (nn, k_base)),
            generation,
            segment: Some(Segment {
                plan,
                proto: ing.proto,
                dataset: &*ing.dataset,
                fresh_k,
            }),
        }
    }
}

impl<T: Real> ServeEngine<T> {
    /// Creates an engine over `multi` with the given config and a cache
    /// budgeted from the pool's device spec
    /// ([`PreparedCache::for_pool`]).
    pub fn new(multi: MultiDevice, config: ServeConfig) -> Self {
        let cache = PreparedCache::for_pool(&multi);
        Self {
            multi,
            cache,
            config,
            metrics: MetricsRegistry::new(),
            slos: BTreeMap::new(),
            ivf: BTreeMap::new(),
        }
    }

    /// Switches the candidate-generation tier (builder form).
    pub fn with_index_mode(mut self, index: IndexMode) -> Self {
        self.config.index = index;
        self
    }

    /// Replaces the cache with one of an explicit byte budget.
    pub fn with_cache_budget(mut self, budget_bytes: usize) -> Self {
        self.cache = PreparedCache::new(budget_bytes);
        self
    }

    /// Attaches SLO-driven admission control (token buckets + degrade/
    /// shed watermarks) to subsequent replays.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.config.admission = Some(admission);
        self
    }

    /// Sets the latency SLO for `dataset` (builder form of
    /// [`Self::set_slo`]).
    pub fn with_slo(mut self, dataset: usize, budget: SloBudget) -> Self {
        self.set_slo(dataset, budget);
        self
    }

    /// Sets the latency SLO for `dataset`: subsequent replays assess
    /// the budget over that dataset's responses, report it in
    /// [`ServeReport::slo`], and record burn signals in the registry.
    pub fn set_slo(&mut self, dataset: usize, budget: SloBudget) {
        self.slos.insert(dataset, budget);
    }

    /// The engine's cache statistics so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The metrics registry accumulated over every replay so far.
    /// Counters accumulate across replays; gauges reflect the most
    /// recent replay; histograms accumulate observations.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Replays a request stream against `fitted` estimators (one per
    /// dataset id; each must already be [`NearestNeighbors::fit`]).
    /// Requests are processed in `(arrival_s, id)` order regardless of
    /// input order, so a replay is a pure function of its request set.
    ///
    /// # Errors
    ///
    /// Returns the first kernel error any batch produces, or a
    /// [`KernelError::ShapeMismatch`] when a request's dataset id is
    /// out of range.
    pub fn replay(
        &mut self,
        fitted: &[NearestNeighbors<T>],
        requests: &[Request<T>],
    ) -> Result<ServeReport<T>, KernelError> {
        self.run(fitted, None, requests)
    }

    /// Replays a merged stream of WAL writes and query requests against
    /// a [`MutableDataset`] (DESIGN §16). Queries are answered from two
    /// arms — the prepared base (through the generation-keyed cache)
    /// and a brute-force scan of the fresh segment — tombstone-masked
    /// and merged under the canonical `cmp_dist_idx` order into
    /// *live-rank* coordinates, so every response is byte-identical to
    /// a one-shot `kneighbors_sharded` over
    /// [`MutableDataset::rebuild`]'s matrix at the same instant.
    ///
    /// Semantics of time: a batch is answered against the dataset state
    /// at its dispatch instant, and every write first flushes the open
    /// batch (queries admitted before a write never see it). Once
    /// `dataset.pending_ops()` reaches `compact_threshold` (0 disables
    /// compaction), a background compaction snapshots the live state,
    /// re-prepares it as generation+1 off the serving lane (its warm
    /// time never blocks a batch), and atomically swaps in at the first
    /// event on or after its ready time. `proto` supplies the metric /
    /// device / kernel options; it does not need to be fitted.
    ///
    /// # Errors
    ///
    /// Returns kernel errors from either arm, or
    /// [`KernelError::ShapeMismatch`] when a request targets a dataset
    /// other than 0 (mutable replays serve exactly one dataset).
    /// Malformed WAL records are *not* errors: they are counted,
    /// reported in [`IngestReport::wal_errors`], and skipped — the log
    /// position advances so one poison record cannot wedge the stream.
    ///
    /// # Panics
    ///
    /// Panics in IVF mode: the approximate tier over mutable datasets
    /// is ROADMAP work, and serving it would break the byte-identity
    /// contract this method is defined by.
    pub fn replay_ingest(
        &mut self,
        proto: &NearestNeighbors<T>,
        dataset: &mut MutableDataset<T>,
        writes: &[TimedRecord<T>],
        requests: &[Request<T>],
        compact_threshold: usize,
    ) -> Result<IngestReport<T>, KernelError> {
        assert!(
            matches!(self.config.index, IndexMode::Exact),
            "mutable ingest serves the exact tier only"
        );
        let mut writes: Vec<&TimedRecord<T>> = writes.iter().collect();
        writes.sort_by(|a, b| {
            a.at_s
                .total_cmp(&b.at_s)
                .then(a.record.seq.cmp(&b.record.seq))
        });
        let mut ing = Ingest {
            proto,
            dataset,
            writes,
            next: 0,
            compact_threshold,
            pending: None,
            base_fit: None,
            wal: WalCounts::default(),
            wal_errors: Vec::new(),
            compactions_started: 0,
            compactions: Vec::new(),
            fresh_scans: 0,
        };
        let serve = self.run(&[], Some(&mut ing), requests)?;
        // A compaction still in flight at stream end stays pending: the
        // report's started/landed counts record the difference.
        self.record_ingest(&ing);
        Ok(IngestReport {
            serve,
            wal: ing.wal,
            wal_errors: ing.wal_errors,
            compactions_started: ing.compactions_started,
            compactions: ing.compactions,
            final_generation: ing.dataset.generation(),
        })
    }

    /// The one discrete-event loop behind [`Self::replay`] and
    /// [`Self::replay_ingest`]. Events are batch deadlines, writes (only
    /// when `ingest` is given) and arrivals; the earliest wins and ties
    /// resolve deadline → write → arrival, so a same-instant write still
    /// flushes the batch of earlier arrivals before mutating state.
    /// `fitted` holds one estimator per immutable dataset and is empty
    /// when `ingest` serves its single mutable dataset.
    fn run(
        &mut self,
        fitted: &[NearestNeighbors<T>],
        mut ingest: Option<&mut Ingest<'_, T>>,
        requests: &[Request<T>],
    ) -> Result<ServeReport<T>, KernelError> {
        let stats_before = self.cache.stats();
        let mut order: Vec<&Request<T>> = requests.iter().collect();
        order.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));

        let datasets = if ingest.is_some() { 1 } else { fitted.len() };
        let admission = self.config.admission;
        let mut st = ReplayState::new(datasets, admission);
        let mut next = 0usize;

        loop {
            // The earliest forced dispatch: an open batch whose oldest
            // request hits its wait deadline. Ties break by dataset id.
            let deadline = st
                .open
                .iter()
                .enumerate()
                .filter_map(|(d, b)| {
                    b.requests
                        .first()
                        .map(|r| (r.arrival_s + self.config.max_wait_s, d))
                })
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let write = ingest.as_deref().and_then(Ingest::next_write_s);
            let arrival = order.get(next).map(|r| r.arrival_s);

            if let Some((t, d)) = deadline
                .filter(|&(t, _)| write.is_none_or(|w| t <= w) && arrival.is_none_or(|a| t <= a))
            {
                self.dispatch(fitted, ingest.as_deref_mut(), &mut st, d, t)?;
            } else if let Some(w) = write.filter(|&w| arrival.is_none_or(|a| w <= a)) {
                // Read-your-writes boundary: queries already admitted
                // are answered against pre-write state.
                self.dispatch(fitted, ingest.as_deref_mut(), &mut st, 0, w)?;
                let ing = ingest.as_deref_mut().expect("writes come from an ingest");
                if ing.apply_next_write() {
                    self.start_compaction(ing, w)?;
                }
            } else if let Some(at) = arrival {
                let r = order[next];
                next += 1;
                if r.dataset >= datasets {
                    return Err(KernelError::ShapeMismatch {
                        a_cols: r.dataset,
                        b_cols: datasets,
                    });
                }
                st.inflight.retain(|&(done, _)| done > at);
                let backlog: usize = st.open.iter().map(|b| b.requests.len()).sum::<usize>()
                    + st.inflight.iter().map(|&(_, n)| n).sum::<usize>();
                st.traces.begin_request(r.id, r.dataset, r.arrival_s);
                let d = r.dataset;
                let decision = match admission {
                    Some(cfg) => st.buckets[d].admit(&cfg, at, backlog, self.config.max_queue),
                    None if backlog >= self.config.max_queue => {
                        AdmissionDecision::Shed(ShedReason::QueueFull)
                    }
                    None => AdmissionDecision::Admit,
                };
                match decision {
                    AdmissionDecision::Shed(reason) => {
                        st.rejected.push(Rejection { id: r.id, reason });
                        st.traces.reject_request(r.id, at, backlog, reason);
                        continue;
                    }
                    AdmissionDecision::Degrade => st.open[d].degraded = true,
                    AdmissionDecision::Admit => {}
                }
                st.open[d].requests.push(r);
                if st.open[d].requests.len() >= self.config.max_batch {
                    self.dispatch(fitted, ingest.as_deref_mut(), &mut st, d, at)?;
                }
            } else {
                break;
            }
        }

        let first_arrival = order.first().map(|r| r.arrival_s).unwrap_or(0.0);
        Ok(self.finish(st, first_arrival, stats_before))
    }

    /// Assembles one replay's report, folds it into the engine's
    /// registry, and assesses configured SLOs (filling
    /// [`ServeReport::slo`]).
    fn finish(
        &mut self,
        mut st: ReplayState<'_, T>,
        first_arrival: f64,
        before: CacheStats,
    ) -> ServeReport<T> {
        st.responses.sort_by(|a, b| {
            a.completion_s
                .total_cmp(&b.completion_s)
                .then(a.id.cmp(&b.id))
        });
        let makespan_s = st
            .responses
            .iter()
            .map(|r| r.completion_s)
            .fold(0.0f64, f64::max)
            - first_arrival;
        let after = self.cache.stats();
        let mut report = ServeReport {
            responses: st.responses,
            rejected: st.rejected,
            batches: st.batches,
            busy_seconds: st.busy_seconds,
            makespan_s: makespan_s.max(0.0),
            cache: CacheStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
                evictions: after.evictions - before.evictions,
                eviction_probes: after.eviction_probes - before.eviction_probes,
            },
            spans: st.traces.into_spans(),
            slo: Vec::new(),
            degraded_requests: st.degraded_requests,
            degraded_batches: st.degraded_batches,
        };

        let m = &mut self.metrics;
        let served = report.responses.len() as u64;
        let rejected = report.rejected.len() as u64;
        m.inc("serve.requests_arrived_total", served + rejected);
        m.inc("serve.requests_served_total", served);
        m.inc("serve.requests_rejected_total", rejected);
        for (reason, n) in report.shed_counts() {
            m.inc(&format!("serve.shed_{}_total", reason.name()), n as u64);
        }
        m.inc("serve.degraded_requests_total", report.degraded_requests);
        m.inc("serve.degraded_batches_total", report.degraded_batches);
        m.inc("serve.batches_total", report.batches as u64);
        m.inc("serve.cache_hits_total", report.cache.hits);
        m.inc("serve.cache_misses_total", report.cache.misses);
        m.inc("serve.cache_evictions_total", report.cache.evictions);
        m.inc("serve.retries_total", st.retries);
        m.inc("serve.degrades_total", st.degrades);
        m.inc("serve.faults_absorbed_total", st.faults);
        m.inc("serve.shard_launches_total", st.shard_launches);
        m.inc("serve.prepares_total", st.prepares);

        // `ann.*` only exists in IVF mode, so exact-mode snapshots are
        // byte-identical to pre-IVF builds.
        if st.ann_searches > 0 {
            m.inc("ann.searches_total", st.ann_searches);
            m.inc("ann.probes_total", st.ann_probes);
            m.inc("ann.shortlist_rows_total", st.ann_shortlist_rows);
            m.inc("ann.fits_total", st.ann_fits);
            m.inc("ann.degraded_nprobe_total", st.ann_degraded_nprobe);
            if let IndexMode::Ivf { nprobe, .. } = self.config.index {
                m.set_gauge("ann.nprobe", nprobe.max(1) as f64);
            }
        }

        let occupancy = if report.batches > 0 && self.config.max_batch > 0 {
            served as f64 / (report.batches as f64 * self.config.max_batch as f64)
        } else {
            0.0
        };
        m.set_gauge("serve.batch_occupancy", occupancy);
        m.set_gauge("serve.qps", report.qps());
        m.set_gauge("serve.busy_seconds", report.busy_seconds);
        m.set_gauge("serve.makespan_s", report.makespan_s);
        m.set_gauge(
            "serve.cache_resident_bytes",
            self.cache.resident_bytes() as f64,
        );
        m.set_gauge("serve.cache_budget_bytes", self.cache.budget_bytes() as f64);
        m.set_gauge("serve.p50_latency_s", report.latency_percentile(50.0));
        m.set_gauge("serve.p99_latency_s", report.latency_percentile(99.0));

        // Histograms record in canonical (completion, id) order, so
        // float sums are reproducible bit-for-bit.
        for r in &report.responses {
            m.observe("serve.latency_s", r.latency_s());
            m.observe("serve.queue_wait_s", r.dispatch_s - r.arrival_s);
            m.observe("serve.exec_s", r.completion_s - r.dispatch_s);
            m.observe(&format!("serve.d{}.latency_s", r.dataset), r.latency_s());
        }

        for (&dataset, &budget) in &self.slos {
            let pairs: Vec<(f64, f64)> = report
                .responses
                .iter()
                .filter(|r| r.dataset == dataset)
                .map(|r| (r.completion_s, r.latency_s()))
                .collect();
            let slo = assess(dataset, budget, &pairs);
            slo.record(m);
            report.slo.push(slo);
        }
        report
    }

    /// Returns the cached IVF artifact for `dataset` (fingerprint,
    /// `nlist`, and pool size all matching), fitting and preparing one
    /// on a miss. The returned flag says whether this call fitted, so
    /// the dispatching batch can be charged the fit's simulated time.
    fn ivf_lookup(
        &mut self,
        dataset: usize,
        nn: &NearestNeighbors<T>,
        nlist: usize,
    ) -> Result<IvfArtifact<T>, KernelError> {
        let index = nn.index().expect("fit() the estimator before serving");
        let fp = fingerprint(index);
        let nlist_eff = if nlist == 0 {
            (index.rows() as f64).sqrt().ceil() as usize
        } else {
            nlist
        }
        .max(1);
        if let Some(e) = self.ivf.get(&dataset) {
            if e.fingerprint == fp && e.nlist == nlist_eff && e.devices == self.multi.len() {
                return Ok((Arc::clone(&e.index), Arc::clone(&e.prepared), 0.0, false));
            }
        }
        let params = IvfParams {
            nlist: nlist_eff,
            ..IvfParams::default()
        };
        let ivf = Arc::new(IvfIndex::fit(nn, params)?);
        let prepared = Arc::new(ivf.prepare(&self.multi));
        let fit_seconds = ivf.fit_sim_seconds();
        self.ivf.insert(
            dataset,
            IvfEntry {
                fingerprint: fp,
                nlist: nlist_eff,
                devices: self.multi.len(),
                index: Arc::clone(&ivf),
                prepared: Arc::clone(&prepared),
            },
        );
        Ok((ivf, prepared, fit_seconds, true))
    }

    /// Closes dataset `d`'s open batch at `close_s` and executes it on
    /// the device pool. Exact batches run the base arm through the
    /// generation-keyed cache and, on a mutable dataset, a brute-force
    /// fresh arm, tombstone-masked and merged into live-rank
    /// coordinates; IVF batches probe the fitted posting lists.
    fn dispatch(
        &mut self,
        fitted: &[NearestNeighbors<T>],
        mut ingest: Option<&mut Ingest<'_, T>>,
        st: &mut ReplayState<'_, T>,
        d: usize,
        close_s: f64,
    ) -> Result<(), KernelError> {
        if let Some(ing) = ingest.as_deref_mut() {
            // Serve against the newest landed generation first.
            ing.land_ready_compaction(close_s);
        }
        let requests = std::mem::take(&mut st.open[d].requests);
        let degraded = std::mem::replace(&mut st.open[d].degraded, false);
        if requests.is_empty() {
            return Ok(());
        }
        let k = self.config.k;
        let view = BatchView::new(fitted, ingest, d, k);
        let rows: Vec<&CsrMatrix<T>> = requests.iter().map(|r| &r.row).collect();
        let batch = ClosedBatch {
            query: vstack(&rows, view.cols),
            requests,
            degraded,
            close_s,
            start_s: close_s.max(st.device_free_at),
        };
        let size = batch.requests.len();
        let admit = SpanEvent::BatchAdmit {
            batch: st.batches,
            size,
        };
        st.push_all(&batch, close_s, admit);

        let ivf = match self.config.index {
            IndexMode::Exact => None,
            IndexMode::Ivf { nlist, nprobe } => Some((nlist, nprobe)),
        };
        // Degraded exact batches run through the base estimator forced
        // onto the bloom-filter smem representation. Same fitted index,
        // same prepared shards, and every strategy produces
        // bit-identical distances (DESIGN §11), so degrading trades
        // occupancy headroom, never answer bytes. (IVF batches degrade
        // by lowering `nprobe` instead, in `ivf_arm`.)
        if degraded {
            st.degraded_batches += 1;
            st.degraded_requests += size as u64;
            if ivf.is_none() {
                if let Some((nn, _)) = view.base {
                    if !matches!(&st.degraded_fit[d], Some((g, _)) if *g == view.generation) {
                        st.degraded_fit[d] = Some((view.generation, bloom(nn.clone())));
                    }
                }
                let strategy = "smem=Bloom".to_string();
                st.push_all(&batch, close_s, SpanEvent::AdmissionDegrade { strategy });
            }
        }

        let mut prep_s = 0.0;
        let base_result = match (view.base, ivf) {
            (None, _) => None,
            (Some((nn, _)), Some((nlist, nprobe))) => {
                let (result, secs) = self.ivf_arm(st, &batch, d, nn, nlist, nprobe)?;
                prep_s += secs;
                Some(result)
            }
            (Some((nn, k_base)), None) => {
                let exec_nn = match &st.degraded_fit[d] {
                    Some((_, bloom_nn)) if degraded => bloom_nn,
                    _ => nn,
                };
                Some(if self.config.per_query_prepare {
                    // Baseline mode: pay uploads + norms on every batch
                    // (no cache involved, so no cache span events
                    // either).
                    st.prepares += 1;
                    exec_nn.kneighbors_sharded(&self.multi, &batch.query, k_base)?
                } else {
                    let (shards, outcome) =
                        self.cache
                            .lookup_generation(nn, &self.multi, view.generation)?;
                    let result = exec_nn.kneighbors_prepared(&shards, &batch.query, k_base)?;
                    let CacheOutcome {
                        hit,
                        evictions,
                        warm_seconds,
                    } = outcome;
                    st.push_cache(&batch, hit, evictions, warm_seconds);
                    prep_s += warm_seconds;
                    result
                })
            }
        };

        // Fresh arm: brute-force scan, re-uploaded every batch — that
        // is the cost compaction exists to bound.
        let fresh_result = match &view.segment {
            Some(
                seg @ Segment {
                    fresh_k: Some(k_fresh),
                    ..
                },
            ) => {
                let rows = seg.dataset.fresh_rows();
                let tombstoned = seg.plan.fresh_dead;
                st.push_all(&batch, close_s, SpanEvent::FreshScan { rows, tombstoned });
                let mut nn = seg.proto.clone();
                if degraded {
                    nn = bloom(nn);
                }
                let nn = nn.fit(seg.dataset.fresh_matrix());
                Some(nn.kneighbors_sharded(&self.multi, &batch.query, *k_fresh)?)
            }
            _ => None,
        };

        let mut exec_seconds = prep_s;
        for result in [&base_result, &fresh_result].into_iter().flatten() {
            exec_seconds += result.sim_seconds;
            st.account_arm(&batch, result);
        }
        let (indices, distances) = match &view.segment {
            Some(seg) => merge_arms(
                k,
                &seg.plan,
                arm_lists(&base_result),
                arm_lists(&fresh_result),
                size,
            ),
            None => {
                let r = base_result.expect("an immutable dataset always scans its base");
                (r.indices, r.distances)
            }
        };

        let completion_s = batch.start_s + exec_seconds;
        st.device_free_at = completion_s;
        st.busy_seconds += exec_seconds;
        st.batches += 1;
        st.inflight.push((completion_s, size));

        let answers = indices.into_iter().zip(distances);
        for (req, (indices, distances)) in batch.requests.into_iter().zip(answers) {
            if view.segment.is_some() {
                let generation = view.generation;
                st.traces
                    .push_event(req.id, completion_s, SpanEvent::SegmentMerge { generation });
            }
            st.traces.push_event(req.id, completion_s, SpanEvent::Merge);
            st.traces
                .finish_request(req.id, completion_s, completion_s - req.arrival_s);
            st.responses.push(Response {
                id: req.id,
                dataset: d,
                indices,
                distances,
                arrival_s: req.arrival_s,
                dispatch_s: batch.start_s,
                completion_s,
            });
        }
        Ok(())
    }

    /// Runs one IVF batch (DESIGN §15) and returns its result plus the
    /// fit/prepare seconds it was charged.
    fn ivf_arm(
        &mut self,
        st: &mut ReplayState<'_, T>,
        batch: &ClosedBatch<'_, T>,
        dataset: usize,
        nn: &NearestNeighbors<T>,
        nlist: usize,
        nprobe: usize,
    ) -> Result<(KnnResult<T>, f64), KernelError> {
        // The fitted IVF artifact is cached per dataset; the first
        // batch to touch a dataset pays the k-means fit the same way
        // the first exact batch pays norm warming.
        let (ivf, prepared, fit_seconds, fitted_now) = self.ivf_lookup(dataset, nn, nlist)?;
        st.push_cache(batch, !fitted_now, 0, fit_seconds);
        let mut prep_s = 0.0;
        if fitted_now {
            st.ann_fits += 1;
            prep_s += fit_seconds;
        }
        // Degrade cascade, IVF edition: under admission pressure the
        // batch probes half as many posting lists — visible in `ann.*`
        // counters and the span stream, recovered the moment pressure
        // lifts.
        let nprobe_eff = if batch.degraded {
            st.ann_degraded_nprobe += 1;
            let lowered = (nprobe.max(1) / 2).max(1);
            let strategy = format!("nprobe={lowered}");
            st.push_all(
                batch,
                batch.close_s,
                SpanEvent::AdmissionDegrade { strategy },
            );
            lowered
        } else {
            nprobe.max(1)
        };
        st.ann_searches += 1;
        if nprobe_eff >= ivf.nlist() {
            // Full probe degenerates to the exact tier: the same
            // `PreparedShards` artifact and execution core
            // `IndexMode::Exact` serves with, so the response bytes
            // equal the exact oracle's by construction (DESIGN §15) —
            // gathered posting-list slabs could only reproduce them to
            // re-association precision.
            let rows = batch.query.rows();
            st.ann_probes += (rows * ivf.nlist()) as u64;
            st.ann_shortlist_rows += (rows * ivf.index_rows()) as u64;
            let (shards, outcome) = self.cache.lookup_generation(nn, &self.multi, 0)?;
            if !outcome.hit {
                st.prepares += 1;
            }
            prep_s += outcome.warm_seconds;
            Ok((
                nn.kneighbors_prepared(&shards, &batch.query, self.config.k)?,
                prep_s,
            ))
        } else {
            let ans = ivf.search_prepared(&prepared, &batch.query, self.config.k, nprobe_eff)?;
            st.ann_probes += ans.stats.probes as u64;
            st.ann_shortlist_rows += ans.stats.shortlist_rows as u64;
            Ok((ans.knn, prep_s))
        }
    }

    /// Folds one ingest replay's `wal.*` / `compact.*` signals into the
    /// registry. Emitted only by ingest replays, so immutable-serving
    /// snapshots are byte-identical to pre-WAL builds.
    fn record_ingest(&mut self, ing: &Ingest<'_, T>) {
        let m = &mut self.metrics;
        m.inc("wal.records_appended_total", ing.wal.appended);
        m.inc("wal.records_applied_total", ing.wal.applied);
        m.inc("wal.records_rejected_total", ing.wal.rejected);
        m.inc("wal.inserts_total", ing.wal.inserts);
        m.inc("wal.deletes_total", ing.wal.deletes);
        m.inc("wal.fresh_scans_total", ing.fresh_scans);
        m.inc("compact.started_total", ing.compactions_started);
        m.inc("compact.completed_total", ing.compactions.len() as u64);
        for c in &ing.compactions {
            m.inc("compact.rows_total", c.rows as u64);
            m.inc(
                "compact.tombstones_cleared_total",
                c.cleared_tombstones as u64,
            );
            m.inc("compact.folded_fresh_total", c.folded_fresh as u64);
            m.observe("compact.seconds", c.seconds);
        }
        let dataset = &ing.dataset;
        m.set_gauge("wal.fresh_rows", dataset.fresh_rows() as f64);
        m.set_gauge("wal.tombstones", dataset.tombstone_count() as f64);
        m.set_gauge("wal.live_rows", dataset.live_rows() as f64);
        m.set_gauge("compact.generation", dataset.generation() as f64);
    }

    /// Snapshots the dataset and pre-warms the next generation's shards
    /// into the cache under its generation-stamped key. The warm time
    /// is the compaction's duration — spent on the maintenance lane,
    /// not the serving lane — and the swap lands at the first event on
    /// or after `started + seconds`.
    fn start_compaction(&mut self, ing: &mut Ingest<'_, T>, t: f64) -> Result<(), KernelError> {
        let job = ing.dataset.begin_compaction();
        let (nn, seconds) = if job.matrix.rows() > 0 {
            let nn = ing.proto.clone().fit(job.matrix.clone());
            let (_, outcome) = self
                .cache
                .lookup_generation(&nn, &self.multi, job.generation)?;
            (Some(nn), outcome.warm_seconds)
        } else {
            // Compacting to empty: nothing to upload or warm.
            (None, 0.0)
        };
        ing.compactions_started += 1;
        ing.pending = Some(PendingCompaction {
            ready_s: t + seconds,
            started_s: t,
            seconds,
            job,
            nn,
        });
        Ok(())
    }
}

/// A WAL record stamped with its simulated arrival time, for
/// [`ServeEngine::replay_ingest`]'s merged write/query event stream.
#[derive(Debug, Clone)]
pub struct TimedRecord<T> {
    /// When the write lands on the sim clock.
    pub at_s: f64,
    /// The record itself (its `seq` orders same-instant writes).
    pub record: WalRecord<T>,
}

/// WAL bookkeeping for one ingest replay. Conservation law (enforced
/// by `bench::validate_metrics`): `appended = applied + rejected`, and
/// `applied = inserts + deletes`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalCounts {
    /// Records presented to the engine.
    pub appended: u64,
    /// Records that mutated the dataset.
    pub applied: u64,
    /// Records rejected with a typed [`WalError`].
    pub rejected: u64,
    /// Applied inserts.
    pub inserts: u64,
    /// Applied deletes.
    pub deletes: u64,
}

/// One landed compaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionRecord {
    /// The generation the compaction produced.
    pub generation: u64,
    /// Sim time the snapshot was taken.
    pub started_s: f64,
    /// Sim time the new generation became servable.
    pub ready_s: f64,
    /// Simulated seconds of re-prepare work (upload + norm warming of
    /// the new base), spent off the serving lane.
    pub seconds: f64,
    /// Rows in the new base.
    pub rows: usize,
    /// Tombstones cleared because their rows were compacted away.
    pub cleared_tombstones: usize,
    /// Fresh rows folded into the new base.
    pub folded_fresh: usize,
}

/// Outcome of one [`ServeEngine::replay_ingest`] call.
#[derive(Debug, Clone)]
pub struct IngestReport<T> {
    /// The serving-side report (responses in live-rank coordinates).
    pub serve: ServeReport<T>,
    /// WAL bookkeeping.
    pub wal: WalCounts,
    /// Typed rejects, in log order: `(seq, error)`.
    pub wal_errors: Vec<(u64, WalError)>,
    /// Compactions started (landed or still in flight at stream end).
    pub compactions_started: u64,
    /// Landed compactions, in landing order.
    pub compactions: Vec<CompactionRecord>,
    /// The dataset's generation when the stream ended.
    pub final_generation: u64,
}

impl<T> IngestReport<T> {
    /// The served responses, in completion order (live-rank indices).
    pub fn responses(&self) -> &[Response<T>] {
        &self.serve.responses
    }
}

/// An in-flight compaction: the frozen snapshot plus the sim time its
/// re-prepared base becomes swappable.
struct PendingCompaction<T> {
    job: CompactionJob<T>,
    /// The new base, already fitted (None for an empty base).
    nn: Option<NearestNeighbors<T>>,
    started_s: f64,
    seconds: f64,
    ready_s: f64,
}

/// The write side of a mutable replay: the dataset, its timed WAL
/// stream, and the compactor's bookkeeping.
struct Ingest<'a, T> {
    proto: &'a NearestNeighbors<T>,
    dataset: &'a mut MutableDataset<T>,
    /// Writes in `(at_s, seq)` order; `next` is the first not yet
    /// applied.
    writes: Vec<&'a TimedRecord<T>>,
    next: usize,
    compact_threshold: usize,
    pending: Option<PendingCompaction<T>>,
    /// The fitted estimator for the *current* base generation.
    base_fit: Option<(u64, NearestNeighbors<T>)>,
    wal: WalCounts,
    wal_errors: Vec<(u64, WalError)>,
    compactions_started: u64,
    compactions: Vec<CompactionRecord>,
    fresh_scans: u64,
}

impl<T: Real> Ingest<'_, T> {
    /// When the next write lands, if any is left.
    fn next_write_s(&self) -> Option<f64> {
        self.writes.get(self.next).map(|w| w.at_s)
    }

    /// Lands the pending compaction if its ready time has passed.
    fn land_ready_compaction(&mut self, t: f64) {
        let Some(p) = self.pending.take_if(|p| p.ready_s <= t) else {
            return;
        };
        let generation = p.job.generation;
        let outcome = self.dataset.finish_compaction(p.job);
        self.base_fit = p.nn.map(|nn| (generation, nn));
        self.compactions.push(CompactionRecord {
            generation,
            started_s: p.started_s,
            ready_s: p.ready_s,
            seconds: p.seconds,
            rows: outcome.rows,
            cleared_tombstones: outcome.cleared_tombstones,
            folded_fresh: outcome.folded_fresh,
        });
    }

    /// Applies the next write at its instant. Returns whether a
    /// compaction should start: the threshold is on, none is in
    /// flight, and the dataset's pending ops reached it.
    fn apply_next_write(&mut self) -> bool {
        let w = self.writes[self.next];
        self.next += 1;
        self.land_ready_compaction(w.at_s);
        self.wal.appended += 1;
        match self.dataset.apply(&w.record) {
            Ok(op) => {
                self.wal.applied += 1;
                match op {
                    AppliedOp::Inserted { .. } => self.wal.inserts += 1,
                    AppliedOp::Deleted { .. } => self.wal.deletes += 1,
                }
            }
            Err(e) => {
                self.wal.rejected += 1;
                self.wal_errors.push((w.record.seq, e));
            }
        }
        self.compact_threshold > 0
            && self.pending.is_none()
            && self.dataset.pending_ops() >= self.compact_threshold
    }
}

/// Builds a fixed-gap replay stream over the rows of `query`: request
/// `i` is row `i` arriving at `i * gap_s`, all against dataset 0. The
/// `spdist serve` driver and the throughput bench both use this shape.
pub fn replay_rows<T: Real>(query: &CsrMatrix<T>, gap_s: f64) -> Vec<Request<T>> {
    (0..query.rows())
        .map(|i| Request {
            id: i as u64,
            dataset: 0,
            arrival_s: i as f64 * gap_s,
            row: query.slice_rows(i..i + 1),
        })
        .collect()
}
