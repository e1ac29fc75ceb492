//! Scale-out search: sharding and caching behind the same
//! [`SimilaritySearch`] seam every other engine implements.
//!
//! * [`ShardedEngine`] — partitions a dataset round-robin across N
//!   shards, builds one ONEX engine per shard **in parallel**, and runs
//!   every query on the shared fan-out executor ([`FanOut`]), the same
//!   one `onex_net::ClusterEngine` runs over remote shard slots. Here a
//!   shard is a pinned [`EngineSnapshot`]: all shards of one query prune
//!   against one [`SharedBound`], so a tight bound
//!   found by any shard immediately shrinks every other shard's cascade
//!   (bench E14 tracks the touched-candidate ratio). Each shard runs the
//!   exact two-phase plan over its own subsequence space, so the merged
//!   top-k equals the single engine's up to distance ties (the
//!   conformance suite and benches E13/E14 assert this).
//! * [`CachedSearch`] — a decorator over *any* backend with a bounded
//!   LRU keyed on `(query values, k)`. Interactive exploration repeats
//!   queries constantly (brushing the same window, comparing backends);
//!   a hit replays the exact prior outcome — work counters included —
//!   at hash-map cost.
//!
//! Both register in [`crate::backends`] and are reachable through the
//! server's `?backend=sharded` / `?backend=cached` routes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use onex_api::{
    Capabilities, DegradePolicy, Epoch, OnexError, SearchOutcome, SharedBound, SimilaritySearch,
    Versioned,
};
use onex_grouping::{BaseConfig, BuildReport, RepresentativePolicy};
use onex_tseries::{Dataset, TimeSeries};

use crate::engine::EngineSnapshot;
pub use crate::fanout::PoolStats;
use crate::fanout::{FanOut, FanOutPolicy, ShardTarget};
use crate::{Onex, QueryOptions, ScanBreadth};

// ---------------------------------------------------------------------
// ShardedEngine
// ---------------------------------------------------------------------

/// In-process shards always reply — a panic is caught into a typed
/// error — so this deadline guards against a lost pool, not a query SLA.
const REPLY_DEADLINE: Duration = Duration::from_secs(300);

/// What building a [`ShardedEngine`] cost: the per-shard construction
/// reports plus the wall-clock of the whole parallel build (shorter than
/// the per-shard sum — that difference is the build-side speedup).
#[derive(Debug, Clone)]
pub struct ShardedBuildReport {
    /// One construction report per shard, in shard order.
    pub per_shard: Vec<BuildReport>,
    /// Wall-clock of the parallel build across all shards.
    pub elapsed: Duration,
}

impl ShardedBuildReport {
    /// Total subsequences indexed across all shards.
    pub fn subsequences(&self) -> usize {
        self.per_shard.iter().map(|r| r.subsequences).sum()
    }

    /// Total groups created across all shards.
    pub fn groups(&self) -> usize {
        self.per_shard.iter().map(|r| r.groups).sum()
    }

    /// Sum of per-shard build times — what a sequential build of the same
    /// shards would have cost; divide by [`ShardedBuildReport::elapsed`]
    /// for the construction-side parallel speedup.
    pub fn serial_equivalent(&self) -> Duration {
        self.per_shard.iter().map(|r| r.elapsed).sum()
    }
}

/// The in-process shard target: one epoch-pinned shard engine.
impl ShardTarget for EngineSnapshot {
    fn search(
        &self,
        query: &[f64],
        k: usize,
        opts: &QueryOptions,
        bound: &Arc<SharedBound>,
    ) -> Result<SearchOutcome, OnexError> {
        self.k_best_bounded(query, k, opts, bound)
            .map(|(matches, stats)| crate::backends::outcome(matches, stats))
    }
}

/// The ONEX engine scaled across N shards behind the unified trait.
///
/// Series are partitioned round-robin (series `i` → shard `i mod N`), so
/// shards stay balanced regardless of load order. Queries run on a
/// [`FanOut`]; per-shard stats sum into one disjoint report (their
/// *values* depend on how fast the shards tightened each other's bounds
/// unless [`ShardedEngine::sharing_bound`] is off). Every answer carries
/// full [`onex_api::Coverage`]: a failing shard fails the whole query.
///
/// **Agreement caveat:** under an exact configuration the merged top-k
/// carries the same windows at the same distances as the single engine
/// whenever distances are distinct. When two *different* windows tie at
/// exactly the k-th distance (duplicated series, constant segments),
/// which of the tied windows is reported may differ between the sharded
/// and single engines — both answers are equally correct, but callers
/// comparing them bit-for-bit should break such ties themselves (the
/// conformance and E13 agreement checks use perturbed queries so every
/// distance is distinct).
///
/// ```
/// use onex_api::SimilaritySearch;
/// use onex_core::scale::ShardedEngine;
/// use onex_grouping::BaseConfig;
/// use onex_tseries::gen::{sine_mix_dataset, SyntheticConfig};
///
/// let ds = sine_mix_dataset(SyntheticConfig { series: 8, len: 64, seed: 5 }, 3, 0.1);
/// let query = ds.series(2).unwrap().subsequence(10, 16).unwrap().to_vec();
/// let (sharded, report) = ShardedEngine::build(&ds, BaseConfig::new(0.5, 16, 16), 4).unwrap();
/// assert_eq!(report.per_shard.len(), 4);
/// let best = sharded.best_match(&query).unwrap();
/// assert!(best.best().unwrap().distance < 1e-9);
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    /// The shard engines themselves — stable for the engine's lifetime;
    /// appends go *through* them (each is its own [`Versioned`] cell).
    engines: Vec<Arc<Onex>>,
    /// The published shard snapshots. A query pins one read transaction
    /// of this for its whole fan-out and merge, so every shard answers
    /// from the same epoch; [`ShardedEngine::append_series`] publishes
    /// the next set atomically after the owning shard commits. Shard `s`
    /// holds global series `g` with `g % N == s` as local id `g / N`.
    state: Versioned<Vec<EngineSnapshot>>,
    opts: QueryOptions,
    pool: FanOut<EngineSnapshot>,
}

impl ShardedEngine {
    /// Partition `dataset` across `shards` shards and build one engine
    /// per shard in parallel (each through the indexed builder that
    /// [`Onex::build_parallel`] drives). A shard count exceeding the
    /// series count is clamped — an empty shard answers nothing and only
    /// costs threads.
    ///
    /// # Errors
    /// [`OnexError::InvalidConfig`] when `shards == 0`, the dataset is
    /// empty, or `config` is invalid; [`OnexError::Internal`] when a
    /// shard build worker fails.
    pub fn build(
        dataset: &Dataset,
        config: BaseConfig,
        shards: usize,
    ) -> Result<(Self, ShardedBuildReport), OnexError> {
        if shards == 0 {
            return Err(OnexError::invalid_config("shard count must be positive"));
        }
        if dataset.is_empty() {
            return Err(OnexError::invalid_config("cannot shard an empty dataset"));
        }
        let shards = shards.min(dataset.len());
        let start = Instant::now();

        // Round-robin partition: global id `g` becomes shard `g % N`'s
        // local id `g / N`.
        let mut parts: Vec<Vec<TimeSeries>> = vec![Vec::new(); shards];
        for (gid, series) in dataset.iter() {
            parts[gid as usize % shards].push(series.clone());
        }

        // Build every shard in parallel; a panicking worker is reported
        // as a typed Internal error instead of aborting the process.
        let results = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .into_iter()
                .map(|series| {
                    let config = config.clone();
                    scope.spawn(move |_| {
                        let ds = Dataset::from_series(series)?;
                        Onex::build_parallel(ds, config, 2)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| OnexError::Internal("shard build worker panicked".into()))
                        .and_then(|built| built)
                })
                .collect::<Vec<_>>()
        })
        .map_err(|_| OnexError::Internal("shard build scope panicked".into()))?;

        let mut per_shard = Vec::with_capacity(shards);
        let mut engines = Vec::with_capacity(shards);
        for result in results {
            let (engine, report) = result?;
            per_shard.push(report);
            engines.push(Arc::new(engine));
        }
        let snapshots = engines.iter().map(|e| e.snapshot()).collect();
        let pool = FanOut::new(
            engines.len(),
            FanOutPolicy {
                share_bound: true,
                deadline: REPLY_DEADLINE,
                degrade: DegradePolicy::Fail,
            },
        );
        Ok((
            ShardedEngine {
                engines,
                state: Versioned::new(snapshots),
                opts: QueryOptions::default(),
                pool,
            },
            ShardedBuildReport {
                per_shard,
                elapsed: start.elapsed(),
            },
        ))
    }

    /// Append a series: it lands on the shard the round-robin partition
    /// assigns to its global id, that shard's engine extends its own base
    /// ([`Onex::append_series`]), and the re-pinned shard snapshots are
    /// published atomically as the sharded engine's next epoch. Queries
    /// are never blocked: they keep answering from the snapshots they
    /// pinned. A failed append publishes nothing at either level.
    ///
    /// # Errors
    /// Same conditions as [`Onex::append_series`]; additionally
    /// [`OnexError::DatasetMismatch`] when the name is already taken by
    /// *any* shard — the per-shard engine can only see its own slice of
    /// the collection, so the global uniqueness check lives here.
    pub fn append_series(&self, series: TimeSeries) -> Result<BuildReport, OnexError> {
        let mut txn = self.state.write();
        let shards = txn.value_mut();
        if shards
            .iter()
            .any(|s| s.dataset().by_name(series.name()).is_some())
        {
            return Err(OnexError::DatasetMismatch(format!(
                "duplicate series name {:?}",
                series.name()
            )));
        }
        let gid: usize = shards.iter().map(|s| s.dataset().len()).sum();
        let s = gid % self.engines.len();
        // The shard engine commits its own epoch first; an error here
        // drops our transaction with the snapshots untouched.
        let report = self.engines[s].append_series(series)?;
        shards[s] = self.engines[s].snapshot();
        txn.commit();
        Ok(report)
    }

    /// The currently-published shard-set epoch (bumped by every committed
    /// [`ShardedEngine::append_series`]).
    pub fn epoch(&self) -> Epoch {
        self.state.epoch()
    }

    /// Builder-style: run every trait query under `opts`. Series ids in
    /// the options (`exclude_series`, `only_series`, `exclude_windows`)
    /// use the **global** numbering; they are translated per shard.
    pub fn with_options(mut self, opts: QueryOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Builder-style: share one query-global [`SharedBound`] across the
    /// shards of each query (`true`, the default) or give every shard an
    /// independent bound (`false`, whose per-shard work counters do not
    /// depend on scheduling; bench E14 measures both).
    pub fn sharing_bound(mut self, share: bool) -> Self {
        self.pool.policy.share_bound = share;
        self
    }

    /// Counters of the persistent per-shard query-worker lanes.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Number of shards actually built (≤ the requested count).
    pub fn shard_count(&self) -> usize {
        self.engines.len()
    }

    /// Series count of each shard, in shard order (at the current epoch).
    pub fn shard_sizes(&self) -> Vec<usize> {
        let shards = self.state.read();
        shards.iter().map(|s| s.dataset().len()).collect()
    }

    /// Fan `query` out and return **each shard's own outcome** (in shard
    /// order, series ids still shard-local) — the per-shard view behind
    /// [`SimilaritySearch::k_best`]. The slowest shard's touched
    /// candidates bound the parallel query's critical path, so
    /// `single-engine touches / max shard touches` is the speedup the
    /// decomposition makes available independent of core count (bench
    /// E13's machine-independent speedup column).
    ///
    /// # Errors
    /// Same conditions as [`SimilaritySearch::k_best`], plus
    /// [`OnexError::Internal`] when the pool is gone or a reply is lost.
    pub fn shard_outcomes(&self, query: &[f64], k: usize) -> Result<Vec<SearchOutcome>, OnexError> {
        let shards = self.state.read();
        let replies = self
            .pool
            .replies(shards.iter().cloned(), query, k, &self.opts)?;
        replies.into_iter().collect()
    }
}

impl SimilaritySearch for ShardedEngine {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn capabilities(&self) -> Capabilities {
        // All shards share one config; the first speaks for all.
        let exact = self
            .engines
            .first()
            .map(|e| e.base().config().policy == RepresentativePolicy::Seed)
            .unwrap_or(false)
            && self.opts.breadth == ScanBreadth::Exact
            && self.opts.band == onex_distance::Band::Full;
        Capabilities {
            metric: onex_api::Metric::RawDtw,
            exact,
            multi_length: !matches!(self.opts.lengths, crate::LengthSelection::Exact),
            streaming: false,
            one_match_per_series: false,
            cached: false,
        }
    }

    fn k_best(&self, query: &[f64], k: usize) -> Result<SearchOutcome, OnexError> {
        // One read transaction pins every shard for the whole fan-out and
        // merge — a concurrent append cannot give this query a
        // mixed-epoch answer.
        let shards = self.state.read();
        self.pool
            .search(shards.iter().cloned(), query, k, &self.opts)
    }

    fn epoch(&self) -> Epoch {
        self.state.epoch()
    }
}

// ---------------------------------------------------------------------
// CachedSearch
// ---------------------------------------------------------------------

/// Cache key: the query's exact bit patterns plus `k`. Backend
/// parameters do not appear because a [`CachedSearch`] wraps one backend
/// instance whose parameters are fixed for its lifetime; the backend's
/// *data* version is tracked separately — every entry lives under the
/// [`SimilaritySearch::epoch`] the cache was filled at, and the whole
/// cache clears the moment the backend answers from a newer epoch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    query: Vec<u64>,
    k: usize,
}

impl CacheKey {
    fn new(query: &[f64], k: usize) -> Self {
        CacheKey {
            query: query.iter().map(|v| v.to_bits()).collect(),
            k,
        }
    }
}

/// The LRU state behind the mutex: entries stamped with a monotone
/// counter; eviction drops the smallest stamp. Eviction scans the map
/// (O(capacity)), which is deliberate — capacities are small (hundreds),
/// and the scan keeps the structure a single flat map with no unsafe
/// pointer links.
#[derive(Debug)]
struct Lru {
    capacity: usize,
    stamp: u64,
    /// The backend epoch every cached entry was computed against. The
    /// map never mixes epochs: `sync_epoch` clears it whenever the
    /// backend has moved on.
    epoch: Epoch,
    map: HashMap<CacheKey, (SearchOutcome, u64)>,
}

impl Lru {
    /// Align the map with the backend epoch `now`: if the backend has
    /// published anything since the entries were computed, drop them all.
    /// Epochs are monotone, so equality means "same data".
    fn sync_epoch(&mut self, now: Epoch) {
        if self.epoch != now {
            self.map.clear();
            self.epoch = now;
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<SearchOutcome> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.map.get_mut(key).map(|(outcome, used)| {
            *used = stamp;
            outcome.clone()
        })
    }

    fn insert(&mut self, key: CacheKey, outcome: SearchOutcome) {
        self.stamp += 1;
        self.map.insert(key, (outcome, self.stamp));
        while self.map.len() > self.capacity {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
                .expect("map over capacity is non-empty");
            self.map.remove(&oldest);
        }
    }
}

/// Observability counters of a [`CachedSearch`] (all monotone except
/// `entries`, which is bounded by `capacity`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: usize,
    /// Queries answered by the wrapped backend (and then cached).
    pub misses: usize,
    /// Entries currently cached (≤ `capacity`).
    pub entries: usize,
    /// Maximum entries kept.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction over all answered queries (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded-LRU caching decorator over any [`SimilaritySearch`] backend.
///
/// A hit replays the stored [`SearchOutcome`] bit-for-bit — matches *and*
/// work counters — so callers observe exactly what the original
/// computation reported (keeping the conformance suite's stats
/// monotonicity intact). Only successful answers are cached; errors
/// always revalidate.
///
/// **Staleness contract:** invalidation is *epoch-based*. Every entry is
/// stamped with the backend's [`SimilaritySearch::epoch`] at the time it
/// was computed; on every lookup the cache first compares its stamp with
/// the backend's current epoch and clears itself if the backend has
/// published anything since — so a result computed before an append can
/// never be served after it, even when the mutation happened through a
/// shared handle (`Arc<Onex>`, [`ShardedEngine`]) that never touched the
/// cache. Because epochs are monotone, a computed result is inserted only
/// if the backend is *still* on the epoch captured before the compute
/// began — a concurrent append between compute and insert discards the
/// result instead of caching it against the wrong epoch. Backends that
/// report the default epoch 0 (immutable collections) keep the older,
/// coarser contract: mutate through [`CachedSearch::backend_mut`] (which
/// clears the cache before handing out the reference) or call
/// [`CachedSearch::invalidate`] after the fact.
///
/// ```
/// use onex_api::SimilaritySearch;
/// use onex_core::backends::UcrSuiteBackend;
/// use onex_core::scale::CachedSearch;
///
/// let series = vec![(0..64).map(|i| (i as f64 * 0.3).sin()).collect::<Vec<_>>()];
/// let query = series[0][20..36].to_vec();
/// let cached = CachedSearch::new(UcrSuiteBackend::from_series(series), 64).unwrap();
/// let first = cached.k_best(&query, 3).unwrap();
/// let replay = cached.k_best(&query, 3).unwrap();
/// assert_eq!(first, replay);
/// assert_eq!(cached.cache_stats().hits, 1);
/// assert_eq!(cached.cache_stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct CachedSearch<B> {
    inner: B,
    cache: Mutex<Lru>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<B: SimilaritySearch> CachedSearch<B> {
    /// Wrap `inner` with a cache of at most `capacity` entries.
    ///
    /// # Errors
    /// [`OnexError::InvalidConfig`] when `capacity == 0`.
    pub fn new(inner: B, capacity: usize) -> Result<Self, OnexError> {
        if capacity == 0 {
            return Err(OnexError::invalid_config("cache capacity must be positive"));
        }
        let epoch = inner.epoch();
        Ok(CachedSearch {
            inner,
            cache: Mutex::new(Lru {
                capacity,
                stamp: 0,
                epoch,
                map: HashMap::new(),
            }),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        })
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.inner
    }

    /// Mutable access to the wrapped backend. The cache is invalidated
    /// *before* the reference is handed out, so no result computed
    /// against the old state can survive a mutation (the "never serve a
    /// stale result after extend" guarantee).
    pub fn backend_mut(&mut self) -> &mut B {
        self.invalidate();
        &mut self.inner
    }

    /// Unwrap, dropping the cache.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// Drop every cached entry (hit/miss counters are preserved — they
    /// describe traffic, not contents).
    pub fn invalidate(&self) {
        self.cache.lock().map.clear();
    }

    /// Current counters. `hits + misses` equals the number of
    /// successfully answered queries; errored queries touch neither.
    pub fn cache_stats(&self) -> CacheStats {
        let lru = self.cache.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: lru.map.len(),
            capacity: lru.capacity,
        }
    }
}

impl<B: SimilaritySearch> SimilaritySearch for CachedSearch<B> {
    fn name(&self) -> &'static str {
        "cached"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            cached: true,
            ..self.inner.capabilities()
        }
    }

    fn k_best(&self, query: &[f64], k: usize) -> Result<SearchOutcome, OnexError> {
        let key = CacheKey::new(query, k);
        // Capture the backend epoch *before* computing: whatever answer
        // the backend gives was computed against this epoch or a later
        // one, so it is only safe to cache if the backend is still on
        // exactly this epoch afterwards (epochs are monotone).
        let epoch = self.inner.epoch();
        {
            let mut lru = self.cache.lock();
            lru.sync_epoch(epoch);
            if let Some(outcome) = lru.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(outcome);
            }
        }
        // Compute outside the lock: concurrent misses on the same key may
        // duplicate work, but never block each other behind a slow query.
        let outcome = self.inner.k_best(query, k)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut lru = self.cache.lock();
        // Insert only if nothing was published while we computed — both
        // on the backend side and in the cache's own stamp. Otherwise
        // the (correct) answer is returned uncached.
        if lru.epoch == epoch && self.inner.epoch() == epoch {
            lru.insert(key, outcome.clone());
        }
        drop(lru);
        Ok(outcome)
    }

    fn epoch(&self) -> Epoch {
        self.inner.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::OnexBackend;
    use crate::LengthSelection;
    use onex_api::BackendStats;
    use onex_tseries::gen::{random_walk_dataset, SyntheticConfig};

    const LEN: usize = 16;

    fn dataset(series: usize) -> Dataset {
        random_walk_dataset(SyntheticConfig {
            series,
            len: 96,
            seed: 0xD15C,
        })
    }

    /// Exact configuration: Seed policy + exact scan, so both the single
    /// engine and every shard return the provably best answers and the
    /// merge must reproduce the single-engine top-k exactly.
    fn exact_config() -> BaseConfig {
        BaseConfig {
            policy: RepresentativePolicy::Seed,
            ..BaseConfig::new(0.5, LEN, LEN)
        }
    }

    fn single(ds: &Dataset) -> OnexBackend {
        let (engine, _) = Onex::build(ds.clone(), exact_config()).unwrap();
        OnexBackend::new(Arc::new(engine))
    }

    #[test]
    fn round_robin_partition_is_balanced_and_complete() {
        let ds = dataset(10);
        let (sharded, report) = ShardedEngine::build(&ds, exact_config(), 4).unwrap();
        assert_eq!(sharded.shard_count(), 4);
        let sizes = sharded.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3), "{sizes:?}");
        assert_eq!(report.per_shard.len(), 4);
        assert!(report.subsequences() > 0);
        // Shard `s` holds global series `g` with `g % 4 == s` as local
        // id `g / 4` — the identity the executor's remap relies on.
        for (s, shard) in sharded.state.read().iter().enumerate() {
            for (local, series) in shard.dataset().iter() {
                let global = ds.series(local * 4 + s as u32).unwrap();
                assert_eq!(series.name(), global.name());
            }
        }
    }

    #[test]
    fn sharded_top_k_matches_the_single_engine() {
        let ds = dataset(9);
        let single = single(&ds);
        for shards in [1, 2, 3, 4] {
            let (sharded, _) = ShardedEngine::build(&ds, exact_config(), shards).unwrap();
            for (sid, start) in [(0u32, 5usize), (4, 30), (8, 61)] {
                // Perturb so distances are distinct — ties between
                // different windows would make the ordering ambiguous.
                let mut query = ds
                    .series(sid)
                    .unwrap()
                    .subsequence(start, LEN)
                    .unwrap()
                    .to_vec();
                for (i, v) in query.iter_mut().enumerate() {
                    *v += 0.01 * ((i as f64) * 1.7).sin();
                }
                let a = single.k_best(&query, 5).unwrap();
                let b = sharded.k_best(&query, 5).unwrap();
                assert_eq!(a.matches.len(), b.matches.len(), "{shards} shards");
                for (x, y) in a.matches.iter().zip(&b.matches) {
                    assert_eq!(
                        (x.series, x.start, x.len),
                        (y.series, y.start, y.len),
                        "{shards} shards"
                    );
                    assert!((x.distance - y.distance).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn sharded_stats_aggregate_disjointly() {
        let ds = dataset(8);
        // Independent bounds make per-shard work scheduling-independent,
        // so the merged counters must be the exact sums of direct
        // per-shard queries.
        let (sharded, _) = ShardedEngine::build(&ds, exact_config(), 4).unwrap();
        let sharded = sharded.sharing_bound(false);
        let query = ds.series(1).unwrap().subsequence(10, LEN).unwrap().to_vec();
        let merged = sharded.k_best(&query, 3).unwrap().stats;
        let mut expect = BackendStats::default();
        for engine in &sharded.engines {
            let out = OnexBackend::new(Arc::clone(engine))
                .k_best(&query, 3)
                .unwrap();
            expect += out.stats;
        }
        assert_eq!(merged, expect);
        assert!(merged.work() > 0);
    }

    #[test]
    fn shared_bound_never_costs_work_and_answers_identically() {
        let ds = dataset(12);
        let (shared, _) = ShardedEngine::build(&ds, exact_config(), 4).unwrap();
        let (independent, _) = ShardedEngine::build(&ds, exact_config(), 4).unwrap();
        let independent = independent.sharing_bound(false);
        // How much sharing saves depends on shard interleaving, so the
        // strict-savings check tolerates adverse scheduling: retry the
        // whole batch a few times and require savings in at least one
        // round (per-query `<=` stays unconditional — sharing can only
        // tighten thresholds, never loosen them).
        let mut any_savings = false;
        for _round in 0..3 {
            for (sid, start) in [(0u32, 5usize), (3, 22), (7, 41), (11, 60)] {
                let mut query = ds
                    .series(sid)
                    .unwrap()
                    .subsequence(start, LEN)
                    .unwrap()
                    .to_vec();
                for (i, v) in query.iter_mut().enumerate() {
                    *v += 0.02 * ((i as f64) * 1.3).sin();
                }
                let a = shared.k_best(&query, 3).unwrap();
                let b = independent.k_best(&query, 3).unwrap();
                // Same merged answers (distances distinct by perturbation)…
                assert_eq!(a.matches, b.matches);
                // …for at most the independent-bound work.
                assert!(
                    a.stats.work() <= b.stats.work(),
                    "sharing increased work: {} vs {}",
                    a.stats.work(),
                    b.stats.work()
                );
                any_savings |= a.stats.work() < b.stats.work();
            }
            if any_savings {
                break;
            }
        }
        assert!(
            any_savings,
            "the shared bound pruned nothing across 12 fan-outs"
        );
    }

    #[test]
    fn query_pool_is_reused_across_queries_never_respawned() {
        let ds = dataset(9);
        let (sharded, _) = ShardedEngine::build(&ds, exact_config(), 3).unwrap();
        let before = sharded.pool_stats();
        assert_eq!(before.workers, 3, "one worker per shard");
        assert_eq!(before.threads_spawned, 3);
        const QUERIES: usize = 20;
        for i in 0..QUERIES {
            let query = ds
                .series((i % 9) as u32)
                .unwrap()
                .subsequence(i % 40, LEN)
                .unwrap()
                .to_vec();
            let out = sharded.k_best(&query, 2).unwrap();
            assert!(!out.matches.is_empty());
        }
        let after = sharded.pool_stats();
        assert_eq!(
            after.threads_spawned, 3,
            "queries must never spawn threads — the pool is the lifetime"
        );
        assert_eq!(
            after.jobs_executed,
            before.jobs_executed + QUERIES * 3,
            "every query fans exactly one job to each shard"
        );
    }

    #[test]
    fn sharded_respects_global_series_options() {
        let ds = dataset(8);
        let (sharded, _) = ShardedEngine::build(&ds, exact_config(), 3).unwrap();
        let query = ds.series(5).unwrap().subsequence(20, LEN).unwrap().to_vec();

        // Excluding the query's own series removes its verbatim window.
        let excl = ShardedEngine::build(&ds, exact_config(), 3)
            .unwrap()
            .0
            .with_options(QueryOptions::default().excluding_series(Some(5)));
        let out = excl.k_best(&query, 4).unwrap();
        assert!(out.matches.iter().all(|m| m.series != 5));

        // only_series pins every answer to one global series (which lives
        // in exactly one shard; the others contribute nothing).
        let only = ShardedEngine::build(&ds, exact_config(), 3)
            .unwrap()
            .0
            .with_options(QueryOptions::default().within_series(5));
        let out = only.k_best(&query, 4).unwrap();
        assert!(!out.matches.is_empty());
        assert!(out.matches.iter().all(|m| m.series == 5));
        assert_eq!(out.matches[0].start, 20, "verbatim window wins");

        // And the unfiltered engine finds the verbatim window globally.
        let best = sharded.best_match(&query).unwrap();
        let best = best.best().unwrap();
        assert_eq!((best.series, best.start), (5, 20));
        assert!(best.distance < 1e-9);
    }

    #[test]
    fn sharded_config_errors_are_typed() {
        let ds = dataset(4);
        assert!(matches!(
            ShardedEngine::build(&ds, exact_config(), 0),
            Err(OnexError::InvalidConfig(_))
        ));
        assert!(matches!(
            ShardedEngine::build(&Dataset::new(), exact_config(), 2),
            Err(OnexError::InvalidConfig(_))
        ));
        // Shard count clamps to the series count instead of erroring.
        let (sharded, _) = ShardedEngine::build(&ds, exact_config(), 64).unwrap();
        assert_eq!(sharded.shard_count(), 4);
        // Invalid queries are typed, never panics.
        assert!(matches!(
            sharded.k_best(&[], 1),
            Err(OnexError::InvalidQuery(_))
        ));
        assert!(matches!(
            sharded.k_best(&[1.0; LEN], 0),
            Err(OnexError::InvalidQuery(_))
        ));
    }

    #[test]
    fn sharded_capabilities_track_policy_and_options() {
        let ds = dataset(6);
        let (sharded, _) = ShardedEngine::build(&ds, exact_config(), 2).unwrap();
        let caps = sharded.capabilities();
        assert!(caps.exact, "Seed policy + exact scan is exact");
        assert!(!caps.multi_length);
        assert!(!caps.cached);
        let near = ShardedEngine::build(&ds, exact_config(), 2)
            .unwrap()
            .0
            .with_options(QueryOptions::default().lengths(LengthSelection::Nearest(3)));
        assert!(near.capabilities().multi_length);
        let centroid = ShardedEngine::build(&ds, BaseConfig::new(0.5, LEN, LEN), 2)
            .unwrap()
            .0;
        assert!(!centroid.capabilities().exact, "centroid policy drifts");
    }

    #[test]
    fn cache_hits_replay_the_exact_outcome() {
        let ds = dataset(6);
        let cached = CachedSearch::new(single(&ds), 8).unwrap();
        let q1 = ds.series(0).unwrap().subsequence(3, LEN).unwrap().to_vec();
        let q2 = ds.series(2).unwrap().subsequence(9, LEN).unwrap().to_vec();
        let first = cached.k_best(&q1, 3).unwrap();
        assert_eq!(cached.cache_stats().misses, 1);
        assert_eq!(cached.cache_stats().hits, 0);
        let replay = cached.k_best(&q1, 3).unwrap();
        assert_eq!(first, replay, "hit replays matches and stats verbatim");
        assert_eq!(cached.cache_stats().hits, 1);
        // Different k is a different key.
        let _ = cached.k_best(&q1, 2).unwrap();
        let _ = cached.k_best(&q2, 3).unwrap();
        let stats = cached.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 3, 3));
        assert!(stats.hit_rate() > 0.24 && stats.hit_rate() < 0.26);
    }

    #[test]
    fn cache_is_bounded_lru() {
        let ds = dataset(5);
        let cached = CachedSearch::new(single(&ds), 2).unwrap();
        let q = |i: u32| ds.series(i).unwrap().subsequence(0, LEN).unwrap().to_vec();
        cached.k_best(&q(0), 1).unwrap();
        cached.k_best(&q(1), 1).unwrap();
        cached.k_best(&q(0), 1).unwrap(); // touch 0 — now 1 is the LRU
        cached.k_best(&q(2), 1).unwrap(); // evicts 1
        assert_eq!(cached.cache_stats().entries, 2);
        cached.k_best(&q(0), 1).unwrap();
        assert_eq!(cached.cache_stats().hits, 2, "0 stayed cached");
        cached.k_best(&q(1), 1).unwrap();
        assert_eq!(cached.cache_stats().misses, 4, "1 was evicted");
    }

    #[test]
    fn cache_never_serves_stale_results_after_extend() {
        let ds = dataset(5);
        let query = ds.series(1).unwrap().subsequence(12, LEN).unwrap().to_vec();
        let mut cached = CachedSearch::new(single(&ds), 16).unwrap();
        let before = cached.k_best(&query, 1).unwrap();
        let _warm = cached.k_best(&query, 1).unwrap();
        assert_eq!(cached.cache_stats().hits, 1);
        assert!(before.best().unwrap().distance < 1e-9);

        // Extend the collection with a new series that is an even better
        // match target (an exact clone), excluding the original series so
        // the fresh answer must come from the new data.
        let mut extended = Vec::new();
        for (_, s) in ds.iter() {
            extended.push(s.clone());
        }
        extended.push(TimeSeries::new(
            "clone",
            ds.series(1).unwrap().values().to_vec(),
        ));
        let bigger = Dataset::from_series(extended).unwrap();
        let (engine, _) = Onex::build(bigger, exact_config()).unwrap();
        *cached.backend_mut() = OnexBackend::new(Arc::new(engine))
            .with_options(QueryOptions::default().excluding_series(Some(1)));

        assert_eq!(cached.cache_stats().entries, 0, "mutation invalidated");
        let after = cached.k_best(&query, 1).unwrap();
        let best = after.best().unwrap();
        assert_eq!(best.series, 5, "answer reflects the extended dataset");
        assert!(best.distance < 1e-9);
        assert_ne!(before.best().unwrap().series, best.series);
    }

    #[test]
    fn cache_capabilities_and_errors() {
        let ds = dataset(4);
        assert!(matches!(
            CachedSearch::new(single(&ds), 0),
            Err(OnexError::InvalidConfig(_))
        ));
        let cached = CachedSearch::new(single(&ds), 4).unwrap();
        assert_eq!(cached.name(), "cached");
        assert!(cached.capabilities().cached);
        assert_eq!(
            cached.capabilities().metric,
            cached.backend().capabilities().metric
        );
        // Errors pass through untouched and touch no counters.
        assert!(matches!(
            cached.k_best(&[], 1),
            Err(OnexError::InvalidQuery(_))
        ));
        let stats = cached.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn sharding_composes_with_caching() {
        let ds = dataset(8);
        let (sharded, _) = ShardedEngine::build(&ds, exact_config(), 4).unwrap();
        let cached = CachedSearch::new(sharded, 8).unwrap();
        let query = ds.series(3).unwrap().subsequence(7, LEN).unwrap().to_vec();
        let a = cached.k_best(&query, 3).unwrap();
        let b = cached.k_best(&query, 3).unwrap();
        assert_eq!(a, b);
        assert_eq!(cached.cache_stats().hits, 1);
        assert!(cached.capabilities().cached);
        assert_eq!(cached.capabilities().metric, onex_api::Metric::RawDtw);
    }
}
