//! [`ClusterEngine`]: N remote shard slots composed behind one
//! [`SimilaritySearch`], on the same fan-out executor ([`FanOut`]) as
//! `onex_core::ShardedEngine`. The executor owns the worker lanes, the
//! per-query [`SharedBound`], the deadline, the [`DegradePolicy`] check
//! and the merge; this module supplies the shard target — a slot of
//! replicas with failover, breakers and hedging — and the probe thread.
//!
//! Across processes the bound cannot be one atomic, so each
//! [`RemoteBackend`] *gossips*: tightenings a shard discovers stream back
//! to this client, land in the query's shared bound, and the other
//! shards' in-flight pumps push them onward. The bound stays monotone end
//! to end, so gossip never costs an answer.
//!
//! ## Fault tolerance
//!
//! Each shard **slot** may hold several replicas (`"a|a2"` in the
//! address list). A query tries the slot's preferred replica and fails
//! over on typed [`OnexError::Network`] errors — at most one attempt per
//! replica per query, so the retry budget is bounded by the replica
//! count. Every replica carries a lock-free circuit [`Breaker`]: a
//! replica that keeps failing (or whose latency EWMA blows its budget)
//! is skipped *without dialling* until a background
//! [`InfoRequest`](crate::Message::InfoRequest) probe closes the breaker
//! again. Optionally a query **hedges**: if the preferred replica has
//! not answered within [`ClusterConfig::hedge_after`], the same request
//! is raced against the next live replica and the first answer wins —
//! a losing backup is cancelled by collapsing its private bound to zero,
//! which makes its remaining search trivially prunable.
//!
//! When a whole slot is down, [`DegradePolicy`] decides: `Fail`
//! propagates the slot's typed error (the strict historical behaviour),
//! `Partial` answers over the surviving shards, `Quorum(q)` demands at
//! least `q` surviving slots. Degraded answers are *typed*: the outcome
//! carries [`Coverage`](onex_api::Coverage) so callers can tell 5-of-8
//! from 8-of-8 without guessing from match counts.
//!
//! ## Identity
//!
//! The cluster assumes the collection was partitioned **round-robin**:
//! global series `g` lives on slot `g % N` as local id `g / N` — the
//! exact partition `ShardedEngine` applies in-process (and what the
//! `onex_server --shard-serve` operator docs prescribe). Replicas of one
//! slot host the same partition.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::bounded;
use onex_api::{
    Capabilities, DegradePolicy, Epoch, Metric, NetworkErrorKind, OnexError, SearchOutcome,
    SharedBound, SimilaritySearch,
};
use onex_core::{FanOut, FanOutPolicy, PoolStats, QueryOptions, ScanBreadth, ShardTarget};
use parking_lot::Mutex;

use crate::client::{RemoteBackend, RemoteConfig, RemoteInfo};
use crate::health::{Breaker, BreakerConfig, BreakerSnapshot, BreakerState};

/// Cluster-level tuning: everything beyond the per-connection
/// [`RemoteConfig`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Per-replica connection settings.
    pub remote: RemoteConfig,
    /// Circuit-breaker thresholds, shared by every replica.
    pub breaker: BreakerConfig,
    /// What to do when a whole slot cannot answer (default
    /// [`DegradePolicy::Fail`] — the strict historical behaviour).
    pub degrade: DegradePolicy,
    /// Overall per-query deadline on collecting shard replies. Passing
    /// it is a typed [`NetworkErrorKind::Timeout`] (HTTP 504), replacing
    /// the old hardcoded 300 s internal stall.
    pub query_deadline: Duration,
    /// When set, a slot query that has not answered within this
    /// threshold is raced against the slot's next live replica; first
    /// answer wins, the loser is cancelled via bound collapse.
    pub hedge_after: Option<Duration>,
    /// Cadence of the background breaker probe thread; `None` disables
    /// probing (open breakers then only re-close through query-path
    /// half-open trials).
    pub probe_interval: Option<Duration>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            remote: RemoteConfig::default(),
            breaker: BreakerConfig::default(),
            degrade: DegradePolicy::Fail,
            query_deadline: Duration::from_secs(60),
            hedge_after: None,
            probe_interval: Some(Duration::from_millis(250)),
        }
    }
}

struct Replica {
    remote: Arc<RemoteBackend>,
    breaker: Arc<Breaker>,
}

/// One shard slot: the replicas hosting one round-robin partition, in
/// preference order.
#[derive(Default)]
struct Slot {
    index: usize,
    replicas: Vec<Replica>,
    hedges_fired: AtomicUsize,
    hedge_wins: AtomicUsize,
}

/// A slot as one query's fan-out target. The executor drops it after
/// delivering its reply, so joining a hedge race's straggler here never
/// delays the query.
struct SlotTarget {
    slot: Arc<Slot>,
    hedge_after: Option<Duration>,
    stragglers: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for SlotTarget {
    fn drop(&mut self) {
        // A panicked attempt already cost its race a reply.
        for h in self.stragglers.get_mut().drain(..) {
            let _ = h.join();
        }
    }
}

impl ShardTarget for SlotTarget {
    fn search(
        &self,
        query: &[f64],
        k: usize,
        opts: &QueryOptions,
        bound: &Arc<SharedBound>,
    ) -> Result<SearchOutcome, OnexError> {
        let req = Request {
            query: Arc::from(query),
            k,
            opts: opts.clone(),
        };
        execute(self, &req, bound)
    }
}

/// Health of one replica, for `/api/health` and the resilience bench.
#[derive(Debug, Clone)]
pub struct ReplicaHealth {
    /// The replica's address.
    pub addr: String,
    /// Its breaker's current state and counters.
    pub breaker: BreakerSnapshot,
}

/// Health of one shard slot: its replicas in preference order.
#[derive(Debug, Clone)]
pub struct SlotHealth {
    /// Slot index (the round-robin partition it hosts).
    pub slot: usize,
    /// Replica health, in preference order.
    pub replicas: Vec<ReplicaHealth>,
}

/// A similarity-search backend fanned out over N shard slots, each
/// backed by one or more replica servers.
pub struct ClusterEngine {
    slots: Vec<Arc<Slot>>,
    /// The shared executor: one worker lane per slot, plus the bound
    /// sharing (gossip), deadline and degrade policy.
    pool: FanOut<SlotTarget>,
    /// Series count per slot, maintained across appends — the source of
    /// round-robin routing for new series.
    sizes: Mutex<Vec<u64>>,
    infos: Vec<RemoteInfo>,
    opts: QueryOptions,
    hedge_after: Option<Duration>,
    probe_stop: Arc<AtomicBool>,
    probe_handle: Option<std::thread::JoinHandle<()>>,
}

impl ClusterEngine {
    /// Connect to every shard slot with default cluster tuning (strict
    /// [`DegradePolicy::Fail`], 60 s query deadline, no hedging).
    ///
    /// Each element of `addrs` names one slot; replicas within a slot
    /// are separated by `|` (`"127.0.0.1:7001|127.0.0.1:7101"`). A slot
    /// is usable when **any** replica answers the identity exchange;
    /// a slot with *no* live replica at connect is a typed
    /// [`OnexError::Network`] — a cluster whose data is partly
    /// unreachable at startup is a configuration error, not something
    /// to paper over.
    pub fn connect<S: AsRef<str>>(addrs: &[S], config: RemoteConfig) -> Result<Self, OnexError> {
        Self::connect_with(
            addrs,
            ClusterConfig {
                remote: config,
                ..ClusterConfig::default()
            },
        )
    }

    /// [`ClusterEngine::connect`] with explicit cluster tuning.
    pub fn connect_with<S: AsRef<str>>(
        addrs: &[S],
        config: ClusterConfig,
    ) -> Result<Self, OnexError> {
        if addrs.is_empty() {
            return Err(OnexError::invalid_config(
                "a cluster needs at least one shard address",
            ));
        }
        let mut slots = Vec::with_capacity(addrs.len());
        let mut infos = Vec::with_capacity(addrs.len());
        for (index, spec) in addrs.iter().enumerate() {
            let replica_addrs: Vec<&str> = spec
                .as_ref()
                .split('|')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            if replica_addrs.is_empty() {
                return Err(OnexError::invalid_config(format!(
                    "slot {index} lists no replica address"
                )));
            }
            let replicas: Vec<Replica> = replica_addrs
                .iter()
                .map(|a| Replica {
                    remote: Arc::new(RemoteBackend::new(*a, config.remote.clone())),
                    breaker: Arc::new(Breaker::new(config.breaker.clone())),
                })
                .collect();
            // The slot identity comes from the first replica that
            // answers; dead replicas are recorded on their breakers but
            // only a fully dead slot fails the connect.
            let mut first_err = None;
            let info = replicas.iter().find_map(|rep| match rep.remote.info() {
                Ok(i) => {
                    rep.breaker.on_success(Duration::ZERO);
                    Some(i)
                }
                Err(e) => {
                    rep.breaker.on_failure();
                    first_err.get_or_insert(e);
                    None
                }
            });
            let Some(info) = info else {
                return Err(first_err.unwrap_or_else(|| {
                    OnexError::network(
                        NetworkErrorKind::Unreachable,
                        format!("slot {index}: no replica answered"),
                    )
                }));
            };
            infos.push(info);
            slots.push(Arc::new(Slot {
                index,
                replicas,
                ..Slot::default()
            }));
        }
        let sizes = infos.iter().map(|i| i.series).collect();

        let pool = FanOut::new(
            slots.len(),
            FanOutPolicy {
                share_bound: true,
                deadline: config.query_deadline,
                degrade: config.degrade,
            },
        );
        let probe_stop = Arc::new(AtomicBool::new(false));
        let probe_handle = config
            .probe_interval
            .map(|interval| spawn_probe(slots.clone(), interval, Arc::clone(&probe_stop)));

        Ok(ClusterEngine {
            slots,
            pool,
            sizes: Mutex::new(sizes),
            infos,
            opts: QueryOptions::default(),
            hedge_after: config.hedge_after,
            probe_stop,
            probe_handle,
        })
    }

    /// Builder-style query options (global series ids; localised per
    /// slot at fan-out time).
    pub fn with_options(mut self, opts: QueryOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Toggle cross-shard bound gossip (default on). With gossip off,
    /// every shard prunes against a private bound — the ablation mode
    /// bench e16 measures against.
    pub fn gossip(mut self, share: bool) -> Self {
        self.pool.policy.share_bound = share;
        self
    }

    /// Builder-style degrade policy (default [`DegradePolicy::Fail`]).
    pub fn degrade(mut self, policy: DegradePolicy) -> Self {
        self.pool.policy.degrade = policy;
        self
    }

    /// Builder-style per-query reply deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.pool.policy.deadline = deadline;
        self
    }

    /// Builder-style hedge threshold (`None` disables hedging).
    pub fn hedge(mut self, after: Option<Duration>) -> Self {
        self.hedge_after = after;
        self
    }

    /// Number of shard slots in the cluster.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// The active degrade policy.
    pub fn degrade_policy(&self) -> DegradePolicy {
        self.pool.policy.degrade
    }

    /// Replica addresses per slot, in preference order — the cluster's
    /// topology as the server's health endpoints report it.
    pub fn topology(&self) -> Vec<Vec<String>> {
        self.slots
            .iter()
            .map(|s| s.replicas.iter().map(|r| r.remote.addr().into()).collect())
            .collect()
    }

    /// Breaker state and counters for every replica of every slot.
    pub fn health(&self) -> Vec<SlotHealth> {
        self.slots
            .iter()
            .map(|s| SlotHealth {
                slot: s.index,
                replicas: s
                    .replicas
                    .iter()
                    .map(|r| ReplicaHealth {
                        addr: r.remote.addr().into(),
                        breaker: r.breaker.snapshot(),
                    })
                    .collect(),
            })
            .collect()
    }

    /// `(hedges fired, hedges the backup won)` over the engine lifetime.
    pub fn hedge_counters(&self) -> (usize, usize) {
        self.slots.iter().fold((0, 0), |(f, w), s| {
            (
                f + s.hedges_fired.load(Ordering::Relaxed),
                w + s.hedge_wins.load(Ordering::Relaxed),
            )
        })
    }

    /// Counters of the persistent per-slot worker lanes.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Aggregate `(sent, received)` gossip tighten-frame counters across
    /// all replica connections.
    pub fn gossip_counters(&self) -> (usize, usize) {
        self.slots
            .iter()
            .flat_map(|s| s.replicas.iter())
            .map(|r| r.remote.gossip_counters())
            .fold((0, 0), |(s, r), (ds, dr)| (s + ds, r + dr))
    }

    /// Append one series; it lands on slot `total % N`, preserving the
    /// round-robin identity, and is written to **every** replica of that
    /// slot (writes are strict even when reads degrade — a replica that
    /// misses an append would silently diverge). Returns the cluster
    /// epoch after the append.
    pub fn append_series(&self, name: &str, values: Vec<f64>) -> Result<Epoch, OnexError> {
        let mut sizes = self.sizes.lock();
        let total: u64 = sizes.iter().sum();
        let shard = (total as usize) % self.slots.len();
        let mut series = sizes[shard];
        for rep in &self.slots[shard].replicas {
            let (_, s) = rep.remote.append(name, values.clone())?;
            series = s;
        }
        sizes[shard] = series;
        Ok(self.epoch())
    }

    /// Deploy a segment-format-v2 base file image to one slot — the
    /// provisioning step for a freshly joined (or rebalanced) member.
    /// The image is shipped to every replica of the slot; each adopts
    /// the base cold and answers immediately, resolving columns lazily
    /// per query. Returns the last replica's `(epoch, length columns
    /// offered)`. Images over one frame (16 MiB) fail the send typed —
    /// there is no chunking.
    ///
    /// # Errors
    /// [`OnexError::InvalidConfig`] for an out-of-range slot index;
    /// otherwise whatever a replica reported (storage validation,
    /// dataset mismatch) or a typed transport failure.
    pub fn deploy_base(&self, shard: usize, bytes: Vec<u8>) -> Result<(Epoch, u64), OnexError> {
        let slot = self.slots.get(shard).ok_or_else(|| {
            OnexError::invalid_config(format!(
                "shard {shard} out of range (cluster has {})",
                self.slots.len()
            ))
        })?;
        let mut last = None;
        for rep in &slot.replicas {
            last = Some(rep.remote.ship_base(bytes.clone())?);
        }
        last.ok_or_else(|| OnexError::Internal("slot has no replicas".into()))
    }

    /// Kill slot `index`'s worker thread (test hook for the lane-respawn
    /// path). Joins the dying worker so the kill is synchronous; the
    /// next query transparently respawns the lane.
    #[doc(hidden)]
    pub fn debug_kill_worker(&self, index: usize) {
        self.pool.kill_worker(index);
    }
}

/// One attempt against one replica, with breaker bookkeeping.
fn attempt(rep: &Replica, req: &Request, bound: &SharedBound) -> Result<SearchOutcome, OnexError> {
    let t0 = Instant::now();
    let result = rep
        .remote
        .k_best_bounded_with(&req.query, req.k, &req.opts, bound);
    match &result {
        Ok(_) => rep.breaker.on_success(t0.elapsed()),
        // Only wire faults say something about replica health; an
        // engine-side rejection (bad query) is a healthy answer.
        Err(OnexError::Network(_)) => rep.breaker.on_failure(),
        Err(_) => {}
    }
    result.map(|(outcome, _epoch)| outcome)
}

/// Run one slot's query: failover across replicas in preference order,
/// with optional hedging.
fn execute(
    target: &SlotTarget,
    req: &Request,
    bound: &Arc<SharedBound>,
) -> Result<SearchOutcome, OnexError> {
    let slot = &target.slot;
    let reps = &slot.replicas;
    let mut last_err: Option<OnexError> = None;
    let mut i = 0usize;
    while i < reps.len() {
        let primary = i;
        i += 1;
        if !reps[primary].breaker.admit() {
            continue;
        }
        let answered = match target.hedge_after.filter(|_| i < reps.len()) {
            None => attempt(&reps[primary], req, bound).map_err(|e| vec![e]),
            Some(after) => race(target, req, bound, primary, &mut i, after),
        };
        let errors = match answered {
            Ok(outcome) => return Ok(outcome),
            Err(errors) => errors,
        };
        for e in errors {
            // Engine-side errors (bad query, panic) are not fixed by
            // trying another replica; typed wire faults fail over.
            if !matches!(e, OnexError::Network(_)) {
                return Err(e);
            }
            last_err = Some(e);
        }
    }
    Err(last_err.unwrap_or_else(|| {
        OnexError::network(
            NetworkErrorKind::Unreachable,
            format!(
                "slot {}: no live replica ({} breaker(s) open)",
                slot.index,
                slot.replicas.len()
            ),
        )
    }))
}

/// One slot query, owned so a hedged attempt can outlive its race.
#[derive(Clone)]
struct Request {
    query: Arc<[f64]>,
    k: usize,
    opts: QueryOptions,
}

/// Race the primary replica against the next live one once `after`
/// passes without an answer; the first answer wins. Attempts run on
/// threads the target joins when dropped, so the winner returns without
/// waiting for the loser. On failure, returns every attempt's error in
/// arrival order.
fn race(
    target: &SlotTarget,
    req: &Request,
    bound: &Arc<SharedBound>,
    primary: usize,
    next: &mut usize,
    after: Duration,
) -> Result<SearchOutcome, Vec<OnexError>> {
    let slot = &target.slot;
    let (tx, rx) = bounded(2);
    // Each reply is tagged with whether the hedge backup sent it.
    let spawn = |rep: usize, bound: Arc<SharedBound>, backup: bool| {
        let (slot, req, tx) = (Arc::clone(slot), req.clone(), tx.clone());
        target.stragglers.lock().push(std::thread::spawn(move || {
            let _ = tx.send((backup, attempt(&slot.replicas[rep], &req, &bound)));
        }));
    };
    spawn(primary, Arc::clone(bound), false);
    if let Ok((_, r)) = rx.recv_timeout(after) {
        return r.map_err(|e| vec![e]);
    }
    // Fire the hedge at the next live replica. The backup prunes against
    // a *private* bound seeded from the query's: collapsing it later
    // cancels only the loser, never the query.
    let mut backup = None;
    while backup.is_none() && *next < slot.replicas.len() {
        let b = *next;
        *next += 1;
        if slot.replicas[b].breaker.admit() {
            slot.hedges_fired.fetch_add(1, Ordering::Relaxed);
            let bb = Arc::new(SharedBound::new());
            bb.tighten(bound.get());
            spawn(b, Arc::clone(&bb), true);
            backup = Some(bb);
        }
    }
    drop(tx);
    let mut errors = Vec::new();
    while let Ok((from_backup, r)) = rx.recv() {
        match r {
            Ok(outcome) => {
                if from_backup {
                    slot.hedge_wins.fetch_add(1, Ordering::Relaxed);
                } else if let Some(bb) = &backup {
                    // Cancel the losing backup: a zero bound prunes
                    // everything, so it finishes trivially.
                    bb.tighten(0.0);
                }
                return Ok(outcome);
            }
            Err(e) => errors.push(e),
        }
    }
    if errors.is_empty() {
        errors.push(OnexError::Internal("hedge race vanished".into()));
    }
    Err(errors)
}

/// The background breaker-probe loop: every `interval`, each non-closed
/// breaker that will admit a trial gets an `InfoRequest`; success closes
/// it, failure re-opens it. Polls the stop flag between short sleeps so
/// engine drop never waits a full interval.
fn spawn_probe(
    slots: Vec<Arc<Slot>>,
    interval: Duration,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("cluster-probe".into())
        .spawn(move || {
            let tick = interval
                .min(Duration::from_millis(25))
                .max(Duration::from_millis(1));
            let mut since_probe = Duration::ZERO;
            loop {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(tick);
                since_probe += tick;
                if since_probe < interval {
                    continue;
                }
                since_probe = Duration::ZERO;
                for slot in &slots {
                    for rep in &slot.replicas {
                        if rep.breaker.state() == BreakerState::Closed || !rep.breaker.admit() {
                            continue;
                        }
                        let t0 = Instant::now();
                        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            rep.remote.info().is_ok()
                        }))
                        .unwrap_or(false);
                        if ok {
                            rep.breaker.on_success(t0.elapsed());
                        } else {
                            rep.breaker.on_failure();
                        }
                    }
                }
            }
        })
        .expect("spawn cluster probe")
}

impl std::fmt::Debug for ClusterEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterEngine")
            .field("topology", &self.topology())
            .field("gossip", &self.pool.policy.share_bound)
            .field("degrade", &self.pool.policy.degrade)
            .finish_non_exhaustive()
    }
}

impl Drop for ClusterEngine {
    fn drop(&mut self) {
        self.probe_stop.store(true, Ordering::Release);
        if let Some(h) = self.probe_handle.take() {
            let _ = h.join();
        }
    }
}

impl SimilaritySearch for ClusterEngine {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn capabilities(&self) -> Capabilities {
        // Exact iff every shard reported an exact engine and the local
        // option set keeps the scan exhaustive — the same condition
        // `ShardedEngine` applies to its in-process shards. A degraded
        // answer is still exact *over the shards it covers*; the
        // coverage record is what reports the gap.
        let exact = self.infos.iter().all(|i| i.caps.exact)
            && self.opts.breadth == ScanBreadth::Exact
            && self.opts.band == onex_distance::Band::Full;
        Capabilities {
            metric: Metric::RawDtw,
            exact,
            multi_length: !matches!(self.opts.lengths, onex_core::LengthSelection::Exact),
            streaming: false,
            one_match_per_series: false,
            cached: false,
        }
    }

    fn k_best(&self, query: &[f64], k: usize) -> Result<SearchOutcome, OnexError> {
        let targets = self.slots.iter().map(|slot| SlotTarget {
            slot: Arc::clone(slot),
            hedge_after: self.hedge_after,
            stragglers: Mutex::new(Vec::new()),
        });
        self.pool.search(targets, query, k, &self.opts)
    }

    /// Sum over slots of the newest epoch any replica last reported: any
    /// append anywhere bumps it, so epoch-keyed caches invalidate correctly. Updated as
    /// replies arrive — eventually consistent between requests.
    fn epoch(&self) -> Epoch {
        let slot_epoch = |s: &Arc<Slot>| s.replicas.iter().map(|r| r.remote.epoch()).max();
        self.slots.iter().filter_map(slot_epoch).sum()
    }
}
