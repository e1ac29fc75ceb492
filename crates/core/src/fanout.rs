//! The fan-out executor behind both scale-out backends: one query over
//! N round-robin shards, merged into one best-k answer. A shard is a
//! [`ShardTarget`] — a pinned [`crate::EngineSnapshot`] in process
//! ([`crate::ShardedEngine`]), a remote slot of replicas across processes
//! (`onex_net::ClusterEngine`). [`FanOut`] owns everything around it: a
//! persistent worker lane per shard (respawned if its worker dies; a
//! panicking target costs one typed reply), one fresh [`SharedBound`] per
//! query (shared, or private per shard), the reply deadline (on expiry
//! every bound the query handed out collapses to zero), the
//! [`DegradePolicy`] check, and the [`BestK`] merge under the single
//! engine's length-normalised ranking. Global series `g` lives on shard
//! `g % N` as local id `g / N`, so options localise and matches remap
//! (`global = local * N + shard`) by arithmetic alone.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use onex_api::{
    validate_query, BackendMatch, BackendStats, BestK, Coverage, DegradePolicy, NetworkErrorKind,
    OnexError, SearchOutcome, SharedBound,
};
use onex_tseries::SubseqRef;

use crate::search::normalize;
use crate::QueryOptions;

/// One shard as the executor sees it: answer `query` over the shard's
/// own (local-id) partition, pruning against — and tightening — `bound`.
/// A job's target is dropped only after its reply is sent.
pub trait ShardTarget: Send + 'static {
    /// The shard's top-`k` under `opts` (already shard-local).
    ///
    /// # Errors
    /// Whatever the shard reports; the executor's [`DegradePolicy`]
    /// decides what a failed shard costs the query.
    fn search(
        &self,
        query: &[f64],
        k: usize,
        opts: &QueryOptions,
        bound: &Arc<SharedBound>,
    ) -> Result<SearchOutcome, OnexError>;
}

/// Counters of a [`FanOut`]'s worker lanes: `threads_spawned` equals
/// `workers` unless a dead worker was respawned — queries never spawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads the pool runs (one per shard).
    pub workers: usize,
    /// Threads ever spawned, respawns included.
    pub threads_spawned: usize,
    /// Shard-jobs executed so far (each query contributes one per shard).
    pub jobs_executed: usize,
}

/// How a [`FanOut`] runs each query.
#[derive(Debug, Clone, Copy)]
pub struct FanOutPolicy {
    /// One bound for every shard of a query, or a private one per shard
    /// (per-shard work then does not depend on scheduling).
    pub share_bound: bool,
    /// Reply-collection deadline per query; passing it is a typed
    /// [`NetworkErrorKind::Timeout`] (HTTP 504).
    pub deadline: Duration,
    /// How many shards must answer for the merge to stand.
    pub degrade: DegradePolicy,
}

/// One unit of lane work, fully owned. Each job carries its own target,
/// so a caller can pin one consistent set of shard views per query.
struct Job<T> {
    index: usize,
    target: T,
    query: Arc<[f64]>,
    k: usize,
    /// `None`: the shard cannot contribute (an `only_series` filter owned
    /// by another shard) — answered empty without touching the target.
    opts: Option<QueryOptions>,
    bound: Arc<SharedBound>,
    reply: Sender<(usize, Result<SearchOutcome, OnexError>)>,
}

/// A worker lane; sending `None` makes its worker exit.
struct Worker<T> {
    tx: Sender<Option<Job<T>>>,
    handle: Option<JoinHandle<()>>,
}

#[derive(Default)]
struct Counters {
    spawned: AtomicUsize,
    executed: AtomicUsize,
}

/// The persistent per-shard fan-out executor (see the module docs).
pub struct FanOut<T> {
    /// Per-query behaviour; engines set it through their builders.
    pub policy: FanOutPolicy,
    workers: Vec<Mutex<Worker<T>>>,
    counters: Arc<Counters>,
}

impl<T: ShardTarget> FanOut<T> {
    /// An executor over `shards` shards, one worker lane each.
    pub fn new(shards: usize, policy: FanOutPolicy) -> Self {
        let counters = Arc::new(Counters::default());
        let workers = (0..shards)
            .map(|i| Mutex::new(spawn_worker(i, &counters)))
            .collect();
        FanOut {
            policy,
            workers,
            counters,
        }
    }

    /// Worker counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers.len(),
            threads_spawned: self.counters.spawned.load(Ordering::Relaxed),
            jobs_executed: self.counters.executed.load(Ordering::Relaxed),
        }
    }

    /// Stop shard `index`'s worker (test hook for the respawn path).
    /// Joins the worker so the kill is synchronous; the next query
    /// respawns the lane transparently.
    #[doc(hidden)]
    pub fn kill_worker(&self, index: usize) {
        if let Some(worker) = self.workers.get(index) {
            stop(&mut worker.lock());
        }
    }

    /// Fan `query` out and merge the shard answers into one global top-k
    /// with [`Coverage`].
    ///
    /// # Errors
    /// As [`FanOut::replies`], plus the first shard error when fewer
    /// shards answered than the [`DegradePolicy`] requires.
    pub fn search(
        &self,
        targets: impl IntoIterator<Item = T>,
        query: &[f64],
        k: usize,
        opts: &QueryOptions,
    ) -> Result<SearchOutcome, OnexError> {
        let replies = self.replies(targets, query, k, opts)?;
        let n = replies.len() as u32;
        let mut acc: BestK<(u32, usize, usize, u64)> = BestK::new(k);
        let mut stats = BackendStats::default();
        let mut answered = 0;
        let mut first_err = None;
        for (shard, reply) in (0u32..).zip(replies) {
            match reply {
                Ok(outcome) => {
                    answered += 1;
                    stats += outcome.stats;
                    for m in outcome.matches {
                        acc.offer(
                            normalize(m.distance, query.len(), m.len),
                            (m.series * n + shard, m.start, m.len, m.distance.to_bits()),
                        );
                    }
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if answered < self.policy.degrade.required(n) {
            return Err(first_err.unwrap_or_else(|| {
                OnexError::network(NetworkErrorKind::Unreachable, "no shard answered")
            }));
        }
        Ok(SearchOutcome {
            matches: acc
                .into_sorted()
                .into_iter()
                .map(|(_, (series, start, len, bits))| BackendMatch {
                    series,
                    start,
                    len,
                    distance: f64::from_bits(bits),
                })
                .collect(),
            stats,
            coverage: Some(Coverage {
                shards_answered: answered,
                shards_total: n,
            }),
        })
    }

    /// Fan `query` out — one target per shard, in shard order — and
    /// collect each shard's own reply (series ids still shard-local).
    ///
    /// # Errors
    /// An invalid query, a passed deadline, or a lost pool.
    pub fn replies(
        &self,
        targets: impl IntoIterator<Item = T>,
        query: &[f64],
        k: usize,
        opts: &QueryOptions,
    ) -> Result<Vec<Result<SearchOutcome, OnexError>>, OnexError> {
        validate_query(query, k)?;
        let n = self.workers.len();
        let query: Arc<[f64]> = Arc::from(query);
        // One fresh bound per logical query — never reused across
        // queries, so concurrent queries cannot contaminate each other.
        let shared = Arc::new(SharedBound::new());
        let mut bounds = Vec::with_capacity(n);
        let (reply, replies) = bounded(n.max(1));
        for (index, target) in targets.into_iter().enumerate() {
            let bound = if self.policy.share_bound {
                Arc::clone(&shared)
            } else {
                Arc::new(SharedBound::new())
            };
            bounds.push(Arc::clone(&bound));
            self.send(
                index,
                Job {
                    index,
                    target,
                    query: Arc::clone(&query),
                    k,
                    opts: localize(opts, index, n),
                    bound,
                    reply: reply.clone(),
                },
            )?;
        }
        drop(reply);
        let started = Instant::now();
        // Every slot is overwritten: each shard replies exactly once.
        let mut out: Vec<_> = (0..n).map(|_| Ok(SearchOutcome::default())).collect();
        for collected in 0..n {
            let remaining = self.policy.deadline.saturating_sub(started.elapsed());
            match replies.recv_timeout(remaining) {
                Ok((index, result)) => out[index] = result,
                // Every outstanding job died without replying — a pool
                // defect, not a slow shard.
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(OnexError::Internal("shard query reply lost".into()))
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Cancel the query everywhere: a zero bound makes
                    // every shard's remaining search trivially prunable.
                    for b in &bounds {
                        b.tighten(0.0);
                    }
                    return Err(OnexError::network(
                        NetworkErrorKind::Timeout,
                        format!(
                            "reply deadline {:?} passed with {collected}/{n} shard replies",
                            self.policy.deadline
                        ),
                    ));
                }
            }
        }
        Ok(out)
    }

    /// Send `job` down its lane, respawning the lane once if its worker
    /// died.
    fn send(&self, index: usize, job: Job<T>) -> Result<(), OnexError> {
        let mut worker = self.workers[index].lock();
        let Err(failed) = worker.tx.send(Some(job)) else {
            return Ok(());
        };
        let mut old = std::mem::replace(&mut *worker, spawn_worker(index, &self.counters));
        stop(&mut old);
        worker
            .tx
            .send(failed.0)
            .map_err(|_| OnexError::Internal("shard worker pool exited".into()))
    }
}

fn spawn_worker<T: ShardTarget>(index: usize, counters: &Arc<Counters>) -> Worker<T> {
    // Capacity 2: one query's job plus one queued behind it; beyond
    // that, submission blocks (backpressure).
    let (tx, rx) = bounded::<Option<Job<T>>>(2);
    let counters = Arc::clone(counters);
    counters.spawned.fetch_add(1, Ordering::Relaxed);
    let handle = std::thread::Builder::new()
        .name(format!("onex-shard-{index}"))
        .spawn(move || {
            while let Ok(Some(job)) = rx.recv() {
                counters.executed.fetch_add(1, Ordering::Relaxed);
                let result = match &job.opts {
                    None => Ok(SearchOutcome::default()),
                    Some(opts) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        job.target.search(&job.query, job.k, opts, &job.bound)
                    }))
                    .unwrap_or_else(|_| Err(OnexError::Internal("shard query panicked".into()))),
                };
                // A send error means the query side gave up (deadline or
                // early error); the result is moot.
                let _ = job.reply.send((job.index, result));
            }
        })
        .expect("spawn shard worker");
    Worker {
        tx,
        handle: Some(handle),
    }
}

/// Tell a lane's worker to exit and join it.
fn stop<T>(worker: &mut Worker<T>) {
    let _ = worker.tx.send(None);
    if let Some(h) = worker.handle.take() {
        let _ = h.join();
    }
}

/// Translate global-id options into shard `s`'s local ids under the
/// round-robin partition; `None` when the shard cannot contribute.
fn localize(opts: &QueryOptions, s: usize, n: usize) -> Option<QueryOptions> {
    let (s, n) = (s as u32, n as u32);
    let mut o = opts.clone();
    o.exclude_series = o.exclude_series.and_then(|g| (g % n == s).then_some(g / n));
    if let Some(g) = o.only_series {
        if g % n != s {
            return None;
        }
        o.only_series = Some(g / n);
    }
    o.exclude_windows = o
        .exclude_windows
        .iter()
        .filter(|w| w.series % n == s)
        .map(|w| SubseqRef::new(w.series / n, w.start, w.len))
        .collect();
    Some(o)
}

impl<T> Drop for FanOut<T> {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            stop(worker.get_mut());
        }
    }
}

impl<T> std::fmt::Debug for FanOut<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanOut")
            .field("policy", &self.policy)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted shard.
    enum Fake {
        /// Answer these `(local series, distance)` matches.
        Answer(Vec<(u32, f64)>),
        /// Fail with a typed network error.
        Fail,
        Panic,
        /// Block until the query's bound reads 0, then report it.
        BlockUntilCancelled(Sender<()>),
    }

    impl ShardTarget for Fake {
        fn search(
            &self,
            _query: &[f64],
            _k: usize,
            _opts: &QueryOptions,
            bound: &Arc<SharedBound>,
        ) -> Result<SearchOutcome, OnexError> {
            match self {
                Fake::Answer(hits) => Ok(SearchOutcome {
                    matches: hits
                        .iter()
                        .map(|&(series, distance)| BackendMatch {
                            series,
                            start: 0,
                            len: Q.len(),
                            distance,
                        })
                        .collect(),
                    stats: BackendStats {
                        examined: 1,
                        ..BackendStats::default()
                    },
                    coverage: None,
                }),
                Fake::Fail => Err(OnexError::network(
                    NetworkErrorKind::Unreachable,
                    "fake shard down",
                )),
                Fake::Panic => panic!("fake shard panicked"),
                Fake::BlockUntilCancelled(seen) => {
                    while bound.get() > 0.0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    let _ = seen.send(());
                    Ok(SearchOutcome::default())
                }
            }
        }
    }

    const Q: [f64; 4] = [0.0, 1.0, 2.0, 3.0];

    fn pool(shards: usize, degrade: DegradePolicy) -> FanOut<Fake> {
        FanOut::new(
            shards,
            FanOutPolicy {
                share_bound: true,
                deadline: Duration::from_secs(60),
                degrade,
            },
        )
    }

    fn answer(series: u32) -> Fake {
        Fake::Answer(vec![(series, 0.5)])
    }

    fn search(pool: &FanOut<Fake>, targets: Vec<Fake>) -> Result<SearchOutcome, OnexError> {
        pool.search(targets, &Q, 3, &QueryOptions::default())
    }

    #[test]
    fn a_panicking_target_costs_one_typed_reply_and_the_next_query_answers() {
        let pool = pool(2, DegradePolicy::Fail);
        let err = search(&pool, vec![Fake::Panic, answer(0)]).unwrap_err();
        assert!(matches!(err, OnexError::Internal(_)), "{err:?}");
        let out = search(&pool, vec![answer(0), answer(0)]).unwrap();
        assert_eq!(out.matches.len(), 2);
        assert_eq!(pool.stats().threads_spawned, 2, "the panic cost no worker");
    }

    #[test]
    fn the_deadline_is_a_typed_timeout_that_collapses_every_private_bound() {
        let pool: FanOut<Fake> = FanOut::new(
            2,
            FanOutPolicy {
                share_bound: false,
                deadline: Duration::from_millis(20),
                degrade: DegradePolicy::Partial,
            },
        );
        let (seen, cancelled) = bounded(2);
        let targets = vec![
            Fake::BlockUntilCancelled(seen.clone()),
            Fake::BlockUntilCancelled(seen),
        ];
        match search(&pool, targets).unwrap_err() {
            OnexError::Network(e) => assert_eq!(e.kind, NetworkErrorKind::Timeout),
            other => panic!("expected a typed timeout, got {other:?}"),
        }
        // Both shards held private bounds; both must see them collapse.
        for _ in 0..2 {
            cancelled
                .recv_timeout(Duration::from_secs(60))
                .expect("a private bound was left running");
        }
    }

    #[test]
    fn partial_and_quorum_report_coverage() {
        let coverage = |answered, total| Coverage {
            shards_answered: answered,
            shards_total: total,
        };
        let run = |degrade| search(&pool(3, degrade), vec![answer(0), Fake::Fail, answer(1)]);
        let partial = run(DegradePolicy::Partial).unwrap();
        assert_eq!(partial.coverage, Some(coverage(2, 3)));
        assert_eq!(partial.matches.len(), 2);
        assert_eq!(partial.stats.examined, 2);
        assert_eq!(
            run(DegradePolicy::Quorum(2)).unwrap().coverage,
            Some(coverage(2, 3))
        );
        for strict in [DegradePolicy::Quorum(3), DegradePolicy::Fail] {
            match run(strict).unwrap_err() {
                OnexError::Network(e) => assert_eq!(e.kind, NetworkErrorKind::Unreachable),
                other => panic!("expected the shard's error, got {other:?}"),
            }
        }
        let full = search(&pool(3, DegradePolicy::Fail), (0..3).map(answer).collect());
        assert_eq!(full.unwrap().coverage, Some(Coverage::full(3)));
    }

    #[test]
    fn jobs_executed_grows_by_n_per_query() {
        let pool = pool(3, DegradePolicy::Fail);
        for q in 1..=5 {
            search(&pool, (0..3).map(answer).collect()).unwrap();
            assert_eq!(pool.stats().jobs_executed, 3 * q);
        }
        let stats = pool.stats();
        assert_eq!((stats.workers, stats.threads_spawned), (3, 3));
        // An invalid query is rejected before any job is sent.
        assert!(matches!(
            pool.search((0..3).map(answer), &[], 3, &QueryOptions::default()),
            Err(OnexError::InvalidQuery(_))
        ));
        assert_eq!(pool.stats().jobs_executed, 15);
    }

    #[test]
    fn matches_remap_to_global_ids_and_merge_best_k() {
        let pool = pool(2, DegradePolicy::Fail);
        let targets = vec![
            Fake::Answer(vec![(0, 0.5), (1, 0.1)]),
            Fake::Answer(vec![(0, 0.3)]),
        ];
        let out = pool
            .search(targets, &Q, 2, &QueryOptions::default())
            .unwrap();
        // global = local * N + shard
        let got: Vec<_> = out.matches.iter().map(|m| (m.series, m.distance)).collect();
        assert_eq!(got, vec![(2, 0.1), (1, 0.3)]);
        assert_eq!(out.stats.examined, 2);
    }

    #[test]
    fn options_localise_to_the_owning_shard() {
        // Global series 4 lives on shard 1 of 3 as local 1; the other
        // shards answer empty without running their (panicking) targets.
        let pool = pool(3, DegradePolicy::Fail);
        let only = QueryOptions::default().within_series(4);
        let targets = vec![Fake::Panic, answer(1), Fake::Panic];
        let out = pool.search(targets, &Q, 3, &only).unwrap();
        assert_eq!(out.matches.len(), 1);
        assert_eq!(out.matches[0].series, 4);
        assert_eq!(out.coverage, Some(Coverage::full(3)));

        let mut opts = QueryOptions::default().excluding_series(Some(5));
        opts.exclude_windows = vec![SubseqRef::new(5, 2, 4), SubseqRef::new(3, 0, 4)];
        let owner = localize(&opts, 2, 3).unwrap();
        assert_eq!(owner.exclude_series, Some(1));
        assert_eq!(owner.exclude_windows, vec![SubseqRef::new(1, 2, 4)]);
        let other = localize(&opts, 0, 3).unwrap();
        assert_eq!(other.exclude_series, None);
        assert_eq!(other.exclude_windows, vec![SubseqRef::new(1, 0, 4)]);
    }

    #[test]
    fn a_killed_worker_is_respawned_exactly_once() {
        let pool = pool(2, DegradePolicy::Fail);
        pool.kill_worker(0);
        let out = search(&pool, vec![answer(0), answer(0)]).unwrap();
        assert_eq!(out.coverage, Some(Coverage::full(2)));
        assert_eq!(pool.stats().threads_spawned, 3);
        search(&pool, vec![answer(0), answer(0)]).unwrap();
        assert_eq!(pool.stats().threads_spawned, 3);
    }
}
