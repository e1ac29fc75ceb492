//! The three workloads: their data, their query windows, and the
//! deployment each one runs against.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use onex_core::{LengthSelection, Onex, QueryOptions};
use onex_grouping::{BaseConfig, RepresentativePolicy};
use onex_net::ShardServer;
use onex_server::{App, ServeOptions};
use onex_tseries::gen::{clustered_dataset, random_walk, random_walk_dataset, SyntheticConfig};
use onex_tseries::{Dataset, TimeSeries};

use crate::loadgen::{Client, Reply, Rng};
use crate::oracle::{self, Hit};

/// Answers per query, as `/api/match?k=` asks.
pub const K: usize = 5;
/// Indexed lengths searched per query (`/api/match` serves `Nearest(3)`).
pub const NEAREST: usize = 3;
/// Series per collection.
pub const SERIES: usize = 200;
/// Samples per series.
pub const SAMPLES: usize = 128;
/// Shortest indexed subsequence.
pub const MIN_LEN: usize = 24;
/// Longest indexed subsequence.
pub const MAX_LEN: usize = 32;
/// Shard count of both fan-out backends.
pub const SHARDS: usize = 4;
/// Distinct query windows drawn per run.
pub const DISTINCT_QUERIES: usize = 128;

/// Which `/api/match?backend=` a request goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The single engine, excluding the query's own series.
    Onex,
    /// Four in-process shards.
    Sharded,
    /// Four loopback shard servers.
    Cluster,
}

impl Route {
    /// The `backend=` value and the backend name the JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Route::Onex => "onex",
            Route::Sharded => "sharded",
            Route::Cluster => "cluster",
        }
    }
}

/// A workload: its collection, its routes and its fixed offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Clustered sines (groupable) or random walks (not groupable).
    pub walks: bool,
    /// Routes reads alternate between, in seeded order.
    pub routes: &'static [Route],
    /// Offered `/api/match` rate of the open loop, requests per second:
    /// about a quarter of the closed-loop capacity measured when the
    /// benchmark was defined. Fixed, so later changes are compared at
    /// equal load.
    pub rate: f64,
    /// One `/api/append` of a fresh walk every this often, if any.
    pub append_every: Option<Duration>,
}

/// Every workload, by name.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sine-explore",
        walks: false,
        routes: &[Route::Onex],
        rate: 6.5,
        append_every: None,
    },
    Workload {
        name: "walk-ingest",
        walks: true,
        routes: &[Route::Onex],
        rate: 7.0,
        append_every: Some(Duration::from_secs(3)),
    },
    Workload {
        name: "sine-fanout",
        walks: false,
        routes: &[Route::Sharded, Route::Cluster],
        rate: 6.5,
        append_every: None,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The collection. It is fixed (not drawn from `--seed`) so every run
    /// searches the same base; the seed picks the queries and schedule.
    pub fn dataset(&self) -> Dataset {
        let cfg = SyntheticConfig {
            series: SERIES,
            len: SAMPLES,
            seed: if self.walks { 0x1A1C } else { 0x51E5 },
        };
        if self.walks {
            random_walk_dataset(cfg)
        } else {
            clustered_dataset(cfg, 8, 0.08)
        }
    }

    /// The base configuration. `Seed` representatives certify group
    /// radii, so every backend is exact and the fan-out answers must
    /// equal the single engine's.
    pub fn config(&self) -> BaseConfig {
        BaseConfig {
            policy: RepresentativePolicy::Seed,
            ..BaseConfig::new(if self.walks { 1.2 } else { 0.35 }, MIN_LEN, MAX_LEN)
        }
    }

    /// Whether the workload runs the cluster backend.
    pub fn fans_out(&self) -> bool {
        self.routes.contains(&Route::Cluster)
    }
}

/// One query window cut from the collection.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Series the window is cut from.
    pub series: String,
    /// Its id in the collection.
    pub id: u32,
    /// Window start.
    pub start: usize,
    /// Window length.
    pub len: usize,
    /// The window's samples.
    pub values: Vec<f64>,
}

impl Query {
    /// The `/api/match` target for this window on `route`.
    pub fn target(&self, route: Route) -> String {
        format!(
            "/api/match?series={}&start={}&len={}&k={K}&backend={}",
            self.series,
            self.start,
            self.len,
            route.name()
        )
    }
}

/// `n` distinct seeded query windows with lengths across the indexed range.
pub fn queries(ds: &Dataset, rng: &mut Rng, n: usize) -> Vec<Query> {
    let mut out: Vec<Query> = Vec::with_capacity(n);
    while out.len() < n {
        let id = rng.below(ds.len()) as u32;
        let series = ds.series(id).expect("id below the series count");
        let len = MIN_LEN + rng.below(MAX_LEN - MIN_LEN + 1);
        let start = rng.below(series.len() - len + 1);
        if out
            .iter()
            .any(|q| q.id == id && q.start == start && q.len == len)
        {
            continue;
        }
        out.push(Query {
            series: series.name().to_owned(),
            id,
            start,
            len,
            values: series
                .subsequence(start, len)
                .expect("window in bounds")
                .to_vec(),
        });
    }
    out
}

/// The options `/api/match` applies on `route` for a query cut from
/// series `id`: the onex route leaves the query's own series out, the
/// fan-out routes do not.
pub fn route_options(route: Route, id: u32) -> QueryOptions {
    let opts = QueryOptions::default().lengths(LengthSelection::Nearest(NEAREST));
    match route {
        Route::Onex => opts.excluding_series(Some(id)),
        Route::Sharded | Route::Cluster => opts,
    }
}

/// The oracle answer for `q` on `route` from the single engine.
pub fn expected(engine: &Onex, q: &Query, route: Route) -> Vec<Hit> {
    oracle::expected(engine, &q.values, K, &route_options(route, q.id))
}

/// A fresh seeded walk to append, named so no two runs or appends clash.
pub fn fresh_walk(seed: u64, i: usize) -> TimeSeries {
    let values = random_walk(
        SAMPLES,
        1.0,
        seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
    );
    TimeSeries::new(format!("ingest-{seed}-{i}"), values)
}

/// The `/api/append` target that adds `series`.
pub fn append_target(series: &TimeSeries) -> String {
    let values: Vec<String> = series.values().iter().map(|v| v.to_string()).collect();
    format!(
        "/api/append?name={}&values={}",
        series.name(),
        values.join(",")
    )
}

/// A running deployment: the HTTP app over the single engine, plus the
/// shard servers when the workload fans out. Its server threads live
/// until the process exits.
pub struct Deployment {
    /// The engine the app serves (and the oracle queries).
    pub engine: Arc<Onex>,
    /// The app, for in-process calls to its handler.
    pub app: App,
    /// Where the app listens.
    pub addr: SocketAddr,
}

/// Round-robin partition: global series `g` lives on shard `g % n` (the
/// layout both fan-out backends assume).
pub fn partition(ds: &Dataset, n: usize) -> Vec<Dataset> {
    (0..n)
        .map(|s| {
            let part = ds
                .iter()
                .filter(|(g, _)| *g as usize % n == s)
                .map(|(_, series)| series.clone())
                .collect();
            Dataset::from_series(part).expect("partition names are unique")
        })
        .collect()
}

/// Start a shard server for `engine` on an ephemeral loopback port.
pub fn spawn_shard(engine: Arc<Onex>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address").to_string();
    let server = ShardServer::new(engine);
    std::thread::spawn(move || server.serve(listener));
    addr
}

/// One probe answer per route, as the client received it.
pub type ProbeAnswers = Vec<(Route, Result<Reply, String>)>;

/// Build and start everything `workload` needs, then send one request
/// per route. Returns the deployment, the time from the start of the
/// builds to the last of those answers, and each answer with its route.
pub fn deploy(
    workload: &Workload,
    ds: &Dataset,
    probe: &Query,
) -> (Deployment, Duration, ProbeAnswers) {
    let config = workload.config();
    let parts = if workload.fans_out() {
        partition(ds, SHARDS)
    } else {
        Vec::new()
    };
    let base = ds.clone();
    let start = Instant::now();
    // The single engine and the shard servers' engines build side by
    // side, as separate machines would.
    let (engine, shards) = std::thread::scope(|s| {
        let shards: Vec<_> = parts
            .into_iter()
            .map(|part| {
                let config = config.clone();
                s.spawn(move || Onex::build(part, config).expect("valid config").0)
            })
            .collect();
        let engine = Onex::build(base, config.clone()).expect("valid config").0;
        let shards: Vec<Arc<Onex>> = shards
            .into_iter()
            .map(|h| Arc::new(h.join().expect("shard build panicked")))
            .collect();
        (Arc::new(engine), shards)
    });
    let shard_addrs: Vec<String> = shards.iter().map(|e| spawn_shard(Arc::clone(e))).collect();
    let mut app = App::new(Arc::clone(&engine));
    if !shard_addrs.is_empty() {
        app = app.with_cluster(shard_addrs);
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let server = app.clone();
    std::thread::spawn(move || server.serve_with(listener, ServeOptions::default()));
    let mut client = Client::new(addr);
    let answers: Vec<_> = workload
        .routes
        .iter()
        .map(|&route| {
            (
                route,
                client.get(&probe.target(route)).map_err(|e| e.to_string()),
            )
        })
        .collect();
    let elapsed = start.elapsed();
    (Deployment { engine, app, addr }, elapsed, answers)
}
