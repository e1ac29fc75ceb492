//! The ONEX benchmark: `/api/match` latency at a fixed offered load and
//! with the server kept busy, served by the real `onex-server` app on
//! loopback, with every answer checked against the in-process engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sine-explore --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around the calls into each layer and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object; the lines before it list the same metrics for people. The
//! exit code is 1 when any answer was wrong and 2 when the run is
//! invalid (bad arguments, or the generator fell behind its schedule).
//! See `perfbench/README.md` for the workloads and metrics.

mod layers;
mod loadgen;
mod oracle;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use loadgen::{Op, Rng, Sample};
use oracle::Hit;
use trace::Tracer;
use workload::{Deployment, Query, Route, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of `--seconds` spent in the open loop; the rest is the
/// closed-loop capacity phase (untraced runs) or unused (traced runs,
/// which time the per-layer calls instead).
const OPEN_SHARE: f64 = 0.55;
/// Query windows replayed in-process by the traced run.
const REPLAY_QUERIES: usize = 32;
/// The run is invalid when the generator's own lateness at p90 exceeds
/// this: the schedule, not the server, would then set the latencies.
const MAX_LATE_P90: Duration = Duration::from_millis(25);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(&value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(bad("expected 1 to 600 seconds"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// Named metrics with units, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Add one metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// What one request should have returned.
#[derive(Debug, Clone)]
enum Target {
    Match { query: usize, route: Route },
    Append { name: String },
}

/// Counts of operations attempted, failed (transport error or non-200)
/// and answered wrongly.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: usize,
    failed: usize,
    wrong: usize,
}

impl Tally {
    fn add(&mut self, verdict: Result<(), Fault>) {
        self.attempted += 1;
        match verdict {
            Ok(()) => {}
            Err(Fault::Failed(why)) => {
                self.failed += 1;
                eprintln!("failed: {why}");
            }
            Err(Fault::Wrong(why)) => {
                self.wrong += 1;
                eprintln!("WRONG: {why}");
            }
        }
    }
}

enum Fault {
    Failed(String),
    Wrong(String),
}

/// The oracle answers each read is checked against. A workload's routes
/// share their query options, so one answer per window serves them all.
struct Oracle {
    /// Per window: the answer at the start of the run.
    before: Vec<Vec<Hit>>,
    /// Per window: the answer after the last append, when the workload
    /// appends.
    after: Option<Vec<Vec<Hit>>>,
    /// Per window: its length.
    query_lens: Vec<usize>,
}

impl Oracle {
    fn new(w: &Workload, engine: &onex_core::Onex, queries: &[Query]) -> Oracle {
        Oracle {
            before: queries
                .iter()
                .map(|q| workload::expected(engine, q, w.routes[0]))
                .collect(),
            after: None,
            query_lens: queries.iter().map(|q| q.len).collect(),
        }
    }

    fn judge_match(
        &self,
        query: usize,
        route: Route,
        reply: &Result<loadgen::Reply, String>,
    ) -> Result<(), Fault> {
        let reply = ok_reply(reply)?;
        let (backend, hits) = oracle::parse_match(&reply.body).map_err(Fault::Wrong)?;
        if backend != route.name() {
            return Err(Fault::Wrong(format!(
                "asked {}, answered {backend}",
                route.name()
            )));
        }
        let want = &self.before[query];
        let query_len = self.query_lens[query];
        match (&self.after, route) {
            (Some(after), _) => {
                oracle::check_between(&hits, workload::K, want, &after[query], query_len)
            }
            (None, Route::Onex) => oracle::check_exact(&hits, want),
            (None, _) => oracle::check_up_to_ties(&hits, want, query_len),
        }
        .map_err(Fault::Wrong)
    }
}

/// The reply of a request that completed with 200, or why not.
fn ok_reply(reply: &Result<loadgen::Reply, String>) -> Result<&loadgen::Reply, Fault> {
    match reply {
        Ok(r) if r.status == 200 => Ok(r),
        Ok(r) => Err(Fault::Failed(format!(
            "status {}: {}",
            r.status,
            String::from_utf8_lossy(&r.body)
        ))),
        Err(e) => Err(Fault::Failed(e.clone())),
    }
}

/// The epoch an append reply reports, checking it names the series sent.
fn judge_append(name: &str, reply: &Result<loadgen::Reply, String>) -> Result<u64, Fault> {
    let (appended, epoch) = oracle::parse_append(&ok_reply(reply)?.body).map_err(Fault::Wrong)?;
    if appended == name {
        Ok(epoch)
    } else {
        Err(Fault::Wrong(format!(
            "appended {appended:?}, sent {name:?}"
        )))
    }
}

/// Fisher–Yates shuffle.
fn shuffle(v: &mut [usize], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Everything both run kinds share: the workload's inputs and a running
/// deployment, plus what the open loop observed.
struct Run {
    w: Workload,
    seed: u64,
    queries: Vec<Query>,
    targets: Vec<String>,
    kinds: Vec<Target>,
    dep: Deployment,
    oracle: Oracle,
    tally: Tally,
    connections: usize,
    /// The engine epoch before the first scheduled operation.
    epoch0: u64,
}

impl Run {
    /// Set the workload up `setups` times (keeping the last deployment)
    /// and return the run plus each set-up's duration.
    fn start(w: Workload, seed: u64, setups: usize) -> (Run, Vec<f64>) {
        let ds = w.dataset();
        let mut rng = Rng::new(seed, 1);
        let queries = workload::queries(&ds, &mut rng, workload::DISTINCT_QUERIES);
        let mut tally = Tally::default();
        let mut times = Vec::new();
        let mut last = None;
        for i in 0..setups {
            let (dep, elapsed, answers) = workload::deploy(&w, &ds, &queries[i % queries.len()]);
            let oracle = Oracle::new(&w, &dep.engine, &queries[i % queries.len()..][..1]);
            for (route, reply) in &answers {
                tally.add(oracle.judge_match(0, *route, reply));
            }
            times.push(elapsed.as_secs_f64());
            last = Some(dep);
        }
        let dep = last.expect("at least one set-up");
        let mut targets = Vec::new();
        let mut kinds = Vec::new();
        for (qi, q) in queries.iter().enumerate() {
            for &route in w.routes {
                targets.push(q.target(route));
                kinds.push(Target::Match { query: qi, route });
            }
        }
        let oracle = Oracle::new(&w, &dep.engine, &queries);
        let dep_epoch = dep.engine.epoch();
        let connections = std::thread::available_parallelism()
            .map_or(2, |n| n.get())
            .min(onex_server::ServeOptions::default().workers);
        (
            Run {
                w,
                seed,
                queries,
                targets,
                kinds,
                dep,
                epoch0: dep_epoch,
                oracle,
                tally,
                connections,
            },
            times,
        )
    }

    /// The seeded open-loop schedule for `duration`; appends (when the
    /// workload has them) get targets of their own.
    fn schedule(&mut self, duration: Duration) -> Vec<Op> {
        let mut rng = Rng::new(self.seed, 2);
        let reads = self.targets.len();
        let periodic = self.w.append_every.map(|every| {
            let first = self.targets.len();
            let count = (duration.as_secs_f64() / every.as_secs_f64()).ceil() as usize + 1;
            for i in 0..count {
                let series = workload::fresh_walk(self.seed, i);
                self.targets.push(workload::append_target(&series));
                self.kinds.push(Target::Append {
                    name: series.name().to_owned(),
                });
            }
            (every, first)
        });
        let routes = self.w.routes.len();
        // Every window is used equally often, in a seeded order, so the
        // run's mix of cheap and costly queries does not vary. On the
        // fan-out workload each window goes to every route once, the
        // routes in seeded order.
        let mut windows: Vec<usize> = (0..reads / routes).collect();
        shuffle(&mut windows, &mut Rng::new(self.seed, 4));
        let mut turn = 0usize;
        let mut order: Vec<usize> = (0..routes).collect();
        loadgen::schedule(
            &mut rng,
            self.w.rate,
            duration,
            |r| {
                if turn.is_multiple_of(routes) {
                    shuffle(&mut order, r);
                }
                let target =
                    windows[(turn / routes) % windows.len()] * routes + order[turn % routes];
                turn += 1;
                target
            },
            periodic,
        )
    }

    /// Check every open-loop sample; returns per-route latencies (ms),
    /// append latencies (ms) and generator lateness (ms).
    fn judge_open(&mut self, samples: &[Sample]) -> OpenResult {
        let mut appended = Vec::new();
        if self.w.append_every.is_some() {
            self.oracle.after = Some(
                self.queries
                    .iter()
                    .map(|q| workload::expected(&self.dep.engine, q, Route::Onex))
                    .collect(),
            );
        }
        let mut out = OpenResult::default();
        for s in samples {
            out.late.push(ms(s.late));
            match &self.kinds[s.target] {
                Target::Match { query, route } => {
                    self.tally
                        .add(self.oracle.judge_match(*query, *route, &s.reply));
                    out.reads.push((*route, ms(s.latency())));
                }
                Target::Append { name } => {
                    out.appends.push(ms(s.latency()));
                    match judge_append(name, &s.reply) {
                        Ok(epoch) => appended.push(epoch),
                        Err(f) => self.tally.add(Err(f)),
                    }
                }
            }
        }
        // Each append advances the epoch exactly once.
        appended.sort_unstable();
        let now = self.dep.engine.epoch();
        let expect: Vec<u64> = (1..=appended.len() as u64)
            .map(|i| self.epoch0 + i)
            .collect();
        let ok = appended == expect && now == self.epoch0 + appended.len() as u64;
        for _ in 0..appended.len() {
            self.tally.add(if ok {
                Ok(())
            } else {
                Err(Fault::Wrong(format!(
                    "append epochs {appended:?} from epoch {}, engine now at {now}",
                    self.epoch0
                )))
            });
        }
        out
    }
}

#[derive(Default)]
struct OpenResult {
    reads: Vec<(Route, f64)>,
    appends: Vec<f64>,
    late: Vec<f64>,
}

impl OpenResult {
    fn read_ms(&self, route: Option<Route>) -> Vec<f64> {
        self.reads
            .iter()
            .filter(|(r, _)| route.is_none_or(|x| x == *r))
            .map(|&(_, l)| l)
            .collect()
    }
}

fn require(name: &str, v: Option<f64>) -> Result<f64, String> {
    v.ok_or_else(|| format!("too few samples for {name}"))
}

/// `--trace 0`: set-up time, open-loop latency, and closed-loop latency
/// and capacity.
fn run_e2e(args: &Args) -> Result<(Metrics, Tally, String), String> {
    let (mut run, setups) = Run::start(args.workload, args.seed, SETUPS);
    let open = Duration::from_secs_f64(args.seconds * OPEN_SHARE);
    let closed = Duration::from_secs_f64(args.seconds * (1.0 - OPEN_SHARE));
    let ops = run.schedule(open);
    let samples = loadgen::run_open(run.dep.addr, run.connections, &ops, &run.targets, None);
    let result = run.judge_open(&samples);

    // Closed loop over the reads only: seeded windows per client, the
    // routes in turn (clients offset by one), so the mix of routes is the
    // same in every run.
    let routes = run.w.routes.len();
    let orders: Vec<Vec<usize>> = (0..run.connections)
        .map(|lane| {
            let mut rng = Rng::new(args.seed, 10 + lane as u64);
            (0..4096)
                .map(|i| rng.below(run.queries.len()) * routes + (i + lane) % routes)
                .collect()
        })
        .collect();
    let pick = |lane: usize, i: usize| orders[lane][i % orders[lane].len()];
    let (cap, elapsed) =
        loadgen::run_closed(run.dep.addr, run.connections, closed, &run.targets, &pick);
    let mut correct = 0;
    for s in &cap {
        let Target::Match { query, route } = run.kinds[s.target] else {
            unreachable!("closed loop sends reads only")
        };
        let verdict = run.oracle.judge_match(query, route, &s.reply);
        correct += usize::from(verdict.is_ok());
        run.tally.add(verdict);
    }

    let late_p90 = require("late p90", stats::percentile(&result.late, 0.9))?;
    if late_p90 > ms(MAX_LATE_P90) {
        return Err(format!(
            "invalid run: the generator itself was {late_p90:.1} ms late at p90 (limit {} ms)",
            ms(MAX_LATE_P90)
        ));
    }
    let all = result.read_ms(None);
    let closed_ms: Vec<f64> = cap.iter().map(|s| ms(s.latency())).collect();
    let mut m = Metrics::default();
    m.push("setup_s", require("setup_s", stats::median(&setups))?, "s");
    m.push(
        "closed_p50_ms",
        require("closed_p50_ms", stats::median(&closed_ms))?,
        "ms",
    );
    m.push(
        "closed_p90_ms",
        require("closed_p90_ms", stats::percentile(&closed_ms, 0.9))?,
        "ms",
    );
    m.push(
        "capacity_qps",
        correct as f64 / elapsed.as_secs_f64(),
        "1/s",
    );
    let mut report = format!(
        "workload {} seed {}: {} reads due at {}/s over {:.1} s on {} keep-alive connections, \
         then {} closed-loop reads in {:.1} s\n",
        run.w.name,
        args.seed,
        all.len(),
        run.w.rate,
        open.as_secs_f64(),
        run.connections,
        cap.len(),
        elapsed.as_secs_f64(),
    );
    // Printed but not in the JSON metrics: the open-loop latencies, which
    // the keep-alive stall makes too unsteady from run to run to hold to
    // a bound (see README.md), and figures that apply to one workload
    // only or read zero on a correct run.
    let mut extra = vec![
        ("match_p50_ms", stats::median(&all), "ms"),
        ("match_p90_ms", stats::percentile(&all, 0.9), "ms"),
    ];
    if !result.appends.is_empty() {
        extra.push(("append_p50_ms", stats::median(&result.appends), "ms"));
    }
    if run.w.fans_out() {
        for (name, route) in [
            ("sharded_p50_ms", Route::Sharded),
            ("cluster_p50_ms", Route::Cluster),
        ] {
            extra.push((name, stats::median(&result.read_ms(Some(route))), "ms"));
        }
    }
    let t = run.tally;
    extra.push((
        "error_frac",
        Some((t.failed + t.wrong) as f64 / t.attempted.max(1) as f64),
        "ratio",
    ));
    extra.push(("loadgen.late_p90_ms", Some(late_p90), "ms"));
    for (name, v, unit) in extra {
        report += &format!(
            "{name} {} {unit}\n",
            v.map_or("n/a".into(), |v| v.to_string())
        );
    }
    Ok((m, run.tally, report))
}

/// `--trace 1`: the same workload with spans, then the per-layer calls.
fn run_traced(args: &Args) -> Result<(Metrics, Tally, String), String> {
    let (mut run, _) = Run::start(args.workload, args.seed, 1);
    let tracer = Tracer::new();
    let open = Duration::from_secs_f64(args.seconds * OPEN_SHARE);
    let ops = run.schedule(open);
    let samples = loadgen::run_open(
        run.dep.addr,
        run.connections,
        &ops,
        &run.targets,
        Some(&tracer),
    );
    let result = run.judge_open(&samples);
    // Even-numbered operations were traced, odd ones not.
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for s in &samples {
        if let Target::Match { .. } = run.kinds[s.target] {
            if s.op % 2 == 0 {
                &mut traced
            } else {
                &mut plain
            }
            .push(ms(s.latency()));
        }
    }
    let mut m = Metrics::default();
    let http_p50_ms = require("untraced p50", stats::median(&plain))?;
    layers::measure(
        &run.w,
        &run.dep,
        &run.queries[..REPLAY_QUERIES],
        &tracer,
        args.seed,
        http_p50_ms,
        &mut m,
    )?;
    let completed = samples
        .iter()
        .filter(|s| matches!(&s.reply, Ok(r) if r.status == 200))
        .count();
    m.push(
        "loadgen.late_p90_ms",
        require("late p90", stats::percentile(&result.late, 0.9))?,
        "ms",
    );
    m.push("loadgen.sent", samples.len() as f64, "count");
    m.push("loadgen.completed", completed as f64, "count");
    m.push(
        "trace.overhead_frac",
        require("traced p50", stats::median(&traced))? / http_p50_ms - 1.0,
        "ratio",
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", run.w.name, args.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let report = format!(
        "workload {} seed {} (traced): {} spans written to {}\n",
        run.w.name,
        args.seed,
        tracer.spans().len(),
        path.display()
    );
    Ok((m, run.tally, report))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        run_traced(&args)
    } else {
        run_e2e(&args)
    };
    let (metrics, tally, report) = match outcome {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some((name, ..)) = metrics.0.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("metric {name} is not finite");
        return ExitCode::from(2);
    }
    print!("{report}");
    for (name, value, unit) in &metrics.0 {
        println!("{name} {value} {unit}");
    }
    let correct = tally.wrong == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed + tally.wrong,
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
