//! The traced run's per-layer numbers: each layer's public function is
//! called from here, inside a span, on the workload's own queries.

use std::hint::black_box;
use std::io::BufReader;
use std::sync::Arc;
use std::time::Instant;

use onex_api::{SharedBound, SimilaritySearch};
use onex_core::backends::outcome;
use onex_core::{LengthSelection, Onex, QueryOptions, QueryStats, ShardedEngine};
use onex_distance::lb::{lb_keogh_sq, lb_kim_fl_sq};
use onex_distance::{dtw, dtw_early_abandon, Band, Envelope};
use onex_grouping::BaseBuilder;
use onex_net::{ClusterEngine, Message, RemoteBackend, RemoteConfig};
use onex_server::http::Request;
use onex_tseries::Dataset;

use crate::loadgen::{request_bytes, Client, Rng};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{self, Deployment, Query, Workload, K, NEAREST, SHARDS};
use crate::Metrics;

/// Passes over the replayed queries for the `k_best` timings, so the
/// p90 has at least ten samples beyond it.
const KBEST_PASSES: usize = 4;
/// Appends (and extensions) timed per run.
const APPENDS: usize = 3;
/// Kernel calls per timed batch.
const KERNEL_REPS: usize = 200;

/// Per-query mean of a counter.
fn mean(stats: &[QueryStats], f: impl Fn(&QueryStats) -> usize) -> f64 {
    stats.iter().map(&f).sum::<usize>() as f64 / stats.len().max(1) as f64
}

fn med(tracer: &Tracer, name: &str) -> Result<f64, String> {
    median(&tracer.self_us(name)).ok_or_else(|| format!("no {name} spans"))
}

/// Run every layer's calls for `queries` and push the per-layer metrics.
/// `http_p50_ms` is the untraced HTTP median of the same run.
pub fn measure(
    w: &Workload,
    dep: &Deployment,
    queries: &[Query],
    tracer: &Tracer,
    seed: u64,
    http_p50_ms: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut request = 1_000_000u64;
    let mut next_request = || {
        request += 1;
        request
    };

    // onex-server: parse, handle and write each request the load
    // generator sends, on every route of the workload.
    let mut body_bytes = Vec::new();
    for q in queries {
        for &route in w.routes {
            let id = next_request();
            let bytes = request_bytes(&q.target(route));
            let req = tracer
                .time("server.parse", id, None, || {
                    Request::read_from(&mut BufReader::new(&bytes[..]))
                })
                .map_err(|e| e.to_string())?
                .ok_or("empty request")?;
            let resp = tracer.time("server.handle", id, None, || dep.app.handle(&req));
            if resp.status != 200 {
                return Err(format!(
                    "replayed {} answered {}",
                    q.target(route),
                    resp.status
                ));
            }
            let mut wire = Vec::new();
            tracer
                .time("server.write", id, None, || {
                    resp.write_keep_alive_to(&mut wire, true)
                })
                .map_err(|e| e.to_string())?;
            body_bytes.push(resp.body.len() as f64);
        }
    }
    // The same requests back to back on one keep-alive connection: every
    // request is sent right after the previous reply, so the socket path
    // shows without load.
    let mut client = Client::new(dep.addr);
    for q in queries {
        let id = next_request();
        let reply = tracer.time("http.sequential", id, None, || {
            client.get(&q.target(w.routes[0]))
        });
        match reply {
            Ok(r) if r.status == 200 => {}
            other => return Err(format!("sequential request failed: {other:?}")),
        }
    }
    let handle_us = med(tracer, "server.handle")?;
    m.push("server.handle_p50_us", handle_us, "us");
    m.push("server.socket_p50_us", http_p50_ms * 1e3 - handle_us, "us");
    m.push(
        "server.socket_seq_p50_us",
        med(tracer, "http.sequential")? - handle_us,
        "us",
    );
    m.push("server.parse_us", med(tracer, "server.parse")?, "us");
    m.push("server.write_us", med(tracer, "server.write")?, "us");
    m.push(
        "server.body_bytes",
        median(&body_bytes).unwrap_or(0.0),
        "bytes",
    );

    // onex-core: the engine call behind the workload's first route, and
    // the same call scanning only the best group (≈ phase-1 ranking).
    let engine = &dep.engine;
    let route = w.routes[0];
    let mut counters = Vec::new();
    let mut best = Vec::new();
    let mut kth_best = Vec::new();
    for pass in 0..KBEST_PASSES {
        for q in queries {
            let id = next_request();
            let opts = workload::route_options(route, q.id);
            let (matches, stats) = tracer
                .time("core.kbest", id, None, || {
                    engine.k_best(&q.values, K, &opts)
                })
                .map_err(|e| e.to_string())?;
            tracer
                .time("core.topgroup", id, None, || {
                    engine.k_best(&q.values, K, &opts.clone().top_groups(1))
                })
                .map_err(|e| e.to_string())?;
            if pass == 0 {
                counters.push(stats);
                best.push(matches[0].subseq);
                kth_best.push(matches[matches.len() - 1].distance);
            }
        }
    }
    let kbest = tracer.self_us("core.kbest");
    let kbest_p50 = median(&kbest).ok_or("no k_best samples")?;
    let topgroup_p50 = med(tracer, "core.topgroup")?;
    m.push("core.kbest_p50_us", kbest_p50, "us");
    m.push(
        "core.kbest_p90_us",
        percentile(&kbest, 0.9).ok_or("too few k_best samples for p90")?,
        "us",
    );
    m.push("core.topgroup_p50_us", topgroup_p50, "us");
    m.push("core.member_p50_us", kbest_p50 - topgroup_p50, "us");
    let c = &counters;
    m.push(
        "core.groups_examined",
        mean(c, |s| s.groups_examined),
        "count",
    );
    m.push("core.groups_pruned", mean(c, |s| s.groups_pruned), "count");
    m.push(
        "core.members_examined",
        mean(c, |s| s.members_examined),
        "count",
    );
    m.push("core.l0_pruned", mean(c, |s| s.members_l0_pruned), "count");
    m.push(
        "core.kim_pruned",
        mean(c, |s| s.members_kim_pruned),
        "count",
    );
    m.push("core.lb_pruned", mean(c, |s| s.members_lb_pruned), "count");
    m.push("core.dtw_completed", mean(c, |s| s.dtw_completed), "count");
    m.push("core.dtw_abandoned", mean(c, |s| s.dtw_abandoned), "count");
    let bound_pruned = mean(c, |s| s.members_bound_pruned());
    let members = mean(c, |s| s.members_examined) + bound_pruned;
    m.push(
        "core.member_prune_frac",
        bound_pruned / members.max(1.0),
        "ratio",
    );
    let dtw_runs = mean(c, |s| s.dtw_invocations());
    m.push(
        "core.dtw_abandon_frac",
        mean(c, |s| s.dtw_abandoned) / dtw_runs.max(1.0),
        "ratio",
    );

    // onex-distance: the kernels on each query and its best match. LB
    // bounds need equal lengths, so they compare against the window of
    // the query's length at the match's start. Most member DTWs abandon
    // early; their cost is sampled on seeded windows of the query's
    // length against the query's k-th best distance.
    let ds = engine.dataset();
    let mut rng = Rng::new(seed, 3);
    for ((q, hit), kth) in queries.iter().zip(&best).zip(&kth_best) {
        let id = next_request();
        let cand = ds.resolve(*hit).map_err(|e| e.to_string())?;
        let others: Vec<&[f64]> = (0..KERNEL_REPS / 10)
            .map(|_| {
                let s = ds
                    .series(rng.below(ds.len()) as u32)
                    .expect("id below the count");
                s.subsequence(rng.below(s.len() - q.len + 1), q.len)
                    .expect("window in bounds")
            })
            .collect();
        tracer.time("distance.dtw_abandon", id, None, || {
            for other in &others {
                black_box(dtw_early_abandon(
                    black_box(&q.values),
                    black_box(other),
                    Band::Full,
                    *kth,
                ));
            }
        });
        let series = ds.series(hit.series).ok_or("match series")?;
        let same_len = series
            .subsequence((hit.start as usize).min(series.len() - q.len), q.len)
            .ok_or("equal-length window")?;
        let env = Envelope::build(&q.values, Band::Full.radius(q.len, q.len));
        tracer.time("distance.dtw", id, None, || {
            for _ in 0..KERNEL_REPS / 10 {
                black_box(dtw(black_box(&q.values), black_box(cand), Band::Full));
            }
        });
        tracer.time("distance.lb_keogh", id, None, || {
            for _ in 0..KERNEL_REPS {
                black_box(lb_keogh_sq(black_box(same_len), &env, f64::INFINITY));
            }
        });
        tracer.time("distance.lb_kim", id, None, || {
            for _ in 0..KERNEL_REPS {
                black_box(lb_kim_fl_sq(black_box(&q.values), black_box(cand)));
            }
        });
    }
    drop(ds);
    let dtw_us = med(tracer, "distance.dtw")? / (KERNEL_REPS / 10) as f64;
    let abandon_us = med(tracer, "distance.dtw_abandon")? / (KERNEL_REPS / 10) as f64;
    let keogh_ns = med(tracer, "distance.lb_keogh")? * 1e3 / KERNEL_REPS as f64;
    let kim_ns = med(tracer, "distance.lb_kim")? * 1e3 / KERNEL_REPS as f64;
    m.push("distance.dtw_us", dtw_us, "us");
    m.push("distance.dtw_abandon_us", abandon_us, "us");
    m.push("distance.lb_keogh_ns", keogh_ns, "ns");
    m.push("distance.lb_kim_ns", kim_ns, "ns");
    // Kernel calls per query times their cost, over the query's time:
    // completed DTWs at full cost, abandoned ones at the sampled abandon
    // cost, LB_Keogh for members that reached it, LB_Kim for members
    // past the L0 tier. An estimate: the engine's candidates are nearer
    // than random windows and abandon later.
    let keogh_calls = mean(c, |s| s.members_examined + s.members_lb_pruned);
    let kim_calls = keogh_calls + mean(c, |s| s.members_kim_pruned);
    let dtw_cost =
        mean(c, |s| s.dtw_completed) * dtw_us + mean(c, |s| s.dtw_abandoned) * abandon_us;
    m.push(
        "distance.kernel_share",
        (dtw_cost + (keogh_calls * keogh_ns + kim_calls * kim_ns) / 1e3) / kbest_p50,
        "ratio",
    );

    // onex-grouping: a full build of the collection as it stands, and
    // extensions of the live base by one fresh series.
    let now: Dataset = (*engine.dataset()).clone();
    let builder = BaseBuilder::new(w.config()).map_err(|e| e.to_string())?;
    let (_, report) = tracer.time("grouping.build", next_request(), None, || {
        builder.build(&now)
    });
    m.push("grouping.build_s", report.elapsed.as_secs_f64(), "s");
    m.push("grouping.groups", report.groups as f64, "count");
    m.push("grouping.compaction", report.compaction(), "ratio");
    m.push(
        "grouping.build_distance_calls",
        report.work.distance_calls as f64,
        "count",
    );
    // Named apart from the walks the open loop appended.
    let fresh: Vec<_> = (0..APPENDS)
        .map(|i| workload::fresh_walk(seed ^ 0x7ACE, i))
        .collect();
    let base = engine.base();
    for series in &fresh {
        let mut grown = now.clone();
        grown.push(series.clone()).map_err(|e| e.to_string())?;
        tracer
            .time("grouping.extend", next_request(), None, || {
                builder.extend(&base, &grown)
            })
            .map_err(|e| e.to_string())?;
    }
    drop(base);
    let extend_ms = med(tracer, "grouping.extend")? / 1e3;
    m.push("grouping.extend_ms", extend_ms, "ms");

    // onex-scale: the in-process 4-shard engine against the single
    // engine, both without the onex route's own-series exclusion (the
    // sharded route applies none).
    let plain = QueryOptions::default().lengths(LengthSelection::Nearest(NEAREST));
    let (sharded, _) = tracer
        .time("scale.build", next_request(), None, || {
            ShardedEngine::build(&now, w.config(), SHARDS)
        })
        .map_err(|e| e.to_string())?;
    let sharded = sharded.with_options(plain.clone());
    m.push("scale.build_s", med(tracer, "scale.build")? / 1e6, "s");
    let (mut single_touched, mut single_dtw, mut shard_touched, mut shard_dtw) = (0, 0, 0, 0);
    for q in queries {
        let id = next_request();
        tracer
            .time("scale.kbest", id, None, || sharded.k_best(&q.values, K))
            .map_err(|e| e.to_string())?;
        let (matches, stats) = engine
            .k_best(&q.values, K, &plain)
            .map_err(|e| e.to_string())?;
        let single = outcome(matches, stats).stats;
        single_touched += single.examined + single.pruned;
        single_dtw += single.distance_computations;
        for o in sharded
            .shard_outcomes(&q.values, K)
            .map_err(|e| e.to_string())?
        {
            shard_touched += o.stats.examined + o.stats.pruned;
            shard_dtw += o.stats.distance_computations;
        }
    }
    m.push("scale.kbest_p50_us", med(tracer, "scale.kbest")?, "us");
    m.push(
        "scale.touched_ratio",
        shard_touched as f64 / single_touched.max(1) as f64,
        "ratio",
    );
    m.push(
        "scale.dtw_ratio",
        shard_dtw as f64 / single_dtw.max(1) as f64,
        "ratio",
    );

    // onex-net: shard servers over the same round-robin partition.
    let shards: Vec<Arc<Onex>> = workload::partition(&now, SHARDS)
        .into_iter()
        .map(|part| Onex::build(part, w.config()).map(|(e, _)| Arc::new(e)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let addrs: Vec<String> = shards
        .iter()
        .map(|e| workload::spawn_shard(Arc::clone(e)))
        .collect();
    let remotes: Vec<RemoteBackend> = addrs
        .iter()
        .map(|a| RemoteBackend::new(a.clone(), RemoteConfig::default()).with_options(plain.clone()))
        .collect();
    let cluster = ClusterEngine::connect(&addrs, RemoteConfig::default())
        .map_err(|e| e.to_string())?
        .with_options(plain.clone());
    let (sent0, received0) = cluster.gossip_counters();
    let mut fanout = Vec::new();
    let mut answer_bytes = Vec::new();
    for q in queries {
        let id = next_request();
        tracer
            .time("net.shard", id, None, || {
                shards[0].k_best(&q.values, K, &plain)
            })
            .map_err(|e| e.to_string())?;
        let mut slowest = 0.0f64;
        let mut first = None;
        for (s, remote) in remotes.iter().enumerate() {
            let start = Instant::now();
            let out = remote.k_best(&q.values, K).map_err(|e| e.to_string())?;
            let end = Instant::now();
            tracer.record(
                if s == 0 {
                    "net.remote"
                } else {
                    "net.remote_other"
                },
                id,
                None,
                start,
                end,
            );
            slowest = slowest.max((end - start).as_secs_f64() * 1e6);
            first.get_or_insert(out);
        }
        let start = Instant::now();
        cluster.k_best(&q.values, K).map_err(|e| e.to_string())?;
        let end = Instant::now();
        tracer.record("net.cluster", id, None, start, end);
        fanout.push((end - start).as_secs_f64() * 1e6 - slowest);

        // The wire messages of this query: the request to a shard and
        // shard 0's answer.
        let answer = first.expect("at least one shard");
        let messages = [
            Message::Query {
                k: K as u32,
                seed: SharedBound::new().get(),
                opts: plain.clone(),
                query: q.values.clone(),
            },
            Message::Answer {
                epoch: engine.epoch(),
                matches: answer.matches,
                stats: answer.stats,
                coverage: None,
            },
        ];
        let encoded = tracer.time("net.encode", id, None, || {
            let mut frames = Vec::new();
            for _ in 0..KERNEL_REPS {
                frames = messages.iter().map(|msg| black_box(msg.encode())).collect();
            }
            frames
        });
        answer_bytes.push(encoded[1].1.len() as f64);
        tracer
            .time("net.decode", id, None, || {
                for _ in 0..KERNEL_REPS {
                    for (kind, payload) in &encoded {
                        black_box(Message::decode(*kind, payload)?);
                    }
                }
                Ok::<(), onex_api::OnexError>(())
            })
            .map_err(|e| e.to_string())?;
    }
    let (sent, received) = cluster.gossip_counters();
    let shard_us = med(tracer, "net.shard")?;
    let remote_us = med(tracer, "net.remote")?;
    m.push("net.shard_p50_us", shard_us, "us");
    m.push("net.remote_p50_us", remote_us, "us");
    m.push("net.wire_p50_us", remote_us - shard_us, "us");
    m.push("net.cluster_p50_us", med(tracer, "net.cluster")?, "us");
    m.push("net.fanout_p50_us", median(&fanout).unwrap_or(0.0), "us");
    m.push(
        "net.encode_us",
        med(tracer, "net.encode")? / KERNEL_REPS as f64,
        "us",
    );
    m.push(
        "net.decode_us",
        med(tracer, "net.decode")? / KERNEL_REPS as f64,
        "us",
    );
    m.push(
        "net.answer_bytes",
        median(&answer_bytes).unwrap_or(0.0),
        "bytes",
    );
    m.push(
        "net.tightenings_per_query",
        ((sent - sent0) + (received - received0)) as f64 / queries.len() as f64,
        "count",
    );

    // onex-core append: the served engine takes the fresh series last,
    // after every read of this run. Publishing is what the append costs
    // beyond the extension: the copy and the versioned commit.
    for series in fresh {
        tracer
            .time("core.append", next_request(), None, || {
                engine.append_series(series)
            })
            .map_err(|e| e.to_string())?;
    }
    let append_ms = med(tracer, "core.append")? / 1e3;
    m.push("core.append_ms", append_ms, "ms");
    m.push("api.publish_ms", append_ms - extend_ms, "ms");
    Ok(())
}
