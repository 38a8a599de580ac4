//! `cold_fanout`: a large corpus on 8 live shards scored with
//! corpus-wide statistics. Every query is new to the engine, so the
//! result cache never hits, and every query fans out to all shards on a
//! scatter pool, one query at a time. Postings decode, the evaluator,
//! scatter hand-off and gather do nearly all the work.
//!
//! Each round serves the same distinct queries on a freshly built engine
//! over the one index: no query repeats within an engine's life, and the
//! rounds carry identical work (see [`Slices`]).

use crate::inputs::{self, fork, WORLD};
use crate::layers::Layers;
use crate::measure::{self, median, per, Capacity, Metrics, Report, SimSummary, Slices};
use crate::oracle::Oracle;
use crate::probes;
use crate::trace::Tracer;
use dwr_partition::doc::{DocPartitioner, RandomPartitioner};
use dwr_partition::repart::RepartIndex;
use dwr_query::broker::{DocBroker, GlobalHit};
use dwr_query::cache::LruCache;
use dwr_query::engine::{query_key, DistributedEngine, EngineResponse, Served};
use std::sync::Arc;
use std::time::Instant;

const PAGES: usize = 100_000;
const HOSTS: usize = 2_000;
const SHARDS: usize = 8;
const K: usize = 10;
/// Engine result cache; every lookup misses, since no query repeats.
const CACHE: usize = 1_024;
/// Distinct queries per round.
const ROUND: usize = 8_192;
/// Queries per timed slice.
const SLICE: usize = 256;
/// Index + engine builds per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Queries whose oracle answer is checked against brute-force BM25.
const BRUTE_CHECKS: usize = 4;

fn engine(repart: &Arc<RepartIndex>) -> DistributedEngine<LruCache> {
    DistributedEngine::new_live(repart, LruCache::new(CACHE), 1)
        .with_parallelism(crate::worker_threads())
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Report {
    // Inputs, and the answers every round must return. Only the traced
    // run keeps the oracle (for its monolithic timings); the untraced run
    // drops it, and with it the corpus, before the program's state is
    // built, so its peak memory is the program's.
    let inputs::Web { content, corpus } = inputs::web(PAGES, HOSTS);
    let assignment = RandomPartitioner { seed: fork(WORLD, 3) }.assign(&corpus, SHARDS);
    let queries = inputs::distinct_queries(&content, ROUND, fork(fork(seed, 4), 0));
    let oracle = Oracle::build(Arc::new(corpus));
    let mut errors: Vec<String> = Vec::new();
    let expected: Vec<Vec<GlobalHit>> = queries.iter().map(|q| oracle.top_k(q, K)).collect();
    for (q, e) in queries.iter().zip(&expected).take(BRUTE_CHECKS) {
        if oracle.brute_top_k(q, K) != *e {
            errors.push(format!("{q:?}: oracle disagrees with brute-force BM25"));
        }
    }
    let oracle = tr.is_on().then_some(oracle);

    // Set-up: index build plus engine build, repeated. Each build gets a
    // freshly generated corpus (untimed), so the benchmark holds no copy
    // of it beside the program's.
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let corpus = inputs::web(PAGES, HOSTS).corpus;
        let t0 = Instant::now();
        let repart = Arc::new(RepartIndex::build(corpus, &assignment, SHARDS, SHARDS));
        let t1 = Instant::now();
        let e = engine(&repart);
        setup_s.push(t0.elapsed().as_secs_f64());
        build_s.push((t1 - t0).as_secs_f64());
        built = Some((repart, e));
    }
    let (repart, first_engine) = built.expect("at least one set-up");
    let mut first_engine = Some(first_engine);

    // The traced run's probes: a sequential broker over the same live
    // index.
    let seq_broker = tr.is_on().then(|| DocBroker::live(&repart));
    let mut probe = probes::Probe::default();

    let mut slices = Slices::default();
    let mut sim = SimSummary::default();
    let mut attempted = 0u64;
    let mut untraced = (0u64, 0.0f64);
    let mut round = 0u64;
    // A traced run needs an untraced round after the warm-up one to
    // compare its traced rounds with.
    while slices.timed_s < seconds || (tr.is_on() && round < 3) {
        let engine = first_engine.take().unwrap_or_else(|| engine(&repart));
        // The traced run alternates untraced and traced rounds, so the
        // tracing overhead is measured on the same work.
        let traced = tr.is_on() && round % 2 == 1;
        let mut responses: Vec<EngineResponse> = Vec::with_capacity(ROUND);
        let mut capacity = Capacity::default();
        for chunk in queries.chunks(SLICE) {
            let clock = slices.start();
            for q in chunk {
                let span = if traced { Some(tr.enter("engine.query", query_key(q))) } else { None };
                let t0 = Instant::now();
                responses.push(engine.query_full(q, K));
                let dt = t0.elapsed().as_secs_f64() * 1e6;
                match span {
                    Some(span) => tr.exit(span),
                    // Round 0 warms the process up; it is not compared.
                    None if round > 0 => untraced = (untraced.0 + 1, untraced.1 + dt),
                    None => {}
                }
                slices.latency_us.push(dt);
            }
            slices.finish(clock, chunk.len() as u64);
            let busy = engine.broker().busy_time();
            sim.capacity_qps.extend(capacity.slice(busy, chunk.len() as u64, 1));
        }
        slices.end_round(!traced);
        attempted += ROUND as u64;
        sim.evaluated += engine.broker().queries_processed();
        sim.work.merge(&engine.broker().eval_stats());
        // The engine and its scatter pool end before any probe pool
        // starts: one pool of workers at a time.
        drop(engine);
        if traced {
            let broker = seq_broker.as_ref().expect("traced runs build the probe broker");
            probe.pass(tr, broker, &repart.snapshot(), &repart.corpus_stats(), &queries, K);
        }

        // Checks, outside the timed slices.
        for ((q, r), e) in queries.iter().zip(&responses).zip(&expected) {
            if r.served != Served::Full || r.hits != *e {
                errors
                    .push(format!("{q:?}: {:?} {:?} where the oracle has {e:?}", r.served, r.hits));
            }
            sim.latency_us.push(r.latency.unwrap_or(0) as f64);
        }
        round += 1;
    }

    let mut m = Metrics::default();
    if tr.is_on() {
        let mut layers = Layers::new();
        slices.report(&mut layers);
        let (traced_n, engine_us) = tr.total_us("engine.query");
        // The oracle's monolithic evaluation of the same queries.
        let oracle = oracle.expect("the traced run keeps the oracle");
        for q in &queries {
            let span = tr.enter("text.mono_eval", query_key(q));
            std::hint::black_box(oracle.top_k(q, K));
            tr.exit(span);
        }
        let mono_per_query = per(tr.total_us("text.mono_eval").1, ROUND as u64);
        let text_per_query = per(tr.total_us("text.eval").1, traced_n);
        layers.set("text.eval_us_per_query", text_per_query);
        layers.set("text.mono_eval_us_per_query", mono_per_query);
        layers.set("text.shard_overhead_ratio", text_per_query / mono_per_query);
        let (work, evaluated) = (&sim.work, sim.evaluated);
        layers.set("text.postings_per_query", per(work.postings_scanned as f64, evaluated));
        layers.set("text.blocks_decoded_per_query", per(work.blocks_decoded as f64, evaluated));
        layers.set("text.blocks_skipped_per_query", per(work.blocks_skipped as f64, evaluated));
        layers.set("text.pruned_per_query", per(work.candidates_pruned as f64, evaluated));
        let snap = repart.snapshot();
        let bytes: usize = (0..snap.num_partitions()).map(|p| snap.part(p).encoded_bytes()).sum();
        layers.set("text.index_mib", bytes as f64 / (1024.0 * 1024.0));
        layers.set("partition.build_s", median(&mut build_s));
        probe.report(tr, &mut layers, traced_n);
        let keys: Vec<(u64, Vec<GlobalHit>)> =
            queries.iter().zip(&expected).map(|(q, e)| (query_key(q), e.clone())).collect();
        probes::cache_replay(&keys, CACHE, &mut layers);
        layers.set("engine.loop_us_per_query", per(engine_us, traced_n));
        layers.set("trace.overhead_pct", measure::overhead_pct((traced_n, engine_us), untraced));
        layers.report(&mut m);
    } else {
        m.push("setup_s", "s", median(&mut setup_s));
        m.push("peak_rss_mb", "MiB", measure::peak_rss_mib());
        sim.report(&mut m);
    }
    for e in errors.iter().take(5) {
        eprintln!("cold_fanout check failed: {e}");
    }
    Report { correct: errors.is_empty(), attempted, failed: 0, metrics: m }
}
