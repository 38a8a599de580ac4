//! `hot_batch`: the Figure-2 corpus on 8 shards × 2 replicas, a Zipf
//! stream with a heavy head, and an LRU result cache smaller than the
//! number of distinct queries, so it evicts. Queries are admitted in
//! batches through `DistributedEngine::query_batch` on an engine with a
//! replica fault schedule, heavy-tailed stragglers, percentile-triggered
//! hedging, a gather deadline and sequential scatter. The cache, batch
//! admission, dispatch, hedging and the timed gather dominate.
//!
//! A round is eight segments, each a fresh engine with its own seeded
//! stream, fault schedule and straggler draws. The straggler model draws
//! a query's slowdown from (seed, partition, replica, query), so one seed
//! fixes for a whole stream which popular queries are slow, hedged or cut
//! at the deadline; pooling eight such draws keeps the work and capacity
//! figures from hinging on one.
//!
//! Each round also serves a second stream, drawn and faulted from a
//! fixed seed, through `query_batch` and, on an untimed twin, through the
//! query-at-a-time loop. `query_batch` consults the cache for the whole
//! batch before it inserts any of the batch's results, so once the LRU
//! evicts, its answers part from the loop's. Every batch answer whose
//! hits, outcome or simulated latency differ from the twin's is a failed
//! operation. The probe stream does not depend on the run's seed, so the
//! failed share is the same on every run; the seeded stream's own
//! divergences are counted by the traced run.

use crate::inputs::{self, fork, terms_of, WORLD};
use crate::layers::Layers;
use crate::measure::{self, median, per, Capacity, Metrics, Report, SimSummary, Slices};
use crate::oracle::Oracle;
use crate::probes;
use crate::trace::Tracer;
use dwr_avail::failure::UpDownProcess;
use dwr_partition::doc::{DocPartitioner, RandomPartitioner};
use dwr_partition::repart::RepartIndex;
use dwr_query::broker::GlobalHit;
use dwr_query::cache::LruCache;
use dwr_query::engine::{
    query_key, DistributedEngine, EngineResponse, EngineStats, HedgePolicy, Served,
};
use dwr_query::faults::FaultSchedule;
use dwr_query::straggler::{StragglerModel, TailParams};
use dwr_sim::{SimRng, SimTime, MINUTE};
use dwr_text::TermId;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const PAGES: usize = 20_000;
const HOSTS: usize = 500;
const SHARDS: usize = 8;
const REPLICAS: usize = 2;
const K: usize = 10;
/// Distinct queries in the Zipf universe: ten times the cache.
const UNIVERSE: usize = 5_000;
const CACHE: usize = 512;
const BATCH: usize = 64;
/// Segments per round, and batches per segment.
const SEGMENTS: usize = 8;
const SEGMENT_BATCHES: usize = 128;
/// Batches per timed slice.
const SLICE_BATCHES: usize = 16;
/// Simulated time between batch admissions: a segment spans about 23
/// replica up/down cycles of the fault schedule.
const STEP: SimTime = 2 * MINUTE;
/// Fault-schedule horizon: one segment.
const HORIZON: SimTime = SEGMENT_BATCHES as SimTime * STEP;
const GATHER_DEADLINE: SimTime = 1_500;
const HEDGE_PERCENTILE: f64 = 90.0;
const SETUPS: usize = 5;
/// Batches in each round's batch≢loop probe stream.
const PROBE_BATCHES: usize = 64;

fn engine(repart: &Arc<RepartIndex>, seed: u64) -> DistributedEngine<LruCache> {
    let process = UpDownProcess::exponential(10 * MINUTE, MINUTE);
    let faults = FaultSchedule::generate(SHARDS, REPLICAS, &process, HORIZON, fork(seed, 5));
    DistributedEngine::new_live(repart, LruCache::new(CACHE), REPLICAS)
        .with_faults(Arc::new(faults))
        .with_stragglers(Arc::new(StragglerModel::drawn(fork(seed, 6), TailParams::heavy())))
        .with_hedge_policy(HedgePolicy::PercentileTrigger(HEDGE_PERCENTILE))
        .with_gather_deadline(GATHER_DEADLINE)
}

fn differs(a: &EngineResponse, b: &EngineResponse) -> bool {
    a.hits != b.hits || a.served != b.served || a.latency != b.latency
}

/// The workload's stream and engines at a fixed seed: serve
/// `PROBE_BATCHES` batches through `query_batch` and, on a twin, query at
/// a time. Returns the batch answers and how many part from the twin's.
fn batch_loop_probe(
    repart: &Arc<RepartIndex>,
    queries: &[Vec<TermId>],
) -> (Vec<EngineResponse>, u64) {
    let batch_engine = engine(repart, WORLD);
    let loop_engine = engine(repart, WORLD);
    let mut responses = Vec::with_capacity(queries.len());
    let mut diverged = 0u64;
    for (i, chunk) in queries.chunks(BATCH).enumerate() {
        let now = i as SimTime * STEP;
        batch_engine.advance_to(now);
        loop_engine.advance_to(now);
        for (q, b) in chunk.iter().zip(batch_engine.query_batch(chunk, K)) {
            diverged += u64::from(differs(&b, &loop_engine.query_full(q, K)));
            responses.push(b);
        }
    }
    (responses, diverged)
}

/// Check one round's answers in serving order. A cache hit must return
/// what the engine last cached for its key; that answer was checked when
/// it was produced.
fn check_round(
    oracle: &Oracle,
    expected: &mut HashMap<u64, Vec<GlobalHit>>,
    queries: &[Vec<TermId>],
    responses: &[EngineResponse],
    errors: &mut Vec<String>,
) {
    let mut cached: HashMap<u64, &[GlobalHit]> = HashMap::new();
    for (q, r) in queries.iter().zip(responses) {
        let key = query_key(q);
        let check = match r.served {
            Served::CacheHit => match cached.get(&key) {
                Some(c) if *c == r.hits.as_slice() => Ok(()),
                _ => Err("cache hit differs from the cached answer".to_string()),
            },
            Served::Full => {
                let expect = expected.entry(key).or_insert_with(|| oracle.top_k(q, K));
                if r.hits == *expect {
                    Ok(())
                } else {
                    Err(format!("full answer differs from the oracle's {expect:?}"))
                }
            }
            Served::Degraded { .. } | Served::Partial { .. } | Served::Routed { .. } => {
                oracle.check_props(&r.hits, q, K)
            }
            Served::Failed if r.hits.is_empty() => Ok(()),
            other => Err(format!("unexpected outcome {other:?}")),
        };
        if let Err(e) = check {
            errors.push(format!("{q:?} ({:?}): {e}", r.served));
        }
        if matches!(r.served, Served::Full | Served::Degraded { .. } | Served::Routed { .. }) {
            cached.insert(key, &r.hits);
        }
    }
}

/// One segment of a round: the seed of its engine's faults and
/// stragglers and of its stream, and the stream.
struct Segment {
    seed: u64,
    queries: Vec<Vec<TermId>>,
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Report {
    let inputs::Web { content, corpus } = inputs::web(PAGES, HOSTS);
    let assignment = RandomPartitioner { seed: fork(WORLD, 3) }.assign(&corpus, SHARDS);

    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let copy = corpus.clone();
        drop(built.take());
        let t0 = Instant::now();
        let repart = Arc::new(RepartIndex::build(copy, &assignment, SHARDS, SHARDS));
        let t1 = Instant::now();
        black_box(engine(&repart, seed));
        setup_s.push(t0.elapsed().as_secs_f64());
        build_s.push((t1 - t0).as_secs_f64());
        built = Some(repart);
    }
    let repart = built.expect("at least one set-up");

    let oracle = Oracle::build(Arc::new(corpus));
    let model = inputs::query_model(&content, UNIVERSE, fork(WORLD, 7));
    let segments: Vec<Segment> = (0..SEGMENTS as u64)
        .map(|i| {
            let seed = fork(seed, 100 + i);
            let mut rng = SimRng::new(fork(seed, 8));
            let queries = (0..BATCH * SEGMENT_BATCHES)
                .map(|_| terms_of(&model, model.sample(&mut rng)))
                .collect();
            Segment { seed, queries }
        })
        .collect();
    let mut probe_rng = SimRng::new(fork(WORLD, 8));
    let probe_queries: Vec<Vec<TermId>> = (0..BATCH * PROBE_BATCHES)
        .map(|_| terms_of(&model, model.sample(&mut probe_rng)))
        .collect();
    let mut errors: Vec<String> = Vec::new();
    let first = &segments[0].queries[0];
    if oracle.brute_top_k(first, K) != oracle.top_k(first, K) {
        errors.push(format!("{first:?}: oracle disagrees with brute-force BM25"));
    }
    let mut expected: HashMap<u64, Vec<GlobalHit>> = HashMap::new();

    let mut slices = Slices::default();
    let mut sim = SimSummary::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut divergences, mut untraced) = (0u64, (0u64, 0.0f64));
    // The last round's engine counters, summed over its segments, and its
    // key stream with the answers.
    let mut stats = EngineStats::default();
    let mut keys: Vec<(u64, Vec<GlobalHit>)> = Vec::new();
    let mut round = 0u64;
    // A traced run needs an untraced round after the warm-up one to
    // compare its traced rounds with.
    while slices.timed_s < seconds || (tr.is_on() && round < 3) {
        let traced = tr.is_on() && round % 2 == 1;
        stats = EngineStats::default();
        keys.clear();
        for seg in &segments {
            let engine = engine(&repart, seg.seed);
            let mut responses: Vec<EngineResponse> = Vec::with_capacity(seg.queries.len());
            let mut now: SimTime = 0;
            let mut capacity = Capacity::default();
            for slice in seg.queries.chunks(BATCH * SLICE_BATCHES) {
                let clock = slices.start();
                for chunk in slice.chunks(BATCH) {
                    engine.advance_to(now);
                    let span = if traced { Some(tr.enter("engine.batch", now)) } else { None };
                    let t0 = Instant::now();
                    responses.extend(engine.query_batch(chunk, K));
                    let dt = t0.elapsed().as_secs_f64() * 1e6;
                    match span {
                        Some(span) => tr.exit(span),
                        // Round 0 warms the process up; it is not compared.
                        None if round > 0 => {
                            untraced = (untraced.0 + chunk.len() as u64, untraced.1 + dt)
                        }
                        None => {}
                    }
                    slices.latency_us.extend(std::iter::repeat_n(dt, chunk.len()));
                    now += STEP;
                }
                slices.finish(clock, slice.len() as u64);
                let start = responses.len() - slice.len();
                let answered =
                    responses[start..].iter().filter(|r| r.served != Served::Failed).count();
                let busy = engine.broker().busy_time();
                sim.capacity_qps.extend(capacity.slice(busy, answered as u64, REPLICAS));
            }
            attempted += seg.queries.len() as u64;

            // The traced run serves the same stream query-at-a-time on an
            // identically configured twin, to time the loop form and
            // count where batch and loop answers part.
            if tr.is_on() {
                let twin = self::engine(&repart, seg.seed);
                for (i, (chunk, batch)) in
                    seg.queries.chunks(BATCH).zip(responses.chunks(BATCH)).enumerate()
                {
                    twin.advance_to(i as SimTime * STEP);
                    for (q, b) in chunk.iter().zip(batch) {
                        let span =
                            if traced { Some(tr.enter("engine.loop", query_key(q))) } else { None };
                        let l = twin.query_full(q, K);
                        if let Some(span) = span {
                            tr.exit(span);
                        }
                        divergences += u64::from(differs(b, &l));
                    }
                }
            }

            check_round(&oracle, &mut expected, &seg.queries, &responses, &mut errors);
            for r in &responses {
                if let (false, Some(l)) = (r.served == Served::CacheHit, r.latency) {
                    sim.latency_us.push(l as f64);
                }
            }
            sim.evaluated += engine.broker().queries_processed();
            sim.work.merge(&engine.broker().eval_stats());
            let st = engine.stats();
            stats.hedged += st.hedged;
            stats.hedge_work_us += st.hedge_work_us;
            stats.partial += st.partial;
            stats.degraded += st.degraded;
            keys.extend(seg.queries.iter().zip(responses).map(|(q, r)| (query_key(q), r.hits)));
        }
        slices.end_round(!traced);

        let (probe, diverged) = batch_loop_probe(&repart, &probe_queries);
        check_round(&oracle, &mut expected, &probe_queries, &probe, &mut errors);
        attempted += probe.len() as u64;
        failed += diverged;
        round += 1;
    }

    let mut m = Metrics::default();
    if tr.is_on() {
        let mut layers = Layers::new();
        slices.report(&mut layers);
        let (batches, batch_us) = tr.total_us("engine.batch");
        let batch_per_query = per(batch_us, batches * BATCH as u64);
        let (loops, loop_us) = tr.total_us("engine.loop");
        let (work, evaluated) = (&sim.work, sim.evaluated);
        let served = keys.len() as u64;
        layers.set("text.postings_per_query", per(work.postings_scanned as f64, evaluated));
        layers.set("text.blocks_decoded_per_query", per(work.blocks_decoded as f64, evaluated));
        layers.set("text.blocks_skipped_per_query", per(work.blocks_skipped as f64, evaluated));
        layers.set("text.pruned_per_query", per(work.candidates_pruned as f64, evaluated));
        let snap = repart.snapshot();
        let bytes: usize = (0..snap.num_partitions()).map(|p| snap.part(p).encoded_bytes()).sum();
        layers.set("text.index_mib", bytes as f64 / (1024.0 * 1024.0));
        layers.set("partition.build_s", median(&mut build_s));
        probes::cache_replay(&keys, CACHE, &mut layers);
        layers.set("engine.batch_us_per_query", batch_per_query);
        layers.set("engine.loop_us_per_query", per(loop_us, loops));
        layers.set("engine.hedged_per_query", per(stats.hedged as f64, served));
        layers.set("engine.hedge_work_us_per_query", per(stats.hedge_work_us as f64, served));
        layers.set("engine.partial", stats.partial as f64);
        layers.set("engine.degraded", stats.degraded as f64);
        layers.set("engine.batch_loop_divergences", per(divergences as f64, round));
        let traced = (batches * BATCH as u64, batch_us);
        layers.set("trace.overhead_pct", measure::overhead_pct(traced, untraced));
        layers.report(&mut m);
    } else {
        m.push("setup_s", "s", median(&mut setup_s));
        m.push("peak_rss_mb", "MiB", measure::peak_rss_mib());
        sim.report(&mut m);
    }
    for e in errors.iter().take(5) {
        eprintln!("hot_batch check failed: {e}");
    }
    eprintln!(
        "hot_batch: {failed} of {attempted} operations failed (batch≢loop probe stream); {} check errors",
        errors.len()
    );
    Report { correct: errors.is_empty(), attempted, failed, metrics: m }
}
