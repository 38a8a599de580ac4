//! Probes of the traced run: the benchmark's own timed calls into the
//! text, scatter and cache layers, beside the workload's real path.

use crate::layers::Layers;
use crate::measure::per;
use crate::trace::Tracer;
use dwr_partition::parted::PartitionedIndex;
use dwr_partition::repart::CorpusStats;
use dwr_query::broker::{DocBroker, GlobalHit};
use dwr_query::cache::{LruCache, ShardedCache};
use dwr_query::engine::query_key;
use dwr_query::scatter::ScatterPool;
use dwr_text::score::Bm25;
use dwr_text::search::{search_or_with, EvalStats, EvalStrategy};
use dwr_text::TermId;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

#[derive(Default)]
pub struct Probe {
    scatter_tasks: u64,
    queue_wait_us: f64,
    broker_shards: u64,
}

impl Probe {
    /// The layer probes over one round's queries, run after the round's
    /// engine (and its scatter pool) has ended: a sequential
    /// `DocBroker::query` and the same shard evaluations called directly,
    /// per query, then every query's evaluations scattered back to back
    /// on a pool of the engine's size, as the engine scatters them. The
    /// broker and the direct evaluations take turns going first, so
    /// neither always finds the query's postings warm in cache.
    pub fn pass(
        &mut self,
        tr: &mut Tracer,
        broker: &DocBroker,
        snap: &PartitionedIndex,
        stats: &Arc<CorpusStats>,
        queries: &[Vec<TermId>],
        k: usize,
    ) {
        for q in queries {
            let qid = query_key(q);
            if qid.is_multiple_of(2) {
                self.broker_query(tr, broker, q, k, qid);
                eval_shards(tr, snap, stats, q, k, qid);
            } else {
                eval_shards(tr, snap, stats, q, k, qid);
                self.broker_query(tr, broker, q, k, qid);
            }
        }
        let pool = ScatterPool::new(crate::worker_threads());
        for q in queries {
            self.scatter(tr, &pool, snap, stats, q, k, query_key(q));
        }
    }

    fn broker_query(
        &mut self,
        tr: &mut Tracer,
        broker: &DocBroker,
        terms: &[TermId],
        k: usize,
        qid: u64,
    ) {
        let span = tr.enter("broker.query", qid);
        let r = broker.query(terms, k);
        tr.exit(span);
        self.broker_shards += r.partitions_used as u64;
    }

    /// Scatter the query's shard evaluations on `pool` as probe tasks
    /// that note when they start and end.
    #[allow(clippy::too_many_arguments)]
    fn scatter(
        &mut self,
        tr: &mut Tracer,
        pool: &ScatterPool,
        snap: &PartitionedIndex,
        stats: &Arc<CorpusStats>,
        terms: &[TermId],
        k: usize,
        qid: u64,
    ) {
        let tasks: Vec<_> = snap
            .active_parts()
            .into_iter()
            .map(|p| {
                let shard = snap.shard(p as usize);
                let stats = Arc::clone(stats);
                let terms = terms.to_vec();
                move || {
                    let start = Instant::now();
                    let mut ev = EvalStats::default();
                    let bm25 = Bm25::default();
                    let idx = shard.index();
                    black_box(search_or_with(
                        EvalStrategy::MaxScore,
                        idx,
                        &terms,
                        k,
                        &bm25,
                        &*stats,
                        &mut ev,
                    ));
                    (start, Instant::now())
                }
            })
            .collect();
        self.scatter_tasks += tasks.len() as u64;
        let span = tr.enter("scatter", qid);
        let submit = Instant::now();
        let done: Vec<(Instant, Instant)> = pool.scatter(tasks);
        for &(start, end) in &done {
            tr.record("scatter.task", qid, start, end);
            self.queue_wait_us += (start - submit).as_secs_f64() * 1e6;
        }
        tr.exit(span);
    }

    /// Scatter and broker metrics over `queries` traced queries. The
    /// scatter's hand-off is its span's self time — wall time minus the
    /// time its tasks cover — per task: with more tasks than workers,
    /// wall time minus the longest task would also count the other
    /// tasks' own work.
    pub fn report(&self, tr: &Tracer, layers: &mut Layers, queries: u64) {
        layers.set("scatter.queue_wait_us", per(self.queue_wait_us, self.scatter_tasks));
        layers.set("scatter.handoff_us_per_task", per(tr.self_us("scatter"), self.scatter_tasks));
        let broker_us = tr.total_us("broker.query").1 - tr.total_us("text.eval").1;
        layers.set("broker.self_us_per_query", per(broker_us, queries));
        layers.set("broker.shards_per_query", per(self.broker_shards as f64, queries));
    }
}

/// Time `search_or_with` over each of the query's shards in turn, under
/// one `text.eval` span.
fn eval_shards(
    tr: &mut Tracer,
    snap: &PartitionedIndex,
    stats: &CorpusStats,
    terms: &[TermId],
    k: usize,
    qid: u64,
) {
    let bm25 = Bm25::default();
    let span = tr.enter("text.eval", qid);
    for p in snap.active_parts() {
        let mut ev = EvalStats::default();
        let idx = snap.part(p as usize);
        black_box(search_or_with(EvalStrategy::MaxScore, idx, terms, k, &bm25, stats, &mut ev));
    }
    tr.exit(span);
}

/// Replay a workload's key stream, in serving order, through a
/// `ShardedCache<LruCache>` of the workload's capacity: look each key
/// up, insert its answer on a miss.
pub fn cache_replay(stream: &[(u64, Vec<GlobalHit>)], capacity: usize, layers: &mut Layers) {
    let cache = ShardedCache::single(LruCache::new(capacity));
    let (mut get_ns, mut put_ns, mut puts) = (0.0f64, 0.0f64, 0u64);
    for (key, hits) in stream {
        let t0 = Instant::now();
        let hit = black_box(cache.get(*key));
        get_ns += t0.elapsed().as_nanos() as f64;
        if hit.is_none() {
            let value = hits.clone();
            let t1 = Instant::now();
            cache.put(*key, value);
            put_ns += t1.elapsed().as_nanos() as f64;
            puts += 1;
        }
    }
    let stats = cache.stats();
    let lookups = stats.hits + stats.misses;
    layers.set("cache.hit_ratio", stats.hit_ratio());
    layers.set("cache.lookups", lookups as f64);
    layers.set("cache.evictions", stats.evictions as f64);
    layers.set("cache.get_ns", per(get_ns, lookups));
    layers.set("cache.put_ns", per(put_ns, puts));
}
