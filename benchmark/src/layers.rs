//! The per-layer metrics of the traced run. Every workload prints every
//! one of them; a layer a workload does not exercise reads 0 there (the
//! README says which workload each metric belongs to).

use crate::measure::Metrics;

/// (name, unit) of every per-layer metric, in print order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("wall.qps", "1/s"),
    ("wall.cpu_us_per_query", "us"),
    ("wall.latency_p50_us", "us"),
    ("wall.latency_p99_us", "us"),
    ("text.eval_us_per_query", "us"),
    ("text.mono_eval_us_per_query", "us"),
    ("text.shard_overhead_ratio", "ratio"),
    ("text.postings_per_query", "count"),
    ("text.blocks_decoded_per_query", "count"),
    ("text.blocks_skipped_per_query", "count"),
    ("text.pruned_per_query", "count"),
    ("text.index_mib", "MiB"),
    ("partition.build_s", "s"),
    ("repart.split_ms", "ms"),
    ("repart.splits_committed", "count"),
    ("repart.splits_aborted", "count"),
    ("scatter.queue_wait_us", "us"),
    ("scatter.handoff_us_per_task", "us"),
    ("broker.self_us_per_query", "us"),
    ("broker.shards_per_query", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookups", "count"),
    ("cache.evictions", "count"),
    ("cache.get_ns", "ns"),
    ("cache.put_ns", "ns"),
    ("engine.batch_us_per_query", "us"),
    ("engine.loop_us_per_query", "us"),
    ("engine.hedged_per_query", "count"),
    ("engine.hedge_work_us_per_query", "us"),
    ("engine.partial", "count"),
    ("engine.degraded", "count"),
    ("engine.batch_loop_divergences", "count"),
    ("route.shards_per_query", "count"),
    ("route.broadenings_per_query", "count"),
    ("route.profiles_built", "count"),
    ("route.decide_us", "us"),
    ("site.query_us", "us"),
    ("site.wan_hops_per_query", "count"),
    ("site.failovers", "count"),
    ("crawl.run_s", "s"),
    ("crawl.handoff_urls", "count"),
    ("crawl.refetches", "count"),
    ("crawl.lost_inflight", "count"),
    ("obs.overhead_us_per_query", "us"),
    ("trace.overhead_pct", "%"),
];

pub struct Layers(Vec<f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(vec![0.0; LAYER_METRICS.len()])
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = LAYER_METRICS
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.0[i] = value;
    }

    pub fn report(self, m: &mut Metrics) {
        for (&(name, unit), value) in LAYER_METRICS.iter().zip(self.0) {
            m.push(name, unit, value);
        }
    }
}
