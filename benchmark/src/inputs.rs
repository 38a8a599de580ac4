//! Workload inputs, generated from the seed alone. The program under test
//! receives only what these functions produce.

use dwr_partition::parted::{corpus_from_web, Corpus};
use dwr_query::engine::query_key;
use dwr_querylog::model::{QueryId, QueryModel};
use dwr_text::TermId;
use dwr_webgraph::content::ContentModel;
use dwr_webgraph::generate::{generate_web, WebConfig};
use std::collections::HashSet;

/// Seed of each workload's world: its web, corpus, shard assignment and
/// query universe. The run seed drives the traffic and the events: which
/// queries arrive in what order, fault, straggler, crawl-churn, split and
/// outage draws. Fixing the world keeps one run's cost comparable with
/// another's, since a new corpus or query universe moves the cost of a
/// query far more than a new draw of traffic over the same one.
pub const WORLD: u64 = 20_070_415;

/// Derive an independent stream seed for one purpose.
pub fn fork(seed: u64, label: u64) -> u64 {
    let mut z = seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub struct Web {
    pub content: ContentModel,
    pub corpus: Corpus,
}

/// The world's synthetic web of `pages` pages on `hosts` hosts, and its
/// corpus.
pub fn web(pages: usize, hosts: usize) -> Web {
    let cfg = WebConfig { num_pages: pages, num_hosts: hosts, ..WebConfig::default() };
    let web = generate_web(&cfg, fork(WORLD, 1));
    let content = ContentModel::small(cfg.num_topics);
    let corpus = corpus_from_web(&web, &content, fork(WORLD, 2));
    Web { content, corpus }
}

/// The Zipf query universe the popularity-sampled streams draw from.
pub fn query_model(content: &ContentModel, universe: usize, seed: u64) -> QueryModel {
    QueryModel::generate(content, universe, 0.8, 0.9, seed)
}

pub fn terms_of(model: &QueryModel, id: QueryId) -> Vec<TermId> {
    model.query(id).terms.iter().map(|t| TermId(t.0)).collect()
}

/// `n` queries no two of which share a cache key: a query universe of
/// the seed, walked in order, duplicates skipped.
pub fn distinct_queries(content: &ContentModel, n: usize, seed: u64) -> Vec<Vec<TermId>> {
    let model = query_model(content, 10 * n, seed);
    let mut seen = HashSet::new();
    let queries: Vec<Vec<TermId>> = (0..model.universe())
        .map(|i| terms_of(&model, QueryId(i as u32)))
        .filter(|q| seen.insert(query_key(q)))
        .take(n)
        .collect();
    assert_eq!(queries.len(), n, "the query universe holds fewer than {n} distinct queries");
    queries
}
