//! `soak_storm`: the full-system soak, `SoakConfig::storm` scaled up. A
//! churning crawl feeds epoch-stamped refreshes; the published corpus
//! becomes a live index that splits (with crash fates) under traffic;
//! three sites with outage traces, replica churn, CORI routing, hedging,
//! stragglers and a gather deadline serve a diurnal stream through one
//! live `ObsRecorder`. It is the only workload with writes beside reads,
//! and the only one with the router, the site tier and a live recorder
//! on the query path.
//!
//! `SoakScenario::run` does all of this in one call, so it cannot tell
//! set-up from serving, and it draws its web, corpus and query universe
//! from the same seed as its traffic. The rounds are therefore a replay
//! of its phases from here, wired as it wires them, with one difference:
//! the world (web, corpus, shard assignment, query universe) comes from
//! the fixed seed `WORLD` and only the traffic and events from the run's
//! seed, because a new world moves memory, capacity and work per query
//! by a fifth between seeds. Each run first checks the replay against
//! the program: `SoakScenario::run()` on `SoakConfig::storm`, whose
//! report must satisfy `SoakInvariants` and equal, field for field, the
//! replay's report of the same config. Every round's report is then
//! checked with `SoakInvariants`, plus a check that the storm stormed (a
//! committed and an aborted split, a crawl hand-off, a site outage under
//! traffic).

use crate::inputs::{fork, WORLD};
use crate::layers::Layers;
use crate::measure::{self, median, per, Capacity, Metrics, Report, SimSummary, Slices};
use crate::trace::Tracer;
use dwr_avail::failure::UpDownProcess;
use dwr_avail::site::SiteConfig;
use dwr_crawler::assign::ConsistentHashAssigner;
use dwr_crawler::faults::AgentSchedule;
use dwr_crawler::sim::{CrawlConfig, CrawlReport, DistributedCrawl, SpanOutcome};
use dwr_obs::{NoopRecorder, ObsConfig, ObsRecorder, Recorder};
use dwr_partition::doc::{DocPartitioner, RandomPartitioner};
use dwr_partition::parted::{corpus_from_web, Corpus};
use dwr_partition::repart::{RepartIndex, SplitEvent, SplitFate, SplitSchedule};
use dwr_query::broker::{DocBroker, GlobalHit};
use dwr_query::cache::LruCache;
use dwr_query::engine::{DistributedEngine, Served};
use dwr_query::faults::{site_outage_traces, FaultSchedule};
use dwr_query::incremental::{self, PartitionArrival};
use dwr_query::multisite::{MultiSiteConfig, MultiSiteEngine, SiteEngineSpec};
use dwr_query::route::ShardRouter;
use dwr_query::straggler::{StragglerModel, TailParams};
use dwr_querylog::arrival::{generate_arrivals, Arrival, DiurnalProfile};
use dwr_querylog::model::{QueryId, QueryModel};
use dwr_sim::net::Topology;
use dwr_sim::{SimRng, SimTime, HOUR, MINUTE};
use dwr_soak::{
    IndexRefresh, QueryRecord, SoakConfig, SoakInvariants, SoakReport, SoakScenario, SoakWindow,
};
use dwr_text::TermId;
use dwr_webgraph::content::ContentModel;
use dwr_webgraph::generate::{generate_web, WebConfig};
use dwr_webgraph::SyntheticWeb;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Queries per timed slice of the serving phase.
const SLICE: usize = 1_024;

/// `SoakConfig::storm`, scaled up: a 20k-page web, 8 shards, three days
/// of diurnal traffic at 0.067 qps per region (~52k queries), and 16
/// split attempts.
fn config(seed: u64) -> SoakConfig {
    SoakConfig {
        pages: 20_000,
        hosts: 500,
        agents: 8,
        partitions: 8,
        splits: 16,
        cache: 256,
        serve_horizon: 72 * HOUR,
        mean_qps: 0.067,
        query_universe: 5_000,
        window: 6 * HOUR,
        ..SoakConfig::storm(seed)
    }
}

/// Where the replay departs from `SoakScenario::run`, which seeds the
/// world with `cfg.seed` and draws each split's fate from
/// `split_crash_rate`.
#[derive(Clone, Copy)]
struct Wiring {
    /// Seed of the web, corpus, shard assignment and query universe.
    world_seed: u64,
    /// Keep the drawn split instants but alternate their fates between
    /// commit and crash-before-publish, so every run commits and aborts
    /// the same number: the split count moves memory, capacity and work
    /// per query by more than the bounds allow between seeds.
    alternate_fates: bool,
}

impl Wiring {
    /// `SoakScenario::run`'s own wiring.
    fn scenario(cfg: &SoakConfig) -> Self {
        Wiring { world_seed: cfg.seed, alternate_fates: false }
    }

    /// The measured rounds' wiring.
    fn measured() -> Self {
        Wiring { world_seed: WORLD, alternate_fates: true }
    }
}

/// The world a soak crawls: its web, content model and the corpus every
/// page would yield.
struct World {
    web: SyntheticWeb,
    content: ContentModel,
    pages: Corpus,
}

fn world(cfg: &SoakConfig, seed: u64) -> World {
    let web_cfg = WebConfig { num_pages: cfg.pages, num_hosts: cfg.hosts, ..WebConfig::tiny() };
    let web = generate_web(&web_cfg, seed);
    let content = ContentModel::small(web_cfg.num_topics);
    let pages = corpus_from_web(&web, &content, seed);
    World { web, content, pages }
}

/// Everything the crawl tier produces, ahead of the index.
struct Prepared {
    baseline: CrawlReport,
    crawl: CrawlReport,
    crawl_s: f64,
    docs: Vec<(u32, SimTime)>,
    corpus: Corpus,
    refreshes: Vec<IndexRefresh>,
}

fn publish_at(t: SimTime, interval: SimTime) -> SimTime {
    (t / interval + 1) * interval
}

/// Phases 1–2: the calibration crawl, the churning crawl, and the
/// refresh ledger from its fetch trace.
fn crawl_and_publish(cfg: &SoakConfig, world: &World, recorder: &Arc<ObsRecorder>) -> Prepared {
    let base_cfg = CrawlConfig {
        agents: cfg.agents,
        connections_per_agent: 8,
        politeness_delay: cfg.politeness_delay,
        most_cited_seed: 50,
        record_trace: true,
        ..CrawlConfig::default()
    };
    let assigner = || ConsistentHashAssigner::new(cfg.agents, 64);
    let baseline = DistributedCrawl::new(&world.web, assigner(), base_cfg.clone(), cfg.seed).run();
    let mut churn_cfg = base_cfg;
    let up = (baseline.makespan / 3).max(1);
    let down = (baseline.makespan / 10).max(1);
    churn_cfg.faults = Some(AgentSchedule::generate(
        cfg.agents as usize,
        &UpDownProcess::exponential(up, down),
        (4 * baseline.makespan).max(1),
        cfg.seed ^ 0x50A7_C4A4,
    ));
    let t0 = Instant::now();
    let crawl = DistributedCrawl::new(&world.web, assigner(), churn_cfg, cfg.seed)
        .with_obs(Arc::clone(recorder))
        .run();
    let crawl_s = t0.elapsed().as_secs_f64();

    let mut first_fetch: BTreeMap<u32, SimTime> = BTreeMap::new();
    for span in &crawl.trace {
        if span.outcome == SpanOutcome::Fetched {
            let e = first_fetch.entry(span.page.0).or_insert(span.end);
            *e = (*e).min(span.end);
        }
    }
    let docs: Vec<(u32, SimTime)> = first_fetch.into_iter().collect();
    assert!(!docs.is_empty(), "the crawl fetched nothing");
    let corpus: Corpus = docs.iter().map(|&(page, _)| world.pages[page as usize].clone()).collect();

    let interval = cfg.refresh_interval;
    let last = docs.iter().map(|&(_, end)| publish_at(end, interval)).max().unwrap_or(interval);
    let mut refreshes: Vec<IndexRefresh> = (1..=last / interval)
        .map(|i| IndexRefresh { at: i * interval, docs_published: 0, max_lag: 0 })
        .collect();
    for &(_, end) in &docs {
        let at = publish_at(end, interval);
        let r = &mut refreshes[(at / interval - 1) as usize];
        r.docs_published += 1;
        r.max_lag = r.max_lag.max(at - end);
    }
    Prepared { baseline, crawl, crawl_s, docs, corpus, refreshes }
}

/// Phase 3: the live index and the three-site serving stack.
struct Stack<R: Recorder> {
    repart: Arc<RepartIndex>,
    router: Arc<ShardRouter>,
    engine: MultiSiteEngine<LruCache, R>,
}

fn build_stack<R: Recorder + Clone>(
    cfg: &SoakConfig,
    wiring: Wiring,
    corpus: Corpus,
    recorder: R,
) -> Stack<R> {
    let capacity = cfg.capacity();
    let assignment = RandomPartitioner { seed: wiring.world_seed }.assign(&corpus, cfg.partitions);
    let repart = Arc::new(RepartIndex::build(corpus, &assignment, cfg.partitions, capacity));
    let drawn = SplitSchedule::generate_with_crashes(
        cfg.splits,
        cfg.serve_horizon,
        cfg.seed ^ 0x5911_50A7,
        cfg.split_crash_rate,
    );
    let splits = Arc::new(if wiring.alternate_fates {
        let events = drawn
            .events()
            .iter()
            .enumerate()
            .map(|(i, e)| SplitEvent {
                at: e.at,
                fate: if i % 2 == 0 { SplitFate::Commit } else { SplitFate::CrashBeforePublish },
            })
            .collect();
        SplitSchedule::from_events(events, cfg.serve_horizon)
    } else {
        drawn
    });
    let router = Arc::new(ShardRouter::cori(cfg.route_width.expect("the storm routes")));
    let stragglers = Arc::new(StragglerModel::drawn(cfg.seed ^ 0x7A11_50A7, TailParams::mild()));
    let mut site_cfg = SiteConfig::birn_like(2);
    site_cfg.network = site_cfg.network.scaled(1.0 / 48.0);
    site_cfg.server = site_cfg.server.scaled(1.0 / 48.0);
    let outages =
        site_outage_traces(cfg.sites, &site_cfg, cfg.serve_horizon, cfg.seed ^ 0x517E_50A7);
    let sites = outages
        .into_iter()
        .enumerate()
        .map(|(s, outages)| {
            let mut engine =
                DistributedEngine::new_live(&repart, LruCache::new(cfg.cache), cfg.replicas)
                    .with_obs(recorder.clone())
                    .with_hedge_policy(cfg.hedge);
            if s == 0 {
                // One engine owns the split schedule, so each split
                // publishes exactly once.
                engine = engine.with_splits(Arc::clone(&splits));
            }
            engine =
                engine.with_router(Arc::clone(&router)).with_stragglers(Arc::clone(&stragglers));
            if let Some(d) = cfg.gather_deadline {
                engine = engine.with_gather_deadline(d);
            }
            let process = UpDownProcess::exponential(6 * HOUR, 20 * MINUTE);
            let faults = FaultSchedule::generate(
                capacity,
                cfg.replicas,
                &process,
                cfg.serve_horizon,
                cfg.seed ^ 0xFA17_0000 ^ ((s as u64) << 32),
            );
            engine = engine.with_faults(Arc::new(faults));
            SiteEngineSpec { region: s as u16, capacity_qps: 100.0, engine, outages }
        })
        .collect();
    let engine =
        MultiSiteEngine::new(sites, Topology::geo_ring(cfg.sites), MultiSiteConfig::default());
    Stack { repart, router, engine }
}

/// The query universe, the diurnal arrivals and the query each carries.
struct Traffic {
    qmodel: QueryModel,
    arrivals: Vec<Arrival>,
    queries: Vec<Vec<TermId>>,
}

fn traffic(cfg: &SoakConfig, world_seed: u64, content: &ContentModel) -> Traffic {
    let qmodel = QueryModel::generate(content, cfg.query_universe, 0.8, 0.9, world_seed ^ 0xF00D);
    let profiles: Vec<DiurnalProfile> = (0..cfg.sites)
        .map(|s| DiurnalProfile {
            mean_qps: cfg.mean_qps,
            amplitude: cfg.amplitude,
            phase: s as f64 / cfg.sites as f64,
        })
        .collect();
    let arrivals = generate_arrivals(&profiles, cfg.serve_horizon, cfg.seed ^ 0xA221_50A7);
    let mut rng = SimRng::new(cfg.seed ^ 0x9E81_50A7);
    let queries = arrivals
        .iter()
        .map(|_| qmodel.query(qmodel.sample(&mut rng)).terms.iter().map(|t| TermId(t.0)).collect())
        .collect();
    Traffic { qmodel, arrivals, queries }
}

/// FNV-1a over the hits' `(doc, score)` pairs, as the soak report keeps.
fn hits_digest(hits: &[GlobalHit]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for hit in hits {
        for word in [u64::from(hit.doc), u64::from(hit.score.to_bits())] {
            h ^= word;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// What the serving phase measures across rounds.
#[derive(Default)]
struct Meter {
    slices: Slices,
    sim: SimSummary,
    /// Split-publishing `advance_to` calls: count, total µs.
    split_calls: u64,
    split_us: f64,
    /// Query calls of untraced rounds after round 0: count, total µs.
    untraced: (u64, f64),
}

/// Phase 4: the diurnal storm, in fixed slices. Returns the records, the
/// interval windows and the wall µs spent in untraced query calls.
fn serve(
    cfg: &SoakConfig,
    stack: &Stack<Arc<ObsRecorder>>,
    recorder: &ObsRecorder,
    traffic: &Traffic,
    tr: &mut Tracer,
    round: u64,
    meter: &mut Meter,
) -> (Vec<QueryRecord>, Vec<SoakWindow>, f64) {
    let traced = tr.is_on() && round % 2 == 1;
    let engine = &stack.engine;
    let capacity = cfg.capacity();
    let mut records = Vec::with_capacity(traffic.arrivals.len());
    let mut windows = Vec::new();
    let (mut win_start, mut win_end, mut win_queries) = (0, cfg.window, 0u64);
    let (mut answered, mut query_us) = (0u64, 0.0f64);
    let mut sim_capacity = Capacity::default();
    let mut clock = meter.slices.start();
    let mut in_slice = 0u64;
    for (a, terms) in traffic.arrivals.iter().zip(&traffic.queries) {
        while a.time >= win_end {
            windows.push(SoakWindow {
                start: win_start,
                end: win_end,
                queries: win_queries,
                snapshot: recorder.snapshot(),
            });
            win_start = win_end;
            win_end += cfg.window;
            win_queries = 0;
        }
        let before = stack.repart.repart_stats();
        let ta = Instant::now();
        engine.advance_to(a.time);
        let tb = Instant::now();
        if stack.repart.repart_stats() != before {
            meter.split_calls += 1;
            meter.split_us += (tb - ta).as_secs_f64() * 1e6;
            tr.record("repart.split", a.time, ta, tb);
        }
        let live_sites = engine.live_sites(a.time).len() as u32;
        let span = if traced { Some(tr.enter("site.query", a.time)) } else { None };
        let tq = Instant::now();
        let r = engine.query(a.region, terms, cfg.k);
        let dt = tq.elapsed().as_secs_f64() * 1e6;
        match span {
            Some(span) => tr.exit(span),
            None => {
                // Round 0 warms the process up; it is not compared.
                if round > 0 {
                    meter.untraced = (meter.untraced.0 + 1, meter.untraced.1 + dt);
                }
                query_us += dt;
            }
        }
        meter.slices.latency_us.push(dt);
        if traced {
            let snap = stack.repart.snapshot();
            let span = tr.enter("route.decide", a.time);
            let selector = stack.router.profile(&snap);
            black_box(stack.router.decide(selector.as_ref(), &snap, terms));
            tr.exit(span);
        }
        win_queries += 1;
        answered += u64::from(!matches!(r.served, Served::Shed | Served::Failed));
        records.push(QueryRecord {
            at: a.time,
            region: a.region,
            live_sites,
            served: r.served,
            site: r.site.map(|s| s as u32),
            wan_hops: r.wan_hops,
            latency: r.latency,
            hits_digest: hits_digest(&r.hits),
        });
        in_slice += 1;
        if in_slice == SLICE as u64 {
            meter.slices.finish(clock, in_slice);
            let busy = site_busy_us(engine, cfg.sites, capacity);
            let shared = cfg.replicas * cfg.sites;
            meter.sim.capacity_qps.extend(sim_capacity.slice(busy, answered, shared));
            answered = 0;
            clock = meter.slices.start();
            in_slice = 0;
        }
    }
    engine.advance_to(cfg.serve_horizon);
    windows.push(SoakWindow {
        start: win_start,
        end: cfg.serve_horizon,
        queries: win_queries,
        snapshot: recorder.snapshot(),
    });
    meter.slices.finish(clock, in_slice);
    meter.slices.end_round(!traced);
    (records, windows, query_us)
}

/// Busy time per partition slot summed over the sites: every site serves
/// the same partitions, so a partition's load is shared by the replicas
/// of all sites.
fn site_busy_us<R: Recorder + Clone>(
    engine: &MultiSiteEngine<LruCache, R>,
    sites: usize,
    slots: usize,
) -> Vec<f64> {
    let mut busy_us = vec![0.0f64; slots];
    for s in 0..sites {
        for (total, b) in busy_us.iter_mut().zip(engine.site_engine(s).broker().busy_time()) {
            *total += b;
        }
    }
    busy_us
}

/// Phase 5: the round's `SoakReport`, as `SoakScenario::run` builds it.
fn report_of(
    cfg: &SoakConfig,
    prep: &Prepared,
    stack: &Stack<Arc<ObsRecorder>>,
    qmodel: &QueryModel,
    queries: Vec<QueryRecord>,
    windows: Vec<SoakWindow>,
    recorder: &ObsRecorder,
) -> SoakReport {
    let interval = cfg.refresh_interval;
    let probe: Vec<TermId> = qmodel.query(QueryId(0)).terms.iter().map(|t| TermId(t.0)).collect();
    let repart = &stack.repart;
    let oracle =
        DocBroker::single_site(&repart.snapshot()).with_global_stats(repart.corpus_stats());
    let mut by_refresh: BTreeMap<SimTime, Vec<GlobalHit>> = BTreeMap::new();
    for hit in oracle.query(&probe, prep.docs.len()).hits {
        by_refresh
            .entry(publish_at(prep.docs[hit.doc as usize].1, interval))
            .or_default()
            .push(hit);
    }
    let arrivals: Vec<PartitionArrival> =
        by_refresh.into_iter().map(|(at, hits)| PartitionArrival { at, hits }).collect();
    let engine = &stack.engine;
    SoakReport {
        baseline_coverage: prep.baseline.coverage,
        baseline_makespan: prep.baseline.makespan,
        crawl_coverage: prep.crawl.coverage,
        crawl_makespan: prep.crawl.makespan,
        crawl_faults: prep.crawl.faults,
        crawl_trace: prep.crawl.trace.clone(),
        politeness_delay: cfg.politeness_delay,
        fetched_docs: prep.docs.len() as u64,
        refreshes: prep.refreshes.clone(),
        refresh_interval: interval,
        freshness: incremental::profile(&arrivals, cfg.k, 6),
        queries,
        windows,
        final_snapshot: recorder.snapshot(),
        site_stats: engine.stats(),
        engine_stats: (0..cfg.sites).map(|s| engine.site_engine(s).stats()).collect(),
        router_stats: Some(stack.router.stats()),
        repart_stats: repart.repart_stats(),
        map_validates: repart.validate().is_ok(),
    }
}

/// The first part of the replay's report that differs from the
/// program's, if any.
fn first_difference(replay: &SoakReport, program: &SoakReport) -> Option<&'static str> {
    let parts = [
        (
            "crawl",
            replay.crawl_trace == program.crawl_trace
                && replay.crawl_faults == program.crawl_faults,
        ),
        ("refresh ledger", replay.refreshes == program.refreshes),
        ("freshness profile", replay.freshness == program.freshness),
        ("query records", replay.queries == program.queries),
        ("windows", replay.windows == program.windows),
        ("final snapshot", replay.final_snapshot == program.final_snapshot),
        (
            "site and engine counters",
            replay.site_stats == program.site_stats && replay.engine_stats == program.engine_stats,
        ),
        (
            "router and split counters",
            replay.router_stats == program.router_stats
                && replay.repart_stats == program.repart_stats,
        ),
    ];
    parts
        .iter()
        .find(|(_, same)| !same)
        .map(|&(name, _)| name)
        .or((replay != program).then_some("report"))
}

/// Run the program's own `SoakScenario::run()` on `SoakConfig::storm`
/// and check its report, and that the replay of the same config
/// reproduces it.
fn check_replay(seed: u64, errors: &mut Vec<String>) {
    let cfg = SoakConfig::storm(seed);
    let program = SoakScenario::new(cfg.clone()).run();
    for v in SoakInvariants::check(&program).violations() {
        errors.push(format!("SoakScenario::run: soak invariant: {v}"));
    }
    let wiring = Wiring::scenario(&cfg);
    let world = world(&cfg, wiring.world_seed);
    let traffic = traffic(&cfg, wiring.world_seed, &world.content);
    let recorder = Arc::new(ObsRecorder::new(ObsConfig::full_system(cfg.capacity(), cfg.sites)));
    let mut prep = crawl_and_publish(&cfg, &world, &recorder);
    let stack = build_stack(&cfg, wiring, std::mem::take(&mut prep.corpus), Arc::clone(&recorder));
    let (records, windows, _) =
        serve(&cfg, &stack, &recorder, &traffic, &mut Tracer::new(false), 0, &mut Meter::default());
    let replay = report_of(&cfg, &prep, &stack, &traffic.qmodel, records, windows, &recorder);
    if let Some(part) = first_difference(&replay, &program) {
        errors.push(format!("the replay does not reproduce SoakScenario::run's {part}"));
    }
}

/// The soak's end-state invariants, and a storm that stormed.
fn check_round(cfg: &SoakConfig, report: &SoakReport, errors: &mut Vec<String>) {
    for v in SoakInvariants::check(report).violations() {
        errors.push(format!("soak invariant: {v}"));
    }
    let rs = report.repart_stats;
    if rs.splits_committed == 0 || rs.splits_aborted == 0 {
        errors.push(format!("the split storm did not both commit and abort: {rs:?}"));
    }
    if report.crawl_faults.handoff_urls == 0 {
        errors.push("the crawl handed off no URL".into());
    }
    if !report.queries.iter().any(|q| (q.live_sites as usize) < cfg.sites) {
        errors.push("no site went down under traffic".into());
    }
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Report {
    let cfg = config(fork(seed, 9));
    let mut errors: Vec<String> = Vec::new();
    check_replay(cfg.seed, &mut errors);

    let wiring = Wiring::measured();
    let world = world(&cfg, wiring.world_seed);
    let traffic = traffic(&cfg, wiring.world_seed, &world.content);
    let mut meter = Meter::default();
    let (mut setup_s, mut build_s, mut crawl_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut attempted = 0u64;
    let mut noop_overhead = (0u64, 0.0f64);
    // Router counters of an untraced round: the traced run's decide probe
    // can build a profile before the engine does.
    let mut router_stats = None;
    let mut last = None;
    let mut round = 0u64;
    // A traced run needs an untraced round after the warm-up one to
    // compare its traced rounds with.
    while meter.slices.timed_s < seconds || (tr.is_on() && round < 3) {
        // --- Set-up: crawl, refresh ledger, index and serving stack. ---
        let t0 = Instant::now();
        let recorder =
            Arc::new(ObsRecorder::new(ObsConfig::full_system(cfg.capacity(), cfg.sites)));
        let mut prep = crawl_and_publish(&cfg, &world, &recorder);
        // The traced run keeps a copy for its recorder-free twin stack
        // (set-up time is reported by untraced runs only).
        let corpus_copy = tr.is_on().then(|| prep.corpus.clone());
        let tb = Instant::now();
        let stack =
            build_stack(&cfg, wiring, std::mem::take(&mut prep.corpus), Arc::clone(&recorder));
        build_s.push(tb.elapsed().as_secs_f64());
        setup_s.push(t0.elapsed().as_secs_f64());
        crawl_s.push(prep.crawl_s);

        // --- Serving. ---
        let (records, windows, query_us) =
            serve(&cfg, &stack, &recorder, &traffic, tr, round, &mut meter);
        let traced = tr.is_on() && round % 2 == 1;
        attempted += records.len() as u64;
        if round == 0 {
            for r in &records {
                // The engine's response time: answers evaluated at their
                // own region's site (a WAN failover adds the site tier's
                // round trips and backoff on top; `site.*` count those).
                if r.wan_hops == 0 && !matches!(r.served, Served::CacheHit | Served::StaleFromCache)
                {
                    meter.sim.latency_us.extend(r.latency.map(|l| l as f64));
                }
            }
            for s in 0..cfg.sites {
                let broker = stack.engine.site_engine(s).broker();
                meter.sim.evaluated += broker.queries_processed();
                meter.sim.work.merge(&broker.eval_stats());
            }
        }

        // The same stream through a serving stack without a live
        // recorder: the difference in query-call time is the recorder's
        // cost.
        if tr.is_on() && !traced {
            let corpus = corpus_copy.expect("traced runs keep a corpus copy");
            let noop = build_stack(&cfg, wiring, corpus, NoopRecorder);
            let mut noop_us = 0.0f64;
            for (a, terms) in traffic.arrivals.iter().zip(&traffic.queries) {
                noop.engine.advance_to(a.time);
                let t = Instant::now();
                black_box(noop.engine.query(a.region, terms, cfg.k));
                noop_us += t.elapsed().as_secs_f64() * 1e6;
            }
            noop_overhead.0 += records.len() as u64;
            noop_overhead.1 += query_us - noop_us;
            router_stats = Some(stack.router.stats());
        }

        // --- Checks. ---
        let report = report_of(&cfg, &prep, &stack, &traffic.qmodel, records, windows, &recorder);
        check_round(&cfg, &report, &mut errors);
        last = Some(report);
        round += 1;
    }

    let report = last.expect("at least one round");
    let Meter { slices, sim, split_calls, split_us, untraced } = meter;
    let mut m = Metrics::default();
    if tr.is_on() {
        let mut layers = Layers::new();
        slices.report(&mut layers);
        let n = report.queries.len() as u64;
        let (work, evaluated) = (&sim.work, sim.evaluated);
        layers.set("text.postings_per_query", per(work.postings_scanned as f64, evaluated));
        layers.set("text.blocks_decoded_per_query", per(work.blocks_decoded as f64, evaluated));
        layers.set("text.blocks_skipped_per_query", per(work.blocks_skipped as f64, evaluated));
        layers.set("text.pruned_per_query", per(work.candidates_pruned as f64, evaluated));
        layers.set("partition.build_s", median(&mut build_s));
        layers.set("repart.split_ms", per(split_us, split_calls) / 1e3);
        layers.set("repart.splits_committed", report.repart_stats.splits_committed as f64);
        layers.set("repart.splits_aborted", report.repart_stats.splits_aborted as f64);
        let rs = router_stats.expect("the traced run has untraced rounds");
        layers.set("route.shards_per_query", per(rs.shards_contacted as f64, rs.queries));
        layers.set("route.broadenings_per_query", per(rs.broadenings as f64, rs.queries));
        layers.set("route.profiles_built", rs.profiles_built as f64);
        let (decides, decide_us) = tr.total_us("route.decide");
        layers.set("route.decide_us", per(decide_us, decides));
        let (site_n, site_us) = tr.total_us("site.query");
        layers.set("site.query_us", per(site_us, site_n));
        layers.set("site.wan_hops_per_query", per(report.site_stats.wan_hops as f64, n));
        layers.set("site.failovers", report.site_stats.failovers as f64);
        layers.set("crawl.run_s", median(&mut crawl_s));
        layers.set("crawl.handoff_urls", report.crawl_faults.handoff_urls as f64);
        layers.set("crawl.refetches", report.crawl_faults.refetches as f64);
        layers.set("crawl.lost_inflight", report.crawl_faults.lost_inflight as f64);
        layers.set("obs.overhead_us_per_query", per(noop_overhead.1, noop_overhead.0));
        layers.set("trace.overhead_pct", measure::overhead_pct((site_n, site_us), untraced));
        layers.report(&mut m);
    } else {
        m.push("setup_s", "s", median(&mut setup_s));
        m.push("peak_rss_mb", "MiB", measure::peak_rss_mib());
        sim.report(&mut m);
    }
    for e in errors.iter().take(5) {
        eprintln!("soak_storm check failed: {e}");
    }
    Report { correct: errors.is_empty(), attempted, failed: 0, metrics: m }
}
