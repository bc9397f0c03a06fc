//! The three workloads and the round that drives one of them: set-up, then
//! the measured batches against a concurrent reader thread, then the
//! checks. Every call into the program goes through a [`Tracer`] span.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use netrec_core::{dred, RunBudget, RunReport, RuntimeKind, Strategy, System, SystemConfig};
use netrec_engine::{ServeSpec, ViewReader};
use netrec_topo::{link_tuples, transit_stub, Topology, TransitStubParams, Workload};
use netrec_types::{NetAddr, Tuple, UpdateKind, Value};

use crate::closure::{Closure, LinkSet};
use crate::stats::Hist;
use crate::trace::Tracer;

/// Topology seed of the paper's harnesses (fig07/fig08, `bench-report`).
const TOPO_SEED: u64 = 42;
/// Load-order seed of the fig07 full load.
const LOAD_SEED: u64 = 7;
/// Failure-set seed of the fig08 deletion workload; also picks the flap
/// pool, so both are the same for every `--seed`.
const FAIL_SEED: u64 = 13;
/// The reader times one call in this many.
const SAMPLE_EVERY: u64 = 16;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Absorption-lazy on the DES: fig08 mass failure, then recovery one
    /// link tuple per batch.
    OutageDes,
    /// Relative-lazy on the async runtime: single-link flap cycles.
    FlapAsync,
    /// Set semantics with DRed on two async shards over loopback TCP.
    DredTcp,
}

impl Kind {
    /// Every workload, in the order the repeat mode interleaves them.
    pub const ALL: [Kind; 3] = [Kind::OutageDes, Kind::FlapAsync, Kind::DredTcp];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::OutageDes => "outage_des",
            Kind::FlapAsync => "flap_async",
            Kind::DredTcp => "dred_tcp",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    fn params(self) -> TransitStubParams {
        match self {
            // 2 transit routers, 3 stubs of 8 each: 50 nodes.
            Kind::OutageDes => TransitStubParams {
                transits_per_domain: 2,
                ..Default::default()
            },
            // The bench-report topology: 1 transit, 2 stubs of 5: 11 nodes.
            Kind::FlapAsync => TransitStubParams {
                transits_per_domain: 1,
                stubs_per_transit: 2,
                nodes_per_stub: 5,
                ..Default::default()
            },
            // The paper's 100-node topology.
            Kind::DredTcp => TransitStubParams::default(),
        }
    }

    fn config(self) -> SystemConfig {
        let (strategy, peers, runtime) = match self {
            Kind::OutageDes => (Strategy::absorption_lazy(), 8, RuntimeKind::des()),
            Kind::FlapAsync => (Strategy::relative_lazy(), 4, RuntimeKind::asynchronous()),
            Kind::DredTcp => (Strategy::set(), 12, RuntimeKind::sharded_async_tcp(2)),
        };
        // No event or simulated-time cap: a long-lived system keeps
        // accumulating both. The wall cap turns a hung batch into a failed
        // op well inside the run's time limit.
        let budget = RunBudget::default().with_wall(Duration::from_secs(30));
        SystemConfig::new(strategy, peers)
            .with_budget(budget)
            .with_runtime(runtime)
    }
}

/// splitmix64: the benchmark's own seeded shuffles.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

fn addr(t: &Tuple, col: usize) -> u32 {
    t.get(col)
        .as_addr()
        .expect("link endpoints are addresses")
        .0
}

/// One batch: base-tuple operations injected together and converged once.
struct Batch {
    kind: UpdateKind,
    tuples: Vec<Tuple>,
    /// Deletions through `dred_delete` (set semantics) instead of inject.
    dred: bool,
}

impl Batch {
    fn new(kind: UpdateKind, tuples: Vec<Tuple>, dred: bool) -> Batch {
        Batch { kind, tuples, dred }
    }
}

/// A workload's generated inputs.
struct Script {
    nodes: u32,
    load: Vec<Tuple>,
    warmup: Vec<Batch>,
    batches: Vec<Batch>,
}

/// Both directed tuples of each undirected link, in `topo.links` order.
fn both_ways(topo: &Topology, link: usize) -> Vec<Tuple> {
    link_tuples(topo)[2 * link..2 * link + 2].to_vec()
}

/// A link coming back: one batch per direction, as each end announces it.
/// A failure takes both directions down at once; a recovery arrives one
/// link tuple at a time, as in the outage workload. Besides being the
/// realistic order, this keeps the median batch inside the restore mode
/// instead of on the edge between two equal halves.
fn restore(topo: &Topology, link: usize) -> Vec<Batch> {
    both_ways(topo, link)
        .into_iter()
        .map(|t| Batch::new(UpdateKind::Insert, vec![t], false))
        .collect()
}

impl Script {
    fn new(kind: Kind, seed: u64) -> Script {
        let topo = transit_stub(kind.params(), TOPO_SEED);
        let load: Vec<Tuple> = Workload::insert_links(&topo, 1.0, LOAD_SEED)
            .ops
            .into_iter()
            .map(|op| op.tuple)
            .collect();
        let mut rng = Rng(seed);
        let mut links: Vec<usize> = (0..topo.links.len()).collect();
        let (warmup, batches) = match kind {
            Kind::OutageDes => {
                let failed: Vec<Tuple> = Workload::delete_links(&topo, 0.6, FAIL_SEED)
                    .ops
                    .into_iter()
                    .map(|op| op.tuple)
                    .collect();
                // Recovery in the fig08 order, whatever the seed: under F1
                // the recovery order alone moves state and time several-fold.
                let recovery = failed.clone();
                let mut batches = vec![Batch::new(UpdateKind::Delete, failed, false)];
                batches.extend(
                    recovery
                        .into_iter()
                        .map(|t| Batch::new(UpdateKind::Insert, vec![t], false)),
                );
                (Vec::new(), batches)
            }
            Kind::FlapAsync => {
                Rng(FAIL_SEED).shuffle(&mut links);
                let pool = &links[..8];
                let flap = |out: &mut Vec<Batch>, link: usize| {
                    out.push(Batch::new(
                        UpdateKind::Delete,
                        both_ways(&topo, link),
                        false,
                    ));
                    out.extend(restore(&topo, link));
                };
                let mut warmup = Vec::new();
                for &l in pool {
                    flap(&mut warmup, l);
                }
                // 7 passes over the pool, each in a seeded order: 56 cycles.
                let mut batches = Vec::new();
                for _ in 0..7 {
                    let mut order = pool.to_vec();
                    rng.shuffle(&mut order);
                    for l in order {
                        flap(&mut batches, l);
                    }
                }
                (warmup, batches)
            }
            Kind::DredTcp => {
                rng.shuffle(&mut links);
                let chosen = &links[..50];
                let mut batches: Vec<Batch> = chosen
                    .iter()
                    .map(|&l| Batch::new(UpdateKind::Delete, both_ways(&topo, l), true))
                    .collect();
                batches.extend(chosen.iter().flat_map(|&l| restore(&topo, l)));
                (Vec::new(), batches)
            }
        };
        Script {
            nodes: topo.node_count() as u32,
            load,
            warmup,
            batches,
        }
    }
}

/// Everything one round measured.
#[derive(Default)]
pub struct Round {
    /// Whether the round's spans were recorded.
    pub traced: bool,
    /// Start of the round to the first measured injection, seconds.
    pub setup_s: f64,
    /// Topology and script generation, ms.
    pub topo_ms: f64,
    /// `System` construction, ms.
    pub build_ms: f64,
    /// Initial load to convergence, ms.
    pub load_ms: f64,
    /// Set-up after the load and serving attach, ms.
    pub warmup_ms: f64,
    /// `System::serve`, ms.
    pub attach_ms: f64,
    /// Every measured batch, first inject to converged return, ms.
    pub batch_ms: Vec<f64>,
    /// Insert batches only, ms.
    pub insert_ms: Vec<f64>,
    /// Delete batches only, ms.
    pub delete_ms: Vec<f64>,
    /// `dred_delete` calls only, ms.
    pub dred_ms: Vec<f64>,
    /// Base-tuple inserts and deletes in the measured phase.
    pub updates: u64,
    /// Direct `inject` calls in the measured phase.
    pub injects: u64,
    /// Summed `inject` time, ns.
    pub inject_ns: u64,
    /// Σ `RunReport` counters over the measured batches.
    pub bytes: u64,
    /// Σ logical messages.
    pub msgs: u64,
    /// Σ physical envelopes.
    pub envelopes: u64,
    /// Σ envelope bytes.
    pub envelope_bytes: u64,
    /// Σ shipped tuples.
    pub tuples: u64,
    /// Σ provenance bytes on shipped tuples.
    pub prov_bytes: u64,
    /// Σ substrate events.
    pub events: u64,
    /// Σ per-batch convergence on the substrate clock, seconds.
    pub model_converge_s: f64,
    /// `state_bytes` right after the set-up load.
    pub state_fresh: usize,
    /// `state_bytes` at the end.
    pub state_end: usize,
    /// Largest `state_bytes` seen at a boundary.
    pub state_peak: usize,
    /// Max over mean of per-peer bytes sent in the measured phase.
    pub peer_skew: f64,
    /// TCP supervisor counters over the whole round.
    pub reconnects: u64,
    /// Ledger retransmits.
    pub retransmits: u64,
    /// Heartbeat failure verdicts.
    pub heartbeat_timeouts: u64,
    /// Serving epochs published in the measured phase.
    pub epochs: u64,
    /// Reader-thread latency samples, ns.
    pub lookups: Hist,
    /// Reader-thread `connected` calls.
    pub reads: u64,
    /// Length of the measured phase, seconds.
    pub measured_s: f64,
    /// Measured batches attempted.
    pub batches: u64,
    /// Batches that did not converge.
    pub batches_failed: u64,
    /// Served lookups compared against the BFS closure.
    pub checked: u64,
    /// Served lookups or view tuples that disagreed with the closure.
    pub wrong: u64,
    /// Final view equals the view after set-up.
    pub history_ok: bool,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The closure as `reachable` view tuples.
fn closure_view(c: &Closure) -> BTreeSet<Tuple> {
    c.pairs()
        .into_iter()
        .map(|(u, v)| Tuple::new(vec![Value::Addr(NetAddr(u)), Value::Addr(NetAddr(v))]))
        .collect()
}

/// Served `connected(u, v)` against the closure for every ordered pair;
/// returns the number of disagreements.
fn check_served(reader: &mut ViewReader, c: &Closure) -> u64 {
    let guard = reader.enter();
    let n = c.nodes();
    let mut wrong = 0;
    for u in 0..n {
        for v in 0..n {
            if guard.connected(NetAddr(u), NetAddr(v)) != c.get(u, v) {
                wrong += 1;
            }
        }
    }
    wrong
}

/// Apply one batch to the program and to the benchmark's own link set.
fn apply(
    sys: &mut System,
    b: &Batch,
    live: &mut LinkSet,
    r: &mut Round,
    tr: &mut Tracer,
) -> RunReport {
    for t in &b.tuples {
        match b.kind {
            UpdateKind::Insert => live.insert(addr(t, 0), addr(t, 1)),
            UpdateKind::Delete => live.remove(addr(t, 0), addr(t, 1)),
        }
    }
    if b.dred {
        let dels: Vec<(String, Tuple)> = b
            .tuples
            .iter()
            .map(|t| ("link".into(), t.clone()))
            .collect();
        return tr.span("dred.delete", || dred::dred_delete(sys.runner(), &dels));
    }
    for t in &b.tuples {
        let t0 = Instant::now();
        tr.span("runner.inject", || {
            sys.inject("link", t.clone(), b.kind, None)
        });
        r.inject_ns += t0.elapsed().as_nanos() as u64;
        r.injects += 1;
    }
    tr.span("runner.run_phase", || sys.run("batch"))
}

/// The reader thread: `connected(u, v)` round-robin over `pairs` until
/// `stop`, timing one call in [`SAMPLE_EVERY`].
fn read_loop(
    mut reader: ViewReader,
    pairs: &[(NetAddr, NetAddr)],
    stop: &AtomicBool,
) -> (Hist, u64) {
    let mut hist = Hist::default();
    let mut reads = 0u64;
    let mut i = 0;
    while !stop.load(Ordering::Relaxed) {
        let (u, v) = pairs[i];
        i = if i + 1 == pairs.len() { 0 } else { i + 1 };
        if reads.is_multiple_of(SAMPLE_EVERY) {
            let t = Instant::now();
            std::hint::black_box(reader.enter().connected(u, v));
            hist.record(t.elapsed().as_nanos() as u64);
        } else {
            std::hint::black_box(reader.enter().connected(u, v));
        }
        reads += 1;
    }
    (hist, reads)
}

/// Run one round of `kind` with inputs from `seed`; without `measure`, the
/// round ends right after set-up (its checks still run). `Err` when set-up
/// itself fails (nothing was measured).
pub fn round(kind: Kind, seed: u64, tr: &mut Tracer, measure: bool) -> Result<Round, String> {
    let mut r = Round {
        traced: tr.on(),
        ..Round::default()
    };
    let t_setup = Instant::now();

    let t = Instant::now();
    let script = tr.span("topo.generate", || Script::new(kind, seed));
    r.topo_ms = ms(t);

    let t = Instant::now();
    let mut sys = tr.span("runner.build", || System::reachable(kind.config()));
    r.build_ms = ms(t);

    let mut live = LinkSet::default();
    let t = Instant::now();
    tr.enter("setup.load");
    for tuple in &script.load {
        live.insert(addr(tuple, 0), addr(tuple, 1));
        tr.span("runner.inject", || {
            sys.inject("link", tuple.clone(), UpdateKind::Insert, None)
        });
    }
    let load = tr.span("runner.run_phase", || sys.run("load"));
    tr.exit();
    r.load_ms = ms(t);
    if !load.converged() {
        return Err(format!("{}: set-up load did not converge", kind.name()));
    }
    r.state_fresh = tr.span("runner.state_bytes", || sys.runner_ref().state_bytes());
    r.state_peak = r.state_fresh;

    let t = Instant::now();
    let mut reader = tr.span("serve.attach", || {
        sys.serve(&ServeSpec::views(&[]).with_connectivity("reachable"))
    });
    r.attach_ms = ms(t);

    let t = Instant::now();
    for b in &script.warmup {
        tr.enter("setup.warmup");
        let rep = apply(&mut sys, b, &mut live, &mut r, tr);
        tr.exit();
        if !rep.converged() {
            return Err(format!("{}: a warm-up batch did not converge", kind.name()));
        }
    }
    // The warm-up's injects are set-up, not measured.
    r.injects = 0;
    r.inject_ns = 0;
    let setup_closure = live.closure(script.nodes);
    let setup_view = tr.span("runner.view", || sys.view("reachable"));
    r.wrong += (setup_view != closure_view(&setup_closure)) as u64;
    let peers0 = tr.span("runner.metrics", || sys.runner_ref().metrics());
    let epoch0 = tr.span("serve.served_version", || sys.runner_ref().served_version());
    let n = script.nodes;
    let mut pairs: Vec<(NetAddr, NetAddr)> = (0..n)
        .flat_map(|u| (0..n).map(move |v| (NetAddr(u), NetAddr(v))))
        .collect();
    let offset = (seed % pairs.len() as u64) as usize;
    pairs.rotate_left(offset);
    r.warmup_ms = ms(t);

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let lookups = reader.clone();
        let handle = s.spawn(|| read_loop(lookups, &pairs, &stop));
        r.setup_s = t_setup.elapsed().as_secs_f64();
        let t_measured = Instant::now();
        let batches: &[Batch] = if measure { &script.batches } else { &[] };
        for b in batches {
            tr.enter("batch");
            let t = Instant::now();
            let rep = apply(&mut sys, b, &mut live, &mut r, tr);
            let dt = ms(t);
            tr.exit();
            r.batches += 1;
            r.updates += b.tuples.len() as u64;
            r.batch_ms.push(dt);
            match b.kind {
                UpdateKind::Insert => r.insert_ms.push(dt),
                UpdateKind::Delete => r.delete_ms.push(dt),
            }
            if b.dred {
                r.dred_ms.push(dt);
            }
            r.bytes += rep.bytes;
            r.msgs += rep.msgs;
            r.envelopes += rep.envelopes;
            r.envelope_bytes += rep.envelope_bytes;
            r.tuples += rep.tuples;
            r.prov_bytes += rep.prov_bytes;
            r.events += rep.events;
            r.model_converge_s += rep.convergence.micros() as f64 / 1e6;
            r.state_peak = r.state_peak.max(rep.state_bytes);
            if !rep.converged() {
                r.batches_failed += 1;
                continue;
            }
            let closure = live.closure(n);
            r.checked += u64::from(n) * u64::from(n);
            r.wrong += tr.span("check.served", || check_served(&mut reader, &closure));
        }
        r.measured_s = t_measured.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let (hist, reads) = handle.join().expect("reader thread panicked");
        r.lookups = hist;
        r.reads = reads;
    });

    let end_view = tr.span("runner.view", || sys.view("reachable"));
    r.wrong += (end_view != closure_view(&live.closure(n))) as u64;
    r.history_ok = end_view == setup_view;
    r.state_end = tr.span("runner.state_bytes", || sys.runner_ref().state_bytes());
    let faults = tr.span("runner.fault_stats", || sys.runner_ref().fault_stats());
    r.reconnects = faults.reconnects;
    r.retransmits = faults.retransmits;
    r.heartbeat_timeouts = faults.heartbeat_timeouts;
    let epoch1 = tr.span("serve.served_version", || sys.runner_ref().served_version());
    r.epochs = epoch1.unwrap_or(0) - epoch0.unwrap_or(0);
    let peers1 = tr.span("runner.metrics", || sys.runner_ref().metrics());
    let sent: Vec<f64> = peers1
        .per_peer
        .iter()
        .zip(&peers0.per_peer)
        .map(|(a, b)| (a.bytes_sent - b.bytes_sent) as f64)
        .collect();
    let mean = sent.iter().sum::<f64>() / sent.len() as f64;
    r.peer_skew = if mean > 0.0 {
        sent.iter().copied().fold(0.0, f64::max) / mean
    } else {
        0.0
    };
    Ok(r)
}
