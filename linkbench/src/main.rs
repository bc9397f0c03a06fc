//! `linkbench`: the repository benchmark. One link event at a time on a
//! system that has already been through many, measured end to end and per
//! layer on three workloads (see README.md next to this crate).
//!
//! Run mode prints every metric as a `metric<TAB>name<TAB>value<TAB>unit`
//! line and ends with one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). Repeat mode runs the workloads N times, interleaved, as child
//! processes and prints each metric's median, quartiles and range.

mod closure;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use stats::{median, percentile, quartiles, Hist};
use trace::{SelfTime, Tracer};
use workload::{Kind, Round};

/// Set-ups timed per run, at the least.
const MIN_SETUPS: usize = 5;

const USAGE: &str = "usage:
  linkbench --workload <outage_des|flap_async|dred_tcp> [--seed N] [--seconds S] [--trace 0|1]
  linkbench --repeat N [--workload a,b,...] [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<u32>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        kinds: Vec::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        repeat: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                for name in value.split(',') {
                    args.kinds.push(
                        Kind::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                    );
                }
            }
            "--seed" => args.seed = num(value)?,
            "--seconds" => args.seconds = num(value)?,
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--repeat" => {
                let n = num(value)?;
                args.repeat = Some(u32::try_from(n).map_err(|e| format!("--repeat {n}: {e}"))?);
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("linkbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.repeat, args.kinds.as_slice()) {
        (Some(n), _) => repeat(n, &args),
        (None, [kind]) => run(*kind, args.seed, args.seconds, args.trace),
        (None, _) => Err(format!("run mode takes exactly one workload\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("linkbench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn pooled(rounds: &[&Round], f: impl Fn(&Round) -> &Vec<f64>) -> Vec<f64> {
    let mut v: Vec<f64> = rounds.iter().flat_map(|r| f(r).iter().copied()).collect();
    v.sort_by(f64::total_cmp);
    v
}

fn sum(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    rounds.iter().map(|r| f(r)).sum()
}

fn mean(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    sum(rounds, f) / rounds.len() as f64
}

fn med(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    let v: Vec<f64> = rounds.iter().map(|r| f(r)).collect();
    median(&v).unwrap_or(0.0)
}

fn updates_per_s(rounds: &[&Round]) -> f64 {
    sum(rounds, |r| r.updates as f64) / (sum(rounds, |r| r.batch_ms.iter().sum()) / 1e3)
}

fn lookups(rounds: &[&Round]) -> Hist {
    let mut h = Hist::default();
    for r in rounds {
        h.merge(&r.lookups);
    }
    h
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn end_to_end(rounds: &[&Round], setups: &[f64]) -> Result<Vec<Metric>, String> {
    let batches = pooled(rounds, |r| &r.batch_ms);
    let hist = lookups(rounds);
    let tail = |what: &str| format!("too few samples for a {what} tail");
    Ok(vec![
        m("setup_s", median(setups).unwrap_or(0.0), "s"),
        m("updates_per_s", updates_per_s(rounds), "1/s"),
        m(
            "converge_ms_p50",
            percentile(&batches, 0.5).ok_or_else(|| tail("p50"))?,
            "ms",
        ),
        m(
            "converge_ms_p90",
            percentile(&batches, 0.9).ok_or_else(|| tail("p90"))?,
            "ms",
        ),
        m(
            "lookup_ns_p50",
            hist.percentile(0.5).ok_or_else(|| tail("p50"))?,
            "ns",
        ),
        m(
            "lookup_ns_p99",
            hist.percentile(0.99).ok_or_else(|| tail("p99"))?,
            "ns",
        ),
        m("comm_mb", mean(rounds, |r| r.bytes as f64 / 1e6), "MB"),
        m(
            "prov_bytes_per_tuple",
            sum(rounds, |r| r.prov_bytes as f64) / sum(rounds, |r| r.tuples as f64),
            "B",
        ),
        m("state_mb", med(rounds, |r| r.state_end as f64 / 1e6), "MB"),
        m("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

fn per_layer(traced: &[&Round], untraced: &[&Round]) -> Vec<Metric> {
    let t = traced;
    let traced_ups = updates_per_s(t);
    let untraced_ups = updates_per_s(untraced);
    vec![
        m("topo.generate_ms", med(t, |r| r.topo_ms), "ms"),
        m("runner.build_ms", med(t, |r| r.build_ms), "ms"),
        m("runner.load_ms", med(t, |r| r.load_ms), "ms"),
        m("runner.warmup_ms", med(t, |r| r.warmup_ms), "ms"),
        m(
            "runner.inject_us",
            sum(t, |r| r.inject_ns as f64) / sum(t, |r| r.injects as f64).max(1.0) / 1e3,
            "us",
        ),
        m(
            "runner.insert_batch_ms",
            median(&pooled(t, |r| &r.insert_ms)).unwrap_or(0.0),
            "ms",
        ),
        m(
            "runner.delete_batch_ms",
            median(&pooled(t, |r| &r.delete_ms)).unwrap_or(0.0),
            "ms",
        ),
        m("runner.events", mean(t, |r| r.events as f64), "count"),
        m(
            "runner.events_per_update",
            sum(t, |r| r.events as f64) / sum(t, |r| r.updates as f64),
            "ratio",
        ),
        m(
            "engine.state_peak_mb",
            mean(t, |r| r.state_peak as f64 / 1e6),
            "MB",
        ),
        m(
            "engine.state_vs_fresh",
            med(t, |r| r.state_end as f64 / r.state_fresh as f64),
            "ratio",
        ),
        m(
            "prov.annotation_mb",
            mean(t, |r| r.prov_bytes as f64 / 1e6),
            "MB",
        ),
        m("prov.tuples", mean(t, |r| r.tuples as f64), "count"),
        m("sim.msgs", mean(t, |r| r.msgs as f64), "count"),
        m("sim.envelopes", mean(t, |r| r.envelopes as f64), "count"),
        m(
            "sim.msgs_per_envelope",
            sum(t, |r| r.msgs as f64) / sum(t, |r| r.envelopes as f64).max(1.0),
            "ratio",
        ),
        m(
            "sim.envelope_mb",
            mean(t, |r| r.envelope_bytes as f64 / 1e6),
            "MB",
        ),
        m("sim.peer_skew", med(t, |r| r.peer_skew), "ratio"),
        m("des.model_converge_s", mean(t, |r| r.model_converge_s), "s"),
        m("tcp.reconnects", mean(t, |r| r.reconnects as f64), "count"),
        m(
            "tcp.retransmits",
            mean(t, |r| r.retransmits as f64),
            "count",
        ),
        m(
            "tcp.heartbeat_timeouts",
            mean(t, |r| r.heartbeat_timeouts as f64),
            "count",
        ),
        m(
            "dred.delete_ms_p50",
            median(&pooled(t, |r| &r.dred_ms)).unwrap_or(0.0),
            "ms",
        ),
        m("serve.attach_ms", med(t, |r| r.attach_ms), "ms"),
        m("serve.epochs", mean(t, |r| r.epochs as f64), "count"),
        m("serve.lookups", mean(t, |r| r.reads as f64), "count"),
        m(
            "serve.reads_per_s",
            sum(t, |r| r.reads as f64) / sum(t, |r| r.measured_s),
            "1/s",
        ),
        m("trace.updates_per_s", traced_ups, "1/s"),
        m("trace.untraced_updates_per_s", untraced_ups, "1/s"),
        m(
            "trace.overhead_pct",
            (untraced_ups / traced_ups - 1.0) * 100.0,
            "%",
        ),
    ]
}

/// Where traced rounds write their spans: under the build directory, so a
/// checkout's ignored files hold every run leftover.
fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "linkbench/target".into());
    PathBuf::from(target).join("linkbench-trace")
}

fn run(kind: Kind, seed: u64, seconds: u64, trace: bool) -> Result<(), String> {
    let t0 = Instant::now();
    let limit = Duration::from_secs(seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let mut self_times: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    // With tracing, rounds alternate untraced / traced so the two
    // throughputs come from the same process; the difference is the
    // tracing overhead.
    loop {
        let mut tr = Tracer::new(trace && rounds.len() % 2 == 1);
        let r = workload::round(kind, seed, &mut tr, true)?;
        eprintln!(
            "{} seed {seed} round {}{}: set-up {:.3} s, {} batches in {:.3} s ({:.2} updates/s), \
             {} reads (p50 {} ns)",
            kind.name(),
            rounds.len(),
            if tr.on() { " (traced)" } else { "" },
            r.setup_s,
            r.batches,
            r.measured_s,
            updates_per_s(&[&r]),
            r.reads,
            r.lookups.percentile(0.5).unwrap_or(f64::NAN),
        );
        if tr.on() {
            for (name, st) in tr.self_times() {
                let e = self_times.entry(name).or_default();
                e.count += st.count;
                e.total_ns += st.total_ns;
                e.self_ns += st.self_ns;
            }
            let dir = trace_dir();
            let path = dir.join(format!("{}-s{seed}-r{}.jsonl", kind.name(), rounds.len()));
            std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, tr.to_jsonl()))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("spans written to {}", path.display());
        }
        rounds.push(r);
        if t0.elapsed() >= limit && (!trace || rounds.len().is_multiple_of(2)) {
            break;
        }
    }

    // Set-up is timed at least MIN_SETUPS times per run (extra rounds end
    // after set-up) and reported as the median.
    let mut setup_only: Vec<Round> = Vec::new();
    while !trace && rounds.len() + setup_only.len() < MIN_SETUPS {
        setup_only.push(workload::round(kind, seed, &mut Tracer::new(false), false)?);
    }
    let setups: Vec<f64> = rounds
        .iter()
        .chain(&setup_only)
        .map(|r| r.setup_s)
        .collect();
    let all: Vec<&Round> = rounds.iter().collect();
    let metrics = if trace {
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
        println!("self time per span name over traced rounds:");
        println!(
            "  {:<24} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, st) in &self_times {
            println!(
                "  {name:<24} {:>8} {:>12.3} {:>12.3}",
                st.count,
                st.total_ns as f64 / 1e6,
                st.self_ns as f64 / 1e6
            );
        }
        per_layer(&traced, &untraced)
    } else {
        end_to_end(&all, &setups)?
    };

    let batches: u64 = rounds.iter().map(|r| r.batches).sum();
    let failed: u64 = rounds.iter().map(|r| r.batches_failed).sum();
    let checked: u64 = rounds.iter().map(|r| r.checked).sum();
    let wrong: u64 = rounds.iter().chain(&setup_only).map(|r| r.wrong).sum();
    let history_ok = rounds.iter().chain(&setup_only).all(|r| r.history_ok);
    let correct = wrong == 0 && history_ok;
    println!("rounds\t{}", rounds.len());
    let batch_samples: usize = rounds.iter().map(|r| r.batch_ms.len()).sum();
    println!(
        "samples\tbatches\t{batch_samples}\tlookups\t{}",
        lookups(&all).len()
    );
    println!("ops\tbatches\tattempted {batches}\tfailed {failed}");
    println!("ops\tlookups\tattempted {checked}\twrong {wrong}");
    println!("check\thistory_independent\t{history_ok}");
    let mut json = String::new();
    for x in &metrics {
        if !x.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", x.name, x.value));
        }
        println!("metric\t{}\t{}\t{}", x.name, x.value, x.unit);
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        batches + checked
    );
    Ok(())
}

/// Run every requested workload `n` times, interleaved, each as its own
/// process (peak RSS is per process), and print per-metric statistics.
fn repeat(n: u32, args: &Args) -> Result<(), String> {
    let kinds = if args.kinds.is_empty() {
        Kind::ALL.to_vec()
    } else {
        args.kinds.clone()
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    type Series = BTreeMap<String, (Vec<f64>, String)>;
    let mut by_kind: BTreeMap<&'static str, Series> = BTreeMap::new();
    for i in 0..u64::from(n) {
        for &kind in &kinds {
            let seed = args.seed + i;
            let out = Command::new(&exe)
                .args(["--workload", kind.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(Stdio::null())
                .output()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            if !out.status.success() || !last.starts_with("{\"correct\": true") {
                return Err(format!("{} seed {seed} failed: {last}", kind.name()));
            }
            let series = by_kind.entry(kind.name()).or_default();
            for line in stdout.lines() {
                let f: Vec<&str> = line.split('\t').collect();
                if let ["metric", name, value, unit] = f[..] {
                    let v: f64 = value.parse().map_err(|e| format!("{line}: {e}"))?;
                    let e = series
                        .entry(name.to_string())
                        .or_insert_with(|| (Vec::new(), unit.to_string()));
                    e.0.push(v);
                }
                if f.first() == Some(&"ops") {
                    eprintln!("{} seed {seed}: {}", kind.name(), f[1..].join(" "));
                }
            }
        }
    }
    println!(
        "{:<11} {:<30} {:>6} {:>14} {:>14} {:>14} {:>8} {:>14} {:>14}",
        "workload", "metric", "unit", "median", "q1", "q3", "iqr/med", "min", "max"
    );
    for (kind, series) in &by_kind {
        for (name, (values, unit)) in series {
            let med = median(values).unwrap_or(0.0);
            let [q1, _, q3] = quartiles(values).unwrap_or([0.0; 3]);
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            };
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{kind:<11} {name:<30} {unit:>6} {med:>14.4} {q1:>14.4} {q3:>14.4} {spread:>8.4} {min:>14.4} {max:>14.4}"
            );
        }
    }
    Ok(())
}
