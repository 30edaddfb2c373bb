//! `servebench` — the closed-loop serving benchmark for `nra-serve`.
//!
//! ```text
//! servebench --workload door|join512|mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the seeded workload through the real front for `S`
//! seconds of outstanding requests (whole cycles of the workload) and
//! prints the end-to-end metrics. `--trace 1` replays a fixed seeded
//! prefix three times — through the front, then on the server's session
//! with spans off and on — checks that the counts repeat exactly, and
//! prints the per-layer metrics of the traced replay. Every answer is
//! checked against a plain-Rust reference. The last line of standard
//! output is one JSON object; diagnostics go to standard error.

mod closed_loop;
mod pin;
mod reference;
mod replay;
mod stats;
mod workload;

use closed_loop::{Front, LoopRun};
use nra_serve::{ServeConfig, ServeReport};
use reference::Tally;
use replay::{replay, self_times, Counts, Replay};
use stats::{median, quantile, Metrics};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workload::{door_pool, large_job, Class, Job};

/// Door cycles in the generated pool the door stream loops over.
const DOOR_POOL_CYCLES: u64 = 89;

/// Resident-byte budget of the join512 server: below the footprint of
/// any one 512-node join, so the store is evicted after every request
/// and nothing is ever warm.
const JOIN_RESIDENT_BUDGET: usize = 32 << 20;

/// Door requests riding along with each mixed burst's large join.
const MIXED_SMALL_PER_BURST: usize = 7;

/// Mixed bursts in the traced prefix: two rounds of the large pool, so
/// the second round shows what the store retained from the first.
const MIXED_TRACE_BURSTS: usize = 2 * MIXED_POOL.len();

/// The mixed workload's fixed pool of large (family, query) pairs, each
/// over its own graph, a pair recurring every `MIXED_POOL.len()` bursts:
/// the three joins over road grids. Road grids are the family whose size
/// varies least from seed to seed; with one instance per pair, a family
/// whose edge count straddles an allocation step from seed to seed would
/// make the process's peak memory bimodal across seeds.
const MIXED_POOL: [(usize, usize); 3] = [(0, 0), (0, 1), (0, 2)];

/// Fresh processes timed for `setup_s`.
const SETUP_PROBES: usize = 15;

/// Ids of large jobs start here, above any door id.
const LARGE_ID_BASE: u64 = 1 << 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Door,
    Join512,
    Mixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "door" => Some(Workload::Door),
            "join512" => Some(Workload::Join512),
            "mixed" => Some(Workload::Mixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Door => "door",
            Workload::Join512 => "join512",
            Workload::Mixed => "mixed",
        }
    }

    /// The server settings: `workers` = the machine's parallelism (the
    /// default of 4 oversubscribes a small machine), and for join512 a
    /// resident budget that evicts between requests.
    fn config(self, workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            resident_budget_bytes: (self == Workload::Join512).then_some(JOIN_RESIDENT_BUDGET),
            ..ServeConfig::default()
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Server workers: the CPUs the process may use before any pinning.
    workers: usize,
    /// Set in a set-up probe process, which only times [`setup_once`].
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut workers = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--setup-probe" => {
                workers = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| format!("--setup-probe: {e}"))?,
                )
            }
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
        setup_probe: workers.is_some(),
        workers: workers.unwrap_or_else(pin::machine_cpus),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload door|join512|mixed --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if args.setup_probe || args.workload == Workload::Door {
        // a door request, like the set-up frame, is a strict hand-off
        // between the client and the server thread; on one CPU the
        // hand-off is a context switch instead of a cross-CPU wake-up,
        // whose cost on a virtual machine swings from run to run by more
        // than the door layers cost
        let pinned = pin::to_one_cpu();
        if args.setup_probe {
            println!("setup_ns {}", setup_once(&args).as_nanos());
            return ExitCode::SUCCESS;
        }
        match pinned {
            Some(cpu) => eprintln!("servebench: pinned to CPU {cpu}"),
            None => eprintln!("servebench: could not pin to one CPU; running unpinned"),
        }
    }
    eprintln!(
        "servebench: workload {} seed {} seconds {} trace {} workers {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workers
    );
    let noise_before = stats::Noise::sample();
    let (correct, tally, metrics) = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    stats::Noise::sample().report_since(&noise_before);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct && tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}

/// In a fresh process: server construction to the first answered frame,
/// which goes through typecheck, the optimiser and admission like any
/// other.
fn setup_once(args: &Args) -> Duration {
    let first = door_pool(args.seed, 1, "setup", 0).swap_remove(0);
    let start = Instant::now();
    let mut front = Front::start(args.workload.config(args.workers));
    front.burst(&[&first]);
    let setup = start.elapsed();
    assert_eq!(
        front.finish().tally.failed,
        0,
        "the set-up frame is answered"
    );
    setup
}

/// [`setup_once`] in `probes` fresh processes, in seconds.
fn setup_samples(args: &Args, probes: usize) -> Vec<f64> {
    let exe = std::env::current_exe().expect("own executable path");
    (0..probes)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", &args.workers.to_string()])
                .args(["--workload", args.workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .output()
                .expect("set-up probe runs");
            assert!(out.status.success(), "set-up probe failed");
            let text = String::from_utf8_lossy(&out.stdout);
            let ns: f64 = text
                .trim()
                .strip_prefix("setup_ns ")
                .and_then(|n| n.parse().ok())
                .expect("set-up probe prints its time");
            ns * 1e-9
        })
        .collect()
}

/// The measured run: whole cycles of the workload until `seconds` of
/// outstanding-request time have passed. Throughput is the median over
/// cycles, each of which serves the same mix, so a burst of steal time
/// on the machine moves one cycle rather than the whole figure.
fn untraced(args: &Args) -> (bool, Tally, Metrics) {
    // set-up probes before and after the workload, so their median spans
    // the run rather than one moment of the machine
    let mut setup = setup_samples(args, SETUP_PROBES / 2);
    let budget = Duration::from_secs(args.seconds);
    let config = args.workload.config(args.workers);
    let mut front = Front::start(config);
    match args.workload {
        Workload::Door => {
            let pool = door_pool(args.seed, DOOR_POOL_CYCLES, "door", 0);
            while front.busy() < budget {
                for job in &pool {
                    front.burst(&[job]);
                }
                front.end_cycle();
            }
        }
        Workload::Join512 => {
            let mut cycle = 0;
            while front.busy() < budget {
                for job in join_cycle(args.seed, cycle) {
                    front.burst(&[&job]);
                }
                front.end_cycle();
                cycle += 1;
            }
        }
        Workload::Mixed => {
            let (large, small) = mixed_inputs(args.seed);
            let mut burst = 0;
            while front.busy() < budget {
                for _ in 0..MIXED_POOL.len() {
                    front.burst(&mixed_burst(&large, &small, burst));
                    burst += 1;
                }
                front.end_cycle();
            }
        }
    }
    let run = front.finish();
    let peak_rss_mb = stats::peak_rss_kb() as f64 / 1024.0;
    setup.extend(setup_samples(args, SETUP_PROBES - SETUP_PROBES / 2));
    log_run(&run);

    let mut all: Vec<f64> = run.samples.iter().map(|s| s.ms).collect();
    let mut metrics = Metrics::default();
    metrics.push("setup_s", median(&mut setup), "s");
    let mut cycle_qps = run.cycle_qps;
    metrics.push("throughput_qps", median(&mut cycle_qps), "1/s");
    metrics.push("p50_ms", median(&mut all), "ms");
    metrics.push("peak_rss_mb", peak_rss_mb, "MB");
    let healthy = run.report.errors == 0 && run.report.decode_errors == 0;
    (healthy, run.tally, metrics)
}

/// One join512 cycle: every (family, query) pair once, each over a graph
/// no earlier request saw.
fn join_cycle(seed: u64, cycle: u64) -> Vec<Job> {
    let queries = workload::LARGE_QUERIES.len();
    let pairs = workload::LARGE_FAMILIES.len() * queries;
    (0..pairs)
        .map(|k| {
            let index = (cycle * pairs as u64) + k as u64;
            let (family, query) = (k / queries, k % queries);
            large_job(seed, index, family, query, "join512", LARGE_ID_BASE + index)
        })
        .collect()
}

/// The mixed workload's large pool and the door requests its bursts
/// draw from.
fn mixed_inputs(seed: u64) -> (Vec<Job>, Vec<Job>) {
    let large = MIXED_POOL
        .iter()
        .enumerate()
        .map(|(i, &(family, query))| {
            large_job(
                seed,
                i as u64,
                family,
                query,
                "mixed",
                LARGE_ID_BASE + i as u64,
            )
        })
        .collect();
    (large, door_pool(seed, DOOR_POOL_CYCLES, "mixed", 0))
}

/// Burst `b`: its large join first, then the next door requests.
fn mixed_burst<'a>(large: &'a [Job], small: &'a [Job], b: usize) -> Vec<&'a Job> {
    let mut burst = vec![&large[b % large.len()]];
    burst.extend(
        (0..MIXED_SMALL_PER_BURST).map(|i| &small[(b * MIXED_SMALL_PER_BURST + i) % small.len()]),
    );
    burst
}

fn log_run(run: &LoopRun) {
    let report = &run.report;
    eprintln!(
        "servebench: {} frames in {} cycles, {:.3} s busy; repeated (query, input) share {:.4}",
        run.samples.len(),
        run.cycle_qps.len(),
        run.busy.as_secs_f64(),
        run.repeat_share
    );
    let mut qps = run.cycle_qps.clone();
    eprintln!(
        "servebench: throughput per cycle: min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}",
        quantile(&mut qps, 0.0),
        quantile(&mut qps, 0.25),
        quantile(&mut qps, 0.5),
        quantile(&mut qps, 0.75),
        quantile(&mut qps, 1.0)
    );
    for class in [Class::Small, Class::Rescue, Class::Reject, Class::Large] {
        let mut ms: Vec<f64> = run
            .samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.ms)
            .collect();
        if !ms.is_empty() {
            eprintln!(
                "servebench:   {:6} n={:6} p50={:.4} ms p90={:.4} ms",
                class.name(),
                ms.len(),
                median(&mut ms),
                quantile(&mut ms, 0.9)
            );
        }
    }
    eprintln!(
        "servebench: report admitted {} completed {} errors {} rescued {} rejected_exp {} \
         warm_hits {} evictions {} batches {}",
        report.admitted,
        report.completed,
        report.errors,
        report.rescued,
        report.rejected_exponential,
        report.session.warm_hits,
        report.session.evictions,
        report.batches
    );
}

/// The traced run: a fixed seeded prefix through the front, then
/// replayed with spans off and on; counts must agree across all three.
fn traced(args: &Args) -> (bool, Tally, Metrics) {
    let config = args.workload.config(args.workers);
    let owned: Vec<Job>;
    let (large, small);
    let batches: Vec<Vec<&Job>> = match args.workload {
        Workload::Door | Workload::Join512 => {
            owned = match args.workload {
                Workload::Door => door_pool(args.seed, DOOR_POOL_CYCLES, "door", 0),
                _ => join_cycle(args.seed, 0),
            };
            owned.iter().map(|job| vec![job]).collect()
        }
        Workload::Mixed => {
            (large, small) = mixed_inputs(args.seed);
            (0..MIXED_TRACE_BURSTS)
                .map(|b| mixed_burst(&large, &small, b))
                .collect()
        }
    };

    let mut front = Front::start(config.clone());
    for batch in &batches {
        front.burst(batch);
    }
    let served = front.finish();
    let off = replay(&config, &batches, false);
    let on = replay(&config, &batches, true);

    let mut tally = served.tally;
    tally.add(off.tally);
    tally.add(on.tally);
    let replays_agree = off.counts == on.counts;
    if !replays_agree {
        eprintln!(
            "servebench: counts differ between the replays with spans off and on:\n  {:?}\n  {:?}",
            off.counts, on.counts
        );
    }
    let repeat = replays_agree & report_agrees(&served.report, &on.counts);
    eprintln!(
        "servebench: replay wall {:.4} s with spans off, {:.4} s on: tracing overhead {:+.2}%",
        off.wall_s,
        on.wall_s,
        (on.wall_s / off.wall_s - 1.0) * 100.0
    );
    stats::write_spans(args.workload.name(), args.seed, &on.spans);
    (repeat, tally, layer_metrics(&on))
}

/// The replay's counts against the `ServeReport` of the same prefix
/// served through the front, for every count the server keeps too.
fn report_agrees(report: &ServeReport, counts: &Counts) -> bool {
    let tenant_warm: u64 = report.tenants.values().map(|t| t.warm_hits).sum();
    let rejects = report.rejected_exponential + report.rejected_admission;
    let agree = report.rescued == counts.rescued
        && tenant_warm == counts.warm_hits
        && rejects == counts.rejects
        && report.session == counts.session;
    if !agree {
        eprintln!(
            "servebench: counts differ between the front and the replay: rescued {} vs {}, \
             warm hits {tenant_warm} vs {}, rejects {rejects} vs {}, session {:?} vs {:?}",
            report.rescued,
            counts.rescued,
            counts.warm_hits,
            counts.rejects,
            report.session,
            counts.session
        );
    }
    agree
}

fn layer_metrics(on: &Replay) -> Metrics {
    let times = self_times(&on.spans);
    let per_call = |name: &str, scale: f64| {
        times
            .get(name)
            .map_or(0.0, |&(total, calls)| total / calls as f64 * scale)
    };
    let readings = &on.readings;
    let counts = &on.counts;
    let mut slack = readings.slack.clone();
    let mut m = Metrics::default();
    m.push("wire.decode_us", per_call("wire.decode", 1e6), "us");
    m.push("wire.encode_us", per_call("wire.encode", 1e6), "us");
    m.push(
        "wire.response_kb",
        stats::mean_usize(&readings.response_bytes) / 1024.0,
        "KB",
    );
    m.push("typecheck.us", per_call("typecheck", 1e6), "us");
    m.push("intern.us", per_call("intern", 1e6), "us");
    m.push("opt.us", per_call("opt", 1e6), "us");
    m.push("opt.rescues", counts.rewritten as f64, "count");
    m.push("symbolic.us", per_call("symbolic", 1e6), "us");
    m.push("admission.us", per_call("admission", 1e6), "us");
    m.push("admission.rejects", counts.rejects as f64, "count");
    m.push("admission.slack_x", median(&mut slack), "x");
    m.push("schedule.us", per_call("schedule", 1e6), "us");
    m.push(
        "schedule.workers_used",
        stats::mean_usize(&readings.workers_used),
        "count",
    );
    m.push("eval.ms", per_call("eval", 1e3), "ms");
    m.push("eval.nodes", counts.nodes as f64, "count");
    m.push(
        "eval.max_object_size",
        counts.max_object_size as f64,
        "count",
    );
    m.push(
        "eval.memo_hit_rate",
        readings.memo_hits as f64 / (readings.memo_hits + readings.memo_misses).max(1) as f64,
        "ratio",
    );
    m.push("eval.delta_hits", readings.delta_hits as f64, "count");
    m.push("eval.warm_hits", counts.warm_hits as f64, "count");
    m.push("eval.dense_ops", readings.dense_ops as f64, "count");
    m.push("resolve.ms", per_call("resolve", 1e3), "ms");
    m.push(
        "store.resident_mb",
        readings.resident_bytes.iter().copied().max().unwrap_or(0) as f64 / (1 << 20) as f64,
        "MB",
    );
    m.push("store.evictions", counts.session.evictions as f64, "count");
    m
}
