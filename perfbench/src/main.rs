//! The prediction service's benchmark: one closed-loop client drives the
//! service through its public calls, checks every answer, and prints
//! every metric by name and unit. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload query_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run. See `perfbench/README.md` for the workloads
//! and what each metric should move.

mod gate;
mod gen;
mod inproc;
mod mirror;
mod socket;
mod stats;
mod trace;

use mirror::IngestParts;
use prodpred_service::CacheStats;
use stats::{median, quantile};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <query_hot|query_cold|ingest_deep|socket> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Tolerance of the operational-law checks: the median residual of the
/// per-tick and per-request sums, as a share of the whole. The request
/// check is not applied to `socket`, whose in-process passes run between
/// socket round trips (see README.md).
const LAW_TOLERANCE: f64 = 0.10;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?.max(1),
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Everything one run measured, in ns unless named otherwise.
#[derive(Default)]
pub struct Run {
    pub setup_ns: Vec<u64>,
    /// Per-request latency as the client sees it.
    pub query_ns: Vec<u64>,
    /// Per-tick wall time of `ingest_tick`, both platforms.
    pub tick_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs and failed self-checks (the first few of each run).
    pub problems: Vec<String>,
    /// End of each window of equal work: (queries, ticks) recorded so far.
    pub windows: Vec<(usize, usize)>,
    /// Cache counters summed over every core the timed loop used.
    pub cache: CacheStats,
    /// Filled by traced runs only.
    pub layers: Layers,
}

impl Run {
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 10 {
            eprintln!("perfbench: {what}");
        }
        self.problems.push(what);
    }

    /// Records one query: its latency and whether its answer was right.
    pub fn query(&mut self, ns: u64, outcome: Result<(), String>) {
        self.attempted += 1;
        self.query_ns.push(ns);
        if let Err(why) = outcome {
            self.failed += 1;
            self.problem(why);
        }
    }

    /// Records one ingest tick.
    pub fn tick(&mut self, ns: u64, outcome: Result<(), String>) {
        self.attempted += 1;
        self.tick_ns.push(ns);
        if let Err(why) = outcome {
            self.failed += 1;
            self.problem(why);
        }
    }

    pub fn close_window(&mut self) {
        self.windows.push((self.query_ns.len(), self.tick_ns.len()));
    }

    pub fn add_cache(&mut self, s: CacheStats) {
        self.cache.hits += s.hits;
        self.cache.misses += s.misses;
        self.cache.evicted += s.evicted;
    }

    pub fn hit_rate(&self) -> f64 {
        self.cache.hits as f64 / (self.cache.hits + self.cache.misses).max(1) as f64
    }
}

/// Per-layer measurements of a traced run.
#[derive(Default)]
pub struct Layers {
    /// Per tick, paired index by index with `tick_ns`.
    pub ingest: Vec<IngestParts>,
    pub platform_build_ns: Vec<u64>,
    pub parse_ns: Vec<u64>,
    pub render_ns: Vec<u64>,
    pub hit_ns: Vec<u64>,
    pub miss_ns: Vec<u64>,
    pub predict_ns: Vec<u64>,
    /// Per request: whole latency minus parse + query + render, as a
    /// share of the whole.
    pub request_residual: Vec<f64>,
    /// Socket latency minus in-process latency of the same request.
    pub shell_overhead_ns: Vec<f64>,
    /// The untraced phase of the traced run, for the tracing overhead.
    pub untraced_query_p50_ns: u64,
    pub untraced_tick_p50_ns: u64,
    pub spans: Vec<(&'static str, usize, u64, u64)>,
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn m(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn p50(v: &[u64]) -> f64 {
    quantile(&mut v.to_vec(), 0.5) as f64
}

/// The end-to-end metrics. Timings are computed per window of equal
/// work, and the least-disturbed window is reported: the host is shared,
/// and other tenants slow whole windows for seconds at a time.
fn end_to_end(run: &Run) -> Vec<Metric> {
    let mut setup: Vec<f64> = run.setup_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
    let (mut p50s, mut p99s, mut qps, mut ticks) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut from = (0, 0);
    for &to in &run.windows {
        let mut query = run.query_ns[from.0..to.0].to_vec();
        let tick = &run.tick_ns[from.1..to.1];
        from = to;
        if !query.is_empty() {
            let busy_s = query.iter().sum::<u64>() as f64 / 1e9;
            qps.push(query.len() as f64 / busy_s);
            p50s.push(quantile(&mut query, 0.5) as f64);
            p99s.push(quantile(&mut query, 0.99) as f64);
        }
        if !tick.is_empty() {
            ticks.push(ms(p50(tick)));
        }
    }
    let least = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let most = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let answered = run.attempted - run.failed;
    vec![
        m("setup_s", median(&mut setup), "s", setup.len()),
        m("query_p50_ns", least(&p50s), "ns", run.query_ns.len()),
        m("query_p99_ns", least(&p99s), "ns", run.query_ns.len()),
        m("query_qps", most(&qps), "1/s", run.query_ns.len()),
        m("ingest_tick_p50_ms", least(&ticks), "ms", run.tick_ns.len()),
        m(
            "answered_share",
            answered as f64 / run.attempted.max(1) as f64,
            "ratio",
            run.attempted as usize,
        ),
    ]
}

fn per_layer(run: &mut Run, check_requests: bool) -> Vec<Metric> {
    let l = &run.layers;
    let ticks = l.ingest.len();
    let part = |f: fn(&IngestParts) -> u64| -> f64 {
        ms(p50(&l.ingest.iter().map(f).collect::<Vec<_>>()))
    };
    // Per tick: whole ingest_tick minus the mirrored advance and snapshot,
    // and the operational-law residual of the tick's layer sum.
    let mut publish = Vec::new();
    let mut tick_residual = Vec::new();
    for (parts, &tick) in l.ingest.iter().zip(&run.tick_ns) {
        let publish_ns = tick as f64 - (parts.advance + parts.snapshot) as f64;
        let layer_sum = (parts.advance + parts.snapshot_parts()) as f64 + publish_ns;
        publish.push(publish_ns);
        tick_residual.push((tick as f64 - layer_sum) / tick as f64);
    }
    let mut request_residual = l.request_residual.clone();
    let mut shell = l.shell_overhead_ns.clone();
    let mut build: Vec<f64> = l
        .platform_build_ns
        .iter()
        .map(|&ns| ns as f64 / 1e9)
        .collect();
    let overhead = |traced: f64, untraced: u64| traced / untraced.max(1) as f64 - 1.0;
    let query_overhead = overhead(p50(&run.query_ns), l.untraced_query_p50_ns);
    let tick_overhead = overhead(p50(&run.tick_ns), l.untraced_tick_p50_ns);
    let mut samples: Vec<f64> = l.ingest.iter().map(|p| p.samples as f64).collect();
    let metrics = vec![
        m("nws.advance_ms", part(|p| p.advance), "ms", ticks),
        m("nws.tournament_ms", part(|p| p.tournament), "ms", ticks),
        m("nws.query_ms", part(|p| p.query), "ms", ticks),
        m("nws.mode_ms", part(|p| p.mode), "ms", ticks),
        m("nws.tau_ms", part(|p| p.tau), "ms", ticks),
        m("nws.bandwidth_ms", part(|p| p.bandwidth), "ms", ticks),
        m("nws.snapshot_ms", part(|p| p.snapshot), "ms", ticks),
        m(
            "nws.snapshot_self_ms",
            part(|p| p.capture_self),
            "ms",
            ticks,
        ),
        m("nws.history_samples", median(&mut samples), "count", ticks),
        m("ingest.publish_ms", ms(median(&mut publish)), "ms", ticks),
        m(
            "simgrid.platform_build_s",
            median(&mut build),
            "s",
            build.len(),
        ),
        m("cache.hit_rate", run.hit_rate(), "ratio", 0),
        m("cache.hits", run.cache.hits as f64, "count", 0),
        m("cache.misses", run.cache.misses as f64, "count", 0),
        m("cache.evicted", run.cache.evicted as f64, "count", 0),
        m("cache.hit_ns", p50(&l.hit_ns), "ns", l.hit_ns.len()),
        m("cache.miss_ns", p50(&l.miss_ns), "ns", l.miss_ns.len()),
        m(
            "model.predict_ns",
            p50(&l.predict_ns),
            "ns",
            l.predict_ns.len(),
        ),
        m("http.parse_ns", p50(&l.parse_ns), "ns", l.parse_ns.len()),
        m("http.render_ns", p50(&l.render_ns), "ns", l.render_ns.len()),
        m(
            "shell.overhead_us",
            median(&mut shell) / 1e3,
            "us",
            shell.len(),
        ),
        m(
            "trace.query_overhead",
            query_overhead,
            "ratio",
            run.query_ns.len(),
        ),
        m(
            "trace.tick_overhead",
            tick_overhead,
            "ratio",
            run.tick_ns.len(),
        ),
        m(
            "law.tick_residual",
            median(&mut tick_residual),
            "ratio",
            ticks,
        ),
        m(
            "law.request_residual",
            median(&mut request_residual),
            "ratio",
            request_residual.len(),
        ),
    ];
    let mut checks = vec![("law.tick_residual", tick_residual)];
    if check_requests {
        checks.push(("law.request_residual", request_residual));
    }
    for (name, mut residuals) in checks {
        let med = median(&mut residuals);
        if residuals.is_empty() || med.abs() > LAW_TOLERANCE {
            run.problem(format!(
                "{name}: median residual {med:.4} of {} items outside ±{LAW_TOLERANCE}",
                residuals.len()
            ));
        }
    }
    metrics
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = Duration::from_secs(args.seconds);
    let mut run = Run::default();
    let outcome = match args.workload.as_str() {
        "socket" => socket::run(args.seed, seconds, args.trace, &mut run),
        name => match inproc::Spec::for_workload(name, args.seed) {
            Some(spec) => inproc::run(&spec, seconds, args.trace, &mut run),
            None => Err(format!("unknown workload {name}\n{USAGE}")),
        },
    };
    if let Err(why) = outcome {
        eprintln!("perfbench: {why}");
        return ExitCode::FAILURE;
    }
    let metrics = if args.trace {
        per_layer(&mut run, args.workload != "socket")
    } else {
        end_to_end(&run)
    };
    for &(name, count, p50_ns, total_ns) in &run.layers.spans {
        println!("span {name:<24} count {count:>9}  p50 {p50_ns:>12} ns  total {total_ns:>14} ns");
    }
    println!("{} windows", run.windows.len());
    let mut json = Vec::new();
    for m in &metrics {
        println!(
            "{:<26} {:>18} {:<6} ({} samples)",
            m.name, m.value, m.unit, m.samples
        );
        let value = if m.value.is_finite() {
            m.value
        } else {
            run.problem(format!("{} is not finite", m.name));
            0.0
        };
        json.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    let correct = run.problems.is_empty() && run.failed == 0 && run.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} problems", run.problems.len());
        ExitCode::FAILURE
    }
}
