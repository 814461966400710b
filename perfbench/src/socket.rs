//! The `socket` workload: a real `shell::serve` daemon on loopback with
//! one worker and the default 250 ms ingest cadence, driven by one
//! client that opens one connection per request. Ingest runs in the
//! daemon's own thread, concurrently with the queries.

use crate::gate;
use crate::inproc::{check_model, render_ok};
use crate::mirror::{IngestParts, Mirror};
use crate::stats::quantile;
use crate::trace::Trace;
use crate::Run;
use prodpred_service::replay::request_path;
use prodpred_service::shell::{self, ShellConfig};
use prodpred_service::{http, PredictResponse, ServiceConfig, ServiceCore};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests in one window of the untraced client loop (about 2 s), so
/// that each window's p99 has ten samples beyond it.
const WINDOW_REQUESTS: usize = 1000;
/// The shell's default ingest cadence.
const TICK_MILLIS: u64 = 250;
/// How often the epoch watch polls the core.
const WATCH_POLL: Duration = Duration::from_micros(200);
/// Socket requests replayed in process as one batch in a traced run:
/// run back to back, the in-process passes find warm caches, as they do
/// in the in-process workloads.
const IN_PROCESS_BATCH: usize = 64;
/// Requests of the shell-overhead probe that traced in-process runs add.
const PROBE_REQUESTS: u64 = 300;

fn daemon(core: &Arc<ServiceCore>) -> Result<shell::ShellHandle, String> {
    let config = ShellConfig {
        workers: 1,
        tick_millis: TICK_MILLIS,
        ..ShellConfig::default()
    };
    shell::serve(Arc::clone(core), &config).map_err(|e| format!("serve: {e}"))
}

/// One request on a fresh connection, timed from connect to the last
/// byte read. Returns the latency and the status and body.
fn get(addr: SocketAddr, request: &[u8]) -> (u64, std::io::Result<(u16, String)>) {
    let t0 = Instant::now();
    let result = (|| {
        let mut stream = TcpStream::connect(addr)?;
        stream.write_all(request)?;
        let mut response = String::new();
        stream.read_to_string(&mut response)?;
        Ok(response)
    })();
    let ns = t0.elapsed().as_nanos() as u64;
    let parsed = result.map(|response| {
        let status = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = response
            .split_once("\r\n\r\n")
            .map_or(String::new(), |(_, b)| b.to_string());
        (status, body)
    });
    (ns, parsed)
}

fn request_bytes(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").into_bytes()
}

/// Records when the core's epoch moves. The daemon's ingest thread is
/// `sleep(cadence); ingest_tick()`, and platform 1 publishes first, so
/// the time between two bumps minus the cadence is one whole tick.
struct EpochWatch {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(u64, Instant)>>,
}

impl EpochWatch {
    fn start(core: &Arc<ServiceCore>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (core, stop) = (Arc::clone(core), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut bumps = vec![(core.epoch(), Instant::now())];
                while !stop.load(Ordering::Relaxed) {
                    let epoch = core.epoch();
                    if epoch != bumps[bumps.len() - 1].0 {
                        bumps.push((epoch, Instant::now()));
                    }
                    std::thread::sleep(WATCH_POLL);
                }
                bumps
            })
        };
        Self { stop, thread }
    }

    /// Stops the watch; returns `(epoch, tick ns, published at)` for
    /// every tick whose start was seen.
    fn stop(self) -> Result<Vec<(u64, u64, Instant)>, String> {
        self.stop.store(true, Ordering::Relaxed);
        let bumps = self.thread.join().map_err(|_| "epoch watch panicked")?;
        let cadence = Duration::from_millis(TICK_MILLIS).as_nanos() as u64;
        Ok(bumps
            .windows(2)
            .skip(1)
            .filter(|w| w[1].0 == w[0].0 + 1)
            .map(|w| {
                let period = (w[1].1 - w[0].1).as_nanos() as u64;
                (w[1].0, period.saturating_sub(cadence), w[1].1)
            })
            .collect())
    }
}

pub fn run(seed: u64, budget: Duration, traced: bool, run: &mut Run) -> Result<(), String> {
    let config = ServiceConfig {
        seed,
        ..ServiceConfig::default()
    };
    let gated = build(&config, run);
    gate::run(&gated, seed)?;
    let core = Arc::new(build(&config, run));
    let mut handle = daemon(&core)?;
    let watch = EpochWatch::start(&core);
    let outcome = drive(&core, handle.addr(), &config, seed, budget, traced, run);
    let ticks = watch.stop();
    handle.shutdown();
    let (window_ends, traced_from, mirrored) = outcome?;
    let ticks = ticks?;
    let untraced = |t: &&(u64, u64, Instant)| traced_from.is_none_or(|from| t.2 < from);
    if traced {
        run.layers.untraced_tick_p50_ns = quantile(
            &mut ticks
                .iter()
                .filter(untraced)
                .map(|t| t.1)
                .collect::<Vec<_>>(),
            0.5,
        );
        // Pair each mirrored tick with the daemon's tick of that epoch.
        for (epoch, parts) in mirrored {
            if let Some(tick) = ticks.iter().find(|t| t.0 == epoch) {
                run.tick(tick.1, Ok(()));
                run.layers.ingest.push(parts);
            }
        }
    } else {
        for t in &ticks {
            run.tick(t.1, Ok(()));
        }
        run.windows = window_ends
            .iter()
            .map(|&(queries, at)| (queries, ticks.iter().filter(|t| t.2 < at).count()))
            .collect();
    }
    let shed = core.stats().shed;
    if shed != 0 {
        run.problem(format!("{shed} queries shed"));
    }
    Ok(())
}

/// Builds a core, timing it as one set-up.
fn build(config: &ServiceConfig, run: &mut Run) -> ServiceCore {
    let t0 = Instant::now();
    let core = ServiceCore::new(config.clone());
    run.setup_ns.push(t0.elapsed().as_nanos() as u64);
    core
}

/// What the client loop hands back: the end of each untraced window
/// (queries so far, when), when tracing began, and the mirrored ticks by
/// epoch.
type Driven = (
    Vec<(usize, Instant)>,
    Option<Instant>,
    Vec<(u64, IngestParts)>,
);

/// The client loop: windows of `WINDOW_REQUESTS`, with one more core built (and
/// timed as a set-up) at the end of each. A traced run spends its first
/// half untraced; the second half repeats every request in process and
/// mirrors ingest.
fn drive(
    core: &Arc<ServiceCore>,
    addr: SocketAddr,
    config: &ServiceConfig,
    seed: u64,
    budget: Duration,
    traced: bool,
    run: &mut Run,
) -> Result<Driven, String> {
    let untraced_for = if traced { budget / 2 } else { budget };
    let start = Instant::now();
    let mut window_ends = Vec::new();
    let mut index = 0;
    while start.elapsed() < untraced_for || window_ends.is_empty() {
        let target = request_path(seed, index);
        index += 1;
        let (ns, result) = get(addr, &request_bytes(&target));
        run.query(ns, socket_answer(result));
        if run.query_ns.len().is_multiple_of(WINDOW_REQUESTS) {
            window_ends.push((run.query_ns.len(), Instant::now()));
            let seed = crate::gen::mix(seed ^ index);
            drop(build(
                &ServiceConfig {
                    seed,
                    ..config.clone()
                },
                run,
            ));
        }
    }
    run.add_cache(core.stats().cache);
    if !traced {
        return Ok((window_ends, None, Vec::new()));
    }
    run.layers.untraced_query_p50_ns = quantile(&mut run.query_ns, 0.5);
    run.query_ns.clear();
    let traced_from = Instant::now();
    let mut trace = Trace::new();
    let (mut mirror, _) = Mirror::new(config, &mut trace)?;
    run.layers.platform_build_ns.push(mirror.platform_build_ns);
    let mut mirrored = Vec::new();
    let mut batch = Vec::with_capacity(IN_PROCESS_BATCH);
    while traced_from.elapsed() < budget - untraced_for {
        while mirror.epoch() < core.epoch() {
            let parts = mirror.tick(&mut trace)?;
            mirrored.push((mirror.epoch(), parts));
        }
        let target = request_path(seed, index);
        index += 1;
        let (ns, result) = get(addr, &request_bytes(&target));
        // The structural model on the mirror's capture, for a miss
        // served from the snapshot the mirror holds.
        if let Ok((_, body)) = &result {
            if let Ok(answer) = serde_json::from_str::<PredictResponse>(body) {
                if !answer.cache_hit && answer.epoch == mirror.epoch() {
                    let req = gate::parse_target(&target)?;
                    check_model(&mirror, &req, &answer, &mut trace, run);
                }
            }
        }
        run.query(ns, socket_answer(result));
        batch.push((target, ns));
        if batch.len() == IN_PROCESS_BATCH {
            for (target, ns) in batch.drain(..) {
                let whole = in_process(core, &target, &mut trace, run);
                run.layers.shell_overhead_ns.push(ns as f64 - whole as f64);
            }
        }
    }
    run.layers.spans = trace.summary();
    Ok((window_ends, Some(traced_from), mirrored))
}

/// The same request in process: through `http::handle` + render, then
/// decomposed into parse, query and render. Returns the whole latency.
fn in_process(core: &ServiceCore, target: &str, trace: &mut Trace, run: &mut Run) -> u64 {
    let (_, whole) = trace.time("http.handle", None, || http::handle(core, target).render());
    let root = trace.begin("http.request", None);
    let (req, parse) = trace.time("http.parse", Some(root), || gate::parse_target(target));
    let (answer, query) = trace.time("service.query", Some(root), || req.map(|r| core.query(&r)));
    let Ok(Ok(answer)) = answer else {
        run.problem(format!("{target}: refused in process"));
        return whole;
    };
    let (_, render) = trace.time("http.render", Some(root), || render_ok(&answer));
    trace.end(root);
    let l = &mut run.layers;
    l.parse_ns.push(parse);
    l.render_ns.push(render);
    if answer.cache_hit {
        l.hit_ns.push(query);
    } else {
        l.miss_ns.push(query);
    }
    l.request_residual
        .push((whole as f64 - (parse + query + render) as f64) / whole as f64);
    whole
}

/// An answer over the socket is right when it is a 200 served `Healthy`
/// at most one tick old: a query that lands while the daemon's tick is
/// in flight is served from the previous snapshot, at age 1.
fn socket_answer(result: std::io::Result<(u16, String)>) -> Result<(), String> {
    match result {
        Ok((status, body)) => gate::answer(status, &body, None, 1),
        Err(e) => Err(format!("socket: {e}")),
    }
}

/// The shell overhead of the `socket` workload's stream, measured in
/// traced runs of the in-process workloads: a daemon on a fresh default
/// core answers `PROBE_REQUESTS` requests over loopback, each repeated
/// in process.
pub fn probe_overhead(seed: u64, run: &mut Run) -> Result<(), String> {
    let core = Arc::new(ServiceCore::new(ServiceConfig {
        seed,
        ..ServiceConfig::default()
    }));
    let mut handle = daemon(&core)?;
    for index in 0..PROBE_REQUESTS {
        let target = request_path(seed, index);
        let (ns, result) = get(handle.addr(), &request_bytes(&target));
        if let Err(why) = socket_answer(result) {
            run.problem(why);
        }
        let t0 = Instant::now();
        std::hint::black_box(http::handle(&core, &target).render());
        let whole = t0.elapsed().as_nanos() as u64;
        run.layers.shell_overhead_ns.push(ns as f64 - whole as f64);
    }
    handle.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_window_over_loopback_is_correct() {
        let mut r = Run::default();
        run(4, Duration::ZERO, false, &mut r).unwrap();
        assert!(r.problems.is_empty(), "{:?}", r.problems);
        assert_eq!(r.windows.len(), 1);
        assert!(r.query_ns.len() > 100);
        assert!(r.setup_ns.len() >= 3);
    }
}
