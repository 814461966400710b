//! The in-process workloads: `query_hot`, `query_cold` and
//! `ingest_deep`. One client thread alternates a batch of queries with
//! one ingest tick; queries and ticks are timed apart.
//!
//! The run is a sequence of episodes. Each builds a fresh core, so the
//! service's uptime, and with it the cost of a tick, is the same in
//! every run however fast the machine is. A window of the end-to-end
//! metrics closes after the first batch that brings it to
//! `WINDOW_QUERIES` queries.

use crate::gate;
use crate::gen::{mix, target, Keys};
use crate::mirror::Mirror;
use crate::stats::quantile;
use crate::trace::Trace;
use crate::Run;
use prodpred_service::{
    http, HttpResponse, PredictRequest, PredictResponse, ServiceConfig, ServiceCore,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Queries in one window: its p99 has 100 samples beyond it.
const WINDOW_QUERIES: usize = 10_000;

/// The NWS retention bound: samples kept per sensor.
const RETAINED: usize = 4096;

/// Simulated seconds of warm-up that fill every sensor to the retention
/// bound (one sample per 5 s).
const DEEP_WARMUP: f64 = RETAINED as f64 * 5.0;

pub struct Spec {
    pub seed: u64,
    pub config: ServiceConfig,
    pub keys: Keys,
    /// Queries between two ticks.
    pub batch: usize,
    /// Ticks per episode.
    pub ticks: usize,
    /// Bounds on the cache hit rate of the timed loop.
    pub hit_rate: (f64, f64),
    /// Samples every sensor must retain at each capture, if fixed.
    pub retained: Option<usize>,
}

impl Spec {
    pub fn for_workload(name: &str, seed: u64) -> Option<Self> {
        let config = ServiceConfig {
            seed,
            ..ServiceConfig::default()
        };
        Some(match name {
            // 2000 draws from 192 configurations leave about 190
            // misses per epoch: a hit rate of about 0.90.
            "query_hot" => Self {
                seed,
                config,
                keys: Keys::Hot,
                batch: 2000,
                ticks: 20,
                hit_rate: (0.85, 1.0),
                retained: None,
            },
            // 10 000 distinct keys per epoch overflow the 4096-entry
            // cache of each platform, so inserts also evict.
            "query_cold" => Self {
                seed,
                config,
                keys: Keys::Cold,
                batch: 10_000,
                ticks: 4,
                hit_rate: (0.0, 0.05),
                retained: None,
            },
            // Sensors start at the retention bound and the horizon is
            // far enough out that the clock never clamps. The batch is a
            // query probe before and after the tick.
            "ingest_deep" => Self {
                seed,
                config: ServiceConfig {
                    warmup: DEEP_WARMUP,
                    horizon: DEEP_WARMUP + 3600.0,
                    ..config
                },
                keys: Keys::Hot,
                batch: 10_000,
                ticks: 1,
                hit_rate: (0.0, 1.0),
                retained: Some(RETAINED),
            },
            _ => return None,
        })
    }

    /// Simulated time of the snapshot published by tick `k` of an
    /// episode (warm-up is tick 0). Deliberately unclamped: a clock
    /// stuck at the horizon shows as a wrong answer.
    fn captured_at(&self, k: usize) -> f64 {
        self.config.warmup + k as f64 * self.config.publish_interval
    }
}

/// Runs `spec` for `budget`. A traced run first runs untraced for half
/// the budget, to measure what tracing costs.
pub fn run(spec: &Spec, budget: Duration, traced: bool, run: &mut Run) -> Result<(), String> {
    let t0 = Instant::now();
    let core = ServiceCore::new(spec.config.clone());
    run.setup_ns.push(t0.elapsed().as_nanos() as u64);
    gate::run(&core, spec.seed)?;
    drop(core);
    let mut next = 0;
    if traced {
        let mut plain = Run::default();
        episodes(spec, budget / 2, None, &mut plain, &mut next)?;
        run.layers.untraced_query_p50_ns = quantile(&mut plain.query_ns, 0.5);
        run.layers.untraced_tick_p50_ns = quantile(&mut plain.tick_ns, 0.5);
        run.attempted += plain.attempted;
        run.failed += plain.failed;
        run.problems.append(&mut plain.problems);
        let mut trace = Trace::new();
        episodes(spec, budget / 2, Some(&mut trace), run, &mut next)?;
        run.layers.spans = trace.summary();
        crate::socket::probe_overhead(spec.seed, run)?;
    } else {
        episodes(spec, budget, None, run, &mut next)?;
    }
    let rate = run.hit_rate();
    if rate < spec.hit_rate.0 || rate > spec.hit_rate.1 {
        run.problem(format!(
            "cache hit rate {rate:.4} outside {:?}",
            spec.hit_rate
        ));
    }
    Ok(())
}

/// The traced run's second core and ingest mirror, both built from the
/// same config as the timed core so that they hold the same state.
struct Shadow<'t> {
    trace: &'t mut Trace,
    twin: ServiceCore,
    mirror: Mirror,
}

fn episodes(
    spec: &Spec,
    budget: Duration,
    mut trace: Option<&mut Trace>,
    run: &mut Run,
    next: &mut u64,
) -> Result<(), String> {
    let start = Instant::now();
    loop {
        // Each episode simulates platforms of its own seed, so a run
        // averages over load traces rather than timing one of them.
        let config = ServiceConfig {
            seed: mix(spec.seed ^ *next),
            ..spec.config.clone()
        };
        let t0 = Instant::now();
        let core = ServiceCore::new(config.clone());
        run.setup_ns.push(t0.elapsed().as_nanos() as u64);
        let mut shadow = match trace.as_deref_mut() {
            None => None,
            Some(trace) => {
                let twin = ServiceCore::new(config.clone());
                let (mirror, _) = Mirror::new(&config, trace)?;
                run.layers.platform_build_ns.push(mirror.platform_build_ns);
                Some(Shadow {
                    trace,
                    twin,
                    mirror,
                })
            }
        };
        episode(spec, &core, shadow.as_mut(), run, next)?;
        let stats = core.stats();
        if stats.shed != 0 {
            run.problem(format!("{} queries shed", stats.shed));
        }
        run.add_cache(stats.cache);
        if start.elapsed() >= budget {
            return Ok(());
        }
    }
}

fn episode(
    spec: &Spec,
    core: &ServiceCore,
    mut shadow: Option<&mut Shadow>,
    run: &mut Run,
    next: &mut u64,
) -> Result<(), String> {
    for k in 0..=spec.ticks {
        let fresh = gate::fresh_marker(k as u64 + 1, spec.captured_at(k));
        let targets: Vec<String> = (0..spec.batch)
            .map(|_| {
                *next += 1;
                target(spec.keys, spec.seed, *next - 1)
            })
            .collect();
        for t in &targets {
            match shadow.as_deref_mut() {
                None => {
                    let t0 = Instant::now();
                    let response = http::handle(core, t);
                    let wire = response.render();
                    let ns = t0.elapsed().as_nanos() as u64;
                    black_box(wire);
                    run.query(
                        ns,
                        gate::answer(response.status, &response.body, Some(&fresh), 0),
                    );
                }
                Some(shadow) => traced_request(core, shadow, t, &fresh, run),
            }
        }
        if run.query_ns.len() - run.windows.last().map_or(0, |w| w.0) >= WINDOW_QUERIES {
            run.close_window();
        }
        if k == spec.ticks {
            return Ok(());
        }
        let before = core.epoch();
        let (epoch, ns) = match shadow.as_deref_mut() {
            None => {
                let t0 = Instant::now();
                let epoch = core.ingest_tick();
                (epoch, t0.elapsed().as_nanos() as u64)
            }
            Some(shadow) => {
                let timed = shadow
                    .trace
                    .time("ingest.tick", None, || core.ingest_tick());
                shadow.twin.ingest_tick();
                let parts = shadow.mirror.tick(shadow.trace)?;
                if spec.retained.is_some_and(|r| r != parts.samples) {
                    run.problem(format!("{} samples retained per sensor", parts.samples));
                }
                if shadow.mirror.captured_at() != spec.captured_at(k + 1) {
                    run.problem(format!(
                        "mirror captured at {}",
                        shadow.mirror.captured_at()
                    ));
                }
                run.layers.ingest.push(parts);
                timed
            }
        };
        let advanced = match epoch == before + 1 {
            true => Ok(()),
            false => Err(format!("tick moved epoch {before} to {epoch}")),
        };
        run.tick(ns, advanced);
    }
    Ok(())
}

/// The request through `http::handle` on the timed core, then the same
/// request decomposed into parse, query and render on the twin, with
/// the structural model rerun on the mirror's capture for every miss.
fn traced_request(core: &ServiceCore, s: &mut Shadow, t: &str, fresh: &str, run: &mut Run) {
    let ((response, wire), whole) = s.trace.time("http.handle", None, || {
        let response = http::handle(core, t);
        let wire = response.render();
        (response, wire)
    });
    run.query(
        whole,
        gate::answer(response.status, &response.body, Some(fresh), 0),
    );
    let root = s.trace.begin("http.request", None);
    let (req, parse) = s
        .trace
        .time("http.parse", Some(root), || gate::parse_target(t));
    let Ok(req) = req else {
        return run.problem(format!("{t}: does not parse"));
    };
    let (answer, query) = s
        .trace
        .time("service.query", Some(root), || s.twin.query(&req));
    let Ok(answer) = answer else {
        return run.problem(format!("{t}: twin refused it"));
    };
    let (twin_wire, render) = s
        .trace
        .time("http.render", Some(root), || render_ok(&answer));
    s.trace.end(root);
    if twin_wire != wire {
        run.problem(format!("{t}: twin answered {twin_wire} instead of {wire}"));
    }
    let l = &mut run.layers;
    l.parse_ns.push(parse);
    l.render_ns.push(render);
    l.request_residual
        .push((whole as f64 - (parse + query + render) as f64) / whole as f64);
    if answer.cache_hit {
        l.hit_ns.push(query);
        return;
    }
    l.miss_ns.push(query);
    check_model(&s.mirror, &req, &answer, s.trace, run);
}

/// Reruns the structural model for a miss on the mirror's capture, which
/// must give the service's answer bit for bit.
pub fn check_model(
    mirror: &Mirror,
    req: &PredictRequest,
    answer: &PredictResponse,
    trace: &mut Trace,
    run: &mut Run,
) {
    let (prediction, ns) = trace.time("model.predict", None, || mirror.predict(req));
    run.layers.predict_ns.push(ns);
    match prediction {
        Ok(p)
            if [
                p.stochastic.mean(),
                p.stochastic.lo(),
                p.stochastic.hi(),
                p.point,
            ]
            .map(f64::to_bits)
                == gate::bits(answer) => {}
        other => run.problem(format!(
            "{req:?}: mirror predicted {other:?}, service {answer:?}"
        )),
    }
}

/// The wire form `http::handle` renders for a successful answer.
pub fn render_ok(answer: &PredictResponse) -> String {
    HttpResponse {
        status: 200,
        reason: "OK",
        retry_after: None,
        body: serde_json::to_string(answer).unwrap_or_default(),
    }
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_episode_is_correct_and_hits_the_cache_as_specified() {
        for (name, batch) in [("query_hot", 2000), ("query_cold", 3000)] {
            // A shorter cold batch keeps the test quick and misses as often.
            let spec = Spec {
                batch,
                ..Spec::for_workload(name, 9).unwrap()
            };
            let mut r = Run::default();
            run(&spec, Duration::ZERO, false, &mut r).unwrap();
            assert!(r.problems.is_empty(), "{name}: {:?}", r.problems);
            assert_eq!(r.failed, 0);
            assert_eq!(r.tick_ns.len(), spec.ticks);
            assert!(!r.windows.is_empty());
        }
    }

    #[test]
    fn deep_warm_up_leaves_exactly_the_retention_bound() {
        let spec = Spec::for_workload("ingest_deep", 9).unwrap();
        assert_eq!(prodpred_nws::NwsConfig::default().capacity, RETAINED);
        let (_, parts) = Mirror::new(&spec.config, &mut Trace::new()).unwrap();
        assert_eq!(parts.samples, RETAINED);
    }
}
