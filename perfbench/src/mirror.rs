//! The benchmark's own copy of the service's ingest pipeline, built from
//! the same seed and config so that it captures the very snapshots the
//! service publishes. Ingest is timed here call by call, because
//! `ServiceCore::ingest_tick` is one opaque call.

use crate::trace::{SpanId, Trace};
use prodpred_core::{Prediction, SorPredictor};
use prodpred_nws::snapshot::{ForecastSnapshot, HorizonBasis, MachineSnapshot};
use prodpred_nws::{NwsConfig, NwsService};
use prodpred_service::{PredictRequest, ServiceConfig};
use prodpred_simgrid::Platform;
use prodpred_sor::decomp::partition_equal;
use prodpred_stochastic::Summary;

/// Ingest layer times of one tick in ns, summed over both platforms.
#[derive(Debug, Default, Clone, Copy)]
pub struct IngestParts {
    /// `NwsService::advance_to`.
    pub advance: u64,
    /// `NwsService::snapshot`, as one call.
    pub snapshot: u64,
    /// `cpu_stochastic` (the forecaster tournament).
    pub tournament: u64,
    /// `cpu_query` (which repeats the tournament).
    pub query: u64,
    /// `cpu_modal_stochastic` (mode detection).
    pub mode: u64,
    /// `cpu_autocorrelation_time`.
    pub tau: u64,
    /// `bandwidth_fraction_stochastic` and `bandwidth_fraction_query`.
    pub bandwidth: u64,
    /// The capture's own work outside those calls: copying and
    /// summarising each history.
    pub capture_self: u64,
    /// Retained samples per CPU sensor at capture.
    pub samples: usize,
}

impl IngestParts {
    /// The named parts of a snapshot plus its self time.
    pub fn snapshot_parts(&self) -> u64 {
        self.tournament + self.query + self.mode + self.tau + self.bandwidth + self.capture_self
    }
}

pub struct Mirror {
    platforms: [Platform; 2],
    nws: [NwsService; 2],
    snapshots: Vec<ForecastSnapshot>,
    clock: f64,
    epoch: u64,
    interval: f64,
    horizon: f64,
    /// `Platform::platform1` plus `platform2` build time, ns.
    pub platform_build_ns: u64,
}

impl Mirror {
    /// Builds both platforms and warms up exactly as `ServiceCore::new`
    /// does; returns the mirror and the warm-up capture's parts.
    pub fn new(config: &ServiceConfig, trace: &mut Trace) -> Result<(Self, IngestParts), String> {
        let (platforms, platform_build_ns) = trace.time("simgrid.platform_build", None, || {
            [
                Platform::platform1(config.seed, config.horizon),
                Platform::platform2(config.seed, config.horizon),
            ]
        });
        let nws = [
            NwsService::attach(&platforms[0], NwsConfig::default()),
            NwsService::attach(&platforms[1], NwsConfig::default()),
        ];
        let mut mirror = Self {
            platforms,
            nws,
            snapshots: Vec::new(),
            clock: 0.0,
            epoch: 0,
            interval: config.publish_interval,
            horizon: config.horizon,
            platform_build_ns,
        };
        let parts = mirror.advance(config.warmup, trace)?;
        Ok((mirror, parts))
    }

    /// One ingest tick: advance by the publish interval and capture.
    pub fn tick(&mut self, trace: &mut Trace) -> Result<IngestParts, String> {
        self.advance(self.interval, trace)
    }

    /// The epoch of the latest capture (the service's numbering).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn advance(&mut self, dt: f64, trace: &mut Trace) -> Result<IngestParts, String> {
        self.clock = (self.clock + dt).min(self.horizon);
        self.epoch += 1;
        let root = trace.begin("mirror.tick", None);
        let mut parts = IngestParts::default();
        self.snapshots.clear();
        for (platform, nws) in self.platforms.iter().zip(&self.nws) {
            parts.advance += trace
                .time("nws.advance", Some(root), || {
                    nws.advance_to(platform, self.clock)
                })
                .1;
            let (snapshot, ns) =
                trace.time("nws.snapshot", Some(root), || nws.snapshot(self.epoch));
            parts.snapshot += ns;
            let cap = trace.begin("nws.capture", Some(root));
            let captured = capture(nws, self.epoch, trace, cap);
            trace.end(cap);
            parts.capture_self += trace.self_ns(cap);
            parts.tournament += trace.children_ns(cap, "nws.tournament");
            parts.query += trace.children_ns(cap, "nws.query");
            parts.mode += trace.children_ns(cap, "nws.mode");
            parts.tau += trace.children_ns(cap, "nws.tau");
            parts.bandwidth += trace.children_ns(cap, "nws.bandwidth");
            if captured != snapshot {
                return Err(format!(
                    "epoch {}: the decomposed capture differs from NwsService::snapshot",
                    self.epoch
                ));
            }
            parts.samples = snapshot
                .machines
                .iter()
                .map(|m| m.horizon.samples)
                .min()
                .unwrap_or(0);
            self.snapshots.push(snapshot);
        }
        trace.end(root);
        Ok(parts)
    }

    /// Simulated time of the latest capture.
    pub fn captured_at(&self) -> f64 {
        self.snapshots.first().map_or(0.0, |s| s.captured_at)
    }

    /// The structural model on the latest capture, as the service runs
    /// it on a cache miss.
    pub fn predict(&self, req: &PredictRequest) -> Result<Prediction, String> {
        let i = usize::from(req.platform).wrapping_sub(1);
        let (platform, snapshot) = self
            .platforms
            .get(i)
            .zip(self.snapshots.get(i))
            .ok_or_else(|| format!("no platform {}", req.platform))?;
        let predictor =
            SorPredictor::try_new(platform, snapshot, req.config).map_err(|e| e.to_string())?;
        let strips = partition_equal(req.n - 2, req.procs);
        predictor
            .try_predict(req.n, &strips)
            .map_err(|e| e.to_string())
    }
}

/// `NwsService::snapshot` rebuilt from the same public calls in the same
/// order, each in its own span under `parent`.
fn capture(nws: &NwsService, epoch: u64, trace: &mut Trace, parent: SpanId) -> ForecastSnapshot {
    let p = Some(parent);
    let machines = (0..nws.n_machines())
        .map(|i| {
            let history = nws.cpu_history(i);
            let (mean, variance) = if history.len() >= 2 {
                let s = Summary::from_slice(&history);
                (s.mean(), s.variance())
            } else {
                (history.first().copied().unwrap_or(0.0), 0.0)
            };
            MachineSnapshot {
                resource: nws.cpu_resource_name(i),
                stochastic: trace.time("nws.tournament", p, || nws.cpu_stochastic(i)).0,
                query: trace.time("nws.query", p, || nws.cpu_query(i).ok()).0,
                modal: trace.time("nws.mode", p, || nws.cpu_modal_stochastic(i)).0,
                horizon: HorizonBasis {
                    samples: history.len(),
                    mean,
                    variance,
                    tau: trace
                        .time("nws.tau", p, || nws.cpu_autocorrelation_time(i))
                        .0,
                },
            }
        })
        .collect();
    ForecastSnapshot {
        epoch,
        captured_at: nws.now(),
        machines,
        bandwidth_stochastic: trace
            .time("nws.bandwidth", p, || nws.bandwidth_fraction_stochastic())
            .0,
        bandwidth_query: trace
            .time("nws.bandwidth", p, || nws.bandwidth_fraction_query().ok())
            .0,
    }
}
