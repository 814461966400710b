//! The correctness gate run before any timing, and the per-answer checks
//! run on every timed answer.

use crate::gen::cold_path;
use prodpred_service::replay::{request_for, request_path, DISTINCT_REQUESTS};
use prodpred_service::resilience::ServingState;
use prodpred_service::{http, PredictRequest, PredictResponse, ServiceCore};
use std::collections::HashSet;

/// Cold-stream keys the gate checks.
const COLD_SAMPLE: u64 = 256;

/// Parses a `/predict` target the way the service does.
pub fn parse_target(target: &str) -> Result<PredictRequest, String> {
    let query = target
        .strip_prefix("/predict?")
        .ok_or_else(|| format!("{target}: not a /predict target"))?;
    let pairs: Vec<(&str, &str)> = query
        .split('&')
        .map(|p| p.split_once('=').unwrap_or((p, "")))
        .collect();
    http::parse_predict(&pairs)
}

/// Cached equals uncached, bit for bit, for every configuration of the
/// replay stream and a sample of the cold stream; every answer healthy
/// and fresh; nothing shed.
pub fn run(core: &ServiceCore, seed: u64) -> Result<(), String> {
    let mut seen = HashSet::new();
    let mut index = 0;
    while seen.len() < DISTINCT_REQUESTS {
        if index > 1_000_000 {
            return Err(format!("replay stream covered {} configs", seen.len()));
        }
        if seen.insert(request_path(seed, index)) {
            check(core, &request_for(seed, index))?;
        }
        index += 1;
    }
    for i in 0..COLD_SAMPLE {
        check(core, &parse_target(&cold_path(seed, i))?)?;
    }
    match core.stats().shed {
        0 => Ok(()),
        shed => Err(format!("gate: {shed} queries shed")),
    }
}

fn check(core: &ServiceCore, req: &PredictRequest) -> Result<(), String> {
    let fail = |e: prodpred_service::ServiceError| format!("gate: {req:?}: {e}");
    let reference = core.query_uncached(req).map_err(fail)?;
    let first = core.query(req).map_err(fail)?;
    let second = core.query(req).map_err(fail)?;
    if !second.cache_hit {
        return Err(format!("gate: {req:?}: repeated query missed the cache"));
    }
    for answer in [&first, &second] {
        if bits(answer) != bits(&reference) {
            return Err(format!(
                "gate: {req:?}: cached {answer:?} != uncached {reference:?}"
            ));
        }
        if answer.serving != ServingState::Healthy || answer.snapshot_age_ticks != 0 {
            return Err(format!("gate: {req:?}: not healthy and fresh: {answer:?}"));
        }
    }
    Ok(())
}

/// The numeric fields of an answer, bit for bit.
pub fn bits(r: &PredictResponse) -> [u64; 4] {
    [r.mean, r.lo, r.hi, r.point].map(f64::to_bits)
}

/// Checks one timed answer: status 200, served `Healthy` from a snapshot
/// at most `max_age` ticks old, and, when `fresh` is given, from the
/// snapshot whose `"epoch":…,"captured_at":…` prefix it names.
pub fn answer(status: u16, body: &str, fresh: Option<&str>, max_age: u64) -> Result<(), String> {
    let healthy = body.contains("\"serving\":\"Healthy\"")
        && (0..=max_age).any(|age| body.ends_with(&format!("\"snapshot_age_ticks\":{age}}}")));
    if status != 200 || !healthy || fresh.is_some_and(|f| !body.contains(f)) {
        return Err(format!(
            "wrong answer: {status} {body} (expected {fresh:?})"
        ));
    }
    Ok(())
}

/// The `"epoch":…,"captured_at":…` prefix of an answer served from the
/// snapshot of `epoch`, captured at simulated time `captured_at`.
pub fn fresh_marker(epoch: u64, captured_at: f64) -> String {
    format!(
        "\"epoch\":{epoch},\"captured_at\":{},",
        serde_json::to_string(&captured_at).unwrap_or_default()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodpred_service::ServiceConfig;

    fn small_core() -> ServiceCore {
        ServiceCore::new(ServiceConfig {
            seed: 5,
            horizon: 2000.0,
            warmup: 300.0,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn gate_passes_and_every_cold_request_validates() {
        let core = small_core();
        run(&core, 5).unwrap();
        for i in 0..2000 {
            let req = parse_target(&cold_path(5, i)).unwrap();
            core.query_uncached(&req).unwrap();
        }
    }

    #[test]
    fn answers_name_their_snapshot() {
        let core = small_core();
        let r = http::handle(&core, &request_path(1, 0));
        answer(r.status, &r.body, Some(&fresh_marker(1, 300.0)), 0).unwrap();
        assert!(answer(r.status, &r.body, Some(&fresh_marker(2, 305.0)), 0).is_err());
    }
}
