//! Seeded request streams. Request `i` of a stream is a pure function of
//! `(seed, i)`, so the same seed replays the same bytes.

use prodpred_service::replay::request_path;

/// Which key space a workload draws its `/predict` targets from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keys {
    /// The service's own 192-configuration replay stream: keys repeat
    /// within an epoch, so most queries hit the prediction cache.
    Hot,
    /// A wide key space (about 114 million configurations): nearly
    /// every query misses and runs the structural model.
    Cold,
}

/// The `/predict` target of request `index` in stream `keys`.
pub fn target(keys: Keys, seed: u64, index: u64) -> String {
    match keys {
        Keys::Hot => request_path(seed, index),
        Keys::Cold => cold_path(seed, index),
    }
}

/// Grid sizes of the cold stream: `n` in `[64, 8000]`.
const COLD_N: (u64, u64) = (64, 8000);
/// Iteration counts of the cold stream: `[1, 200]`.
const COLD_ITERS: u64 = 200;
/// Processor counts of the cold stream: `[1, 4]` (each testbed has four
/// machines; more processors are answered with 400).
const COLD_PROCS: u64 = 4;
const SOURCES: [&str; 3] = ["inst", "horizon", "modal"];
const MAX_STRATEGIES: [&str; 3] = ["mean", "upper", "clark"];

/// Request `index` of the cold stream seeded by `seed`.
pub fn cold_path(seed: u64, index: u64) -> String {
    let mut state = seed ^ mix(index.wrapping_add(0x9E37_79B9_7F4A_7C15));
    let mut draw = |k: u64| {
        state = mix(state);
        state % k
    };
    let platform = 1 + draw(2);
    let n = COLD_N.0 + draw(COLD_N.1 - COLD_N.0 + 1);
    let procs = 1 + draw(COLD_PROCS);
    let iters = 1 + draw(COLD_ITERS);
    let source = SOURCES[draw(3) as usize];
    let staleness = draw(2);
    let max = MAX_STRATEGIES[draw(3) as usize];
    format!(
        "/predict?platform={platform}&n={n}&procs={procs}&iters={iters}\
         &source={source}&staleness={staleness}&max={max}"
    )
}

/// The splitmix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn streams_are_deterministic_in_the_seed() {
        for keys in [Keys::Hot, Keys::Cold] {
            let a: Vec<String> = (0..500).map(|i| target(keys, 11, i)).collect();
            let b: Vec<String> = (0..500).map(|i| target(keys, 11, i)).collect();
            let c: Vec<String> = (0..500).map(|i| target(keys, 12, i)).collect();
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }

    #[test]
    fn cold_keys_rarely_repeat() {
        let keys: HashSet<String> = (0..20_000).map(|i| cold_path(3, i)).collect();
        assert!(keys.len() > 19_900, "{} distinct of 20000", keys.len());
    }
}
