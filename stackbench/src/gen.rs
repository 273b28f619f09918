//! Seeded inputs and the correctness oracle.
//!
//! Every key stream is drawn before any timed region into a [`Pool`]:
//! the keys the program sees plus, in parallel, each key's dense index
//! so the oracle can keep exact per-key counts in a flat vector. A
//! writer cycles through its pool for as long as its round lasts, so
//! the exact count of every key follows from how many events the writer
//! recorded ([`Oracle::add_prefix`]).

use ac_randkit::{mix64, RandomSource, Xoshiro256PlusPlus};
use ac_sim::ZipfKeys;
use ac_stats::wilson_interval;

/// The key distribution of one workload, with the bijection from dense
/// index to the opaque key id the store sees.
#[derive(Debug, Clone)]
pub enum Keys {
    /// Zipf(`s`) popularity over `ZipfKeys::keys()` ranks.
    Zipf(ZipfKeys),
    /// Uniform over `keyspace` indices, scattered with `salt`.
    Uniform { keyspace: u64, salt: u64 },
}

impl Keys {
    pub fn zipf(keys: u64, s: f64, salt: u64) -> Self {
        Keys::Zipf(ZipfKeys::new(keys, s, salt).expect("valid Zipf parameters"))
    }

    pub fn keyspace(&self) -> u64 {
        match self {
            Keys::Zipf(z) => z.keys(),
            Keys::Uniform { keyspace, .. } => *keyspace,
        }
    }

    /// The key id of dense index `idx` (0-based).
    pub fn key_of(&self, idx: u32) -> u64 {
        match self {
            Keys::Zipf(z) => z.key_of_rank(u64::from(idx) + 1),
            Keys::Uniform { salt, .. } => mix64(salt ^ (u64::from(idx) + 1)),
        }
    }

    fn sample_idx(&self, rng: &mut Xoshiro256PlusPlus) -> u32 {
        let idx = match self {
            Keys::Zipf(z) => z.sample_rank(rng) - 1,
            Keys::Uniform { keyspace, .. } => rng.next_u64() % keyspace,
        };
        u32::try_from(idx).expect("keyspace fits u32")
    }

    /// Draws a pool of `len` events.
    pub fn pool(&self, len: usize, seed: u64) -> Pool {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let idx: Vec<u32> = (0..len).map(|_| self.sample_idx(&mut rng)).collect();
        let keys = idx.iter().map(|&i| self.key_of(i)).collect();
        Pool { keys, idx }
    }
}

/// One writer's pre-drawn event stream.
#[derive(Debug)]
pub struct Pool {
    pub keys: Vec<u64>,
    pub idx: Vec<u32>,
}

impl Pool {
    /// Up to `take` distinct keys from the first `events` events, in a
    /// seeded random order.
    pub fn distinct_head(&self, events: usize, take: usize, seed: u64) -> Vec<u64> {
        let mut seen = std::collections::HashSet::new();
        let mut keys: Vec<u64> = self.keys[..events.min(self.keys.len())]
            .iter()
            .copied()
            .filter(|&k| seen.insert(k))
            .collect();
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        for i in (1..keys.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            keys.swap(i, j);
        }
        keys.truncate(take);
        keys
    }

    /// An order-sensitive digest of the keys, printed with every run so
    /// two runs can be shown to have seen identical input.
    pub fn digest(&self) -> u64 {
        self.keys
            .iter()
            .fold(0x5eed_u64, |h, &k| mix64(h.rotate_left(5) ^ k))
    }
}

/// Exact per-key counts of what the writers generated.
#[derive(Debug)]
pub struct Oracle {
    counts: Vec<u64>,
    total: u64,
}

impl Oracle {
    pub fn new(keyspace: u64) -> Self {
        Self {
            counts: vec![0; usize::try_from(keyspace).expect("keyspace fits usize")],
            total: 0,
        }
    }

    /// Adds the first `events` events of cycling through `pool`.
    pub fn add_prefix(&mut self, pool: &Pool, events: u64) {
        let len = pool.idx.len() as u64;
        let full = events / len;
        if full > 0 {
            for &i in &pool.idx {
                self.counts[i as usize] += full;
            }
        }
        let rest = usize::try_from(events % len).expect("pool index fits usize");
        for &i in &pool.idx[..rest] {
            self.counts[i as usize] += 1;
        }
        self.total += events;
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    /// Indices of every key with a non-zero count.
    pub fn touched(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
    }

    pub fn keys(&self) -> u64 {
        self.touched().count() as u64
    }

    /// Compares every touched key's estimate with its exact count.
    pub fn audit(&self, keys: &Keys, eps: f64, estimate: impl Fn(u64) -> Option<f64>) -> Audit {
        let mut rel = Vec::new();
        let mut out_of_band = 0u64;
        for (idx, exact) in self.touched() {
            let err = match estimate(keys.key_of(idx)) {
                Some(est) => (est - exact as f64).abs() / exact as f64,
                None => f64::INFINITY,
            };
            if err > eps {
                out_of_band += 1;
            }
            rel.push(err.min(1e9));
        }
        let audited = rel.len() as u64;
        let p99 = crate::measure::quantile(&mut rel, 0.99);
        let wilson_hi = if audited == 0 {
            1.0
        } else {
            wilson_interval(out_of_band, audited, 0.95).1
        };
        Audit {
            audited,
            out_of_band,
            rel_error_p99: p99,
            wilson_hi,
        }
    }
}

/// The per-key accuracy audit of one round.
#[derive(Debug, Clone, Copy)]
pub struct Audit {
    pub audited: u64,
    pub out_of_band: u64,
    pub rel_error_p99: f64,
    /// 95% Wilson upper bound on the out-of-band probability.
    pub wilson_hi: f64,
}
