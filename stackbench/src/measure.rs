//! Quantiles, the background sampler, and the visibility curves.

use crate::trace::Tracer;
use ac_engine::{CheckpointerStats, Store, StoreReader};
use ac_net::ReplicaNode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The `q`-quantile (linear interpolation) of `xs`; 0 when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(&mut xs.to_vec(), 0.5)
}

/// CPU time the calling thread has run so far, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`). A call timed with it leaves out the time
/// the thread spent preempted.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit
    // `time_t` and `long` on the 64-bit Linux targets this builds for).
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Resets this process's peak resident set to its current one, so that
/// the next [`peak_rss_mib`] reports the peak since this call.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, in MiB (`VmHWM`), since it started
/// or since the last [`reset_peak_rss`].
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Delay from each send until the visible total first covers it: the
/// horizontal distance between the cumulative sent curve (all writers'
/// `(time, events)` sends, merged in time order) and the cumulative
/// visible curve. With one writer this is exactly each batch's delay;
/// with several it is the delay of each event level in arrival order.
/// Returns the delays in nanoseconds and how many sends never became
/// visible.
pub fn visibility_delays(sends: &mut [(u64, u64)], visible: &[(u64, u64)]) -> (Vec<f64>, u64) {
    sends.sort_unstable();
    let mut delays = Vec::with_capacity(sends.len());
    let mut cum = 0u64;
    let mut v = 0usize;
    let mut never = 0u64;
    for &(t, events) in sends.iter() {
        cum += events;
        while v < visible.len() && visible[v].1 < cum {
            v += 1;
        }
        match visible.get(v) {
            Some(&(tv, _)) => delays.push(tv.saturating_sub(t) as f64),
            None => never += 1,
        }
    }
    (delays, never)
}

/// Shared controls between a round's main thread and its sampler.
#[derive(Debug)]
pub struct SamplerCtl {
    stop: AtomicBool,
    target: AtomicU64,
    full_at: AtomicU64,
}

impl SamplerCtl {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            stop: AtomicBool::new(false),
            target: AtomicU64::new(u64::MAX),
            full_at: AtomicU64::new(u64::MAX),
        })
    }

    /// Tells the sampler the total to watch for.
    pub fn set_target(&self, total: u64) {
        self.target.store(total, Ordering::SeqCst);
    }

    /// Waits until the sampler saw the target total; returns when it
    /// did (ns since the round epoch), or `None` on timeout.
    pub fn wait_full(&self, timeout: Duration) -> Option<u64> {
        let deadline = Instant::now() + timeout;
        loop {
            let at = self.full_at.load(Ordering::SeqCst);
            if at != u64::MAX {
                return Some(at);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// What the sampler polls: a reader over the store that takes the
/// writes, plus (when the benchmark holds the `Store` itself) its live
/// stats, plus (on the replicated workload) the replica.
pub struct Source {
    pub reader: StoreReader,
    pub store: Option<Arc<Mutex<Option<Store>>>>,
    pub replica: Option<Arc<ReplicaNode>>,
}

/// Everything the sampler saw in one round.
#[derive(Debug, Default)]
pub struct Samples {
    /// `(ns, total)` each time the visible total changed.
    pub visible: Vec<(u64, u64)>,
    /// Distinct snapshot epochs observed, and the ns span they cover.
    pub publishes: u64,
    pub publish_window_ns: u64,
    pub backlog: Vec<f64>,
    pub queue_depth: Vec<f64>,
    pub freeze_ns: Vec<f64>,
    pub dirty_shards: Vec<f64>,
    pub ckpt_lag: Vec<f64>,
    pub compact_ns: Vec<f64>,
    pub ckpt_last: Option<CheckpointerStats>,
    pub fold_at_ns: Vec<u64>,
}

const TICK: Duration = Duration::from_millis(1);
const DRAIN_TICK: Duration = Duration::from_micros(100);

/// Polls `src` every millisecond (every 100 µs once a target total is
/// set) until stopped.
pub fn sample(mut src: Source, ctl: &SamplerCtl, tr: &mut Tracer) -> Samples {
    let mut out = Samples::default();
    let mut last_total = u64::MAX;
    let mut last_epoch = u64::MAX;
    let mut first_epoch_at = 0u64;
    let mut compactions = 0u64;
    let mut folds = 0u64;
    while !ctl.stop.load(Ordering::SeqCst) {
        tr.time("snapshot.refresh", || src.reader.refresh());
        let now = tr.now();
        let total = src.reader.total_events();
        if total != last_total {
            out.visible.push((now, total));
            last_total = total;
        }
        let epoch = src.reader.epoch();
        if epoch != last_epoch {
            if last_epoch == u64::MAX {
                first_epoch_at = now;
            } else {
                out.publishes += 1;
                out.publish_window_ns = now - first_epoch_at;
            }
            last_epoch = epoch;
        }
        let target = ctl.target.load(Ordering::SeqCst);
        if total >= target && ctl.full_at.load(Ordering::SeqCst) == u64::MAX {
            ctl.full_at.store(now, Ordering::SeqCst);
        }
        if let Some(slot) = &src.store {
            let (stats, _) = tr.time("store.stats", || {
                slot.lock().expect("store slot").as_ref().map(Store::stats)
            });
            if let Some(stats) = stats {
                let ingest = &stats.ingest;
                out.backlog
                    .push(ingest.enqueued_events.saturating_sub(ingest.applied_events) as f64);
                out.queue_depth.push(ingest.queue_depth as f64);
                out.freeze_ns.push(stats.engine.last_freeze_ns as f64);
                out.dirty_shards.push(stats.engine.dirty_shards as f64);
                if let Some(ck) = stats.checkpointer {
                    out.ckpt_lag.push(stats.engine.checkpoint_lag_events as f64);
                    if ck.compactions > compactions {
                        out.compact_ns.push(ck.last_compact_ns as f64);
                        compactions = ck.compactions;
                    }
                    out.ckpt_last = Some(ck);
                }
            }
        }
        if let Some(replica) = &src.replica {
            let f = replica.folds();
            if f > folds {
                out.fold_at_ns.push(now);
                folds = f;
            }
        }
        std::thread::sleep(if target == u64::MAX { TICK } else { DRAIN_TICK });
    }
    out
}
