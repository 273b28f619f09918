//! Aggregates the rounds into metrics and prints them: one text line
//! per metric (name, value, unit), the per-layer self-time table and the
//! attribution ratios in traced runs, then the JSON result line.

use crate::measure::{median, quantile};
use crate::workloads::{Checks, Rec, Workload};
use crate::{Args, Kind};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Medians and pooled quantiles over the rounds of one kind.
struct Agg<'a> {
    recs: Vec<&'a Rec>,
}

impl<'a> Agg<'a> {
    fn all(rounds: &'a [(Kind, Rec)]) -> Self {
        Self {
            recs: rounds.iter().map(|(_, r)| r).collect(),
        }
    }

    fn of(rounds: &'a [(Kind, Rec)], kind: Kind) -> Self {
        Self {
            recs: rounds
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, r)| r)
                .collect(),
        }
    }

    fn scalar(&self, name: &str) -> Option<f64> {
        let v: Vec<f64> = self
            .recs
            .iter()
            .filter_map(|r| r.scalars.get(name).copied())
            .collect();
        (!v.is_empty()).then(|| median(&v))
    }

    fn pooled(&self, name: &str) -> Vec<f64> {
        self.recs
            .iter()
            .filter_map(|r| r.samples.get(name))
            .flatten()
            .copied()
            .collect()
    }

    /// The `p`-quantile of each round's samples.
    fn per_round_q(&self, name: &str, p: f64) -> Vec<f64> {
        self.recs
            .iter()
            .filter_map(|r| r.samples.get(name).filter(|s| !s.is_empty()))
            .map(|s| quantile(&mut s.clone(), p))
            .collect()
    }

    /// The `p`-quantile of each round's samples, then the median over
    /// rounds.
    fn round_q(&self, name: &str, p: f64) -> Option<f64> {
        let v = self.per_round_q(name, p);
        (!v.is_empty()).then(|| median(&v))
    }

    /// The `p`-quantile of each round's samples, then the mean over
    /// rounds. For memory-bound calls: the host alternates, every few
    /// seconds, between phases in which they run about 1.5× apart, so a
    /// median over rounds jumps between the two phases' values while a
    /// mean moves with the share of rounds in each.
    fn round_mean_q(&self, name: &str, p: f64) -> Option<f64> {
        let v = self.per_round_q(name, p);
        (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    }

    fn q(&self, name: &str, p: f64) -> Option<f64> {
        let mut v = self.pooled(name);
        (!v.is_empty()).then(|| quantile(&mut v, p))
    }

    fn mean(&self, name: &str) -> Option<f64> {
        let v = self.pooled(name);
        (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    }

    fn max(&self, name: &str) -> Option<f64> {
        self.pooled(name).into_iter().reduce(f64::max)
    }

    /// Durations of spans named any of `names`, pooled.
    fn span_q(&self, names: &[&str], p: f64) -> Option<f64> {
        let mut v: Vec<f64> = self
            .recs
            .iter()
            .flat_map(|r| names.iter().flat_map(|n| r.trace.durations(n)))
            .collect();
        (!v.is_empty()).then(|| quantile(&mut v, p))
    }

    /// Per round: total ns in spans named `names` over the round's wall
    /// time; median over rounds.
    fn span_share(&self, names: &[&str]) -> Option<f64> {
        let v: Vec<f64> = self
            .recs
            .iter()
            .filter(|r| r.wall_ns() > 0)
            .map(|r| {
                let ns: u64 = names.iter().map(|n| r.trace.window_ns(n, r.window)).sum();
                ns as f64 / r.wall_ns() as f64
            })
            .collect();
        (!v.is_empty()).then(|| median(&v))
    }

    /// Per round: sum of the pooled samples `name` (ms) over the
    /// round's wall time; median over rounds.
    fn ms_share(&self, name: &str) -> Option<f64> {
        let v: Vec<f64> = self
            .recs
            .iter()
            .filter(|r| r.wall_ns() > 0)
            .map(|r| {
                r.samples.get(name).map_or(0.0, |s| s.iter().sum::<f64>()) * 1e6
                    / r.wall_ns() as f64
            })
            .collect();
        (!v.is_empty()).then(|| median(&v))
    }
}

/// The layers of the self-time table, in stack order.
const LAYERS: [&str; 8] = [
    "gen",
    "ingest",
    "snapshot",
    "store",
    "checkpointer",
    "client",
    "server",
    "replica",
];

#[derive(Debug)]
pub struct Report {
    workload: Workload,
    /// The end-to-end metrics (JSON of untraced runs), then those that
    /// only some workloads have (text only).
    e2e: Vec<Metric>,
    e2e_extra: Vec<Metric>,
    /// The per-layer metrics (JSON of traced runs), then the
    /// workload-specific ones (text only).
    layers: Vec<Metric>,
    layers_extra: Vec<Metric>,
    /// `(layer, self ms, share of wall)` over the traced rounds.
    self_table: Vec<(&'static str, f64, f64)>,
    attribution: Vec<String>,
    correct: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

fn m(name: &str, value: Option<f64>, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: value.filter(|v| v.is_finite()).unwrap_or(0.0),
        unit,
    }
}

impl Report {
    pub fn new(
        args: &Args,
        rounds: &[(Kind, Rec)],
        checks: &Checks,
        registry: Option<f64>,
    ) -> Self {
        let w = args.workload;
        let u = Agg::of(rounds, Kind::Untraced);
        let t = Agg::of(rounds, Kind::Traced);
        let b = Agg::of(rounds, Kind::Baseline);
        let net = w == Workload::ZipfNet;
        // Point reads run on the final snapshot (under concurrent writes
        // on uniform-read-write); the merged estimate is an RPC on
        // zipf-net. Replica reads and RPC latencies are printed below.
        let read_name = "snapshot.estimate_ns";
        let merge_name = if net {
            "server.rpc_merged_estimate_us"
        } else {
            "snapshot.merged_estimate_us"
        };
        let e2e = vec![
            m("setup_s", u.q("setup_s", 0.5), "s"),
            m("ingest_events_per_s", u.scalar("ingest_eps"), "events/s"),
            m("visible_p50_ms", u.round_q("visible_ms", 0.5), "ms"),
            m("visible_p99_ms", u.round_q("visible_ms", 0.99), "ms"),
            m("read_p50_ns", u.round_mean_q(read_name, 0.5), "ns"),
            m("read_p99_ns", u.round_mean_q(read_name, 0.99), "ns"),
            m("merge_p50_us", u.round_mean_q(merge_name, 0.5), "us"),
            m("catchup_ms", u.scalar("catchup_ms"), "ms"),
            m("bits_per_key", u.scalar("bits_per_key"), "bits"),
            m("peak_rss_mb", u.scalar("peak_rss_mb"), "MiB"),
        ];
        // Printed, not gated: on an in-memory store close is a ~1 ms
        // thread shutdown, and a durable close waits for any compaction
        // still in flight.
        let mut e2e_extra = vec![m("close_s", u.scalar("close_s"), "s")];
        if w == Workload::ZipfDurable {
            e2e_extra.push(m("recover_s", u.scalar("recover_s"), "s"));
            e2e_extra.push(m(
                "disk_bytes_per_key",
                u.scalar("disk_bytes_per_key"),
                "bytes",
            ));
        }
        if net {
            e2e_extra.push(m("replica_lag_ms", u.scalar("replica_lag_ms"), "ms"));
            e2e_extra.push(m("rpc_p50_us", u.q("server.rpc_estimate_us", 0.5), "us"));
            e2e_extra.push(m(
                "replica_read_p50_ns",
                u.q("replica.estimate_ns", 0.5),
                "ns",
            ));
        }
        // Every merged estimate of the run is one trial of the (1±ε) band.
        let merge_miss = Agg::all(rounds).mean("core.merge_miss");
        e2e_extra.push(m("merge_out_of_band_frac", merge_miss, "ratio"));
        e2e_extra.push(m(
            "failed_frac",
            Some(checks.failed as f64 / checks.attempted.max(1) as f64),
            "ratio",
        ));

        let (record, send) = if net {
            ("client.record", "client.send")
        } else {
            ("ingest.record", "ingest.send")
        };
        let record_ns = {
            let v: Vec<f64> = t
                .recs
                .iter()
                .filter_map(|r| {
                    let recorded = r.scalars.get("events").copied()?;
                    Some(r.trace.total_ns(record) as f64 / recorded)
                })
                .collect();
            (!v.is_empty()).then(|| median(&v))
        };
        let overhead = match (u.scalar("ingest_eps"), t.scalar("ingest_eps")) {
            (Some(un), Some(tr)) => Some(1.0 - tr / un),
            _ => None,
        };
        let self_table = self_table(&t);
        let share = |layer: &str| self_table.iter().find(|r| r.0 == layer).map(|r| r.2);
        let count = |name: &str| Some(t.scalar(name).unwrap_or(0.0));
        let mut layers = vec![
            m("ingest.record_ns", record_ns, "ns"),
            m("ingest.send_ns_p50", t.span_q(&[send], 0.5), "ns"),
            m("ingest.send_ns_p99", t.span_q(&[send], 0.99), "ns"),
            m(
                "ingest.events_per_batch",
                t.scalar("ingest.events_per_batch"),
                "events",
            ),
            m(
                "applier.backlog_events_p50",
                t.q("applier.backlog_events", 0.5),
                "events",
            ),
            m(
                "applier.backlog_events_p99",
                t.q("applier.backlog_events", 0.99),
                "events",
            ),
            m(
                "applier.drain_tail_ms",
                t.scalar("applier.drain_tail_ms"),
                "ms",
            ),
            m("registry.apply_events_per_s", registry, "events/s"),
            m(
                "shard.max_keys_ratio",
                t.scalar("shard.max_keys_ratio"),
                "ratio",
            ),
            m(
                "snapshot.refresh_ns_p50",
                t.span_q(&["snapshot.refresh"], 0.5),
                "ns",
            ),
            m(
                "snapshot.refresh_ns_p99",
                t.span_q(&["snapshot.refresh"], 0.99),
                "ns",
            ),
            m(
                "snapshot.publishes_per_s",
                t.scalar("snapshot.publishes_per_s"),
                "1/s",
            ),
            m(
                "snapshot.estimate_ns_p50",
                t.q("snapshot.estimate_ns", 0.5),
                "ns",
            ),
            m(
                "snapshot.estimate_ns_p99",
                t.q("snapshot.estimate_ns", 0.99),
                "ns",
            ),
            m(
                "snapshot.merged_estimate_us_p50",
                t.q("snapshot.merged_estimate_us", 0.5),
                "us",
            ),
            m(
                "core.state_bits_total",
                t.scalar("core.state_bits_total"),
                "bits",
            ),
            m(
                "core.audit_out_of_band_frac",
                t.scalar("core.audit_out_of_band_frac"),
                "ratio",
            ),
            m(
                "core.audit_rel_error_p99",
                t.scalar("core.audit_rel_error_p99"),
                "ratio",
            ),
            m("core.merge_out_of_band_frac", merge_miss, "ratio"),
            m("trace.overhead_frac", overhead, "ratio"),
        ];
        for layer in LAYERS {
            layers.push(m(
                &format!("{layer}.share"),
                Some(share(layer).unwrap_or(0.0)),
                "ratio",
            ));
        }
        for (name, unit) in [
            ("checkpointer.frames", "count"),
            ("checkpointer.delta_frames", "count"),
            ("checkpointer.bytes_written", "bytes"),
            ("checkpointer.compactions", "count"),
            ("checkpointer.pruned_files", "count"),
            ("store.open_frames_used", "count"),
            ("store.open_frames_skipped", "count"),
            ("replica.folds", "count"),
        ] {
            layers.push(m(name, count(name), unit));
        }

        // Layer metrics that exist on some workloads only.
        let mut layers_extra = Vec::new();
        let mut opt = |name: &str, v: Option<f64>, unit: &'static str| {
            if let Some(v) = v {
                layers_extra.push(m(name, Some(v), unit));
            }
        };
        if !net {
            opt(
                "ingest.queue_depth_p99",
                t.q("ingest.queue_depth", 0.99),
                "batches",
            );
            opt(
                "ingest.dropped_events",
                t.scalar("ingest.dropped_events"),
                "events",
            );
            opt(
                "snapshot.freeze_ns_p50",
                t.q("snapshot.freeze_ns", 0.5),
                "ns",
            );
            opt(
                "snapshot.dirty_shards_p50",
                t.q("snapshot.dirty_shards", 0.5),
                "shards",
            );
        }
        opt(
            "checkpointer.write_ms_p50",
            t.q("checkpointer.write_ms", 0.5),
            "ms",
        );
        opt(
            "checkpointer.write_ms_max",
            t.max("checkpointer.write_ms"),
            "ms",
        );
        opt(
            "checkpointer.lag_events_p99",
            t.q("checkpointer.lag_events", 0.99),
            "events",
        );
        opt(
            "checkpointer.compact_ms_p50",
            t.q("checkpointer.compact_ms", 0.5),
            "ms",
        );
        if net {
            opt("client.record_ns", record_ns, "ns");
            opt(
                "client.flush_ms_p99",
                t.span_q(&["client.flush"], 0.99).map(|v| v / 1e6),
                "ms",
            );
            opt(
                "client.close_ms",
                t.span_q(&["client.close"], 0.5).map(|v| v / 1e6),
                "ms",
            );
            opt(
                "server.rpc_estimate_us_p99",
                t.q("server.rpc_estimate_us", 0.99),
                "us",
            );
            opt(
                "server.rpc_merged_estimate_us_p50",
                t.q("server.rpc_merged_estimate_us", 0.5),
                "us",
            );
            opt(
                "server.rpc_stats_us_p50",
                t.q("server.rpc_stats_us", 0.5),
                "us",
            );
            opt(
                "replica.fold_interval_ms_p50",
                t.q("replica.fold_interval_ms", 0.5),
                "ms",
            );
            opt(
                "replica.estimate_ns_p50",
                t.q("replica.estimate_ns", 0.5),
                "ns",
            );
        }
        opt("gen.late_ms_p99", t.q("gen.late_ms", 0.99), "ms");

        let attribution = if args.trace {
            attribution(w, &u, &t, &b, registry)
        } else {
            Vec::new()
        };
        Self {
            workload: w,
            e2e,
            e2e_extra,
            layers,
            layers_extra,
            self_table,
            attribution,
            correct: checks.failed == 0,
            attempted: checks.attempted.max(1),
            failed: checks.failed,
            failures: checks.failures.clone(),
        }
    }

    pub fn print_text(&self, args: &Args) {
        let w = self.workload.name();
        let (main, extra) = if args.trace {
            (&self.layers, &self.layers_extra)
        } else {
            (&self.e2e, &self.e2e_extra)
        };
        for x in main.iter().chain(extra) {
            println!("metric {w} {} = {} {}", x.name, x.value, x.unit);
        }
        if args.trace {
            println!("layer self time over the traced rounds (share of ingest wall time):");
            for (layer, ms, share) in &self.self_table {
                println!("  layer {layer:<13} self_ms={ms:>10.3} share={share:.4}");
            }
            for line in &self.attribution {
                println!("attribution {line}");
            }
        }
        for f in &self.failures {
            println!("check failed: {f}");
        }
        println!(
            "oracle: {} ({} failed of {} attempted)",
            if self.correct { "pass" } else { "FAIL" },
            self.failed,
            self.attempted
        );
    }

    pub fn print_json(&self, trace: bool) {
        let metrics = if trace { &self.layers } else { &self.e2e };
        let body: Vec<String> = metrics
            .iter()
            .map(|x| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    x.name, x.value, x.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

/// Self time per layer over the traced rounds. The checkpointer has no
/// benchmark-side spans (it runs on the store's own threads); its time
/// is the frame write and compaction durations the store reports.
fn self_table(t: &Agg<'_>) -> Vec<(&'static str, f64, f64)> {
    let mut self_ns: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut wall = 0.0;
    for r in &t.recs {
        for (layer, ns) in r.trace.self_ns_by_layer(r.window) {
            *self_ns.entry(layer).or_default() += ns as f64;
        }
        let ck_ms: f64 = ["checkpointer.write_ms", "checkpointer.compact_ms"]
            .iter()
            .filter_map(|n| r.samples.get(n))
            .flatten()
            .sum();
        *self_ns.entry("checkpointer").or_default() += ck_ms * 1e6;
        wall += r.wall_ns() as f64;
    }
    LAYERS
        .iter()
        .map(|&l| {
            let ns = self_ns.get(l).copied().unwrap_or(0.0);
            (l, ns / 1e6, if wall > 0.0 { ns / wall } else { 0.0 })
        })
        .collect()
}

/// The three ROADMAP ratios, each printed with its base.
fn attribution(
    w: Workload,
    u: &Agg<'_>,
    t: &Agg<'_>,
    b: &Agg<'_>,
    registry: Option<f64>,
) -> Vec<String> {
    let mut out = Vec::new();
    let eps = u.scalar("ingest_eps").unwrap_or(0.0);
    let zipf_mem = if w == Workload::ZipfMem {
        Some(eps)
    } else {
        b.scalar("ingest_eps")
    };
    let registry = registry.unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    match w {
        Workload::ZipfMem | Workload::UniformReadWrite => out.push(format!(
            "store_over_registry = {:.4} ({} ingest_events_per_s {eps:.0} / \
             registry.apply_events_per_s {registry:.0} on the same pairs)",
            ratio(eps, registry),
            w.name()
        )),
        Workload::ZipfDurable => {
            let base = zipf_mem.unwrap_or(0.0);
            out.push(format!(
                "durable_over_mem = {:.4} (zipf-durable ingest_events_per_s {eps:.0} / \
                 zipf-mem {base:.0}, same input); checkpointer write share of wall {:.4}, \
                 compactor share {:.4}",
                ratio(eps, base),
                u.ms_share("checkpointer.write_ms").unwrap_or(0.0),
                u.ms_share("checkpointer.compact_ms").unwrap_or(0.0),
            ));
        }
        Workload::ZipfNet => {
            let base = zipf_mem.unwrap_or(0.0);
            let tail = t
                .recs
                .iter()
                .filter(|r| r.wall_ns() > 0)
                .filter_map(|r| {
                    let tail_ms = r.scalars.get("applier.drain_tail_ms")?;
                    Some(tail_ms * 1e6 / r.wall_ns() as f64)
                })
                .collect::<Vec<_>>();
            out.push(format!(
                "net_over_mem = {:.4} (zipf-net ingest_events_per_s {eps:.0} / zipf-mem {base:.0}, \
                 same input); of the traced wall time: client record {:.4}, client send wait {:.4}, \
                 client flush+close wait {:.4}, server/applier tail after close {:.4}",
                ratio(eps, base),
                t.span_share(&["client.record"]).unwrap_or(0.0),
                t.span_share(&["client.send"]).unwrap_or(0.0),
                t.span_share(&["client.flush", "client.close"]).unwrap_or(0.0),
                if tail.is_empty() { 0.0 } else { median(&tail) },
            ));
        }
    }
    if w != Workload::ZipfMem {
        if let Some(base) = zipf_mem.filter(|_| w != Workload::UniformReadWrite) {
            out.push(format!(
                "store_over_registry = {:.4} (zipf-mem ingest_events_per_s {base:.0} / \
                 registry.apply_events_per_s {registry:.0} on the same pairs)",
                ratio(base, registry)
            ));
        }
    }
    out
}

/// Writes every traced round's spans as TSV.
pub fn write_spans(path: &Path, rounds: &[(Kind, Rec)]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "round\tthread\tindex\tparent\tname\tstart_ns\tend_ns")?;
    for (i, (kind, rec)) in rounds.iter().enumerate() {
        if *kind == Kind::Traced {
            rec.trace.write_tsv(&mut out, i)?;
        }
    }
    out.flush()
}
