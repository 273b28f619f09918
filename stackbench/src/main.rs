//! The stack benchmark: one seeded workload per invocation, driven
//! through the public `Store` / `ac-net` APIs, every output checked
//! against an exact oracle. See `README.md` next to `Cargo.toml`.
//!
//! ```text
//! stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!            [--work-dir <dir>] [--spans <file>] [--commit <id>]
//!            [--nproc <n>] [--small] [--inject-drop]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! report the end-to-end metrics, traced runs the per-layer ones.

mod gen;
mod measure;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use workloads::{Checks, Inputs, Rec, RoundCtx, Workload};

/// Measured rounds per untraced run; the measured time is split evenly
/// among them. Every run starts with one more, unmeasured, warm-up round
/// of the same length (the first round in a process pays for faulting
/// in fresh heap pages).
const ROUNDS: usize = 20;

#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
    pub spans: Option<PathBuf>,
    pub commit: String,
    pub nproc: String,
    pub small: bool,
    pub inject_drop: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut work_dir = PathBuf::from(".bench_work");
    let mut spans = None;
    let mut commit = "unknown".to_string();
    let mut nproc = "unknown".to_string();
    let mut small = false;
    let mut inject_drop = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => trace = value()? == "1",
            "--work-dir" => work_dir = PathBuf::from(value()?),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--commit" => commit = value()?,
            "--nproc" => nproc = value()?,
            "--small" => small = true,
            "--inject-drop" => inject_drop = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        work_dir,
        spans,
        commit,
        nproc,
        small,
        inject_drop,
    })
}

/// What a round is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// End-to-end measurement, tracing off.
    Untraced,
    /// Per-layer measurement, tracing on.
    Traced,
    /// `zipf-mem` on the same input, the base of an attribution ratio.
    Baseline,
    /// Checked but not measured.
    Warmup,
}

/// Untraced runs measure `ROUNDS` rounds. Traced runs alternate
/// untraced and traced rounds (for the tracing overhead) and, on the
/// durable and net workloads, add `zipf-mem` rounds on the same input.
/// All runs start with a warm-up round.
fn plan(args: &Args) -> Vec<Kind> {
    let mut kinds = vec![Kind::Warmup];
    if !args.trace {
        kinds.extend([Kind::Untraced; ROUNDS]);
        return kinds;
    }
    let base = matches!(args.workload, Workload::ZipfDurable | Workload::ZipfNet);
    for _ in 0..ROUNDS / 2 - 1 {
        kinds.extend([Kind::Untraced, Kind::Traced]);
        if base {
            kinds.push(Kind::Baseline);
        }
    }
    kinds
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            std::process::exit(2);
        }
    };
    let inputs = Inputs::draw(args.workload, args.seed, args.small);
    let available = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "stamp workload={} seed={} seconds={} trace={} nproc={} available_parallelism={} \
         commit={} profile={} input_digest={:#018x}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.nproc,
        available,
        args.commit,
        profile,
        inputs.digest(),
    );

    let work_dir = args
        .work_dir
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("stackbench: cannot create {}: {e}", work_dir.display());
        std::process::exit(1);
    }
    let kinds = plan(&args);
    let round_ns = (args.seconds / ROUNDS as f64 * 1e9) as u64;
    let mut checks = Checks::default();
    let mut rounds: Vec<(Kind, Rec)> = Vec::new();
    for (i, &kind) in kinds.iter().enumerate() {
        let ctx = RoundCtx {
            inp: &inputs,
            traced: kind == Kind::Traced,
            round: i,
            round_ns,
            inject_drop: args.inject_drop,
            work_dir: &work_dir,
        };
        measure::reset_peak_rss();
        let mut rec = match (kind, args.workload) {
            (Kind::Baseline, _) | (_, Workload::ZipfMem) => {
                workloads::store_round(&ctx, &mut checks, false)
            }
            (_, Workload::ZipfDurable) => workloads::store_round(&ctx, &mut checks, true),
            (_, Workload::UniformReadWrite) => workloads::read_write_round(&ctx, &mut checks),
            (_, Workload::ZipfNet) => workloads::net_round(&ctx, &mut checks),
        };
        rec.set("peak_rss_mb", measure::peak_rss_mib());
        let scalars = ["ingest_eps", "close_s", "catchup_ms"]
            .iter()
            .filter_map(|n| rec.scalars.get(n).map(|v| format!("{n}={v:.6}")));
        let p50s = [
            "snapshot.estimate_ns",
            "snapshot.merged_estimate_us",
            "visible_ms",
        ]
        .iter()
        .filter_map(|n| {
            let s = rec.samples.get(n).filter(|s| !s.is_empty())?;
            Some(format!(
                "{n}_p50={:.3}",
                measure::quantile(&mut s.clone(), 0.5)
            ))
        });
        let fields: Vec<String> = scalars.chain(p50s).collect();
        println!("round {i} {kind:?} {}", fields.join(" "));
        rounds.push((kind, rec));
    }
    let _ = std::fs::remove_dir_all(&work_dir);

    let registry_rate = args.trace.then(|| workloads::registry_apply_rate(&inputs));
    let out = report::Report::new(&args, &rounds, &checks, registry_rate);
    out.print_text(&args);
    if let Some(path) = &args.spans {
        if let Err(e) = report::write_spans(path, &rounds) {
            eprintln!("stackbench: cannot write spans to {}: {e}", path.display());
        }
    }
    out.print_json(args.trace);
}
