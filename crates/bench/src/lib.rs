//! # `ac-bench` — experiment regeneration and microbenchmarks
//!
//! One binary per experiment in `EXPERIMENTS.md` (run with
//! `cargo run --release -p ac-bench --bin <name>`), plus Criterion
//! microbenchmarks (`cargo bench -p ac-bench`).
//!
//! | Binary | Experiment |
//! |--------|------------|
//! | `fig1_error_cdf` | **Figure 1** — error CDFs at a 17-bit budget |
//! | `exp_space_scaling` | E1 — Theorems 1.1/2.3 space scaling |
//! | `exp_morris_plus` | E2 — Theorem 1.2 accuracy/space |
//! | `exp_flajolet_a1` | E3 — `Morris(1)` constant failure probability |
//! | `exp_appendix_a` | E4 — necessity of the Morris+ prefix (exact DP) |
//! | `exp_merge_law` | E5 — Remark 2.4 mergeability |
//! | `exp_lower_bound` | E6 — Theorem 3.1, executable |
//! | `exp_unbiasedness` | E7 — estimator moments vs. closed forms |
//! | `exp_avg_vs_base` | E8 — §1.1 averaging-vs-base ablation |
//! | `exp_many_counters` | E9 — the "many counters" deployment |
//! | `exp_ablations` | E10 — constant `C`, α rounding, promise constant |
//! | `exp_space_tail` | E11 — Theorem 2.3's doubly-exponential tail |
//! | `exp_engine_throughput` | E12 — batched fast-forward speedups |
//! | `exp_tiering` | E14 — per-key accuracy tiers under a global bit budget: ceiling held all run, hot-key error beats every uniform allocation at equal bits |
//!
//! Every binary accepts `--quick` to run a reduced-size version (used by
//! the integration tests) and prints a self-contained report: parameters,
//! a markdown table, an ASCII chart where the paper has a figure, and a
//! `paper vs. measured` verdict line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::io::Write as _;

/// True when `--quick` was passed (reduced trial counts for CI).
#[must_use]
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Picks `full` or `quick` depending on [`quick_mode`].
#[must_use]
pub fn sized(full: usize, quick: usize) -> usize {
    if quick_mode() {
        quick
    } else {
        full
    }
}

/// Prints the standard experiment header.
pub fn header(id: &str, title: &str, paper_claim: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{}", "=".repeat(78));
    let _ = writeln!(out, "{id}: {title}");
    let _ = writeln!(out, "{}", "=".repeat(78));
    let _ = writeln!(out, "paper claim: {paper_claim}");
    let _ = writeln!(out);
}

/// Prints a named section divider.
pub fn section(name: &str) {
    println!("\n--- {name} ---");
}

/// Path passed via `--json <path>`, if any.
///
/// Experiment binaries that support machine-readable output write a
/// [`json::JsonObject`] report here (see [`write_json_report`]).
#[must_use]
pub fn json_path() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if let Some(path) = a.strip_prefix("--json=") {
            return Some(std::path::PathBuf::from(path));
        }
        if a == "--json" {
            // Loud beats silent: a missing value (or a flag mistaken for
            // one) would otherwise drop the CI artifact without a trace.
            let value = args
                .next()
                .unwrap_or_else(|| panic!("--json requires a path argument"));
            assert!(
                !value.starts_with("--"),
                "--json requires a path argument, got flag '{value}'"
            );
            return Some(std::path::PathBuf::from(value));
        }
    }
    None
}

/// Writes `report` to the `--json` path when one was given.
///
/// Creates parent directories as needed; panics on I/O failure so CI
/// cannot silently drop an artifact.
pub fn write_json_report(report: &json::JsonObject) {
    let Some(path) = json_path() else { return };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create --json parent directory");
        }
    }
    std::fs::write(&path, report.encode() + "\n").expect("write --json report");
    println!("\njson report -> {}", path.display());
}

/// Prints the final verdict line in a stable, grep-able format.
pub fn verdict(ok: bool, summary: &str) {
    println!(
        "\nVERDICT: {} — {summary}",
        if ok { "REPRODUCED" } else { "MISMATCH" }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_respects_mode() {
        // Tests run without --quick, so full size is returned.
        assert_eq!(sized(100, 5), 100);
    }
}
