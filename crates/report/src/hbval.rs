//! The §5.2 methodology validation:
//!
//! 1. clock skews (≤ 20 µs injected) are orders of magnitude smaller than
//!    the gaps between synchronized conflicting operations (10s of ms);
//! 2. after barrier adjustment, the timestamp order of every conflicting
//!    pair matches the happens-before order imposed by MPI communication
//!    (validated for FLASH, the one application with cross-process
//!    conflicts).

use std::fmt::Write as _;

use crate::runner::AnalyzedRun;

/// Minimum time gap between the two operations of each conflicting pair.
pub fn min_conflict_gap_ns(run: &AnalyzedRun) -> Option<u64> {
    run.session
        .pairs
        .iter()
        .filter(|p| p.first.rank != p.second.rank)
        .map(|p| p.second.t_start.saturating_sub(p.first.t_start))
        .min()
}

/// Rendered validation report for one analyzed run.
pub fn validate(run: &AnalyzedRun) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "§5.2 validation for {}", run.name());
    let spread = run.skew_spread_ns;
    let _ = writeln!(
        out,
        "  injected clock-skew spread: {:.1} µs",
        spread as f64 / 1000.0
    );
    match min_conflict_gap_ns(run) {
        Some(gap) => {
            let _ = writeln!(
                out,
                "  smallest gap between cross-process conflicting ops: {:.3} ms",
                gap as f64 / 1.0e6
            );
            let _ = writeln!(
                out,
                "  skew / gap ratio: {:.4} (≪ 1 ⇒ timestamp order is trustworthy)",
                spread as f64 / gap as f64
            );
        }
        None => {
            let _ = writeln!(
                out,
                "  no cross-process conflicting operations in this trace"
            );
        }
    }
    let _ = writeln!(
        out,
        "  happens-before check: {} synchronized, {} same-process, {} racy",
        run.hb.synchronized, run.hb.same_process, run.hb.racy
    );
    let _ = writeln!(
        out,
        "  → {}",
        if run.hb.racy == 0 {
            "every conflicting pair is ordered by program synchronization (race-free)"
        } else {
            "RACY PAIRS FOUND — timestamp ordering would be unsound"
        }
    );
    out
}
