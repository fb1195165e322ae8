//! Report types: per-backend verdicts, work/throughput stats and the
//! rendered conformance matrix.

use std::time::Duration;

use problp_ac::Semiring;
use problp_num::Flags;

use crate::spec::{semiring_name, ArithSpec, BackendKind};

/// One backend's run within a case.
#[derive(Clone, Debug)]
pub struct BackendRun {
    /// Which backend produced this stream.
    pub backend: BackendKind,
    /// Lanes whose bit pattern diverged from the scalar reference
    /// (always 0 for the reference itself).
    pub mismatched_lanes: usize,
    /// The first diverging lane, if any.
    pub first_mismatch: Option<usize>,
    /// Wall-clock time of the evaluation (excluding backend
    /// construction).
    pub wall: Duration,
    /// The backend's work in its own cost model: clock cycles for the
    /// pipeline (`lanes + depth - 1` when streaming), ALU cycles
    /// (instructions × lanes) for the schedule, tape instructions ×
    /// lanes for the engine modes, operator applications × lanes for the
    /// scalar walk.
    pub work: u64,
    /// Whether this backend's evaluation raised a runtime `overflow` or
    /// `underflow` sticky flag. Cross-checked against the static range
    /// analysis: a raise on a case whose every instruction is
    /// *provably-safe* is a soundness violation and fails the case.
    pub range_flag: bool,
    /// The backend's sticky flags over the whole batch.
    pub flags: Flags,
    /// Whether a fused backend's flags differ from those of the soft
    /// scalar sweep over the same tape. The fused streams may run a
    /// word-lane context, which must raise exactly the soft flags.
    pub flags_diverged: bool,
}

impl BackendRun {
    /// Measured lane throughput, lanes per second.
    pub fn lanes_per_sec(&self, lanes: usize) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            lanes as f64 / secs
        } else {
            f64::INFINITY
        }
    }
}

/// One `(model, arithmetic, semiring)` case.
#[derive(Clone, Debug)]
pub struct CaseReport {
    /// The model's display name.
    pub model: String,
    /// The arithmetic the case ran in.
    pub arith: ArithSpec,
    /// The semiring the case ran in.
    pub semiring: Semiring,
    /// Evidence lanes evaluated.
    pub lanes: usize,
    /// Per-backend verdicts, scalar reference first. Hardware backends
    /// appear only in sum-product cases.
    pub backends: Vec<BackendRun>,
    /// `true` when the static range analysis proved every tape
    /// instruction of the case safe for its arithmetic (no instruction
    /// can saturate or underflow, parameter conversion included).
    pub static_safe: bool,
    /// Instructions the range analysis classified *may-saturate*.
    pub static_may_saturate: usize,
    /// Instructions the range analysis classified *may-underflow*.
    pub static_may_underflow: usize,
}

impl CaseReport {
    /// Returns `true` if every backend matched the reference bit for bit,
    /// every fused backend raised the soft flags, **and** no backend's
    /// runtime flags contradicted the static analysis.
    pub fn all_match(&self) -> bool {
        self.backends
            .iter()
            .all(|b| b.mismatched_lanes == 0 && !b.flags_diverged)
            && self.flag_conflicts() == 0
    }

    /// Backends whose runtime range flags contradict a *provably-safe*
    /// static verdict — each one is a soundness violation of the range
    /// analysis (or a lying backend).
    pub fn flag_conflicts(&self) -> usize {
        if self.static_safe {
            self.backends.iter().filter(|b| b.range_flag).count()
        } else {
            0
        }
    }
}

/// The outcome of a full conformance run.
#[derive(Clone, Debug)]
pub struct ConformanceReport {
    /// The evidence/model seed of the run.
    pub seed: u64,
    /// Lanes per case the run was configured for.
    pub lanes_per_case: usize,
    /// Every `(model, arithmetic, semiring)` case.
    pub cases: Vec<CaseReport>,
}

impl ConformanceReport {
    /// Returns `true` if every backend of every case was bit-identical
    /// to the scalar reference.
    pub fn all_match(&self) -> bool {
        self.cases.iter().all(CaseReport::all_match)
    }

    /// Total diverging lanes across all cases and backends.
    pub fn total_mismatches(&self) -> usize {
        self.cases
            .iter()
            .flat_map(|c| &c.backends)
            .map(|b| b.mismatched_lanes)
            .sum()
    }

    /// Fused backends whose flags differed from the soft sweep's, across
    /// all cases.
    pub fn total_flag_divergences(&self) -> usize {
        self.cases
            .iter()
            .flat_map(|c| &c.backends)
            .filter(|b| b.flags_diverged)
            .count()
    }

    /// Total static/runtime flag conflicts across all cases.
    pub fn total_flag_conflicts(&self) -> usize {
        self.cases.iter().map(CaseReport::flag_conflicts).sum()
    }

    /// Total compared result streams (backends × cases, reference
    /// excluded).
    pub fn compared_streams(&self) -> usize {
        self.cases
            .iter()
            .map(|c| c.backends.len().saturating_sub(1))
            .sum()
    }
}

/// Renders a throughput figure compactly (`12.3M`, `456k`, `789`).
fn si(rate: f64) -> String {
    if !rate.is_finite() {
        return "-".to_string();
    }
    if rate >= 1e6 {
        format!("{:.1}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

impl std::fmt::Display for ConformanceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "differential conformance: {} cases, {} lanes each (seed {})",
            self.cases.len(),
            self.lanes_per_case,
            self.seed
        )?;
        writeln!(
            f,
            "backends: scalar reference vs tape, tape-full, fused-compact, \
             fused-full, schedule, pipeline \
             (hardware joins sum-product cases); the fused streams run \
             word lanes where the format fits one word, and FLAGS! marks \
             one whose flags differ from the soft sweep's"
        )?;
        writeln!(
            f,
            "static: range-analysis verdict per case — `safe` (every \
             instruction provably in range), `sN`/`uN` (N may-saturate / \
             may-underflow instructions); FLAG!n marks n backends whose \
             runtime flags contradicted a safe verdict"
        )?;
        writeln!(f)?;
        write!(
            f,
            "{:<14} {:<12} {:<12} {:>7} {:<8} ",
            "model", "arith", "semiring", "lanes", "static"
        )?;
        // One column per backend after the scalar reference.
        for &kind in &BackendKind::ALL[1..] {
            // `fused-compact` overflows the column; it is the fused
            // stream the report cares about most, so it heads as `fused`.
            let header = match kind {
                BackendKind::FusedCompact => "fused",
                other => other.name(),
            };
            write!(f, " {header:<10}")?;
        }
        writeln!(f, "  {:>10} {:>11}", "pipe cyc", "tape lane/s")?;
        for case in &self.cases {
            let cell = |kind: BackendKind| -> String {
                match case.backends.iter().find(|b| b.backend == kind) {
                    None => "-".to_string(),
                    Some(b) if b.mismatched_lanes == 0 && b.flags_diverged => "FLAGS!".to_string(),
                    Some(b) if b.mismatched_lanes == 0 => "ok".to_string(),
                    Some(b) => format!(
                        "X({} @{})",
                        b.mismatched_lanes,
                        b.first_mismatch.unwrap_or(0)
                    ),
                }
            };
            let pipe_cycles = case
                .backends
                .iter()
                .find(|b| b.backend == BackendKind::Pipeline)
                .map_or("-".to_string(), |b| b.work.to_string());
            let tape_rate = case
                .backends
                .iter()
                .find(|b| b.backend == BackendKind::TapeCompact)
                .map_or("-".to_string(), |b| si(b.lanes_per_sec(case.lanes)));
            let static_cell = if case.flag_conflicts() > 0 {
                format!("FLAG!{}", case.flag_conflicts())
            } else if case.static_safe {
                "safe".to_string()
            } else {
                let mut s = String::new();
                if case.static_may_saturate > 0 {
                    s.push_str(&format!("s{}", case.static_may_saturate));
                }
                if case.static_may_underflow > 0 {
                    s.push_str(&format!("u{}", case.static_may_underflow));
                }
                if s.is_empty() {
                    // Unsafe with clean instruction verdicts: the
                    // parameter conversion itself can range-flag.
                    s.push_str("conv");
                }
                s
            };
            write!(
                f,
                "{:<14} {:<12} {:<12} {:>7} {:<8} ",
                case.model,
                case.arith.to_string(),
                semiring_name(case.semiring),
                case.lanes,
                static_cell
            )?;
            for &kind in &BackendKind::ALL[1..] {
                write!(f, " {:<10}", cell(kind))?;
            }
            writeln!(f, "  {pipe_cycles:>10} {tape_rate:>11}")?;
        }
        writeln!(f)?;
        if self.all_match() {
            writeln!(
                f,
                "verdict: PASS — {} result streams bit-identical to the scalar \
                 reference, no runtime flag contradicted a provably-safe verdict",
                self.compared_streams()
            )
        } else {
            writeln!(
                f,
                "verdict: FAIL — {} diverging lanes across {} result streams, \
                 {} diverging flag sets, {} static/runtime flag conflicts",
                self.total_mismatches(),
                self.compared_streams(),
                self.total_flag_divergences(),
                self.total_flag_conflicts()
            )
        }
    }
}
