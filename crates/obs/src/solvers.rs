//! Krylov solve counters: the work one solve asked of the layers below
//! it — iterations, global reductions, operator applications.
//!
//! Recorded once per solve, from tallies the solver keeps in locals, and
//! only while the `counters` flag is on: a solve costs one relaxed flag
//! load when it is off. The per-iteration ratios are the baselines a
//! single-reduction CG (one allreduce an iteration instead of two) or a
//! fused operator would claim against.

use crate::counters::counter_block;
use std::sync::atomic::Ordering;

counter_block! {
    /// The process-wide Krylov counter block (see [`solvers()`]).
    pub struct SolverCounters => SolverSnapshot {
        /// Conjugate-gradient solves recorded.
        cg_solves,
        /// CG iterations, summed over those solves.
        cg_iterations,
        /// Global reductions the solves made (a paired reduction such as
        /// `global_sum2` is one message, so one reduction).
        reductions,
        /// Operator applications (`y = A x`) the solves made.
        matvecs,
    }
}

impl SolverCounters {
    /// Records one CG solve's tallies.
    pub fn record_cg_solve(&self, iterations: u64, reductions: u64, matvecs: u64) {
        self.cg_solves.fetch_add(1, Ordering::Relaxed);
        self.cg_iterations.fetch_add(iterations, Ordering::Relaxed);
        self.reductions.fetch_add(reductions, Ordering::Relaxed);
        self.matvecs.fetch_add(matvecs, Ordering::Relaxed);
    }
}

static GLOBAL: SolverCounters = SolverCounters::new();

/// The process-wide Krylov counters.
pub fn solvers() -> &'static SolverCounters {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recorded_solve_adds_each_tally() {
        let c = SolverCounters::default();
        c.record_cg_solve(10, 22, 11);
        c.record_cg_solve(3, 8, 4);
        assert_eq!(
            c.snapshot(),
            SolverSnapshot {
                cg_solves: 2,
                cg_iterations: 13,
                reductions: 30,
                matvecs: 15,
            }
        );
        assert_eq!(
            c.snapshot().to_json(),
            "{\"cg_solves\":2,\"cg_iterations\":13,\"reductions\":30,\"matvecs\":15}"
        );
    }
}
