//! Resource limits for a solve call.

use std::time::Instant;

/// Resource limits applied to [`Solver::solve_limited`](crate::Solver::solve_limited).
///
/// Any limit left as `None` is unbounded. The paper's experiments use a
/// wall-clock timeout (2 hours per instance); deterministic replication is
/// easier with a conflict budget, so both are offered.
///
/// # Examples
///
/// ```
/// use std::time::{Duration, Instant};
/// use rbmc_solver::Limits;
///
/// let limits = Limits::new()
///     .with_max_conflicts(10_000)
///     .with_deadline(Instant::now() + Duration::from_secs(5));
/// assert_eq!(limits.max_conflicts, Some(10_000));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Limits {
    /// Stop after this many conflicts.
    pub max_conflicts: Option<u64>,
    /// Stop when the wall clock passes this instant.
    pub deadline: Option<Instant>,
}

impl Limits {
    /// Creates unbounded limits.
    pub fn new() -> Limits {
        Limits::default()
    }

    /// Sets a conflict budget.
    pub fn with_max_conflicts(mut self, n: u64) -> Limits {
        self.max_conflicts = Some(n);
        self
    }

    /// Sets a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Limits {
        self.deadline = Some(deadline);
        self
    }
}
