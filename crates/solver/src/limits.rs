//! Resource limits for a solve call.

use std::time::Instant;

/// Resource limits applied to [`Solver::solve_limited`](crate::Solver::solve_limited).
///
/// Any limit left as `None` is unbounded. The paper's experiments use a
/// wall-clock timeout (2 hours per instance); deterministic replication is
/// easier with `max_decisions` or `max_conflicts`, so all are offered.
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
    /// Stop after this many decisions.
    pub max_decisions: Option<u64>,
    /// Stop after this many propagations.
    pub max_propagations: Option<u64>,
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

    /// Sets a decision budget.
    pub fn with_max_decisions(mut self, n: u64) -> Limits {
        self.max_decisions = Some(n);
        self
    }

    /// Sets a propagation budget.
    pub fn with_max_propagations(mut self, n: u64) -> Limits {
        self.max_propagations = Some(n);
        self
    }

    /// Sets a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Limits {
        self.deadline = Some(deadline);
        self
    }

    /// Returns true if no limit is set at all.
    pub fn is_unbounded(&self) -> bool {
        self.max_conflicts.is_none()
            && self.max_decisions.is_none()
            && self.max_propagations.is_none()
            && self.deadline.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let l = Limits::new().with_max_decisions(5).with_max_propagations(7);
        assert_eq!(l.max_decisions, Some(5));
        assert_eq!(l.max_propagations, Some(7));
        assert_eq!(l.max_conflicts, None);
        assert!(!l.is_unbounded());
    }

    #[test]
    fn default_is_unbounded() {
        assert!(Limits::new().is_unbounded());
    }
}
