//! Three-valued logic for partial assignments.

use std::fmt;
use std::ops::Not;

/// A lifted Boolean: true, false, or unassigned.
///
/// # Examples
///
/// ```
/// use rbmc_solver::LBool;
///
/// assert_eq!(LBool::from(true), LBool::True);
/// assert_eq!(!LBool::True, LBool::False);
/// assert_eq!(!LBool::Undef, LBool::Undef);
/// assert_eq!(LBool::True.to_bool(), Some(true));
/// assert_eq!(LBool::Undef.to_bool(), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not assigned.
    #[default]
    Undef,
}

impl LBool {
    /// Returns true if this is [`LBool::Undef`].
    #[inline]
    pub fn is_undef(self) -> bool {
        self == LBool::Undef
    }

    /// Converts to `Option<bool>` (`None` when unassigned).
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }
}

impl From<bool> for LBool {
    #[inline]
    fn from(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

impl Not for LBool {
    type Output = LBool;

    #[inline]
    fn not(self) -> LBool {
        match self {
            LBool::True => LBool::False,
            LBool::False => LBool::True,
            LBool::Undef => LBool::Undef,
        }
    }
}

impl fmt::Debug for LBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LBool::True => "T",
            LBool::False => "F",
            LBool::Undef => "?",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(LBool::from(true).to_bool(), Some(true));
        assert_eq!(LBool::from(false).to_bool(), Some(false));
        assert_eq!(LBool::Undef.to_bool(), None);
    }

    #[test]
    fn negation() {
        assert_eq!(!LBool::True, LBool::False);
        assert_eq!(!LBool::False, LBool::True);
        assert_eq!(!LBool::Undef, LBool::Undef);
    }

    #[test]
    fn default_is_undef() {
        assert_eq!(LBool::default(), LBool::Undef);
        assert!(LBool::default().is_undef());
    }
}
