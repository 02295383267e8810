//! Typed simulator errors.
//!
//! The simulator originally `panic!`ed / `expect`ed its way through bad
//! hosts and broken invariants, which made it unusable as a library under
//! damaged topologies: a disconnected survivor graph is a *measurement*,
//! not a programming error. Every fallible entry point of this crate now
//! returns [`SimError`] instead. Building a host is the host crate's
//! business: a table-routed host that cannot be built reports
//! `xtree_host::HostError`.

use std::fmt;

/// Everything that can go wrong while building or driving a simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A router proposed a next hop that is not a neighbour of the current
    /// vertex — a routing-strategy bug surfaced as data, not a panic.
    RouterInvariant {
        /// Vertex the message is at.
        at: u32,
        /// The non-neighbour the router proposed.
        to: u32,
    },
    /// The fault-free engine exceeded its convergence bound — deterministic
    /// shortest-path routing can only do this if a router is broken.
    Diverged {
        /// Cycle count at which the engine gave up.
        cycle: u32,
        /// Messages still undelivered at that point.
        undelivered: usize,
    },
    /// A fault event refers to a link or node the host does not have.
    InvalidFault {
        /// Human-readable description of the offending event.
        reason: String,
    },
    /// A fault probability is NaN or outside `[0, 1]` — a degenerate plan
    /// would be silently all-or-nothing, so it is rejected instead.
    InvalidRate {
        /// The offending value, formatted (kept as text so the error stays
        /// `Eq` despite NaN).
        given: String,
    },
    /// A checkpoint file is truncated, corrupt, or from an incompatible
    /// version.
    BadCheckpoint {
        /// Human-readable description of what failed to parse.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RouterInvariant { at, to } => write!(
                f,
                "router returned non-neighbour {to} as the next hop from {at}"
            ),
            SimError::Diverged { cycle, undelivered } => write!(
                f,
                "engine failed to converge by cycle {cycle} with {undelivered} messages \
                 undelivered — routing bug"
            ),
            SimError::InvalidFault { reason } => write!(f, "invalid fault event: {reason}"),
            SimError::InvalidRate { given } => {
                write!(f, "fault rate `{given}` is not a probability in [0, 1]")
            }
            SimError::BadCheckpoint { reason } => write!(f, "bad checkpoint: {reason}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_descriptive() {
        let cases: Vec<(SimError, &str)> = vec![
            (SimError::RouterInvariant { at: 3, to: 9 }, "non-neighbour"),
            (
                SimError::Diverged {
                    cycle: 99,
                    undelivered: 4,
                },
                "converge",
            ),
            (
                SimError::InvalidFault {
                    reason: "link 0-9".into(),
                },
                "link 0-9",
            ),
            (
                SimError::InvalidRate {
                    given: "NaN".into(),
                },
                "not a probability",
            ),
            (
                SimError::BadCheckpoint {
                    reason: "short magic".into(),
                },
                "short magic",
            ),
        ];
        for (e, needle) in cases {
            let msg = e.to_string();
            assert!(msg.contains(needle), "{msg}");
            // Errors are values: they must be comparable and cloneable.
            assert_eq!(e.clone(), e);
        }
    }
}
