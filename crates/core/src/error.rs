//! Error type shared by the analytical-model crate.

use std::fmt;

/// Errors produced while constructing profiles or solving for partitions.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A numeric input was non-finite or out of its legal domain.
    InvalidInput {
        /// Name of the offending field or parameter.
        what: &'static str,
        /// The value that was rejected.
        value: f64,
    },
    /// The application list was empty where at least one app is required.
    NoApplications,
    /// Vector lengths disagreed (e.g. a share vector for a different app count).
    LengthMismatch {
        /// Expected number of entries.
        expected: usize,
        /// Number of entries actually supplied.
        got: usize,
    },
    /// A share vector did not lie on the unit simplex.
    InvalidShares {
        /// Sum of the supplied shares.
        sum: f64,
    },
    /// A QoS reservation is infeasible with the available bandwidth.
    QosInfeasible {
        /// Bandwidth the QoS group requires (accesses per cycle).
        required: f64,
        /// Bandwidth actually available (accesses per cycle).
        available: f64,
    },
    /// A scheme name failed to parse (see `PartitionScheme::from_str`).
    UnknownScheme {
        /// The name that did not match any scheme or alias.
        name: String,
    },
    /// A QoS target exceeds what the application can reach even alone.
    QosTargetUnreachable {
        /// Index of the offending application.
        app: usize,
        /// The requested IPC target.
        target_ipc: f64,
        /// The application's standalone IPC ceiling.
        ipc_alone: f64,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidInput { what, value } => {
                write!(f, "invalid value for {what}: {value}")
            }
            ModelError::NoApplications => write!(f, "at least one application is required"),
            ModelError::LengthMismatch { expected, got } => {
                write!(f, "expected {expected} entries, got {got}")
            }
            ModelError::InvalidShares { sum } => {
                write!(f, "share vector must sum to 1 (got {sum})")
            }
            ModelError::QosInfeasible {
                required,
                available,
            } => write!(
                f,
                "QoS group needs {required} APC but only {available} APC is available"
            ),
            ModelError::UnknownScheme { name } => {
                write!(
                    f,
                    "unknown scheme `{name}` (canonical names are kebab-case, e.g. `square-root`)"
                )
            }
            ModelError::QosTargetUnreachable {
                app,
                target_ipc,
                ipc_alone,
            } => write!(
                f,
                "QoS target IPC {target_ipc} for app {app} exceeds its standalone IPC {ipc_alone}"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ModelError::InvalidInput {
            what: "api",
            value: -1.0,
        };
        assert!(e.to_string().contains("api"));
        assert!(e.to_string().contains("-1"));

        let e = ModelError::QosInfeasible {
            required: 0.02,
            available: 0.01,
        };
        assert!(e.to_string().contains("0.02"));
        assert!(e.to_string().contains("0.01"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&ModelError::NoApplications);
    }
}
