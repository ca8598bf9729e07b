//! Errors a cluster run can report before it starts.
//!
//! Mis-configuration used to panic inside the builder; the
//! [`RunBuilder`](crate::cluster::RunBuilder) surfaces it as a value so
//! experiment harnesses can sweep configurations and skip invalid ones.

use std::fmt;

/// Why a configured run could not be started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicationError {
    /// No concurrency-control protocol was configured.
    MissingProtocol,
    /// The quorum thresholds violate the protocol's dependency relation —
    /// running them would silently produce non-atomic histories, which is
    /// precisely what the paper's constraints exist to prevent.
    InvalidThresholds(String),
    /// The network configuration is inconsistent.
    InvalidNetwork {
        /// Configured minimum delay.
        min_delay: u64,
        /// Configured maximum delay (smaller than the minimum).
        max_delay: u64,
    },
    /// A network fault probability is outside `[0, 1]` — the chaos layer
    /// cannot interpret it as a per-message coin flip.
    InvalidChaosProfile(String),
    /// The workload is empty — there is nothing to run.
    EmptyWorkload,
    /// A client's action ids would not fit the `client * ACTION_SPAN + seq`
    /// encoding ([`ACTION_SPAN`](crate::types::ACTION_SPAN)): its worst
    /// case issues more actions than one client's span holds (they would
    /// alias the next client's ids), or its process id is high enough for
    /// the product to wrap `u32`.
    ActionSpaceExhausted {
        /// The offending client's process id.
        client: u32,
        /// The most actions its workload can issue:
        /// `txns × (1 + txn_retries)`.
        actions: u64,
    },
    /// An operation carried a configuration version older than the
    /// current one — the transaction must abort and retry under the
    /// adopted configuration (§ reconfiguration).
    StaleEpoch {
        /// The version the operation carried.
        seen: u64,
        /// The version actually current.
        current: u64,
    },
    /// A reconfiguration schedule is malformed (empty membership, members
    /// outside the cluster, non-increasing epochs or times, thresholds
    /// sized for a different membership).
    InvalidReconfig(String),
    /// A fault plan names a process outside the cluster, or schedules a
    /// window that ends before it starts.
    InvalidFaultPlan(String),
}

impl fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationError::MissingProtocol => write!(f, "protocol required"),
            ReplicationError::InvalidThresholds(detail) => {
                write!(
                    f,
                    "quorum thresholds violate the dependency relation: {detail}"
                )
            }
            ReplicationError::InvalidNetwork {
                min_delay,
                max_delay,
            } => write!(
                f,
                "invalid network config: min_delay {min_delay} > max_delay {max_delay}"
            ),
            ReplicationError::InvalidChaosProfile(detail) => {
                write!(f, "invalid chaos profile: {detail}")
            }
            ReplicationError::EmptyWorkload => write!(f, "workload is empty"),
            ReplicationError::ActionSpaceExhausted { client, actions } => write!(
                f,
                "client {client} may issue up to {actions} actions, which do not fit the \
                 action-id space ({span} ids per client, client × {span} + seq within u32)",
                span = crate::types::ACTION_SPAN
            ),
            ReplicationError::StaleEpoch { seen, current } => write!(
                f,
                "stale configuration: operation saw version {seen}, current is {current}"
            ),
            ReplicationError::InvalidFaultPlan(detail) => {
                write!(f, "invalid fault plan: {detail}")
            }
            ReplicationError::InvalidReconfig(detail) => {
                write!(f, "invalid reconfiguration schedule: {detail}")
            }
        }
    }
}

impl std::error::Error for ReplicationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_problem() {
        assert_eq!(
            ReplicationError::MissingProtocol.to_string(),
            "protocol required"
        );
        assert!(
            ReplicationError::InvalidThresholds("Deq needs ti+tf > n".into())
                .to_string()
                .contains("violate the dependency relation")
        );
        assert!(ReplicationError::InvalidNetwork {
            min_delay: 9,
            max_delay: 2
        }
        .to_string()
        .contains("min_delay 9 > max_delay 2"));
        assert!(ReplicationError::StaleEpoch {
            seen: 3,
            current: 5
        }
        .to_string()
        .contains("saw version 3, current is 5"));
        assert!(ReplicationError::InvalidReconfig("epoch 2 before 1".into())
            .to_string()
            .contains("invalid reconfiguration schedule"));
    }
}
