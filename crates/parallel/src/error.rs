//! Error type for the SPMD substrate.

use std::fmt;

/// Errors produced by the communicator layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParallelError {
    /// A rank argument was outside `0..size`.
    RankOutOfRange {
        /// The offending rank argument.
        rank: usize,
        /// The communicator's size.
        size: usize,
    },
    /// A received payload had a different type than the receiver requested.
    TypeMismatch {
        /// The Rust type the receiver requested.
        expected: &'static str,
    },
    /// The peer's channel is closed (its thread exited).
    Disconnected {
        /// The peer whose channel closed.
        peer: usize,
    },
    /// A collective was called with inconsistent arguments across ranks
    /// (detected where cheaply possible, e.g. scatter length != size).
    CollectiveMismatch(String),
    /// A payload type outside the wire-codec set was sent over a
    /// [`WireLink`](crate::wire::WireLink) route.
    Unserializable {
        /// The Rust type of the offending payload.
        type_name: &'static str,
    },
    /// Malformed bytes on a wire route (truncated, trailing, unknown tag).
    Codec(String),
    /// The rank group's generation changed under this operation — a peer
    /// rank died and the fleet is rolling back. Carries the new
    /// generation; callers resynchronize and replay from the last
    /// committed checkpoint rather than treating this as fatal.
    Interrupted {
        /// The generation the group moved to.
        generation: u64,
    },
    /// A wire operation exceeded its park deadline without the fleet
    /// either delivering a message or rolling back.
    Timeout {
        /// How long the caller waited, in milliseconds.
        waited_ms: u64,
    },
}

impl fmt::Display for ParallelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParallelError::RankOutOfRange { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            ParallelError::TypeMismatch { expected } => {
                write!(f, "received message payload is not of type {expected}")
            }
            ParallelError::Disconnected { peer } => {
                write!(f, "peer rank {peer} disconnected")
            }
            ParallelError::CollectiveMismatch(msg) => write!(f, "collective mismatch: {msg}"),
            ParallelError::Unserializable { type_name } => {
                write!(f, "payload type {type_name} has no wire encoding")
            }
            ParallelError::Codec(msg) => write!(f, "wire codec error: {msg}"),
            ParallelError::Interrupted { generation } => {
                write!(
                    f,
                    "operation interrupted by fleet rollback to generation {generation}"
                )
            }
            ParallelError::Timeout { waited_ms } => {
                write!(f, "wire operation timed out after {waited_ms} ms")
            }
        }
    }
}

impl std::error::Error for ParallelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ParallelError::RankOutOfRange { rank: 5, size: 4 };
        assert!(e.to_string().contains("rank 5"));
        let e = ParallelError::TypeMismatch { expected: "f64" };
        assert!(e.to_string().contains("f64"));
    }
}
